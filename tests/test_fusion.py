import warnings

import numpy as np
import pytest

from bratsfuse import fusion
from bratsfuse.errors import EmptyList, GeometryMismatch
from bratsfuse.fusion import (
    CODE_BITS,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    StapleParams,
    argmax_labels,
    average_probs,
    default_staple_params,
    joint_codes,
    joint_histogram,
    pack_labels,
    staple_binary,
    staple_multilabel,
    staple_multilabel_detailed,
)
from bratsfuse.regions import Region, RegionMask, recompose_labels, region_mask
from bratsfuse.synth import PhantomSpec, corrupt_labels, make_phantom
from bratsfuse.volume import BRATS_LABELS, LabelMap, ProbMap, _label_index

from .conftest import random_labelmap, random_mask, random_probmap
from .oracles import staple_em_reference


def probmap_from_rows(rows):
    """Build a ProbMap from per-voxel channel vectors (one voxel per row)."""
    arr = np.array(rows, dtype=np.float64).T.reshape(4, len(rows), 1, 1)
    return ProbMap(arr)


class TestAverageProbs:
    def test_identical_maps(self, rng):
        pm = random_probmap(rng, (3, 3, 3))
        out = average_probs([pm, pm, pm])
        assert np.abs(out.data - pm.data).max() < 1e-12

    def test_two_one_hots(self):
        a = probmap_from_rows([[1, 0, 0, 0]])
        b = probmap_from_rows([[0, 1, 0, 0]])
        out = average_probs([a, b])
        assert out.data.reshape(4).tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_three_map_mean(self):
        maps = [probmap_from_rows([[v, 1 - v, 0, 0]]) for v in (0.2, 0.5, 0.8)]
        out = average_probs(maps)
        assert out.data[0, 0, 0, 0] == pytest.approx(0.5)

    def test_permutation_invariant(self, rng):
        maps = [random_probmap(rng, (2, 2, 2)) for _ in range(4)]
        a = average_probs(maps)
        b = average_probs(maps[::-1])
        assert np.abs(a.data - b.data).max() < 1e-15

    def test_errors(self, rng):
        with pytest.raises(EmptyList):
            average_probs([])
        with pytest.raises(GeometryMismatch):
            average_probs([random_probmap(rng, (2, 2, 2)), random_probmap(rng, (3, 2, 2))])


    @pytest.mark.parametrize("n_maps", [1, 2, 5])
    def test_bit_identical_to_zero_then_add(self, rng, n_maps):
        maps = [random_probmap(rng, (5, 4, 3)) for _ in range(n_maps)]
        # Mixed memory layouts: the sum is taken voxel by voxel either way.
        maps[0] = ProbMap(np.asfortranarray(maps[0].data))
        acc = np.zeros_like(maps[0].data, dtype=np.float64)
        for m in maps:
            acc += m.data
        acc /= len(maps)
        np.clip(acc, 0.0, 1.0, out=acc)
        assert average_probs(maps).data.tobytes() == acc.tobytes()


def _quarter_maps(rng, shape):
    """Probability maps of quarters (0, 0.25, ..., 1): most voxels tie."""
    counts = rng.multinomial(4, [0.25] * 4, size=shape)
    return ProbMap(np.moveaxis(counts, -1, 0) / 4.0)


class TestArgmax:
    @pytest.mark.parametrize("make", [
        lambda rng: random_probmap(rng, (7, 6, 5)),
        lambda rng: _quarter_maps(rng, (7, 6, 5)),
        lambda rng: ProbMap(np.asfortranarray(_quarter_maps(rng, (3, 4, 5)).data)),
    ])
    def test_equals_reversed_argmax(self, rng, make):
        p = make(rng)
        want = np.array([0, 1, 2, 4], np.uint8)[3 - np.argmax(p.data[::-1], axis=0)]
        got = argmax_labels(p)
        assert got.data.dtype == np.uint8
        assert np.array_equal(got.data, want)
        assert (got.spacing, got.origin) == (p.spacing, p.origin)

    def test_one_hot(self):
        out = argmax_labels(probmap_from_rows([[0, 0, 0, 1]]))
        assert out.data.reshape(-1).tolist() == [4]

    def test_uniform_tie_prefers_later_channel(self):
        out = argmax_labels(probmap_from_rows([[0.25, 0.25, 0.25, 0.25]]))
        assert out.data.reshape(-1).tolist() == [4]

    def test_background_wins(self):
        out = argmax_labels(probmap_from_rows([[0.4, 0.3, 0.2, 0.1]]))
        assert out.data.reshape(-1).tolist() == [0]


def rater_masks(columns):
    arr = np.array(columns, dtype=bool)  # (J, N)
    return [RegionMask(Region.WT, row.reshape(arr.shape[1], 1, 1)) for row in arr]


class TestStapleBinary:
    def test_unanimous_fixed_point(self):
        data = np.zeros((4, 4, 1), dtype=bool)
        data[1:3, 1:3, 0] = True
        masks = [RegionMask(Region.WT, data) for _ in range(3)]
        res = staple_binary(masks)
        assert np.array_equal(res.mask.data, data)
        assert all(p >= 1 - 1e-6 for p in res.final_params.p)
        assert all(q >= 1 - 1e-6 for q in res.final_params.q)

    def test_single_rater_near_one_init(self, rng):
        mask = random_mask(rng, (4, 4, 4), density=0.3)
        res = staple_binary([mask])
        assert np.array_equal(res.mask.data, mask.data)

    def test_against_reference_on_spec_instance(self):
        # 1x1x4 volume, 3 raters voting per voxel: (1,1,0),(1,0,0),(1,1,1),(0,0,0)
        d = np.array([[1, 1, 1, 0], [1, 0, 1, 0], [0, 0, 1, 0]], dtype=np.float64)
        masks = rater_masks(d.astype(bool).reshape(3, 4))
        res = staple_binary(masks)
        self.assert_matches_reference(res, d, default_staple_params(3, prior=float(d.mean())))

    @staticmethod
    def assert_matches_reference(res, d, init, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
        w_ref, p_ref, q_ref, iters_ref, conv_ref = staple_em_reference(
            d, init.p, init.q, init.prior, tol, max_iters
        )
        assert np.abs(res.posterior.reshape(-1) - w_ref).max() < 1e-6
        assert np.abs(np.array(res.final_params.p) - p_ref).max() < 1e-6
        assert np.abs(np.array(res.final_params.q) - q_ref).max() < 1e-6
        assert res.iterations == iters_ref
        assert res.converged == conv_ref

    # 5 raters are counted by np.bincount, 20 by sorting packed decision rows.
    @pytest.mark.parametrize("n_raters", [5, 20])
    def test_against_reference_on_disagreeing_raters(self, rng, n_raters):
        assert 5 <= CODE_BITS < 20
        truth = rng.random((6, 5, 4)) < 0.4
        masks = [
            RegionMask(Region.WT, truth ^ (rng.random(truth.shape) < 0.15))
            for _ in range(n_raters)
        ]
        d = np.stack([m.data.reshape(-1) for m in masks]).astype(np.float64)
        assert np.unique(d, axis=1).shape[1] > 8  # many patterns, not a handful
        res = staple_binary(masks)
        assert res.final_params.prior == float(np.stack([m.data for m in masks]).mean())
        self.assert_matches_reference(res, d, default_staple_params(n_raters, float(d.mean())))

        init = StapleParams((0.8,) * n_raters, (0.9,) * n_raters, prior=0.3)
        res = staple_binary(masks, init, tol=1e-12, max_iters=7)
        assert res.final_params.prior == 0.3
        self.assert_matches_reference(res, d, init, tol=1e-12, max_iters=7)

    def test_mask_matches_thresholded_posterior(self, rng):
        masks = [random_mask(rng, (4, 4, 4), density=0.4) for _ in range(3)]
        res = staple_binary(masks)
        assert np.array_equal(res.mask.data, res.posterior >= 0.5)
        assert res.posterior.min() >= 0.0 and res.posterior.max() <= 1.0

    def test_mstep_fixed_point_identities(self, rng):
        masks = [random_mask(rng, (5, 4, 3), density=0.5) for _ in range(4)]
        res = staple_binary(masks)
        d = np.stack([m.data.reshape(-1) for m in masks]).astype(np.float64)
        w = res.posterior.reshape(-1)
        p_expected = np.clip((d @ w) / w.sum(), 1e-7, 1 - 1e-7)
        q_expected = np.clip(((1 - d) @ (1 - w)) / (1 - w).sum(), 1e-7, 1 - 1e-7)
        assert np.abs(np.array(res.final_params.p) - p_expected).max() < 1e-8
        assert np.abs(np.array(res.final_params.q) - q_expected).max() < 1e-8

    def test_rater_permutation_invariance(self, rng):
        masks = [random_mask(rng, (4, 4, 4), density=0.4) for _ in range(4)]
        a = staple_binary(masks)
        b = staple_binary(masks[::-1])
        assert np.array_equal(a.mask.data, b.mask.data)
        assert np.abs(a.posterior - b.posterior).max() < 1e-12
        assert np.abs(np.array(a.final_params.p) - np.array(b.final_params.p[::-1])).max() < 1e-12

    def test_unanimity_preserved_on_realistic_raters(self):
        gt, _ = make_phantom(PhantomSpec(shape=(20, 20, 20), seed=11))
        raters = [corrupt_labels(gt, 0.15, seed=100 + k) for k in range(4)]
        masks = [region_mask(r, Region.WT) for r in raters]
        res = staple_binary(masks)
        stacked = np.stack([m.data for m in masks])
        all_fg = stacked.all(axis=0)
        all_bg = ~stacked.any(axis=0)
        assert all_fg.any() and all_bg.any()
        assert res.mask.data[all_fg].all()
        assert not res.mask.data[all_bg].any()

    def test_no_underflow_with_64_raters(self, rng):
        # The EM has no rater limit. Sixty-four raters that agree on 27
        # voxels: with p = q = 0.99999 the all-background pattern has
        # exp(log_b - log_a) = exp(737), which overflows unless the E-step
        # stays in log space.
        mask = random_mask(rng, (3, 3, 3), density=0.5).data.reshape(-1)
        pats = np.repeat([[0, 1]], 64, axis=0)
        counts = np.bincount(mask, minlength=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w, fit = fusion._staple_em(pats, counts, mask.size, None, DEFAULT_TOL,
                                       DEFAULT_MAX_ITERS)
        assert np.isfinite(w).all() and fit.converged
        assert (w >= 0.5).tolist() == [False, True]

    def test_param_validation(self, rng):
        with pytest.raises(ValueError):
            StapleParams((0.5,), (0.5,), prior=1.0)
        with pytest.raises(ValueError):
            StapleParams((0.5,), (0.5, 0.5), prior=0.5)
        masks = [random_mask(rng, (3, 3, 3))]
        maps = [random_labelmap(rng, (3, 3, 3))]
        for em in ({"max_iters": 0}, {"tol": 0.0}, {"tol": float("nan")}, {"tol": float("inf")}):
            with pytest.raises(ValueError, match="tol > 0 and max_iters >= 1"):
                staple_binary(masks, **em)
            with pytest.raises(ValueError, match="tol > 0 and max_iters >= 1"):
                staple_multilabel_detailed(maps, **em)

    def test_em_controls_apply_with_an_init(self, rng):
        masks = [random_mask(rng, (6, 5, 4), density=0.4) for _ in range(3)]
        init = StapleParams((0.9,) * 3, (0.9,) * 3, 0.3)
        assert staple_binary(masks, init).iterations > 1
        res = staple_binary(masks, init, max_iters=1)
        assert (res.iterations, res.converged) == (1, False)
        res = staple_binary(masks, init, tol=1.0)
        assert (res.iterations, res.converged) == (1, True)


class TestPatterns:
    """``joint_histogram``, the row counter behind every STAPLE path, by
    np.bincount and by sorting."""

    @pytest.mark.parametrize("code_bits", [CODE_BITS, 4])
    # Digits of one bit (0/1 decisions, as STAPLE packs them) or of two
    # (label positions), packed two bits per rater either way: 3 and 5
    # raters are counted, 9, 17 and 32 sorted.
    @pytest.mark.parametrize("digit_bits, n_raters",
                             [(1, 5), (2, 3), (2, 5), (2, 9), (1, 17), (2, 17), (2, 32)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_rows_and_counts(self, rng, monkeypatch, code_bits, digit_bits, n_raters,
                             weighted):
        monkeypatch.setattr(fusion, "CODE_BITS", code_bits)
        monkeypatch.setattr(fusion, "CHUNK_VOXELS", 97)
        digits = rng.integers(0, 1 << digit_bits, (n_raters, 500)).astype(np.uint8)
        weights = rng.integers(1, 5, 500) if weighted else np.ones(500, int)
        codes = joint_codes(n_raters, 500)
        for r, col in enumerate(digits):
            pack_labels(codes, r, np.array(BRATS_LABELS, np.uint8)[col])
        # Three pieces, and 7 voxels of code 0 outside them, each of weight 1.
        rows, counts, index = joint_histogram(
            np.split(codes, [123, 400]), n_raters, len(codes) + 7,
            np.split(weights, [123, 400]) if weighted else None)
        want = {(0,) * n_raters: 7}
        for k, row in enumerate(map(tuple, digits.T)):
            want[row] = want.get(row, 0) + weights[k]
        assert np.array_equal(rows[:, index[codes]], digits)
        assert dict(zip(map(tuple, rows.T), counts.tolist())) == want
        assert counts.dtype == (np.float64 if weighted else np.int64)
        # Ascending code order, whether counted or sorted.
        row_codes = [sum(int(d) << 2 * r for r, d in enumerate(row)) for row in rows.T]
        assert row_codes == sorted(set(row_codes))

    # Codes of one uint8 (1 and 4 raters), uint16, uint32 or uint64.
    @pytest.mark.parametrize("n_raters", [1, 4, 5, 9, 32])
    def test_pack_labels_stores_each_rater_in_its_two_bits(self, rng, n_raters):
        labels = rng.choice(BRATS_LABELS, (n_raters, 300)).astype(np.uint8)
        codes = joint_codes(n_raters, 300)
        for r, col in enumerate(labels):
            pack_labels(codes, r, col)
        want = {1: np.uint8, 4: np.uint8, 5: np.uint16, 9: np.uint32, 32: np.uint64}
        assert codes.shape == (300,) and codes.dtype == want[n_raters]
        for r, col in enumerate(labels):
            position = (codes >> 2 * r) & 3
            assert np.array_equal(position, _label_index(col)), r
            assert np.array_equal(np.array(BRATS_LABELS)[position], col), r

    def test_a_code_holds_at_most_32_raters(self, rng):
        assert joint_codes(32, 5).dtype == np.uint64
        with pytest.raises(ValueError, match="at most 32 raters, got 33"):
            joint_codes(33, 5)
        with pytest.raises(ValueError, match="at most 32 raters, got 33"):
            staple_binary([random_mask(rng, (3, 3, 3))] * 33)


class TestStapleMultilabel:
    def test_identical_maps(self, rng):
        m = random_labelmap(rng, (4, 4, 4))
        out = staple_multilabel([m, m, m])
        assert np.array_equal(out.data, m.data)

    def test_single_rater(self, rng):
        m = random_labelmap(rng, (4, 4, 4))
        out = staple_multilabel([m])
        assert np.array_equal(out.data, m.data)

    def test_compositional_equivalence_with_per_region_path(self):
        gt, _ = make_phantom(PhantomSpec(shape=(24, 24, 24), seed=7))
        raters = [corrupt_labels(gt, 0.10, seed=700 + k) for k in range(3)]
        fused, details = staple_multilabel_detailed(raters)
        per_region = {}
        for r in (Region.ET, Region.TC, Region.WT):
            res = staple_binary([region_mask(m, r) for m in raters])
            per_region[r] = res.mask
            assert details[r.value].to_json_dict() == res.to_json_dict()
        recomposed = recompose_labels(
            per_region[Region.ET], per_region[Region.TC], per_region[Region.WT]
        )
        assert np.array_equal(fused.data, recomposed.data)
        # For this seed the per-region masks are nested, so the fused map
        # decomposes back to exactly the per-region STAPLE outputs.
        for r in (Region.ET, Region.TC, Region.WT):
            assert np.array_equal(region_mask(fused, r).data, per_region[r].data)


REGIONS = (Region.ET, Region.TC, Region.WT)


def boundary_raters(gt, n_raters, seed):
    """Raters that shift each region of ``gt`` by its own offset of up to 3
    voxels, so their errors sit at the region boundaries."""
    rng = np.random.default_rng(seed)
    raters = []
    for _ in range(n_raters):
        shifted = [
            RegionMask(r, np.roll(region_mask(gt, r).data, tuple(rng.integers(-3, 4, 3)),
                                  axis=(0, 1, 2)))
            for r in REGIONS
        ]
        raters.append(recompose_labels(*shifted))
    return raters


class TestJointLabelStaple:
    """staple_multilabel_detailed against per-region staple_binary and
    recompose_labels, the path it replaces."""

    @staticmethod
    def assert_equals_per_region(raters, init, **em):
        """Checks labels and fits; returns the per-region STAPLE masks."""
        fused, details = staple_multilabel_detailed(raters, init, **em)
        per_region = {r: staple_binary([region_mask(m, r) for m in raters], init, **em)
                      for r in REGIONS}
        want = recompose_labels(*(per_region[r].mask for r in REGIONS))
        assert np.array_equal(fused.data, want.data)
        assert (fused.spacing, fused.origin) == (raters[0].spacing, raters[0].origin)
        first = raters[0].data
        assert fused.data.flags.f_contiguous == (
            first.flags.f_contiguous and not first.flags.c_contiguous)
        # Same pattern counts in the same order: the EM arithmetic is identical.
        assert set(details) == {r.value for r in REGIONS}
        for r in REGIONS:
            assert details[r.value].to_json_dict() == per_region[r].to_json_dict()
        return {r: res.mask.data for r, res in per_region.items()}

    @pytest.mark.parametrize("n_raters, seed, init", [
        (2, 1, StapleParams((0.95, 0.7), (0.8, 0.99), prior=0.1)),
        (3, 10, None),
        # An init with its own EM controls: (init, {"max_iters": .., "tol": ..}).
        (3, 10, (StapleParams((0.9, 0.8, 0.95), (0.97, 0.9, 0.99), prior=0.2),
                 {"max_iters": 5, "tol": 1e-9})),
        (8, 4, None),   # the most raters whose joint codes fit a uint16
        (9, 4, None),   # joint rows found by sorting
    ])
    @pytest.mark.parametrize("first_order", ["C", "F"])
    def test_equals_the_per_region_path(self, monkeypatch, n_raters, seed, init,
                                        first_order):
        init, em = init if isinstance(init, tuple) else (init, {})
        assert CODE_BITS // 2 == 8  # the 8- and 9-rater cases straddle it
        # 8000 voxels: eight full chunks and a short one.
        monkeypatch.setattr(fusion, "CHUNK_VOXELS", 999)
        gt, _ = make_phantom(PhantomSpec(shape=(20, 20, 20), seed=7))
        raters = boundary_raters(gt, n_raters, seed)
        # Memory orders alternate, starting with ``first_order``.
        orders = ["C", "F"] if first_order == "C" else ["F", "C"]
        raters = [LabelMap(np.asarray(m.data, order=orders[k % 2]), m.spacing, m.origin)
                  for k, m in enumerate(raters)]
        masks = self.assert_equals_per_region(raters, init, **em)
        # The per-region masks are not nested, so the recomposition's union
        # rules decide some voxels: with the default init both of them.
        et_outside_tc = (masks[Region.ET] & ~masks[Region.TC]).any()
        tc_outside_wt = (masks[Region.TC] & ~masks[Region.WT]).any()
        assert (et_outside_tc and tc_outside_wt) if init is None else tc_outside_wt

    def test_region_patterns_found_by_sorting(self):
        # 17 raters: both the joint rows and each region's patterns are
        # sorted, and their codes fill more than one uint32.
        assert 2 * 17 > max(CODE_BITS, 32)
        gt, _ = make_phantom(PhantomSpec(shape=(20, 20, 20), seed=7))
        self.assert_equals_per_region(boundary_raters(gt, 17, 4), None)

    def test_init_needs_one_entry_per_rater(self, rng):
        maps = [random_labelmap(rng, (4, 4, 4)) for _ in range(3)]
        with pytest.raises(ValueError, match="init has 2 raters, got 3"):
            staple_multilabel_detailed(maps, StapleParams((0.9, 0.9), (0.9, 0.9), 0.5))

    def test_rejects_no_maps_and_mismatched_grids(self, rng):
        with pytest.raises(EmptyList):
            staple_multilabel_detailed([])
        with pytest.raises(GeometryMismatch):
            staple_multilabel_detailed([random_labelmap(rng, (4, 4, 4)),
                                        random_labelmap(rng, (4, 4, 5))])
