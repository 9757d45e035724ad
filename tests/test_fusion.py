import warnings
from dataclasses import astuple

import numpy as np
import pytest

from bratsfuse import fusion
from bratsfuse.errors import EmptyList, GeometryMismatch
from bratsfuse.fusion import (
    DEFAULT_INIT_PQ,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    StapleFit,
    argmax_labels,
    average_probs,
    joint_codes,
    joint_histogram,
    pack_labels,
    staple_binary,
    staple_multilabel,
    staple_multilabel_detailed,
)
from bratsfuse.regions import Region, compose, region_mask
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
    return [row.reshape(arr.shape[1], 1, 1) for row in arr]


class TestStapleBinary:
    def test_unanimous_fixed_point(self):
        data = np.zeros((4, 4, 1), dtype=bool)
        data[1:3, 1:3, 0] = True
        masks = [data] * 3
        res = staple_binary(masks)
        assert np.array_equal(res.mask, data)
        assert all(p >= 1 - 1e-6 for p in res.p)
        assert all(q >= 1 - 1e-6 for q in res.q)

    def test_single_rater_near_one_init(self, rng):
        mask = random_mask(rng, (4, 4, 4), density=0.3)
        res = staple_binary([mask])
        assert np.array_equal(res.mask, mask)

    def test_masks_are_boolean_arrays_of_one_shape(self, rng):
        masks = [random_mask(rng, (4, 3, 2), density=0.4) for _ in range(3)]
        res = staple_binary(masks)
        assert res.mask.dtype == bool and res.mask.shape == res.posterior.shape == (4, 3, 2)
        # Any array is read as boolean, as np.asarray(m, bool) reads it.
        as_ints = staple_binary([m.astype(np.uint8) * 7 for m in masks])
        assert np.array_equal(as_ints.mask, res.mask)
        assert np.array_equal(as_ints.posterior, res.posterior)
        with pytest.raises(EmptyList):
            staple_binary([])
        with pytest.raises(GeometryMismatch, match=r"\(4, 3, 2\), \(4, 3, 3\)\]"):
            staple_binary(masks + [np.zeros((4, 3, 3), bool)])
        with pytest.raises(ValueError, match=r"no voxel: shape \(4, 0, 2\)"):
            staple_binary([np.zeros((4, 0, 2), bool)])

    def test_against_reference_on_spec_instance(self):
        # 1x1x4 volume, 3 raters voting per voxel: (1,1,0),(1,0,0),(1,1,1),(0,0,0)
        d = np.array([[1, 1, 1, 0], [1, 0, 1, 0], [0, 0, 1, 0]], dtype=np.float64)
        masks = rater_masks(d.astype(bool).reshape(3, 4))
        res = staple_binary(masks)
        self.assert_matches_reference(res, d)

    @staticmethod
    def assert_matches_reference(res, d, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
        """``res`` is the reference EM on the (J, N) decisions ``d``, started
        from p = q = DEFAULT_INIT_PQ and the mean decision as the prior."""
        pq = [DEFAULT_INIT_PQ] * d.shape[0]
        w_ref, p_ref, q_ref, iters_ref, conv_ref = staple_em_reference(
            d, pq, pq, float(d.mean()), tol, max_iters
        )
        assert res.prior == float(d.mean())
        assert np.abs(res.posterior.reshape(-1) - w_ref).max() < 1e-6
        assert np.abs(np.array(res.p) - p_ref).max() < 1e-6
        assert np.abs(np.array(res.q) - q_ref).max() < 1e-6
        assert res.iterations == iters_ref
        assert res.converged == conv_ref

    # 5 raters' decisions pack into uint16 codes, 20 raters' into uint64.
    @pytest.mark.parametrize("n_raters", [5, 20])
    def test_against_reference_on_disagreeing_raters(self, rng, n_raters):
        truth = rng.random((6, 5, 4)) < 0.4
        masks = [truth ^ (rng.random(truth.shape) < 0.15) for _ in range(n_raters)]
        d = np.stack([m.reshape(-1) for m in masks]).astype(np.float64)
        assert np.unique(d, axis=1).shape[1] > 8  # many patterns, not a handful
        res = staple_binary(masks)
        assert res.prior == float(np.stack(masks).mean())
        self.assert_matches_reference(res, d)

        res = staple_binary(masks, tol=1e-12, max_iters=7)
        self.assert_matches_reference(res, d, tol=1e-12, max_iters=7)

    def test_mask_matches_thresholded_posterior(self, rng):
        masks = [random_mask(rng, (4, 4, 4), density=0.4) for _ in range(3)]
        res = staple_binary(masks)
        assert np.array_equal(res.mask, res.posterior >= 0.5)
        assert res.posterior.min() >= 0.0 and res.posterior.max() <= 1.0

    def test_mstep_fixed_point_identities(self, rng):
        masks = [random_mask(rng, (5, 4, 3), density=0.5) for _ in range(4)]
        res = staple_binary(masks)
        d = np.stack([m.reshape(-1) for m in masks]).astype(np.float64)
        w = res.posterior.reshape(-1)
        p_expected = np.clip((d @ w) / w.sum(), 1e-7, 1 - 1e-7)
        q_expected = np.clip(((1 - d) @ (1 - w)) / (1 - w).sum(), 1e-7, 1 - 1e-7)
        assert np.abs(np.array(res.p) - p_expected).max() < 1e-8
        assert np.abs(np.array(res.q) - q_expected).max() < 1e-8

    def test_rater_permutation_invariance(self, rng):
        masks = [random_mask(rng, (4, 4, 4), density=0.4) for _ in range(4)]
        a = staple_binary(masks)
        b = staple_binary(masks[::-1])
        assert np.array_equal(a.mask, b.mask)
        assert np.abs(a.posterior - b.posterior).max() < 1e-12
        assert np.abs(np.array(a.p) - np.array(b.p[::-1])).max() < 1e-12

    def test_unanimity_preserved_on_realistic_raters(self):
        gt, _ = make_phantom(PhantomSpec(shape=(20, 20, 20), seed=11))
        raters = [corrupt_labels(gt, 0.15, seed=100 + k) for k in range(4)]
        masks = [region_mask(r, Region.WT) for r in raters]
        res = staple_binary(masks)
        stacked = np.stack(masks)
        all_fg = stacked.all(axis=0)
        all_bg = ~stacked.any(axis=0)
        assert all_fg.any() and all_bg.any()
        assert res.mask[all_fg].all()
        assert not res.mask[all_bg].any()

    def test_no_underflow_with_64_raters(self, rng):
        # The EM has no rater limit. Sixty-four raters that agree on 27
        # voxels: with p = q = 0.99999 the all-background pattern has
        # exp(log_b - log_a) = exp(737), which overflows unless the E-step
        # stays in log space.
        mask = random_mask(rng, (3, 3, 3), density=0.5).reshape(-1)
        pats = np.repeat([[0, 1]], 64, axis=0)
        counts = np.bincount(mask, minlength=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w, fit = fusion._staple_em(pats, counts, mask.size, DEFAULT_TOL, DEFAULT_MAX_ITERS)
        assert np.isfinite(w).all() and fit.converged
        assert (w >= 0.5).tolist() == [False, True]

    def test_param_validation(self, rng):
        masks = [random_mask(rng, (3, 3, 3))]
        maps = [random_labelmap(rng, (3, 3, 3))]
        for em in ({"max_iters": 0}, {"tol": 0.0}, {"tol": float("nan")}, {"tol": float("inf")}):
            with pytest.raises(ValueError, match="tol > 0 and max_iters >= 1"):
                staple_binary(masks, **em)
            with pytest.raises(ValueError, match="tol > 0 and max_iters >= 1"):
                staple_multilabel_detailed(maps, **em)

    def test_em_controls_apply_with_an_init(self, rng):
        # From the standard init, on raters that EM needs several steps for.
        masks = [random_mask(rng, (6, 5, 4), density=0.4) for _ in range(3)]
        assert staple_binary(masks).iterations > 1
        res = staple_binary(masks, max_iters=1)
        assert (res.iterations, res.converged) == (1, False)
        res = staple_binary(masks, tol=1.0)
        assert (res.iterations, res.converged) == (1, True)


class TestPatterns:
    """``joint_histogram``, the row counter behind every STAPLE path."""

    # Codes counted and looked up 16 or 4 at a time, so the chunks end inside
    # the pieces.
    @pytest.mark.parametrize("chunk_voxels", [16, 4])
    # Digits of one bit (0/1 decisions, as STAPLE packs them) or of two
    # (label positions), packed two bits per rater either way, in uint8 (3
    # raters), uint16 (5), uint32 (9) or uint64 (17 and 32) codes.
    @pytest.mark.parametrize("digit_bits, n_raters",
                             [(1, 5), (2, 3), (2, 5), (2, 9), (1, 17), (2, 17), (2, 32)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_rows_and_counts(self, rng, monkeypatch, chunk_voxels, digit_bits, n_raters,
                             weighted):
        monkeypatch.setattr(fusion, "CHUNK_VOXELS", chunk_voxels)
        # The voxels of code 0 outside the pieces: 7; none, and no piece
        # voxel of code 0 either, so row 0 is not code 0; or every voxel
        # (None), with no piece at all.
        for outside in (7, 0, None):
            n, zeros = (0, 500) if outside is None else (500, outside)
            digits = rng.integers(0, 1 << digit_bits, (n_raters, n)).astype(np.uint8)
            if outside == 0:
                digits[0, ~digits.any(axis=0)] = 1  # no all-background row
            weights = rng.integers(1, 5, n) if weighted else np.ones(n, int)
            codes = joint_codes(n_raters, n)
            for r, col in enumerate(digits):
                pack_labels(codes, r, np.array(BRATS_LABELS, np.uint8)[col])

            def split(a):  # three pieces, or none
                return np.split(a, [123, 400]) if n else []

            # Each voxel outside the pieces weighs 1.
            rows, counts, keys = joint_histogram(split(codes), n_raters, n + zeros,
                                                 split(weights) if weighted else None)
            want = {(0,) * n_raters: zeros} if zeros else {}
            for k, row in enumerate(map(tuple, digits.T)):
                want[row] = want.get(row, 0) + weights[k]
            assert np.array_equal(rows[:, np.searchsorted(keys, codes)], digits), outside
            assert dict(zip(map(tuple, rows.T), counts.tolist())) == want, outside
            assert counts.dtype == (np.float64 if weighted else np.int64)
            # Ascending code order, and the keys are the rows' codes.
            row_codes = [sum(int(d) << 2 * r for r, d in enumerate(row)) for row in rows.T]
            assert row_codes == sorted(set(row_codes)) == keys.tolist(), outside
            assert keys.dtype == codes.dtype
            assert (keys[0] == 0) == (zeros > 0), outside

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
            assert astuple(details[r.value]) == _fit_fields(res)
        composed = compose(per_region[Region.ET], per_region[Region.TC], per_region[Region.WT])
        assert np.array_equal(fused.data, composed)
        # For this seed the per-region masks are nested, so the fused map
        # decomposes back to exactly the per-region STAPLE outputs.
        for r in (Region.ET, Region.TC, Region.WT):
            assert np.array_equal(region_mask(fused, r), per_region[r])


REGIONS = (Region.ET, Region.TC, Region.WT)


def _fit_fields(res):
    """The :class:`StapleFit` fields of a :class:`StapleResult`, as ``astuple`` gives them."""
    return astuple(StapleFit(res.p, res.q, res.prior, res.iterations, res.converged))


def boundary_raters(gt, n_raters, seed):
    """Raters that shift each region of ``gt`` by its own offset of up to 3
    voxels, so their errors sit at the region boundaries."""
    rng = np.random.default_rng(seed)
    raters = []
    for _ in range(n_raters):
        shifted = [np.roll(region_mask(gt, r), tuple(rng.integers(-3, 4, 3)), axis=(0, 1, 2))
                   for r in REGIONS]
        raters.append(LabelMap(compose(*shifted)))
    return raters


class TestJointLabelStaple:
    """staple_multilabel_detailed against per-region staple_binary and
    compose, the path it replaces."""

    @staticmethod
    def assert_equals_per_region(raters, **em):
        """Checks labels and fits; returns the per-region STAPLE masks."""
        fused, details = staple_multilabel_detailed(raters, **em)
        per_region = {r: staple_binary([region_mask(m, r) for m in raters], **em)
                      for r in REGIONS}
        want = compose(*(per_region[r].mask for r in REGIONS))
        assert np.array_equal(fused.data, want)
        assert (fused.spacing, fused.origin) == (raters[0].spacing, raters[0].origin)
        first = raters[0].data
        assert fused.data.flags.f_contiguous == (
            first.flags.f_contiguous and not first.flags.c_contiguous)
        # Same pattern counts in the same order: the EM arithmetic is identical.
        assert set(details) == {r.value for r in REGIONS}
        for r in REGIONS:
            assert astuple(details[r.value]) == _fit_fields(per_region[r])
        return {r: res.mask for r, res in per_region.items()}

    # ``em``: EM controls other than the defaults, or None.
    @pytest.mark.parametrize("n_raters, seed, em", [
        (3, 10, None),
        (3, 10, {"max_iters": 5, "tol": 1e-9}),
        (8, 4, None),   # the most raters whose joint codes fit a uint16
        (9, 4, None),   # uint32 joint codes
    ])
    @pytest.mark.parametrize("first_order", ["C", "F"])
    def test_equals_the_per_region_path(self, monkeypatch, n_raters, seed, em, first_order):
        # 8000 voxels: eight full chunks and a short one.
        monkeypatch.setattr(fusion, "CHUNK_VOXELS", 999)
        gt, _ = make_phantom(PhantomSpec(shape=(20, 20, 20), seed=7))
        raters = boundary_raters(gt, n_raters, seed)
        # Memory orders alternate, starting with ``first_order``.
        orders = ["C", "F"] if first_order == "C" else ["F", "C"]
        raters = [LabelMap(np.asarray(m.data, order=orders[k % 2]), m.spacing, m.origin)
                  for k, m in enumerate(raters)]
        masks = self.assert_equals_per_region(raters, **(em or {}))
        # The per-region masks are not nested, so the recomposition's union
        # rules decide some voxels: both of them.
        assert (masks[Region.ET] & ~masks[Region.TC]).any()
        assert (masks[Region.TC] & ~masks[Region.WT]).any()

    def test_region_patterns_found_by_sorting(self):
        # 17 raters: the codes of both the joint rows and each region's
        # patterns fill more than one uint32.
        assert joint_codes(17, 1).dtype == np.uint64
        gt, _ = make_phantom(PhantomSpec(shape=(20, 20, 20), seed=7))
        self.assert_equals_per_region(boundary_raters(gt, 17, 4))

    def test_rejects_no_maps_and_mismatched_grids(self, rng):
        with pytest.raises(EmptyList):
            staple_multilabel_detailed([])
        with pytest.raises(GeometryMismatch):
            staple_multilabel_detailed([random_labelmap(rng, (4, 4, 4)),
                                        random_labelmap(rng, (4, 4, 5))])
