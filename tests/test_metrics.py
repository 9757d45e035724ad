import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bratsfuse import metrics
from bratsfuse.errors import EmptyMask, GeometryMismatch
from bratsfuse.fusion import joint_codes, pack_labels
from bratsfuse.metrics import (
    EMPTY_PENALTY_MM,
    CaseMetrics,
    boundary,
    dice,
    edt,
    evaluate_case,
    hd95,
    percentile,
    score_codes,
)
from bratsfuse.regions import Region
from bratsfuse.volume import BRATS_LABELS, LabelMap, nonzero_box

from .conftest import random_mask
from .oracles import (
    REGION_LABELS,
    boundary_reference,
    brute_force_edt,
    dice_counts,
    hd95_all_pairs,
    percentile_linear,
)

HD95_TOL_MM = 1e-9
ANISO = (1.2, 0.7, 2.5)


def blob(shape, lo, hi) -> np.ndarray:
    """Box of foreground voxels, inclusive corners, with one corner voxel
    knocked out so the shape is not a plain cuboid."""
    data = np.zeros(shape, dtype=bool)
    data[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] = True
    data[tuple(hi)] = tuple(hi) == tuple(lo)
    return data


def assert_hd95_matches_oracle(a, b, spacing):
    got = hd95(a, b, spacing)
    want = hd95_all_pairs(a, b, spacing, EMPTY_PENALTY_MM)
    assert abs(got - want) <= HD95_TOL_MM, (got, want)
    return got


class TestDice:
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5])
    def test_against_counts(self, rng, density):
        a = random_mask(rng, (9, 7, 5), density)
        b = random_mask(rng, (9, 7, 5), 0.3)
        assert dice(a, b) == dice_counts(a, b)
        assert dice(b, a) == dice_counts(b, a)
        assert type(dice(a, b)) is float

    def test_empty_conventions(self):
        empty = np.zeros((3, 3, 3), dtype=bool)
        one = blob((3, 3, 3), (1, 1, 1), (1, 1, 1))
        assert dice(empty, empty) == 1.0
        assert dice(empty, one) == 0.0

    def test_geometry_mismatch(self):
        # (1, 2, 2) would broadcast against (2, 2, 2).
        with pytest.raises(GeometryMismatch):
            dice(np.ones((1, 2, 2), bool), np.ones((2, 2, 2), bool))


class TestBoundary:
    @pytest.mark.parametrize("density", [0.2, 0.6, 0.95])
    def test_against_reference(self, rng, density):
        m = random_mask(rng, (8, 6, 5), density)
        got = boundary(m)
        np.testing.assert_array_equal(got, boundary_reference(m))
        assert got.dtype == bool

    def test_volume_faces_count_as_background(self):
        full = np.ones((4, 5, 3), dtype=bool)
        got = boundary(full)
        np.testing.assert_array_equal(got, boundary_reference(full))
        assert not got[1:-1, 1:-1, 1:-1].any()
        assert got[0].all() and got[:, :, -1].all()

    def test_one_voxel(self):
        data = blob((3, 3, 3), (2, 0, 1), (2, 0, 1))
        np.testing.assert_array_equal(boundary(data), data)


class TestEdt:
    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), ANISO, (2.0, 2.0, 2.5)])
    def test_against_brute_force(self, rng, spacing):
        m = random_mask(rng, (9, 6, 5), 0.04)
        assert m.any()
        got = edt(m, spacing)
        assert isinstance(got, np.ndarray) and got.shape == m.shape
        np.testing.assert_allclose(got, brute_force_edt(m, spacing), rtol=1e-12, atol=1e-12)

    def test_single_source_in_a_corner(self):
        data = blob((7, 5, 4), (6, 4, 3), (6, 4, 3))
        np.testing.assert_allclose(edt(data, ANISO), brute_force_edt(data, ANISO),
                                   rtol=1e-12, atol=1e-12)

    def test_empty_source_raises(self):
        with pytest.raises(EmptyMask):
            edt(np.zeros((3, 3, 3), bool), (1.0, 1.0, 1.0))

    def test_a_line_with_no_source_stays_infinite_after_the_first_pass(self):
        data = np.zeros((7, 3, 2), dtype=bool)
        data[2, 0, 0] = data[5, 0, 0] = data[0, 2, 1] = True
        g = metrics._nearest_on_lines_sq(data, 1.2, np.arange(7))
        x = 1.2 * np.arange(7)
        np.testing.assert_array_equal(
            g[:, 0, 0], np.minimum((x - x[2]) ** 2, (x - x[5]) ** 2))
        np.testing.assert_array_equal(g[:, 2, 1], (x - x[0]) ** 2)
        others = np.ones((3, 2), dtype=bool)
        others[0, 0] = others[2, 1] = False
        assert np.isinf(g[:, others]).all()
        at = np.array([1, 5, 6])
        assert np.array_equal(metrics._nearest_on_lines_sq(data, 1.2, at), g[at])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.one_of(
            st.tuples(*[st.integers(1, 9)] * 3),
            st.sampled_from([(1, 7, 6), (8, 1, 6), (8, 7, 1), (1, 1, 9), (9, 1, 1)]),
        ),
        spacing=st.sampled_from([(1.0, 1.0, 1.0), ANISO, (2.0, 2.0, 2.5)]),
        density=st.sampled_from([0.02, 0.1, 0.4]),
    )
    def test_distances_at_queries_are_the_whole_map_at_them(self, seed, shape, spacing,
                                                            density):
        """In the union box of source and queries, the last pass at the
        queries alone gives, bit for bit, the values of the map of every
        voxel of the box (``edt`` of the source cropped to it, which queries
        every voxel there), and ``inf`` everywhere where the source is
        empty. Coordinates are measured from the box corner, so at a
        spacing that is not dyadic the map of the whole grid may differ in
        its last digits."""
        rng = np.random.default_rng(seed)
        source = rng.random(shape) < density
        queries = rng.random(shape) < 0.5
        if source.any():
            box = nonzero_box(source | queries)
            got = metrics._edt_sq_at(source[box], queries[box], spacing)
            in_box = edt(source[box], spacing)
            assert np.array_equal(np.sqrt(got), in_box[queries[box]])
            whole = edt(source, spacing)
            np.testing.assert_allclose(whole, brute_force_edt(source, spacing),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(np.sqrt(got), whole[queries], rtol=1e-12, atol=1e-12)
        else:
            got = metrics._edt_sq_at(source, queries, spacing)
            assert got.shape == (np.count_nonzero(queries),) and np.isinf(got).all()
            with pytest.raises(EmptyMask):
                edt(source, spacing)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(*[st.integers(2, 9)] * 3),
        density=st.sampled_from([0.05, 0.3, 0.8]),
    )
    def test_sources_and_queries_on_disjoint_lines(self, seed, shape, density):
        """Sources and queries confined to disjoint rows, planes and
        columns: the first pass is kept only at columns with no source, the
        middle pass goes from source rows to other rows, and the last pass
        reads planes that hold no query. The distances are still the
        brute-force ones."""
        rng = np.random.default_rng(seed)
        source_side = [rng.random(n) < 0.5 for n in shape]
        on_source = np.ix_(*source_side)
        on_query = np.ix_(*(~side for side in source_side))
        source = np.zeros(shape, dtype=bool)
        queries = np.zeros(shape, dtype=bool)
        source[on_source] = rng.random(source[on_source].shape) < density
        queries[on_query] = rng.random(queries[on_query].shape) < density
        got = np.sqrt(metrics._edt_sq_at(source, queries, ANISO))
        assert got.shape == (np.count_nonzero(queries),)
        if source.any():
            np.testing.assert_allclose(got, brute_force_edt(source, ANISO)[queries],
                                       rtol=1e-12, atol=1e-12)
        else:
            assert np.isinf(got).all()

    @pytest.mark.parametrize("chunk", [1, 7, 56, 112, 200])
    def test_queries_found_in_many_slabs_give_the_same_distances(self, monkeypatch,
                                                                 rng, chunk):
        """Slabs of one plane (also where a plane has more voxels than a
        chunk holds) and of several planes, the last one short."""
        source = rng.random((9, 8, 7)) < 0.1
        queries = rng.random((9, 8, 7)) < 0.5
        want = metrics._edt_sq_at(source, queries, ANISO)
        monkeypatch.setattr(metrics, "_CHUNK", chunk)
        got = metrics._edt_sq_at(source, queries, ANISO)
        assert np.array_equal(got, want)

    def test_a_whole_grid_holds_no_index_arrays_per_voxel(self):
        """``edt`` of a 96^3 mask: three int64 query indices per voxel would
        add 20 MB to the float64 passes' 26 MB."""
        data = np.zeros((96, 96, 96), dtype=bool)
        data[33:63, 33:63, 33:63] = np.random.default_rng(0).random((30, 30, 30)) < 0.5
        tracemalloc.start()
        try:
            edt(data, (1.0, 1.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestHd95:
    def test_both_empty_is_zero(self):
        empty = np.zeros((4, 4, 4), dtype=bool)
        assert hd95(empty, empty, ANISO) == 0.0

    def test_exactly_one_empty_is_the_penalty(self):
        empty = np.zeros((4, 4, 4), dtype=bool)
        one = blob((4, 4, 4), (1, 1, 1), (2, 2, 2))
        assert hd95(empty, one, ANISO) == EMPTY_PENALTY_MM
        assert hd95(one, empty, ANISO) == EMPTY_PENALTY_MM
        assert hd95(one, empty, ANISO, penalty=42.0) == 42.0

    def test_geometry_mismatch(self):
        with pytest.raises(GeometryMismatch):
            hd95(np.ones((2, 2, 1), bool), np.ones((2, 2, 3), bool), ANISO)

    def test_identical_masks_are_zero(self, rng):
        m = random_mask(rng, (8, 8, 8), 0.3)
        assert hd95(m, m, ANISO) == 0.0

    def test_anisotropic_spacing(self):
        a = blob((14, 12, 9), (3, 2, 2), (9, 8, 6))
        b = blob((14, 12, 9), (4, 3, 1), (11, 7, 5))
        assert assert_hd95_matches_oracle(a, b, ANISO) > 0.0

    def test_masks_touching_volume_faces(self):
        a = blob((10, 9, 8), (0, 0, 0), (5, 8, 3))
        b = blob((10, 9, 8), (2, 0, 0), (9, 6, 7))
        assert_hd95_matches_oracle(a, b, ANISO)

    def test_opposite_corners_box_spans_the_grid(self):
        a = blob((11, 9, 7), (0, 0, 0), (1, 1, 1))
        b = blob((11, 9, 7), (9, 7, 5), (10, 8, 6))
        got = assert_hd95_matches_oracle(a, b, ANISO)
        assert got > 10.0

    def test_masks_far_from_origin(self):
        a = blob((40, 36, 30), (30, 28, 24), (34, 32, 27))
        b = blob((40, 36, 30), (31, 27, 23), (36, 33, 26))
        assert_hd95_matches_oracle(a, b, ANISO)

    def test_one_voxel_masks(self):
        a = blob((6, 6, 6), (1, 2, 3), (1, 2, 3))
        b = blob((6, 6, 6), (4, 5, 0), (4, 5, 0))
        got = assert_hd95_matches_oracle(a, b, ANISO)
        want = float(np.sqrt((3 * 1.2) ** 2 + (3 * 0.7) ** 2 + (3 * 2.5) ** 2))
        assert abs(got - want) <= HD95_TOL_MM

    def test_passes_run_only_on_rows_and_planes_that_hold_sources(self, monkeypatch):
        """A blob pair plus one stray voxel far from both: the union box
        spans the grid, but the first pass gets only the source rows and
        planes (at the box's full width), and the middle pass's costs go
        from the source rows to the query rows."""
        first, gaps = [], []
        nearest, sq_gaps = metrics._nearest_on_lines_sq, metrics._sq_gaps

        def spy_first(source, *args):
            first.append(source.shape)
            return nearest(source, *args)

        def spy_gaps(*args):
            out = sq_gaps(*args)
            gaps.append(out.shape)
            return out

        monkeypatch.setattr(metrics, "_nearest_on_lines_sq", spy_first)
        monkeypatch.setattr(metrics, "_sq_gaps", spy_gaps)
        a = blob((40, 36, 30), (30, 28, 24), (34, 32, 27))
        b = blob((40, 36, 30), (31, 27, 23), (36, 33, 26))
        b[2, 3, 4] = True
        assert_hd95_matches_oracle(a, b, ANISO)
        # The union box is (2:37, 3:34, 4:28). b's boundary holds rows
        # 27..33 and 3 (8) and planes 23..26 and 4 (5); a's, rows 28..32 (5)
        # and planes 24..27 (4).
        assert first == [(35, 8, 5), (35, 5, 4)]
        assert gaps[0::2] == [(5, 8), (8, 5)]
        assert gaps[1::2] == [(24, 5), (24, 4)]

    def test_the_union_box_is_found_once(self, monkeypatch):
        """One ``nonzero_box`` per call, shared by both directions."""
        boxes = []

        def spy(m):
            boxes.append(m.shape)
            return nonzero_box(m)

        monkeypatch.setattr(metrics, "nonzero_box", spy)
        a = blob((40, 36, 30), (30, 28, 24), (34, 32, 27))
        b = blob((40, 36, 30), (31, 27, 23), (36, 33, 26))
        b[2, 3, 4] = True
        assert_hd95_matches_oracle(a, b, ANISO)
        assert boxes == [(40, 36, 30)]

    def test_a_stray_voxel_does_not_spread_the_distance_work(self):
        """``hd95`` of a 96x96x64 blob pair plus one far stray voxel: the
        union box spans most of the grid, but the passes' temporaries stay
        near the blobs' size."""
        a = blob((96, 96, 64), (50, 52, 30), (79, 81, 55))
        b = blob((96, 96, 64), (53, 50, 33), (82, 80, 58))
        b[2, 3, 4] = True
        tracemalloc.start()
        try:
            hd95(a, b, (1.0, 1.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(*[st.integers(1, 9)] * 3),
        spacing=st.sampled_from([(1.0, 1.0, 1.0), ANISO, (2.0, 2.0, 2.5)]),
        density=st.sampled_from([0.02, 0.1, 0.4]),
    )
    def test_random_masks_against_oracle(self, seed, shape, spacing, density):
        rng = np.random.default_rng(seed)
        a = rng.random(shape) < density
        b = rng.random(shape) < density
        assert_hd95_matches_oracle(a, b, spacing)


class TestPercentile:
    def test_equals_numpy_percentile(self, rng):
        """Bit for bit ``np.percentile``'s default (linear) method, on
        distances with many ties."""
        scales = (1.0, 1.2, 2.0, 2.5)
        for n in range(1, 2001):
            v = np.sqrt(rng.integers(0, 40, n).astype(np.float64)) * scales[n % 4]
            for p in (25, 50, 75, 95):
                assert percentile(v, p) == float(np.percentile(v, p)), (n, p)

    def test_against_the_hand_rolled_oracle(self, rng):
        v = rng.random(37) * 10
        for p in (0, 25, 50, 75, 95, 100):
            assert abs(percentile(v, p) - percentile_linear(v, p)) <= 1e-12


def test_evaluate_case_against_oracles():
    shape = (12, 11, 8)
    spacing = (2.0, 2.0, 2.5)
    gt = np.zeros(shape, dtype=np.uint8)
    gt[2:9, 2:9, 1:7] = 2
    gt[3:7, 3:8, 2:6] = 1
    gt[4:6, 4:6, 3:5] = 4
    pred = np.zeros(shape, dtype=np.uint8)
    pred[3:10, 1:8, 1:6] = 2
    pred[4:7, 3:7, 2:5] = 1
    pred[5, 4:6, 3] = 4
    pred[10, 9, 7] = 4  # a stray ET voxel in a far corner
    pm, gm = LabelMap(pred, spacing), LabelMap(gt, spacing)
    got = evaluate_case(pm, gm, "case")
    assert got.case_id == "case"
    assert_scores_as_the_oracles(got, pred, gt, spacing, EMPTY_PENALTY_MM)


def test_evaluate_case_geometry_mismatch():
    m = np.ones((2, 2, 2), np.uint8)
    with pytest.raises(GeometryMismatch):
        evaluate_case(LabelMap(m), LabelMap(m, spacing=ANISO), "case")
    with pytest.raises(GeometryMismatch):
        evaluate_case(LabelMap(m), LabelMap(m[:, :, :1]), "case")


def assert_scores_as_the_oracles(got, pred, gt, spacing, penalty):
    """Every region's DSC of ``got`` is ``dice_counts`` of the label arrays'
    region masks, and its HD95 is ``hd95_all_pairs`` of them."""
    for r in Region:
        p, g = np.isin(pred, REGION_LABELS[r.value]), np.isin(gt, REGION_LABELS[r.value])
        assert got.dsc[r.value] == dice_counts(p, g), r
        want = hd95_all_pairs(p, g, spacing, penalty)
        assert abs(got.hd95[r.value] - want) <= HD95_TOL_MM, (r, got.hd95[r.value], want)


def pair_codes(pred, gt):
    """The two-model joint codes of two label arrays, prediction first."""
    codes = joint_codes(2, pred.size)
    for rater, labels in enumerate((pred, gt)):
        pack_labels(codes, rater, labels.ravel())
    return codes.reshape(pred.shape)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(*[st.integers(1, 7)] * 3),
    spacing=st.sampled_from([(1.0, 1.0, 1.0), ANISO, (2.0, 2.0, 2.5)]),
    density=st.sampled_from([0.02, 0.2, 0.6]),
    variant=st.sampled_from(["random", "background", "no_et_predicted", "empty_truth",
                             "faces"]),
)
@example(seed=0, shape=(5, 4, 3), spacing=ANISO, density=0.2, variant="background")
@example(seed=1, shape=(5, 4, 3), spacing=ANISO, density=0.2, variant="no_et_predicted")
@example(seed=2, shape=(5, 4, 3), spacing=ANISO, density=0.2, variant="empty_truth")
@example(seed=3, shape=(5, 4, 3), spacing=ANISO, density=0.2, variant="faces")
def test_score_codes_against_oracles(seed, shape, spacing, density, variant):
    """Random small label pairs: all background; ET in the truth but never
    predicted (ET empty on one side only); an all-background truth (every
    region empty on one side only); and tumour on faces and corners of the
    grid."""
    rng = np.random.default_rng(seed)
    pred, gt = (np.where(rng.random(shape) < density, rng.choice(BRATS_LABELS, shape),
                         0).astype(np.uint8) for _ in range(2))
    if variant == "background":
        pred[...] = gt[...] = 0
    elif variant == "no_et_predicted":
        pred[pred == 4] = 1
        gt[(0,) * 3] = 4
    elif variant == "empty_truth":
        gt[...] = 0
        pred[(-1,) * 3] = 1
    elif variant == "faces":
        pred[0], gt[:, :, -1] = 2, 4
        pred[(-1,) * 3], gt[(0,) * 3] = 4, 1
    got = score_codes(pair_codes(pred, gt), spacing, "case", penalty=50.0)
    assert got.case_id == "case"
    assert_scores_as_the_oracles(got, pred, gt, spacing, 50.0)


@pytest.mark.parametrize("dsc_et, hd95_et, reason", [
    (1.5, 0.0, "DSC_ET 1.5 lies outside [0, 1]"),
    (-0.25, 0.0, "DSC_ET -0.25 lies outside [0, 1]"),
    (0.5, -2.0, "HD95_ET -2.0 is negative"),
], ids=["dsc_above_1", "dsc_below_0", "negative_hd95"])
def test_case_metrics_refuses_a_score_no_evaluation_gives(dsc_et, hd95_et, reason):
    with pytest.raises(ValueError) as refused:
        CaseMetrics("c", {"ET": dsc_et, "TC": 1.0, "WT": 1.0},
                    {"ET": hd95_et, "TC": 0.0, "WT": 0.0})
    assert str(refused.value) == reason


def test_score_codes_refuses_a_negative_penalty_rather_than_return_it():
    # ET is predicted at a voxel the truth calls necrosis, so ET is empty on
    # one side only and its HD95 is the penalty.
    pred, gt = np.zeros((3, 3, 3), np.uint8), np.zeros((3, 3, 3), np.uint8)
    pred[1, 1, 1], gt[1, 1, 1] = 4, 1
    assert score_codes(pair_codes(pred, gt), (1.0,) * 3, "c", penalty=2.0).hd95["ET"] == 2.0
    with pytest.raises(ValueError, match=r"^HD95_ET -1.0 is negative$"):
        score_codes(pair_codes(pred, gt), (1.0,) * 3, "c", penalty=-1.0)
