import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratsfuse import metrics
from bratsfuse.errors import EmptyMask, GeometryMismatch
from bratsfuse.metrics import (
    EMPTY_PENALTY_MM,
    boundary,
    dice,
    edt,
    evaluate_case,
    hd95,
    percentile,
)
from bratsfuse.regions import Region, RegionMask, region_mask
from bratsfuse.volume import LabelMap

from .conftest import random_mask
from .oracles import (
    boundary_reference,
    brute_force_edt,
    dice_counts,
    hd95_all_pairs,
    percentile_linear,
)

HD95_TOL_MM = 1e-9
ANISO = (1.2, 0.7, 2.5)


def mask(data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)) -> RegionMask:
    return RegionMask(Region.WT, np.asarray(data, dtype=bool), spacing, origin)


def blob(shape, lo, hi) -> np.ndarray:
    """Box of foreground voxels, inclusive corners, with one corner voxel
    knocked out so the shape is not a plain cuboid."""
    data = np.zeros(shape, dtype=bool)
    data[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] = True
    data[tuple(hi)] = tuple(hi) == tuple(lo)
    return data


def assert_hd95_matches_oracle(a, b, spacing, origin=(0.0, 0.0, 0.0)):
    got = hd95(mask(a, spacing, origin), mask(b, spacing, origin))
    want = hd95_all_pairs(a, b, spacing, EMPTY_PENALTY_MM)
    assert abs(got - want) <= HD95_TOL_MM, (got, want)
    return got


class TestDice:
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5])
    def test_against_counts(self, rng, density):
        a = random_mask(rng, (9, 7, 5), density)
        b = random_mask(rng, (9, 7, 5), 0.3)
        assert dice(a, b) == dice_counts(a.data, b.data)
        assert dice(b, a) == dice_counts(b.data, a.data)

    def test_empty_conventions(self):
        empty = mask(np.zeros((3, 3, 3)))
        one = mask(blob((3, 3, 3), (1, 1, 1), (1, 1, 1)))
        assert dice(empty, empty) == 1.0
        assert dice(empty, one) == 0.0

    def test_geometry_mismatch(self):
        with pytest.raises(GeometryMismatch):
            dice(mask(np.ones((2, 2, 2))), mask(np.ones((2, 2, 2)), spacing=ANISO))


class TestBoundary:
    @pytest.mark.parametrize("density", [0.2, 0.6, 0.95])
    def test_against_reference(self, rng, density):
        m = random_mask(rng, (8, 6, 5), density, spacing=ANISO)
        got = boundary(m)
        np.testing.assert_array_equal(got.data, boundary_reference(m.data))
        assert (got.spacing, got.origin, got.region) == (m.spacing, m.origin, m.region)

    def test_volume_faces_count_as_background(self):
        full = np.ones((4, 5, 3), dtype=bool)
        got = boundary(mask(full)).data
        np.testing.assert_array_equal(got, boundary_reference(full))
        assert not got[1:-1, 1:-1, 1:-1].any()
        assert got[0].all() and got[:, :, -1].all()

    def test_one_voxel(self):
        data = blob((3, 3, 3), (2, 0, 1), (2, 0, 1))
        np.testing.assert_array_equal(boundary(mask(data)).data, data)


class TestEdt:
    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), ANISO, (2.0, 2.0, 2.5)])
    def test_against_brute_force(self, rng, spacing):
        m = random_mask(rng, (9, 6, 5), 0.04, spacing=spacing)
        assert m.data.any()
        got = edt(m)
        np.testing.assert_allclose(got.data, brute_force_edt(m.data, spacing),
                                   rtol=1e-12, atol=1e-12)
        assert got.shape == m.shape
        assert (got.spacing, got.origin) == (m.spacing, m.origin)

    def test_single_source_in_a_corner(self):
        data = blob((7, 5, 4), (6, 4, 3), (6, 4, 3))
        np.testing.assert_allclose(edt(mask(data, ANISO)).data,
                                   brute_force_edt(data, ANISO), rtol=1e-12, atol=1e-12)

    def test_empty_source_raises(self):
        with pytest.raises(EmptyMask):
            edt(mask(np.zeros((3, 3, 3))))

    def test_a_line_with_no_source_stays_infinite_after_the_first_pass(self):
        data = np.zeros((7, 3, 2), dtype=bool)
        data[2, 0, 0] = data[5, 0, 0] = data[0, 2, 1] = True
        g = metrics._nearest_on_lines_sq(data, 1.2)
        x = 1.2 * np.arange(7)
        np.testing.assert_array_equal(
            g[:, 0, 0], np.minimum((x - x[2]) ** 2, (x - x[5]) ** 2))
        np.testing.assert_array_equal(g[:, 2, 1], (x - x[0]) ** 2)
        others = np.ones((3, 2), dtype=bool)
        others[0, 0] = others[2, 1] = False
        assert np.isinf(g[:, others]).all()

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
        """The last pass at the queries alone gives, bit for bit, the whole
        map's values there (``edt``, which queries every voxel), and ``inf``
        everywhere where the source is empty."""
        rng = np.random.default_rng(seed)
        source = rng.random(shape) < density
        queries = rng.random(shape) < 0.5
        got = metrics._edt_sq_at(mask(source, spacing), mask(queries, spacing))
        if source.any():
            whole = edt(mask(source, spacing)).data
            assert np.array_equal(np.sqrt(got), whole[queries])
            np.testing.assert_allclose(whole, brute_force_edt(source, spacing),
                                       rtol=1e-12, atol=1e-12)
        else:
            assert np.isinf(got).all()
            with pytest.raises(EmptyMask):
                edt(mask(source, spacing))

    @pytest.mark.parametrize("chunk", [1, 7, 56, 112, 200])
    def test_queries_found_in_many_slabs_give_the_same_distances(self, monkeypatch,
                                                                 rng, chunk):
        """Slabs of one plane (also where a plane has more voxels than a
        chunk holds) and of several planes, the last one short."""
        source = rng.random((9, 8, 7)) < 0.1
        queries = rng.random((9, 8, 7)) < 0.5
        want = metrics._edt_sq_at(mask(source, ANISO), mask(queries, ANISO))
        monkeypatch.setattr(metrics, "_CHUNK", chunk)
        got = metrics._edt_sq_at(mask(source, ANISO), mask(queries, ANISO))
        assert np.array_equal(got, want)

    def test_a_whole_grid_holds_no_index_arrays_per_voxel(self):
        """``edt`` of a 96^3 mask: three int64 query indices per voxel would
        add 20 MB to the float64 passes' 26 MB."""
        data = np.zeros((96, 96, 96), dtype=bool)
        data[33:63, 33:63, 33:63] = np.random.default_rng(0).random((30, 30, 30)) < 0.5
        tracemalloc.start()
        try:
            edt(mask(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestHd95:
    def test_both_empty_is_zero(self):
        empty = mask(np.zeros((4, 4, 4)))
        assert hd95(empty, empty) == 0.0

    def test_exactly_one_empty_is_the_penalty(self):
        empty = mask(np.zeros((4, 4, 4)))
        one = mask(blob((4, 4, 4), (1, 1, 1), (2, 2, 2)))
        assert hd95(empty, one) == EMPTY_PENALTY_MM
        assert hd95(one, empty) == EMPTY_PENALTY_MM
        assert hd95(one, empty, penalty=42.0) == 42.0

    def test_identical_masks_are_zero(self, rng):
        m = random_mask(rng, (8, 8, 8), 0.3, spacing=ANISO)
        assert hd95(m, m) == 0.0

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
        assert_hd95_matches_oracle(a, b, ANISO, origin=(-90.0, 12.5, 3.0))

    def test_one_voxel_masks(self):
        a = blob((6, 6, 6), (1, 2, 3), (1, 2, 3))
        b = blob((6, 6, 6), (4, 5, 0), (4, 5, 0))
        got = assert_hd95_matches_oracle(a, b, ANISO)
        want = float(np.sqrt((3 * 1.2) ** 2 + (3 * 0.7) ** 2 + (3 * 2.5) ** 2))
        assert abs(got - want) <= HD95_TOL_MM

    def test_distance_transforms_cover_only_the_union_box(self, monkeypatch):
        """``hd95`` hands box-sized sources and queries, with the box's world
        origin, to the module's squared-distance core."""
        seen = []
        real = metrics._edt_sq_at

        def spy(source, queries):
            seen.append((source.shape, queries.shape, source.origin, queries.origin))
            return real(source, queries)

        monkeypatch.setattr(metrics, "_edt_sq_at", spy)
        a = blob((40, 36, 30), (30, 28, 24), (34, 32, 27))
        b = blob((40, 36, 30), (31, 27, 23), (36, 33, 26))
        hd95(mask(a, ANISO, (-90.0, 12.5, 3.0)), mask(b, ANISO, (-90.0, 12.5, 3.0)))
        origin = (-90.0 + 30 * 1.2, 12.5 + 27 * 0.7, 3.0 + 23 * 2.5)
        assert [(s, q) for s, q, _, _ in seen] == [((7, 7, 5), (7, 7, 5))] * 2
        for _, _, *origins in seen:
            for o in origins:
                np.testing.assert_allclose(o, origin, rtol=0, atol=1e-12)

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
    for r in (Region.ET, Region.TC, Region.WT):
        p = region_mask(pm, r).data
        g = region_mask(gm, r).data
        assert got.dsc[r.value] == dice_counts(p, g)
        want = hd95_all_pairs(p, g, spacing, EMPTY_PENALTY_MM)
        assert abs(got.hd95[r.value] - want) <= HD95_TOL_MM
