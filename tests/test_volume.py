import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bratsfuse.errors import InvalidLabel
from bratsfuse.volume import (
    LabelMap,
    ProbMap,
    nonzero_box,
    same_geometry,
)


class TestTypes:
    def test_labelmap_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            LabelMap(np.ones((2, 2, 2)), spacing=(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            LabelMap(np.ones((2, 2, 2)), spacing=(1.0, -1.0, 1.0))

    def test_labelmap_data_is_read_only(self):
        m = LabelMap(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            m.data[0, 0, 0] = 2

    def test_labelmap_rejects_label_3(self):
        data = np.zeros((2, 2, 2), dtype=np.uint8)
        data[1, 1, 1] = 3
        with pytest.raises(InvalidLabel):
            LabelMap(data)

    def test_labelmap_accepts_brats_labels(self):
        m = LabelMap(np.array([0, 1, 2, 4], dtype=np.int16).reshape(4, 1, 1))
        assert m.data.dtype == np.uint8

    def test_probmap_requires_channel_sum_one(self):
        good = np.full((4, 2, 2, 2), 0.25)
        ProbMap(good)
        bad = good.copy()
        bad[0, 0, 0, 0] = 0.3
        with pytest.raises(ValueError):
            ProbMap(bad)

    @pytest.mark.parametrize("delta", [0.05, -0.05, 2e-6, -2e-6])
    def test_probmap_reports_the_channel_sum_deviation(self, delta):
        bad = np.full((4, 2, 2, 2), 0.25)
        bad[0, 0, 0, 0] += delta
        err = np.abs(bad.sum(axis=0) - 1.0).max()
        with pytest.raises(ValueError, match=f"deviate from 1 by {err:.3g} "):
            ProbMap(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_probmap_rejects_non_finite(self, bad):
        data = np.full((4, 2, 1, 1), 0.25)
        data[2, 1, 0, 0] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            ProbMap(data)

    def test_probmap_rejects_out_of_range(self):
        data = np.zeros((4, 1, 1, 1))
        data[0] = 1.5
        data[1] = -0.5
        with pytest.raises(ValueError):
            ProbMap(data)


class TestNonzeroBox:
    def test_single_voxel(self):
        data = np.zeros((6, 6, 6), bool)
        data[2, 3, 4] = True
        assert nonzero_box(data) == (slice(2, 3), slice(3, 4), slice(4, 5))

    def test_fully_nonzero(self):
        assert nonzero_box(np.ones((5, 5, 5), bool)) == (slice(0, 5),) * 3

    def test_all_zero_is_none(self):
        assert nonzero_box(np.zeros((3, 3, 3), bool)) is None

    def test_minimality(self, rng):
        data = rng.random((7, 6, 5)) < 0.2
        data[3, 2, 1] = True  # guarantee nonempty
        box = nonzero_box(data)
        for axis in range(3):
            for end in (box[axis].start, box[axis].stop - 1):
                face = list(box)
                face[axis] = slice(end, end + 1)
                assert data[tuple(face)].any()
        outside = data.copy()
        outside[box] = False
        assert not outside.any()

    @settings(max_examples=200, deadline=None)
    @given(arrays(st.sampled_from([bool, np.uint8, np.uint64]),
                  array_shapes(min_dims=1, max_dims=3, max_side=7)))
    @example(np.zeros(4, bool))
    @example(np.zeros((3, 1, 2), bool))
    def test_matches_the_nonzero_index_oracle(self, mask):
        # Boolean masks, and joint codes as the plane loop passes them.
        nz = np.nonzero(mask)
        want = (tuple(slice(int(i.min()), int(i.max()) + 1) for i in nz)
                if nz[0].size else None)
        assert nonzero_box(mask) == want


@pytest.mark.parametrize("offset", [0.0, 5e-10, -5e-10, 1.5e-9, -1.5e-9, 1e-3, -1e-3])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_same_geometry_matches_allclose(offset, axis):
    base = LabelMap(np.zeros((2, 2, 2)), spacing=(1.0, 1.2, 2.5), origin=(-90.0, 0.0, 72.5))
    for field in ("spacing", "origin"):
        moved = list(getattr(base, field))
        moved[axis] += offset
        other = LabelMap(base.data, **{"spacing": base.spacing, "origin": base.origin,
                                       field: tuple(moved)})
        want = np.allclose(moved, getattr(base, field), rtol=1e-9, atol=1e-9)
        assert same_geometry(other, base) == want
