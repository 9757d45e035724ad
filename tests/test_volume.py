import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratsfuse.errors import EmptyVolume, InvalidLabel, OutOfBounds, ShapeMismatch
from bratsfuse.regions import Region, RegionMask
from bratsfuse.volume import (
    BBox,
    LabelMap,
    ProbMap,
    Volume,
    crop,
    embed,
    nonzero_bbox,
    same_geometry,
)


class TestTypes:
    def test_volume_rejects_nan(self):
        data = np.ones((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Volume(data)

    def test_volume_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            Volume(np.ones((2, 2, 2)), spacing=(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            Volume(np.ones((2, 2, 2)), spacing=(1.0, -1.0, 1.0))

    def test_volume_data_is_read_only(self):
        v = Volume(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 2.0

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

    def test_bbox_ordering(self):
        with pytest.raises(ValueError):
            BBox((2, 0, 0), (1, 0, 0))
        assert BBox((1, 2, 3), (4, 5, 6)).shape == (4, 4, 4)


class TestNonzeroBBox:
    def test_single_voxel(self):
        data = np.zeros((6, 6, 6))
        data[2, 3, 4] = 1.0
        box = nonzero_bbox(Volume(data))
        assert box.lo == (2, 3, 4) and box.hi == (2, 3, 4)

    def test_fully_nonzero(self):
        box = nonzero_bbox(Volume(np.ones((5, 5, 5))))
        assert box.lo == (0, 0, 0) and box.hi == (4, 4, 4)

    def test_all_zero_raises(self):
        with pytest.raises(EmptyVolume):
            nonzero_bbox(Volume(np.zeros((3, 3, 3))))

    def test_minimality(self, rng):
        data = (rng.random((7, 6, 5)) < 0.2).astype(np.float64)
        data[3, 2, 1] = 1.0  # guarantee nonempty
        box = nonzero_bbox(Volume(data))
        for axis in range(3):
            lo_face = [slice(l, h + 1) for l, h in zip(box.lo, box.hi)]
            lo_face[axis] = slice(box.lo[axis], box.lo[axis] + 1)
            assert data[tuple(lo_face)].any()
            hi_face = [slice(l, h + 1) for l, h in zip(box.lo, box.hi)]
            hi_face[axis] = slice(box.hi[axis], box.hi[axis] + 1)
            assert data[tuple(hi_face)].any()


class TestCropEmbed:
    def test_crop_full_extent_is_identity(self, rng):
        v = Volume(rng.random((4, 5, 6)), spacing=(1.0, 2.0, 3.0))
        out = crop(v, BBox((0, 0, 0), (3, 4, 5)))
        assert np.array_equal(out.data, v.data)
        assert out.origin == v.origin

    def test_crop_shape_matches_box(self):
        v = Volume(np.ones((240, 240, 155)))
        out = crop(v, BBox((24, 8, 0), (24 + 191, 8 + 223, 154)))
        assert out.shape == (192, 224, 155)

    def test_single_voxel_crop(self):
        data = np.arange(27, dtype=np.float64).reshape(3, 3, 3)
        out = crop(Volume(data), BBox((1, 2, 0), (1, 2, 0)))
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == data[1, 2, 0]

    def test_crop_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            crop(Volume(np.ones((3, 3, 3))), BBox((0, 0, 0), (3, 2, 2)))

    def test_crop_shifts_origin(self):
        v = Volume(np.ones((4, 4, 4)), spacing=(1.0, 2.0, 0.5), origin=(10.0, 0.0, 0.0))
        out = crop(v, BBox((1, 2, 3), (2, 3, 3)))
        assert out.origin == (11.0, 4.0, 1.5)

    def test_crop_keeps_the_type(self, rng):
        box = BBox((1, 0, 2), (2, 3, 3))
        spacing, origin = (1.0, 2.0, 0.5), (10.0, 0.0, 0.0)
        labels = np.array([0, 1, 2, 4], dtype=np.uint8)[rng.integers(0, 4, (4, 4, 4))]
        probs = rng.random((4, 4, 4, 4))
        probs /= probs.sum(axis=0, keepdims=True)
        for v in (
            Volume(rng.random((4, 4, 4)), spacing, origin),
            LabelMap(labels, spacing, origin),
            ProbMap(probs, spacing, origin),
            RegionMask(Region.TC, labels == 1, spacing, origin),
        ):
            out = crop(v, box)
            assert type(out) is type(v)
            assert out.shape == (2, 4, 2)
            assert out.origin == (11.0, 0.0, 1.0)
            assert np.array_equal(out.data, v.data[..., 1:3, 0:4, 2:4])
            back = embed(out, box, v.shape)
            assert type(back) is type(v)
            assert back.data.dtype == v.data.dtype
            assert back.origin == v.origin
            assert np.array_equal(back.data[..., 1:3, 0:4, 2:4], out.data)
            outside = np.ones(v.shape, dtype=bool)
            outside[box.slices()] = False
            fill = back.data[..., outside]
            if isinstance(v, ProbMap):
                assert (fill[0] == 1.0).all()  # background channel
                fill = fill[1:]
            assert not fill.any()
        assert out.region is Region.TC
        assert back.region is Region.TC

    def test_embed_inverts_crop(self, rng):
        data = rng.random((6, 7, 8))
        data[0, 0, 0] = 0.0  # keep the bbox strictly inside
        v = Volume(data)
        box = nonzero_bbox(v)
        back = embed(crop(v, box), box, v.shape)
        sl = box.slices()
        assert np.array_equal(back.data[sl], v.data[sl])
        assert back.origin == v.origin

    def test_embed_fills_background(self):
        v = Volume(np.full((1, 1, 1), 7.0))
        out = embed(v, BBox((1, 1, 1), (1, 1, 1)), (3, 3, 3))
        assert out.data[1, 1, 1] == 7.0
        assert out.data.sum() == 7.0  # 26 zeros around it

    def test_embed_probmap_background_channel(self):
        pm = ProbMap(np.stack([np.zeros((1, 1, 1)), np.zeros((1, 1, 1)),
                               np.zeros((1, 1, 1)), np.ones((1, 1, 1))]))
        out = embed(pm, BBox((0, 0, 0), (0, 0, 0)), (2, 1, 1))
        assert out.data[3, 0, 0, 0] == 1.0
        assert out.data[0, 1, 0, 0] == 1.0  # padding is background

    def test_embed_shape_mismatch(self):
        v = Volume(np.ones((2, 2, 2)))
        with pytest.raises(ShapeMismatch):
            embed(v, BBox((0, 0, 0), (0, 0, 0)), (4, 4, 4))
        with pytest.raises(ShapeMismatch):
            embed(v, BBox((3, 0, 0), (4, 1, 1)), (4, 4, 4))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(*(st.integers(1, 6),) * 3),
    data=st.data(),
)
def test_crop_embed_roundtrip_property(shape, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = rng.random(shape)
    lo = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
    hi = tuple(data.draw(st.integers(l, n - 1)) for l, n in zip(lo, shape))
    box = BBox(lo, hi)
    v = Volume(vals)
    back = embed(crop(v, box), box, shape)
    assert np.array_equal(back.data[box.slices()], v.data[box.slices()])
    outside = np.ones(shape, dtype=bool)
    outside[box.slices()] = False
    assert (back.data[outside] == 0).all()


@pytest.mark.parametrize("offset", [0.0, 5e-10, -5e-10, 1.5e-9, -1.5e-9, 1e-3, -1e-3])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_same_geometry_matches_allclose(offset, axis):
    base = Volume(np.zeros((2, 2, 2)), spacing=(1.0, 1.2, 2.5), origin=(-90.0, 0.0, 72.5))
    for field in ("spacing", "origin"):
        moved = list(getattr(base, field))
        moved[axis] += offset
        other = Volume(base.data, **{"spacing": base.spacing, "origin": base.origin,
                                     field: tuple(moved)})
        want = np.allclose(moved, getattr(base, field), rtol=1e-9, atol=1e-9)
        assert same_geometry(other, base) == want
