import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratsfuse.errors import GeometryMismatch
from bratsfuse.regions import _MEMBERSHIP, Region, RegionMask, recompose_labels, region_mask
from bratsfuse.volume import BRATS_LABELS, LabelMap

from .conftest import random_labelmap
from .oracles import REGION_LABELS, compose_reference


def column_map(values):
    return LabelMap(np.array(values, dtype=np.uint8).reshape(len(values), 1, 1))


class TestRegionMask:
    def test_member_labels_nest(self):
        et, tc, wt = (_MEMBERSHIP[r] for r in Region)
        assert (et <= tc).all() and (tc <= wt).all()
        assert (et != tc).any() and (tc != wt).any()
        for r in Region:
            assert np.array(BRATS_LABELS)[_MEMBERSHIP[r]].tolist() == list(REGION_LABELS[r.value])
            assert not _MEMBERSHIP[r].flags.writeable

    def test_wt_mask(self):
        m = column_map([0, 1, 2, 4])
        out = region_mask(m, Region.WT)
        assert out.data.reshape(-1).tolist() == [False, True, True, True]

    def test_et_mask(self):
        m = column_map([0, 1, 2, 4])
        out = region_mask(m, Region.ET)
        assert out.data.reshape(-1).tolist() == [False, False, False, True]

    def test_tc_mask(self):
        m = column_map([0, 1, 2, 4])
        out = region_mask(m, Region.TC)
        assert out.data.reshape(-1).tolist() == [False, True, False, True]

    def test_all_zero(self):
        m = column_map([0, 0, 0])
        for r in Region:
            assert not region_mask(m, r).data.any()


class TestRecompose:
    def masks(self, et, tc, wt):
        shape = (len(et), 1, 1)
        return (
            RegionMask(Region.ET, np.array(et, bool).reshape(shape)),
            RegionMask(Region.TC, np.array(tc, bool).reshape(shape)),
            RegionMask(Region.WT, np.array(wt, bool).reshape(shape)),
        )

    def test_nested_masks(self):
        # ET 1 voxel, TC 2 voxels, WT 3 voxels -> labels 4, 1, 2
        et, tc, wt = self.masks([1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0])
        out = recompose_labels(et, tc, wt)
        assert out.data.reshape(-1).tolist() == [4, 1, 2, 0]

    def test_all_empty(self):
        et, tc, wt = self.masks([0, 0], [0, 0], [0, 0])
        assert not recompose_labels(et, tc, wt).data.any()

    def test_union_repair_et_dominates(self):
        et, tc, wt = self.masks([1], [0], [0])
        out = recompose_labels(et, tc, wt)
        assert out.data.reshape(-1).tolist() == [4]
        for r in Region:
            assert region_mask(out, r).data.all()

    def test_geometry_mismatch(self):
        et, tc, _ = self.masks([1, 0], [1, 0], [1, 0])
        wt = RegionMask(Region.WT, np.ones((3, 1, 1), bool))
        with pytest.raises(GeometryMismatch):
            recompose_labels(et, tc, wt)

    def test_wrong_slot_rejected(self):
        et, tc, wt = self.masks([1], [1], [1])
        with pytest.raises(GeometryMismatch):
            recompose_labels(tc, et, wt)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_roundtrip_and_nesting_properties(seed):
    rng = np.random.default_rng(seed)
    m = random_labelmap(rng, (4, 3, 2))
    et = region_mask(m, Region.ET)
    tc = region_mask(m, Region.TC)
    wt = region_mask(m, Region.WT)
    assert (et.data <= tc.data).all()
    assert (tc.data <= wt.data).all()
    back = recompose_labels(et, tc, wt)
    assert np.array_equal(back.data, m.data)


SHAPES = st.tuples(*(st.integers(1, 5),) * 3)


@settings(max_examples=50, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2**32 - 1))
def test_region_mask_is_membership_of_the_literal_label_set(shape, seed):
    m = random_labelmap(np.random.default_rng(seed), shape)
    for r in Region:
        out = region_mask(m, r)
        assert out.region is r
        assert np.array_equal(out.data, np.isin(m.data, REGION_LABELS[r.value]))


@pytest.mark.parametrize("et, tc, wt", itertools.product((False, True), repeat=3))
def test_recompose_of_every_decision_triple_is_the_union_rule(et, tc, wt):
    masks = [RegionMask(r, np.full((1, 1, 1), d)) for r, d in zip(Region, (et, tc, wt))]
    want = int(compose_reference(*map(np.array, (et, tc, wt))))
    assert recompose_labels(*masks).data.reshape(-1).tolist() == [want]


@settings(max_examples=50, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2**32 - 1))
def test_recompose_of_non_nested_masks_is_the_union_rule(shape, seed):
    # Independent masks, as per-region STAPLE may give: nothing nests.
    rng = np.random.default_rng(seed)
    et, tc, wt = (rng.random(shape) < rng.random() for _ in Region)
    masks = [RegionMask(r, d) for r, d in zip(Region, (et, tc, wt))]
    out = recompose_labels(*masks)
    assert out.data.dtype == np.uint8
    assert np.array_equal(out.data, compose_reference(et, tc, wt))
