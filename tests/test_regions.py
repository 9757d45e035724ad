import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratsfuse.regions import _MEMBERSHIP, Region, compose, region_mask
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
        assert out.dtype == bool and out.shape == m.shape
        assert out.reshape(-1).tolist() == [False, True, True, True]

    def test_et_mask(self):
        m = column_map([0, 1, 2, 4])
        out = region_mask(m, Region.ET)
        assert out.reshape(-1).tolist() == [False, False, False, True]

    def test_tc_mask(self):
        m = column_map([0, 1, 2, 4])
        out = region_mask(m, Region.TC)
        assert out.reshape(-1).tolist() == [False, True, False, True]

    def test_all_zero(self):
        m = column_map([0, 0, 0])
        for r in Region:
            assert not region_mask(m, r).any()


class TestRecompose:
    """``compose``, which rebuilds labels from per-region masks."""

    def masks(self, et, tc, wt):
        shape = (len(et), 1, 1)
        return tuple(np.array(d, bool).reshape(shape) for d in (et, tc, wt))

    def test_nested_masks(self):
        # ET 1 voxel, TC 2 voxels, WT 3 voxels -> labels 4, 1, 2
        et, tc, wt = self.masks([1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0])
        out = compose(et, tc, wt)
        assert out.reshape(-1).tolist() == [4, 1, 2, 0]

    def test_all_empty(self):
        et, tc, wt = self.masks([0, 0], [0, 0], [0, 0])
        assert not compose(et, tc, wt).any()

    def test_union_repair_et_dominates(self):
        et, tc, wt = self.masks([1], [0], [0])
        out = compose(et, tc, wt)
        assert out.reshape(-1).tolist() == [4]
        for r in Region:
            assert region_mask(LabelMap(out), r).all()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_roundtrip_and_nesting_properties(seed):
    rng = np.random.default_rng(seed)
    m = random_labelmap(rng, (4, 3, 2))
    et = region_mask(m, Region.ET)
    tc = region_mask(m, Region.TC)
    wt = region_mask(m, Region.WT)
    assert (et <= tc).all()
    assert (tc <= wt).all()
    assert np.array_equal(compose(et, tc, wt), m.data)


SHAPES = st.tuples(*(st.integers(1, 5),) * 3)


@settings(max_examples=50, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2**32 - 1))
def test_region_mask_is_membership_of_the_literal_label_set(shape, seed):
    m = random_labelmap(np.random.default_rng(seed), shape)
    for r in Region:
        assert np.array_equal(region_mask(m, r), np.isin(m.data, REGION_LABELS[r.value]))


@pytest.mark.parametrize("et, tc, wt", itertools.product((False, True), repeat=3))
def test_recompose_of_every_decision_triple_is_the_union_rule(et, tc, wt):
    masks = [np.full((1, 1, 1), d) for d in (et, tc, wt)]
    want = int(compose_reference(*map(np.array, (et, tc, wt))))
    assert compose(*masks).reshape(-1).tolist() == [want]


@settings(max_examples=50, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2**32 - 1))
def test_recompose_of_non_nested_masks_is_the_union_rule(shape, seed):
    # Independent masks, as per-region STAPLE may give: nothing nests.
    rng = np.random.default_rng(seed)
    et, tc, wt = (rng.random(shape) < rng.random() for _ in Region)
    out = compose(et, tc, wt)
    assert out.dtype == np.uint8 and not out.flags.writeable
    assert np.array_equal(out, compose_reference(et, tc, wt))
