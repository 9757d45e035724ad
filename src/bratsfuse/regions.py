"""BraTS label semantics: the nested evaluation regions ET, TC, and WT.

Label codes: 1 = necrotic core, 2 = edema, 4 = enhancing tumor. The regions
nest: ET = {4}, TC = {1, 4}, WT = {1, 2, 4}. This module alone holds that
rule, as two read-only tables: ``_MEMBERSHIP`` (is each label of
BRATS_LABELS in each region), read by ``region_mask`` (a boolean array),
``fusion.staple_lut`` and ``metrics`` (whose table of two-model joint codes
gives each region's prediction and truth masks); and its inverse
``_COMPOSE`` (the label of each ET, TC, WT decision triple), read by
``compose``, which ``fusion.staple_lut`` and ``synth.make_phantom`` call.
"""

from __future__ import annotations

import enum

import numpy as np

from .volume import BRATS_LABELS, ED, ET, NCR, LabelMap, _freeze, _label_index

__all__ = ["Region", "region_mask", "compose"]


class Region(enum.Enum):
    ET = "ET"
    TC = "TC"
    WT = "WT"


# Per region, whether each label of BRATS_LABELS is in it.
_MEMBERSHIP = {
    r: _freeze(np.array([label in members for label in BRATS_LABELS]))
    for r, members in ((Region.ET, {ET}), (Region.TC, {NCR, ET}), (Region.WT, {NCR, ED, ET}))
}

# The label of each decision triple, at et + 2 tc + 4 wt: the masks nest by
# union (TC |= ET, WT |= TC), then 4 on ET, 1 on TC, 2 on WT, 0 elsewhere.
_COMPOSE = _freeze(np.array([0, ET, NCR, ET, ED, ET, NCR, ET], np.uint8))


def region_mask(m: LabelMap, r: Region) -> np.ndarray:
    """A boolean array shaped like ``m``: a voxel is in the mask iff its
    label belongs to the region."""
    return _MEMBERSHIP[r][_label_index(m.data)]


def compose(et: np.ndarray, tc: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """The label of each element's ET, TC and WT decisions (boolean arrays of
    one shape) by the union nesting of ``_COMPOSE``, as read-only uint8."""
    return _freeze(_COMPOSE[et.view(np.uint8) | tc.view(np.uint8) << 1 | wt.view(np.uint8) << 2])
