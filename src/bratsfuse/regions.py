"""BraTS label semantics: the nested evaluation regions ET, TC, and WT.

Label codes: 1 = necrotic core, 2 = edema, 4 = enhancing tumor. The regions
nest: ET = {4}, TC = {1, 4}, WT = {1, 2, 4}.

This module alone holds that rule, as two read-only tables: ``_MEMBERSHIP``
(is each label of BRATS_LABELS in each region), read by ``region_mask``,
``fusion.staple_lut`` and ``metrics`` (whose table of two-model joint codes
gives each region's prediction and truth masks); and its inverse ``_COMPOSE`` (the label of each ET,
TC, WT decision triple), read by ``compose`` for ``recompose_labels``,
``fusion.staple_lut`` and ``synth.make_phantom``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch
from .volume import BRATS_LABELS, LabelMap, _freeze, _Grid, _label_index, require_same_geometry

__all__ = ["Region", "RegionMask", "region_mask", "compose", "recompose_labels"]


class Region(enum.Enum):
    ET = "ET"
    TC = "TC"
    WT = "WT"


# Per region, whether each label of BRATS_LABELS is in it.
_MEMBERSHIP = {
    r: _freeze(np.array([label in members for label in BRATS_LABELS]))
    for r, members in ((Region.ET, {4}), (Region.TC, {1, 4}), (Region.WT, {1, 2, 4}))
}

# The label of each decision triple, at et + 2 tc + 4 wt: the masks nest by
# union (TC |= ET, WT |= TC), then 4 on ET, 1 on TC, 2 on WT, 0 elsewhere.
_COMPOSE = _freeze(np.array([0, 4, 1, 4, 2, 4, 1, 4], np.uint8))


@dataclass(frozen=True)
class RegionMask(_Grid):
    """Binary mask for one evaluation region, with Volume geometry."""

    region: Region
    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        self._init_grid(np.asarray(self.data, dtype=bool))


def region_mask(m: LabelMap, r: Region) -> RegionMask:
    """Voxel is in the mask iff its label belongs to the region."""
    return RegionMask(r, _MEMBERSHIP[r][_label_index(m.data)], m.spacing, m.origin)


def compose(et: np.ndarray, tc: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """The label of each element's ET, TC and WT decisions (boolean arrays of
    one shape) by the union nesting of ``_COMPOSE``, as read-only uint8."""
    return _freeze(_COMPOSE[et.view(np.uint8) | tc.view(np.uint8) << 1 | wt.view(np.uint8) << 2])


def recompose_labels(et: RegionMask, tc: RegionMask, wt: RegionMask) -> LabelMap:
    """Rebuild a label map from per-region masks.

    Nesting is enforced first by union (TC := TC ∪ ET, then WT := WT ∪ TC),
    so independently fused, possibly non-nested masks yield a valid map with
    ET taking precedence. Then: label 4 on ET, 1 on TC∖ET, 2 on WT∖TC, 0
    elsewhere.
    """
    for mask, expected in zip((et, tc, wt), Region):
        if mask.region is not expected:
            raise GeometryMismatch(
                f"mask tagged {mask.region.value} passed in the {expected.value} slot"
            )
    require_same_geometry(et, tc, wt)
    return LabelMap(compose(et.data, tc.data, wt.data), et.spacing, et.origin)
