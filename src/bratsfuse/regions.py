"""BraTS label semantics: the nested evaluation regions ET, TC, and WT.

Label codes: 1 = necrotic core, 2 = edema, 4 = enhancing tumor. The regions
nest: ET = {4}, TC = {1, 4}, WT = {1, 2, 4}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch
from .volume import LabelMap, _Grid, require_same_geometry

__all__ = ["Region", "RegionMask", "region_mask", "recompose_labels"]


class Region(enum.Enum):
    ET = "ET"
    TC = "TC"
    WT = "WT"

    @property
    def member_labels(self) -> frozenset[int]:
        return _MEMBERS[self]


_MEMBERS = {
    Region.ET: frozenset({4}),
    Region.TC: frozenset({1, 4}),
    Region.WT: frozenset({1, 2, 4}),
}


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
    mask = np.isin(m.data, sorted(r.member_labels))
    return RegionMask(r, mask, m.spacing, m.origin)


def recompose_labels(et: RegionMask, tc: RegionMask, wt: RegionMask) -> LabelMap:
    """Rebuild a label map from per-region masks.

    Nesting is enforced first by union (TC := TC ∪ ET, then WT := WT ∪ TC),
    so independently fused, possibly non-nested masks yield a valid map with
    ET taking precedence. Then: label 4 on ET, 1 on TC∖ET, 2 on WT∖TC, 0
    elsewhere.
    """
    for mask, expected in ((et, Region.ET), (tc, Region.TC), (wt, Region.WT)):
        if mask.region is not expected:
            raise GeometryMismatch(
                f"mask tagged {mask.region.value} passed in the {expected.value} slot"
            )
    require_same_geometry(et, tc, wt)
    tc_data = tc.data | et.data
    wt_data = wt.data | tc_data
    labels = np.zeros(et.shape, dtype=np.uint8)
    labels[wt_data] = 2
    labels[tc_data] = 1
    labels[et.data] = 4
    return LabelMap(labels, et.spacing, et.origin)
