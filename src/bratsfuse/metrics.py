"""Evaluation metrics: Dice overlap and 95th-percentile Hausdorff distance.

HD95 follows the dominant challenge convention: distances are measured in mm
between mask *boundaries* (six-connected surface voxels) using an exact
Euclidean distance transform that honors anisotropic spacing, the 95th
percentile uses linear interpolation between closest ranks, and the
symmetric value is the max of the two directed percentiles.

Empty-mask conventions: both masks empty scores perfectly (DSC 1, HD95 0);
exactly one empty scores DSC 0 and the fixed HD95 penalty 373.1287 mm.

``hd95`` crops both masks to the bounding box of their union before it takes
boundaries and distance transforms, so the EDT covers the tumour, not the
head. The result is the same as on the full grid: every voxel outside the box
is background in both masks, so the boundary voxels are unchanged (a box-face
voxel's outside neighbour is background either way, and ``boundary`` counts
out-of-volume as background), and every EDT source and query lies inside the
box, where a Euclidean distance does not depend on the grid around it. Only
the rounding can move: coordinates are measured from the box corner, so at
spacings that are not dyadic (e.g. 1.2 mm) a distance may differ in its last
digits from the full-grid value.

The distance transform is plain numpy: a separable squared EDT whose 1-D
passes take an all-pairs minimum along each line, O(n^2) per line, which the
box crop keeps small. ``edt`` returns the distances as a ``Volume`` on the
mask's grid. scipy is not imported here because ``scipy.ndimage``
about doubles the start-up time of every CLI command.
``python3 benchmarks/run.py --workload eval-batch --trace 1`` reports the time
and voxels spent in the distance transform (``metrics.edt.*``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyMask
from .regions import Region, RegionMask, region_mask
from .volume import LabelMap, Volume, crop, nonzero_bbox, require_same_geometry

__all__ = [
    "EMPTY_PENALTY_MM",
    "CaseMetrics",
    "dice",
    "boundary",
    "edt",
    "hd95",
    "evaluate_case",
    "metrics_csv_header",
    "metrics_csv_row",
]

EMPTY_PENALTY_MM = 373.1287
REGION_ORDER = ("ET", "TC", "WT")


@dataclass(frozen=True)
class CaseMetrics:
    """Per-case DSC and HD95 for each of the three evaluation regions."""

    case_id: str
    dsc: dict[str, float]
    hd95: dict[str, float]

    def __post_init__(self):
        for table in (self.dsc, self.hd95):
            if set(table) != set(REGION_ORDER):
                raise ValueError(f"metrics must cover regions {REGION_ORDER}")
            if not all(np.isfinite(v) for v in table.values()):
                raise ValueError("metrics must be finite")


def dice(a: RegionMask, b: RegionMask) -> float:
    """2|A∩B| / (|A|+|B|); both empty scores 1.0, exactly one empty 0.0."""
    require_same_geometry(a, b)
    na = int(a.data.sum())
    nb = int(b.data.sum())
    if na == 0 and nb == 0:
        return 1.0
    inter = int((a.data & b.data).sum())
    return 2.0 * inter / (na + nb)


def boundary(m: RegionMask) -> RegionMask:
    """Foreground voxels with a six-connected background (or out-of-volume)
    neighbor."""
    fg = m.data
    padded = np.pad(fg, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1, 1:-1] & padded[2:, 1:-1, 1:-1]
        & padded[1:-1, :-2, 1:-1] & padded[1:-1, 2:, 1:-1]
        & padded[1:-1, 1:-1, :-2] & padded[1:-1, 1:-1, 2:]
    )
    return RegionMask(m.region, fg & ~interior, m.spacing, m.origin)


def _edt_sq(source: np.ndarray, spacing) -> np.ndarray:
    """Squared EDT of a boolean source mask. Units: mm^2.

    Separable decomposition: each 1-D min-convolution is an explicit
    all-pairs minimum (O(n^2) per line), evaluated in memory-bounded chunks.
    """
    g = np.where(source, 0.0, np.inf)
    for axis in range(3):
        n = g.shape[axis]
        if n == 1:
            continue
        x = float(spacing[axis]) * np.arange(n, dtype=np.float64)
        cost = (x[:, None] - x[None, :]) ** 2
        moved = np.moveaxis(g, axis, 0)
        moved_shape = moved.shape
        flat = moved.reshape(n, -1)
        out = np.empty_like(flat)
        chunk = max(1, (1 << 22) // (n * n))
        for lo in range(0, flat.shape[1], chunk):
            hi = min(lo + chunk, flat.shape[1])
            out[:, lo:hi] = (flat[None, :, lo:hi] + cost[:, :, None]).min(axis=1)
        g = np.moveaxis(out.reshape(moved_shape), 0, axis)
    return np.ascontiguousarray(g)


def edt(m: RegionMask) -> Volume:
    """Exact Euclidean distance (mm) to the nearest foreground voxel, on the
    grid of ``m``."""
    if not m.data.any():
        raise EmptyMask("distance transform needs a nonempty source mask")
    sq = _edt_sq(m.data, m.spacing)
    return Volume(np.sqrt(sq), m.spacing, m.origin)


def _percentile95(values: np.ndarray) -> float:
    # Linear interpolation between closest ranks (numpy's default).
    return float(np.percentile(values, 95))


def hd95(a: RegionMask, b: RegionMask, penalty: float = EMPTY_PENALTY_MM) -> float:
    """Symmetric 95th-percentile boundary distance in mm."""
    require_same_geometry(a, b)
    a_empty = not a.data.any()
    b_empty = not b.data.any()
    if a_empty and b_empty:
        return 0.0
    if a_empty or b_empty:
        return float(penalty)
    box = nonzero_bbox(replace(a, data=a.data | b.data))
    a, b = crop(a, box), crop(b, box)
    ba = boundary(a)
    bb = boundary(b)
    dist_to_b = edt(bb).data
    dist_to_a = edt(ba).data
    d_ab = _percentile95(dist_to_b[ba.data])
    d_ba = _percentile95(dist_to_a[bb.data])
    return max(d_ab, d_ba)


def evaluate_case(
    pred: LabelMap,
    gt: LabelMap,
    case_id: str,
    penalty: float = EMPTY_PENALTY_MM,
) -> CaseMetrics:
    """DSC and HD95 over ET/TC/WT via region decomposition."""
    require_same_geometry(pred, gt)
    dsc = {}
    hd = {}
    for r in (Region.ET, Region.TC, Region.WT):
        pm = region_mask(pred, r)
        gm = region_mask(gt, r)
        dsc[r.value] = dice(pm, gm)
        hd[r.value] = hd95(pm, gm, penalty)
    return CaseMetrics(case_id, dsc, hd)


def metrics_csv_header() -> str:
    return "case_id,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT"


def metrics_csv_row(c: CaseMetrics) -> str:
    vals = [c.dsc[r] for r in REGION_ORDER] + [c.hd95[r] for r in REGION_ORDER]
    return ",".join([c.case_id] + [repr(float(v)) for v in vals])
