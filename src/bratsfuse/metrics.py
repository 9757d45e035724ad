"""Evaluation metrics: Dice overlap and 95th-percentile Hausdorff distance.

HD95 follows the dominant challenge convention: distances are measured in mm
between mask *boundaries* (six-connected surface voxels) using an exact
Euclidean distance transform that honors anisotropic spacing, the 95th
percentile uses linear interpolation between closest ranks, and the
symmetric value is the max of the two directed percentiles.

Empty-mask conventions: both masks empty scores perfectly (DSC 1, HD95 0);
exactly one empty scores DSC 0 and the fixed HD95 penalty 373.1287 mm.

``hd95`` crops both masks to the bounding box of their union
(``volume.nonzero_box``) before it takes boundaries and distance transforms,
so the EDT covers the tumour, not the head. Emptiness is decided from that
box: no box means both masks are empty (HD95 0), and a cropped mask with no
voxel means exactly one is (the penalty). The result is the same as on the
full grid: every voxel outside the box is background in both masks, so the
boundary voxels are unchanged (a box-face voxel's outside neighbour is
background either way, and ``boundary`` counts out-of-volume as
background), and every EDT source and query lies inside the box, where a
Euclidean distance does not depend on the grid around it. Only the rounding
can move: coordinates are measured from the box corner, so at spacings that
are not dyadic (e.g. 1.2 mm) a distance may differ in its last digits from
the full-grid value.

The distance transform is plain numpy: a separable squared EDT taken one
axis at a time, in the order 0, 1, 2. The first pass reads a binary source,
so forward and backward index sweeps find each voxel's nearest source on its
line. The middle pass takes an all-pairs minimum along each line, O(n^2) per
line, which the box crop keeps small. The last pass runs only at query
voxels (``_edt_sq_at``): ``hd95`` reads distances only at the other mask's
boundary, so it queries those voxels alone, and ``edt`` queries every voxel
and returns the distances as a ``Volume`` on the mask's grid. Every pass
gives the values, bit for bit, of an all-pairs minimum over each line. The
passes take lines, and the last pass takes queries, in chunks, so that
every temporary holds at most ``1 << 18`` values (2 MB as float64), or one
line's n^2 values in the middle pass where n > 512: the temporaries stay
small next to the cropped masks. The last pass finds its queries with
``np.nonzero`` one slab of axis-0 planes at a time, each of at most
``1 << 18`` voxels (or one plane, where a plane has more), so the three
int64 query-index arrays cover one slab, not the grid. scipy is not
imported here because ``scipy.ndimage`` about doubles the start-up time of
every CLI command.
``python3 benchmarks/run.py --workload eval-batch --trace 1`` reports the
time spent in ``hd95`` (``metrics.hd95.*``); its ``metrics.edt.*`` counts
only calls of ``edt``, which ``hd95`` does not make.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyMask
from .regions import Region, RegionMask, region_mask
from .volume import LabelMap, Volume, crop, nonzero_box, require_same_geometry

__all__ = [
    "EMPTY_PENALTY_MM",
    "CaseMetrics",
    "dice",
    "boundary",
    "edt",
    "percentile",
    "hd95",
    "evaluate_case",
    "metrics_csv_header",
    "metrics_csv_row",
]

EMPTY_PENALTY_MM = 373.1287
REGION_ORDER = tuple(r.value for r in Region)
_CHUNK = 1 << 18  # values in any one EDT temporary


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


def _nearest_on_lines_sq(source: np.ndarray, step: float) -> np.ndarray:
    """The first pass: squared distance (mm^2) along axis 0 to the nearest
    source voxel on the same line; ``inf`` on a line with none.

    Forward and backward index sweeps find the nearest source on each side,
    and ``(x[i] - x[j]) ** 2`` gives the value the all-pairs pass would: on a
    binary source its minimum is that of the nearest sources.
    """
    n = source.shape[0]
    lines = source.reshape(n, -1)
    out = np.empty(lines.shape)
    x = step * np.arange(n, dtype=np.float64)
    x_or_inf = np.append(x, np.inf)  # index -1 or n: no source on that side
    i = np.arange(n, dtype=np.int32)[:, None]
    chunk = max(1, _CHUNK // (4 * n))  # about four block-sized temporaries
    for lo in range(0, lines.shape[1], chunk):
        block = lines[:, lo:lo + chunk]
        before = np.maximum.accumulate(np.where(block, i, np.int32(-1)), axis=0)
        after = np.minimum.accumulate(np.where(block, i, np.int32(n))[::-1], axis=0)[::-1]
        np.minimum((x[:, None] - x_or_inf[before]) ** 2,
                   (x[:, None] - x_or_inf[after]) ** 2, out=out[:, lo:lo + chunk])
    return out.reshape(source.shape)


def _sq_gaps(n: int, step: float) -> np.ndarray:
    """``(x[i] - x[j]) ** 2`` for voxel coordinates ``x`` (mm) along a line."""
    x = step * np.arange(n, dtype=np.float64)
    return (x[:, None] - x[None, :]) ** 2


def _all_pairs_pass(g: np.ndarray, step: float) -> np.ndarray:
    """The middle pass: one 1-D min-convolution of ``g`` along axis 1 with
    the squared distance, as an explicit all-pairs minimum over each line."""
    n = g.shape[1]
    if n == 1:
        return g
    cost = _sq_gaps(n, step)
    moved = np.moveaxis(g, 1, 0)
    moved_shape = moved.shape
    flat = moved.reshape(n, -1)
    out = np.empty_like(flat)
    chunk = max(1, _CHUNK // (n * n))
    for lo in range(0, flat.shape[1], chunk):
        hi = min(lo + chunk, flat.shape[1])
        out[:, lo:hi] = (flat[None, :, lo:hi] + cost[:, :, None]).min(axis=1)
    return np.moveaxis(out.reshape(moved_shape), 0, 1)


def _edt_sq_at(source: RegionMask, queries: RegionMask) -> np.ndarray:
    """Squared distance (mm^2) from each query voxel, in C order, to the
    nearest ``source`` voxel.

    The first two passes give each voxel's distance to the nearest source
    in its axis-2 plane; the last pass takes, at each query alone, the
    all-pairs minimum over its axis-2 line. The queries are found one slab
    of axis-0 planes at a time, at most ``_CHUNK`` voxels (or one plane)
    per ``np.nonzero``.
    """
    sx, sy, sz = (float(s) for s in source.spacing)
    g = _all_pairs_pass(_nearest_on_lines_sq(source.data, sx), sy)
    n = g.shape[2]
    cost = _sq_gaps(n, sz)
    q = queries.data
    out = np.empty(np.count_nonzero(q))
    slab = max(1, _CHUNK // (q.shape[1] * n))
    chunk = max(1, _CHUNK // n)
    done = 0
    for p in range(0, q.shape[0], slab):
        i, j, k = np.nonzero(q[p:p + slab])
        i += p
        part, done = out[done:done + len(k)], done + len(k)
        for lo in range(0, len(k), chunk):
            hi = lo + chunk
            part[lo:hi] = (g[i[lo:hi], j[lo:hi], :] + cost[k[lo:hi], :]).min(axis=1)
    return out


def edt(m: RegionMask) -> Volume:
    """Exact Euclidean distance (mm) to the nearest foreground voxel, on the
    grid of ``m``: :func:`_edt_sq_at` with every voxel as a query."""
    if not m.data.any():
        raise EmptyMask("distance transform needs a nonempty source mask")
    sq = _edt_sq_at(m, replace(m, data=np.ones(m.shape, bool)))
    return Volume(np.sqrt(sq.reshape(m.shape)), m.spacing, m.origin)


def percentile(values: np.ndarray, p: float) -> float:
    """The ``p``-th percentile (0 <= p <= 100) of nonempty ``values`` by
    linear interpolation between closest ranks: ``np.percentile``'s default
    method, computed the same way, without the ``numpy.ma`` import (about
    10 ms and 1 MB) that ``np.percentile`` makes on its first call."""
    n = values.size
    index = (n - 1) * (p / 100)
    lo = int(index)
    hi = min(lo + 1, n - 1)
    part = np.partition(values, (lo, hi))
    a, b = float(part[lo]), float(part[hi])
    t = index - lo
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def hd95(a: RegionMask, b: RegionMask, penalty: float = EMPTY_PENALTY_MM) -> float:
    """Symmetric 95th-percentile boundary distance in mm.

    Each direction takes the distance to one mask's boundary at the other's
    boundary voxels only, inside the box of the masks' union.
    """
    require_same_geometry(a, b)
    box = nonzero_box(a.data | b.data)
    if box is None:
        return 0.0
    a, b = crop(a, box), crop(b, box)
    if not (a.data.any() and b.data.any()):
        return float(penalty)
    ba, bb = boundary(a), boundary(b)
    d_ab = percentile(np.sqrt(_edt_sq_at(bb, ba)), 95)
    d_ba = percentile(np.sqrt(_edt_sq_at(ba, bb)), 95)
    return max(d_ab, d_ba)


def evaluate_case(
    pred: LabelMap,
    gt: LabelMap,
    case_id: str,
    penalty: float = EMPTY_PENALTY_MM,
) -> CaseMetrics:
    """DSC and HD95 over ET/TC/WT via region decomposition."""
    require_same_geometry(pred, gt)
    dsc, hd = {}, {}
    for r in Region:
        pm, gm = region_mask(pred, r), region_mask(gt, r)
        dsc[r.value] = dice(pm, gm)
        hd[r.value] = hd95(pm, gm, penalty)
    return CaseMetrics(case_id, dsc, hd)


def metrics_csv_header() -> list[str]:
    return ["case_id", "DSC_ET", "DSC_TC", "DSC_WT", "HD95_ET", "HD95_TC", "HD95_WT"]


def metrics_csv_row(c: CaseMetrics) -> list[str]:
    vals = [c.dsc[r] for r in REGION_ORDER] + [c.hd95[r] for r in REGION_ORDER]
    return [c.case_id] + [repr(float(v)) for v in vals]
