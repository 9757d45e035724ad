"""Evaluation metrics: Dice overlap and 95th-percentile Hausdorff distance.

HD95 follows the dominant challenge convention: distances are measured in mm
between mask *boundaries* (six-connected surface voxels) using an exact
Euclidean distance transform that honors anisotropic spacing, the 95th
percentile uses linear interpolation between closest ranks, and the
symmetric value is the max of the two directed percentiles.

Empty-mask conventions: both masks empty scores perfectly (DSC 1, HD95 0);
exactly one empty scores DSC 0 and the fixed HD95 penalty 373.1287 mm.

``hd95`` takes the boundaries of the two masks as given and hands them to
``_edt_sq_at``, the one place that bounds the distance work. It first slices
source and queries to the box of their union (``volume.nonzero_box``). The
extreme voxels of a mask are boundary voxels, so for ``hd95`` this is the box
of the two masks' union, and every EDT source and query lies inside it,
where a Euclidean distance does not depend on the grid around it.
Coordinates are measured from the box corner, so at spacings that are not
dyadic (e.g. 1.2 mm) a distance may differ in its last digits from the
full-grid value.

The distance transform is plain numpy: a separable squared EDT taken one
axis at a time, in the order 0, 1, 2, and each pass computes only values
that can be finite and are read later. The first pass reads a binary
source, so forward and backward index sweeps find each voxel's nearest
source on its line; it runs on the axis-0 lines of the rows and planes that
hold a source, at the columns that hold a query. The middle pass takes an
all-pairs minimum along each axis-1 line, from the rows that hold a source
to the rows that hold a query, O(query rows * source rows) per line. The
last pass runs only at query voxels, over the planes that hold a source:
``hd95`` reads distances only at the other mask's boundary, so it queries
those voxels alone, and ``edt`` queries every voxel and returns the
distances as a ``Volume`` on the mask's grid. A value left out is ``inf``
(a line with no source) or never read, so every pass gives the values, bit
for bit, of an all-pairs minimum over each whole line of the box. One stray
voxel therefore adds a row, a column and a plane to the work, not the grid
between it and the tumour. The passes take lines, and the last pass takes
queries, in chunks, so that every temporary holds at most ``1 << 18``
values (2 MB as float64), or one middle-pass line's query rows * source
rows values where that is more. The last pass finds its queries with
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
from .volume import LabelMap, Volume, nonzero_box, require_same_geometry

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


def _nearest_on_lines_sq(source: np.ndarray, step: float, at: np.ndarray) -> np.ndarray:
    """The first pass: squared distance (mm^2) along axis 0, at the positions
    ``at`` of each line, to the nearest source voxel on the same line;
    ``inf`` on a line with none.

    Forward and backward index sweeps find the nearest source on each side,
    and ``(x[i] - x[j]) ** 2`` gives the value an all-pairs minimum would: on
    a binary source its minimum is that of the nearest sources.
    """
    n = source.shape[0]
    lines = source.reshape(n, -1)
    out = np.empty((len(at), lines.shape[1]))
    x = step * np.arange(n, dtype=np.float64)
    x_or_inf = np.append(x, np.inf)  # index -1 or n: no source on that side
    i = np.arange(n, dtype=np.int32)[:, None]
    chunk = max(1, _CHUNK // (4 * n))  # about four block-sized temporaries
    for lo in range(0, lines.shape[1], chunk):
        block = lines[:, lo:lo + chunk]
        before = np.maximum.accumulate(np.where(block, i, np.int32(-1)), axis=0)[at]
        after = np.minimum.accumulate(np.where(block, i, np.int32(n))[::-1], axis=0)[::-1][at]
        np.minimum((x[at, None] - x_or_inf[before]) ** 2,
                   (x[at, None] - x_or_inf[after]) ** 2, out=out[:, lo:lo + chunk])
    return out.reshape((len(at),) + source.shape[1:])


def _sq_gaps(n: int, step: float, at: np.ndarray, of: np.ndarray) -> np.ndarray:
    """``(x[i] - x[j]) ** 2`` for ``i`` in ``at`` and ``j`` in ``of``, with
    voxel coordinates ``x`` (mm) along a line of ``n`` voxels."""
    x = step * np.arange(n, dtype=np.float64)
    return (x[at, None] - x[None, of]) ** 2


def _edt_sq_at(source: RegionMask, queries: RegionMask) -> np.ndarray:
    """Squared distance (mm^2) from each query voxel, in C order, to the
    nearest ``source`` voxel, or ``inf`` at every query with no source; in
    the box of their union, on the rows, columns and planes that hold a
    source or a query (see the module docstring). The queries are found
    one slab of axis-0 planes at a time, at most ``_CHUNK`` voxels (or one
    plane) per ``np.nonzero``.
    """
    box = nonzero_box(source.data | queries.data)
    if box is None:
        return np.empty(0)
    s, q = source.data[box], queries.data[box]
    s_plane = s.any(axis=0)
    rows, planes = np.flatnonzero(s_plane.any(axis=1)), np.flatnonzero(s_plane.any(axis=0))
    cols, q_rows = np.flatnonzero(q.any(axis=(1, 2))), np.flatnonzero(q.any(axis=0).any(axis=1))
    if not (rows.size and cols.size):
        return np.full(np.count_nonzero(q), np.inf)
    (nx, ny, nz), (sx, sy, sz) = q.shape, (float(v) for v in source.spacing)
    g = _nearest_on_lines_sq(s[:, rows[:, None], planes], sx, cols)
    g = g.transpose(1, 0, 2).reshape(len(rows), -1)  # the middle pass's lines
    cost = _sq_gaps(ny, sy, q_rows, rows)
    mid = np.empty((len(q_rows), g.shape[1]))
    chunk = max(1, _CHUNK // cost.size)
    for lo in range(0, g.shape[1], chunk):
        np.min(g[None, :, lo:lo + chunk] + cost[:, :, None], axis=1, out=mid[:, lo:lo + chunk])
    mid = mid.reshape(len(q_rows), len(cols), len(planes))
    cost = _sq_gaps(nz, sz, np.arange(nz), planes)
    col_at, row_at = np.empty(nx, np.intp), np.empty(ny, np.intp)
    col_at[cols], row_at[q_rows] = np.arange(len(cols)), np.arange(len(q_rows))
    out = np.empty(np.count_nonzero(q))
    slab = max(1, _CHUNK // (ny * nz))
    chunk = max(1, _CHUNK // len(planes))
    done = 0
    for p in range(0, nx, slab):
        i, j, k = np.nonzero(q[p:p + slab])
        i, j = col_at[i + p], row_at[j]
        part, done = out[done:done + len(k)], done + len(k)
        for lo in range(0, len(k), chunk):
            hi = lo + chunk
            part[lo:hi] = (mid[j[lo:hi], i[lo:hi]] + cost[k[lo:hi]]).min(axis=1)
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
    boundary voxels only; ``_edt_sq_at`` bounds that work.
    """
    require_same_geometry(a, b)
    a_any, b_any = a.data.any(), b.data.any()
    if not (a_any or b_any):
        return 0.0
    if not (a_any and b_any):
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
