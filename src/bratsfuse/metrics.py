"""Evaluation metrics: Dice overlap and 95th-percentile Hausdorff distance.

HD95 follows the dominant challenge convention: distances are measured in mm
between mask *boundaries* (six-connected surface voxels) using an exact
Euclidean distance transform that honors anisotropic spacing, the 95th
percentile uses linear interpolation between closest ranks, and the
symmetric value is the max of the two directed percentiles.

Empty-mask conventions: both masks empty scores perfectly (DSC 1, HD95 0);
exactly one empty scores DSC 0 and the fixed HD95 penalty 373.1287 mm.

``score_codes`` scores a pair from its two-model joint codes
(``fusion.pack_labels``, the prediction as model 0): each region's two
masks are one gather each from a 16-entry table built from
``regions._MEMBERSHIP``, and ``dice``, ``boundary`` and ``hd95`` take
boolean arrays. ``eval`` hands it the codes box it reads plane by plane,
and ``evaluate_case`` the codes of two label maps cropped to the box of the
nonzero codes, so the library and the CLI score one way.

``hd95`` takes the box of the two masks' union (``volume.nonzero_box``)
once per region, crops both masks to it, and takes their boundaries on the
crop: every voxel just outside the box is background in both, so these are
the whole grid's boundaries. ``_edt_sq_at`` receives the two boundaries
already in that box and bounds the rest of the distance work. The extreme
voxels of a mask are boundary voxels, so the box is also that of the two
boundaries, and a Euclidean distance does not depend on the grid around
it. Coordinates are measured from the box corner, so at spacings that are
not dyadic (e.g. 1.2 mm) a distance may differ in its last digits from the
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
distances as an array shaped like the mask. A value left out is ``inf``
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

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, GeometryMismatch
from .fusion import joint_codes, pack_labels
from .regions import _MEMBERSHIP, Region
from .volume import LabelMap, _freeze, nonzero_box, require_same_geometry

# Not called here, but benchmarks/tracing.py wraps this name on this module.
from .regions import region_mask  # noqa: F401

__all__ = [
    "EMPTY_PENALTY_MM",
    "CaseMetrics",
    "dice",
    "boundary",
    "edt",
    "percentile",
    "hd95",
    "score_codes",
    "evaluate_case",
    "metrics_csv_header",
    "metrics_csv_row",
]

EMPTY_PENALTY_MM = 373.1287
REGION_ORDER = tuple(r.value for r in Region)
_CHUNK = 1 << 18  # values in any one EDT temporary
# Per region, whether each two-model joint code is in it for the prediction
# (its label position in bits 0-1) and for the truth (bits 2-3).
_IN_REGION = {
    r: (_freeze(m[np.arange(16) & 3]), _freeze(m[np.arange(16) >> 2]))
    for r, m in _MEMBERSHIP.items()
}


@dataclass(frozen=True)
class CaseMetrics:
    """Per-case DSC and HD95 for each of the three evaluation regions, the
    row of every scores table: one finite DSC in [0, 1] and one finite
    HD95 >= 0 per region, or a ValueError."""

    case_id: str
    dsc: dict[str, float]
    hd95: dict[str, float]

    def __post_init__(self):
        for table in (self.dsc, self.hd95):
            if set(table) != set(REGION_ORDER):
                raise ValueError(f"metrics must cover regions {REGION_ORDER}")
            if not all(np.isfinite(v) for v in table.values()):
                raise ValueError("metrics must be finite")
        for r in REGION_ORDER:
            if not 0.0 <= self.dsc[r] <= 1.0:
                raise ValueError(f"DSC_{r} {self.dsc[r]} lies outside [0, 1]")
            if self.hd95[r] < 0.0:
                raise ValueError(f"HD95_{r} {self.hd95[r]} is negative")


def _require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    """Masks of two shapes would broadcast; they are a GeometryMismatch."""
    if a.shape != b.shape:
        raise GeometryMismatch(f"mask shapes differ: {a.shape} vs {b.shape}")


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """2|A∩B| / (|A|+|B|) of two boolean masks of one shape; both empty
    scores 1.0, exactly one empty 0.0."""
    _require_same_shape(a, b)
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    if na == 0 and nb == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a & b)) / (na + nb)


def boundary(mask: np.ndarray) -> np.ndarray:
    """The voxels of the boolean ``mask`` with a six-connected background
    (or out-of-volume) neighbor."""
    padded = np.pad(mask, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1, 1:-1] & padded[2:, 1:-1, 1:-1]
        & padded[1:-1, :-2, 1:-1] & padded[1:-1, 2:, 1:-1]
        & padded[1:-1, 1:-1, :-2] & padded[1:-1, 1:-1, 2:]
    )
    return mask & ~interior


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


def _edt_sq_at(s: np.ndarray, q: np.ndarray, spacing) -> np.ndarray:
    """Squared distance (mm^2) from each voxel of the query mask ``q``, in C
    order, to the nearest voxel of the source mask ``s`` (boolean, of one
    shape, on a grid of ``spacing``), or ``inf`` at every query with no
    source; on the rows, columns and planes that hold a source or a query
    (see the module docstring). The caller crops both masks to the box the
    coordinates are measured from. The queries are found one slab of axis-0
    planes at a time, at most ``_CHUNK`` voxels (or one plane) per
    ``np.nonzero``.
    """
    s_plane = s.any(axis=0)
    rows, planes = np.flatnonzero(s_plane.any(axis=1)), np.flatnonzero(s_plane.any(axis=0))
    cols, q_rows = np.flatnonzero(q.any(axis=(1, 2))), np.flatnonzero(q.any(axis=0).any(axis=1))
    if not (rows.size and cols.size):
        return np.full(np.count_nonzero(q), np.inf)
    (nx, ny, nz), (sx, sy, sz) = q.shape, (float(v) for v in spacing)
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


def edt(mask: np.ndarray, spacing) -> np.ndarray:
    """Exact Euclidean distance (mm) from every voxel of the boolean 3-D
    ``mask`` on a grid of ``spacing`` to its nearest foreground voxel:
    :func:`_edt_sq_at` with every voxel as a query."""
    if not mask.any():
        raise EmptyMask("distance transform needs a nonempty source mask")
    return np.sqrt(_edt_sq_at(mask, np.ones(mask.shape, bool), spacing).reshape(mask.shape))


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


def hd95(a: np.ndarray, b: np.ndarray, spacing, penalty: float = EMPTY_PENALTY_MM) -> float:
    """Symmetric 95th-percentile boundary distance in mm between the boolean
    masks ``a`` and ``b`` of one shape on a grid of ``spacing``.

    Both masks are cropped to the box of their union, once; each direction
    takes the distance to one mask's boundary at the other's boundary
    voxels only, and ``_edt_sq_at`` bounds that work.
    """
    _require_same_shape(a, b)
    box = nonzero_box(a | b)
    if box is None:
        return 0.0
    a, b = a[box], b[box]
    if not (a.any() and b.any()):
        return float(penalty)
    ba, bb = boundary(a), boundary(b)
    d_ab = percentile(np.sqrt(_edt_sq_at(bb, ba, spacing)), 95)
    d_ba = percentile(np.sqrt(_edt_sq_at(ba, bb, spacing)), 95)
    return max(d_ab, d_ba)


def score_codes(codes: np.ndarray, spacing, case_id: str,
                penalty: float = EMPTY_PENALTY_MM) -> CaseMetrics:
    """DSC and HD95 over ET/TC/WT of a pair's two-model joint codes (the
    prediction as model 0, ``fusion.pack_labels``), a 3-D array on a grid
    of ``spacing``: each region's two masks are one gather each from
    ``_IN_REGION``."""
    dsc, hd = {}, {}
    for r in Region:
        in_pred, in_gt = _IN_REGION[r]
        pm, gm = in_pred[codes], in_gt[codes]
        dsc[r.value] = dice(pm, gm)
        hd[r.value] = hd95(pm, gm, spacing, penalty)
    return CaseMetrics(case_id, dsc, hd)


def evaluate_case(
    pred: LabelMap,
    gt: LabelMap,
    case_id: str,
    penalty: float = EMPTY_PENALTY_MM,
) -> CaseMetrics:
    """DSC and HD95 over ET/TC/WT of two label maps of one geometry: their
    joint codes, cropped to the box of the nonzero codes (one background
    voxel if there is none), scored by :func:`score_codes`. The codes take
    the prediction's memory order (a loaded map's is x-fastest), so its
    labels are packed without a copy."""
    require_same_geometry(pred, gt)
    order = "F" if pred.data.flags.f_contiguous else "C"
    codes = joint_codes(2, pred.data.size)
    for rater, m in enumerate((pred, gt)):
        pack_labels(codes, rater, m.data.ravel(order))
    codes = codes.reshape(pred.shape, order=order)
    box = nonzero_box(codes) or (slice(0, 1),) * 3
    return score_codes(codes[box], pred.spacing, case_id, penalty)


def metrics_csv_header() -> list[str]:
    return ["case_id", "DSC_ET", "DSC_TC", "DSC_WT", "HD95_ET", "HD95_TC", "HD95_WT"]


def metrics_csv_row(c: CaseMetrics) -> list[str]:
    vals = [c.dsc[r] for r in REGION_ORDER] + [c.hd95[r] for r in REGION_ORDER]
    return [c.case_id] + [repr(float(v)) for v in vals]
