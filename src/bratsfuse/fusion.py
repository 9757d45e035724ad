"""Ensemble combination: softmax averaging and STAPLE.

STAPLE treats each input mask as a rater with unknown sensitivity p and
specificity q, and alternates:

* E-step (log-space, so products over many raters cannot underflow to
  0/0): ``a_i = prior * prod_j p_j^D_ij (1-p_j)^(1-D_ij)``,
  ``b_i = (1-prior) * prod_j (1-q_j)^D_ij q_j^(1-D_ij)``,
  ``W_i = a_i / (a_i + b_i)``.
* M-step: ``p_j = sum_i W_i D_ij / sum_i W_i``,
  ``q_j = sum_i (1-W_i)(1-D_ij) / sum_i (1-W_i)``, with p and q clamped into
  [1e-7, 1 - 1e-7] to avoid absorbing states.

A voxel enters both steps only through its column of J rater decisions, so
EM runs over the K <= min(2^J, N) decision patterns that occur, each weighted
by its voxel count in the M-step sums, and the posterior is read back at the
voxels at the end. Memory is O(N) small integers (each voxel's pattern code)
instead of a J x N float matrix, and an iteration costs O(J K).

Iteration stops when the posterior changes by less than ``tol`` in max-norm
(over the present patterns, which is the max over voxels) or after
``max_iters`` update cycles. The returned parameters are the (clamped)
M-step of the returned posterior, so they satisfy the fixed-point identities
exactly.

Multi-label fusion runs binary STAPLE per nested region (ET, TC, WT) and
recomposes the label map by the region tables of ``regions``.
A voxel enters every region's EM only through its J rater labels, so it
is reduced to one joint code: each rater's label, as its position in
BRATS_LABELS (``volume._label_index``; ``volume._LABELS`` maps a position
back to its label), in two bits. The codes are counted once
(``joint_histogram``). Each joint row implies one decision pattern per
region, so a region's pattern counts are sums of joint counts, and EM runs
on them exactly as above. Thresholding each region's posterior and
recomposing once per joint row gives a label lookup table (``staple_lut``),
and the fused map is the table read at every voxel's code. The result
equals per-region ``staple_binary`` plus ``recompose_labels`` without a
per-voxel mask, posterior or recomposition. The codes are filled by
``joint_codes`` and ``pack_labels`` (rater ``r``'s label position is
``(code >> 2 * r) & 3``) and counted by ``joint_histogram``, whole
(``staple_multilabel_detailed``) or plane by plane by a caller that
keeps, of each z-plane, only the rectangle of rows and columns outside
which every code is 0 and counts every other voxel as code 0, so it holds
no whole-volume array.

All of this counting is one operation. A row of J raters' digits (a
label's position in BRATS_LABELS, or a 0/1 decision, which is its own
position) is one joint code: two bits per rater, in the smallest unsigned
integer type that holds ``2 * J`` bits (uint8 for three raters' labels,
uint64 for up to 32 raters, the most a code holds). ``joint_histogram``
counts the codes, and its rows always come out in ascending code order:
while ``2 * J`` is at most ``CODE_BITS``, ``np.bincount`` counts every code;
beyond that, the distinct codes are sorted out and a code's row is found by
binary search, so no per-voxel index is stored. STAPLE on masks and on a
region's joint rows packs its decisions the same way. The passes over all
voxels (packing, counting and the final gather) run ``CHUNK_VOXELS``
voxels at a time.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import EmptyList, GeometryMismatch
from .regions import _MEMBERSHIP, Region, RegionMask, compose
from .volume import BRATS_LABELS, LabelMap, ProbMap, _label_index, require_same_geometry

# Not called here, but benchmarks/tracing.py wraps these names on this module.
from .regions import recompose_labels, region_mask  # noqa: F401

__all__ = [
    "StapleParams",
    "StapleFit",
    "StapleResult",
    "average_probs",
    "average_probs_into",
    "argmax_labels",
    "argmax_labels_into",
    "staple_binary",
    "staple_multilabel",
    "staple_multilabel_detailed",
    "staple_lut",
    "joint_codes",
    "MAX_RATERS",
    "pack_labels",
    "joint_histogram",
    "default_staple_params",
]

PARAM_CLAMP = 1e-7
DEFAULT_INIT_PQ = 0.99999
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 100
# np.bincount counts all 4^J joint codes of J raters while 2 * J is at most
# this; beyond it the distinct codes are sorted.
CODE_BITS = 16
# Voxels packed, counted and gathered per step: np.bincount copies
# its codes to intp, which bounds that copy (256 KB).
CHUNK_VOXELS = 1 << 15
_CODE_TYPES = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64))
# The most raters a joint code holds: two bits each in the widest type.
MAX_RATERS = 4 * _CODE_TYPES[-1].itemsize


def average_probs_into(maps: Iterable[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Channelwise mean of one or more ``maps`` into ``out``, clipped to
    [0, 1]; returns ``out``.

    ``out`` is zeroed and each map added in the given order, so the sums are
    deterministic. ``maps`` may be a generator that refills one buffer per
    map. The mean is not checked to be a probability map.
    """
    out[...] = 0.0
    count = 0
    for m in maps:  # fixed input order: deterministic, reproducible sums
        out += m
        count += 1
    out /= count
    np.clip(out, 0.0, 1.0, out=out)
    return out


def average_probs(maps: list[ProbMap]) -> ProbMap:
    """Voxelwise, channelwise arithmetic mean of probability maps."""
    if not maps:
        raise EmptyList("average_probs needs at least one probability map")
    require_same_geometry(*maps)
    acc = np.empty_like(maps[0].data, dtype=np.float64)  # same memory layout
    average_probs_into((m.data for m in maps), acc)
    return ProbMap(acc, maps[0].spacing, maps[0].origin)


def argmax_labels_into(p: np.ndarray, out: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Label of each voxel's most probable channel of ``p`` (channels on axis
    0, in ``BRATS_LABELS`` order) into the uint8 ``out``, which is returned.

    A tie goes to the later channel: each channel in turn takes the voxels
    where it is ``>=`` the best so far. ``best`` (float64, shaped like
    ``out``) is scratch.
    """
    np.copyto(best, p[0])
    out[...] = BRATS_LABELS[0]
    for c in range(1, len(BRATS_LABELS)):
        np.copyto(out, BRATS_LABELS[c], where=p[c] >= best)
        np.maximum(best, p[c], out=best)
    return out


def argmax_labels(p: ProbMap) -> LabelMap:
    """Most probable class per voxel; ties break toward the later channel.

    Channel order is (0, 1, 2, 4), so a tie prefers tumor over background.
    """
    labels = argmax_labels_into(p.data, np.empty(p.shape, np.uint8), np.empty(p.shape))
    return LabelMap(labels, p.spacing, p.origin)


@dataclass(frozen=True)
class StapleParams:
    """Per-rater sensitivity p and specificity q, and the foreground prior."""

    p: tuple[float, ...]
    q: tuple[float, ...]
    prior: float

    def __post_init__(self):
        if len(self.p) != len(self.q):
            raise ValueError("p and q must have one entry per rater")
        for val in (*self.p, *self.q, self.prior):
            if not 0.0 < val < 1.0:
                raise ValueError(f"probabilities must lie strictly in (0,1), got {val}")


@dataclass(frozen=True)
class StapleFit:
    """The outcome of one EM run: final parameters, iterations, convergence.

    ``staple_multilabel_detailed`` returns one per region; it builds no
    per-voxel posterior or mask, since its label map is decided per joint
    rater-label code.
    """

    final_params: StapleParams
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "p": list(self.final_params.p),
            "q": list(self.final_params.q),
            "prior": self.final_params.prior,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class StapleResult(StapleFit):
    """Binary STAPLE: the fit plus the fused mask and the voxel posterior."""

    mask: RegionMask
    posterior: np.ndarray


def _clamp(x: np.ndarray) -> np.ndarray:
    return np.clip(x, PARAM_CLAMP, 1.0 - PARAM_CLAMP)


def default_staple_params(n_raters: int, prior: float) -> StapleParams:
    """Near-perfect rater prior: p = q = 0.99999 for every rater."""
    pq = (DEFAULT_INIT_PQ,) * n_raters
    return StapleParams(pq, pq, float(_clamp(np.asarray(prior))))


class _Index:
    """The row of each joint code, as :func:`joint_histogram` finds the rows.

    ``index[codes]`` gives the entry of ``table`` of each of ``codes``.
    While codes are counted, ``keys`` is None and ``table`` has an entry for
    every possible code; when they are sorted, ``keys`` holds the distinct
    codes in ascending order, ``table`` an entry for each, and a code's
    entry is found by binary search, so no per-voxel index is ever stored.
    """

    def __init__(self, table: np.ndarray, keys: np.ndarray | None = None):
        self.table, self.keys = table, keys

    def __getitem__(self, codes: np.ndarray) -> np.ndarray:
        if self.keys is None:
            return self.table[codes]
        return self.table[np.searchsorted(self.keys, codes)]

    def of(self, values: np.ndarray) -> "_Index":
        """The same lookup giving ``values[row]`` for each code."""
        return _Index(values[self.table], self.keys)


def joint_codes(n_raters: int, n_voxels: int) -> np.ndarray:
    """Zeroed joint label codes of ``n_voxels`` voxels and ``n_raters``
    raters, to be filled by :func:`pack_labels`: one integer per voxel, of
    the smallest unsigned type holding two bits per rater (uint8 for up to
    four raters). Code 0 is every rater saying background. More than 32
    raters is a ValueError."""
    dtype = next((t for t in _CODE_TYPES if 2 * n_raters <= 8 * t.itemsize), None)
    if dtype is None:
        raise ValueError(f"joint codes hold at most {MAX_RATERS} raters, got {n_raters}")
    return np.zeros(n_voxels, dtype)


def pack_labels(codes: np.ndarray, rater: int, labels: np.ndarray) -> None:
    """Store rater ``rater``'s BraTS ``labels`` in its two bits of ``codes``
    (filled :func:`joint_codes` of the same voxels), ``CHUNK_VOXELS`` at a
    time. A 0/1 decision is its own label position, so decisions pack as
    they are."""
    for start in range(0, len(codes), CHUNK_VOXELS):
        chunk = slice(start, start + CHUNK_VOXELS)
        codes[chunk] |= \
            _label_index(labels[chunk]).astype(codes.dtype, copy=False) << 2 * rater


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct ``codes``, ascending: ``np.unique`` without its ``numpy.ma`` import."""
    s = np.sort(codes)
    return np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))


def joint_histogram(pieces: list[np.ndarray], n_raters: int, n_voxels: int,
                    weights: list[np.ndarray] | None = None):
    """The joint rater-label rows of ``n_voxels`` voxels whose nonzero codes
    all lie in ``pieces`` (filled :func:`joint_codes`); every other voxel
    has code 0.

    Returns ``(rows, counts, index)``: the K rows that occur, in ascending
    code order, as a (J, K) matrix of label positions in BRATS_LABELS; the
    number of voxels holding each (the sum of their ``weights``, one array
    per piece, if given; a voxel outside the pieces weighs 1); and
    ``index``, which gives the row of each of some codes as ``index[codes]``.
    Code 0, if any voxel has it, is row 0. Each piece is counted
    ``CHUNK_VOXELS`` codes at a time, and pieces are never joined. While
    ``2 * J`` is at most ``CODE_BITS``, ``index`` is a table over all
    ``4^J`` codes; beyond that the distinct codes are sorted out and
    ``index`` searches them. ``index.of(values)`` looks up ``values[row]``
    the same way.
    """
    zeros = n_voxels - sum(len(codes) for codes in pieces)
    if 2 * n_raters <= CODE_BITS:
        index, size = None, 1 << 2 * n_raters
    else:
        # Too many codes to count directly: sort out the distinct ones.
        found = [_distinct(codes) for codes in pieces]
        keys = _distinct(np.concatenate(found + [joint_codes(n_raters, int(zeros > 0))]))
        index, size = _Index(np.arange(keys.size), keys), keys.size
    counts = np.zeros(size, np.int64 if weights is None else np.float64)
    for k, codes in enumerate(pieces):
        for start in range(0, len(codes), CHUNK_VOXELS):
            chunk = slice(start, start + CHUNK_VOXELS)
            w = None if weights is None else weights[k][chunk]
            counts += np.bincount(codes[chunk] if index is None else index[codes[chunk]],
                                  w, minlength=size)
    counts[0] += zeros
    if index is None:
        keys = np.flatnonzero(counts)
        table = np.zeros(size, dtype=np.uint16)
        table[keys] = np.arange(keys.size)
        index, counts = _Index(table), counts[keys]
    shifts = 2 * np.arange(n_raters, dtype=keys.dtype)
    return (keys >> shifts[:, None]) & 3, counts, index


def _gather(table: _Index, codes: np.ndarray) -> np.ndarray:
    """``table[codes]``, read ``CHUNK_VOXELS`` codes at a time."""
    out = np.empty(len(codes), dtype=table.table.dtype)
    for start in range(0, len(codes), CHUNK_VOXELS):
        chunk = slice(start, start + CHUNK_VOXELS)
        out[chunk] = table[codes[chunk]]
    return out


def _e_step(pats: np.ndarray, p: np.ndarray, q: np.ndarray, prior: float) -> np.ndarray:
    log_a = np.log(prior) + pats.T @ np.log(p) + (1.0 - pats.T) @ np.log1p(-p)
    log_b = np.log1p(-prior) + pats.T @ np.log1p(-q) + (1.0 - pats.T) @ np.log(q)
    # a / (a + b) without exp(log_b - log_a), which overflows for many raters.
    return np.exp(log_a - np.logaddexp(log_a, log_b))


def _m_step(pats, counts, w, p_prev, q_prev):
    cw = counts * w
    cnw = counts * (1.0 - w)
    w_sum = cw.sum()
    not_w_sum = cnw.sum()
    p = (pats @ cw) / w_sum if w_sum > 0 else p_prev
    q = ((1.0 - pats) @ cnw) / not_w_sum if not_w_sum > 0 else q_prev
    return _clamp(p), _clamp(q)


def _staple_em(
    pats: np.ndarray,
    counts: np.ndarray,
    n_voxels: int,
    init: StapleParams | None,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, StapleFit]:
    """EM over the (J, K) decision patterns ``pats`` seen ``counts`` times.

    Returns the posterior of every pattern and the fit. ``init`` None means
    the default parameters, with the prior set to the foreground rate over
    all J raters and ``n_voxels`` voxels.
    """
    if not (0 < tol < np.inf and max_iters >= 1):
        raise ValueError(
            f"STAPLE needs a finite tol > 0 and max_iters >= 1, got {tol}, {max_iters}")
    pats = pats.astype(np.float64)
    j = pats.shape[0]
    if init is None:
        # An integer count over J * N: exactly the mean of the 0/1 decisions.
        foreground = int((pats @ counts).sum())
        init = default_staple_params(j, prior=foreground / (j * n_voxels))
    elif len(init.p) != j:
        raise ValueError(f"init has {len(init.p)} raters, got {j}")
    p = np.asarray(init.p, dtype=np.float64)
    q = np.asarray(init.q, dtype=np.float64)
    prior = float(init.prior)

    w = _e_step(pats, p, q, prior)
    iterations = 0
    converged = False
    while iterations < max_iters:
        p, q = _m_step(pats, counts, w, p, q)
        w_new = _e_step(pats, p, q, prior)
        iterations += 1
        delta = np.abs(w_new - w).max()
        w = w_new
        if delta < tol:
            converged = True
            break
    # Re-estimate from the final posterior so the returned parameters are the
    # exact M-step fixed point of the returned W.
    p, q = _m_step(pats, counts, w, p, q)
    final = StapleParams(tuple(float(x) for x in p), tuple(float(x) for x in q), prior)
    return w, StapleFit(final, iterations, converged)


def staple_binary(
    masks: list[RegionMask],
    init: StapleParams | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> StapleResult:
    """Fuse binary rater masks by expectation-maximization.

    When ``init`` is None the default parameters are used, with the
    foreground prior set to the global mean foreground rate over all raters
    and voxels (clamped into (0,1)). The output mask thresholds the
    posterior at W >= 0.5 (ties go to foreground). More than 32 masks is a
    ValueError (see :func:`joint_codes`).
    """
    if not masks:
        raise EmptyList("staple_binary needs at least one rater mask")
    require_same_geometry(*masks)
    region = masks[0].region
    for m in masks[1:]:
        if m.region is not region:
            raise GeometryMismatch("rater masks disagree on the region tag")
    codes = joint_codes(len(masks), masks[0].data.size)
    for r, m in enumerate(masks):
        pack_labels(codes, r, m.data.reshape(-1).view(np.uint8))
    pats, counts, index = joint_histogram([codes], len(masks), len(codes))
    w, fit = _staple_em(pats, counts, len(codes), init, tol, max_iters)
    posterior = _gather(index.of(w), codes).reshape(masks[0].shape)
    mask = RegionMask(region, posterior >= 0.5, masks[0].spacing, masks[0].origin)
    return StapleResult(fit.final_params, fit.iterations, fit.converged, mask, posterior)


def staple_lut(
    rows: np.ndarray,
    counts: np.ndarray,
    n_voxels: int,
    init: StapleParams | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[np.ndarray, dict[str, StapleFit]]:
    """The fused label of every joint rater-label row, and each region's fit.

    ``rows`` and ``counts`` are what :func:`joint_histogram` returns for
    ``n_voxels`` voxels. Binary STAPLE runs per region (ET, TC, WT) on the
    region patterns the rows imply (``regions._MEMBERSHIP``), weighted by
    ``counts``, and ``regions.compose`` labels each row's three decisions.
    Returns the K labels (uint8, read-only) and the fits keyed by region name.
    """
    fits = {}
    fused = []
    for r in Region:
        # Each row's region decisions, packed and counted as joint codes.
        codes = joint_codes(len(rows), rows.shape[1])
        for rater, rater_rows in enumerate(rows):
            pack_labels(codes, rater, _MEMBERSHIP[r][rater_rows].view(np.uint8))
        pats, pat_counts, pat_index = joint_histogram([codes], len(rows), len(codes),
                                                      weights=[counts])
        w, fits[r.value] = _staple_em(pats, pat_counts, n_voxels, init, tol, max_iters)
        fused.append(pat_index.of(w >= 0.5)[codes])
    return compose(*fused), fits


def staple_multilabel_detailed(
    maps: list[LabelMap],
    init: StapleParams | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[LabelMap, dict[str, StapleFit]]:
    """Binary STAPLE per region (ET, TC, WT), recomposed into one label map.

    Gives the labels and fits of ``staple_binary`` on every region's rater
    masks followed by ``recompose_labels``, from the histogram of the
    voxels' joint rater labels, packed and counted as one piece (see the
    module docstring). Returns the labels, in the first map's memory order,
    and each region's fit.
    """
    if not maps:
        raise EmptyList("staple_multilabel needs at least one rater map")
    require_same_geometry(*maps)
    first = maps[0].data
    order = "F" if first.flags.f_contiguous and not first.flags.c_contiguous else "C"
    codes = joint_codes(len(maps), first.size)
    for r, m in enumerate(maps):
        pack_labels(codes, r, m.data.ravel(order))
    rows, counts, index = joint_histogram([codes], len(maps), first.size)
    lut, fits = staple_lut(rows, counts, first.size, init, tol, max_iters)
    labels = _gather(index.of(lut), codes).reshape(first.shape, order=order)
    return LabelMap(labels, maps[0].spacing, maps[0].origin), fits


def staple_multilabel(
    maps: list[LabelMap],
    init: StapleParams | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> LabelMap:
    """Fuse rater label maps region by region (ET, TC, WT) with STAPLE."""
    labels, _ = staple_multilabel_detailed(maps, init, tol=tol, max_iters=max_iters)
    return labels
