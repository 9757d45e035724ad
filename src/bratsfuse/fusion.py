"""Ensemble combination: softmax averaging, majority vote, and STAPLE.

STAPLE treats each input mask as a rater with unknown sensitivity p and
specificity q, and alternates:

* E-step (log-space, so products over up to 64 raters cannot underflow to
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
recomposes the label map, with the nesting rules of ``recompose_labels``.
A voxel enters every region's EM only through its J rater labels, so the
voxels' joint rater-label rows are counted once. Each joint row implies one
decision pattern per region, so a region's pattern counts are sums of joint
counts, and EM runs on them exactly as above. Thresholding each region's
posterior and recomposing once per joint row gives a label lookup table,
and the fused map is the table read at every voxel. The result equals
per-region ``staple_binary`` plus ``recompose_labels`` without a per-voxel
mask, posterior or recomposition.

All of this counting is one operation, ``_patterns``: each of the J raters
gives a row a digit of ``width`` bits (1 for a decision, 2 for a label's
position in BRATS_LABELS), packed into 16-bit codes. When a row fits one
``CODE_BITS``-bit code, ``np.bincount`` counts every code and the patterns
come out in ascending code order; beyond that, the rows of packed codes are
sorted. The passes over all voxels (mapping labels, encoding, counting and
the final gather) run ``CHUNK_VOXELS`` voxels at a time.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import EmptyList, GeometryMismatch
from .regions import Region, RegionMask, recompose_labels, region_mask
from .volume import (
    BRATS_LABELS,
    PROB_CHANNELS,
    LabelMap,
    ProbMap,
    require_same_geometry,
)

__all__ = [
    "StapleParams",
    "StapleFit",
    "StapleResult",
    "average_probs",
    "average_probs_into",
    "argmax_labels",
    "argmax_labels_into",
    "majority_vote",
    "staple_binary",
    "staple_multilabel",
    "staple_multilabel_detailed",
    "default_staple_params",
]

PARAM_CLAMP = 1e-7
DEFAULT_INIT_PQ = 0.99999
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 100
# A row of J digits of ``width`` bits fits one uint16 code while width * J is
# at most this, and np.bincount counts all 2^(width J) codes; beyond it the
# rows are sorted.
CODE_BITS = 16
# Voxels mapped, encoded, counted and gathered per step: np.bincount and
# fancy indexing copy their uint16 codes to intp, which bounds that copy.
CHUNK_VOXELS = 1 << 20


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
    0, in ``PROB_CHANNELS`` order) into the uint8 ``out``, which is returned.

    A tie goes to the later channel: each channel in turn takes the voxels
    where it is ``>=`` the best so far. ``best`` (float64, shaped like
    ``out``) is scratch.
    """
    np.copyto(best, p[0])
    out[...] = PROB_CHANNELS[0]
    for c in range(1, len(PROB_CHANNELS)):
        np.copyto(out, PROB_CHANNELS[c], where=p[c] >= best)
        np.maximum(best, p[c], out=best)
    return out


def argmax_labels(p: ProbMap) -> LabelMap:
    """Most probable class per voxel; ties break toward the later channel.

    Channel order is (0, 1, 2, 4), so a tie prefers tumor over background.
    """
    labels = argmax_labels_into(p.data, np.empty(p.shape, np.uint8), np.empty(p.shape))
    return LabelMap(labels, p.spacing, p.origin)


def majority_vote(maps: list[LabelMap]) -> LabelMap:
    """Most frequent label per voxel; ties break by priority 4 > 1 > 2 > 0."""
    if not maps:
        raise EmptyList("majority_vote needs at least one label map")
    require_same_geometry(*maps)
    priority = (4, 1, 2, 0)
    counts = np.stack(
        [sum((m.data == lbl).astype(np.int32) for m in maps) for lbl in priority]
    )
    winner = np.argmax(counts, axis=0)  # first max in priority order
    labels = np.array(priority, dtype=np.uint8)[winner]
    return LabelMap(labels, maps[0].spacing, maps[0].origin)


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


def _label_index(labels: np.ndarray) -> np.ndarray:
    """Each label's position in BRATS_LABELS = (0, 1, 2, 4): l - l // 4."""
    return labels - (labels >> 2)


def _patterns(cols: list[np.ndarray], width: int, weights: np.ndarray | None = None):
    """The distinct rows of the J columns ``cols`` and how often each occurs.

    ``cols`` holds one 1-D array of M digits per rater: 0/1 decisions for
    ``width`` 1, BraTS labels (counted as their position in BRATS_LABELS)
    for ``width`` 2. Returns ``(pats, counts, index, codes)``: the K rows
    that occur as a (J, K) matrix of digits, the number of rows equal to
    each (the sum of their ``weights`` if given, which must be positive),
    and every row's code with the table ``index`` from codes to patterns,
    so that ``pats[:, index[codes]]`` is the (J, M) matrix of ``cols``.
    """
    j, m = len(cols), cols[0].size
    per_word = CODE_BITS // width
    words = np.zeros((m, -(-j // per_word)), dtype=np.uint16)
    counted = words.shape[1] == 1
    if counted:
        counts = np.zeros(1 << (width * j), np.int64 if weights is None else np.float64)
    for start in range(0, m, CHUNK_VOXELS):
        chunk = slice(start, start + CHUNK_VOXELS)
        for r, col in enumerate(cols):
            digits = _label_index(col[chunk]) if width == 2 else col[chunk]
            shift = width * (r % per_word)
            words[chunk, r // per_word] |= digits.astype(np.uint16) << shift
        if counted:
            w = None if weights is None else weights[chunk]
            counts += np.bincount(words[chunk, 0], w, minlength=counts.size)
    if counted:
        codes = words[:, 0]
        present = np.flatnonzero(counts)
        index = np.zeros(counts.size, dtype=np.uint16)
        index[present] = np.arange(present.size)
        keys, counts = present[:, None], counts[present]
    else:
        # Too many codes to count directly: sort the rows of packed codes.
        rows = words.view(np.dtype((np.void, words.itemsize * words.shape[1])))
        uniq, codes, counts = np.unique(
            rows.reshape(-1), return_inverse=True, return_counts=True
        )
        if weights is not None:
            counts = np.bincount(codes, weights, minlength=uniq.size)
        index = np.arange(uniq.size)
        keys = uniq.view(np.uint16).reshape(uniq.size, -1)
    r = np.arange(j)
    pats = (keys.T[r // per_word] >> (width * (r % per_word))[:, None]) & ((1 << width) - 1)
    return pats, counts, index, codes


def _gather(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``table[codes]``, read ``CHUNK_VOXELS`` codes at a time."""
    out = np.empty(codes.size, dtype=table.dtype)
    for start in range(0, codes.size, CHUNK_VOXELS):
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
    if not (tol > 0 and max_iters >= 1):
        raise ValueError(f"STAPLE needs tol > 0 and max_iters >= 1, got {tol}, {max_iters}")
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
    posterior at W >= 0.5 (ties go to foreground).
    """
    if not masks:
        raise EmptyList("staple_binary needs at least one rater mask")
    require_same_geometry(*masks)
    region = masks[0].region
    for m in masks[1:]:
        if m.region is not region:
            raise GeometryMismatch("rater masks disagree on the region tag")
    bits = [m.data.reshape(-1).view(np.uint8) for m in masks]
    pats, counts, index, codes = _patterns(bits, 1)
    w, fit = _staple_em(pats, counts, codes.size, init, tol, max_iters)
    posterior = _gather(w[index], codes).reshape(masks[0].shape)
    mask = RegionMask(region, posterior >= 0.5, masks[0].spacing, masks[0].origin)
    return StapleResult(fit.final_params, fit.iterations, fit.converged, mask, posterior)


# Region membership of each label index (the position in BRATS_LABELS), read
# off region_mask so the region semantics live only in ``regions``.
_MEMBERSHIP = {
    r: region_mask(
        LabelMap(np.array(BRATS_LABELS, dtype=np.uint8).reshape(-1, 1, 1)), r
    ).data.reshape(-1).view(np.uint8)
    for r in (Region.ET, Region.TC, Region.WT)
}


def staple_multilabel_detailed(
    maps: list[LabelMap],
    init: StapleParams | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[LabelMap, dict[str, StapleFit]]:
    """Binary STAPLE per region (ET, TC, WT), recomposed into one label map.

    Gives the labels and fits of ``staple_binary`` on every region's rater
    masks followed by ``recompose_labels``, from one histogram of the
    voxels' joint rater labels (see the module docstring). Returns the
    labels, in the first map's memory order, and each region's fit.
    """
    if not maps:
        raise EmptyList("staple_multilabel needs at least one rater map")
    require_same_geometry(*maps)
    first = maps[0].data
    order = "F" if first.flags.f_contiguous and not first.flags.c_contiguous else "C"
    rows, counts, index, codes = _patterns([m.data.ravel(order) for m in maps], 2)
    results = {}
    fused = {}
    for r in (Region.ET, Region.TC, Region.WT):
        bits = [_MEMBERSHIP[r][rater_rows] for rater_rows in rows]
        pats, pat_counts, pat_index, pat_of_row = _patterns(bits, 1, counts)
        w, results[r.value] = _staple_em(pats, pat_counts, codes.size, init, tol, max_iters)
        row_mask = (w >= 0.5)[pat_index[pat_of_row]].reshape(-1, 1, 1)
        fused[r] = RegionMask(r, row_mask, maps[0].spacing, maps[0].origin)
    lut = recompose_labels(fused[Region.ET], fused[Region.TC], fused[Region.WT])
    labels = _gather(lut.data.reshape(-1)[index], codes).reshape(first.shape, order=order)
    return LabelMap(labels, maps[0].spacing, maps[0].origin), results


def staple_multilabel(
    maps: list[LabelMap],
    init: StapleParams | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> LabelMap:
    """Fuse rater label maps region by region (ET, TC, WT) with STAPLE."""
    labels, _ = staple_multilabel_detailed(maps, init, tol=tol, max_iters=max_iters)
    return labels
