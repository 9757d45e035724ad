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
by its voxel count in the M-step sums, and the posterior is scattered back to
the voxels at the end. Memory is O(N) small integers (each voxel's pattern
index) instead of a J x N float matrix, and an iteration costs O(J K).

Iteration stops when the posterior changes by less than ``tol`` in max-norm
(over the present patterns, which is the max over voxels) or after
``max_iters`` update cycles. The returned parameters are the (clamped)
M-step of the returned posterior, so they satisfy the fixed-point identities
exactly.

Multi-label fusion runs binary STAPLE per nested region (ET, TC, WT) and
recomposes the label map, with the nesting rules of ``recompose_labels``.
A voxel enters every region's EM only through its J rater labels, so one
pass packs each rater's label index (2 bits) into a joint code per voxel
and counts the codes once. Each joint code implies one decision pattern per
region, so a region's pattern counts are sums of joint counts, and EM runs
on them exactly as above. Thresholding each region's posterior and
recomposing once per joint code gives a label lookup table, and the fused
map is the table read at every voxel's code. The result equals per-region
``staple_binary`` plus ``recompose_labels`` without a per-voxel mask,
posterior or recomposition. Up to 8 raters the 4^J codes are counted
directly; beyond that the joint rows that occur are found by sorting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyList, GeometryMismatch
from .regions import Region, RegionMask, recompose_labels, region_mask
from .volume import BRATS_LABELS, LabelMap, ProbMap, require_same_geometry

__all__ = [
    "StapleParams",
    "StapleFit",
    "StapleResult",
    "average_probs",
    "argmax_labels",
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
# Up to this many raters a voxel's decisions fit a uint16 code and np.bincount
# counts all 2^J codes; beyond it the patterns are found by sorting.
BINCOUNT_MAX_RATERS = 16


def average_probs(maps: list[ProbMap]) -> ProbMap:
    """Voxelwise, channelwise arithmetic mean of probability maps."""
    if not maps:
        raise EmptyList("average_probs needs at least one probability map")
    require_same_geometry(*maps)
    acc = np.zeros_like(maps[0].data, dtype=np.float64)  # same memory layout
    for m in maps:  # fixed input order: deterministic, reproducible sums
        acc += m.data
    acc /= len(maps)
    np.clip(acc, 0.0, 1.0, out=acc)
    return ProbMap(acc, maps[0].spacing, maps[0].origin)


def argmax_labels(p: ProbMap) -> LabelMap:
    """Most probable class per voxel; ties break toward the later channel.

    Channel order is (0, 1, 2, 4), so a tie prefers tumor over background.
    """
    rev = p.data[::-1]
    idx = len(p.channels) - 1 - np.argmax(rev, axis=0)
    labels = np.array(p.channels, dtype=np.uint8)[idx]
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
    """Per-rater sensitivity/specificity plus the EM control knobs."""

    p: tuple[float, ...]
    q: tuple[float, ...]
    prior: float
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if len(self.p) != len(self.q):
            raise ValueError("p and q must have one entry per rater")
        for val in (*self.p, *self.q, self.prior):
            if not 0.0 < val < 1.0:
                raise ValueError(f"probabilities must lie strictly in (0,1), got {val}")
        if self.max_iters < 1 or self.tol <= 0:
            raise ValueError("max_iters must be >= 1 and tol > 0")


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


def default_staple_params(
    n_raters: int,
    prior: float,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> StapleParams:
    """Near-perfect rater prior: p = q = 0.99999 for every rater."""
    pq = (DEFAULT_INIT_PQ,) * n_raters
    return StapleParams(pq, pq, float(_clamp(np.asarray(prior))), max_iters, tol)


def _decision_patterns(bits: list[np.ndarray], weights: np.ndarray | None = None):
    """The distinct rater-decision columns of ``bits`` and each column's index.

    ``bits`` holds one 0/1 uint8 array of M columns per rater. Returns
    ``(pats, counts, inverse)``: the K patterns that occur as a (J, K) 0/1
    float matrix, the number of columns with each pattern (the sum of their
    ``weights`` if given, leaving out patterns of weight 0), and every
    column's pattern index, so that ``pats[:, inverse]`` is the (J, M)
    decision matrix wherever the weight is positive.
    """
    j = len(bits)
    if j <= BINCOUNT_MAX_RATERS:
        # Rater r is bit r of a column's code; count all 2^J codes at once.
        codes = np.zeros(bits[0].size, dtype=np.uint16)
        for r, b in enumerate(bits):
            codes |= b.astype(np.uint16) << r
        counts = np.bincount(codes, weights, minlength=1 << j)
        present = np.flatnonzero(counts)
        remap = np.zeros(1 << j, dtype=np.uint16)
        remap[present] = np.arange(present.size)
        pats = (present >> np.arange(j)[:, None]) & 1
        return pats.astype(np.float64), counts[present], remap[codes]
    # Too many codes to count directly: sort the columns' packed decision rows.
    packed = np.zeros((bits[0].size, (j + 7) // 8), dtype=np.uint8)
    for r, b in enumerate(bits):
        packed[:, r // 8] |= b << (7 - r % 8)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    uniq, inverse, counts = np.unique(rows, return_inverse=True, return_counts=True)
    if weights is not None:
        # Every column passed with weights has a positive weight: see
        # _joint_rows, whose rows all occur once J is this large.
        counts = np.bincount(inverse, weights, minlength=uniq.size)
    pats = np.unpackbits(uniq.view(np.uint8).reshape(uniq.size, -1), axis=1, count=j)
    return pats.T.astype(np.float64), counts, inverse


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
    the default parameters with ``tol`` and ``max_iters``, and the prior set
    to the foreground rate over all J raters and ``n_voxels`` voxels.
    """
    j = pats.shape[0]
    if init is None:
        # An integer count over J * N: exactly the mean of the 0/1 decisions.
        foreground = int((pats @ counts).sum())
        init = default_staple_params(
            j, prior=foreground / (j * n_voxels), max_iters=max_iters, tol=tol
        )
    elif len(init.p) != j:
        raise ValueError(f"init has {len(init.p)} raters, got {j}")
    p = np.asarray(init.p, dtype=np.float64)
    q = np.asarray(init.q, dtype=np.float64)
    prior = float(init.prior)

    w = _e_step(pats, p, q, prior)
    iterations = 0
    converged = False
    while iterations < init.max_iters:
        p, q = _m_step(pats, counts, w, p, q)
        w_new = _e_step(pats, p, q, prior)
        iterations += 1
        delta = np.abs(w_new - w).max()
        w = w_new
        if delta < init.tol:
            converged = True
            break
    # Re-estimate from the final posterior so the returned parameters are the
    # exact M-step fixed point of the returned W.
    p, q = _m_step(pats, counts, w, p, q)
    final = StapleParams(
        tuple(float(x) for x in p),
        tuple(float(x) for x in q),
        prior,
        init.max_iters,
        init.tol,
    )
    return w, StapleFit(final, iterations, converged)


def staple_binary(
    masks: list[RegionMask],
    init: StapleParams | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> StapleResult:
    """Fuse binary rater masks by expectation-maximization.

    When ``init`` is None the default parameters are used (``tol`` and
    ``max_iters`` then apply), with the foreground prior set to the global
    mean foreground rate over all raters and voxels (clamped into (0,1)).
    The output mask thresholds the posterior at W >= 0.5 (ties go to
    foreground).
    """
    if not masks:
        raise EmptyList("staple_binary needs at least one rater mask")
    require_same_geometry(*masks)
    region = masks[0].region
    for m in masks[1:]:
        if m.region is not region:
            raise GeometryMismatch("rater masks disagree on the region tag")
    bits = [m.data.reshape(-1).view(np.uint8) for m in masks]
    pats, counts, inverse = _decision_patterns(bits)
    w, fit = _staple_em(pats, counts, inverse.size, init, tol, max_iters)
    posterior = w[inverse].reshape(masks[0].shape)
    mask = RegionMask(region, posterior >= 0.5, masks[0].spacing, masks[0].origin)
    return StapleResult(fit.final_params, fit.iterations, fit.converged, mask, posterior)


# A voxel's joint code packs each rater's 2-bit label index into a uint16 up
# to this many raters, and np.bincount counts all 4^J codes; beyond it the
# joint rows are found by sorting.
JOINT_BINCOUNT_MAX_RATERS = 8
# Voxels encoded, counted and decoded per step: np.bincount and fancy
# indexing copy their uint16 codes to intp, which bounds that copy.
CHUNK_VOXELS = 1 << 20

# Region membership of each label index (the position in BRATS_LABELS), read
# off region_mask so the region semantics live only in ``regions``.
_MEMBERSHIP = {
    r: region_mask(
        LabelMap(np.array(BRATS_LABELS, dtype=np.uint8).reshape(-1, 1, 1)), r
    ).data.reshape(-1).view(np.uint8)
    for r in (Region.ET, Region.TC, Region.WT)
}


def _label_index(labels: np.ndarray) -> np.ndarray:
    """Each label's position in BRATS_LABELS = (0, 1, 2, 4): l - l // 4."""
    return labels - (labels >> 2)


def _joint_rows(flat: list[np.ndarray]):
    """The joint rater-label rows of the voxels and how often each occurs.

    ``flat`` holds every rater's labels as one 1-D uint8 array. Returns
    ``(rows, counts, inverse)``: the M rows as a (J, M) matrix of label
    indices, each row's voxel count, and every voxel's row index. Up to
    JOINT_BINCOUNT_MAX_RATERS raters the rows are all 4^J joint codes (most
    may have count 0) and ``inverse`` is the voxels' codes; beyond it they
    are the rows that occur.
    """
    j = len(flat)
    if j <= JOINT_BINCOUNT_MAX_RATERS:
        codes = np.zeros(flat[0].size, dtype=np.uint16)
        counts = np.zeros(1 << (2 * j), dtype=np.int64)
        for start in range(0, codes.size, CHUNK_VOXELS):
            chunk = slice(start, start + CHUNK_VOXELS)
            for r, labels in enumerate(flat):
                codes[chunk] |= _label_index(labels[chunk]).astype(np.uint16) << (2 * r)
            counts += np.bincount(codes[chunk], minlength=counts.size)
        rows = (np.arange(counts.size) >> (2 * np.arange(j)[:, None])) & 3
        return rows, counts, codes
    # Four raters' label indices per byte; sort the voxels' packed rows.
    packed = np.zeros((flat[0].size, (j + 3) // 4), dtype=np.uint8)
    for r, labels in enumerate(flat):
        packed[:, r // 4] |= _label_index(labels) << (2 * (r % 4))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    uniq = uniq.view(np.uint8).reshape(uniq.size, -1)
    rows = np.stack([(uniq[:, r // 4] >> (2 * (r % 4))) & 3 for r in range(j)])
    return rows, counts, inverse


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
    rows, counts, inverse = _joint_rows([m.data.ravel(order) for m in maps])
    results = {}
    fused = {}
    for r in (Region.ET, Region.TC, Region.WT):
        bits = [_MEMBERSHIP[r][rater_rows] for rater_rows in rows]
        pats, pat_counts, pat_of_row = _decision_patterns(bits, counts)
        w, results[r.value] = _staple_em(pats, pat_counts, inverse.size, init, tol, max_iters)
        row_mask = (w >= 0.5)[pat_of_row].reshape(-1, 1, 1)
        fused[r] = RegionMask(r, row_mask, maps[0].spacing, maps[0].origin)
    lut = recompose_labels(fused[Region.ET], fused[Region.TC], fused[Region.WT])
    lut = lut.data.reshape(-1)
    labels = np.empty(inverse.size, dtype=np.uint8)
    for start in range(0, labels.size, CHUNK_VOXELS):
        chunk = slice(start, start + CHUNK_VOXELS)
        labels[chunk] = lut[inverse[chunk]]
    labels = labels.reshape(first.shape, order=order)
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
