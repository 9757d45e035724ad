"""Independent reference implementations used to check the package.

Everything here is deliberately written the naive way (direct probability
products, all-pairs scans, hand-rolled percentiles) so it shares no code
path with the implementations under test.
"""

from __future__ import annotations

import numpy as np


def staple_em_reference(d, p0, q0, prior, tol, max_iters):
    """Brute-force binary STAPLE EM on a (J, N) 0/1 decision matrix.

    Direct-probability products (no logs), same documented procedure:
    initial E-step from the init parameters, then M/E cycles until the
    posterior max-change drops below tol, a final M re-estimate from the
    returned posterior, parameters clamped into [1e-7, 1 - 1e-7].
    """
    d = np.asarray(d, dtype=np.float64)
    j, n = d.shape
    p = np.array(p0, dtype=np.float64)
    q = np.array(q0, dtype=np.float64)

    def e_step(p, q):
        w = np.empty(n)
        for i in range(n):
            a = prior
            b = 1.0 - prior
            for r in range(j):
                if d[r, i] == 1.0:
                    a *= p[r]
                    b *= 1.0 - q[r]
                else:
                    a *= 1.0 - p[r]
                    b *= q[r]
            w[i] = a / (a + b)
        return w

    def m_step(w, p_prev, q_prev):
        sw = w.sum()
        snw = (1.0 - w).sum()
        p = np.array([(w * d[r]).sum() / sw for r in range(j)]) if sw > 0 else p_prev
        q = (
            np.array([((1.0 - w) * (1.0 - d[r])).sum() / snw for r in range(j)])
            if snw > 0
            else q_prev
        )
        return np.clip(p, 1e-7, 1 - 1e-7), np.clip(q, 1e-7, 1 - 1e-7)

    w = e_step(p, q)
    iterations = 0
    converged = False
    while iterations < max_iters:
        p, q = m_step(w, p, q)
        w_new = e_step(p, q)
        iterations += 1
        delta = np.abs(w_new - w).max()
        w = w_new
        if delta < tol:
            converged = True
            break
    p, q = m_step(w, p, q)
    return w, p, q, iterations, converged


def staple_fuse_reference(raters, tol, max_iters, et_threshold):
    """Reference BraTS fusion of J label arrays ``raters`` of one shape.

    For two or more raters, binary STAPLE by ``staple_em_reference`` per
    region (ET = {4}, TC = {1, 4}, WT = {1, 2, 4}) on every voxel's J
    decisions, from p = q = 0.99999 and the mean decision (clamped) as the
    prior; each posterior thresholded at 0.5; the masks nested by union
    (TC |= ET, WT |= TC) and labelled 4 on ET, 1 on the rest of TC and 2 on
    the rest of WT. One rater passes through. Then every ET voxel becomes 1
    if there are some and fewer than ``et_threshold``.

    Returns the labels and, per region, ``(p, q, prior, iterations,
    converged)`` (None for one rater).
    """
    raters = [np.asarray(r) for r in raters]
    labels, fits = raters[0].astype(np.uint8), None
    if len(raters) > 1:
        fits, masks = {}, {}
        for region, members in (("ET", (4,)), ("TC", (1, 4)), ("WT", (1, 2, 4))):
            d = np.array([np.isin(r, members).ravel() for r in raters], dtype=np.float64)
            prior = float(np.clip(d.mean(), 1e-7, 1 - 1e-7))
            init = [0.99999] * len(raters)
            w, p, q, iters, conv = staple_em_reference(d, init, init, prior, tol, max_iters)
            masks[region] = (w >= 0.5).reshape(raters[0].shape)
            fits[region] = (p, q, prior, iters, conv)
        tc = masks["TC"] | masks["ET"]
        wt = masks["WT"] | tc
        labels = np.where(masks["ET"], 4, np.where(tc, 1, np.where(wt, 2, 0))).astype(np.uint8)
    et = labels == 4
    if 0 < np.count_nonzero(et) < et_threshold:
        labels = np.where(et, 1, labels).astype(np.uint8)
    return labels, fits


def brute_force_edt(mask, spacing):
    """O(N * |S|) nearest-source scan; returns distances in mm."""
    mask = np.asarray(mask, dtype=bool)
    spacing = np.asarray(spacing, dtype=np.float64)
    src = np.argwhere(mask).astype(np.float64) * spacing
    coords = np.argwhere(np.ones(mask.shape, dtype=bool)).astype(np.float64) * spacing
    out = np.empty(coords.shape[0])
    chunk = 2048
    for lo in range(0, coords.shape[0], chunk):
        hi = min(lo + chunk, coords.shape[0])
        diff = coords[lo:hi, None, :] - src[None, :, :]
        out[lo:hi] = np.sqrt((diff**2).sum(axis=2)).min(axis=1)
    return out.reshape(mask.shape)


def boundary_reference(mask):
    """Surface voxels by explicit per-voxel neighbor checks."""
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = mask.shape
    out = np.zeros_like(mask)
    for x, y, z in np.argwhere(mask):
        on_surface = False
        for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            ax, ay, az = x + dx, y + dy, z + dz
            if not (0 <= ax < nx and 0 <= ay < ny and 0 <= az < nz) or not mask[ax, ay, az]:
                on_surface = True
                break
        out[x, y, z] = on_surface
    return out


def percentile_linear(values, pct):
    """Linear interpolation between closest ranks, hand-rolled."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 1:
        return float(v[0])
    rank = (pct / 100.0) * (v.size - 1)
    lo = int(np.floor(rank))
    hi = int(np.ceil(rank))
    frac = rank - lo
    return float(v[lo] + (v[hi] - v[lo]) * frac)


def hd95_all_pairs(mask_a, mask_b, spacing, penalty):
    """All-pairs boundary-distance HD95 oracle."""
    a_empty = not np.any(mask_a)
    b_empty = not np.any(mask_b)
    if a_empty and b_empty:
        return 0.0
    if a_empty or b_empty:
        return float(penalty)
    spacing = np.asarray(spacing, dtype=np.float64)
    pa = np.argwhere(boundary_reference(mask_a)).astype(np.float64) * spacing
    pb = np.argwhere(boundary_reference(mask_b)).astype(np.float64) * spacing
    dmat = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))
    d_ab = percentile_linear(dmat.min(axis=1), 95.0)
    d_ba = percentile_linear(dmat.min(axis=0), 95.0)
    return max(d_ab, d_ba)


def dice_counts(mask_a, mask_b):
    """Voxel-count Dice with python integers."""
    a = int(np.count_nonzero(mask_a))
    b = int(np.count_nonzero(mask_b))
    if a == 0 and b == 0:
        return 1.0
    inter = int(np.count_nonzero(np.logical_and(mask_a, mask_b)))
    return 2.0 * inter / (a + b)
