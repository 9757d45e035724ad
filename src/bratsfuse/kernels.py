"""Hot numeric kernels, each in a numba and a pure-numpy flavour.

Three loop-dominated kernels live here:

* ``edt_sq`` — exact squared Euclidean distance transform with anisotropic
  voxel spacing (separable parabolic min-convolution).
* ``label_components`` — connected-component labeling under 6- or
  26-connectivity with deterministic raster-order ids.
* ``resample_trilinear`` / ``resample_nearest`` — inverse-mapped resampling
  with zero fill outside the volume.

The ``*_numba`` flavours are ``@njit``-compiled loops; the ``*_numpy``
flavours are vectorized numpy. Public names are bound at import time to the
numba flavour when numba (the optional ``accel`` extra) imports, unless
``BRATSFUSE_DISABLE_NUMBA`` selects the fallback (see ``bratsfuse._accel``).
Both flavours of each kernel produce identical arrays.
``edt_sq`` sees box-sized arrays: ``metrics.hd95`` crops both masks to the
bounding box of their union first, so on BraTS-like cases the all-pairs
numpy pass runs on the tumour's box rather than the whole head.
``python3 benchmarks/run.py --workload eval-batch --trace 1`` reports the time
and voxels spent in the distance transform (``metrics.edt.*``).
"""

from __future__ import annotations

import numpy as np

from ._accel import NUMBA_ENABLED, njit

__all__ = [
    "edt_sq",
    "edt_sq_numba",
    "edt_sq_numpy",
    "label_components",
    "label_components_numba",
    "label_components_numpy",
    "resample_trilinear",
    "resample_trilinear_numba",
    "resample_trilinear_numpy",
    "resample_nearest",
    "resample_nearest_numba",
    "resample_nearest_numpy",
    "neighbor_offsets",
]


# ---------------------------------------------------------------------------
# Exact squared Euclidean distance transform
# ---------------------------------------------------------------------------

@njit(cache=True)
def _edt_sq_pass_numba(lines, step):
    """One separable pass along the last axis of ``lines`` (m, n), in place.

    Lower-envelope-of-parabolas algorithm; +inf entries (no source yet) are
    skipped when building the envelope.
    """
    m, n = lines.shape
    f = np.empty(n, np.float64)
    v = np.empty(n, np.int64)
    z = np.empty(n + 1, np.float64)
    for row in range(m):
        for i in range(n):
            f[i] = lines[row, i]
        k = -1
        for q in range(n):
            fq = f[q]
            if fq == np.inf:
                continue
            xq = step * q
            while True:
                if k < 0:
                    k = 0
                    v[0] = q
                    z[0] = -np.inf
                    z[1] = np.inf
                    break
                p = v[k]
                xp = step * p
                s = ((fq + xq * xq) - (f[p] + xp * xp)) / (2.0 * (xq - xp))
                if s <= z[k]:
                    k -= 1
                else:
                    k += 1
                    v[k] = q
                    z[k] = s
                    z[k + 1] = np.inf
                    break
        if k < 0:
            continue  # no sources anywhere on this line
        j = 0
        for q in range(n):
            xq = step * q
            while z[j + 1] < xq:
                j += 1
            p = v[j]
            xp = step * p
            d = xq - xp
            lines[row, q] = f[p] + d * d


def edt_sq_numba(source: np.ndarray, spacing) -> np.ndarray:
    """Squared EDT of a boolean source mask, numba flavour. Units: mm^2."""
    g = np.where(source, 0.0, np.inf)
    for axis in range(3):
        if g.shape[axis] == 1:
            continue
        moved = np.ascontiguousarray(np.moveaxis(g, axis, 2))
        shp = moved.shape
        _edt_sq_pass_numba(moved.reshape(-1, shp[2]), float(spacing[axis]))
        g = np.moveaxis(moved, 2, axis)
    return np.ascontiguousarray(g)


def edt_sq_numpy(source: np.ndarray, spacing) -> np.ndarray:
    """Squared EDT, vectorized numpy flavour.

    Same separable decomposition as the numba flavour, but each 1-D
    min-convolution is an explicit all-pairs minimum (O(n^2) per line instead
    of O(n)), evaluated in memory-bounded chunks.
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


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------

def neighbor_offsets(connectivity: int) -> np.ndarray:
    """Neighbor offset table for 6- (faces) or 26- (full cube) connectivity."""
    if connectivity == 6:
        offs = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
    elif connectivity == 26:
        offs = [
            (dx, dy, dz)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dz in (-1, 0, 1)
            if (dx, dy, dz) != (0, 0, 0)
        ]
    else:
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    return np.array(offs, dtype=np.int64)


@njit(cache=True)
def _label_flood_numba(mask, offsets):
    nx, ny, nz = mask.shape
    labels = np.zeros((nx, ny, nz), np.int32)
    stack = np.empty(mask.size, np.int64)
    current = 0
    # Raster scan: x fastest, matching the linear data order of the volumes.
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[x, y, z] or labels[x, y, z] != 0:
                    continue
                current += 1
                labels[x, y, z] = current
                top = 0
                stack[0] = x + nx * (y + ny * z)
                while top >= 0:
                    idx = stack[top]
                    top -= 1
                    cx = idx % nx
                    rest = idx // nx
                    cy = rest % ny
                    cz = rest // ny
                    for o in range(offsets.shape[0]):
                        ax = cx + offsets[o, 0]
                        ay = cy + offsets[o, 1]
                        az = cz + offsets[o, 2]
                        if 0 <= ax < nx and 0 <= ay < ny and 0 <= az < nz:
                            if mask[ax, ay, az] and labels[ax, ay, az] == 0:
                                labels[ax, ay, az] = current
                                top += 1
                                stack[top] = ax + nx * (ay + ny * az)
    return labels, current


def label_components_numba(mask: np.ndarray, connectivity: int = 26):
    """Label components by flood fill; ids 1..K in raster order of first voxel."""
    mask = np.ascontiguousarray(mask, dtype=np.bool_)
    labels, count = _label_flood_numba(mask, neighbor_offsets(connectivity))
    return labels, int(count)


def _shift_fill(arr: np.ndarray, offset, fill):
    """Array shifted by ``offset`` (values move by +offset), edges filled."""
    out = np.full_like(arr, fill)
    src = []
    dst = []
    for d, n in zip(offset, arr.shape):
        if d >= 0:
            src.append(slice(0, n - d))
            dst.append(slice(d, n))
        else:
            src.append(slice(-d, n))
            dst.append(slice(0, n + d))
        if d >= n or -d >= n:
            return out
    out[tuple(dst)] = arr[tuple(src)]
    return out


def label_components_numpy(mask: np.ndarray, connectivity: int = 26):
    """Label components via iterated min-propagation with pointer jumping.

    Every foreground voxel starts labeled with its own raster index; labels
    contract to each component's minimum raster index, which is exactly the
    component's first voxel in raster order, so ids match the numba flavour.
    """
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = mask.shape
    raster = np.arange(mask.size, dtype=np.int64).reshape((nx, ny, nz), order="F")
    lab = np.where(mask, raster, np.int64(-1))
    offsets = neighbor_offsets(connectivity)
    while True:
        cur = lab.copy()
        for off in offsets:
            nb = _shift_fill(lab, tuple(off), np.int64(-1))
            better = mask & (nb >= 0) & ((cur < 0) | (nb < cur))
            cur[better] = nb[better]
        # Path compression: follow labels to their current representative.
        while True:
            flat = cur.ravel(order="F")
            jumped = np.where(mask, flat[np.where(cur >= 0, cur, 0)], np.int64(-1))
            if np.array_equal(jumped, cur):
                break
            cur = jumped
        if np.array_equal(cur, lab):
            break
        lab = cur
    reps = np.unique(lab[mask]) if mask.any() else np.empty(0, dtype=np.int64)
    labels = np.zeros(mask.shape, dtype=np.int32)
    if reps.size:
        labels[mask] = (np.searchsorted(reps, lab[mask]) + 1).astype(np.int32)
    return labels, int(reps.size)


# ---------------------------------------------------------------------------
# Resampling (inverse-mapped, zero fill)
# ---------------------------------------------------------------------------

@njit(cache=True)
def _resample_trilinear_numba(vol, inv, cx, cy, cz):
    nx, ny, nz = vol.shape
    out = np.zeros((nx, ny, nz), np.float64)
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                dx = i - cx
                dy = j - cy
                dz = k - cz
                sx = inv[0, 0] * dx + inv[0, 1] * dy + inv[0, 2] * dz + cx
                sy = inv[1, 0] * dx + inv[1, 1] * dy + inv[1, 2] * dz + cy
                sz = inv[2, 0] * dx + inv[2, 1] * dy + inv[2, 2] * dz + cz
                x0 = int(np.floor(sx))
                y0 = int(np.floor(sy))
                z0 = int(np.floor(sz))
                fx = sx - x0
                fy = sy - y0
                fz = sz - z0
                acc = 0.0
                for a in range(2):
                    xa = x0 + a
                    if xa < 0 or xa >= nx:
                        continue
                    wx = fx if a == 1 else 1.0 - fx
                    for b in range(2):
                        yb = y0 + b
                        if yb < 0 or yb >= ny:
                            continue
                        wy = fy if b == 1 else 1.0 - fy
                        for c in range(2):
                            zc = z0 + c
                            if zc < 0 or zc >= nz:
                                continue
                            wz = fz if c == 1 else 1.0 - fz
                            w = wx * wy
                            w = w * wz
                            acc += w * vol[xa, yb, zc]
                out[i, j, k] = acc
    return out


def resample_trilinear_numba(vol: np.ndarray, inv: np.ndarray, center) -> np.ndarray:
    vol = np.ascontiguousarray(vol, dtype=np.float64)
    inv = np.ascontiguousarray(inv, dtype=np.float64)
    cx, cy, cz = (float(c) for c in center)
    return _resample_trilinear_numba(vol, inv, cx, cy, cz)


def _source_coords(shape, inv, center):
    nx, ny, nz = shape
    ii, jj, kk = np.meshgrid(
        np.arange(nx, dtype=np.float64),
        np.arange(ny, dtype=np.float64),
        np.arange(nz, dtype=np.float64),
        indexing="ij",
    )
    cx, cy, cz = (float(c) for c in center)
    dx = ii - cx
    dy = jj - cy
    dz = kk - cz
    sx = inv[0, 0] * dx + inv[0, 1] * dy + inv[0, 2] * dz + cx
    sy = inv[1, 0] * dx + inv[1, 1] * dy + inv[1, 2] * dz + cy
    sz = inv[2, 0] * dx + inv[2, 1] * dy + inv[2, 2] * dz + cz
    return sx, sy, sz


def resample_trilinear_numpy(vol: np.ndarray, inv: np.ndarray, center) -> np.ndarray:
    vol = np.asarray(vol, dtype=np.float64)
    inv = np.asarray(inv, dtype=np.float64)
    nx, ny, nz = vol.shape
    sx, sy, sz = _source_coords(vol.shape, inv, center)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    z0 = np.floor(sz).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    fz = sz - z0
    acc = np.zeros(vol.shape, np.float64)
    # Same corner order and weight association as the numba flavour so that
    # both produce bit-identical sums.
    for a in (0, 1):
        xa = x0 + a
        vx = (xa >= 0) & (xa < nx)
        wx = fx if a == 1 else 1.0 - fx
        for b in (0, 1):
            yb = y0 + b
            vy = (yb >= 0) & (yb < ny)
            wy = fy if b == 1 else 1.0 - fy
            for c in (0, 1):
                zc = z0 + c
                valid = vx & vy & (zc >= 0) & (zc < nz)
                wz = fz if c == 1 else 1.0 - fz
                val = vol[xa.clip(0, nx - 1), yb.clip(0, ny - 1), zc.clip(0, nz - 1)]
                w = wx * wy
                w = w * wz
                acc += np.where(valid, w * val, 0.0)
    return acc


@njit(cache=True)
def _resample_nearest_numba(vol, inv, cx, cy, cz):
    nx, ny, nz = vol.shape
    out = np.zeros((nx, ny, nz), vol.dtype)
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                dx = i - cx
                dy = j - cy
                dz = k - cz
                sx = inv[0, 0] * dx + inv[0, 1] * dy + inv[0, 2] * dz + cx
                sy = inv[1, 0] * dx + inv[1, 1] * dy + inv[1, 2] * dz + cy
                sz = inv[2, 0] * dx + inv[2, 1] * dy + inv[2, 2] * dz + cz
                xi = int(np.floor(sx + 0.5))
                yi = int(np.floor(sy + 0.5))
                zi = int(np.floor(sz + 0.5))
                if 0 <= xi < nx and 0 <= yi < ny and 0 <= zi < nz:
                    out[i, j, k] = vol[xi, yi, zi]
    return out


def resample_nearest_numba(vol: np.ndarray, inv: np.ndarray, center) -> np.ndarray:
    vol = np.ascontiguousarray(vol)
    inv = np.ascontiguousarray(inv, dtype=np.float64)
    cx, cy, cz = (float(c) for c in center)
    return _resample_nearest_numba(vol, inv, cx, cy, cz)


def resample_nearest_numpy(vol: np.ndarray, inv: np.ndarray, center) -> np.ndarray:
    vol = np.asarray(vol)
    inv = np.asarray(inv, dtype=np.float64)
    nx, ny, nz = vol.shape
    sx, sy, sz = _source_coords(vol.shape, inv, center)
    # Half-up rounding, identical to the numba flavour.
    xi = np.floor(sx + 0.5).astype(np.int64)
    yi = np.floor(sy + 0.5).astype(np.int64)
    zi = np.floor(sz + 0.5).astype(np.int64)
    valid = (xi >= 0) & (xi < nx) & (yi >= 0) & (yi < ny) & (zi >= 0) & (zi < nz)
    out = np.zeros(vol.shape, vol.dtype)
    out[valid] = vol[xi[valid], yi[valid], zi[valid]]
    return out


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:
    edt_sq = edt_sq_numba
    label_components = label_components_numba
    resample_trilinear = resample_trilinear_numba
    resample_nearest = resample_nearest_numba
else:
    edt_sq = edt_sq_numpy
    label_components = label_components_numpy
    resample_trilinear = resample_trilinear_numpy
    resample_nearest = resample_nearest_numpy
