"""Reference results the benchmark checks the program's outputs against.

Nothing here imports ``bratsfuse``: the NIfTI reader, Dice, HD95 and the
fusion references are written independently, on numpy and
``scipy.ndimage.distance_transform_edt``, so a defect in the program cannot
hide itself by also being in the check.

Conventions follow the paper's evaluation: six-connected boundary voxels,
exact Euclidean distances in mm honouring anisotropic spacing, the 95th
percentile with linear interpolation, symmetric HD95 as the larger directed
value, and for a region empty in exactly one mask DSC 0 and HD95 373.1287 mm.
All distance work happens inside the union bounding box of the two masks
grown by one voxel, which is exact: every boundary source and query lies
inside it.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.special import expit

PENALTY_MM = 373.1287
REGIONS = ("ET", "TC", "WT")
REGION_LABELS = {"ET": (4,), "TC": (1, 4), "WT": (1, 2, 4)}
_NIFTI_DTYPES = {2: np.dtype("<u1"), 4: np.dtype("<i2"), 16: np.dtype("<f4")}

# Largest share of tumour-box voxels on which a fused output may differ from
# the reference fusion: room for floating-point ties, not for a defect.
FUSE_MISMATCH_FRAC = 1e-5
# Largest difference between the eval CSV and the reference scores.
DSC_TOL = 1e-9
HD95_TOL_MM = 1e-6

STAPLE_INIT_PQ = 0.99999
STAPLE_CLAMP = 1e-7


def read_nifti(path, mmap: bool = False) -> tuple[np.ndarray, tuple[float, ...]]:
    """Data (x, y, z) and spacing of an uncompressed little-endian NIfTI-1 file."""
    path = Path(path)
    with open(path, "rb") as fh:
        hdr = fh.read(348)
    if len(hdr) < 348 or struct.unpack_from("<i", hdr, 0)[0] != 348:
        raise ValueError(f"{path}: not a little-endian NIfTI-1 file")
    dim = struct.unpack_from("<8h", hdr, 40)
    shape = tuple(int(n) for n in dim[1:4])
    dtype = _NIFTI_DTYPES[struct.unpack_from("<h", hdr, 70)[0]]
    spacing = tuple(float(s) for s in struct.unpack_from("<3f", hdr, 80))
    offset = int(struct.unpack_from("<f", hdr, 108)[0])
    if mmap:
        data = np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape, order="F")
    else:
        data = np.fromfile(path, dtype=dtype, count=int(np.prod(shape)), offset=offset)
        data = data.reshape(shape, order="F")
    return data, spacing


def region(labels: np.ndarray, name: str) -> np.ndarray:
    return np.isin(labels, REGION_LABELS[name])


def union_box(*masks: np.ndarray, pad: int = 1) -> tuple[slice, ...] | None:
    """Bounding box of every foreground voxel grown by ``pad``, or None."""
    any_fg = np.logical_or.reduce([np.asarray(m, dtype=bool) for m in masks])
    idx = np.argwhere(any_fg)
    if idx.size == 0:
        return None
    lo = np.maximum(idx.min(axis=0) - pad, 0)
    hi = np.minimum(idx.max(axis=0) + 1 + pad, any_fg.shape)
    return tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))


def boundary(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a six-connected background or out-of-grid neighbour."""
    eroded = ndimage.binary_erosion(np.pad(mask, 1), border_value=0)[1:-1, 1:-1, 1:-1]
    return mask & ~eroded


def dice(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    if na == 0 and nb == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a & b)) / (na + nb)


def hd95(a: np.ndarray, b: np.ndarray, spacing, penalty: float = PENALTY_MM) -> float:
    """Symmetric 95th-percentile boundary distance in mm."""
    a_any, b_any = bool(a.any()), bool(b.any())
    if not a_any and not b_any:
        return 0.0
    if not a_any or not b_any:
        return float(penalty)
    box = union_box(a, b)
    ba, bb = boundary(a[box]), boundary(b[box])
    to_b = ndimage.distance_transform_edt(~bb, sampling=spacing)
    to_a = ndimage.distance_transform_edt(~ba, sampling=spacing)
    return max(float(np.percentile(to_b[ba], 95)), float(np.percentile(to_a[bb], 95)))


def scores(pred: np.ndarray, gt: np.ndarray, spacing) -> dict[str, dict[str, float]]:
    """DSC and HD95 of each region, pred against ground truth."""
    out = {"dsc": {}, "hd95": {}}
    box = union_box(pred > 0, gt > 0)
    if box is not None:
        pred, gt = pred[box], gt[box]
    for r in REGIONS:
        pm, gm = region(pred, r), region(gt, r)
        out["dsc"][r] = dice(pm, gm)
        out["hd95"][r] = hd95(pm, gm, spacing)
    return out


def staple_patterns(bits: np.ndarray, extra_background: int = 0,
                    tol: float = 1e-6, max_iters: int = 100) -> tuple[np.ndarray, int, bool]:
    """Binary STAPLE over rater-decision patterns.

    ``bits`` is a (J, N) boolean matrix of rater decisions; ``extra_background``
    voxels where every rater says background are counted without being
    stored. A voxel's posterior depends only on its J-bit decision pattern, so
    EM runs on at most 2**J pattern counts. Returns the per-voxel foreground
    mask, the iteration count and whether EM converged.
    """
    j, n = bits.shape
    codes = (bits.astype(np.int64) << np.arange(j)[:, None]).sum(axis=0)
    counts = np.bincount(codes, minlength=1 << j).astype(np.float64)
    counts[0] += extra_background
    present = counts > 0
    pat = ((np.arange(1 << j)[None, :] >> np.arange(j)[:, None]) & 1).astype(np.float64)
    total = counts.sum()
    prior = float(np.clip((pat.sum(axis=0) * counts).sum() / (j * total),
                          STAPLE_CLAMP, 1 - STAPLE_CLAMP))
    p = np.full(j, STAPLE_INIT_PQ)
    q = np.full(j, STAPLE_INIT_PQ)

    def e_step(p, q):
        log_a = np.log(prior) + pat.T @ np.log(p) + (1 - pat.T) @ np.log1p(-p)
        log_b = np.log1p(-prior) + pat.T @ np.log1p(-q) + (1 - pat.T) @ np.log(q)
        return expit(log_a - log_b)

    def m_step(w, p, q):
        cw, cnw = counts * w, counts * (1 - w)
        if cw.sum() > 0:
            p = (pat @ cw) / cw.sum()
        if cnw.sum() > 0:
            q = ((1 - pat) @ cnw) / cnw.sum()
        clamp = (STAPLE_CLAMP, 1 - STAPLE_CLAMP)
        return np.clip(p, *clamp), np.clip(q, *clamp)

    w = e_step(p, q)
    iterations, converged = 0, False
    while iterations < max_iters:
        p, q = m_step(w, p, q)
        w_new = e_step(p, q)
        iterations += 1
        delta = np.abs(w_new - w)[present].max()
        w = w_new
        if delta < tol:
            converged = True
            break
    return (w >= 0.5)[codes], iterations, converged


def compose(et: np.ndarray, tc: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """Label map from region masks, nesting enforced by union (ET wins)."""
    tc = tc | et
    wt = wt | tc
    out = np.zeros(et.shape, dtype=np.uint8)
    out[wt] = 2
    out[tc] = 1
    out[et] = 4
    return out


def et_threshold(labels: np.ndarray, threshold: int) -> np.ndarray:
    """All ET becomes necrotic core when 0 < |ET| < threshold."""
    n_et = int(np.count_nonzero(labels == 4))
    if 0 < n_et < threshold:
        labels = labels.copy()
        labels[labels == 4] = 1
    return labels


def staple_fuse(raters: list[np.ndarray], et_thr: int) -> tuple[tuple, np.ndarray, dict]:
    """Reference STAPLE fusion inside the raters' bounding box.

    Outside the box every rater says background, and so does the fusion.
    Returns the box, the fused labels inside it and per-region iterations.
    """
    box = union_box(*(m > 0 for m in raters), pad=0)
    crops = [m[box] for m in raters]
    outside = raters[0].size - crops[0].size
    masks, iters = {}, {}
    for r in REGIONS:
        bits = np.stack([region(c, r).reshape(-1) for c in crops])
        fused, iters[r], _ = staple_patterns(bits, extra_background=outside)
        masks[r] = fused.reshape(crops[0].shape)
    return box, et_threshold(compose(masks["ET"], masks["TC"], masks["WT"]), et_thr), iters


def soft_fuse(manifest_paths: list[Path], box, et_thr: int) -> np.ndarray:
    """Reference fold averaging and argmax inside ``box``.

    Reads only the box from each float32 channel file, renormalises each
    fold's channels to sum 1, averages folds in input order and takes the
    most probable class, ties going to the later channel (0, 1, 2, 4).
    """
    acc = None
    for mp in manifest_paths:
        meta = json.loads(Path(mp).read_text())
        chans = np.stack([
            np.asarray(read_nifti(Path(mp).parent / f, mmap=True)[0][box], dtype=np.float64)
            for f in meta["files"]
        ])
        chans /= chans.sum(axis=0, keepdims=True)
        chans = np.clip(chans, 0.0, 1.0)
        acc = chans if acc is None else acc + chans
    acc /= len(manifest_paths)
    acc = np.clip(acc, 0.0, 1.0)
    labels = np.array((0, 1, 2, 4), dtype=np.uint8)[3 - np.argmax(acc[::-1], axis=0)]
    return et_threshold(labels, et_thr)


def check_fused(path, expect_box, expect_labels: np.ndarray, shape, spacing) -> str | None:
    """Compare a fused NIfTI with reference labels given inside a box.

    Returns None when it matches, else a one-line reason.
    """
    data, sp = read_nifti(path)
    if data.shape != tuple(shape) or not np.allclose(sp, spacing):
        return f"grid {data.shape}/{sp}, expected {tuple(shape)}/{tuple(spacing)}"
    outside = data.copy()
    outside[expect_box] = 0
    if outside.any():
        return f"{int(np.count_nonzero(outside))} foreground voxels outside the tumour box"
    diff = int(np.count_nonzero(data[expect_box] != expect_labels))
    if diff > FUSE_MISMATCH_FRAC * expect_labels.size:
        return f"{diff} of {expect_labels.size} box voxels differ from the reference fusion"
    return None


def read_cases_csv(path) -> dict[str, dict[str, dict[str, float]]]:
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["case_id"]] = {
                "dsc": {r: float(row[f"DSC_{r}"]) for r in REGIONS},
                "hd95": {r: float(row[f"HD95_{r}"]) for r in REGIONS},
            }
    return out


def check_scores(got: dict, want: dict) -> str | None:
    """Compare one case's CSV scores with the reference; None when they agree."""
    for r in REGIONS:
        if abs(got["dsc"][r] - want["dsc"][r]) > DSC_TOL:
            return f"DSC_{r} {got['dsc'][r]!r} != reference {want['dsc'][r]!r}"
        if abs(got["hd95"][r] - want["hd95"][r]) > HD95_TOL_MM:
            return f"HD95_{r} {got['hd95'][r]!r} != reference {want['hd95'][r]!r}"
    return None
