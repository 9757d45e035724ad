"""Seeded input generation for the benchmark workloads.

Ground truth is a ``bratsfuse.synth.make_phantom`` tumour whose radii are
given in millimetres (WT about 30 mm), so the same anatomy appears on the
full 1 mm BraTS grid and on the coarser evaluation grid. Raters and soft
folds are derived from signed distances to the nested regions, so their
errors sit at the tumour boundary, the way real model errors do, instead of
being scattered over the volume.

Each rater applies one fixed operation per region (dilate, erode or shift,
in a Latin-square schedule over raters and regions) plus smoothed boundary
noise. The seed moves the phantom centre and the noise fields, never the
kind or size of the errors, so STAPLE iteration counts and fused quality stay
comparable from seed to seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy import ndimage

from bratsfuse.nifti import save_nifti, save_probmap
from reference import REGION_LABELS, REGIONS, compose
from bratsfuse.synth import PhantomSpec, make_phantom
from bratsfuse.volume import BRATS_LABELS, LabelMap, ProbMap

FULL_GRID = (240, 240, 155)
FULL_SPACING = (1.0, 1.0, 1.0)
EVAL_GRID = (120, 120, 62)
EVAL_SPACING = (2.0, 2.0, 2.5)

WT_RADII_MM = (32.0, 29.0, 30.0)
TC_RADII_MM = (20.0, 18.0, 19.0)
ET_RADII_MM = (13.0, 12.0, 12.0)
# Work happens in the tumour bounding box grown by this margin; everything
# outside it is background in every input.
MARGIN_MM = 12.0

# Rater errors, in mm: a dilation or erosion moves the boundary by
# OFFSET_MM, a shift translates the region by SHIFT_MM along one axis, and
# smoothed noise of amplitude NOISE_MM roughens the boundary. The noise is
# fine-grained (NOISE_SIGMA_MM) so that many independent patches cover each
# surface: with coarser noise, STAPLE iteration counts and HD95 varied twice
# as much from seed to seed.
OFFSET_MM = 2.0
SHIFT_MM = 3.0
NOISE_MM = 1.0
NOISE_SIGMA_MM = 1.5
OPS = ("dilate", "erode", "shift")

# Soft folds: per-fold boundary offsets (mm) around a common bias, plus
# per-fold noise, so the fold average is a roughened, dilated ground truth
# rather than the truth. The noise is strong enough that HD95 is not stuck on
# one grid distance.
FOLD_OFFSETS_MM = (-1.0, -0.5, 0.0, 0.5, 1.0)  # one per fold
FOLD_BIAS_MM = -1.0
FOLD_NOISE_MM = 2.0
FOLD_TEMPERATURE_MM = 1.0

ET_THRESHOLD = 200


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *stream]))


def phantom(shape, spacing, seed: int) -> LabelMap:
    """Ground-truth label map with radii sized in mm to the grid spacing."""

    def vox(radii):
        return tuple(r / s for r, s in zip(radii, spacing))

    spec = PhantomSpec(
        shape=tuple(shape),
        seed=int(seed),
        wt_radii=vox(WT_RADII_MM),
        tc_radii=vox(TC_RADII_MM),
        et_radii=vox(ET_RADII_MM),
        spacing=tuple(spacing),
    )
    gt, _ = make_phantom(spec)
    return gt


def tumour_box(gt: LabelMap) -> tuple[slice, slice, slice]:
    """Bounding box of the whole tumour grown by MARGIN_MM, clipped to the grid."""
    idx = np.argwhere(gt.data > 0)
    box = []
    for axis, n in enumerate(gt.shape):
        pad = int(np.ceil(MARGIN_MM / gt.spacing[axis]))
        lo = max(int(idx[:, axis].min()) - pad, 0)
        hi = min(int(idx[:, axis].max()) + 1 + pad, n)
        box.append(slice(lo, hi))
    return tuple(box)


def signed_distance(mask: np.ndarray, spacing) -> np.ndarray:
    """Signed Euclidean distance in mm: negative inside, positive outside."""
    outside = ndimage.distance_transform_edt(~mask, sampling=spacing)
    inside = ndimage.distance_transform_edt(mask, sampling=spacing)
    return outside - inside


def region_sdfs(gt: LabelMap, box) -> dict[str, np.ndarray]:
    crop = gt.data[box]
    return {
        r: signed_distance(np.isin(crop, REGION_LABELS[r]), gt.spacing) for r in REGIONS
    }


def _smooth_noise(rng: np.random.Generator, shape, spacing) -> np.ndarray:
    sigma = tuple(NOISE_SIGMA_MM / s for s in spacing)
    field = ndimage.gaussian_filter(rng.standard_normal(shape), sigma)
    return field / field.std()


def _shifted(sdf: np.ndarray, axis: int, spacing) -> np.ndarray:
    # The box margin exceeds the shift, so np.roll only wraps background.
    step = int(round(SHIFT_MM / spacing[axis])) or 1
    return np.roll(sdf, step, axis=axis)


def rater(gt: LabelMap, sdfs, box, index: int, seed: int) -> LabelMap:
    """One label-map rater with boundary errors; rater ``index`` applies
    operation ``OPS[(index + region) % 3]`` to each region and shifts along
    axis ``index % 3``."""
    rng = _rng(seed, 10, index)
    masks = {}
    for k, r in enumerate(REGIONS):
        sdf = sdfs[r]
        op = OPS[(index + k) % len(OPS)]
        if op == "shift":
            sdf = _shifted(sdf, index % 3, gt.spacing)
        elif op == "dilate":
            sdf = sdf - OFFSET_MM
        else:
            sdf = sdf + OFFSET_MM
        noise = _smooth_noise(rng, sdf.shape, gt.spacing)
        masks[r] = sdf + NOISE_MM * noise < 0.0
    labels = np.zeros(gt.shape, dtype=np.uint8)
    labels[box] = compose(masks["ET"], masks["TC"], masks["WT"])  # forces ET ⊂ TC ⊂ WT
    return LabelMap(labels, gt.spacing, gt.origin)


def soft_fold(gt: LabelMap, sdfs, box, fold: int, seed: int) -> ProbMap:
    """One fold's probability map: sigmoid of the noisy, offset signed
    distance to each region, with nested region probabilities turned into
    the four class channels."""
    rng = _rng(seed, 20, fold)
    offset = FOLD_BIAS_MM + FOLD_OFFSETS_MM[fold]
    inside = {}
    for r in REGIONS:
        noise = _smooth_noise(rng, sdfs[r].shape, gt.spacing)
        z = -(sdfs[r] + offset + FOLD_NOISE_MM * noise) / FOLD_TEMPERATURE_MM
        inside[r] = 0.5 * (1.0 + np.tanh(0.5 * z))  # overflow-free sigmoid
    p_wt = inside["WT"]
    p_tc = np.minimum(inside["TC"], p_wt)
    p_et = np.minimum(inside["ET"], p_tc)
    data = np.zeros((4,) + gt.shape, dtype=np.float64)
    data[0] = 1.0
    crop = np.stack([1.0 - p_wt, p_tc - p_et, p_wt - p_tc, p_et])
    for c in range(4):
        data[(c,) + box] = crop[c]
    return ProbMap(data, gt.spacing, gt.origin)


def describe(label_maps: list[np.ndarray], gt: np.ndarray, outside: int = 0) -> dict:
    """Input descriptors: voxels, raters, tumour fraction, the fraction of
    voxels where all raters agree, and distinct rater-decision patterns per
    region (the J-bit columns a pattern-compressed STAPLE would count).

    ``outside`` counts further voxels, not passed in, that every map and the
    ground truth label background.
    """
    stack = np.stack([m.reshape(-1) for m in label_maps])
    voxels = gt.size + outside
    agree = int((stack == stack[0]).all(axis=0).sum()) + outside
    patterns = {}
    for r in REGIONS:
        bits = np.isin(stack, REGION_LABELS[r]).astype(np.int64)
        codes = (bits << np.arange(len(label_maps))[:, None]).sum(axis=0)
        patterns[r] = int(np.unique(codes).size)
    return {
        "voxels": int(voxels),
        "raters": len(label_maps),
        "tumour_frac": int(np.count_nonzero(gt)) / voxels,
        "agree_frac": agree / voxels,
        "patterns": patterns,
    }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def make_fuse_staple(work: Path, seed: int) -> dict:
    """One full-grid case with three label-map raters."""
    gt = phantom(FULL_GRID, FULL_SPACING, seed)
    box = tumour_box(gt)
    sdfs = region_sdfs(gt, box)
    raters = [rater(gt, sdfs, box, k, seed) for k in range(3)]
    (work / "gt").mkdir(parents=True)
    save_nifti(work / "gt" / "case_000.nii", gt)
    models = []
    for k, m in enumerate(raters):
        save_nifti(work / f"rater{k}.nii", m)
        models.append({"name": f"rater{k}", "labelmap": f"rater{k}.nii"})
    _write_json(work / "fuse_config.json", _fuse_config(models))
    return describe([m.data for m in raters], gt.data)


def make_fuse_soft(work: Path, seed: int) -> dict:
    """One full-grid case with a single model given as fold probability maps."""
    gt = phantom(FULL_GRID, FULL_SPACING, seed)
    box = tumour_box(gt)
    sdfs = region_sdfs(gt, box)
    (work / "gt").mkdir(parents=True)
    save_nifti(work / "gt" / "case_000.nii", gt)
    manifests = []
    fold_labels = []
    for f in range(len(FOLD_OFFSETS_MM)):
        pm = soft_fold(gt, sdfs, box, f, seed)
        # Decoded inside the box like fusion.argmax_labels: ties go to the
        # later channel.
        rev = pm.data[(slice(None, None, -1),) + box]
        fold_labels.append(np.array(BRATS_LABELS, dtype=np.uint8)[3 - np.argmax(rev, axis=0)])
        manifest = save_probmap(pm, work / "probs", f"case_000_f{f}")
        manifests.append(str(manifest.relative_to(work)))
        del pm
    _write_json(work / "fuse_config.json",
                _fuse_config([{"name": "soft_model", "prob_manifests": manifests}]))
    crop = gt.data[box]
    return describe(fold_labels, crop, outside=gt.data.size - crop.size)


def _fuse_config(models: list[dict]) -> dict:
    return {
        "cases": [{"id": "case_000", "models": models}],
        "output_dir": "fused",
        "et_threshold": ET_THRESHOLD,
        "staple": {"tol": 1e-6, "max_iters": 100},
    }


EVAL_CASES = 4
NO_ET_CASE = 1        # ground truth has no ET; the prediction keeps one
SMALL_ET_CASE = 2     # the prediction's ET is below the size threshold
SMALL_ET_EROSION_MM = 8.0


def eval_pair(seed: int, case: int) -> tuple[LabelMap, LabelMap]:
    """Prediction and ground truth for one eval-batch case."""
    gt = phantom(EVAL_GRID, EVAL_SPACING, seed * 16 + case)
    box = tumour_box(gt)
    sdfs = region_sdfs(gt, box)
    if case == SMALL_ET_CASE:
        sdfs["ET"] = sdfs["ET"] + SMALL_ET_EROSION_MM
    pred = rater(gt, sdfs, box, case, seed)
    if case == NO_ET_CASE:
        data = gt.data.copy()
        data[data == 4] = 1
        gt = LabelMap(data, gt.spacing, gt.origin)
    return pred, gt


def make_eval_batch(work: Path, seed: int) -> dict:
    """Four prediction/ground-truth pairs on the coarse anisotropic grid."""
    preds, gts = [], []
    (work / "pred").mkdir(parents=True)
    (work / "gt").mkdir(parents=True)
    for c in range(EVAL_CASES):
        pred, gt = eval_pair(seed, c)
        save_nifti(work / "pred" / f"case_{c:03d}.nii", pred)
        save_nifti(work / "gt" / f"case_{c:03d}.nii", gt)
        preds.append(pred.data)
        gts.append(gt.data)
    desc = describe([np.stack(preds), np.stack(gts)], np.stack(gts))
    desc["cases"] = EVAL_CASES
    desc["pred_et_voxels"] = [int((p == 4).sum()) for p in preds]
    return desc


MAKERS = {
    "fuse-staple": make_fuse_staple,
    "fuse-soft": make_fuse_soft,
    "eval-batch": make_eval_batch,
}
