"""Synthetic phantoms and noisy predictor stand-ins for end-to-end testing.

A phantom is a set of nested ellipsoids (WT ⊃ TC ⊃ ET) labelled by
``regions.compose``, plus a matching intensity volume, all deterministic per
seed so fixtures and golden files stay stable. ``corrupt_labels`` and
``noisy_probmap`` simulate imperfect raters and soft model outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RadiiDontFit
from .regions import compose
from .volume import BRATS_LABELS, LabelMap, ProbMap, Volume, _label_index

__all__ = ["PhantomSpec", "make_phantom", "corrupt_labels", "noisy_probmap"]

# Per label position, the three other labels.
_OTHER_LABELS = np.array(
    [[l for l in BRATS_LABELS if l != lbl] for lbl in BRATS_LABELS], dtype=np.uint8
)


# Default radii on the 48-voxel reference grid; other grids scale them per axis.
_REFERENCE_SIZE = 48
_REFERENCE_RADII = {
    "wt_radii": (16.0, 14.0, 15.0),
    "tc_radii": (10.0, 9.0, 9.0),
    "et_radii": (5.0, 5.0, 4.0),
}


@dataclass(frozen=True)
class PhantomSpec:
    """Nested-ellipsoid phantom layout; radii are in voxels, WT > TC > ET.

    Radii passed explicitly are absolute voxel counts, used as given. A radius
    tuple left as ``None`` is derived from ``shape``: the reference layout
    WT (16, 14, 15), TC (10, 9, 9), ET (5, 5, 4) of a 48³ grid, with axis ``i``
    scaled by ``shape[i] / 48``. After construction all three radius fields
    are tuples of floats, and the WT > TC > ET check applies to the resolved
    values.
    """

    shape: tuple[int, int, int] = (48, 48, 48)
    seed: int = 0
    wt_radii: tuple[float, float, float] | None = None
    tc_radii: tuple[float, float, float] | None = None
    et_radii: tuple[float, float, float] | None = None
    center_jitter_frac: float = 0.02
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.shape) != 3 or not all(n > 0 for n in self.shape):
            raise ValueError(f"shape must be three positive voxel counts, got {self.shape}")
        for name, reference in _REFERENCE_RADII.items():
            if getattr(self, name) is None:
                scaled = tuple(r * n / _REFERENCE_SIZE for r, n in zip(reference, self.shape))
                object.__setattr__(self, name, scaled)
        for outer, inner in ((self.wt_radii, self.tc_radii), (self.tc_radii, self.et_radii)):
            if not all(o > i for o, i in zip(outer, inner)):
                raise ValueError("radii must strictly decrease WT > TC > ET")
        if not all(r > 0 for r in self.et_radii):
            raise ValueError("radii must be positive")
        if not 0.0 <= self.center_jitter_frac < 0.5:
            raise ValueError("center_jitter_frac must lie in [0, 0.5)")


def _ellipsoid(shape, center, radii) -> np.ndarray:
    grids = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in shape), indexing="ij")
    acc = np.zeros(shape, dtype=np.float64)
    for g, c, r in zip(grids, center, radii):
        acc += ((g - c) / r) ** 2
    return acc <= 1.0


def make_phantom(spec: PhantomSpec) -> tuple[LabelMap, Volume]:
    """Render ground-truth labels and a matching intensity volume.

    Labels: ``regions.compose`` of the ellipsoids: 2 on WT∖TC (edema), 1 on
    TC∖ET (necrosis), 4 on ET. Intensity is a label-dependent base plus
    seeded Gaussian noise, nonzero over a "brain" ellipsoid slightly larger
    than WT, zero outside (skull-stripped look). The ``synth`` command writes
    only the labels, since fusion and scoring never read an image.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    shape = spec.shape
    base_center = tuple((n - 1) / 2.0 for n in shape)
    jitter = rng.uniform(-spec.center_jitter_frac, spec.center_jitter_frac, size=3)
    center = tuple(c + j * n for c, j, n in zip(base_center, jitter, shape))
    for c, r, n in zip(center, spec.wt_radii, shape):
        if c - r < 0 or c + r > n - 1:
            raise RadiiDontFit(
                f"WT ellipsoid (center {tuple(round(float(x), 2) for x in center)}, "
                f"radii {spec.wt_radii}) exceeds volume shape {shape}"
            )
    wt = _ellipsoid(shape, center, spec.wt_radii)
    tc = _ellipsoid(shape, center, spec.tc_radii)
    et = _ellipsoid(shape, center, spec.et_radii)
    gt = LabelMap(compose(et, tc, wt), spec.spacing)

    # Brain tissue extends beyond the tumor but is clipped to the volume.
    brain_radii = tuple(
        min(1.5 * r, max(c, n - 1 - c)) for r, c, n in zip(spec.wt_radii, center, shape)
    )
    brain = _ellipsoid(shape, center, brain_radii) | wt
    # Mean intensity by label position: brain, necrosis, edema, enhancing tumour.
    base = np.array([1.0, 1.8, 1.4, 2.2])[_label_index(gt.data)]
    noise = rng.normal(0.0, 0.05, size=shape)
    intensity = np.where(brain, base + noise, 0.0)
    return gt, Volume(intensity, spec.spacing)


def corrupt_labels(gt: LabelMap, rate: float, seed: int) -> LabelMap:
    """Resample each voxel to a uniformly random *different* label with
    probability ``rate``; deterministic per seed."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    flip = rng.random(gt.shape) < rate
    pick = rng.integers(0, 3, size=gt.shape)
    replacement = _OTHER_LABELS[_label_index(gt.data), pick]
    data = np.where(flip, replacement, gt.data).astype(np.uint8)
    return LabelMap(data, gt.spacing, gt.origin)


def noisy_probmap(gt: LabelMap, temperature: float, seed: int) -> ProbMap:
    """One-hot ground truth blended with seeded uniform noise, renormalized.

    As temperature goes to 0 the map approaches one-hot; for temperature
    below 1 the argmax always stays equal to the ground-truth label.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    onehot = np.stack([(gt.data == lbl).astype(np.float64) for lbl in BRATS_LABELS])
    noise = rng.random(onehot.shape)
    p = onehot + temperature * noise
    p /= p.sum(axis=0, keepdims=True)
    return ProbMap(np.clip(p, 0.0, 1.0), gt.spacing, gt.origin)
