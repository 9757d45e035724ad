"""Core volumetric data types and geometry operations.

All voxel grids are numpy arrays indexed ``[x, y, z]``; the documented linear
order of the data is x-fastest (the NIfTI on-disk order), i.e. voxel
``(x, y, z)`` sits at linear index ``x + nx*(y + ny*z)``. Types are immutable
after construction: the held arrays are marked read-only, every operation
returns a new object, and nothing in this module mutates shared state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptyVolume,
    GeometryMismatch,
    InvalidLabel,
    OutOfBounds,
    ShapeMismatch,
)

__all__ = [
    "BRATS_LABELS",
    "PROB_CHANNELS",
    "Volume",
    "LabelMap",
    "ProbMap",
    "BBox",
    "nonzero_bbox",
    "crop",
    "crop_or_pad",
    "embed",
    "same_geometry",
    "require_same_geometry",
]

BRATS_LABELS = (0, 1, 2, 4)
PROB_CHANNELS = (0, 1, 2, 4)
_CHANNEL_SUM_TOL = 1e-6


def _freeze(arr: np.ndarray) -> np.ndarray:
    if arr.flags.writeable:
        arr.flags.writeable = False
    return arr


def _check_triple(value, name: str, kind=float):
    t = tuple(kind(v) for v in value)
    if len(t) != 3:
        raise ValueError(f"{name} must have 3 components, got {len(t)}")
    return t


def _check_spatial(data: np.ndarray, spacing, origin):
    if data.ndim != 3:
        raise ValueError(f"expected a 3-D array, got ndim={data.ndim}")
    if any(n <= 0 for n in data.shape):
        raise ValueError(f"all dimensions must be positive, got shape {data.shape}")
    spacing = _check_triple(spacing, "spacing")
    if any(not np.isfinite(s) or s <= 0 for s in spacing):
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    origin = _check_triple(origin, "origin")
    if any(not np.isfinite(o) for o in origin):
        raise ValueError(f"origin must be finite, got {origin}")
    return spacing, origin


@dataclass(frozen=True)
class Volume:
    """A 3-D scalar grid with voxel spacing (mm) and a world offset (mm)."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        data = np.asarray(self.data)
        spacing, origin = _check_spatial(data, self.spacing, self.origin)
        if np.issubdtype(data.dtype, np.floating) and not np.isfinite(data).all():
            raise ValueError("volume data contains NaN or Inf")
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(int(n) for n in self.data.shape)


@dataclass(frozen=True)
class LabelMap:
    """A 3-D grid of BraTS label codes {0, 1, 2, 4}, stored as uint8."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        data = np.asarray(self.data)
        spacing, origin = _check_spatial(data, self.spacing, self.origin)
        # One compare per label: np.isin's sort/table path would allocate
        # several int64 copies of the volume.
        valid = data == BRATS_LABELS[0]
        for label in BRATS_LABELS[1:]:
            valid |= data == label
        if not valid.all():
            bad = np.unique(data[~valid])
            raise InvalidLabel(f"label values outside {{0,1,2,4}}: {bad.tolist()}")
        object.__setattr__(self, "data", _freeze(data.astype(np.uint8, copy=False)))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(int(n) for n in self.data.shape)


@dataclass(frozen=True)
class ProbMap:
    """Per-class probability volume, channels ordered as labels (0, 1, 2, 4).

    ``data`` has shape ``(4, nx, ny, nz)``; every value lies in [0, 1] and the
    four channels of each voxel sum to 1 within 1e-6.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    channels = PROB_CHANNELS

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 4 or data.shape[0] != len(PROB_CHANNELS):
            raise ValueError(
                f"probability data must have shape (4, nx, ny, nz), got {data.shape}"
            )
        spacing, origin = _check_spatial(data[0], self.spacing, self.origin)
        # min and max propagate NaN, so this one test also rejects NaN/Inf.
        if not (data.min() >= 0.0 and data.max() <= 1.0):
            if not np.isfinite(data).all():
                raise ValueError("probability data contains NaN or Inf")
            raise ValueError("probabilities must lie in [0, 1]")
        sums = data.sum(axis=0, dtype=np.float64)
        err = max(sums.max() - 1.0, 1.0 - sums.min())  # == max |sums - 1|
        if err > _CHANNEL_SUM_TOL:
            raise ValueError(f"channel sums deviate from 1 by {err:.3g} (> 1e-6)")
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(int(n) for n in self.data.shape[1:])


@dataclass(frozen=True)
class BBox:
    """Axis-aligned voxel box with inclusive corners ``lo`` and ``hi``."""

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self):
        lo = _check_triple(self.lo, "lo", int)
        hi = _check_triple(self.hi, "hi", int)
        if any(l < 0 for l in lo) or any(h < l for l, h in zip(lo, hi)):
            raise ValueError(f"invalid bbox lo={lo} hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    def slices(self) -> tuple[slice, slice, slice]:
        return tuple(slice(l, h + 1) for l, h in zip(self.lo, self.hi))


def _close(a, b, tol: float) -> bool:
    # np.allclose(a, b, rtol=tol, atol=tol) on finite 3-tuples, without the
    # array round trip that dominates it at this size.
    return all(abs(x - y) <= tol + tol * abs(y) for x, y in zip(a, b))


def same_geometry(a, b, *, tol: float = 1e-9) -> bool:
    """True when two spatial objects share shape, spacing, and origin."""
    return (
        a.shape == b.shape
        and _close(a.spacing, b.spacing, tol)
        and _close(a.origin, b.origin, tol)
    )


def require_same_geometry(*objs) -> None:
    first = objs[0]
    for other in objs[1:]:
        if not same_geometry(first, other):
            raise GeometryMismatch(
                f"geometry mismatch: {first.shape}/{first.spacing}/{first.origin}"
                f" vs {other.shape}/{other.spacing}/{other.origin}"
            )


def nonzero_bbox(v) -> BBox:
    """Tightest box containing all nonzero voxels of a Volume, LabelMap or
    RegionMask."""
    nz = np.nonzero(v.data)
    if nz[0].size == 0:
        raise EmptyVolume("volume has no nonzero voxels")
    lo = tuple(int(idx.min()) for idx in nz)
    hi = tuple(int(idx.max()) for idx in nz)
    return BBox(lo, hi)


def _check_inside(b: BBox, shape) -> None:
    if any(h >= n for h, n in zip(b.hi, shape)):
        raise OutOfBounds(f"bbox {b.lo}..{b.hi} exceeds volume shape {tuple(shape)}")


def _shift_origin(origin, spacing, lo, sign=1):
    return tuple(o + sign * l * s for o, s, l in zip(origin, spacing, lo))


def crop(v, b: BBox):
    """Copy the voxels inside ``b``; the origin shifts by ``lo * spacing``.

    Keeps the type of ``v`` (Volume, LabelMap, ProbMap or RegionMask)."""
    _check_inside(b, v.shape)
    sl = b.slices()
    if isinstance(v, ProbMap):
        sl = (slice(None),) + sl
    return replace(v, data=v.data[sl].copy(),
                   origin=_shift_origin(v.origin, v.spacing, b.lo))


def crop_or_pad(v, b: BBox):
    """Crop to a fixed template box that may extend beyond the volume.

    Voxels of the box outside the volume read background (0, label 0, or the
    background channel). This is the fixed-box counterpart of tight-bbox
    cropping; use :func:`crop` when the box is known to fit.
    """
    origin = _shift_origin(v.origin, v.spacing, b.lo)
    hi_in = tuple(min(h, n - 1) for h, n in zip(b.hi, v.shape))
    if any(l > h for l, h in zip(b.lo, hi_in)):
        raise OutOfBounds(f"bbox {b.lo}..{b.hi} starts outside volume shape {v.shape}")
    src = tuple(slice(l, h + 1) for l, h in zip(b.lo, hi_in))
    dst = tuple(slice(0, h - l + 1) for l, h in zip(b.lo, hi_in))
    if isinstance(v, ProbMap):
        data = np.zeros((len(PROB_CHANNELS),) + b.shape, dtype=v.data.dtype)
        data[0] = 1.0
        data[(slice(None),) + dst] = v.data[(slice(None),) + src]
        return ProbMap(data, v.spacing, origin)
    if isinstance(v, LabelMap):
        data = np.zeros(b.shape, dtype=np.uint8)
        data[dst] = v.data[src]
        return LabelMap(data, v.spacing, origin)
    data = np.zeros(b.shape, dtype=v.data.dtype)
    data[dst] = v.data[src]
    return Volume(data, v.spacing, origin)


def embed(v, b: BBox, full_shape):
    """Place ``v`` into a volume of ``full_shape`` at ``b``, inverse of crop.

    Outside the box the result is 0 for Volume, label 0 for LabelMap, and the
    background channel (probability 1 for label 0) for ProbMap.
    """
    full_shape = _check_triple(full_shape, "full_shape", int)
    if b.shape != v.shape:
        raise ShapeMismatch(f"bbox shape {b.shape} != data shape {v.shape}")
    if any(h >= n for h, n in zip(b.hi, full_shape)):
        raise ShapeMismatch(f"bbox {b.lo}..{b.hi} does not fit in {full_shape}")
    origin = _shift_origin(v.origin, v.spacing, b.lo, sign=-1)
    sl = b.slices()
    if isinstance(v, ProbMap):
        data = np.zeros((len(PROB_CHANNELS),) + full_shape, dtype=v.data.dtype)
        data[0] = 1.0
        data[(slice(None),) + sl] = v.data
        return ProbMap(data, v.spacing, origin)
    if isinstance(v, LabelMap):
        data = np.zeros(full_shape, dtype=np.uint8)
        data[sl] = v.data
        return LabelMap(data, v.spacing, origin)
    data = np.zeros(full_shape, dtype=v.data.dtype)
    data[sl] = v.data
    return Volume(data, v.spacing, origin)
