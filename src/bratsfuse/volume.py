"""Core volumetric data types and geometry operations.

All voxel grids are numpy arrays indexed ``[x, y, z]``; the documented linear
order of the data is x-fastest (the NIfTI on-disk order), i.e. voxel
``(x, y, z)`` sits at linear index ``x + nx*(y + ny*z)``. Types are immutable
after construction: the held arrays are marked read-only, every operation
returns a new object, and nothing in this module mutates shared state.

The four grid types (``Volume``, ``LabelMap``, ``ProbMap`` and
``regions.RegionMask``) check their own voxels and then share one
constructor tail, ``_Grid._init_grid``, which checks and stores the grid's
data, spacing and origin.

``nonzero_box`` is the one box finder: the slices of an array of any
dimension outside which it is all zero. ``pipeline`` takes it of each
plane's uncertain fold voxels (``_FoldModel._rectangle``) and of each
plane's joint codes (``_read_blocks``), and ``metrics`` of a pair's whole
joint codes (``evaluate_case``) and of the union of a region's two masks
(``hd95``), which it crops to it.

``_label_index`` gives a label's position in ``BRATS_LABELS`` (its
``ProbMap`` channel, its two bits in a ``fusion`` joint code), and
``_LABELS`` the label at a position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, InvalidLabel

__all__ = [
    "BRATS_LABELS",
    "Volume",
    "LabelMap",
    "ProbMap",
    "nonzero_box",
    "same_geometry",
    "require_same_geometry",
]

# The label codes, and the order of a ProbMap's channels.
BRATS_LABELS = (0, 1, 2, 4)
_CHANNEL_SUM_TOL = 1e-6


def _freeze(arr: np.ndarray) -> np.ndarray:
    if arr.flags.writeable:
        arr.flags.writeable = False
    return arr


# The label at each position: ``_LABELS[_label_index(l)] == l``.
_LABELS = _freeze(np.array(BRATS_LABELS, np.uint8))


def _label_index(labels: np.ndarray) -> np.ndarray:
    """Each label's position in BRATS_LABELS = (0, 1, 2, 4): l - l // 4."""
    return labels - (labels >> 2)


def _check_triple(value, name: str):
    t = tuple(float(v) for v in value)
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


class _Grid:
    """What the grid types share: the end of their constructors and ``shape``.

    It declares no dataclass fields, so each type keeps its own field order
    (``RegionMask(region, data, ...)``). The grid is the last three axes of
    ``data``.
    """

    def _init_grid(self, data: np.ndarray, grid: np.ndarray | None = None) -> None:
        """Check ``grid`` (default ``data``) as a 3-D grid and this object's
        spacing and origin, then store them and ``data``, made read-only."""
        spacing, origin = _check_spatial(data if grid is None else grid,
                                         self.spacing, self.origin)
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(int(n) for n in self.data.shape[-3:])


@dataclass(frozen=True)
class Volume(_Grid):
    """A 3-D scalar grid with voxel spacing (mm) and a world offset (mm)."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        data = np.asarray(self.data)
        _check_finite(data)
        self._init_grid(data)


@dataclass(frozen=True)
class LabelMap(_Grid):
    """A 3-D grid of BraTS label codes {0, 1, 2, 4}, stored as uint8."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        data = np.asarray(self.data)
        _check_labels(data)
        self._init_grid(data.astype(np.uint8, copy=False))


def _check_finite(data: np.ndarray) -> None:
    """Raise ValueError if floating-point ``data`` holds NaN or Inf."""
    if np.issubdtype(data.dtype, np.floating) and not np.isfinite(data).all():
        raise ValueError("volume data contains NaN or Inf")


def _check_labels(data: np.ndarray) -> None:
    """Raise InvalidLabel, listing the offending values, unless every value
    of ``data`` is a BraTS label."""
    # One compare per label, counted and freed before the next: np.isin's
    # sort/table path would allocate several int64 copies of the data, and a
    # mask of valid voxels one more bool per voxel.
    if sum(np.count_nonzero(data == label) for label in BRATS_LABELS) != data.size:
        bad = np.unique(data[~np.isin(data, BRATS_LABELS)])
        raise InvalidLabel(f"label values outside {{0,1,2,4}}: {bad.tolist()}")


def _check_probs(data: np.ndarray, sums: np.ndarray | None = None) -> None:
    """Raise ValueError unless every value of ``data`` lies in [0, 1] and the
    channels (axis 0) of every voxel sum to 1 within 1e-6.

    The channel sums are accumulated in float64 into ``sums`` when it is given
    (shaped like ``data[0]``), so a caller can reuse one buffer.
    """
    # min and max propagate NaN, so this one test also rejects NaN/Inf.
    if not (data.min() >= 0.0 and data.max() <= 1.0):
        if not np.isfinite(data).all():
            raise ValueError("probability data contains NaN or Inf")
        raise ValueError("probabilities must lie in [0, 1]")
    sums = np.sum(data, axis=0, dtype=np.float64, out=sums)
    err = max(sums.max() - 1.0, 1.0 - sums.min())  # == max |sums - 1|
    if err > _CHANNEL_SUM_TOL:
        raise ValueError(f"channel sums deviate from 1 by {err:.3g} (> 1e-6)")


@dataclass(frozen=True)
class ProbMap(_Grid):
    """Per-class probability volume, channels ordered as labels (0, 1, 2, 4).

    ``data`` has shape ``(4, nx, ny, nz)``; every value lies in [0, 1] and the
    four channels of each voxel sum to 1 within 1e-6.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    channels = BRATS_LABELS

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 4 or data.shape[0] != len(BRATS_LABELS):
            raise ValueError(
                f"probability data must have shape (4, nx, ny, nz), got {data.shape}"
            )
        if data.size:  # an empty grid has no values; _init_grid refuses it
            _check_probs(data)
        self._init_grid(data, data[0])


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


def nonzero_box(mask: np.ndarray) -> tuple[slice, ...] | None:
    """One slice per axis of ``mask`` (boolean, or codes), outside which it
    is all zero, or None if it is all zero. Axis 0's slice comes from
    ``any`` over the other axes, and the other axes' slices from the box of
    ``any`` over axis 0 inside that slice."""
    hits = np.flatnonzero(mask.any(axis=tuple(range(1, mask.ndim))))
    if not hits.size:
        return None
    lo, hi = int(hits[0]), int(hits[-1]) + 1
    if mask.ndim == 1:
        return (slice(lo, hi),)
    return (slice(lo, hi),) + nonzero_box(mask[lo:hi].any(axis=0))
