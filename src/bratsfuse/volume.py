"""Core volumetric data types and geometry operations.

All voxel grids are numpy arrays indexed ``[x, y, z]``; the documented linear
order of the data is x-fastest (the NIfTI on-disk order), i.e. voxel
``(x, y, z)`` sits at linear index ``x + nx*(y + ny*z)``. Types are immutable
after construction: the held arrays are marked read-only, every operation
returns a new object, and nothing in this module mutates shared state.

The two grid types (``LabelMap``, ``ProbMap``) share the fields ``_Grid``
declares once (``data``, ``spacing``, ``origin``): each checks its own
voxels, then calls ``_Grid._init_grid``, the one constructor tail, which
checks and stores them. A region mask is a boolean array, and a file's
voxels of any other kind an array and its ``nifti.Header``.

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
    "LabelMap",
    "ProbMap",
    "nonzero_box",
    "same_geometry",
    "require_same_geometry",
]

# The label codes, and the order of a ProbMap's channels.
BRATS_LABELS = (0, 1, 2, 4)
NCR, ED, ET = BRATS_LABELS[1:]  # necrotic core, edema, enhancing tumour
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


@dataclass(frozen=True)
class _Grid:
    """What the grid types share: their fields, declared once here, the end
    of their constructors and ``shape``. The grid is the last three axes of
    ``data``."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def _init_grid(self, data: np.ndarray, grid: np.ndarray | None = None) -> None:
        """Check ``grid`` (default ``data``) as a 3-D grid and this object's
        spacing and origin, then store them and ``data``, made read-only."""
        grid = data if grid is None else grid
        if grid.ndim != 3:
            raise ValueError(f"expected a 3-D array, got ndim={grid.ndim}")
        if any(n <= 0 for n in grid.shape):
            raise ValueError(f"all dimensions must be positive, got shape {grid.shape}")
        spacing = _check_triple(self.spacing, "spacing")
        if any(not np.isfinite(s) or s <= 0 for s in spacing):
            raise ValueError(f"spacing must be positive and finite, got {spacing}")
        origin = _check_triple(self.origin, "origin")
        if any(not np.isfinite(o) for o in origin):
            raise ValueError(f"origin must be finite, got {origin}")
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(int(n) for n in self.data.shape[-3:])


@dataclass(frozen=True)
class LabelMap(_Grid):
    """A 3-D grid of BraTS label codes {0, 1, 2, 4}, stored as uint8."""

    def __post_init__(self):
        data = np.asarray(self.data)
        _check_labels(data)
        self._init_grid(data.astype(np.uint8, copy=False))


def _check_labels(data: np.ndarray) -> None:
    """Raise InvalidLabel, listing the offending values, unless every value
    of ``data`` is a BraTS label."""
    # One compare per label, counted and freed before the next: np.isin's
    # sort/table path would allocate several int64 copies of the data, and a
    # mask of valid voxels one more bool per voxel.
    if sum(np.count_nonzero(data == label) for label in BRATS_LABELS) != data.size:
        bad = np.unique(data[~np.isin(data, BRATS_LABELS)])
        codes = ",".join(map(str, BRATS_LABELS))
        raise InvalidLabel(f"label values outside {{{codes}}}: {bad.tolist()}")


def _check_probs(data: np.ndarray) -> None:
    """Raise ValueError unless every value of ``data`` lies in [0, 1] and the
    channels (axis 0) of every voxel sum to 1 within 1e-6 (:func:`_check_sums`)."""
    # min and max propagate NaN, so this one test also rejects NaN/Inf.
    if not (data.min() >= 0.0 and data.max() <= 1.0):
        if not np.isfinite(data).all():
            raise ValueError("probability data contains NaN or Inf")
        raise ValueError("probabilities must lie in [0, 1]")
    _check_sums(data)


def _check_sums(data: np.ndarray, sums: np.ndarray | None = None) -> None:
    """Raise ValueError unless the channels (axis 0) of every voxel of
    ``data`` sum to 1 within 1e-6.

    The channel sums are accumulated in float64 into ``sums`` when it is given
    (shaped like ``data[0]``), so a caller can reuse one buffer.
    """
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


def _close(a, b) -> bool:
    # np.allclose(a, b, rtol=1e-9, atol=1e-9) on finite 3-tuples, without the
    # array round trip that dominates it at this size.
    return all(abs(x - y) <= 1e-9 + 1e-9 * abs(y) for x, y in zip(a, b))


def same_geometry(a, b) -> bool:
    """True when two spatial objects share shape, and spacing and origin to
    within 1e-9 (relative and absolute)."""
    return a.shape == b.shape and _close(a.spacing, b.spacing) and _close(a.origin, b.origin)


def require_same_geometry(*objs, names=None) -> None:
    """Raise GeometryMismatch unless all ``objs`` share the first's geometry;
    ``names``, one per object, start its message with the two that differ."""
    first = objs[0]
    for k, other in enumerate(objs[1:], 1):
        if not same_geometry(first, other):
            where = f"{names[0]}, {names[k]}: " if names else ""
            raise GeometryMismatch(
                f"{where}geometry mismatch: {first.shape}/{first.spacing}/{first.origin}"
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
