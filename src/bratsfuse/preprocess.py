"""Intensity normalization and two elementary volume transforms.

``znorm`` backs the ``preprocess`` command. ``flip3d`` and
``gamma_transform`` are not called by any command. All three are pure
functions: they return a new volume and leave their input unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstantVolume, EmptyVolume
from .volume import LabelMap, Volume

__all__ = ["znorm", "flip3d", "gamma_transform"]


def znorm(v: Volume) -> Volume:
    """Zero-mean/unit-variance normalization over the nonzero voxels.

    Statistics use the nonzero support only (skull-stripped background stays
    0) and the population standard deviation. A constant nonzero region maps
    to zeros instead of dividing by zero.
    """
    data = np.asarray(v.data, dtype=np.float64)
    support = data != 0
    if not support.any():
        raise EmptyVolume("znorm needs at least one nonzero voxel")
    vals = data[support]
    mean = vals.mean()
    std = vals.std()
    out = np.zeros_like(data)
    if std > 0.0:
        out[support] = (vals - mean) / std
    return Volume(out, v.spacing, v.origin)


def flip3d(v: Volume | LabelMap, axes: tuple[bool, bool, bool]):
    """Mirror the grid along each axis flagged true."""
    flip_axes = tuple(i for i, f in enumerate(axes) if f)
    data = np.flip(v.data, axis=flip_axes).copy() if flip_axes else v.data
    kind = LabelMap if isinstance(v, LabelMap) else Volume
    return kind(data, v.spacing, v.origin)


def gamma_transform(v: Volume, gamma: float) -> Volume:
    """Power-law intensity transform preserving the [min, max] range."""
    if gamma <= 0 or not math.isfinite(gamma):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    data = np.asarray(v.data, dtype=np.float64)
    lo = data.min()
    hi = data.max()
    if hi == lo:
        raise ConstantVolume("gamma transform needs max > min")
    out = lo + (hi - lo) * ((data - lo) / (hi - lo)) ** gamma
    return Volume(out, v.spacing, v.origin)
