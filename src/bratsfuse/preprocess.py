"""Intensity normalization for the ``preprocess`` command.

``znorm`` is a pure function: it returns a new volume and leaves its input
unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyVolume
from .volume import Volume

__all__ = ["znorm"]


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

