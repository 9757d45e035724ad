"""Post-processing: the enhancing-tumor size threshold.

Small predicted ET regions are usually spurious vessel fragments; when the
total ET voxel count falls below a threshold (default 200, strict), every ET
voxel is relabeled to necrotic core (label 1). This never changes the TC or
WT region masks, since label 4 and label 1 belong to both. ``relabel_et``
is the rule on any labels, for a caller that counts ET voxels and checks
the threshold itself; ``et_threshold_relabel`` refuses a negative one.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .volume import ET, NCR, LabelMap

__all__ = ["et_threshold_relabel", "check_et_threshold", "relabel_et", "DEFAULT_ET_THRESHOLD"]

DEFAULT_ET_THRESHOLD = 200


def check_et_threshold(threshold: int) -> None:
    """Raise ConfigError if ``threshold`` is negative."""
    if threshold < 0:
        raise ConfigError(f"et_threshold must be nonnegative, got {threshold}")


def relabel_et(labels: np.ndarray, et_voxels: int, threshold: int) -> np.ndarray:
    """``labels`` (uint8) with every ET (4) made 1 if their ``et_voxels`` ET
    voxels are some and fewer than ``threshold`` (unchecked), else ``labels``."""
    if not 0 < et_voxels < threshold:
        return labels
    return np.where(labels == ET, np.uint8(NCR), labels)


def et_threshold_relabel(m: LabelMap, threshold: int = DEFAULT_ET_THRESHOLD) -> LabelMap:
    """Relabel all ET voxels to label 1 when total ET count < threshold."""
    check_et_threshold(threshold)
    data = relabel_et(m.data, int(np.count_nonzero(m.data == ET)), threshold)
    return m if data is m.data else LabelMap(data, m.spacing, m.origin)
