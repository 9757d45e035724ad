"""Post-processing: the enhancing-tumor size threshold.

Small predicted ET regions are usually spurious vessel fragments; when the
total ET voxel count falls below a threshold (default 200, strict), every ET
voxel is relabeled to necrotic core (label 1). This never changes the TC or
WT region masks, since label 4 and label 1 belong to both.
"""

from __future__ import annotations

from .volume import LabelMap

__all__ = ["et_threshold_relabel", "DEFAULT_ET_THRESHOLD"]

DEFAULT_ET_THRESHOLD = 200


def et_threshold_relabel(m: LabelMap, threshold: int = DEFAULT_ET_THRESHOLD) -> LabelMap:
    """Relabel all ET voxels to label 1 when total ET count < threshold."""
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    et = m.data == 4
    if int(et.sum()) >= threshold or not et.any():
        return m
    data = m.data.copy()
    data[et] = 1
    return LabelMap(data, m.spacing, m.origin)
