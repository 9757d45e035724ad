"""Sliding-window layout for a volume shape (the ``tiling-plan`` command).

Window starts along each dimension are 0, s, 2s, ... with the final start
clamped to ``dim - patch`` so the last window abuts the far face. A volume
smaller than the patch is treated as zero-padded (at the high side) up to
the patch shape, and the plan records that padding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .volume import BBox

__all__ = ["TilingPlan", "plan_tiling"]


@dataclass(frozen=True)
class TilingPlan:
    """Window layout for one volume shape / patch shape / stride choice."""

    volume_shape: tuple[int, int, int]
    patch_shape: tuple[int, int, int]
    stride: tuple[int, int, int]
    padding: tuple[int, int, int]
    windows: tuple[BBox, ...]

    @property
    def padded_shape(self) -> tuple[int, int, int]:
        return tuple(n + p for n, p in zip(self.volume_shape, self.padding))

    def to_json(self) -> str:
        return json.dumps(
            {
                "volume_shape": list(self.volume_shape),
                "patch_shape": list(self.patch_shape),
                "stride": list(self.stride),
                "padding": list(self.padding),
                "windows": [[list(w.lo), list(w.hi)] for w in self.windows],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TilingPlan":
        d = json.loads(text)
        return cls(
            volume_shape=tuple(d["volume_shape"]),
            patch_shape=tuple(d["patch_shape"]),
            stride=tuple(d["stride"]),
            padding=tuple(d["padding"]),
            windows=tuple(BBox(tuple(lo), tuple(hi)) for lo, hi in d["windows"]),
        )


def _axis_starts(dim: int, patch: int, stride: int) -> list[int]:
    last = dim - patch
    starts = list(range(0, last + 1, stride))
    if starts[-1] != last:
        starts.append(last)
    return starts


def plan_tiling(volume_shape, patch_shape, stride) -> TilingPlan:
    """Enumerate covering windows; pads undersized volumes instead of failing."""
    volume_shape = tuple(int(n) for n in volume_shape)
    patch_shape = tuple(int(n) for n in patch_shape)
    stride = tuple(int(s) for s in stride)
    for s, p in zip(stride, patch_shape):
        if not 1 <= s <= p:
            raise ValueError(f"stride {stride} must be within [1, patch] {patch_shape}")
    if any(n <= 0 for n in volume_shape) or any(p <= 0 for p in patch_shape):
        raise ValueError("shapes must be positive")
    padding = tuple(max(0, p - n) for n, p in zip(volume_shape, patch_shape))
    padded = tuple(n + e for n, e in zip(volume_shape, padding))
    per_axis = [
        _axis_starts(d, p, s) for d, p, s in zip(padded, patch_shape, stride)
    ]
    windows = tuple(
        BBox((x, y, z), (x + patch_shape[0] - 1, y + patch_shape[1] - 1, z + patch_shape[2] - 1))
        for x in per_axis[0]
        for y in per_axis[1]
        for z in per_axis[2]
    )
    return TilingPlan(volume_shape, patch_shape, stride, padding, windows)
