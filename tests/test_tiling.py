import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratsfuse.tiling import TilingPlan, plan_tiling


class TestPlan:
    def test_reference_plan_twelve_windows(self):
        plan = plan_tiling((192, 224, 160), (128, 128, 128), (64, 64, 64))
        xs = sorted({w.lo[0] for w in plan.windows})
        ys = sorted({w.lo[1] for w in plan.windows})
        zs = sorted({w.lo[2] for w in plan.windows})
        assert xs == [0, 64]
        assert ys == [0, 64, 96]
        assert zs == [0, 32]
        assert len(plan.windows) == 12
        assert plan.padding == (0, 0, 0)

    def test_patch_equals_volume(self):
        plan = plan_tiling((20, 20, 20), (20, 20, 20), (20, 20, 20))
        assert len(plan.windows) == 1
        assert plan.windows[0].lo == (0, 0, 0)

    def test_undersized_volume_padded(self):
        plan = plan_tiling((100, 100, 100), (128, 128, 128), (64, 64, 64))
        assert len(plan.windows) == 1
        assert plan.padding == (28, 28, 28)
        assert plan.padded_shape == (128, 128, 128)

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            plan_tiling((10, 10, 10), (4, 4, 4), (5, 4, 4))
        with pytest.raises(ValueError):
            plan_tiling((10, 10, 10), (4, 4, 4), (0, 4, 4))

    def test_json_roundtrip(self):
        plan = plan_tiling((30, 20, 10), (8, 8, 8), (4, 6, 8))
        assert TilingPlan.from_json(plan.to_json()) == plan


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(*(st.integers(1, 12),) * 3),
    patch=st.tuples(*(st.integers(1, 8),) * 3),
    data=st.data(),
)
def test_coverage_property(shape, patch, data):
    stride = tuple(data.draw(st.integers(1, p)) for p in patch)
    plan = plan_tiling(shape, patch, stride)
    covered = np.zeros(plan.padded_shape, dtype=bool)
    for w in plan.windows:
        covered[w.slices()] = True
    assert covered.all()
    for w in plan.windows:
        assert w.shape == tuple(patch)
        assert all(h < n for h, n in zip(w.hi, plan.padded_shape))
