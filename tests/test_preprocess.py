import numpy as np
import pytest

from bratsfuse.errors import EmptyVolume
from bratsfuse.preprocess import znorm
from bratsfuse.volume import Volume


class TestZnorm:
    def test_two_values(self):
        data = np.zeros((2, 2, 1))
        data[0, 0, 0] = 1.0
        data[1, 1, 0] = 3.0
        out = znorm(Volume(data))
        assert out.data[0, 0, 0] == pytest.approx(-1.0)  # mean 2, population std 1
        assert out.data[1, 1, 0] == pytest.approx(1.0)
        assert out.data[0, 1, 0] == 0.0  # background untouched

    def test_constant_support_guard(self):
        data = np.zeros((3, 3, 3))
        data[1, 1, 1] = 5.0
        data[0, 0, 0] = 5.0
        out = znorm(Volume(data))
        assert not out.data.any()

    def test_empty_raises(self):
        with pytest.raises(EmptyVolume):
            znorm(Volume(np.zeros((2, 2, 2))))

    def test_statistics_on_support(self, rng):
        data = np.where(rng.random((8, 8, 8)) < 0.5, rng.random((8, 8, 8)) + 0.5, 0.0)
        out = znorm(Volume(data))
        support = data != 0
        assert abs(out.data[support].mean()) < 1e-6
        assert abs(out.data[support].std() - 1.0) < 1e-6

    def test_idempotent(self, rng):
        data = np.where(rng.random((6, 6, 6)) < 0.6, rng.random((6, 6, 6)) + 0.5, 0.0)
        once = znorm(Volume(data))
        assume_ok = not np.any(np.isclose(once.data[data != 0], 0.0))
        if assume_ok:  # exact-mean voxels would change the support
            twice = znorm(once)
            assert np.abs(twice.data - once.data).max() < 1e-6

