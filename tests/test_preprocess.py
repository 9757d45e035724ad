import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bratsfuse.errors import ConstantVolume, EmptyVolume
from bratsfuse.preprocess import flip3d, gamma_transform, znorm
from bratsfuse.volume import LabelMap, Volume

from .conftest import random_labelmap


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


class TestFlip:
    def test_identity(self, rng):
        v = Volume(rng.random((3, 4, 5)))
        out = flip3d(v, (False, False, False))
        assert np.array_equal(out.data, v.data)

    def test_pair_order(self):
        v = Volume(np.array([1.0, 2.0]).reshape(2, 1, 1))
        out = flip3d(v, (True, False, False))
        assert out.data.reshape(-1).tolist() == [2.0, 1.0]

    def test_involution_and_commutation(self, rng):
        v = Volume(rng.random((4, 3, 2)))
        for axes in [(True, False, False), (False, True, True), (True, True, True)]:
            assert np.array_equal(flip3d(flip3d(v, axes), axes).data, v.data)
        ab = flip3d(flip3d(v, (True, False, False)), (False, False, True))
        ba = flip3d(flip3d(v, (False, False, True)), (True, False, False))
        assert np.array_equal(ab.data, ba.data)

    def test_labelmap_kind_preserved(self, rng):
        m = random_labelmap(rng, (3, 3, 3))
        out = flip3d(m, (False, True, False))
        assert isinstance(out, LabelMap)


class TestGamma:
    def test_identity_at_one(self, rng):
        v = Volume(rng.random((4, 4, 4)))
        out = gamma_transform(v, 1.0)
        assert np.abs(out.data - v.data).max() < 1e-12

    def test_hand_values(self):
        v = Volume(np.array([0.0, 0.25, 1.0]).reshape(3, 1, 1))
        out = gamma_transform(v, 2.0)
        assert out.data.reshape(-1).tolist() == pytest.approx([0.0, 0.0625, 1.0])

    def test_endpoints_fixed(self, rng):
        data = rng.random((5, 5, 5)) * 7 - 2
        v = Volume(data)
        for gamma in (0.3, 1.7, 4.0):
            out = gamma_transform(v, gamma)
            assert out.data.min() == pytest.approx(data.min())
            assert out.data.max() == pytest.approx(data.max())

    def test_monotone(self, rng):
        vals = np.sort(rng.random(60)).reshape(60, 1, 1)
        for gamma in (0.25, 0.9, 2.5):
            out = gamma_transform(Volume(vals), gamma).data.reshape(-1)
            assert (np.diff(out) >= -1e-12).all()

    def test_constant_raises(self):
        with pytest.raises(ConstantVolume):
            gamma_transform(Volume(np.full((2, 2, 2), 3.0)), 2.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.1, 5.0))
def test_gamma_monotone_property(seed, gamma):
    rng = np.random.default_rng(seed)
    vals = rng.random(40)
    assume(vals.max() > vals.min())
    order = np.argsort(vals)
    out = gamma_transform(Volume(vals.reshape(40, 1, 1)), gamma).data.reshape(-1)
    assert (np.diff(out[order]) >= -1e-12).all()
