import numpy as np
import pytest

from bratsfuse.volume import LabelMap, ProbMap


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_labelmap(rng, shape, spacing=(1.0, 1.0, 1.0)) -> LabelMap:
    labels = np.array([0, 1, 2, 4], dtype=np.uint8)
    return LabelMap(labels[rng.integers(0, 4, size=shape)], spacing)


def random_probmap(rng, shape, spacing=(1.0, 1.0, 1.0)) -> ProbMap:
    raw = rng.random((4,) + tuple(shape))
    raw /= raw.sum(axis=0, keepdims=True)
    return ProbMap(raw, spacing)


def random_mask(rng, shape, density=0.5) -> np.ndarray:
    return rng.random(shape) < density
