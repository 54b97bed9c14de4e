import numpy as np
import pytest

from gaussworld.core import ClassConfig, GaussianScene


def random_scene(rng, n, num_classes=3, lo=0.5, hi=3.5, scale_range=(0.2, 0.8)):
    means = rng.uniform(lo, hi, (n, 3))
    log_scales = rng.uniform(np.log(scale_range[0]), np.log(scale_range[1]), (n, 3))
    rotations = rng.normal(size=(n, 4))
    logits = rng.normal(size=(n, num_classes))
    names = tuple(f"c{i}" for i in range(num_classes))
    return GaussianScene(means, log_scales, rotations, logits, names)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def cfg3():
    return ClassConfig(3)
