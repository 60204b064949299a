"""Shared test configuration.

Thread pinning must happen before numpy loads its BLAS so that timing tests
and bit-exact reruns see a single compute thread.
"""

import os

from lightcnn import THREAD_VARS

for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from lightcnn import tensor  # noqa: E402


@pytest.fixture
def f64():
    """Run a test in float64 mode; pytest_configure makes NaN/Inf raise."""
    with tensor.using_dtype("float64"):
        yield


@pytest.fixture
def rng():
    return tensor.Rng(1234)


def pytest_configure(config):
    np.seterr(over="raise", invalid="raise", divide="raise", under="ignore")
