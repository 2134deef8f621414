"""The sparse generators agree with the dense fixtures of the library's tests."""

import importlib.util
import os

import numpy as np
import pytest

from problems import bumped_band, poisson_2d

_CONFTEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "conftest.py")


@pytest.fixture(scope="module")
def dense():
    spec = importlib.util.spec_from_file_location("dense_fixtures", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_poisson_matches_dense_laplacian(dense, m):
    np.testing.assert_array_equal(poisson_2d(m).toarray(), dense.laplacian_2d(m))
    shifted = poisson_2d(m, shift=0.01).toarray()
    np.testing.assert_array_equal(shifted, dense.laplacian_2d(m) + 0.01 * np.eye(m * m))


@pytest.mark.parametrize("n,seed", [(20, 0), (60, 3), (200, 7)])
def test_bumped_band_matches_dense(dense, n, seed):
    got = bumped_band(n, seed=seed)
    want = dense.bumped_band(n, seed=seed)
    # duplicates are summed in another order than the dense += sequence
    np.testing.assert_allclose(got.toarray(), want, rtol=0, atol=1e-14 * np.abs(want).max())
    assert got.has_canonical_format
    np.testing.assert_array_equal(got.toarray(), got.toarray().T)
