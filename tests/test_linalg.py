import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from l20factor import linalg

import oracles


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError, match="2-D"):
        linalg.as_matrix(np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        linalg.as_matrix([[np.nan, 1.0]])


def test_svd_diagonal():
    dec = linalg.svd(np.diag([3.0, 1.0]))
    assert_allclose(dec.sigma, [3.0, 1.0])
    assert_allclose(np.abs(dec.P), np.eye(2), atol=1e-14)


def test_svd_ones_matrix():
    dec = linalg.svd(np.ones((4, 4)))
    assert_allclose(dec.sigma, [4.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 4))
    dec = linalg.svd(X)
    assert_allclose((dec.P * dec.sigma) @ dec.Q.T, X, atol=1e-12 * dec.sigma[0])
    assert_allclose(dec.P.T @ dec.P, np.eye(4), atol=1e-13)
    assert_allclose(dec.Q.T @ dec.Q, np.eye(4), atol=1e-13)
    assert np.all(np.diff(dec.sigma) <= 0)


def test_l20_norm_examples():
    assert linalg.l20_norm(np.zeros((3, 3))) == 0
    assert linalg.l20_norm(np.eye(3)) == 3
    X = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
    assert linalg.l20_norm(X) == 2
    Y = np.array([[1.0, 0.9e-8, 1.1e-8]])  # on either side of 1e-8 * ||Y||_F
    assert linalg.l20_norm(Y) == linalg._column_count(Y) == 2


def test_l20_norm_matches_bruteforce():
    rng = np.random.default_rng(4)
    for _ in range(5):
        X = rng.standard_normal((3, 4))
        X[:, rng.integers(0, 4)] = 0.0
        assert linalg.l20_norm(X) == oracles.l20_bruteforce(X)
        assert linalg._column_count(X) == linalg.l20_norm(X)


def test_numerical_rank():
    assert linalg.numerical_rank(np.array([4.0, 2.0, 1e-12])) == 2
    assert linalg.numerical_rank(np.array([0.0, 0.0])) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 6))
def test_svd_roundtrip_property(seed, m, n):
    X = np.random.default_rng(seed).standard_normal((m, n))
    dec = linalg.svd(X)
    scale = max(dec.sigma[0], 1.0)
    assert np.linalg.norm((dec.P * dec.sigma) @ dec.Q.T - X) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(1, 5))
def test_l20_invariance_property(seed, m, kappa):
    """Column count is invariant to column permutation and sign flips."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, kappa))
    X[:, rng.random(kappa) < 0.4] = 0.0
    perm = rng.permutation(kappa)
    signs = rng.choice([-1.0, 1.0], size=kappa)
    assert linalg.l20_norm(X[:, perm] * signs) == linalg.l20_norm(X)
