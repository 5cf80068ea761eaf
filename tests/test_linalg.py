import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from l20factor import linalg
from l20factor.harness import ExperimentConfig, gen_instance

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


# ------------------------------------------------------------- top_svd

# The benchmark workloads' instances (the two mask workloads share X0) and
# the harness tests' default small instance.
_X0_CONFIGS = [
    dict(m=300, n=300, r=5, kappa=15, sample_ratio=0.25, operator_kind="mask"),
    dict(m=40, n=40, r=2, kappa=6, sample_ratio=0.4, operator_kind="gaussian"),
    dict(m=60, n=60, r=2, kappa=4, sample_ratio=0.4, operator_kind="mask"),
]


@pytest.mark.parametrize("config", _X0_CONFIGS, ids=["mask-300", "gauss-40", "small"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_top_svd_sigma1_is_the_spectral_norm(config, seed):
    """sigma_1 of X0 = A*(b)'s decomposition at the instance's kappa, the
    rules' specnorm(X0), agrees with numpy's ||X0||_2 to 1e-14 relative."""
    cfg = ExperimentConfig(**config, seed=seed)
    _, op, b = gen_instance(cfg)
    X0 = op.adjoint(b)
    norm2 = np.linalg.norm(X0, 2)
    assert abs(linalg.top_svd(X0, cfg.kappa).sigma[0] - norm2) <= 1e-14 * norm2


@pytest.mark.parametrize("m,n", [(50, 40), (40, 50), (80, 30)], ids=["tall", "wide", "thin"])
def test_top_svd_reproduces_a_low_rank_matrix(m, n):
    """An exactly rank-r X is reproduced to rounding by its top-k triples
    (k >= r), with orthonormal P and Q, w = k + 10 columns, and values
    past r at rounding level; two calls are bitwise equal."""
    rng = np.random.default_rng(7)
    r, k = 3, 5
    X = rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T
    dec = linalg.top_svd(X, k)
    w = k + 10
    assert dec.P.shape == (m, w) and dec.Q.shape == (n, w) and dec.sigma.shape == (w,)
    scale = dec.sigma[0]
    assert np.linalg.norm((dec.P * dec.sigma) @ dec.Q.T - X) <= 1e-13 * scale
    assert np.linalg.norm((dec.P[:, :r] * dec.sigma[:r]) @ dec.Q[:, :r].T - X) \
        <= 1e-13 * scale
    assert_allclose(dec.P.T @ dec.P, np.eye(w), atol=1e-13)
    assert_allclose(dec.Q.T @ dec.Q, np.eye(w), atol=1e-13)
    assert np.all(np.diff(dec.sigma) <= 0)
    assert linalg.numerical_rank(dec.sigma) == r
    assert_allclose(dec.sigma[:r], np.linalg.svd(X, compute_uv=False)[:r],
                    rtol=1e-13)
    again = linalg.top_svd(X, k)
    for a, b in ((dec.P, again.P), (dec.sigma, again.sigma), (dec.Q, again.Q)):
        assert np.array_equal(a, b)


def test_top_svd_at_full_width_is_the_thin_svd():
    """When w = min(k + 10, m, n) reaches min(m, n), the subspace is the
    whole space and the result is ``svd``'s, bitwise: at k = min(m, n) and
    at any k on a matrix with a side of at most 10 + k, such as 1 x n."""
    rng = np.random.default_rng(8)
    for shape, k in (((30, 12), 12), ((12, 30), 12), ((30, 8), 1), ((1, 9), 1),
                     ((9, 1), 1)):
        X = rng.standard_normal(shape)
        dec, full = linalg.top_svd(X, k), linalg.svd(X)
        for a, b in ((dec.P, full.P), (dec.sigma, full.sigma), (dec.Q, full.Q)):
            assert np.array_equal(a, b)


def test_top_svd_kappa_one_and_zero_input():
    """k = 1 gives sigma_1 to rounding on a rank-2 signal plus noise, a
    spectrum with a gap like X0's; X = 0 gives all-zero values with
    orthonormal P and Q; k outside [1, min(m, n)] is a ValueError."""
    rng = np.random.default_rng(9)
    X = rng.standard_normal((40, 2)) @ rng.standard_normal((25, 2)).T \
        + 0.1 * rng.standard_normal((40, 25))
    dec = linalg.top_svd(X, 1)
    assert dec.sigma.size == 11
    norm2 = np.linalg.norm(X, 2)
    assert abs(dec.sigma[0] - norm2) <= 1e-14 * norm2
    zero = linalg.top_svd(np.zeros((40, 25)), 3)
    assert np.all(zero.sigma == 0.0) and linalg.numerical_rank(zero.sigma) == 0
    assert_allclose(zero.P.T @ zero.P, np.eye(13), atol=1e-14)
    for k in (0, 26):
        with pytest.raises(ValueError, match=r"k must lie in \[1, 25\]"):
            linalg.top_svd(X, k)
