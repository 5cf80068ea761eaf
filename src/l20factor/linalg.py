"""Dense linear algebra helpers shared by the rest of the package.

``as_matrix`` and ``as_vector`` check data where it enters the package
(factor pairs, model specs, loaders, public evaluators): real inputs of the
right dimension, finite entries, informative shape errors. ``svd`` falls
back to gesvd when the default LAPACK routine fails; ``top_svd`` gives the
leading triples from a seeded block subspace iteration, whose small SVD
takes the same fallback. ``l20_norm`` and ``numerical_rank`` count columns
and singular values above the package's fixed zero tolerances
(1e-8 * max(1, ||X||_F) and 1e-8 * sigma_1).
``l20_norm`` is ``as_matrix`` over the unchecked ``_column_count``, which
the solver calls on iterates it has checked itself; ``_live_columns`` is
that count's column mask. ``svd`` and ``top_svd`` are ``as_matrix`` over
``_svd`` and ``_top_svd``, which the package calls on matrices it has
checked. Norms are numpy's, called directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def as_matrix(X, name: str = "X") -> Array:
    """Coerce to a float64 2-D array, rejecting bad shapes and non-finite entries.

    Parameters
    ----------
    X : array_like
        Input to validate.
    name : str
        Label used in error messages.
    """
    A = np.asarray(X, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def as_vector(y, name: str = "y") -> Array:
    """Coerce to a float64 1-D array with finite entries."""
    v = np.asarray(y, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class SvdResult:
    """Thin singular value decomposition X = P @ diag(sigma) @ Q.T, or its
    leading k triples.

    P is m x k and Q is n x k with orthonormal columns; sigma is
    nonincreasing and nonnegative. ``svd`` gives k = min(m, n); ``top_svd``
    may give fewer, X's leading k triples.
    """

    P: Array
    sigma: Array
    Q: Array


def svd(X) -> SvdResult:
    """Thin SVD with a gesvd fallback if the default driver fails to converge."""
    return _svd(as_matrix(X))


def _svd(A: Array) -> SvdResult:
    """``svd`` of a float64 matrix the caller has checked."""
    try:
        P, s, Qh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails on ill-conditioned inputs; gesvd is slower
        # but more robust.
        from scipy.linalg import svd as scipy_svd

        P, s, Qh = scipy_svd(A, full_matrices=False, lapack_driver="gesvd")
    return SvdResult(P=P, sigma=s, Q=Qh.T)


# Extra columns of top_svd's test matrix past the k triples asked for, its
# power steps and the seed of its Gaussian draw.
_OVERSAMPLE = 10
_POWER_STEPS = 8
_TOP_SVD_SEED = 0


def top_svd(X, k: int) -> SvdResult:
    """X's leading w = min(k + 10, m, n) singular triples, for 1 <= k <= min(m, n).

    A block subspace iteration (Halko, Martinsson and Tropp, "Finding
    structure with randomness", SIAM Review 53, 2011): a Gaussian test
    matrix of width w from a fixed seed, 8 power steps, each half
    re-orthonormalized by QR, then the small SVD of Q^T X. The draw is
    seeded, so equal inputs give bitwise-equal results. The values are
    lower bounds on X's; sigma_1 agrees with ||X||_2 to rounding when it
    stands clear of sigma_{w+1}, as on the rank-r signal of X0 = A*(b)
    (on a spectrum with no gap, such as a square Gaussian matrix's, only to
    about 1e-9), and an X of rank below w is reproduced to rounding. When
    w reaches min(m, n) the subspace is the whole space, so the result is
    X's thin SVD itself.
    """
    A = as_matrix(X)
    if not 1 <= k <= min(A.shape):
        raise ValueError(f"k must lie in [1, {min(A.shape)}], got {k}")
    return _top_svd(A, k)


def _top_svd(A: Array, k: int) -> SvdResult:
    """``top_svd`` of a float64 matrix the caller has checked, with
    1 <= k <= min(m, n)."""
    m, n = A.shape
    w = min(k + _OVERSAMPLE, m, n)
    if w == min(m, n):
        return _svd(A)
    omega = np.random.default_rng(_TOP_SVD_SEED).standard_normal((n, w))
    Q = np.linalg.qr(A @ omega)[0]
    for _ in range(_POWER_STEPS):
        Q = np.linalg.qr(A @ np.linalg.qr(A.T @ Q)[0])[0]
    dec = _svd(Q.T @ A)
    return SvdResult(P=Q @ dec.P, sigma=dec.sigma, Q=dec.Q)


def default_zero_tol(X) -> float:
    """Column-is-zero tolerance: 1e-8 * max(1, ||X||_F)."""
    return 1e-8 * max(1.0, float(np.linalg.norm(X)))


def l20_norm(X) -> int:
    """Number of columns with Euclidean norm above 1e-8 * max(1, ||X||_F),
    the :func:`default_zero_tol` of X."""
    return _column_count(as_matrix(X))


def _column_count(A: Array) -> int:
    """``l20_norm`` of a float64 matrix the caller has checked."""
    return int(np.count_nonzero(_live_columns(A)))


def _live_columns(A: Array) -> Array:
    """Mask of the columns of a checked float64 matrix that ``l20_norm``
    counts: Euclidean norm above ``default_zero_tol(A)``."""
    return np.linalg.norm(A, axis=0) > default_zero_tol(A)


def numerical_rank(sigma: Array) -> int:
    """Rank implied by a nonincreasing singular value vector: the count of
    sigma_i > 1e-8 * sigma_1, and 0 when sigma is empty or sigma_1 <= 0."""
    s = np.asarray(sigma, dtype=float)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.count_nonzero(s > 1e-8 * s[0]))
