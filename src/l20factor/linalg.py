"""Dense linear algebra helpers shared by the rest of the package.

Thin wrappers around numpy/LAPACK that add input validation: real 2-D
inputs, finite entries, informative shape errors. ``as_matrix`` and
``as_vector`` check data where it enters the package (factor pairs, model
specs, loaders, public evaluators); each helper validates once per call.
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
    """Thin singular value decomposition X = P @ diag(sigma) @ Q.T.

    P is m x k, Q is n x k with k = min(m, n); sigma is nonincreasing
    and nonnegative.
    """

    P: Array
    sigma: Array
    Q: Array

    def reconstruct(self) -> Array:
        return (self.P * self.sigma) @ self.Q.T


def svd(X) -> SvdResult:
    """Thin SVD with a gesvd fallback if the default driver fails to converge."""
    A = as_matrix(X)
    try:
        P, s, Qh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails on ill-conditioned inputs; gesvd is slower
        # but more robust.
        from scipy.linalg import svd as scipy_svd

        P, s, Qh = scipy_svd(A, full_matrices=False, lapack_driver="gesvd")
    return SvdResult(P=P, sigma=s, Q=Qh.T)


def spectral_norm(X) -> float:
    """Largest singular value."""
    A = as_matrix(X)
    return float(np.linalg.norm(A, 2))


def frobenius_norm(X) -> float:
    A = as_matrix(X)
    return float(np.linalg.norm(A))


def column_norms(X) -> Array:
    """Euclidean norm of each column, as a 1-D array of length n."""
    A = as_matrix(X)
    return np.linalg.norm(A, axis=0)


def default_zero_tol(X) -> float:
    """Column-is-zero tolerance: 1e-8 * max(1, ||X||_F)."""
    return 1e-8 * max(1.0, frobenius_norm(X))


def l20_norm(X, tol: float | None = None) -> int:
    """Number of columns with Euclidean norm above ``tol``.

    ``tol=None`` uses :func:`default_zero_tol`. ``tol`` must be nonnegative.
    """
    A = as_matrix(X)
    if tol is None:
        tol = 1e-8 * max(1.0, float(np.linalg.norm(A)))
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    return int(np.count_nonzero(np.linalg.norm(A, axis=0) > tol))


def numerical_rank(sigma: Array, rel_tol: float = 1e-8) -> int:
    """Rank implied by a singular value vector: count of sigma_i > rel_tol * sigma_1."""
    s = np.asarray(sigma, dtype=float)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))
