"""Linear measurement operators A : R^{m x n} -> R^p and spectrum probes.

Three operator families are provided: identity vectorization (``full``),
entrywise subsampling without replacement (``mask``), and dense Gaussian
sketches (``gaussian``). All of them share the column-major (order="F")
vectorization convention. Operators are immutable; each knows its exact norm,
which a Gaussian operator computes once, from the smaller Gram of its matrix.

An operator has one dense form, its (p, m, n) measurement tensor T with
A(X)_q = sum_ij T[q, i, j] X[i, j]: G itself for a Gaussian operator, and
one apply per basis matrix otherwise. The module uses it to estimate
restricted eigenvalue brackets
    alpha <= ||A(X)||^2 / ||X||_F^2 <= beta   for all rank-k X != 0
in closed form for ``full`` and ``mask``, from the Gram spectrum of T's
p x (m*n) matrix when rank k is unrestricted and small, and otherwise by
Monte Carlo with alternating refinement, each step one dense
eigendecomposition of T restricted to one free factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import Array


class SamplingOperator:
    """Base class: apply/adjoint pair with shape checks.

    The operators do not scan for NaN or infinity: finiteness is checked
    where data enters the package, and the solver guards its own iterates.

    Subclasses set ``kind`` and implement ``_apply``, ``_adjoint`` and
    ``operator_norm``. Operators are immutable, so a norm may be kept.
    """

    kind: str = "abstract"

    def __init__(self, m: int, n: int, p: int):
        if m < 1 or n < 1 or p < 1:
            raise ValueError(f"bad operator dimensions m={m}, n={n}, p={p}")
        self.m = int(m)
        self.n = int(n)
        self.p = int(p)

    def apply(self, X) -> Array:
        X = np.asarray(X, dtype=float)
        if X.shape != (self.m, self.n):
            raise ValueError(f"expected shape {(self.m, self.n)}, got {X.shape}")
        return self._apply(X)

    def adjoint(self, y) -> Array:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.p,):
            raise ValueError(f"expected length-{self.p} vector, got shape {y.shape}")
        return self._adjoint(y)

    def _apply(self, X: Array) -> Array:
        raise NotImplementedError

    def _adjoint(self, y: Array) -> Array:
        raise NotImplementedError

    def operator_norm(self) -> float:
        """Exact spectral norm ||A|| = max ||A(X)|| over unit-Frobenius X."""
        raise NotImplementedError


class FullOperator(SamplingOperator):
    """Identity measurements: A(X) = vec(X) in column-major order."""

    kind = "full"

    def __init__(self, m: int, n: int):
        super().__init__(m, n, m * n)

    def _apply(self, X: Array) -> Array:
        return X.flatten(order="F")

    def _adjoint(self, y: Array) -> Array:
        return y.reshape((self.m, self.n), order="F")

    def operator_norm(self) -> float:
        return 1.0


class UniformMaskOperator(SamplingOperator):
    """Observe p distinct entries: A(X)_q = X[rows[q], cols[q]].

    A*A is the orthogonal projection onto the observed support, so the
    operator norm is exactly 1.
    """

    kind = "mask"

    def __init__(self, m: int, n: int, rows, cols):
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("rows and cols must be 1-D arrays of equal length")
        super().__init__(m, n, rows.size)
        if rows.size and (rows.min() < 0 or rows.max() >= m):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("column index out of range")
        flat = rows * n + cols
        if np.unique(flat).size != flat.size:
            raise ValueError("mask contains duplicate entries")
        self.rows = rows
        self.cols = cols

    @classmethod
    def from_ratio(cls, m: int, n: int, ratio: float, rng) -> "UniformMaskOperator":
        """Sample round(ratio * m * n) entries uniformly without replacement."""
        if not 0 < ratio <= 1:
            raise ValueError(f"sampling ratio must lie in (0, 1], got {ratio}")
        p = int(round(ratio * m * n))
        if p < 1:
            raise ValueError(f"ratio {ratio} gives an empty mask for {m}x{n}")
        flat = rng.choice(m * n, size=p, replace=False)
        rows, cols = np.unravel_index(flat, (m, n))
        return cls(m, n, rows, cols)

    def _apply(self, X: Array) -> Array:
        return X[self.rows, self.cols]

    def _adjoint(self, y: Array) -> Array:
        Z = np.zeros((self.m, self.n))
        Z[self.rows, self.cols] = y
        return Z

    def operator_norm(self) -> float:
        return 1.0


class GaussianOperator(SamplingOperator):
    """p dense Gaussian measurements A(X)_q = <G_q, X>, G_q ~ N(0, 1/p) entrywise."""

    kind = "gaussian"
    # Set by the first operator_norm(); a class default as from_matrices skips __init__.
    _norm: float | None = None

    def __init__(self, m: int, n: int, p: int, seed: int):
        super().__init__(m, n, p)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.G = rng.standard_normal((p, m, n)) / np.sqrt(p)

    @classmethod
    def from_matrices(cls, G) -> "GaussianOperator":
        """Build from an explicit (p, m, n) stack; used by tests with known matrices."""
        G = np.asarray(G, dtype=float)
        if G.ndim != 3:
            raise ValueError("G must have shape (p, m, n)")
        op = cls.__new__(cls)
        SamplingOperator.__init__(op, G.shape[1], G.shape[2], G.shape[0])
        op.seed = -1
        op.G = G.copy()
        return op

    def _apply(self, X: Array) -> Array:
        return np.tensordot(self.G, X, axes=([1, 2], [0, 1]))

    def _adjoint(self, y: Array) -> Array:
        return np.tensordot(y, self.G, axes=(0, 0))

    def operator_norm(self) -> float:
        """Largest singular value of S = G.reshape(p, m*n), computed once.

        It is the root of the top eigenvalue of the smaller Gram, S S^T or
        S^T S, which has min(p, m*n)^2 <= p*m*n entries, so never more than G.
        """
        if self._norm is None:
            S = self.G.reshape(self.p, -1)
            gram = S @ S.T if self.p <= S.shape[1] else S.T @ S
            top = np.linalg.eigvalsh(gram)[-1]
            self._norm = float(np.sqrt(max(top, 0.0)))
        return self._norm


@dataclass(frozen=True)
class RestrictedEigEstimate:
    """Brackets for the rank-k restricted eigenvalues of A*A.

    Guarantees alpha_lower <= alpha_k <= alpha_upper and
    beta_lower <= beta_k <= beta_upper; the exact methods have zero-width
    brackets.
    """

    k: int
    alpha_lower: float
    alpha_upper: float
    beta_lower: float
    beta_upper: float
    samples: int
    method: str


def _orthonormalize(F: Array) -> Array:
    """Orthonormal basis with the same column count as F (jitter if degenerate)."""
    Q, R = np.linalg.qr(F)
    diag = np.abs(np.diag(R))
    if diag.size and diag.min() <= 1e-12 * max(diag.max(), 1e-300):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(F + 1e-10 * rng.standard_normal(F.shape))
    return Q


def _measurement_tensor(op: SamplingOperator) -> Array:
    """The dense form of op: (p, m, n) T with A(X)_q = sum_ij T[q, i, j] X[i, j].

    G itself for a Gaussian operator; otherwise one apply per basis matrix.
    """
    if isinstance(op, GaussianOperator):
        return op.G
    T = np.empty((op.p, op.m, op.n))
    E = np.zeros((op.m, op.n))
    for i in range(op.m):
        for j in range(op.n):
            E[i, j] = 1.0
            T[:, i, j] = op.apply(E)
            E[i, j] = 0.0
    return T


def _refine_factor(T: Array, Q: Array, side: str, want_max: bool):
    """Exactly optimize ||A(X)||^2 over unit-Frobenius X with one factor fixed.

    T is the operator's measurement tensor (``_measurement_tensor``).
    side="right": X = F @ Q.T with Q (n x k) orthonormal, optimize F (m x k).
    side="left":  X = Q @ F.T with Q (m x k) orthonormal, optimize F (n x k).
    A restricted to the free factor is the p x (rows*k) matrix
    B = (T @ Q), or (T^T @ Q) on the left, acting on F flattened row-major,
    so the extremal eigenpair of B^T B is the exact optimum. Returns
    (value, X) with ||X||_F = 1 and ||A(X)||^2 = value.
    """
    k = Q.shape[1]
    B = T @ Q if side == "right" else T.transpose(0, 2, 1) @ Q
    rows = B.shape[1]
    B = B.reshape(B.shape[0], rows * k)
    w, vecs = np.linalg.eigh(B.T @ B)
    idx = -1 if want_max else 0
    F = vecs[:, idx].reshape(rows, k)
    return max(float(w[idx]), 0.0), (F @ Q.T if side == "right" else Q @ F.T)


def _refined_rayleigh(T: Array, L0: Array, want_max: bool) -> float:
    """Alternating exact refinement of ||A(RL^T)||^2 / ||RL^T||_F^2 from L0.

    Three times over, one factor's column space is fixed (first L0's) and
    the other solved for exactly with ``_refine_factor``. Every such value
    is attained by a rank-k X, so each is a valid one-sided bound; the best
    is returned.
    """
    fixed, side = L0, "right"
    vals = []
    for _ in range(3):
        Q = _orthonormalize(fixed)
        val, X = _refine_factor(T, Q, side, want_max)
        vals.append(val)
        if side == "right":
            # X = F Q^T: next sweep fixes the left factor of X.
            fixed, side = X @ Q, "left"
        else:
            fixed, side = X.T @ Q, "right"
    return max(vals) if want_max else min(vals)


def estimate_restricted_eigs(op: SamplingOperator, k: int, samples: int = 8,
                             seed: int = 0) -> RestrictedEigEstimate:
    """Bracket the restricted eigenvalues of A*A over rank-k matrices.

    Exact for the full operator (alpha = beta = 1) and for a mask, where
    A*A projects onto the observed entries: beta = 1 (an observed e_i e_j^T)
    and alpha = 0 (a missed e_i e_j^T), or 1 if every entry is observed.
    Exact via the Gram spectrum of S, the p x (m*n) matrix of the
    measurement tensor in vec_F order, when k = min(m, n) with m*n <= 400
    (rank-k is then unrestricted). Otherwise Monte Carlo: each sample starts
    from a random rank-k factor pair and is refined by alternating exact
    single-factor eigenproblems, once toward the minimum and once toward the
    maximum, so alpha_upper and beta_lower are one-sided; beta_upper is
    ||A||^2, which bounds beta_k for every k. Every random draw comes from
    ``seed``, so equal arguments give equal estimates.
    """
    if not 1 <= k <= min(op.m, op.n):
        raise ValueError(f"k must lie in [1, {min(op.m, op.n)}], got {k}")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if isinstance(op, FullOperator):
        return RestrictedEigEstimate(k, 1.0, 1.0, 1.0, 1.0, 0, "exact-full")
    if isinstance(op, UniformMaskOperator):
        alpha = 1.0 if op.p == op.m * op.n else 0.0
        return RestrictedEigEstimate(k, alpha, alpha, 1.0, 1.0, 0, "exact-mask")
    T = _measurement_tensor(op)
    if k == min(op.m, op.n) and op.m * op.n <= 400:
        # Any column order gives this spectrum up to rounding; vec_F is the
        # operators' own vectorization order.
        S = T.transpose(0, 2, 1).reshape(op.p, op.m * op.n)
        w = np.linalg.eigvalsh(S.T @ S)
        lo, hi = max(float(w[0]), 0.0), max(float(w[-1]), 0.0)
        return RestrictedEigEstimate(k, lo, lo, hi, hi, 0, "exact-dense")

    beta_upper = op.operator_norm() ** 2
    alpha_upper = np.inf
    beta_lower = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        # The first sweep solves for the left factor exactly, so only the
        # right start L0 matters; the left draw keeps the seeded stream.
        rng.standard_normal((op.m, k))
        L0 = rng.standard_normal((op.n, k))
        alpha_upper = min(alpha_upper, _refined_rayleigh(T, L0, want_max=False))
        beta_lower = max(beta_lower, _refined_rayleigh(T, L0, want_max=True))
    beta_lower = min(beta_lower, beta_upper)
    alpha_upper = max(min(alpha_upper, beta_upper), 0.0)
    return RestrictedEigEstimate(k, 0.0, alpha_upper, beta_lower, beta_upper,
                                 samples, "monte-carlo")


def check_restricted_inner_product(op: SamplingOperator, alpha: float, beta: float,
                                   X, Y) -> float:
    """Slack of the restricted inner-product bound for a concrete pair.

        ((beta - alpha)/(beta + alpha)) ||X||_F ||Y||_F
            - | (2/(alpha + beta)) <A(X), A(Y)> - <X, Y> |

    Nonnegative slack means the pair satisfies the bound. Requires
    0 <= alpha <= beta with beta > 0.
    """
    if not (0 <= alpha <= beta) or beta <= 0:
        raise ValueError(f"need 0 <= alpha <= beta with beta > 0, got {alpha}, {beta}")
    X = linalg.as_matrix(X, "X")
    Y = linalg.as_matrix(Y, "Y")
    ax, ay = op.apply(X), op.apply(Y)
    lhs = abs(2.0 / (alpha + beta) * float(ax @ ay) - float(np.sum(X * Y)))
    bound = (beta - alpha) / (beta + alpha) * np.linalg.norm(X) * np.linalg.norm(Y)
    return float(bound - lhs)
