"""Linear measurement operators A : R^{m x n} -> R^p and spectrum probes.

Three operator families are provided: identity vectorization (``full``),
entrywise subsampling without replacement (``mask``), and dense Gaussian
sketches (``gaussian``). All of them share the column-major (order="F")
vectorization convention.

The module also estimates restricted eigenvalue brackets
    alpha <= ||A(X)||^2 / ||X||_F^2 <= beta   for all rank-k X != 0
by exact dense computation where feasible and Monte Carlo with alternating
exact refinement otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import linalg
from .linalg import Array


class SamplingOperator:
    """Base class: apply/adjoint pair with shape checks.

    The operators do not scan for NaN or infinity: finiteness is checked
    where data enters the package, and the solver guards its own iterates.

    Subclasses set ``kind`` and implement ``_apply``, ``_adjoint`` and
    ``operator_norm``.
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

    def stacked(self) -> Array:
        """Dense p x (m*n) matrix S with A(X) = S @ vec_F(X)."""
        return self.G.transpose(0, 2, 1).reshape(self.p, self.m * self.n)

    def operator_norm(self, rel_tol: float = 1e-6, max_iters: int = 500) -> float:
        """Power iteration on A*A to relative accuracy ``rel_tol``."""
        rng = np.random.default_rng(0xA17)
        X = rng.standard_normal((self.m, self.n))
        X /= np.linalg.norm(X)
        val = 0.0
        for _ in range(max_iters):
            Y = self._adjoint(self._apply(X))
            new = float(np.sum(X * Y))
            nY = np.linalg.norm(Y)
            if nY == 0:
                return 0.0
            X = Y / nY
            if abs(new - val) <= rel_tol * max(new, 1e-300):
                return float(np.sqrt(new))
            val = new
        return float(np.sqrt(val))


def operator_matrix(op: SamplingOperator) -> Array:
    """Dense p x (m*n) matrix of the operator in the vec_F basis.

    Intended for oracles and small exact computations; cost is one apply per
    basis matrix except for kinds with a cheaper direct form.
    """
    if isinstance(op, GaussianOperator):
        return op.stacked()
    if isinstance(op, FullOperator):
        return np.eye(op.m * op.n)
    if isinstance(op, UniformMaskOperator):
        S = np.zeros((op.p, op.m * op.n))
        S[np.arange(op.p), op.cols * op.m + op.rows] = 1.0
        return S
    S = np.empty((op.p, op.m * op.n))
    for j in range(op.n):
        for i in range(op.m):
            E = np.zeros((op.m, op.n))
            E[i, j] = 1.0
            S[:, j * op.m + i] = op.apply(E)
    return S


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


def _refine_factor(op: SamplingOperator, Q: Array, side: str, want_max: bool,
                   rng: np.random.Generator):
    """Exactly optimize ||A(X)||^2 over unit-Frobenius X with one factor fixed.

    side="right": X = R @ Q.T with Q (n x k) orthonormal, optimize R (m x k).
    side="left":  X = Q @ C.T with Q (m x k) orthonormal, optimize C (n x k).
    Returns (value, X) at the exact extremal eigenpair of the induced
    quadratic form. Large forms go to ARPACK, started from a vector drawn
    from ``rng`` (uniform on [-1, 1], as ARPACK draws its own). If ARPACK
    converges no eigenvalue, the start vector's Rayleigh quotient and its X
    are returned: any rank-k X bounds alpha_k from above and beta_k from
    below, so the one-sided brackets stay valid.
    """
    k = Q.shape[1]
    rows = op.m if side == "right" else op.n

    def to_X(Fl):
        F = Fl.reshape((rows, k), order="F")
        return F @ Q.T if side == "right" else Q @ F.T

    def matvec(Fl):
        X = to_X(Fl)
        Z = op._adjoint(op._apply(X))
        F = Z @ Q if side == "right" else Z.T @ Q
        return F.flatten(order="F")

    dims = rows * k
    if dims <= 400:
        H = np.empty((dims, dims))
        eye = np.eye(dims)
        for c in range(dims):
            H[:, c] = matvec(eye[:, c])
        H = 0.5 * (H + H.T)
        w, vecs = np.linalg.eigh(H)
        idx = -1 if want_max else 0
        return max(float(w[idx]), 0.0), to_X(vecs[:, idx])

    cap = op.operator_norm() ** 2 + 1.0
    lin = scipy.sparse.linalg.LinearOperator(
        (dims, dims),
        matvec=(lambda v: matvec(v)) if want_max else (lambda v: cap * v - matvec(v)),
        dtype=float,
    )
    v0 = rng.uniform(-1.0, 1.0, dims)
    try:
        w, vecs = scipy.sparse.linalg.eigsh(lin, k=1, which="LA", tol=1e-10, v0=v0)
    except scipy.sparse.linalg.ArpackNoConvergence as err:
        if err.eigenvalues.size == 0:
            v0 /= np.linalg.norm(v0)
            return max(float(v0 @ matvec(v0)), 0.0), to_X(v0)
        w, vecs = err.eigenvalues, err.eigenvectors
    val = float(w[0]) if want_max else cap - float(w[0])
    return max(val, 0.0), to_X(vecs[:, 0])


def _refined_rayleigh(op: SamplingOperator, R0: Array, L0: Array, want_max: bool,
                      rng: np.random.Generator, sweeps: int = 3) -> float:
    """Alternating exact refinement of ||A(RL^T)||^2 / ||RL^T||_F^2.

    Returns the best sweep value. Exact sweeps improve monotonically, so
    that is the last one, unless a sweep fell back to its start vector.
    """
    X = R0 @ L0.T
    fixed, side = L0, "right"
    vals = []
    for _ in range(sweeps):
        Q = _orthonormalize(fixed)
        val, X = _refine_factor(op, Q, side, want_max, rng)
        vals.append(val)
        if side == "right":
            # X = R Q^T: next sweep fixes the left factor of X.
            fixed, side = X @ Q, "left"
        else:
            fixed, side = X.T @ Q, "right"
    return max(vals) if want_max else min(vals)


def estimate_restricted_eigs(op: SamplingOperator, k: int, samples: int = 8,
                             seed: int = 0) -> RestrictedEigEstimate:
    """Bracket the restricted eigenvalues of A*A over rank-k matrices.

    Exact for the full operator (alpha = beta = 1) and, when k = min(m, n)
    with m*n <= 400, via the dense Gram spectrum (rank-k is then
    unrestricted). Otherwise Monte Carlo: each sample starts from a random
    rank-k factor pair and is refined by alternating exact single-factor
    eigenproblems, once toward the minimum and once toward the maximum.
    Every random draw, ARPACK's start vectors included, comes from ``seed``,
    so equal arguments give equal estimates.
    """
    if not 1 <= k <= min(op.m, op.n):
        raise ValueError(f"k must lie in [1, {min(op.m, op.n)}], got {k}")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if isinstance(op, FullOperator):
        return RestrictedEigEstimate(k, 1.0, 1.0, 1.0, 1.0, 0, "exact-full")
    if k == min(op.m, op.n) and op.m * op.n <= 400:
        S = operator_matrix(op)
        w = np.linalg.eigvalsh(S.T @ S)
        lo, hi = max(float(w[0]), 0.0), max(float(w[-1]), 0.0)
        return RestrictedEigEstimate(k, lo, lo, hi, hi, 0, "exact-dense")

    beta_upper = op.operator_norm() ** 2
    alpha_upper = np.inf
    beta_lower = 0.0
    # ARPACK start vectors get their own child stream, so the sample pairs
    # drawn from root do not depend on how many factor problems use ARPACK.
    seq = np.random.SeedSequence(seed)
    root = np.random.default_rng(seq)
    starts = np.random.default_rng(seq.spawn(1)[0])
    for _ in range(samples):
        R0 = root.standard_normal((op.m, k))
        L0 = root.standard_normal((op.n, k))
        alpha_upper = min(alpha_upper,
                          _refined_rayleigh(op, R0, L0, want_max=False, rng=starts))
        beta_lower = max(beta_lower,
                         _refined_rayleigh(op, R0, L0, want_max=True, rng=starts))
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
