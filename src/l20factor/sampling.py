"""Linear measurement operators A : R^{m x n} -> R^p and spectrum probes.

Three operator families are provided: identity vectorization (``full``),
entrywise subsampling without replacement (``mask``), and dense Gaussian
sketches (``gaussian``). All of them share the column-major (order="F")
vectorization convention. Operators are immutable, but for the work arrays a
mask keeps for its restricted maps; each knows its exact norm, which a
Gaussian operator computes once, from the smaller Gram of its matrix.

With one factor of X = U V^T held fixed, A is linear in the other: an
operator's ``restricted(Q, side)`` map takes Z to A(Z Q^T) (side "u", Q = V)
or to A(Q Z^T) (side "v", Q = U), with the matching adjoint. The base map
forms the product and calls the operator's own apply and adjoint. A Gaussian
operator's map is its block B = G @ Q, p x (rows * k), built once, after
which an apply or adjoint is one matrix-vector product; a map's
``regauged(Q T, T)`` fixes Q T instead, and a Gaussian one gets it as B's
product with T, without a pass over G. A map's ``gram()`` is its Gram as
k x k blocks over Q's nonzero columns: the base map's one block
||A||^2 Q^T Q, shared by every row of the free factor, exact for ``full``
and a majorizer on a Gaussian map; a mask's exact blocks, one per row,
the Gram of the fixed rows observed with that row, all from one product
with the stored 0/1 pattern. One ``curvature()`` reads from the blocks
their top eigenvalue, the data part of the solver's block constant, and
each column's largest Gershgorin row sum, the per-column bounds c with
diag(c) majorizing the Gram that the solver's step constants read. The
solver takes every substep through such a map.
Restricted eigenvalue brackets
    alpha <= ||A(X)||^2 / ||X||_F^2 <= beta   for all rank-k X != 0
are in closed form for ``full`` and ``mask``; a Gaussian one reads its maps'
blocks: the Gram spectrum of A's p x (m*n) matrix when rank k is
unrestricted and small, otherwise Monte Carlo with alternating refinement,
each step one dense eigendecomposition of a block. Other kinds have none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

    def restricted(self, Q: Array, side: str) -> "RestrictedMap":
        """A with the factor Q held fixed on ``side`` (see ``RestrictedMap``)."""
        return RestrictedMap(self, Q, side)


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

    The row-major flat index rows * n + cols is kept, so apply is one
    ``np.take`` and adjoint one scatter into a flat zero vector. A*A is the
    orthogonal projection onto the observed support, so the operator norm is
    exactly 1. The restricted maps' Gram reads the same support as an
    m x n 0/1 array, built on first use.

    The restricted maps form their m x n products and scatters in one work
    array the operator holds, made on first use, so a solve does not
    allocate (and fault in) an m x n array per call. An operator and its
    maps are therefore single-threaded; its own ``apply`` and ``adjoint``
    return fresh arrays and do not touch the work array.
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
        seen = np.zeros(m * n, dtype=bool)
        seen[flat] = True
        if np.count_nonzero(seen) != flat.size:
            raise ValueError("mask contains duplicate entries")
        self.rows = rows
        self.cols = cols
        self.flat = flat

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
        return np.take(X, self.flat)

    def _adjoint(self, y: Array) -> Array:
        Z = np.zeros(self.m * self.n)
        Z[self.flat] = y
        return Z.reshape(self.m, self.n)

    def operator_norm(self) -> float:
        return 1.0

    @cached_property
    def _pattern(self) -> Array:
        """The observed support as an m x n array of 0.0 and 1.0 (floats, so
        the Gram's product with it is one BLAS call)."""
        P = np.zeros(self.m * self.n)
        P[self.flat] = 1.0
        return P.reshape(self.m, self.n)

    @cached_property
    def _work(self) -> Array:
        """The restricted maps' m x n work array: the product an apply
        gathers from, or the zero-filled target an adjoint scatters into.
        Filling it just before the scatter keeps it in cache, where a
        scatter into an array last written a substep ago is slower."""
        return np.empty((self.m, self.n))

    def restricted(self, Q: Array, side: str) -> "RestrictedMap":
        return _MaskRestrictedMap(self, Q, side)


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
        """Build from an explicit (p, m, n) stack; used by tests with known
        matrices. Such an operator has no seed (``seed`` is -1), so
        ``harness.save_instance`` refuses it."""
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

    def restricted(self, Q: Array, side: str) -> "RestrictedMap":
        return _GaussianRestrictedMap(self, Q, side)


_OTHER_SIDE = {"u": "v", "v": "u"}


class RestrictedMap:
    """A with one factor fixed: Z -> A(Z Q^T) on side "u", A(Q Z^T) on "v".

    On "u" the fixed Q is V (n x k) and Z is m x k; on "v" Q is U (m x k)
    and Z is n x k. ``adjoint(r)`` is A*(r) Q on "u" and A*(r)^T Q on "v",
    the gradient of <r, apply(Z)> in Z. This base form builds the product and
    calls the operator's public apply and adjoint, so its values are bitwise
    those of the full operator. A subclass supplies its own ``gram()``;
    ``curvature()``, which reads only the blocks, serves every map.
    """

    def __init__(self, op: SamplingOperator, Q: Array, side: str):
        if side not in _OTHER_SIDE:
            raise ValueError(f'side must be "u" or "v", got {side!r}')
        self.op = op
        self.Q = Q
        self.side = side

    def apply(self, Z: Array) -> Array:
        return self.op.apply(Z @ self.Q.T if self.side == "u" else self.Q @ Z.T)

    def adjoint(self, r: Array) -> Array:
        return self._restrict(self._scatter(r))

    def _scatter(self, r: Array) -> Array:
        """A*(r), the operator's adjoint."""
        return self.op.adjoint(r)

    def _restrict(self, R: Array) -> Array:
        return R @ self.Q if self.side == "u" else R.T @ self.Q

    def flip(self, Z: Array, r: Array) -> tuple[Array, "RestrictedMap", Array]:
        """At the point whose free factor is Z: this map's adjoint of r, the
        map that holds Z fixed, and that map's adjoint of r, both from one
        ``_scatter``."""
        other = self.op.restricted(Z, _OTHER_SIDE[self.side])
        R = self._scatter(r)
        return self._restrict(R), other, other._restrict(R)

    def regauged(self, Q: Array, T: Array) -> "RestrictedMap":
        """The map that fixes Q = self.Q @ T, for a k x k' matrix T (k' = k
        for a gauge move, k - 1 for a rank drop). The base form is the
        operator's new map over Q; a Gaussian map reuses its block."""
        return self.op.restricted(Q, self.side)

    @cached_property
    def live(self) -> Array:
        """Q's nonzero columns, the k columns that ``gram()`` spans; the
        others add only zero rows and columns to the Gram."""
        return np.any(self.Q != 0.0, axis=0)

    def gram(self) -> Array:
        """The map's Gram as (rows, k, k) blocks over Q's ``live`` columns,
        block i acting on row i of Z, or one (1, k, k) block that every row
        shares: this base form's ||A||^2 Q^T Q, as B^T B <=
        ||A||^2 (Q^T Q (x) I), with equality for ``full``."""
        Q = self.Q[:, self.live]
        return (self.op.operator_norm() ** 2 * (Q.T @ Q))[None]

    def curvature(self) -> tuple[float, Array]:
        """(the top eigenvalue of ``gram()``'s blocks, to rounding; c): the
        Lipschitz constant of the gradient of Z -> 1/2 ||apply(Z) - r||^2,
        and c_l the largest absolute row sum of row l over the blocks, so
        that diag(c) (x) I majorizes the Gram (a diagonally dominant
        difference), 0 on Q's zero columns. A block's top eigenvalue is at
        most its Gershgorin bound, its largest absolute row sum. The k
        blocks with the largest bounds go to a batched eigvalsh first; of
        the others, only those whose bound reaches the largest eigenvalue
        found can exceed it. One batched Cholesky factorization of
        best I - G_i over those succeeds only when all their eigenvalues are
        below the best found; when it fails, their eigenvalues are computed
        (so blocks that are all zero give 0)."""
        columns = np.zeros(self.Q.shape[1])
        G = self.gram()
        k = G.shape[1]
        if k == 0:
            return 0.0, columns
        rows = np.abs(G).sum(axis=2)
        columns[self.live] = rows.max(axis=0)
        bound = rows.max(axis=1)
        order = np.argsort(bound)[::-1]
        best = float(np.linalg.eigvalsh(G[order[:k]])[:, -1].max())
        rest = order[k:][bound[order[k:]] >= best]
        try:
            np.linalg.cholesky(best * np.eye(k) - G[rest])
        except np.linalg.LinAlgError:
            best = max(best, float(np.linalg.eigvalsh(G[rest])[:, -1].max()))
        return best, columns


class _MaskRestrictedMap(RestrictedMap):
    """A mask's map, with the exact Gram. Row i of Z meets only the rows
    q_j of Q observed with it (j in Omega_i: the entries (i, j) on "u",
    (j, i) on "v"), so the map's Gram is block diagonal with the blocks
    G_i = sum_{j in Omega_i} q_j q_j^T that ``gram()`` returns. Its apply
    and ``_scatter`` use the operator's work array, and their values are
    bitwise those of the base map: an apply forms the product there and
    passes it to the operator's apply; a scatter writes there itself, so
    an adjoint or a flip makes no call of the operator's adjoint."""

    def apply(self, Z: Array) -> Array:
        prod = self.op._work
        if self.side == "u":
            np.matmul(Z, self.Q.T, out=prod)
        else:
            np.matmul(self.Q, Z.T, out=prod)
        return self.op.apply(prod)

    def _scatter(self, r: Array) -> Array:
        """A*(r), in the operator's work array."""
        R = self.op._work
        scatter = R.reshape(-1)
        scatter.fill(0.0)
        scatter[self.op.flat] = r
        return R

    def gram(self) -> Array:
        """The blocks G_i over Q's ``live`` columns, one per row of Z, all
        from one product with the stored pattern: column c of
        pattern @ (Q[:, a] * Q[:, b]), over the pairs a >= b, is
        G_i[a_c, b_c] for every i at once."""
        Q = self.Q[:, self.live]
        k = Q.shape[1]
        a, b = np.tril_indices(k)
        P = self.op._pattern
        pairs = (P if self.side == "u" else P.T) @ (Q[:, a] * Q[:, b])
        G = np.empty((len(pairs), k, k))
        G[:, a, b] = G[:, b, a] = pairs
        return G


class _GaussianRestrictedMap(RestrictedMap):
    """The Gaussian map through its block, built once: B = G @ V, (p, m, k),
    on "u" and B = G^T @ U, (p, n, k), on "v", kept as p x (rows * k). An
    apply or an adjoint is then one matrix-vector product. Its Gram is the
    base form's majorizer, not the exact B^T B: with ||B||^2 as the
    curvature, the 40 x 40 Gaussian instance at lambda = 28 ||X0|| converges
    on seed 0 in 54 iterations, but seeds 1-5 end at the zero pair
    (nnz 0, rel_error 1.0), which has the lower objective there: a problem
    outside the recovery regime (ROADMAP item 6)."""

    def __init__(self, op: GaussianOperator, Q: Array, side: str,
                 B: Array | None = None):
        super().__init__(op, Q, side)
        if B is None:
            G = op.G if side == "u" else op.G.transpose(0, 2, 1)
            B = (G @ Q).reshape(op.p, -1)
        self.B = B

    def apply(self, Z: Array) -> Array:
        return self.B @ Z.ravel()

    def adjoint(self, r: Array) -> Array:
        return (r @ self.B).reshape(-1, self.Q.shape[1])

    def flip(self, Z: Array, r: Array) -> tuple[Array, RestrictedMap, Array]:
        other = self.op.restricted(Z, _OTHER_SIDE[self.side])
        return self.adjoint(r), other, other.adjoint(r)

    def regauged(self, Q: Array, T: Array) -> RestrictedMap:
        """G @ (self.Q T) is (G @ self.Q) T: one p*rows x k by k x k'
        product, p*rows*k*k' flops, instead of a pass over G."""
        k = T.shape[0]
        B = (self.B.reshape(-1, k) @ T).reshape(self.op.p, -1)
        return _GaussianRestrictedMap(self.op, Q, self.side, B)


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


def _refine_factor(amap: _GaussianRestrictedMap):
    """Exactly optimize ||A(X)||^2 over unit-Frobenius X with one factor fixed.

    ``amap`` is a Gaussian map that fixes an orthonormal Q with k columns:
    X = F Q^T with F m x k on side "u", X = Q F^T with F n x k on side "v".
    Its block B acts on F flattened row-major, so the extremal eigenpairs of
    B^T B are the exact optima. Returns ((value, X) at the minimum,
    (value, X) at the maximum), both from one ``eigh``, with ||X||_F = 1 and
    ||A(X)||^2 = value.
    """
    Q, B = amap.Q, amap.B
    w, vecs = np.linalg.eigh(B.T @ B)
    ends = []
    for idx in (0, -1):
        F = vecs[:, idx].reshape(-1, Q.shape[1])
        ends.append((max(float(w[idx]), 0.0),
                     F @ Q.T if amap.side == "u" else Q @ F.T))
    return tuple(ends)


def _refined_bracket(op: GaussianOperator, L0: Array) -> tuple[float, float]:
    """Alternating exact refinement of ||A(RL^T)||^2 / ||RL^T||_F^2 from L0,
    toward the minimum and toward the maximum.

    Each chain makes three sweeps: one factor's column space is fixed
    (first L0's, on side "u") and the other solved for exactly with
    ``_refine_factor``. The first sweep is the same for both chains, so it
    is taken once and its two ends start them. Every such value is attained
    by a rank-k X, so each is a valid one-sided bound; returns the min
    chain's least value and the max chain's greatest.
    """
    Q = _orthonormalize(L0)
    first = _refine_factor(op.restricted(Q, "u"))
    best = []
    for end, (val, X) in enumerate(first):
        # X = F Q^T: the next sweep fixes the left factor of X.
        vals, fixed, side = [val], X @ Q, "v"
        for _ in range(2):
            Qs = _orthonormalize(fixed)
            val, X = _refine_factor(op.restricted(Qs, side))[end]
            vals.append(val)
            fixed, side = (X @ Qs, "v") if side == "u" else (X.T @ Qs, "u")
        best.append(max(vals) if end else min(vals))
    return tuple(best)


def estimate_restricted_eigs(op: SamplingOperator, k: int, samples: int = 8,
                             seed: int = 0) -> RestrictedEigEstimate:
    """Bracket the restricted eigenvalues of A*A over rank-k matrices.

    Exact for the full operator (alpha = beta = 1) and for a mask, where
    A*A projects onto the observed entries: beta = 1 (an observed e_i e_j^T)
    and alpha = 0 (a missed e_i e_j^T), or 1 if every entry is observed.
    A Gaussian bracket reads its maps' blocks: exact via the Gram spectrum
    of S, A's p x (m*n) matrix in vec_F order (the block of the map that
    fixes U = I), when k = min(m, n) with m*n <= 400
    (rank-k is then unrestricted). Otherwise Monte Carlo: each sample starts
    from a random rank-k factor pair and is refined by alternating exact
    single-factor eigenproblems, once toward the minimum and once toward the
    maximum, so alpha_upper and beta_lower are one-sided. The two chains
    share their first sweep, so a sample costs 5 block builds and 5
    ``eigh`` calls. A chain's last sweep needs only its value but keeps the
    full ``eigh``: ``eigvalsh`` changes the extreme eigenvalues' last bits.
    beta_upper is ||A||^2, which bounds beta_k for every k. Every random
    draw comes from ``seed``, so equal arguments give equal estimates.
    Any other operator kind is a TypeError.
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
    if not isinstance(op, GaussianOperator):
        raise TypeError(f"no restricted-eigenvalue bracket for operator kind {op.kind!r}")
    if k == min(op.m, op.n) and op.m * op.n <= 400:
        # With U = I fixed, Z = X^T is the free factor, so the map's block is
        # A's matrix in the vec_F basis, the operators' own vectorization order.
        S = op.restricted(np.eye(op.m), "v").B
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
        lo, hi = _refined_bracket(op, L0)
        alpha_upper = min(alpha_upper, lo)
        beta_lower = max(beta_lower, hi)
    beta_lower = min(beta_lower, beta_upper)
    alpha_upper = max(min(alpha_upper, beta_upper), 0.0)
    return RestrictedEigEstimate(k, 0.0, alpha_upper, beta_lower, beta_upper,
                                 samples, "monte-carlo")
