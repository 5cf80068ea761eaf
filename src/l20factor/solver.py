"""Accelerated proximal linearized alternating minimization over (U, V).

One iteration extrapolates both factors with the Nesterov t-sequence,
takes a prox-gradient step in U against the current V, then a prox-gradient
step in V against the fresh U, and advances t. Step constants come from a
spectral-norm upper estimate of the blockwise Lipschitz constants, guarded
by a backtracking majorization check (the balance term is quartic, so no
global constant exists) that doubles the constant until the check holds.

Momentum is dropped by two tests (O'Donoghue and Candes, adaptive restart),
both in ``_take``, which builds the candidate state. The function test
rejects an extrapolated candidate whose objective rises by more than
rounding, ``_ROUNDING`` max(1, |previous|), the slack the majorization check
allows too; ``step`` then retakes the step without extrapolation. The
gradient test resets t to 1 after a kept extrapolated step whose
prox-gradient move from the extrapolated point (U~, V~) points back against
the step taken, <U~ - U+, U+ - U> + <V~ - V+, V+ - V> > 0, so the next step
does not extrapolate. It needs no objective difference, so it still acts
once that difference is below one ulp, and it costs two inner products.

Each substep holds one factor fixed, so the loss is linear in the active
factor through the operator's restricted map (``SamplingOperator.restricted``):
the U-substep goes through the map that fixes V, the V-substep through the
map that fixes U+. Each point's residual A(U V^T) - b and balance
U^T U - V^T V are computed once and reused for its value and its gradient.
An iteration evaluates four points: (U~, V) and (U+, V) in the U-substep,
(U+, V~) and (U+, V+) in the V-substep. The accepted (U+, V+) evaluation
gives both the new objective and, through the V-substep's map and the map
that fixes V+, the gradient of the stopping residuals; the map that fixes V+
is kept for the next U-substep. A substep builds only the gradient half it
uses. For a base-class map (full and mask operators) an iteration that
neither backtracks nor restarts costs 4 operator applies and 3 adjoints;
each backtrack adds one apply, and a restart adds the rejected candidate's
4 applies and 2 adjoints (it is rejected before the stopping residual). A
Gaussian map is a block built once, so a Gaussian iteration costs 2 block
builds (the maps fixing U+ and V+) and no full pass over the tensor; a
backtrack adds only small matrix-vector products, and a restart one more
build. A prune or a cut drops the state's map with the V it fixed, so a
solve holds at most three blocks.

After each step ``solve`` prunes and compacts. A column that is zero in
exactly one factor is zeroed in the other as well, which never raises the
objective; recomputing the objective costs one apply per prune, and a prune
fires at most 2 kappa times. A column that is zero in both factors and in
the previous iterate leaves the working set, so every apply, adjoint, Gram
and step constant runs at the live column count; results are padded back
to the caller's kappa.

Then, for the hard model only, ``solve`` may apply a gauge move
(``_rebalance``). The objective is invariant under (U, V) -> (U T, V T^-T)
except for the balance term (mu/4) ||U^T U - V^T V||^2, which at a small mu
pins the gauge only weakly: without the move, ``gauss-l20-40`` spends most
of its 2254 iterations drifting along the gauge. The move takes the pair to
the balanced pair with the same U V^T, aligned to the old one by an
orthogonal Procrustes rotation, with k x k work on the pair's two Grams;
W_prev and the restricted map that fixes V are mapped along, so
the extrapolation keeps its momentum and no block is rebuilt. It fires when
the balance term it removes is larger than the decrease of the smooth part
that the step and prune just made, and not while a singular value of U V^T
is near the prox's keep threshold (see ``_rebalance``). The paper's PALM
analysis does not cover the move; like the prune, it is a descent step
between iterations. The dc penalty depends on column norms, which the move
changes, so dc takes no move and its iterates are those of the plain method.

Inputs are checked where they enter (``solve`` checks the start's shapes
once; ``ModelSpec`` checks b and keeps ||b||). A step works on plain arrays
and checks only what it computes: the extrapolated point, the balance Gram,
the gradient, the prox point and the objective, raising DivergenceError with
the iteration on any non-finite value; ``prox_matrix`` still validates its
own input. Everything else a step needs is computed once per point: the
Grams U^T U and V^T V that the step constants form give the linearization
point's balance and, for the fixed factor, each candidate's; the accepted
iterate's column counts are taken once, through the unchecked ``linalg``
kernel, and carried in ``SolverState`` for the l20 penalty, the trace and
``_shed_columns``, which returns at once when every live column is nonzero
in both factors and recounts only after a prune; ||b|| comes from the spec.
A step builds no checked ``FactorPair``, and the dc penalty evaluates g
through the unchecked ``penalty`` kernel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .objective import (FactorPair, ModelSpec, _column_penalty, _evaluate,
                        _gradient_half, _unchecked_pair,
                        build_balanced_factors, smooth_value)
from .prox import prox_matrix
from .sampling import RestrictedMap

# Doublings of a substep's starting step constant before the majorization
# check counts as failed; a bound on the count, not on L, is scale-free.
_MAX_DOUBLINGS = 60
_BACKTRACK_FACTOR = 2.0
_STEP_FLOOR = 1e-8
_MARGIN = 1.1
# Grid iterates the trace holds for the distance backfill (plus the latest).
_KEPT = 64
# The gauge move waits while a singular value of U V^T is within this factor
# of the hard prox's keep threshold lam / L (see ``_rebalance``).
_KEEP_MARGIN = 2.0
# Relative rounding slack of an objective comparison: the majorization check
# and the function-value restart allow a rise of this times max(1, |base|).
_ROUNDING = 1e-12


class DivergenceError(RuntimeError):
    """Raised when iterates or objective values become non-finite."""

    def __init__(self, iteration: int, what: str):
        super().__init__(f"divergence at iteration {iteration}: {what}")
        self.iteration = iteration


@dataclass
class SolverConfig:
    """Stopping rule of the solver loop: the residual tolerance and the
    iteration budget."""

    epsilon: float = 1e-10
    max_iters: int = 100000

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class SolverState:
    """Solver iterate: current and previous pair, t-scalars, step constants.

    ``obj_scaled`` is the objective at W, ``nnz_u`` and ``nnz_v`` are
    ``linalg.l20_norm`` of W.U and W.V (set by ``_start_state``, kept by
    every step and move). ``umap`` is the operator restricted to W.V held
    fixed, as the stopping residual left it for the next U-substep, or None
    (at the start, after a prune or a cut); ``step`` then builds one.
    """

    W: FactorPair
    W_prev: FactorPair
    obj_scaled: float
    nnz_u: int
    nnz_v: int
    tk: float = 1.0
    tk_prev: float = 1.0
    iteration: int = 0
    LU: float = math.nan
    LV: float = math.nan
    restarted: bool = False
    res_u: float = math.nan
    res_v: float = math.nan
    umap: RestrictedMap | None = None


@dataclass
class TraceRecord:
    """One iteration's row of the trace; ``dist_*_final`` stay NaN unless the
    trace held this iteration's iterate (``SolveTrace``)."""

    iteration: int
    obj_scaled: float
    obj_paper: float
    res_u: float
    res_v: float
    nnz_u: int
    nnz_v: int
    dist_u_final: float
    dist_v_final: float
    time_s: float


@dataclass
class SolveTrace:
    """Records plus a bounded reservoir of the solver's own iterates, at live
    width, for the distance backfill.

    ``anchor`` is the iteration of the last record whose (nnz_u, nnz_v)
    differs from the record before it (the first record if none does): the
    tail that ``harness.convergence_fit`` reads starts there, and so does
    the reservoir. It keeps iteration k when
    (k - anchor) is a multiple of its stride; when more than ``_KEPT``
    iterates are on that grid it doubles the stride and drops the ones off
    it, and a support change empties it. The latest iterate is held too, so
    at most ``_KEPT + 1`` iterates are held, whatever the run's length.
    """

    records: list[TraceRecord] = field(default_factory=list)
    anchor: int = field(default=0, init=False)
    _stride: int = field(default=1, init=False, repr=False)
    _grid: list[tuple] = field(default_factory=list, init=False, repr=False)
    _last: tuple | None = field(default=None, init=False, repr=False)

    def record(self, rec: TraceRecord, W: FactorPair, live: np.ndarray) -> None:
        """Append ``rec`` and hold ``live`` and W's arrays by reference: they
        come fresh from ``prox_matrix``, the prune's copies or a column cut,
        and nothing writes to them later."""
        prev = self.records[-1] if self.records else None
        self.records.append(rec)
        if prev is None or (rec.nnz_u, rec.nnz_v) != (prev.nnz_u, prev.nnz_v):
            self.anchor, self._stride, self._grid = rec.iteration, 1, []
        self._last = (rec.iteration, live, W.U, W.V)
        if (rec.iteration - self.anchor) % self._stride == 0:
            self._grid.append(self._last)
            if len(self._grid) > _KEPT:
                self._stride *= 2
                self._grid = [it for it in self._grid
                              if (it[0] - self.anchor) % self._stride == 0]

    def _held(self) -> dict[int, tuple]:
        """The held iterates by iteration: the grid and the latest."""
        held = {it[0]: it for it in self._grid}
        if self._last is not None:
            held[self._last[0]] = self._last
        return held

    def backfill_distances(self, final: FactorPair) -> None:
        """Distances to the padded ``final`` for the records whose iterate is
        held; the others keep NaN. A column outside ``live`` stays dead, so it
        is zero in ``final`` and only live columns count."""
        held = self._held()
        for rec in self.records:
            if rec.iteration in held:
                _, live, U, V = held[rec.iteration]
                rec.dist_u_final = float(np.linalg.norm(U - final.U[:, live]))
                rec.dist_v_final = float(np.linalg.norm(V - final.V[:, live]))


def _step_constants(spec, U, V, iteration) -> tuple[float, float, tuple]:
    """Spectral upper estimates of the blockwise Lipschitz constants at (U, V).

    LU bounds the curvature of Phi(., V); LV of Phi(U, .). Both are floored
    at a small positive value so degenerate (zero) factors still give finite
    steps. The dc model's extra -tau/2 identity term only lowers curvature,
    so the same bound applies. Returns (LU, LV, (U^T U, V^T V)); the substep
    linearized at (U, V) reuses the two Grams for its balance terms.
    """
    a2 = spec.op.operator_norm() ** 2
    mu = spec.params.mu_tilde
    # ||U||_2^2 and ||V||_2^2 are the top eigenvalues of the kappa x kappa
    # Grams, and the balance Gram is symmetric, so one batched eigvalsh gives
    # all three norms. A non-finite Gram would fail inside LAPACK, so it is
    # reported first.
    gu, gv = U.T @ U, V.T @ V
    grams = np.stack([gu, gv, gu - gv])
    if not np.all(np.isfinite(grams)):
        raise DivergenceError(iteration, "non-finite balance U^T U - V^T V")
    eig = np.linalg.eigvalsh(grams)
    nu2, nv2 = eig[0, -1], eig[1, -1]
    nbal = max(-eig[2, 0], eig[2, -1])
    lu = _MARGIN * (a2 * nv2 + mu * (2 * nu2 + nbal))
    lv = _MARGIN * (a2 * nu2 + mu * (2 * nv2 + nbal))
    return float(max(lu, _STEP_FLOOR)), float(max(lv, _STEP_FLOOR)), (gu, gv)


def _prox_substep(spec, amap, at, grams, L, iteration):
    """One prox-gradient substep with backtracking on the majorization check.

    ``amap`` is the operator restricted to the fixed factor, on the side of
    the active one; ``at`` is the active factor's linearization point and
    ``grams`` = (U^T U, V^T V) there, as ``_step_constants`` formed them. All
    are arrays the solver has checked. The active gradient half and the base
    value come from one evaluation of the linearization point; each candidate
    costs one more, whose balance takes the fixed factor's Gram from
    ``grams``. Returns (accepted candidate, gradient at ``at``, final L,
    evaluation of the accepted pair).
    """
    which = amap.side
    gu, gv = grams

    def evaluate(Z, gram):
        """The evaluation at the pair whose active factor is Z, Z^T Z = gram."""
        if which == "u":
            return _evaluate(spec, Z, amap.Q, amap.apply(Z), gram - gv)
        return _evaluate(spec, amap.Q, Z, amap.apply(Z), gu - gram)

    U, V = (at, amap.Q) if which == "u" else (amap.Q, at)
    ev = evaluate(at, gu if which == "u" else gv)
    grad = _gradient_half(spec, amap.adjoint(ev.residual), U, V, ev.balance, which)
    if not np.all(np.isfinite(grad)):
        raise DivergenceError(iteration, f"non-finite gradient in the {which}-substep")
    base = ev.value
    for _ in range(_MAX_DOUBLINGS + 1):
        Znew = at - grad / L
        if not np.all(np.isfinite(Znew)):
            raise DivergenceError(iteration, f"non-finite prox point ({which})")
        cand = prox_matrix(Znew, L, spec.params, spec.model)
        ev = evaluate(cand, cand.T @ cand)
        diff = cand - at
        bound = base + float(np.sum(grad * diff)) \
            + 0.5 * L * float(np.sum(diff * diff))
        if ev.value <= bound + _ROUNDING * max(1.0, abs(base)):
            return cand, grad, L, ev
        L *= _BACKTRACK_FACTOR
    raise DivergenceError(
        iteration, f"backtracking exceeded {_MAX_DOUBLINGS} doublings ({which})"
    )


def _take(spec: ModelSpec, st: SolverState, umap: RestrictedMap, w: float,
          tk: float) -> SolverState | None:
    """The state after the step from ``st`` extrapolated with weight w, t = tk,
    or None when w != 0 and the function test rejects it, before the
    stopping residuals. ``umap`` fixes W.V for the U-substep; the V-substep
    goes through a map that fixes U+, whose ``flip`` gives both gradient
    halves at (U+, V+) and the next state's map. A kept extrapolated step
    whose gradient test fires takes t = 1."""
    it = st.iteration + 1
    U, V = st.W.U, st.W.V
    Ut = U + w * (U - st.W_prev.U) if w != 0.0 else U
    Vt = V + w * (V - st.W_prev.V) if w != 0.0 else V
    if not (np.all(np.isfinite(Ut)) and np.all(np.isfinite(Vt))):
        raise DivergenceError(it, "non-finite extrapolated point")
    lu, _, grams = _step_constants(spec, Ut, V, it)
    Unew, gU, lu, _ = _prox_substep(spec, umap, Ut, grams, lu, it)
    _, lv, grams = _step_constants(spec, Unew, Vt, it)
    vmap = spec.op.restricted(Unew, "v")
    Vnew, gV, lv, ev = _prox_substep(spec, vmap, Vt, grams, lv, it)
    nnz_u, nnz_v = linalg._column_count(Unew), linalg._column_count(Vnew)
    obj = ev.value + _column_penalty(spec, Unew, Vnew, nnz_u + nnz_v)
    if not math.isfinite(obj):
        raise DivergenceError(it, "non-finite objective")
    if w != 0.0:
        prev = st.obj_scaled
        if obj > prev + _ROUNDING * max(1.0, abs(prev)):
            return None
        # The gradient test: the prox-gradient step from the extrapolated
        # point undoes part of the move from the current one, so the next
        # step starts without momentum.
        if np.vdot(Ut - Unew, Unew - U) + np.vdot(Vt - Vnew, Vnew - V) > 0.0:
            tk = 1.0

    data_v, umap, data_u = vmap.flip(Vnew, ev.residual)
    gnew_u = _gradient_half(spec, data_u, Unew, Vnew, ev.balance, "u")
    gnew_v = _gradient_half(spec, data_v, Unew, Vnew, ev.balance, "v")
    nb = 1.0 + spec.b_norm
    return SolverState(
        W=_unchecked_pair(Unew, Vnew), W_prev=st.W, obj_scaled=obj,
        nnz_u=nnz_u, nnz_v=nnz_v,
        tk=0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk)), tk_prev=tk,
        iteration=it, LU=lu, LV=lv,
        res_u=float(np.linalg.norm(gU - gnew_u + lu * (Unew - Ut))) / nb,
        res_v=float(np.linalg.norm(gV - gnew_v + lv * (Vnew - Vt))) / nb,
        umap=umap,
    )


def step(spec: ModelSpec, st: SolverState) -> SolverState:
    """One full U-then-V update; advances t. A candidate that the function
    test rejects is retaken without extrapolation and with t = 1, and marked
    ``restarted`` (see ``_take``). ``st.umap`` is rebuilt when it does not
    fix W.V. Shapes are checked by ``solve``."""
    umap = st.umap
    if umap is None or umap.Q is not st.W.V:
        umap = spec.op.restricted(st.W.V, "u")
    nxt = _take(spec, st, umap, (st.tk_prev - 1.0) / st.tk, st.tk)
    if nxt is None:
        nxt = replace(_take(spec, st, umap, 0.0, 1.0), restarted=True)
    return nxt


def _start_state(spec: ModelSpec, W0: FactorPair) -> SolverState:
    """The state at the start W0: W0, copied, as both iterates, with its
    column counts and its objective."""
    W = W0.copy()
    nnz_u, nnz_v = linalg.l20_norm(W.U), linalg.l20_norm(W.V)
    return SolverState(W=W, W_prev=W, nnz_u=nnz_u, nnz_v=nnz_v,
                       obj_scaled=smooth_value(spec, W)
                       + _column_penalty(spec, W.U, W.V, nnz_u + nnz_v))


def _padded(W: FactorPair, live: np.ndarray,
            kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """W's factors, their columns placed at ``live`` in zeros of width kappa."""
    U = np.zeros((W.U.shape[0], kappa))
    V = np.zeros((W.V.shape[0], kappa))
    U[:, live] = W.U
    V[:, live] = W.V
    return U, V


def _shed_columns(spec: ModelSpec, st: SolverState,
                  live: np.ndarray) -> tuple[SolverState, np.ndarray]:
    """Prune orphan half-columns, then drop dead columns from the working set.

    Prune: a column that is zero in exactly one factor adds nothing to
    U V^T, so zeroing its other half keeps the residual, removes row and
    column j of the balance Gram and removes that half's penalty (lam/2 for
    l20, (lam/2) theta(rho s) >= 0 net of the tau term for dc): the objective
    does not rise. The column is zeroed in W_prev too, so extrapolation
    cannot bring it back, and the objective is recomputed with one apply.
    Each prune lowers the nonzero count, so it fires at most 2 kappa times.

    Compact: a column that is zero in U, V, U_prev and V_prev has a zero
    gradient and the prox maps it to zero, so it stays zero; it is dropped,
    and ``live`` maps the remaining columns to the caller's. One column is
    always kept, so a pair whose columns all die stays a valid FactorPair.

    When the state's column counts equal the live width, every column is
    above the zero tolerance in both factors, so there is nothing to do. A
    prune recomputes the counts; a cut drops only zero columns and keeps them.
    Both replace W.V, so both drop the state's ``umap``, which fixed the old V.
    """
    width = st.W.U.shape[1]
    if st.nnz_u == width and st.nnz_v == width:
        return st, live
    nz_u = np.any(st.W.U != 0.0, axis=0)
    nz_v = np.any(st.W.V != 0.0, axis=0)
    orphan = nz_u != nz_v
    if orphan.any():
        def zeroed(X):
            X = X.copy()
            X[:, orphan] = 0.0
            return X
        W = _unchecked_pair(zeroed(st.W.U), zeroed(st.W.V))
        W_prev = _unchecked_pair(zeroed(st.W_prev.U), zeroed(st.W_prev.V))
        nnz_u, nnz_v = linalg._column_count(W.U), linalg._column_count(W.V)
        st = replace(st, W=W, W_prev=W_prev, nnz_u=nnz_u, nnz_v=nnz_v,
                     obj_scaled=smooth_value(spec, W)
                     + _column_penalty(spec, W.U, W.V, nnz_u + nnz_v),
                     umap=None)
    # After the prune a column is nonzero in both factors or in neither.
    used = ((nz_u & nz_v) | np.any(st.W_prev.U != 0.0, axis=0)
            | np.any(st.W_prev.V != 0.0, axis=0))
    if used.all():
        return st, live
    if not used.any():
        used[0] = True

    def cut(W):
        return _unchecked_pair(W.U[:, used], W.V[:, used])
    return replace(st, W=cut(st.W), W_prev=cut(st.W_prev), umap=None), live[used]


def _rebalance(spec: ModelSpec, st: SolverState, before: SolverState) -> SolverState:
    """The gauge move of the l20 model: (U, V) -> (U T, V T^-T), balanced.

    U T (V T^-T)^T = U V^T, so the residual and the l20 penalty keep their
    values, and the balance term (mu/4) ||U^T U - V^T V||^2 drops to zero.
    T comes from k x k work on the Grams of (U, V): Cholesky factors
    U^T U = L_U L_U^T and V^T V = L_V L_V^T, the SVD L_U^T L_V = P S Z^T,
    then T = L_U^-T P sqrt(S) O and T^-T = L_V^-T Z sqrt(S) O, which gives
    U T and V T^-T the Gram O^T S O (Procrustes flow's closed form). O is
    the orthogonal Procrustes rotation that takes the balanced pair closest
    to (U, V), so columns keep their order and sign from one iterate to the
    next.
    W_prev is mapped by the same T, so the extrapolation keeps its momentum,
    and a restricted map that fixes V is re-gauged, not rebuilt. The
    objective falls by the balance term, up to rounding; the columns are
    recounted, since a balanced split can put a column under the zero
    tolerance, and the penalty follows the count.

    The move fires only when all of these hold; otherwise ``st`` is
    returned as it is.
    - Every live column is nonzero in both factors.
    - The core has full numerical rank: both Cholesky factorizations succeed
      and ``linalg.numerical_rank`` counts every singular value of the core.
    - The balance term is larger than the decrease of the smooth part Phi
      from ``before``, the state the step started from, to ``st``. Phi is
      the objective less the penalty, which only counts the support, so a
      step that kills a column does not hold the move back.
    - Every singular value s_j of U V^T exceeds ``_KEEP_MARGIN`` lam / L,
      L the smaller step constant. Balanced, column j has halves of squared
      norm about s_j, and the hard prox keeps a half when its squared norm
      exceeds lam / L; near that threshold the move would shield a column
      that the prox, fed its smaller unbalanced half, could drop.
    """
    width = st.W.U.shape[1]
    if st.nnz_u != width or st.nnz_v != width:
        return st
    grams = st.W.U.T @ st.W.U, st.W.V.T @ st.W.V
    bal = grams[0] - grams[1]
    gain = 0.25 * spec.params.mu_tilde * float(np.sum(bal * bal))
    lam = spec.params.lam
    decrease = before.obj_scaled - st.obj_scaled \
        - 0.5 * lam * (before.nnz_u + before.nnz_v - st.nnz_u - st.nnz_v)
    if not gain > max(decrease, 0.0):
        return st
    try:
        lu, lv = np.linalg.cholesky(np.stack(grams))
        P, s, Zt = np.linalg.svd(lu.T @ lv)
        if linalg.numerical_rank(s) < width \
                or s[-1] <= _KEEP_MARGIN * lam / min(st.LU, st.LV):
            return st
        root = np.sqrt(s)
        # O is the orthogonal polar factor of (U T0)^T U + (V T0^-T)^T V,
        # T0 = T O^T, which is sqrt(S) (P^T L_U^T + Z^T L_V^T).
        X, _, Yt = np.linalg.svd(root[:, None] * (P.T @ lu.T + Zt @ lv.T))
    except np.linalg.LinAlgError:
        return st
    # L_U^T L_V = P S Z^T turns L_U^-T P sqrt(S) into L_V Z / sqrt(S), and
    # L_V^-T Z sqrt(S) into L_U P / sqrt(S): T and T^-T without a solve.
    O = X @ Yt
    tu, tv = (lv @ (Zt.T / root)) @ O, (lu @ (P / root)) @ O
    U, V = st.W.U @ tu, st.W.V @ tv
    nnz_u, nnz_v = linalg._column_count(U), linalg._column_count(V)
    umap = st.umap
    umap = umap.regauged(V, tv) if umap is not None and umap.Q is st.W.V else None
    obj = st.obj_scaled - gain + 0.5 * lam * (nnz_u + nnz_v - st.nnz_u - st.nnz_v)
    return replace(st, W=_unchecked_pair(U, V),
                   W_prev=_unchecked_pair(st.W_prev.U @ tu, st.W_prev.V @ tv),
                   obj_scaled=obj, umap=umap, nnz_u=nnz_u, nnz_v=nnz_v)


def solve(spec: ModelSpec, cfg: SolverConfig, W0: FactorPair | str = "auto",
          kappa: int | None = None) -> tuple[FactorPair, SolveTrace, str]:
    """Run the accelerated method until both residuals are <= epsilon.

    W0="auto" builds the balanced spectral start of A*(b), which requires
    ``kappa``. The harness builds that start once per instance, with X0's
    norm, and passes it; "auto" stays for library callers that hold only a
    spec. A ``kappa`` other than a given W0's column count is a ValueError.
    Returns (final pair, trace, reason) with reason "converged" or "budget";
    non-finite values raise DivergenceError.

    After each step ``_shed_columns`` prunes and compacts, and for the hard
    model ``_rebalance`` may make a gauge move: descent steps between
    iterations that the paper's PALM analysis does not cover (see the module
    docstring). ||A|| is computed before the trace clock starts. The
    returned pair is padded back to the start's column count, dead columns
    exactly zero in place.
    The trace holds at most ``_KEPT + 1`` iterates (``SolveTrace``), however
    long the run; a record whose iterate it did not hold has NaN distances.

    For the hard model the method reaches a critical point or stops on
    budget; it does not promise the global minimizer from an arbitrary
    start. Linear convergence to that minimizer holds once the iterates are
    near it. A dead column never comes back, so at a small lambda, where the
    first prox step keeps every column of the start, the final column count
    is fixed by that step.
    """
    if isinstance(W0, str):
        if W0 != "auto":
            raise ValueError(f'W0 must be a FactorPair or "auto", got {W0!r}')
        if kappa is None:
            raise ValueError('W0="auto" requires kappa')
        W0 = build_balanced_factors(spec.op.adjoint(spec.b), kappa)
    elif kappa is not None and kappa != W0.kappa:
        raise ValueError(f"kappa={kappa} does not match W0's {W0.kappa} columns")
    spec.check_shapes(W0)

    trace = SolveTrace()
    st = _start_state(spec, W0)
    live = np.arange(W0.kappa)

    # ||A|| is computed once, here (a Gaussian's is one Gram eigvalsh), so
    # the trace clock counts iterations only.
    spec.op.operator_norm()
    start = time.monotonic()
    reason = "budget"
    lam = spec.params.lam
    for _ in range(cfg.max_iters):
        before = st
        st = step(spec, st)
        st, live = _shed_columns(spec, st, live)
        if spec.model == "l20":
            st = _rebalance(spec, st, before)
        trace.record(TraceRecord(
            iteration=st.iteration,
            obj_scaled=st.obj_scaled,
            obj_paper=st.obj_scaled / lam if lam > 0 else math.nan,
            res_u=st.res_u,
            res_v=st.res_v,
            nnz_u=st.nnz_u,
            nnz_v=st.nnz_v,
            dist_u_final=math.nan,
            dist_v_final=math.nan,
            time_s=time.monotonic() - start,
        ), st.W, live)
        if st.res_u <= cfg.epsilon and st.res_v <= cfg.epsilon:
            reason = "converged"
            break
    W = FactorPair(*_padded(st.W, live, W0.kappa))
    trace.backfill_distances(W)
    return W, trace, reason
