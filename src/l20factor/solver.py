"""Accelerated proximal linearized alternating minimization over (U, V).

One iteration extrapolates both factors with the Nesterov t-sequence, takes
a prox-gradient step in U against the current V, then a prox-gradient step
in V against the fresh U, and advances t. A substep's step constants
(``_step_constant``), one per column as below, are capped by L, 1.1 times a
data term plus a bound on the balance term, floored at 1e-8, and a
backtracking majorization check (the balance term is quartic, so no global
constant exists) doubles them until the check holds. The data term is ratio
||A||^2 ||Q||_2^2, Q the fixed factor, with the ratio the restricted map's
``curvature()`` over that bound (1 when the bound is 0), taken only when Q's
(live width, nnz) changes. The base and Gaussian maps' curvature is the
bound itself, so their ratio is 1; a mask map's is exact, so its data term
is exact when taken and an estimate, which the check guards, until the next
change. Another data term is one ``curvature()`` override.

The step constant is a vector D, one per column: both penalties separate
over columns, so a diagonal metric keeps the prox in closed form (the
variable-metric PALM of Chouzenoux, Pesquet and Repetti, J. Global Optim.
66, 2016, and of Frankel, Garrigos and Peypouquet, JOTA 165, 2015), and a
weak column is not held to the step its strong neighbours need. A map's
``curvature()`` also gives per-column bounds c, with diag(c) majorizing
the data term: on a mask, c_l is column l's largest Gershgorin row sum
over the map's Gram blocks; on the base and Gaussian maps it is
||A||^2 sum_l' |Q^T Q|_{ll'}, from B^T B <= ||A||^2 (Q^T Q (x) I). Held on
the same key is c_l over ||A||^2 sum_l' |Q^T Q|_{ll'} (1 on the base and
Gaussian maps), and D_l = min(L, 1.1 (that ratio ||A||^2 sum_l' |Q^T Q|_{ll'}
+ balance bound)), floored, with the row sums of the current Q^T Q and L
the scalar constant above; a column whose Q column is zero meets no data
and keeps L. The min of two majorizers need not be one, so the check,
which reads (1/2) sum_l D_l ||Delta_l||^2, guards D and doubles it on
failure, and the stopping residual takes D times each column of Delta.

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
map that fixes U+. The objective does not change when U and V swap roles,
so one substep serves both, on the active factor Z and the map over the
fixed factor Q, with balance Z^T Z - Q^T Q; only the maps, and the two
``restricted`` calls that pick Q, name the side. Each point's residual
A(U V^T) - b and balance are computed once and reused for its value and
its gradient.
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
build. A prune or a cut drops the state's map with the V it fixed, and a
gauge move or a rank drop re-gauges it, so a solve holds at most three
blocks.

After each step ``solve`` prunes and compacts. A column that is zero in
exactly one factor is zeroed in the other as well, which never raises the
objective; recomputing the objective costs one apply per prune, and a prune
fires at most 2 kappa times. A column that is zero in both factors and in
the previous iterate leaves the working set, so every apply, adjoint, Gram
and step constant runs at the live column count; results are padded back
to the caller's kappa.

Then ``solve`` may apply a gauge move (``_rebalance``). The data term is
invariant under (U, V) -> (U T, V T^-T); the balance term
(mu/4) ||U^T U - V^T V||^2 is not, and at a small mu it pins the gauge only
weakly: without the move, ``gauss-l20-40`` spends most of its 2254
iterations drifting along the gauge. The move takes the pair to the
balanced pair with the same U V^T, aligned to the old one by an orthogonal
Procrustes rotation, with k x k work on the pair's two Grams, which the
move forms itself; W_prev and the restricted map that fixes V are mapped
along, so the extrapolation keeps its momentum and no block is rebuilt.
For l20 it fires when the balance term it removes is larger than the
decrease of the smooth part that the step and prune just made. The dc
penalty reads column norms, which the move changes, so a dc move fires
exactly when it lowers the objective: the balance term's removal plus the
change of the penalty, which the Grams' diagonals give (see
``_rebalance``). The paper's PALM analysis does not cover the move; like
the prune, it is a descent step between iterations.

The same k x k factorization gives the singular values s of U V^T, and
``_rebalance`` may instead make a rank drop: the balanced pair of the top
k - 1 triples, W_prev and the map mapped along as in the gauge move, with
the k-th column leaving the working set in the same iteration. It fires
only when it is a certified descent, from ||A||, s_k, the accepted step's
residual norm (carried in the state; a prune, a cut or a gauge move keeps
U V^T and so keeps it exact) and the penalty change, and the new
objective costs one apply. A drop moves U V^T, so the step's residuals
do not describe the new pair, and ``solve`` does not stop on that
iteration. The drop sheds the surplus columns a small-lam or dc run
would otherwise carry for many iterations: ``mask-dc-300`` reaches its 5
columns at iteration 41, not 56, and converges in 83 iterations, not 95.

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
from typing import NamedTuple

import numpy as np

from . import linalg, penalty
from .linalg import Array
from .objective import (FactorPair, ModelSpec, _column_penalty, _evaluate,
                        _Evaluation, _gradient_half, _unchecked_pair,
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

    ``obj_scaled`` is the objective at W, and ``nnz_u`` and ``nnz_v`` are
    ``linalg.l20_norm`` of W.U and W.V. ``umap`` is the operator restricted
    to W.V held fixed, as the stopping residual left it for the next
    U-substep, or None (at the start, after a prune or a cut); ``step``
    then builds one. ``LU`` and ``LV`` are the accepted step constants, one
    per column (empty before the first step). ``ratio_u`` and ``ratio_v``
    are the U- and V-substeps' data-term (key, ratio, column ratios) as
    ``_step_constant`` returns them, or None before the first step.
    ``backtracks`` counts the step's doublings. ``r_norm`` is
    ||A(U V^T) - b|| from the step's accepted evaluation; a prune, a cut
    and a gauge move keep U V^T and so keep it, and it is NaN at the start
    and after a rank drop, the states no ``_rebalance`` reads. ``dropped``
    marks a state that ``_rebalance`` reached by a rank drop.
    """

    W: FactorPair
    W_prev: FactorPair
    obj_scaled: float
    nnz_u: int
    nnz_v: int
    tk: float = 1.0
    tk_prev: float = 1.0
    iteration: int = 0
    LU: Array = field(default_factory=lambda: np.empty(0))
    LV: Array = field(default_factory=lambda: np.empty(0))
    restarted: bool = False
    backtracks: int = 0
    res_u: float = math.nan
    res_v: float = math.nan
    umap: RestrictedMap | None = None
    ratio_u: tuple[tuple[int, int], float, Array] | None = None
    ratio_v: tuple[tuple[int, int], float, Array] | None = None
    r_norm: float = math.nan
    dropped: bool = False


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
    ``restarts``, ``backtracks`` and ``rank_drops`` are the solve's totals
    of function-value restarts, of step-constant doublings and of rank
    drops, which ``solve`` adds up.
    """

    records: list[TraceRecord] = field(default_factory=list)
    restarts: int = 0
    backtracks: int = 0
    rank_drops: int = 0
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


def _step_constant(spec, amap, at, held, nnz, iteration):
    """(D, (Z^T Z, Q^T Q), (key, ratio, columns)) of the substep through
    ``amap`` from its active factor Z = ``at``, Q = ``amap.Q`` the fixed
    one: its starting step constants, the Grams its balance terms reuse, and
    its data term's ratios, ``held`` when the key there is the fixed
    factor's (live width, ``nnz``) and taken anew otherwise. The dc model's
    -tau/2 identity term only lowers curvature, so the same constant applies.

    With the map's ``curvature()`` = (top, c), ``ratio`` is top over
    ||A||^2 ||Q||_2^2 (1 when that is 0), ``columns`` holds
    c_l / (||A||^2 sum_l' |Q^T Q|_{ll'}) (0 on Q's zero columns), and the
    step constants are D_l = min(L, 1.1 (columns_l ||A||^2
    sum_l' |Q^T Q|_{ll'} + balance bound)), floored, L the scalar
    1.1 (ratio ||A||^2 ||Q||_2^2 + balance bound), floored; a column whose
    Q column is zero keeps L. The min of two majorizers need not majorize,
    so the check guards D."""
    Q = amap.Q
    gz, gq = at.T @ at, Q.T @ Q
    # ||Z||_2^2 and ||Q||_2^2 are the top eigenvalues of the kappa x kappa
    # Grams, and the balance Gram is symmetric, so one batched eigvalsh gives
    # all three norms. A non-finite Gram would fail inside LAPACK, so it is
    # reported first.
    grams = np.stack([gz, gq, gz - gq])
    if not np.all(np.isfinite(grams)):
        raise DivergenceError(iteration, f"non-finite Gram ({amap.side})")
    eig = np.linalg.eigvalsh(grams)
    nz2, nq2, nbal = eig[0, -1], eig[1, -1], max(-eig[2, 0], eig[2, -1])
    a2 = spec.op.operator_norm() ** 2
    key = (Q.shape[1], nnz)
    sums = a2 * np.abs(gq).sum(axis=1)
    if held is None or held[0] != key:
        bound = a2 * float(nq2)
        top, columns = amap.curvature()
        held = key, (top / bound if bound > 0.0 else 1.0), np.divide(
            columns, sums, out=np.zeros_like(columns), where=sums > 0.0)
    balance = spec.params.mu_tilde * (2 * nz2 + nbal)
    L = float(max(_MARGIN * (held[1] * a2 * nq2 + balance), _STEP_FLOOR))
    D = _MARGIN * (held[2] * sums + balance)
    return np.where(sums > 0.0, D.clip(_STEP_FLOOR, L), L), (gz, gq), held


class _Substep(NamedTuple):
    """A substep's accepted candidate Z+, the gradient at its linearization
    point, its final step constants (one per column), the evaluation of the
    pair (Z+, Q) and the number of doublings it took."""

    Z: Array
    grad: Array
    L: Array
    ev: _Evaluation
    backtracks: int


def _prox_substep(spec, amap, at, grams, L, iteration):
    """One prox-gradient substep with backtracking on the majorization check.

    ``amap`` is the operator restricted to the fixed factor Q = ``amap.Q``;
    ``at`` is the active factor Z's linearization point and ``grams`` =
    (Z^T Z, Q^T Q) there, as ``_step_constant`` formed them. All are arrays
    the solver has checked. The gradient half and the base value come from
    one evaluation of the pair (Z, Q) at ``at``; each candidate costs one
    more, whose balance takes Q^T Q from ``grams``. L holds one constant per
    column, and the check reads the model's quadratic term in that metric,
    sum_l L_l ||Delta_l||^2. Returns a ``_Substep``; its evaluation's
    balance is Z^T Z - Q^T Q.
    """
    Q, gq = amap.Q, grams[1]
    ev = _evaluate(spec, at, Q, amap.apply(at), grams[0] - gq)
    grad = _gradient_half(spec, amap.adjoint(ev.residual), at, ev.balance)
    if not np.all(np.isfinite(grad)):
        raise DivergenceError(iteration,
                              f"non-finite gradient in the {amap.side}-substep")
    base = ev.value
    for doublings in range(_MAX_DOUBLINGS + 1):
        Znew = at - grad / L
        if not np.all(np.isfinite(Znew)):
            raise DivergenceError(iteration, f"non-finite prox point ({amap.side})")
        cand = prox_matrix(Znew, L, spec.params, spec.model)
        ev = _evaluate(spec, cand, Q, amap.apply(cand), cand.T @ cand - gq)
        diff = cand - at
        bound = base + float(np.sum(grad * diff)) \
            + 0.5 * float((diff * diff).sum(axis=0) @ L)
        if ev.value <= bound + _ROUNDING * max(1.0, abs(base)):
            return _Substep(cand, grad, L, ev, doublings)
        L = L * _BACKTRACK_FACTOR
    raise DivergenceError(
        iteration, f"backtracking exceeded {_MAX_DOUBLINGS} doublings ({amap.side})"
    )


def _take(spec: ModelSpec, st: SolverState, umap: RestrictedMap, w: float,
          tk: float) -> SolverState | None:
    """The state after the step from ``st`` extrapolated with weight w, t = tk,
    or None when w != 0 and the function test rejects it, before the
    stopping residuals. ``umap`` fixes W.V for the U-substep; the V-substep
    goes through a map that fixes U+, whose ``flip`` gives both gradient
    halves at (U+, V+) and the next state's map; its evaluation is of
    (V+, U+), so the U half takes its balance negated. A kept extrapolated
    step whose gradient test fires takes t = 1."""
    it = st.iteration + 1
    U, V = st.W.U, st.W.V
    Ut = U + w * (U - st.W_prev.U) if w != 0.0 else U
    Vt = V + w * (V - st.W_prev.V) if w != 0.0 else V
    if not (np.all(np.isfinite(Ut)) and np.all(np.isfinite(Vt))):
        raise DivergenceError(it, "non-finite extrapolated point")
    lu, grams, ratio_u = _step_constant(spec, umap, Ut, st.ratio_u, st.nnz_v, it)
    u = _prox_substep(spec, umap, Ut, grams, lu, it)
    Unew, gU, lu = u.Z, u.grad, u.L
    nnz_u = linalg._column_count(Unew)
    vmap = spec.op.restricted(Unew, "v")
    lv, grams, ratio_v = _step_constant(spec, vmap, Vt, st.ratio_v, nnz_u, it)
    v = _prox_substep(spec, vmap, Vt, grams, lv, it)
    Vnew, gV, lv, ev = v.Z, v.grad, v.L, v.ev
    nnz_v = linalg._column_count(Vnew)
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
    gnew_u = _gradient_half(spec, data_u, Unew, -ev.balance)
    gnew_v = _gradient_half(spec, data_v, Vnew, ev.balance)
    nb = 1.0 + spec.b_norm
    return SolverState(
        W=_unchecked_pair(Unew, Vnew), W_prev=st.W, obj_scaled=obj,
        nnz_u=nnz_u, nnz_v=nnz_v,
        tk=0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk)), tk_prev=tk,
        iteration=it, LU=lu, LV=lv, backtracks=u.backtracks + v.backtracks,
        res_u=float(np.linalg.norm(gU - gnew_u + lu * (Unew - Ut))) / nb,
        res_v=float(np.linalg.norm(gV - gnew_v + lv * (Vnew - Vt))) / nb,
        umap=umap, ratio_u=ratio_u, ratio_v=ratio_v,
        r_norm=float(np.linalg.norm(ev.residual)),
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
    column counts and objective."""
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
    """The gauge move, (U, V) -> (U T, V T^-T) balanced, or a rank drop.

    U T (V T^-T)^T = U V^T, so the residual keeps its value, and the balance
    term (mu/4) ||U^T U - V^T V||^2 drops to zero.
    T comes from k x k work on the Grams of (U, V): Cholesky factors
    U^T U = L_U L_U^T and V^T V = L_V L_V^T, the SVD L_U^T L_V = P S Z^T,
    whose s are the singular values of U V^T, then T = L_U^-T P sqrt(S) O
    and T^-T = L_V^-T Z sqrt(S) O, which gives U T and V T^-T the Gram
    O^T S O (Procrustes flow's closed form). O is the orthogonal Procrustes
    rotation that takes the balanced pair closest to (U, V), so columns
    keep their order and sign from one iterate to the next.
    W_prev is mapped by the same T, so the extrapolation keeps its momentum,
    and a restricted map that fixes V is re-gauged, not rebuilt. The
    columns are recounted with ``linalg._column_count``, since a balanced
    split can put a column under the zero tolerance.

    The penalty decides what the move changes besides the balance term.
    - l20: the penalty follows the count, and the objective falls by the
      balance term, up to rounding.
    - dc: the -tau/4 ||.||_F^2 of the smooth part cancels the tau/2 t^2 of
      g, so the objective changes by the balance term's removal plus
      (lam/2) times the change of sum_j theta(rho ||u_j||) + theta(rho ||v_j||).
      Both Grams' diagonals give the old column norms and O^T S O's the new,
      so that change is k-vector work.

    The rank drop takes the balanced pair of the top k - 1 triples instead:
    T is the first k - 1 columns of the same construction, without O, so
    the new Gram is diag(s_1 .. s_{k-1}), and the k-th column leaves the
    pair. U V^T moves by s_k p_k q_k^T, p_k and q_k unit vectors, so the
    residual's half square rises by at most ||A|| s_k (||r|| + ||A|| s_k / 2),
    with ||r|| the state's ``r_norm``. The penalty changes by -lam for l20
    and, for dc, by the theta change above at the new norms sqrt(s_j) and
    0 for the k-th column. The drop fires when that rise plus that change
    is negative, a certified descent. The balance term, which the drop
    removes too, is left out of the test: with it in, a pair put off
    balance drops a column of the truth where a gauge move alone does
    better, and a dropped column never comes back. So an l20 drop beats
    the gauge move. The new objective is computed with one apply, as a
    prune's is. A drop keeps at least one column, and it is taken before a
    gauge move. For l20, sigma_k(U V^T) >= sqrt(lambda_min(U^T U)
    lambda_min(V^T V)), so a state that fails the bound at that floor skips
    the factorization when the gauge move does not need it.

    A move fires only when all of these hold; otherwise it returns ``st``.
    - Every live column is nonzero in both factors, and both Cholesky
      factorizations succeed.
    - A drop: the certificate holds, and ``linalg.numerical_rank`` counts
      at least k - 1 singular values.
    - A gauge move: ``linalg.numerical_rank`` counts every singular value.
      For l20, the balance term is larger than the decrease of the smooth
      part Phi from ``before``, the state the step started from, to ``st``.
      Phi is the objective less the penalty, which only counts the support,
      so a step that kills a column does not hold the move back. For dc,
      the objective change is negative.
    """
    width = st.W.U.shape[1]
    if st.nnz_u != width or st.nnz_v != width:
        return st
    gu, gv = st.W.U.T @ st.W.U, st.W.V.T @ st.W.V
    bal = gu - gv
    gain = 0.25 * spec.params.mu_tilde * float((bal * bal).sum())
    params = spec.params
    lam = params.lam
    a = spec.op.operator_norm()

    def drop_bound(sk, pen):
        """The drop's bound on the objective change, balance term aside,
        for the k-th singular value sk and the penalty change pen."""
        return a * sk * (st.r_norm + 0.5 * a * sk) + pen

    drop = width > 1
    move = True
    if spec.model == "l20":
        decrease = before.obj_scaled - st.obj_scaled \
            - 0.5 * lam * (before.nnz_u + before.nnz_v - st.nnz_u - st.nnz_v)
        move = gain > max(decrease, 0.0)
        if drop and not move:
            low = np.linalg.eigvalsh(np.array((gu, gv)))[:, 0].clip(0.0)
            drop = drop_bound(math.sqrt(low[0] * low[1]), -lam) < 0.0
        if not (move or drop):
            return st
    try:
        lu, lv = np.linalg.cholesky(np.array((gu, gv)))
        P, s, Zt = np.linalg.svd(lu.T @ lv)
    except np.linalg.LinAlgError:
        return st
    rank = linalg.numerical_rank(s)
    if spec.model == "dc":
        old = penalty._theta(params, params.rho * np.sqrt(
            np.concatenate((gu.diagonal(), gv.diagonal())))).sum()

        def theta_change(norms2):
            """The penalty change at the new squared norms, U and V alike."""
            new = penalty._theta(params, params.rho * np.sqrt(norms2)).sum()
            return 0.5 * lam * float(2.0 * new - old)
    drop = bool(drop and rank >= width - 1 and drop_bound(
        s[-1], -lam if spec.model == "l20" else theta_change(s[:-1])) < 0.0)
    if drop:
        root = np.sqrt(s[:-1])
        tu, tv = lv @ (Zt[:-1].T / root), lu @ (P[:, :-1] / root)
    else:
        if not move or rank < width:
            return st
        root = np.sqrt(s)
        try:
            # O is the orthogonal polar factor of (U T0)^T U + (V T0^-T)^T V,
            # T0 = T O^T, which is sqrt(S) (P^T L_U^T + Z^T L_V^T).
            X, _, Yt = np.linalg.svd(root[:, None] * (P.T @ lu.T + Zt @ lv.T))
        except np.linalg.LinAlgError:
            return st
        O = X @ Yt
        if spec.model == "dc":
            # theta at the new norms, diag(O^T S O), against the old ones.
            rise = theta_change(((O.T * s) @ O).diagonal())
            if not rise < gain:
                return st
        # L_U^T L_V = P S Z^T turns L_U^-T P sqrt(S) into L_V Z / sqrt(S), and
        # L_V^-T Z sqrt(S) into L_U P / sqrt(S): T and T^-T without a solve.
        tu, tv = (lv @ (Zt.T / root)) @ O, (lu @ (P / root)) @ O
    U, V = st.W.U @ tu, st.W.V @ tv
    nnz_u, nnz_v = linalg._column_count(U), linalg._column_count(V)
    W = _unchecked_pair(U, V)
    if drop:
        obj = smooth_value(spec, W) + _column_penalty(spec, U, V, nnz_u + nnz_v)
    else:
        if spec.model == "l20":
            rise = 0.5 * lam * (nnz_u + nnz_v - st.nnz_u - st.nnz_v)
        obj = st.obj_scaled - gain + rise
    umap = st.umap
    umap = umap.regauged(V, tv) if umap is not None and umap.Q is st.W.V else None
    return replace(st, W=W, W_prev=_unchecked_pair(st.W_prev.U @ tu, st.W_prev.V @ tv),
                   obj_scaled=obj, umap=umap, nnz_u=nnz_u, nnz_v=nnz_v,
                   r_norm=math.nan if drop else st.r_norm, dropped=drop)


def solve(spec: ModelSpec, cfg: SolverConfig, W0: FactorPair | str = "auto",
          kappa: int | None = None) -> tuple[FactorPair, SolveTrace, str]:
    """Run the accelerated method until both residuals are <= epsilon.

    W0="auto" builds the balanced spectral start of A*(b), which requires
    ``kappa``. The harness builds that start once per instance, with X0's
    norm, and passes it; "auto" stays for library callers that hold only a
    spec. A ``kappa`` other than a given W0's column count is a ValueError.
    Returns (final pair, trace, reason) with reason "converged" or "budget";
    non-finite values raise DivergenceError.

    The start is shed like every iterate, and after each step
    ``_shed_columns`` prunes and compacts and ``_rebalance`` may make a
    gauge move or a rank drop: descent steps between iterations that the
    paper's PALM analysis does not cover (see the module docstring). An
    iteration that drops a column does not stop the solve. ||A|| is computed
    before the trace clock starts. The returned pair is padded back to the
    start's column count, dead columns exactly zero in place.
    The trace holds at most ``_KEPT + 1`` iterates (``SolveTrace``), however
    long the run; a record whose iterate it did not hold has NaN distances.
    It counts the steps that restarted, the backtracks (doublings) of
    every substep and the rank drops.

    For the hard model the method reaches a critical point or stops on
    budget; it does not promise the global minimizer from an arbitrary
    start. Linear convergence to that minimizer holds once the iterates are
    near it. A dead column never comes back, so the final column count is
    at most the one the first prox step keeps; at a small lambda, where
    that step keeps every column of the start, only rank drops lower it.
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
    # A start's dead columns never reach a step: the solve is that of the
    # start without them.
    st, live = _shed_columns(spec, _start_state(spec, W0), np.arange(W0.kappa))

    # ||A|| is computed once, here (a Gaussian's is one Gram eigvalsh), so
    # the trace clock counts iterations only.
    spec.op.operator_norm()
    start = time.monotonic()
    reason = "budget"
    lam = spec.params.lam
    for _ in range(cfg.max_iters):
        before = st
        st = step(spec, st)
        trace.restarts += st.restarted
        trace.backtracks += st.backtracks
        st, live = _shed_columns(spec, st, live)
        st = _rebalance(spec, st, before)
        if st.dropped:
            # The dropped column's slot is the last live one.
            trace.rank_drops += 1
            live = live[:-1]
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
        # The residuals are the step's, so a state a drop moved does not stop.
        if not st.dropped and st.res_u <= cfg.epsilon and st.res_v <= cfg.epsilon:
            reason = "converged"
            break
    W = FactorPair(*_padded(st.W, live, W0.kappa))
    trace.backfill_distances(W)
    return W, trace, reason
