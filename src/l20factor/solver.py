"""Accelerated proximal linearized alternating minimization over (U, V).

One iteration extrapolates both factors with the Nesterov t-sequence,
takes a prox-gradient step in U against the current V, then a prox-gradient
step in V against the fresh U, and advances t. Step constants come from a
spectral-norm upper estimate of the blockwise Lipschitz constants, guarded
by a backtracking majorization check (the balance term is quartic, so no
global constant exists) that doubles the constant until the check holds.
A restart retakes the step without extrapolation whenever the objective
increases.

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
each backtrack adds one apply, and a restart repeats the 4 applies and the
two substep adjoints. A Gaussian map is a block built once, so a Gaussian
iteration costs 2 block builds (the maps fixing U+ and V+) and no full pass
over the tensor; a backtrack or a restart adds only small matrix-vector
products, and a restart one more build.

After each step ``solve`` prunes and compacts. A column that is zero in
exactly one factor is zeroed in the other as well, which never raises the
objective; recomputing the objective costs one apply per prune, and a prune
fires at most 2 kappa times. A column that is zero in both factors and in
the previous iterate leaves the working set, so every apply, adjoint, Gram
and step constant runs at the live column count; results are padded back
to the caller's kappa.

Inputs are checked where they enter (``solve`` checks the start's shapes
once); a step works on plain arrays, and its own checks of the objective,
the extrapolated point, the balance Gram, the gradient and the prox point
raise DivergenceError with the iteration on any non-finite value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .objective import (FactorPair, ModelSpec, _evaluate, _gradient_half,
                        build_balanced_factors, column_penalty_value,
                        smooth_value)
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


class DivergenceError(RuntimeError):
    """Raised when iterates or objective values become non-finite."""

    def __init__(self, iteration: int, what: str):
        super().__init__(f"divergence at iteration {iteration}: {what}")
        self.iteration = iteration


@dataclass
class SolverConfig:
    """Tuning knobs of the solver loop.

    accelerate=False freezes t_k at 1, recovering the non-accelerated method.
    """

    epsilon: float = 1e-10
    max_iters: int = 100000
    accelerate: bool = True

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class SolverState:
    """Solver iterate: current and previous pair, t-scalars, step constants.

    ``umap`` is the operator restricted to W.V held fixed, as the stopping
    residual left it for the next U-substep; ``step`` builds a new one when
    W.V is not its fixed factor (at the start, after a prune or a cut).
    """

    W: FactorPair
    W_prev: FactorPair
    tk: float = 1.0
    tk_prev: float = 1.0
    iteration: int = 0
    LU: float = math.nan
    LV: float = math.nan
    restarted: bool = False
    res_u: float = math.nan
    res_v: float = math.nan
    obj_scaled: float = math.nan
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

    The reservoir is anchored at the last record whose (nnz_u, nnz_v) differs
    from the record before it (the first record if none does), the tail that
    ``harness.convergence_fit`` reads. It keeps iteration k when
    (k - anchor) is a multiple of its stride; when more than ``_KEPT``
    iterates are on that grid it doubles the stride and drops the ones off
    it, and a support change empties it. The latest iterate is held too, so
    at most ``_KEPT + 1`` iterates are held, whatever the run's length.
    """

    records: list[TraceRecord] = field(default_factory=list)
    _anchor: int = field(default=0, init=False, repr=False)
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
            self._anchor, self._stride, self._grid = rec.iteration, 1, []
        self._last = (rec.iteration, live, W.U, W.V)
        if (rec.iteration - self._anchor) % self._stride == 0:
            self._grid.append(self._last)
            if len(self._grid) > _KEPT:
                self._stride *= 2
                self._grid = [it for it in self._grid
                              if (it[0] - self._anchor) % self._stride == 0]

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


def initial_point(op, b, kappa: int) -> FactorPair:
    """Balanced spectral start from X0 = A*(b): U0 = P sqrt(S), V0 = Q sqrt(S).

    Columns past the numerical rank of X0 are exactly zero
    (``build_balanced_factors``)."""
    return build_balanced_factors(op.adjoint(b), kappa)


def _step_constants(spec, U, V, iteration) -> tuple[float, float]:
    """Spectral upper estimates of the blockwise Lipschitz constants at (U, V).

    LU bounds the curvature of Phi(., V); LV of Phi(U, .). Both are floored
    at a small positive value so degenerate (zero) factors still give finite
    steps. The dc model's extra -tau/2 identity term only lowers curvature,
    so the same bound applies.
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
    return float(max(lu, _STEP_FLOOR)), float(max(lv, _STEP_FLOOR))


def _prox_substep(spec, amap, at, L, iteration):
    """One prox-gradient substep with backtracking on the majorization check.

    ``amap`` is the operator restricted to the fixed factor, on the side of
    the active one; ``at`` is the active factor's linearization point. Both
    hold arrays the solver has checked. The active gradient half and the base
    value come from one evaluation of the linearization point; each candidate
    costs one more. Returns (accepted candidate, gradient at ``at``, final L,
    evaluation of the accepted pair).
    """
    which = amap.side

    def pair(Z):
        return (Z, amap.Q) if which == "u" else (amap.Q, Z)

    U, V = pair(at)
    ev = _evaluate(spec, U, V, amap.apply(at))
    grad = _gradient_half(spec, amap.adjoint(ev.residual), U, V, ev.balance, which)
    if not np.all(np.isfinite(grad)):
        raise DivergenceError(iteration, f"non-finite gradient in the {which}-substep")
    base = ev.value
    for _ in range(_MAX_DOUBLINGS + 1):
        Znew = at - grad / L
        if not np.all(np.isfinite(Znew)):
            raise DivergenceError(iteration, f"non-finite prox point ({which})")
        cand = prox_matrix(Znew, L, spec.params, spec.model)
        ev = _evaluate(spec, *pair(cand), amap.apply(cand))
        diff = cand - at
        bound = base + float(np.sum(grad * diff)) \
            + 0.5 * L * float(np.sum(diff * diff))
        if ev.value <= bound + 1e-12 * max(1.0, abs(base)):
            return cand, grad, L, ev
        L *= _BACKTRACK_FACTOR
    raise DivergenceError(
        iteration, f"backtracking exceeded {_MAX_DOUBLINGS} doublings ({which})"
    )


def step(spec: ModelSpec, cfg: SolverConfig, st: SolverState) -> SolverState:
    """One full U-then-V update; advances t; restarts on objective increase.

    Shapes are checked by ``solve``; ||A|| is the operator's, computed once.
    The U-substep goes through ``st.umap`` (built here if W.V is not its
    fixed factor), the V-substep through a map that fixes U+; that map also
    gives both gradient halves at (U+, V+) and the next step's ``umap``.
    """
    it = st.iteration + 1
    prev_obj = st.obj_scaled
    if math.isnan(prev_obj):
        prev_obj = smooth_value(spec, st.W) + column_penalty_value(spec, st.W)
    if not math.isfinite(prev_obj):
        raise DivergenceError(it, "non-finite objective at the current iterate")
    umap = st.umap
    if umap is None or umap.Q is not st.W.V:
        umap = spec.op.restricted(st.W.V, "u")

    def take(w: float):
        U, V = st.W.U, st.W.V
        Ut = U + w * (U - st.W_prev.U) if w != 0.0 else U
        Vt = V + w * (V - st.W_prev.V) if w != 0.0 else V
        if not (np.all(np.isfinite(Ut)) and np.all(np.isfinite(Vt))):
            raise DivergenceError(it, "non-finite extrapolated point")
        lu = _step_constants(spec, Ut, V, it)[0]
        Unew, gU, lu, _ = _prox_substep(spec, umap, Ut, lu, it)
        lv = _step_constants(spec, Unew, Vt, it)[1]
        vmap = spec.op.restricted(Unew, "v")
        Vnew, gV, lv, ev = _prox_substep(spec, vmap, Vt, lv, it)
        Wnew = FactorPair(Unew, Vnew)
        obj = ev.value + column_penalty_value(spec, Wnew)
        if not math.isfinite(obj):
            raise DivergenceError(it, "non-finite objective")
        return Wnew, Ut, Vt, gU, gV, lu, lv, ev, obj, vmap

    w = (st.tk_prev - 1.0) / st.tk if cfg.accelerate else 0.0
    Wnew, Ut, Vt, gU, gV, lu, lv, ev, obj, vmap = take(w)
    restarted = False
    tk, tk_prev = st.tk, st.tk_prev
    if w != 0.0 and obj > prev_obj:
        tk = tk_prev = 1.0
        Wnew, Ut, Vt, gU, gV, lu, lv, ev, obj, vmap = take(0.0)
        restarted = True

    data_v, umap, data_u = vmap.flip(Wnew.V, ev.residual)
    gnew_u = _gradient_half(spec, data_u, Wnew.U, Wnew.V, ev.balance, "u")
    gnew_v = _gradient_half(spec, data_v, Wnew.U, Wnew.V, ev.balance, "v")
    nb = 1.0 + float(np.linalg.norm(spec.b))
    res_u = float(np.linalg.norm(gU - gnew_u + lu * (Wnew.U - Ut))) / nb
    res_v = float(np.linalg.norm(gV - gnew_v + lv * (Wnew.V - Vt))) / nb

    tk_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk)) if cfg.accelerate else 1.0
    return SolverState(
        W=Wnew, W_prev=st.W, tk=tk_next, tk_prev=tk, iteration=it,
        LU=lu, LV=lv, restarted=restarted,
        res_u=res_u, res_v=res_v, obj_scaled=obj, umap=umap,
    )


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
    """
    nz_u = np.any(st.W.U != 0.0, axis=0)
    nz_v = np.any(st.W.V != 0.0, axis=0)
    orphan = nz_u != nz_v
    if orphan.any():
        def zeroed(X):
            X = X.copy()
            X[:, orphan] = 0.0
            return X
        W = FactorPair(zeroed(st.W.U), zeroed(st.W.V))
        W_prev = FactorPair(zeroed(st.W_prev.U), zeroed(st.W_prev.V))
        st = replace(st, W=W, W_prev=W_prev,
                     obj_scaled=smooth_value(spec, W) + column_penalty_value(spec, W))
    # After the prune a column is nonzero in both factors or in neither.
    used = ((nz_u & nz_v) | np.any(st.W_prev.U != 0.0, axis=0)
            | np.any(st.W_prev.V != 0.0, axis=0))
    if used.all():
        return st, live
    if not used.any():
        used[0] = True

    def cut(W):
        return FactorPair(W.U[:, used], W.V[:, used])
    return replace(st, W=cut(st.W), W_prev=cut(st.W_prev)), live[used]


def solve(spec: ModelSpec, cfg: SolverConfig, W0: FactorPair | str = "auto",
          kappa: int | None = None) -> tuple[FactorPair, SolveTrace, str]:
    """Run the accelerated method until both residuals are <= epsilon.

    W0="auto" builds the balanced spectral start, which requires ``kappa``.
    Returns (final pair, trace, reason) with reason "converged" or "budget";
    non-finite values raise DivergenceError.

    After each step a column that is zero in exactly one factor is zeroed in
    both (a prune; it never raises the objective and costs one apply), and
    a column that is zero in both factors and in the previous iterate leaves
    the working set: it has a zero gradient and would stay zero. Every
    product then runs at the live column count. The returned pair is padded
    back to the start's column count, dead columns exactly zero in place.
    The trace holds at most ``_KEPT + 1`` iterates at their live width (see
    ``SolveTrace``), so its memory does not grow with ``max_iters``; a
    record whose iterate was not held has NaN ``dist_*_final``.

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
        W0 = initial_point(spec.op, spec.b, kappa)
    spec.check_shapes(W0)

    trace = SolveTrace()
    st = SolverState(W=W0.copy(), W_prev=W0.copy())
    st.obj_scaled = smooth_value(spec, st.W) + column_penalty_value(spec, st.W)
    kappa = W0.kappa
    live = np.arange(kappa)

    start = time.monotonic()
    reason = "budget"
    lam = spec.params.lam
    for _ in range(cfg.max_iters):
        st = step(spec, cfg, st)
        st, live = _shed_columns(spec, st, live)
        trace.record(TraceRecord(
            iteration=st.iteration,
            obj_scaled=st.obj_scaled,
            obj_paper=st.obj_scaled / lam if lam > 0 else math.nan,
            res_u=st.res_u,
            res_v=st.res_v,
            nnz_u=linalg.l20_norm(st.W.U),
            nnz_v=linalg.l20_norm(st.W.V),
            dist_u_final=math.nan,
            dist_v_final=math.nan,
            time_s=time.monotonic() - start,
        ), st.W, live)
        if st.res_u <= cfg.epsilon and st.res_v <= cfg.epsilon:
            reason = "converged"
            break
    W = FactorPair(*_padded(st.W, live, kappa))
    trace.backfill_distances(W)
    return W, trace, reason
