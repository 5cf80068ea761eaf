"""Accelerated proximal linearized alternating minimization over (U, V).

One iteration extrapolates both factors with the Nesterov t-sequence,
takes a prox-gradient step in U against the current V, then a prox-gradient
step in V against the fresh U, and advances t. Step constants come from a
spectral-norm upper estimate of the blockwise Lipschitz constants, guarded
by a backtracking majorization check (the balance term is quartic, so no
global constant exists) that doubles the constant until the check holds.
A restart retakes the step without extrapolation whenever the objective
increases.

Each point's residual A(U V^T) - b and balance U^T U - V^T V are computed
once and reused for its value and its gradient. An iteration evaluates four
points: (U~, V) and (U+, V) in the U-substep, (U+, V~) and (U+, V+) in the
V-substep. The accepted (U+, V+) evaluation gives both the new objective
and the gradient of the stopping residuals. So an iteration that neither
backtracks nor restarts costs 4 operator applies and 3 adjoints; each
backtrack adds one apply, and a restart repeats the 4 applies and the two
substep adjoints.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .objective import (FactorPair, ModelSpec, _evaluate, _gradient,
                        column_penalty_value, smooth_value)
from .prox import prox_matrix

_BACKTRACK_CAP = 2.0 ** 60
_BACKTRACK_FACTOR = 2.0
_STEP_FLOOR = 1e-8
_MARGIN = 1.1


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
    """Solver iterate: current and previous pair, t-scalars, step constants."""

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


@dataclass
class TraceRecord:
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
    """Per-iteration records plus stored iterates for distance backfill."""

    records: list[TraceRecord] = field(default_factory=list)
    iterate_stride: int = 1
    _iterates: list[tuple[int, np.ndarray, np.ndarray]] = field(default_factory=list)

    def record(self, rec: TraceRecord, W: FactorPair) -> None:
        self.records.append(rec)
        if rec.iteration % self.iterate_stride == 0:
            self._iterates.append((rec.iteration, W.U.copy(), W.V.copy()))

    def backfill_distances(self, final: FactorPair) -> None:
        dists = {
            it: (float(np.linalg.norm(U - final.U)),
                 float(np.linalg.norm(V - final.V)))
            for it, U, V in self._iterates
        }
        for rec in self.records:
            if rec.iteration in dists:
                rec.dist_u_final, rec.dist_v_final = dists[rec.iteration]


def initial_point(op, b, kappa: int) -> FactorPair:
    """Balanced spectral start from X0 = A*(b): U0 = P sqrt(S), V0 = Q sqrt(S)."""
    if not 1 <= kappa <= min(op.m, op.n):
        raise ValueError(f"kappa must lie in [1, {min(op.m, op.n)}], got {kappa}")
    X0 = op.adjoint(b)
    dec = linalg.svd(X0)
    root = np.sqrt(dec.sigma[:kappa])
    return FactorPair(dec.P[:, :kappa] * root, dec.Q[:, :kappa] * root)


def estimate_step_constants(spec: ModelSpec, W: FactorPair) -> tuple[float, float]:
    """Spectral upper estimates of the blockwise Lipschitz constants at W.

    LU bounds the curvature of Phi(., V); LV of Phi(U, .). Both are floored
    at a small positive value so degenerate (zero) factors still give finite
    steps. The dc model's extra -tau/2 identity term only lowers curvature,
    so the same bound applies.
    """
    a2 = spec.op.operator_norm() ** 2
    return _step_constants(spec, W.U, W.V, a2)


def _step_constants(spec, U, V, op_norm_sq) -> tuple[float, float]:
    mu = spec.params.mu_tilde
    nu2 = float(np.linalg.norm(U, 2)) ** 2
    nv2 = float(np.linalg.norm(V, 2)) ** 2
    nbal = float(np.linalg.norm(U.T @ U - V.T @ V, 2))
    lu = _MARGIN * (op_norm_sq * nv2 + mu * (2 * nu2 + nbal))
    lv = _MARGIN * (op_norm_sq * nu2 + mu * (2 * nv2 + nbal))
    return max(lu, _STEP_FLOOR), max(lv, _STEP_FLOOR)


def _prox_substep(spec, at, fixed, which, L, iteration):
    """One prox-gradient substep with backtracking on the majorization check.

    ``at`` is the linearization point of the active factor, ``fixed`` the
    other factor held constant. The gradient and the base value come from
    one evaluation of the linearization point; each candidate costs one
    more. Returns (accepted pair, gradient at ``at``, final L, evaluation of
    the accepted pair).
    """
    def pair(Z):
        return FactorPair(Z, fixed) if which == "u" else FactorPair(fixed, Z)

    lin = pair(at)
    ev = _evaluate(spec, lin)
    g = _gradient(spec, lin, ev)
    grad = g.grad_u if which == "u" else g.grad_v
    if not np.all(np.isfinite(grad)):
        raise DivergenceError(iteration, f"non-finite gradient in the {which}-substep")
    base = ev.value
    while True:
        Znew = at - grad / L
        if not np.all(np.isfinite(Znew)):
            raise DivergenceError(iteration, f"non-finite prox point ({which})")
        cand = prox_matrix(Znew, L, spec.params, spec.model)
        W = pair(cand)
        ev = _evaluate(spec, W)
        diff = cand - at
        bound = base + float(np.sum(grad * diff)) \
            + 0.5 * L * float(np.sum(diff * diff))
        if ev.value <= bound + 1e-12 * max(1.0, abs(base)):
            return W, grad, L, ev
        L *= _BACKTRACK_FACTOR
        if L > _BACKTRACK_CAP:
            raise DivergenceError(
                iteration, f"backtracking exceeded the step-constant cap ({which})"
            )


def step(spec: ModelSpec, cfg: SolverConfig, st: SolverState,
         op_norm_sq: float | None = None) -> SolverState:
    """One full U-then-V update; advances t; restarts on objective increase."""
    if op_norm_sq is None:
        op_norm_sq = spec.op.operator_norm() ** 2
    it = st.iteration + 1
    try:
        return _step_inner(spec, cfg, st, op_norm_sq, it)
    except linalg.NonFiniteError as exc:
        raise DivergenceError(it, str(exc)) from exc


def _step_inner(spec, cfg, st, op_norm_sq, it) -> SolverState:
    prev_obj = st.obj_scaled
    if math.isnan(prev_obj):
        prev_obj = smooth_value(spec, st.W) + column_penalty_value(spec, st.W)

    def take(w: float):
        U, V = st.W.U, st.W.V
        Ut = U + w * (U - st.W_prev.U) if w != 0.0 else U
        Vt = V + w * (V - st.W_prev.V) if w != 0.0 else V
        if not (np.all(np.isfinite(Ut)) and np.all(np.isfinite(Vt))):
            raise DivergenceError(it, "non-finite extrapolated point")
        lu = _step_constants(spec, Ut, V, op_norm_sq)[0]
        Wu, gU, lu, _ = _prox_substep(spec, Ut, V, "u", lu, it)
        lv = _step_constants(spec, Wu.U, Vt, op_norm_sq)[1]
        Wnew, gV, lv, ev = _prox_substep(spec, Vt, Wu.U, "v", lv, it)
        obj = ev.value + column_penalty_value(spec, Wnew)
        if not math.isfinite(obj):
            raise DivergenceError(it, "non-finite objective")
        return Wnew, Ut, Vt, gU, gV, lu, lv, ev, obj

    w = (st.tk_prev - 1.0) / st.tk if cfg.accelerate else 0.0
    Wnew, Ut, Vt, gU, gV, lu, lv, ev, obj = take(w)
    restarted = False
    tk, tk_prev = st.tk, st.tk_prev
    if w != 0.0 and obj > prev_obj:
        tk = tk_prev = 1.0
        Wnew, Ut, Vt, gU, gV, lu, lv, ev, obj = take(0.0)
        restarted = True

    gnew = _gradient(spec, Wnew, ev)
    nb = 1.0 + float(np.linalg.norm(spec.b))
    res_u = float(np.linalg.norm(gU - gnew.grad_u + lu * (Wnew.U - Ut))) / nb
    res_v = float(np.linalg.norm(gV - gnew.grad_v + lv * (Wnew.V - Vt))) / nb

    tk_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk)) if cfg.accelerate else 1.0
    return SolverState(
        W=Wnew, W_prev=st.W, tk=tk_next, tk_prev=tk, iteration=it,
        LU=lu, LV=lv, restarted=restarted,
        res_u=res_u, res_v=res_v, obj_scaled=obj,
    )


def solve(spec: ModelSpec, cfg: SolverConfig, W0: FactorPair | str = "auto",
          kappa: int | None = None) -> tuple[FactorPair, SolveTrace, str]:
    """Run the accelerated method until both residuals are <= epsilon.

    W0="auto" builds the balanced spectral start, which requires ``kappa``.
    Returns (final pair, trace, reason) with reason "converged" or "budget";
    non-finite values raise DivergenceError.

    For the hard model the method reaches a critical point or stops on
    budget; it does not promise the global minimizer from an arbitrary
    start. Linear convergence to that minimizer holds once the iterates are
    near it. A column that is zero in both factors has a zero gradient and
    stays zero, so at a small lambda, where the first prox step keeps every
    column of the start, the final column count is fixed by that step.
    """
    if isinstance(W0, str):
        if W0 != "auto":
            raise ValueError(f'W0 must be a FactorPair or "auto", got {W0!r}')
        if kappa is None:
            raise ValueError('W0="auto" requires kappa')
        W0 = initial_point(spec.op, spec.b, kappa)
    spec.check_shapes(W0)

    op_norm_sq = spec.op.operator_norm() ** 2
    stride = 1 if spec.op.m * spec.op.n <= 10 ** 6 else 10
    trace = SolveTrace(iterate_stride=stride)
    st = SolverState(W=W0.copy(), W_prev=W0.copy())
    st.obj_scaled = smooth_value(spec, st.W) + column_penalty_value(spec, st.W)

    start = time.monotonic()
    reason = "budget"
    lam = spec.params.lam
    for _ in range(cfg.max_iters):
        st = step(spec, cfg, st, op_norm_sq=op_norm_sq)
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
        ), st.W)
        if st.res_u <= cfg.epsilon and st.res_v <= cfg.epsilon:
            reason = "converged"
            break
    trace.backfill_distances(st.W)
    return st.W, trace, reason
