import math
import time
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from oracles import operator_matrix, stopping_residuals
from test_sampling import DenseTestOperator

from l20factor import linalg, penalty, solver
from l20factor.harness import ExperimentConfig, run_experiment
from l20factor.objective import (FactorPair, ModelSpec, build_balanced_factors,
                                 column_penalty_value, smooth_gradient,
                                 smooth_value)
from l20factor.penalty import PenaltyParams
from l20factor.sampling import (FullOperator, GaussianOperator,
                                UniformMaskOperator, _GaussianRestrictedMap)
from l20factor.solver import DivergenceError, SolverConfig, solve, step

OVERFLOW_WARNINGS = pytest.mark.filterwarnings("ignore:overflow encountered",
                                               "ignore:invalid value encountered")


def mask_instance(seed=3, m=10, n=10, r=2, ratio=0.8, lam=1e-5, mu_tilde=0.1,
                  model="l20", rho=None):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T
    op = UniformMaskOperator.from_ratio(m, n, ratio, rng)
    b = op.apply(M)
    params = PenaltyParams(lam=lam, mu_tilde=mu_tilde, a=3.7, rho=rho)
    return ModelSpec(model=model, op=op, b=b, params=params), M


def spectral_start(spec, kappa):
    """The balanced start of A*(b) that ``solve(..., "auto")`` builds."""
    return build_balanced_factors(spec.op.adjoint(spec.b), kappa)


def test_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0)


def test_step_constants_floor_at_zero_pair():
    spec, _ = mask_instance()
    W = FactorPair(np.zeros((10, 2)), np.zeros((10, 2)))
    assert solver._step_constants(spec, W.U, W.V, 0)[:2] == (1e-8, 1e-8)


def test_step_constants_identity_factor():
    op = FullOperator(4, 3)
    spec = ModelSpec(model="l20", op=op, b=np.zeros(12),
                     params=PenaltyParams(lam=1.0, mu_tilde=0.0))
    W = FactorPair(np.zeros((4, 3)), np.eye(3))
    LU, LV, _ = solver._step_constants(spec, W.U, W.V, 0)
    assert LU == pytest.approx(1.1)
    assert LV == 1e-8


def test_step_constants_majorize_on_probes():
    """The spectral estimate gives a valid quadratic upper model within a
    trust radius of 1; the solver's backtracking only ever raises it."""
    rng = np.random.default_rng(0)
    op = FullOperator(6, 5)
    spec = ModelSpec(model="l20", op=op, b=rng.standard_normal(30),
                     params=PenaltyParams(lam=0.1, mu_tilde=0.5))
    U = rng.standard_normal((6, 3))
    V = rng.standard_normal((5, 3))
    W = FactorPair(U, V)
    LU, _, _ = solver._step_constants(spec, U, V, 0)
    g = smooth_gradient(spec, W)
    base = smooth_value(spec, W)
    doublings = 0
    for _ in range(100):
        D = rng.standard_normal((6, 3))
        D *= rng.uniform(0.0, 1.0) / np.linalg.norm(D)
        val = smooth_value(spec, FactorPair(U + D, V))
        while val > base + float(np.sum(g.grad_u * D)) \
                + 0.5 * LU * float(np.sum(D * D)) + 1e-12 * max(1.0, abs(base)):
            LU *= 2.0
            doublings += 1
            assert doublings < 60
    assert doublings == 0


def test_t_sequence_first_update():
    spec, _ = mask_instance()
    st = solver._start_state(spec, spectral_start(spec, 2))
    st2 = step(spec, st)
    assert st2.tk == pytest.approx(0.5 * (1.0 + math.sqrt(5.0)), abs=1e-15)
    assert st2.tk_prev == 1.0
    assert st2.iteration == 1


def test_zero_pair_is_a_fixed_point():
    op = FullOperator(3, 3)
    spec = ModelSpec(model="l20", op=op, b=op.apply(np.eye(3)),
                     params=PenaltyParams(lam=100.0, mu_tilde=1.0))
    st = solver._start_state(spec, FactorPair(np.zeros((3, 2)), np.zeros((3, 2))))
    for _ in range(3):
        st = step(spec, st)
        assert_allclose(st.W.U, 0.0)
        assert_allclose(st.W.V, 0.0)
        assert st.res_u == 0.0 and st.res_v == 0.0


def test_restart_on_objective_increase():
    rng = np.random.default_rng(0)
    spec, _ = mask_instance()
    U = rng.standard_normal((10, 2))
    V = rng.standard_normal((10, 2))
    st = replace(solver._start_state(spec, FactorPair(U, V)),
                 W_prev=FactorPair(U - 5.0, V + 5.0), tk_prev=100.0)
    st2 = step(spec, st)
    assert st2.restarted
    assert st2.obj_scaled <= st.obj_scaled
    assert st2.tk == pytest.approx(0.5 * (1.0 + math.sqrt(5.0)))
    assert st2.tk_prev == 1.0


@OVERFLOW_WARNINGS
def test_divergence_error_carries_iteration():
    """A step from an overflowing start raises DivergenceError with its
    iteration."""
    spec, _ = mask_instance()
    big = FactorPair(1e200 * np.ones((10, 2)), 1e200 * np.ones((10, 2)))
    with pytest.raises(DivergenceError, match="iteration 1") as info:
        step(spec, solver._start_state(spec, big))
    assert info.value.iteration == 1


SCALES = (1.0, 1e10, 1e20)


def scaled_dc_instance(seed, c):
    """A 30 x 30 dc mask instance with b scaled by c, lam by c^2 and 1/rho by
    sqrt(c): the same problem in factors scaled by sqrt(c), objective by c^2."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((30, 2)) @ rng.standard_normal((30, 2)).T
    op = UniformMaskOperator.from_ratio(30, 30, 0.3, rng)
    params = PenaltyParams(lam=c * c * 0.05, mu_tilde=1e-2, a=3.7,
                           rho=1.0 / math.sqrt(c))
    return ModelSpec(model="dc", op=op, b=c * op.apply(M), params=params)


def test_backtracking_bound_is_scale_free():
    """The substep doubles its starting step constant at most 60 times, at
    any problem scale: started 2^-20 below the spectral estimate it accepts
    the same L / L_U at every scale, and 2^-80 below it gives up at every
    scale. (An absolute cap on L made the 1e20 problem fail at once.)"""
    accepted = []
    for c in SCALES:
        spec = scaled_dc_instance(0, c)
        W0 = spectral_start(spec, 4)
        LU, _, grams = solver._step_constants(spec, W0.U, W0.V, 0)
        umap = spec.op.restricted(W0.V, "u")
        U, _, L, _ = solver._prox_substep(spec, umap, W0.U, grams,
                                          LU * 2.0 ** -20, 1)
        accepted.append((L / LU, U / math.sqrt(c)))
        assert L / LU == accepted[0][0]
        assert_allclose(U / math.sqrt(c), accepted[0][1], rtol=1e-9, atol=1e-12)
        with pytest.raises(DivergenceError, match="60 doublings"):
            solver._prox_substep(spec, umap, W0.U, grams, LU * 2.0 ** -80, 1)


@settings(max_examples=4, deadline=None)
@given(seed=hst.integers(0, 2 ** 16))
def test_rescaled_problem_runs_alike(seed):
    """The consistently rescaled dc problem ends the same way at scales 1,
    1e10 and 1e20: no DivergenceError, the same stop reason and iteration
    count, and the same product up to the scale."""
    runs = [solve(scaled_dc_instance(seed, c), SolverConfig(max_iters=150),
                  "auto", kappa=4) for c in SCALES]
    (W1, trace1, reason1), *rest = runs
    for c, (W, trace, reason) in zip(SCALES[1:], rest):
        assert (reason, len(trace.records)) == (reason1, len(trace1.records))
        assert_allclose(W.product() / c, W1.product(), rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("model,rho,lam", [("l20", None, 1e-5), ("dc", 0.05, 1e-4)])
def test_stopping_residuals_match_recomputation(model, rho, lam):
    spec, _ = mask_instance(model=model, rho=rho, lam=lam)
    st = solver._start_state(spec, spectral_start(spec, 2))
    for _ in range(8):
        prev = st
        st = step(spec, prev)
        ru, rv = stopping_residuals(spec, prev, st)
        assert st.res_u == pytest.approx(ru, abs=1e-12, rel=1e-12)
        assert st.res_v == pytest.approx(rv, abs=1e-12, rel=1e-12)


def gaussian_instance(seed=1, m=10, n=9, r=2, p=60, lam=100.0, mu_tilde=0.1,
                      model="l20", rho=None):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T
    op = GaussianOperator(m, n, p, seed=seed)
    params = PenaltyParams(lam=lam, mu_tilde=mu_tilde, a=3.7, rho=rho)
    return ModelSpec(model=model, op=op, b=op.apply(M), params=params), M


def warm_state(model, rho, lam, instance=mask_instance):
    """An instance and the state after five steps, where the next step
    extrapolates without restarting or backtracking."""
    spec, _ = instance(model=model, rho=rho, lam=lam)
    st = solver._start_state(spec, spectral_start(spec, 2))
    for _ in range(5):
        st = step(spec, st)
    return spec, st


def count_calls(monkeypatch, calls, owner, attr, name=None):
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[name or attr] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, attr, wrapper)


BUDGET_CASES = [("l20", None, 1e-5), ("dc", 0.05, 1e-4)]


def restart_state(spec, st):
    """``st`` with its objective set two rounding slacks below the next
    step's, so that the function test rejects the extrapolated candidate."""
    obj = step(spec, st).obj_scaled
    return replace(st, obj_scaled=obj - 2.0 * solver._ROUNDING * max(1.0, abs(obj)))


@pytest.mark.parametrize("model,rho,lam", BUDGET_CASES)
def test_step_operator_call_budget(model, rho, lam, monkeypatch):
    """A step that neither restarts nor backtracks evaluates four points,
    (U~, V), (U+, V), (U+, V~) and (U+, V+), each with one apply; the two
    linearization points and (U+, V+) each take one adjoint. A restart
    adds the rejected candidate's two substeps, 4 applies and 2 adjoints:
    the candidate is dropped before the stopping residual's adjoint."""
    spec, st = warm_state(model, rho, lam)
    cases = ((st, False, (2, 4, 3)), (restart_state(spec, st), True, (4, 8, 5)))
    calls = Counter()
    count_calls(monkeypatch, calls, spec.op, "apply")
    count_calls(monkeypatch, calls, spec.op, "adjoint")
    count_calls(monkeypatch, calls, solver, "prox_matrix", "prox")
    assert st.tk_prev > 1.0
    for start, restarted, budget in cases:
        calls.clear()
        assert step(spec, start).restarted == restarted
        assert (calls["prox"], calls["apply"], calls["adjoint"]) == budget


def test_step_operator_call_budget_gaussian(monkeypatch):
    """A Gaussian step that neither restarts nor backtracks makes no full
    apply or adjoint: the U-substep goes through the map the last step left,
    and it builds two maps, one fixing U+ for the V-substep and one fixing
    V+ for the stopping residual and the next step. A restart builds the
    map fixing U+ once more, for the retake; from a state that carries no
    map it also builds the one fixing V."""
    spec, st = warm_state("l20", None, 100.0, gaussian_instance)
    rejected = restart_state(spec, st)
    cases = ((st, False, (2, 2)), (rejected, True, (4, 3)),
             (replace(rejected, umap=None), True, (4, 4)))
    calls = Counter()
    for attr in ("apply", "adjoint", "restricted"):
        count_calls(monkeypatch, calls, spec.op, attr)
    count_calls(monkeypatch, calls, solver, "prox_matrix", "prox")
    assert st.tk_prev > 1.0
    for start, restarted, (prox, builds) in cases:
        calls.clear()
        st2 = step(spec, start)
        assert st2.restarted == restarted and calls["prox"] == prox
        assert (calls["apply"], calls["adjoint"], calls["restricted"]) == (0, 0, builds)
        assert st2.umap.Q is st2.W.V and st2.umap.side == "u"


def test_gaussian_solve_holds_at_most_three_blocks(monkeypatch):
    """A Gaussian solve that prunes, and a restart step, never hold more
    than three restricted-map blocks alive, the count the harness's memory
    guard budgets: a prune or a cut drops the state's map with the V it
    fixed, and a rejected candidate drops its map before the retake builds
    one."""
    live, peak = weakref.WeakSet(), [0]
    init = _GaussianRestrictedMap.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)
        peak[0] = max(peak[0], len(live))
    monkeypatch.setattr(_GaussianRestrictedMap, "__init__", counted)
    spec, _ = gaussian_instance()
    _, trace, reason = solve(spec, SolverConfig(max_iters=3000), "auto", kappa=4)
    assert reason == "converged"
    assert trace.records[0].nnz_u > trace.records[-1].nnz_u
    spec, st = warm_state("l20", None, 100.0, gaussian_instance)
    assert step(spec, restart_state(spec, st)).restarted
    assert peak[0] == 3


@pytest.mark.parametrize("model,rho,lam", BUDGET_CASES)
def test_function_restart_allows_a_rise_within_rounding(model, rho, lam):
    """The function-value restart retakes an extrapolated step only when the
    objective rises by more than the rounding slack, 1e-12 max(1, |previous|):
    against a previous objective half a slack below the step's, the step is
    kept; two slacks below, it is retaken without extrapolation."""
    spec, st = warm_state(model, rho, lam)
    first = step(spec, st)
    assert st.tk_prev > 1.0 and not first.restarted
    obj = first.obj_scaled
    slack = solver._ROUNDING * max(1.0, abs(obj))
    kept = step(spec, replace(st, obj_scaled=obj - 0.5 * slack))
    retaken = step(spec, replace(st, obj_scaled=obj - 2.0 * slack))
    assert not kept.restarted and kept.obj_scaled == obj
    assert retaken.restarted and retaken.tk_prev == 1.0


@pytest.mark.parametrize("model,rho,lam", BUDGET_CASES)
def test_gradient_test_resets_the_momentum(model, rho, lam):
    """An extrapolated step that the function test keeps resets the momentum
    (returns t_prev = 1) exactly when <U~ - U+, U+ - U> + <V~ - V+, V+ - V>
    is positive. The step after a reset takes w = 0: it does not read the
    previous iterate, so a far one changes nothing."""
    spec, _ = mask_instance(model=model, rho=rho, lam=lam)
    st = solver._start_state(spec, spectral_start(spec, 2))
    outcomes = Counter()
    for _ in range(60):
        nxt = step(spec, st)
        w = (st.tk_prev - 1.0) / st.tk
        if w != 0.0 and not nxt.restarted:
            (U, V), (Up, Vp) = (st.W.U, st.W.V), (nxt.W.U, nxt.W.V)
            Ut, Vt = U + w * (U - st.W_prev.U), V + w * (V - st.W_prev.V)
            reset = np.vdot(Ut - Up, Up - U) + np.vdot(Vt - Vp, Vp - V) > 0.0
            assert (nxt.tk_prev == 1.0) == reset
            outcomes[reset] += 1
            if reset:
                after = step(spec, nxt)
                far = step(spec, replace(nxt, W_prev=FactorPair(Up + 1.0, Vp - 1.0)))
                assert np.array_equal(after.W.U, far.W.U)
                assert np.array_equal(after.W.V, far.W.V)
                assert after.obj_scaled == far.obj_scaled
        st = nxt
    assert outcomes[True] > 0 and outcomes[False] > 0


@pytest.mark.parametrize("model,seed", [("l20", seed) for seed in range(9)]
                         + [("dc", seed) for seed in (1, 3, 6)])
def test_benchmark_configurations_converge_linearly_across_seeds(model, seed):
    """The mask-l20-300 and mask-dc-300 configurations on other instance
    seeds recover the rank-5 truth, and the rate fit of the tail reads
    R^2 >= 0.95. With the function-value restart alone, l20 seeds 5 and 8
    and dc seeds 1, 3 and 6 read 0.91-0.96."""
    cfg = ExperimentConfig(m=300, n=300, r=5, kappa=15, sample_ratio=0.25,
                           operator_kind="mask", model=model,
                           mu_tilde=1e-3 if model == "l20" else 1e-2,
                           epsilon=1e-10, max_iters=3000, seed=seed)
    s = run_experiment(cfg)["summary"]
    assert s["reason"] == "converged" and s["rel_error"] <= 1e-8, s
    assert s["nnz_u"] == s["nnz_v"] == 5 and s["r2"] >= 0.95, s


def test_gaussian_blocks_solve_like_the_base_map():
    """The same Gaussian instance solved through the Gaussian blocks and, as
    a DenseTestOperator over the same matrix, through the base-class map
    (full products, apply and adjoint): the same stop after the same number
    of iterations, with columns pruned on the way, and the same pair."""
    spec, _ = gaussian_instance()
    dense = DenseTestOperator(operator_matrix(spec.op), spec.op.m, spec.op.n)
    runs = [solve(s, SolverConfig(max_iters=3000), "auto", kappa=4)
            for s in (spec, ModelSpec(spec.model, dense, spec.b, spec.params))]
    (W1, trace1, reason1), (W2, trace2, reason2) = runs
    assert reason1 == reason2 == "converged"
    assert len(trace1.records) == len(trace2.records)
    assert trace1.records[0].nnz_u == 4 and trace1.records[-1].nnz_u == 2
    assert_allclose(W1.U, W2.U, rtol=0, atol=1e-10)
    assert_allclose(W1.V, W2.V, rtol=0, atol=1e-10)


@pytest.mark.parametrize("model,rho,lam", BUDGET_CASES)
def test_step_validation_budget(model, rho, lam, monkeypatch):
    """Inputs are checked where they enter, not in the step: a step that
    neither restarts nor backtracks builds no checked FactorPair, checks no
    shapes and no vectors, and neither counts columns nor evaluates g through
    the checked public functions. The only matrices it validates are the two
    prox inputs, each checked by ``prox_matrix`` itself."""
    spec, st = warm_state(model, rho, lam)
    calls = Counter()
    count_calls(monkeypatch, calls, spec.op, "apply")
    count_calls(monkeypatch, calls, spec.op, "adjoint")
    count_calls(monkeypatch, calls, solver, "prox_matrix", "prox")
    for attr in ("as_matrix", "as_vector", "l20_norm"):
        count_calls(monkeypatch, calls, linalg, attr)
    count_calls(monkeypatch, calls, penalty, "g_scalar")
    count_calls(monkeypatch, calls, FactorPair, "__post_init__", "FactorPair")
    count_calls(monkeypatch, calls, ModelSpec, "check_shapes")
    st2 = step(spec, st)
    assert not st2.restarted and calls["prox"] == 2
    assert (calls["FactorPair"], calls["check_shapes"], calls["as_vector"]) == (0, 0, 0)
    assert (calls["l20_norm"], calls["g_scalar"]) == (0, 0)
    assert calls["as_matrix"] == calls["prox"]
    assert (calls["apply"], calls["adjoint"]) == (4, 3)


@pytest.mark.parametrize("model,rho,lam", [("l20", None, 5.0), ("dc", 0.5, 0.5)])
def test_carried_values_match_the_public_evaluators(model, rho, lam, monkeypatch):
    """A state's objective and column counts are those of the public
    evaluators at its iterate, through restarts, momentum resets by the
    gradient test, backtracks (the step constant's margin is cut to 0.3, so
    substeps backtrack), prunes, cuts and (for l20) gauge moves. Two events
    are forced: a restart at step 10, by a far previous iterate and a large t
    as in ``test_restart_on_objective_increase``, and at step 20 a pair put
    off balance, (3 U, V / 3) with the same product, after which l20 moves.
    The objective is exact where it is computed,
    after a step and after a prune; a cut drops exactly-zero columns and
    keeps it, which can move the public sums by an ulp, and a move lowers it
    by the balance term, which holds up to rounding. Every trace record's
    counts are ``l20_norm`` of the iterate recorded with it."""
    monkeypatch.setattr(solver, "_MARGIN", 0.3)
    spec, _ = mask_instance(seed=1, model=model, rho=rho, lam=lam, mu_tilde=0.1)
    W0 = spectral_start(spec, 4)
    U0, V0 = W0.U.copy(), W0.V.copy()
    U0[:, 1] *= 0.05  # an unbalanced column: its U half dies first, an orphan
    V0[:, 1] *= 20.0
    W0 = FactorPair(U0, V0)

    def public(W):
        return (smooth_value(spec, W) + column_penalty_value(spec, W),
                linalg.l20_norm(W.U), linalg.l20_norm(W.V))

    substep = solver._prox_substep
    events = Counter()

    def counted(spec, amap, at, grams, L, iteration):
        out = substep(spec, amap, at, grams, L, iteration)
        events["backtrack"] += out[2] > L
        return out
    monkeypatch.setattr(solver, "_prox_substep", counted)
    st = solver._start_state(spec, W0)
    live = np.arange(4)
    for i in range(60):
        if i == 10:
            st = replace(st, W_prev=FactorPair(st.W.U - 5.0, st.W.V + 5.0),
                         tk_prev=100.0)
        if i == 20:
            W = FactorPair(3.0 * st.W.U, st.W.V / 3.0)
            st = replace(st, W=W, obj_scaled=public(W)[0],
                         W_prev=FactorPair(3.0 * st.W_prev.U, st.W_prev.V / 3.0))
        before = st
        st = step(spec, st)
        events["restart"] += st.restarted
        events["reset"] += before.tk_prev > 1.0 and st.tk_prev == 1.0 \
            and not st.restarted
        assert (st.obj_scaled, st.nnz_u, st.nnz_v) == public(st.W)
        width, nnz = st.W.U.shape[1], (st.nnz_u, st.nnz_v)
        st, live = solver._shed_columns(spec, st, live)
        events["prune"] += (st.nnz_u, st.nnz_v) != nnz
        events["cut"] += st.W.U.shape[1] < width
        obj, nnz_u, nnz_v = public(st.W)
        assert (st.nnz_u, st.nnz_v) == (nnz_u, nnz_v)
        if st.W.U.shape[1] == width:
            assert st.obj_scaled == obj
        else:
            assert st.obj_scaled == pytest.approx(obj, rel=1e-14, abs=0.0)
        if model == "l20":
            moved = solver._rebalance(spec, st, before)
            events["move"] += moved is not st
            st = moved
            obj, nnz_u, nnz_v = public(st.W)
            assert (st.nnz_u, st.nnz_v) == (nnz_u, nnz_v)
            assert st.obj_scaled == pytest.approx(obj, rel=1e-12, abs=0.0)
    kinds = ["restart", "reset", "backtrack", "prune", "cut"] + ["move"] * (model == "l20")
    assert min(events[k] for k in kinds) > 0, events

    record = solver.SolveTrace.record
    recorded = []

    def checked(trace, rec, W, live):
        recorded.append(rec.iteration)
        assert (rec.nnz_u, rec.nnz_v) == (linalg.l20_norm(W.U), linalg.l20_norm(W.V))
        record(trace, rec, W, live)
    monkeypatch.setattr(solver.SolveTrace, "record", checked)
    _, trace, _ = solve(spec, SolverConfig(max_iters=60), W0)
    assert recorded == [rec.iteration for rec in trace.records]
    assert trace.records[-1].nnz_u < 4


def test_residual_denominator_is_one_for_zero_data():
    rng = np.random.default_rng(2)
    op = FullOperator(4, 4)
    spec = ModelSpec(model="l20", op=op, b=np.zeros(16),
                     params=PenaltyParams(lam=0.01, mu_tilde=0.2))
    W0 = FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
    st2 = step(spec, solver._start_state(spec, W0))
    # first step has zero extrapolation, so the linearization points are W0
    gU = smooth_gradient(spec, FactorPair(W0.U, W0.V)).grad_u
    gV = smooth_gradient(spec, FactorPair(st2.W.U, W0.V)).grad_v
    gnew = smooth_gradient(spec, st2.W)
    num_u = np.linalg.norm(gU - gnew.grad_u + st2.LU * (st2.W.U - W0.U))
    num_v = np.linalg.norm(gV - gnew.grad_v + st2.LV * (st2.W.V - W0.V))
    assert st2.res_u == pytest.approx(float(num_u), rel=1e-12)
    assert st2.res_v == pytest.approx(float(num_v), rel=1e-12)


def test_solve_recovers_masked_low_rank():
    spec, M = mask_instance()
    W, trace, reason = solve(spec, SolverConfig(epsilon=1e-10, max_iters=500),
                             "auto", kappa=2)
    assert reason == "converged"
    assert len(trace.records) <= 200
    rel = np.linalg.norm(W.product() - M) / np.linalg.norm(M)
    assert rel <= 1e-8
    assert trace.records[-1].nnz_u == trace.records[-1].nnz_v == 2


def test_solve_full_sampling_is_immediate_at_exact_rank():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((6, 2)) @ rng.standard_normal((6, 2)).T
    op = FullOperator(6, 6)
    spec = ModelSpec(model="l20", op=op, b=op.apply(M),
                     params=PenaltyParams(lam=1e-6, mu_tilde=0.1))
    W, trace, reason = solve(spec, SolverConfig(), "auto", kappa=2)
    assert reason == "converged"
    assert np.linalg.norm(W.product() - M) / np.linalg.norm(M) <= 1e-12


def test_solve_unregularized_full_sampling():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((6, 2)) @ rng.standard_normal((6, 2)).T
    op = FullOperator(6, 6)
    spec = ModelSpec(model="l20", op=op, b=op.apply(M),
                     params=PenaltyParams(lam=0.0, mu_tilde=0.1))
    W, trace, reason = solve(spec, SolverConfig(max_iters=500), "auto", kappa=2)
    assert reason == "converged"
    assert np.linalg.norm(W.product() - M) / np.linalg.norm(M) <= 1e-8
    assert np.isnan(trace.records[-1].obj_paper)


def test_solve_huge_epsilon_stops_after_one_iteration():
    spec, _ = mask_instance()
    W, trace, reason = solve(spec, SolverConfig(epsilon=1e3), "auto", kappa=2)
    assert reason == "converged"
    assert len(trace.records) == 1


def test_solve_budget_reason():
    spec, _ = mask_instance()
    W, trace, reason = solve(spec, SolverConfig(max_iters=3), "auto", kappa=2)
    assert reason == "budget"
    assert len(trace.records) == 3


def test_solve_auto_requires_kappa():
    spec, _ = mask_instance()
    with pytest.raises(ValueError, match="kappa"):
        solve(spec, SolverConfig(), "auto")
    with pytest.raises(ValueError, match="auto"):
        solve(spec, SolverConfig(), "spectral", kappa=2)
    W0 = spectral_start(spec, 3)
    with pytest.raises(ValueError, match="kappa=5 does not match W0's 3 columns"):
        solve(spec, SolverConfig(), W0, kappa=5)


def test_solve_rejects_mismatched_start():
    spec, _ = mask_instance()
    bad = FactorPair(np.ones((4, 2)), np.ones((10, 2)))
    with pytest.raises(ValueError, match="do not match"):
        solve(spec, SolverConfig(), bad)


def test_objective_is_monotone_with_restarts():
    spec, _ = mask_instance()
    _, trace, _ = solve(spec, SolverConfig(epsilon=1e-10, max_iters=500),
                        "auto", kappa=2)
    objs = [rec.obj_scaled for rec in trace.records]
    for prev, cur in zip(objs, objs[1:]):
        assert cur <= prev + 1e-10 * max(1.0, abs(prev))
    assert objs[-1] <= objs[0]


def test_solve_is_deterministic():
    spec, _ = mask_instance()
    out1 = solve(spec, SolverConfig(epsilon=1e-10, max_iters=200), "auto", kappa=2)
    out2 = solve(spec, SolverConfig(epsilon=1e-10, max_iters=200), "auto", kappa=2)
    assert np.array_equal(out1[0].U, out2[0].U)
    assert np.array_equal(out1[0].V, out2[0].V)
    assert out1[2] == out2[2]
    for r1, r2 in zip(out1[1].records, out2[1].records):
        assert r1.obj_scaled == r2.obj_scaled
        assert r1.res_u == r2.res_u and r1.res_v == r2.res_v
        assert r1.nnz_u == r2.nnz_u and r1.nnz_v == r2.nnz_v
    # equal distances, NaN at the same records (their iterates were not kept)
    d1, d2 = (np.array([(r.dist_u_final, r.dist_v_final) for r in out[1].records])
              for out in (out1, out2))
    assert np.array_equal(np.isnan(d1), np.isnan(d2))
    assert np.array_equal(d1, d2, equal_nan=True)


def test_trace_backfill_and_time():
    spec, _ = mask_instance()
    _, trace, _ = solve(spec, SolverConfig(epsilon=1e-10, max_iters=500),
                        "auto", kappa=2)
    assert trace.records[-1].dist_u_final == 0.0
    assert trace.records[-1].dist_v_final == 0.0
    held = trace._held()
    assert len(held) < len(trace.records)
    for rec in trace.records:
        for d in (rec.dist_u_final, rec.dist_v_final):
            assert math.isfinite(d) == (rec.iteration in held)
            assert math.isnan(d) == (rec.iteration not in held)
    times = [rec.time_s for rec in trace.records]
    assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))


def test_trace_reservoir_is_bounded_and_evenly_spaced():
    """Synthetic records with a support change at 301: after every record the
    trace holds at most _KEPT + 1 iterates, the latest and a grid that starts
    at the last support change with a power-of-two stride, thinned no further
    than the cap needs; the change drops every iterate before it. The
    backfill gives each held record its own iterate's distance."""
    supports = [(2, 2)] * 300 + [(1, 1)] * 700
    trace = solver.SolveTrace()
    anchor = 1
    for k, (nu, nv) in enumerate(supports, start=1):
        if k > 1 and (nu, nv) != supports[k - 2]:
            anchor = k
        W = FactorPair(np.full((3, 1), float(k)), np.zeros((2, 1)))
        trace.record(solver.TraceRecord(k, 0.0, 0.0, 0.0, 0.0, nu, nv,
                                        math.nan, math.nan, 0.0), W, np.arange(1))
        stride = trace._stride
        grid = list(range(anchor, k + 1, stride))
        assert sorted(trace._held()) == grid + ([k] if grid[-1] != k else [])
        assert len(grid) <= solver._KEPT
        assert stride & (stride - 1) == 0
        assert stride == 1 or len(grid) > solver._KEPT // 2
    trace.backfill_distances(FactorPair(np.zeros((3, 1)), np.zeros((2, 1))))
    held = trace._held()
    for rec in trace.records:
        if rec.iteration in held:
            assert rec.dist_u_final == pytest.approx(math.sqrt(3) * rec.iteration)
            assert rec.dist_v_final == 0.0
        else:
            assert math.isnan(rec.dist_u_final) and math.isnan(rec.dist_v_final)


def test_trace_holds_at_most_kept_iterates_at_any_budget():
    """A run to a budget stop holds at most _KEPT + 1 iterates, at 300
    iterations and at 3000: the cap does not depend on max_iters."""
    spec, _ = mask_instance()
    for max_iters in (300, 3000):
        _, trace, reason = solve(spec, SolverConfig(epsilon=1e-300,
                                                    max_iters=max_iters),
                                 "auto", kappa=2)
        assert reason == "budget" and len(trace.records) == max_iters
        kept = [rec for rec in trace.records if math.isfinite(rec.dist_u_final)]
        assert len(kept) == len(trace._held()) <= solver._KEPT + 1


@hst.composite
def degenerate_problems(draw):
    """Small full or mask instances with degenerate data, parameters and starts."""
    m, n = draw(hst.integers(2, 6)), draw(hst.integers(2, 6))
    kappa = draw(hst.integers(1, min(m, n)))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 16)))
    if draw(hst.booleans()):
        op = FullOperator(m, n)
    else:
        op = UniformMaskOperator.from_ratio(m, n, draw(hst.floats(0.2, 1.0)), rng)
    M = rng.standard_normal((m, 1)) @ rng.standard_normal((1, n))
    b = np.zeros(op.p) if draw(hst.booleans()) else op.apply(M)
    lam = draw(hst.sampled_from([0.0, 1e-6, 1.0, 1e6]))
    model = draw(hst.sampled_from(["l20", "dc"]))
    params = PenaltyParams(lam=lam, mu_tilde=draw(hst.sampled_from([0.0, 0.1])),
                           a=3.7, rho=0.5 if model == "dc" else None)
    spec = ModelSpec(model=model, op=op, b=b, params=params)
    start = draw(hst.sampled_from(["auto", "zero", "pruned", "scaled"]))
    scale = 10.0 ** draw(hst.integers(-150, 200))
    U = scale * rng.standard_normal((m, kappa))
    V = scale * rng.standard_normal((n, kappa))
    if start == "zero":
        U, V = np.zeros_like(U), np.zeros_like(V)
    elif start == "pruned":
        U = np.zeros_like(U)
    return spec, "auto" if start == "auto" else FactorPair(U, V), kappa


@OVERFLOW_WARNINGS
@settings(max_examples=60, deadline=None)
@given(degenerate_problems())
@example((mask_instance(lam=0.0)[0], FactorPair(1e200 * np.ones((10, 2)),
                                                1e200 * np.ones((10, 2))), 2))
@example((mask_instance()[0], FactorPair(1e-150 * np.ones((10, 2)),
                                         1e-150 * np.ones((10, 2))), 2))
@example((mask_instance(lam=1e6)[0], FactorPair(np.ones((10, 2)),
                                                np.ones((10, 2))), 2))
def test_degenerate_inputs_end_in_result_or_divergence(problem):
    """b = 0, kappa = 1, lam = 0, all-zero and all-pruned starts and factor
    scales from 1e-150 to 1e200 end in finite factors at the caller's kappa
    with a normal reason or in a DivergenceError that names an iteration;
    nothing else escapes. At lam = 1e6 every column dies in the first step,
    and the working set keeps one zero column."""
    spec, W0, kappa = problem
    try:
        W, trace, reason = solve(spec, SolverConfig(max_iters=20), W0, kappa=kappa)
    except DivergenceError as err:
        assert err.iteration >= 1
        return
    assert reason in ("converged", "budget")
    assert W.kappa == kappa
    assert np.all(np.isfinite(W.U)) and np.all(np.isfinite(W.V))
    assert 1 <= len(trace.records) <= 20


@settings(max_examples=30, deadline=None)
@given(which=hst.sampled_from(["U", "V", "b"]),
       bad=hst.sampled_from([np.nan, np.inf, -np.inf]), index=hst.integers(0, 99))
def test_non_finite_inputs_rejected_where_they_enter(which, bad, index):
    spec, _ = mask_instance()
    U, V, b = np.ones((10, 2)), np.ones((10, 2)), spec.b.copy()
    arr = {"U": U, "V": V, "b": b}[which]
    arr.flat[index % arr.size] = bad
    with pytest.raises(ValueError, match=f"{which} contains non-finite entries"):
        if which == "b":
            ModelSpec(model="l20", op=spec.op, b=b, params=spec.params)
        else:
            FactorPair(U, V)


@settings(max_examples=40, deadline=None)
@given(model=hst.sampled_from(["l20", "dc"]), seed=hst.integers(0, 2 ** 16),
       lam=hst.sampled_from([0.0, 1e-3, 0.5, 20.0]))
def test_pruning_never_raises_the_objective(model, seed, lam):
    """Zeroing the nonzero half of a column that is zero in the other factor
    leaves A(U V^T) unchanged. For l20 it drops lam/2 from the penalty and
    removes row and column j of the balance Gram, a sum of squares, so the
    objective falls by at least lam/2 per orphan. For dc the half enters
    through its penalty net of the -tau/4 ||.||^2 term of Phi, which is
    (1/2) g(s) - (tau/4) s^2 = (lam/2) theta(rho s) >= 0, and through the
    same Gram row and column: theta >= 0 and the Gram loses row/column j, so
    the objective does not rise. Columns zero in all four of U, V, U_prev
    and V_prev leave the working set; the rest keep their values."""
    rng = np.random.default_rng(seed)
    spec, _ = mask_instance(seed=seed % 7, lam=lam, model=model,
                            rho=0.5 if model == "dc" else None)
    kappa = 5
    # per column: 0 nonzero in both, 1 zero in U, 2 zero in V, 3 zero in both
    kind = rng.integers(0, 4, kappa)
    U, V = rng.standard_normal((10, kappa)), rng.standard_normal((10, kappa))
    U[:, (kind == 1) | (kind == 3)] = 0.0
    V[:, (kind == 2) | (kind == 3)] = 0.0
    Up, Vp = rng.standard_normal((10, kappa)), rng.standard_normal((10, kappa))
    prev_dead = (kind == 3) & (rng.random(kappa) < 0.5)
    Up[:, prev_dead] = Vp[:, prev_dead] = 0.0
    W = FactorPair(U, V)
    obj = smooth_value(spec, W) + column_penalty_value(spec, W)
    st = replace(solver._start_state(spec, W), W_prev=FactorPair(Up, Vp))
    st2, live = solver._shed_columns(spec, st, np.arange(kappa))

    orphan = (kind == 1) | (kind == 2)
    dead = orphan | prev_dead
    expect_live = np.flatnonzero(~dead) if not dead.all() else np.array([0])
    assert np.array_equal(live, expect_live)
    U2, V2 = solver._padded(st2.W, live, kappa)
    Up2, Vp2 = solver._padded(st2.W_prev, live, kappa)
    for new, old in ((U2, U), (V2, V), (Up2, Up), (Vp2, Vp)):
        assert np.all(new[:, orphan] == 0.0)
        assert np.array_equal(new[:, ~orphan], old[:, ~orphan])
    W2 = FactorPair(U2, V2)
    assert st2.obj_scaled == pytest.approx(
        smooth_value(spec, W2) + column_penalty_value(spec, W2), rel=1e-12, abs=1e-12)
    drop = 0.5 * lam * np.count_nonzero(orphan) if model == "l20" else 0.0
    assert st2.obj_scaled <= obj - drop + 1e-12 * max(1.0, abs(obj))


@pytest.mark.parametrize("model,rho,lam", [("l20", None, 1e-3), ("dc", 0.5, 1e-3)])
@pytest.mark.parametrize("dead", [(0,), (1, 3), (0, 2, 4)])
def test_solve_pads_dead_columns_back_in_place(model, rho, lam, dead):
    """Columns that start dead leave the working set after the first step;
    the result equals the solve without them, padded back to the caller's
    kappa with those columns exactly zero where they were."""
    spec, M = mask_instance(model=model, rho=rho, lam=lam)
    kappa = 5
    rng = np.random.default_rng(4)
    U, V = rng.standard_normal((10, kappa)), rng.standard_normal((10, kappa))
    U[:, list(dead)] = V[:, list(dead)] = 0.0
    alive = np.setdiff1d(np.arange(kappa), dead)
    cfg = SolverConfig(max_iters=60)
    W, trace, reason = solve(spec, cfg, FactorPair(U, V))
    Wr, trace_r, reason_r = solve(spec, cfg, FactorPair(U[:, alive], V[:, alive]))
    assert W.kappa == kappa and reason == reason_r
    assert len(trace.records) == len(trace_r.records)
    assert np.all(W.U[:, list(dead)] == 0.0) and np.all(W.V[:, list(dead)] == 0.0)
    assert_allclose(W.U[:, alive], Wr.U, rtol=1e-9, atol=1e-12)
    assert_allclose(W.V[:, alive], Wr.V, rtol=1e-9, atol=1e-12)
    for rec, ref in zip(trace.records, trace_r.records):
        assert (rec.nnz_u, rec.nnz_v) == (ref.nnz_u, ref.nnz_v)
        assert rec.dist_u_final == pytest.approx(ref.dist_u_final, rel=1e-8, abs=1e-12)


def moved_state(spec, U, V, Up, Vp):
    """A state at (U, V) with W_prev (Up, Vp), its counts and objective, and
    unit step constants. Passed as its own ``before``, it
    makes the step's decrease 0, so any balance gain clears the gain test."""
    return replace(solver._start_state(spec, FactorPair(U, V)),
                   W_prev=FactorPair(Up, Vp), LU=1.0, LV=1.0)


def balance_gain(spec, W):
    bal = W.U.T @ W.U - W.V.T @ W.V
    return 0.25 * spec.params.mu_tilde * float(np.sum(bal * bal))


def rel_dist(A, B):
    return float(np.linalg.norm(A - B) / np.linalg.norm(B))


@settings(max_examples=60, deadline=None)
@given(seed=hst.integers(0, 2 ** 16), k=hst.integers(1, 4),
       extra=hst.integers(2, 5), log_scale=hst.integers(-3, 3))
def test_gauge_move_keeps_the_product_and_balances(seed, k, extra, log_scale):
    """On a random full-rank pair, unbalanced by a factor 10^log_scale, the
    move keeps U V^T and the previous iterate's product, balances the pair,
    lowers the objective by exactly the balance term (up to rounding) and
    lands no farther from the old pair than any rotation of the plainly
    balanced pair P sqrt(S), Q sqrt(S) from the SVD of U V^T."""
    rng = np.random.default_rng(seed)
    m, n = k + extra, k + extra + 1
    spec, _ = mask_instance(seed=seed % 5, m=m, n=n, r=1, ratio=0.7, lam=1e-6)
    c = 10.0 ** log_scale
    U, V = c * rng.standard_normal((m, k)), rng.standard_normal((n, k)) / c
    Up, Vp = rng.standard_normal((m, k)), rng.standard_normal((n, k))
    st = moved_state(spec, U, V, Up, Vp)
    out = solver._rebalance(spec, st, st)
    assert out is not st
    U2, V2 = out.W.U, out.W.V
    assert rel_dist(U2 @ V2.T, U @ V.T) <= 1e-12
    assert rel_dist(U2.T @ U2, V2.T @ V2) <= 1e-12
    assert rel_dist(out.W_prev.U @ out.W_prev.V.T, Up @ Vp.T) <= 1e-12
    gain = balance_gain(spec, st.W)
    public = smooth_value(spec, out.W) + column_penalty_value(spec, out.W)
    assert out.obj_scaled == st.obj_scaled - gain
    assert public == pytest.approx(out.obj_scaled, rel=1e-12, abs=1e-12 * gain)
    assert (out.nnz_u, out.nnz_v) == (linalg.l20_norm(U2), linalg.l20_norm(V2))
    dist = np.linalg.norm(U2 - U) ** 2 + np.linalg.norm(V2 - V) ** 2
    plain = linalg.svd(U @ V.T)
    root = np.sqrt(plain.sigma[:k])
    Pk, Qk = plain.P[:, :k] * root, plain.Q[:, :k] * root
    scale = np.linalg.norm(U) ** 2 + np.linalg.norm(V) ** 2
    rotations = [np.linalg.qr(rng.standard_normal((k, k)))[0] for _ in range(3)]
    for R in [np.eye(k)] + rotations:
        other = np.linalg.norm(Pk @ R - U) ** 2 + np.linalg.norm(Qk @ R - V) ** 2
        assert dist <= other + 1e-10 * scale


def test_gauge_move_is_skipped_where_it_does_not_apply(monkeypatch):
    """No move for a dead column, for a rank-deficient core (an exactly
    singular Gram, where Cholesky fails, and a nearly singular one), when
    the step's decrease beats the balance gain, or while a singular value of
    U V^T is near the prox's keep threshold lam / L. A dc solve never calls
    the move; an l20 solve does."""
    rng = np.random.default_rng(0)
    spec, _ = mask_instance(lam=1e-6)
    U, V = rng.standard_normal((10, 2)), 3.0 * rng.standard_normal((10, 2))
    Up, Vp = U.copy(), V.copy()
    st = moved_state(spec, U, V, Up, Vp)
    assert solver._rebalance(spec, st, st) is not st

    dead = U.copy()
    dead[:, 1] = 0.0
    st_dead = moved_state(spec, dead, V, Up, Vp)
    assert solver._rebalance(spec, st_dead, st_dead) is st_dead

    u = np.zeros(10)
    u[:2] = (3.0, 4.0)  # ||u||^2 = 25: the Gram of [u, 2u] is exactly singular
    for bad in (np.column_stack([u, 2.0 * u]),
                np.column_stack([U[:, 0], U[:, 0] + 1e-12 * U[:, 1]])):
        st_bad = moved_state(spec, bad, V, Up, Vp)
        assert solver._rebalance(spec, st_bad, st_bad) is st_bad

    gain = balance_gain(spec, st.W)
    ahead = replace(st, obj_scaled=st.obj_scaled + 2.0 * gain)
    assert solver._rebalance(spec, st, ahead) is st

    s_min = linalg.svd(U @ V.T).sigma[1]
    near = replace(st, LU=spec.params.lam / s_min, LV=1e9)
    assert solver._rebalance(spec, near, near) is near

    moves = Counter()
    count_calls(monkeypatch, moves, solver, "_rebalance")
    for model, rho in (("dc", 0.05), ("l20", None)):
        solve(mask_instance(model=model, rho=rho, lam=1e-4)[0],
              SolverConfig(max_iters=20), "auto", kappa=2)
        moves[model] = moves.pop("_rebalance", 0)
    assert moves == {"dc": 0, "l20": 20}


def test_gaussian_solve_regauges_the_carried_map(monkeypatch):
    """A plain Gaussian iteration after a move makes the same 2 block builds
    as one without: the move maps the carried block, G @ (V T^-T) =
    (G @ V) T^-T, and builds none. The mapped block matches a fresh build."""
    spec, _ = gaussian_instance()
    step_fn, rebalance = solver.step, solver._rebalance
    builds = Counter()
    count_calls(monkeypatch, builds, spec.op, "restricted")
    log = []  # per iteration: [builds in the step, restarted, moved]

    def stepped(spec, st):
        before = builds["restricted"]
        out = step_fn(spec, st)
        log.append([builds["restricted"] - before, out.restarted, False])
        return out

    def moved(spec, st, before):
        out = rebalance(spec, st, before)
        if out is not st:
            log[-1][2] = True
            assert out.umap.Q is out.W.V and out.umap.side == "u"
            fresh = _GaussianRestrictedMap(spec.op, out.W.V, "u")
            assert_allclose(out.umap.B, fresh.B, rtol=1e-10,
                            atol=1e-12 * np.abs(fresh.B).max())
        return out
    monkeypatch.setattr(solver, "step", stepped)
    monkeypatch.setattr(solver, "_rebalance", moved)
    _, _, reason = solve(spec, SolverConfig(max_iters=3000), "auto", kappa=4)
    assert reason == "converged"
    after_move = [made for (made, restarted, _), (_, _, fired) in zip(log[1:], log)
                  if fired and not restarted]
    assert len(after_move) >= 10
    assert set(after_move) == {2}


def test_solve_computes_the_operator_norm_once_before_the_clock(monkeypatch):
    """A Gaussian operator's ||A|| (one Gram eigvalsh) is computed exactly
    once, before the trace clock starts and before the first step, so the
    first record's time_s counts the iteration alone."""
    spec, _ = gaussian_instance()
    events = []
    norm, step_fn = GaussianOperator.operator_norm, solver.step
    monotonic = time.monotonic

    def counted_norm(op):
        events.append("computed" if op._norm is None else "kept")
        return norm(op)

    def counted_step(*args):
        events.append("step")
        return step_fn(*args)

    def clock():
        events.append("clock")
        return monotonic()
    monkeypatch.setattr(GaussianOperator, "operator_norm", counted_norm)
    monkeypatch.setattr(solver, "step", counted_step)
    monkeypatch.setattr(solver.time, "monotonic", clock)
    solve(spec, SolverConfig(max_iters=3), "auto", kappa=4)
    assert events.count("computed") == 1
    assert events.index("computed") < events.index("clock") < events.index("step")
