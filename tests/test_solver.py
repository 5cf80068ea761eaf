import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from oracles import stopping_residuals

from l20factor import linalg, solver
from l20factor.objective import (FactorPair, ModelSpec, column_penalty_value,
                                 smooth_gradient, smooth_value)
from l20factor.penalty import PenaltyParams
from l20factor.sampling import FullOperator, UniformMaskOperator
from l20factor.solver import (DivergenceError, SolverConfig, SolverState,
                              estimate_step_constants, initial_point, solve,
                              step)

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


def test_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0)


def test_initial_point_diagonal():
    op = FullOperator(2, 2)
    b = op.apply(np.diag([3.0, 1.0]))
    W = initial_point(op, b, 2)
    assert_allclose(np.abs(W.U), np.diag([np.sqrt(3.0), 1.0]), atol=1e-14)
    assert_allclose(np.abs(W.V), np.diag([np.sqrt(3.0), 1.0]), atol=1e-14)
    assert_allclose(W.product(), np.diag([3.0, 1.0]), atol=1e-14)
    assert_allclose(W.U.T @ W.U - W.V.T @ W.V, 0.0, atol=1e-14)


def test_initial_point_rank_one_exact():
    rng = np.random.default_rng(0)
    M = np.outer(rng.standard_normal(5), rng.standard_normal(4))
    op = FullOperator(5, 4)
    W = initial_point(op, op.apply(M), 1)
    assert_allclose(W.product(), M, atol=1e-12)


def test_initial_point_is_balanced():
    rng = np.random.default_rng(1)
    op = UniformMaskOperator.from_ratio(7, 6, 0.5, rng)
    b = rng.standard_normal(op.p)
    W = initial_point(op, b, 4)
    X0 = op.adjoint(b)
    bal = np.linalg.norm(W.U.T @ W.U - W.V.T @ W.V)
    assert bal <= 1e-8 * np.linalg.norm(X0)


def test_initial_point_kappa_range():
    op = FullOperator(3, 4)
    with pytest.raises(ValueError, match="kappa"):
        initial_point(op, np.zeros(12), 0)
    with pytest.raises(ValueError, match="kappa"):
        initial_point(op, np.zeros(12), 4)


def test_step_constants_floor_at_zero_pair():
    spec, _ = mask_instance()
    W = FactorPair(np.zeros((10, 2)), np.zeros((10, 2)))
    assert estimate_step_constants(spec, W) == (1e-8, 1e-8)


def test_step_constants_identity_factor():
    op = FullOperator(4, 3)
    spec = ModelSpec(model="l20", op=op, b=np.zeros(12),
                     params=PenaltyParams(lam=1.0, mu_tilde=0.0))
    W = FactorPair(np.zeros((4, 3)), np.eye(3))
    LU, LV = estimate_step_constants(spec, W)
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
    LU, _ = estimate_step_constants(spec, W)
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
    W0 = initial_point(spec.op, spec.b, 2)
    st = SolverState(W=W0, W_prev=W0.copy())
    st2 = step(spec, SolverConfig(), st)
    assert st2.tk == pytest.approx(0.5 * (1.0 + math.sqrt(5.0)), abs=1e-15)
    assert st2.tk_prev == 1.0
    assert st2.iteration == 1


def test_zero_pair_is_a_fixed_point():
    op = FullOperator(3, 3)
    spec = ModelSpec(model="l20", op=op, b=op.apply(np.eye(3)),
                     params=PenaltyParams(lam=100.0, mu_tilde=1.0))
    Z = FactorPair(np.zeros((3, 2)), np.zeros((3, 2)))
    st = SolverState(W=Z, W_prev=Z.copy())
    for _ in range(3):
        st = step(spec, SolverConfig(), st)
        assert_allclose(st.W.U, 0.0)
        assert_allclose(st.W.V, 0.0)
        assert st.res_u == 0.0 and st.res_v == 0.0


def test_restart_on_objective_increase():
    rng = np.random.default_rng(0)
    spec, _ = mask_instance()
    U = rng.standard_normal((10, 2))
    V = rng.standard_normal((10, 2))
    W = FactorPair(U, V)
    st = SolverState(W=W, W_prev=FactorPair(U - 5.0, V + 5.0),
                     tk=1.0, tk_prev=100.0)
    st.obj_scaled = smooth_value(spec, W) + column_penalty_value(spec, W)
    st2 = step(spec, SolverConfig(), st)
    assert st2.restarted
    assert st2.obj_scaled <= st.obj_scaled
    assert st2.tk == pytest.approx(0.5 * (1.0 + math.sqrt(5.0)))
    assert st2.tk_prev == 1.0


@OVERFLOW_WARNINGS
def test_divergence_error_carries_iteration():
    """An overflowing state raises DivergenceError whether the step computes
    the current objective itself (unset) or takes it from the state, as
    every step inside ``solve`` does (set)."""
    spec, _ = mask_instance()
    big = FactorPair(1e200 * np.ones((10, 2)), 1e200 * np.ones((10, 2)))
    for obj_scaled in (math.nan, 1.0):
        st = SolverState(W=big, W_prev=big.copy(), obj_scaled=obj_scaled)
        with pytest.raises(DivergenceError, match="iteration 1") as info:
            step(spec, SolverConfig(), st)
        assert info.value.iteration == 1


@pytest.mark.parametrize("model,rho,lam", [("l20", None, 1e-5), ("dc", 0.05, 1e-4)])
def test_stopping_residuals_match_recomputation(model, rho, lam):
    spec, _ = mask_instance(model=model, rho=rho, lam=lam)
    cfg = SolverConfig()
    st = SolverState(W=initial_point(spec.op, spec.b, 2),
                     W_prev=initial_point(spec.op, spec.b, 2))
    for _ in range(8):
        prev = st
        st = step(spec, cfg, prev)
        ru, rv = stopping_residuals(spec, cfg, prev, st)
        assert st.res_u == pytest.approx(ru, abs=1e-12, rel=1e-12)
        assert st.res_v == pytest.approx(rv, abs=1e-12, rel=1e-12)


def warm_state(model, rho, lam):
    """Mask instance and the state after five steps, where the next step
    extrapolates without restarting or backtracking."""
    spec, _ = mask_instance(model=model, rho=rho, lam=lam)
    W0 = initial_point(spec.op, spec.b, 2)
    st = SolverState(W=W0, W_prev=W0.copy())
    st.obj_scaled = smooth_value(spec, W0) + column_penalty_value(spec, W0)
    for _ in range(5):
        st = step(spec, SolverConfig(), st)
    return spec, st


def count_calls(monkeypatch, calls, owner, attr, name=None):
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[name or attr] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, attr, wrapper)


BUDGET_CASES = [("l20", None, 1e-5), ("dc", 0.05, 1e-4)]


@pytest.mark.parametrize("model,rho,lam", BUDGET_CASES)
def test_step_operator_call_budget(model, rho, lam, monkeypatch):
    """A step that neither restarts nor backtracks evaluates four points,
    (U~, V), (U+, V), (U+, V~) and (U+, V+), each with one apply; the two
    linearization points and (U+, V+) each take one adjoint."""
    spec, st = warm_state(model, rho, lam)
    calls = Counter()
    count_calls(monkeypatch, calls, spec.op, "apply")
    count_calls(monkeypatch, calls, spec.op, "adjoint")
    count_calls(monkeypatch, calls, solver, "prox_matrix", "prox")
    st2 = step(spec, SolverConfig(), st)
    assert st.tk_prev > 1.0 and not st2.restarted and calls["prox"] == 2
    assert (calls["apply"], calls["adjoint"]) == (4, 3)


@pytest.mark.parametrize("model,rho,lam", BUDGET_CASES)
def test_step_validation_budget(model, rho, lam, monkeypatch):
    """Inputs are checked where they enter, not in the step: a step that
    neither restarts nor backtracks wraps only its accepted iterate in a
    FactorPair, checks no shapes and no vectors, and validates six matrices
    (two prox inputs, the new U and V, and the two column-penalty inputs)."""
    spec, st = warm_state(model, rho, lam)
    calls = Counter()
    count_calls(monkeypatch, calls, spec.op, "apply")
    count_calls(monkeypatch, calls, spec.op, "adjoint")
    count_calls(monkeypatch, calls, solver, "prox_matrix", "prox")
    count_calls(monkeypatch, calls, linalg, "as_matrix")
    count_calls(monkeypatch, calls, linalg, "as_vector")
    count_calls(monkeypatch, calls, FactorPair, "__post_init__", "FactorPair")
    count_calls(monkeypatch, calls, ModelSpec, "check_shapes")
    st2 = step(spec, SolverConfig(), st)
    assert not st2.restarted and calls["prox"] == 2
    assert (calls["FactorPair"], calls["check_shapes"], calls["as_vector"]) == (1, 0, 0)
    assert calls["as_matrix"] <= 6
    assert (calls["apply"], calls["adjoint"]) == (4, 3)


def test_residual_denominator_is_one_for_zero_data():
    rng = np.random.default_rng(2)
    op = FullOperator(4, 4)
    spec = ModelSpec(model="l20", op=op, b=np.zeros(16),
                     params=PenaltyParams(lam=0.01, mu_tilde=0.2))
    W0 = FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
    st = SolverState(W=W0, W_prev=W0.copy())
    cfg = SolverConfig()
    st2 = step(spec, cfg, st)
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
        assert r1.dist_u_final == r2.dist_u_final


def test_trace_backfill_and_time():
    spec, _ = mask_instance()
    _, trace, _ = solve(spec, SolverConfig(epsilon=1e-10, max_iters=500),
                        "auto", kappa=2)
    assert trace.iterate_stride == 1
    assert trace.records[-1].dist_u_final == 0.0
    assert trace.records[-1].dist_v_final == 0.0
    for rec in trace.records:
        assert math.isfinite(rec.dist_u_final)
    times = [rec.time_s for rec in trace.records]
    assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))


def test_no_acceleration_freezes_t():
    spec, _ = mask_instance()
    cfg = SolverConfig(accelerate=False, max_iters=5)
    st = SolverState(W=initial_point(spec.op, spec.b, 2),
                     W_prev=initial_point(spec.op, spec.b, 2))
    for _ in range(3):
        st = step(spec, cfg, st)
        assert st.tk == 1.0 and st.tk_prev == 1.0


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
def test_degenerate_inputs_end_in_result_or_divergence(problem):
    """b = 0, kappa = 1, lam = 0, all-zero and all-pruned starts and factor
    scales from 1e-150 to 1e200 end in finite factors with a normal reason
    or in a DivergenceError that names an iteration; nothing else escapes."""
    spec, W0, kappa = problem
    try:
        W, trace, reason = solve(spec, SolverConfig(max_iters=20), W0, kappa=kappa)
    except DivergenceError as err:
        assert err.iteration >= 1
        return
    assert reason in ("converged", "budget")
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
