import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from oracles import operator_matrix, stopping_residuals
from test_sampling import DenseTestOperator

from l20factor import linalg, solver
from l20factor.objective import (FactorPair, ModelSpec, column_penalty_value,
                                 smooth_gradient, smooth_value)
from l20factor.penalty import PenaltyParams
from l20factor.sampling import (FullOperator, GaussianOperator,
                                UniformMaskOperator)
from l20factor.solver import (DivergenceError, SolverConfig, SolverState,
                              initial_point, solve, step)

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


def test_initial_point_zeroes_columns_past_the_rank():
    """A rank-2 X0 with kappa 4 starts with exactly 2 nonzero columns: the
    singular values at roundoff level give zero columns, not sqrt(1e-16).
    On diagonal X0, whose SVD is exact, the start has min(kappa,
    numerical_rank(sigma)) nonzero columns with sigma_2 at 1e-8 sigma_1 and
    one ulp either side of it: the start and the rank share one rule."""
    rng = np.random.default_rng(5)
    M = rng.standard_normal((9, 2)) @ rng.standard_normal((7, 2)).T
    op = FullOperator(9, 7)
    W = initial_point(op, op.apply(M), 4)
    assert W.kappa == 4
    assert np.count_nonzero(np.linalg.norm(W.U, axis=0)) == 2
    assert np.count_nonzero(np.linalg.norm(W.V, axis=0)) == 2
    assert_allclose(W.product(), M, atol=1e-12)

    op = FullOperator(3, 3)
    edge = 1e-8 * 2.0
    for s2, rank in ((edge, 1), (np.nextafter(edge, 1.0), 2),
                     (np.nextafter(edge, 0.0), 1)):
        sigma = np.array([2.0, s2, 0.0])
        assert linalg.numerical_rank(sigma) == rank
        for kappa in (1, 2, 3):
            W = initial_point(op, op.apply(np.diag(sigma)), kappa)
            for F in (W.U, W.V):
                assert np.count_nonzero(np.linalg.norm(F, axis=0)) == min(kappa, rank)


def test_step_constants_floor_at_zero_pair():
    spec, _ = mask_instance()
    W = FactorPair(np.zeros((10, 2)), np.zeros((10, 2)))
    assert solver._step_constants(spec, W.U, W.V, 0) == (1e-8, 1e-8)


def test_step_constants_identity_factor():
    op = FullOperator(4, 3)
    spec = ModelSpec(model="l20", op=op, b=np.zeros(12),
                     params=PenaltyParams(lam=1.0, mu_tilde=0.0))
    W = FactorPair(np.zeros((4, 3)), np.eye(3))
    LU, LV = solver._step_constants(spec, W.U, W.V, 0)
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
    LU, _ = solver._step_constants(spec, U, V, 0)
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
        W0 = initial_point(spec.op, spec.b, 4)
        LU, _ = solver._step_constants(spec, W0.U, W0.V, 0)
        umap = spec.op.restricted(W0.V, "u")
        U, _, L, _ = solver._prox_substep(spec, umap, W0.U, LU * 2.0 ** -20, 1)
        accepted.append((L / LU, U / math.sqrt(c)))
        assert L / LU == accepted[0][0]
        assert_allclose(U / math.sqrt(c), accepted[0][1], rtol=1e-9, atol=1e-12)
        with pytest.raises(DivergenceError, match="60 doublings"):
            solver._prox_substep(spec, umap, W0.U, LU * 2.0 ** -80, 1)


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
    cfg = SolverConfig()
    st = SolverState(W=initial_point(spec.op, spec.b, 2),
                     W_prev=initial_point(spec.op, spec.b, 2))
    for _ in range(8):
        prev = st
        st = step(spec, cfg, prev)
        ru, rv = stopping_residuals(spec, cfg, prev, st)
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


def test_step_operator_call_budget_gaussian(monkeypatch):
    """A Gaussian step that neither restarts nor backtracks makes no full
    apply or adjoint: the U-substep goes through the map the last step left,
    and it builds two maps, one fixing U+ for the V-substep and one fixing
    V+ for the stopping residual and the next step."""
    spec, st = warm_state("l20", None, 100.0, gaussian_instance)
    calls = Counter()
    for attr in ("apply", "adjoint", "restricted"):
        count_calls(monkeypatch, calls, spec.op, attr)
    count_calls(monkeypatch, calls, solver, "prox_matrix", "prox")
    st2 = step(spec, SolverConfig(), st)
    assert st.tk_prev > 1.0 and not st2.restarted and calls["prox"] == 2
    assert (calls["apply"], calls["adjoint"], calls["restricted"]) == (0, 0, 2)
    assert st2.umap.Q is st2.W.V and st2.umap.side == "u"


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
    st = SolverState(W=W, W_prev=FactorPair(Up, Vp), obj_scaled=obj)
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
