import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from l20factor import linalg
from l20factor.diagnostics import (KLModuli, certify_optimal_pair,
                                   exact_penalty_threshold,
                                   kl_inequality_probe, kl_moduli,
                                   ones_counterexample,
                                   ones_counterexample_point, _probe_radius,
                                   subdiff_distance)
from l20factor.objective import (FactorPair, ModelSpec, build_balanced_factors,
                                 column_penalty_value, objective_gap,
                                 smooth_gradient, smooth_value)
from l20factor.penalty import PenaltyParams
from l20factor.sampling import FullOperator, UniformMaskOperator
from l20factor.solver import SolverConfig, solve
from oracles import dc_subdiff_distance_loop, fd_gradient


def full_spec(M, lam, mu_tilde, model="l20", a=3.7, rho=None):
    op = FullOperator(*M.shape)
    params = PenaltyParams(lam=lam, mu_tilde=mu_tilde, a=a, rho=rho)
    return ModelSpec(model=model, op=op, b=op.apply(M), params=params)


def test_build_balanced_rank_one():
    rng = np.random.default_rng(0)
    X = 3.0 * np.outer(rng.standard_normal(5), rng.standard_normal(4))
    W = build_balanced_factors(X, 3)
    assert W.kappa == 3
    assert_allclose(W.product(), X, atol=1e-12)
    assert np.count_nonzero(np.linalg.norm(W.U, axis=0) > 0) == 1
    assert np.count_nonzero(np.linalg.norm(W.V, axis=0) > 0) == 1


def test_build_balanced_diagonal():
    W = build_balanced_factors(np.diag([4.0, 1.0]), 2)
    assert_allclose(np.abs(W.U), np.diag([2.0, 1.0]), atol=1e-14)
    assert_allclose(np.abs(W.V), np.diag([2.0, 1.0]), atol=1e-14)


def test_build_balanced_certifies_itself():
    rng = np.random.default_rng(1)
    for r, kappa in ((1, 2), (2, 2), (2, 4)):
        X = rng.standard_normal((6, r)) @ rng.standard_normal((5, r)).T
        W = build_balanced_factors(X, kappa)
        cert = certify_optimal_pair(W, X)
        assert cert.passed, cert


def test_build_balanced_kappa_range():
    with pytest.raises(ValueError, match="kappa"):
        build_balanced_factors(np.eye(3), 0)
    with pytest.raises(ValueError, match="kappa"):
        build_balanced_factors(np.eye(3), 4)


def test_build_balanced_truncated_is_balanced():
    """The solver's start from a full-rank mask X0 = A*(b), kappa below its
    rank: the leading kappa triples still give a balanced pair."""
    rng = np.random.default_rng(1)
    op = UniformMaskOperator.from_ratio(7, 6, 0.5, rng)
    X0 = op.adjoint(rng.standard_normal(op.p))
    assert linalg.numerical_rank(np.linalg.svd(X0, compute_uv=False)) > 4
    W = build_balanced_factors(X0, 4)
    bal = np.linalg.norm(W.U.T @ W.U - W.V.T @ W.V)
    assert bal <= 1e-8 * np.linalg.norm(X0)


def test_build_balanced_zeroes_columns_past_the_rank():
    """A rank-2 X with kappa 4 gives exactly 2 nonzero columns: the
    singular values at roundoff level give zero columns, not sqrt(1e-16).
    On diagonal X, whose SVD is exact, the pair has min(kappa,
    numerical_rank(sigma)) nonzero columns with sigma_2 at 1e-8 sigma_1 and
    one ulp either side of it: the factors and the rank share one rule."""
    rng = np.random.default_rng(5)
    M = rng.standard_normal((9, 2)) @ rng.standard_normal((7, 2)).T
    W = build_balanced_factors(M, 4)
    assert W.kappa == 4
    assert np.count_nonzero(np.linalg.norm(W.U, axis=0)) == 2
    assert np.count_nonzero(np.linalg.norm(W.V, axis=0)) == 2
    assert_allclose(W.product(), M, atol=1e-12)

    edge = 1e-8 * 2.0
    for s2, rank in ((edge, 1), (np.nextafter(edge, 1.0), 2),
                     (np.nextafter(edge, 0.0), 1)):
        sigma = np.array([2.0, s2, 0.0])
        assert linalg.numerical_rank(sigma) == rank
        for kappa in (1, 2, 3):
            W = build_balanced_factors(np.diag(sigma), kappa)
            for F in (W.U, W.V):
                assert np.count_nonzero(np.linalg.norm(F, axis=0)) == min(kappa, rank)


def test_certificate_fails_on_unbalanced_pair():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 2)) @ rng.standard_normal((4, 2)).T
    W = build_balanced_factors(X, 2)
    skew = FactorPair(2.0 * W.U, 0.5 * W.V)
    cert = certify_optimal_pair(skew, X)
    assert not cert.passed
    assert cert.product_error <= 1e-12
    assert cert.balance_error > 1e-8 * np.linalg.norm(X, 2)


def test_certificate_fails_on_extra_cancelling_columns():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 2)) @ rng.standard_normal((4, 2)).T
    W = build_balanced_factors(X, 2)
    w = rng.standard_normal(5)
    z = rng.standard_normal(4)
    U = np.column_stack([W.U, w, w])
    V = np.column_stack([W.V, z, -z])
    cert = certify_optimal_pair(FactorPair(U, V), X)
    assert not cert.passed
    assert cert.col_count_u == 4
    assert cert.rank_product == 2


def test_certificate_fails_on_wrong_product():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((4, 2)) @ rng.standard_normal((4, 2)).T
    W = FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
    assert not certify_optimal_pair(W, X).passed


def test_certificate_rejects_zero_target():
    with pytest.raises(ValueError, match="nonzero"):
        certify_optimal_pair(build_balanced_factors(np.eye(2), 2), np.zeros((2, 2)))


def test_psi_distance_on_escape_curve():
    for nu in (1.0, 3.0):
        spec, Wbar, M = ones_counterexample(nu)
        for t in (0.5, 0.1, 0.01):
            W = ones_counterexample_point(t)
            gap = objective_gap(spec, W, Wbar)
            dist = subdiff_distance(spec, W)
            assert gap == pytest.approx(8.0 * nu * t ** 4, rel=1e-10)
            assert dist == pytest.approx(8.0 * math.sqrt(2.0) * nu * t ** 3,
                                         rel=1e-10)


def test_psi_distance_zero_at_optimum():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((5, 2)) @ rng.standard_normal((5, 2)).T
    spec = full_spec(M, lam=0.5, mu_tilde=0.5)
    Wbar = build_balanced_factors(M, 3)
    assert subdiff_distance(spec, Wbar) <= 1e-10


def test_psi_distance_zero_at_all_zero_columns():
    M = np.diag([2.0, 1.0])
    spec = full_spec(M, lam=0.5, mu_tilde=0.5)
    assert subdiff_distance(spec, FactorPair(np.zeros((2, 2)),
                                             np.zeros((2, 2)))) == 0.0


def test_psi_distance_small_at_converged_solution():
    """Stationarity consistency: a run stopped at residuals <= eps has
    subdifferential distance <= 10 eps (1 + ||b||) for moderate nu."""
    rng = np.random.default_rng(3)
    M = rng.standard_normal((10, 2)) @ rng.standard_normal((10, 2)).T
    op = UniformMaskOperator.from_ratio(10, 10, 0.8, rng)
    spec = ModelSpec(model="l20", op=op, b=op.apply(M),
                     params=PenaltyParams(lam=0.5, mu_tilde=0.1))
    eps = 1e-10
    W, _, reason = solve(spec, SolverConfig(epsilon=eps, max_iters=3000),
                         "auto", kappa=3)
    assert reason == "converged"
    d = subdiff_distance(spec, W)
    assert d <= 10.0 * eps * (1.0 + np.linalg.norm(spec.b))


def test_theta_distance_zero_at_saturated_optimum():
    rng = np.random.default_rng(6)
    M = 10.0 * rng.standard_normal((5, 2)) @ rng.standard_normal((5, 2)).T
    Wbar = build_balanced_factors(M, 2)
    rho = 100.0  # every column norm is far beyond the saturation point
    spec = full_spec(M, lam=0.5, mu_tilde=0.5, model="dc", a=3.0, rho=rho)
    sat = 2.0 * 3.0 / (4.0 * rho)
    assert np.linalg.norm(Wbar.U, axis=0).min() > sat
    assert subdiff_distance(spec, Wbar) <= 1e-10


def test_theta_distance_matches_finite_differences():
    """With every column nonzero and away from the kinks, the assembled
    per-column components are the true gradient of the surrogate objective."""
    rng = np.random.default_rng(3)
    M = rng.standard_normal((5, 2)) @ rng.standard_normal((4, 2)).T
    spec = full_spec(M, lam=0.5, mu_tilde=0.4, model="dc", a=3.0, rho=0.7)
    U = rng.standard_normal((5, 3))
    V = rng.standard_normal((4, 3))
    dist = subdiff_distance(spec, FactorPair(U, V))

    def unscaled(W):
        return (smooth_value(spec, W) + column_penalty_value(spec, W)) / spec.params.lam
    fU = fd_gradient(lambda X: unscaled(FactorPair(X, V)), U, step=1e-6)
    fV = fd_gradient(lambda X: unscaled(FactorPair(U, X)), V, step=1e-6)
    fd_dist = math.sqrt(float(np.sum(fU * fU)) + float(np.sum(fV * fV)))
    assert dist == pytest.approx(fd_dist, abs=1e-4)


def test_theta_distance_zero_column_contribution():
    """A spare zero column pair at a zero-gradient point adds nothing."""
    rng = np.random.default_rng(7)
    M = 10.0 * rng.standard_normal((5, 1)) @ rng.standard_normal((5, 1)).T
    Wbar = build_balanced_factors(M, 2)  # second column pair is zero
    assert np.linalg.norm(Wbar.U[:, 1]) == 0.0
    spec = full_spec(M, lam=0.5, mu_tilde=0.5, model="dc", a=3.0, rho=100.0)
    assert subdiff_distance(spec, Wbar) <= 1e-10


# Column radii by where rho * s falls on theta's branches.
_KINDS = ("zero", "below", "middle", "saturated")


def _column(rng, rows, kind, a, rho):
    lo, hi = 2.0 / (a + 1), 2.0 * a / (a + 1)
    u = rng.uniform(0.1, 0.9)
    s = {"zero": 0.0, "below": u * lo, "middle": lo + u * (hi - lo),
         "saturated": hi * (1.0 + 2.0 * u)}[kind] / rho
    d = rng.standard_normal(rows)
    return s * d / np.linalg.norm(d)


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2 ** 16),
       kinds=hst.lists(hst.tuples(hst.sampled_from(_KINDS), hst.sampled_from(_KINDS)),
                       min_size=1, max_size=4),
       a=hst.sampled_from((2.0, 3.7)), rho=hst.sampled_from((0.3, 1.0, 5.0)),
       full=hst.booleans())
@example(seed=0, kinds=[("zero", "zero"), ("below", "below"),
                        ("saturated", "saturated")], a=3.7, rho=1.0, full=True)
@example(seed=1, kinds=[("zero", "below"), ("middle", "saturated")],
         a=2.0, rho=5.0, full=False)
def test_subdiff_distance_matches_column_loop(seed, kinds, a, rho, full):
    """dc: the per-column loop of tests/oracles.py to 1e-12 relative; l20:
    bitwise the sum of the smooth gradient's squares over live columns."""
    rng = np.random.default_rng(seed)
    m, n = 5, 4
    M = rng.standard_normal((m, 2)) @ rng.standard_normal((n, 2)).T
    op = FullOperator(m, n) if full else UniformMaskOperator.from_ratio(m, n, 0.6, rng)
    params = PenaltyParams(lam=0.5, mu_tilde=0.3, a=a, rho=rho)
    U = np.column_stack([_column(rng, m, ku, a, rho) for ku, _ in kinds])
    V = np.column_stack([_column(rng, n, kv, a, rho) for _, kv in kinds])
    W = FactorPair(U, V)

    dc = ModelSpec(model="dc", op=op, b=op.apply(M), params=params)
    assert subdiff_distance(dc, W) == pytest.approx(
        dc_subdiff_distance_loop(dc, U, V), rel=1e-12, abs=0.0)

    l20 = ModelSpec(model="l20", op=op, b=op.apply(M), params=params)
    g = smooth_gradient(l20, W)
    G, H = params.nu * g.grad_u, params.nu * g.grad_v
    mask_u = np.linalg.norm(U, axis=0) > linalg.default_zero_tol(U)
    mask_v = np.linalg.norm(V, axis=0) > linalg.default_zero_tol(V)
    psi = math.sqrt(float(np.sum(G[:, mask_u] ** 2)) + float(np.sum(H[:, mask_v] ** 2)))
    assert subdiff_distance(l20, W) == psi


def test_kl_moduli_reference_value():
    mod = kl_moduli(1.0, 1.0, 1, 8.0, 1.0, 1.0, 1.0)
    assert mod.gamma == pytest.approx(8.0 * (2.0 / (128.0 * 25.0)) ** 2, rel=1e-15)
    assert mod.gamma == pytest.approx(3.125e-6, rel=1e-12)
    assert mod.condition_ok and mod.alpha_ok
    assert math.isnan(mod.gamma_prime)


def test_kl_moduli_gamma_prime_cap():
    params = PenaltyParams(lam=1.0, mu_tilde=1.0, a=3.0, rho=4.0)
    mod = kl_moduli(1.0, 1.0, 1, 1e12, 1e3, 1.0, 1.0, params=params)
    assert mod.gamma_prime == 2.0
    assert mod.gamma == pytest.approx(2.0 * 1e3 * 1.0)
    small = kl_moduli(1.0, 1.0, 1, 8.0, 1.0, 1.0, 1.0, params=params)
    assert small.gamma_prime == small.gamma  # 32/rho^2 = 2 does not bind


def test_kl_moduli_flags():
    assert kl_moduli(1.0, 1.0, 1, 8.0, 1.0, 0.4, 0.4).alpha_ok is False
    assert kl_moduli(1.0, 1.0, 1, 8.0, 1.0, 1.0, 1.0).condition_ok is True
    assert kl_moduli(4.0, 1.0, 1, 8.0, 1.0, 0.5, 1.5).condition_ok is False


def test_kl_moduli_monotone_in_beta():
    """Within the condition-number hypothesis region, raising beta never
    raises gamma. (Outside it the squared bracket grows again, but the
    moduli are flagged meaningless there.)"""
    sigma1, sigma_r, alpha = 2.0, 1.0, 1.0
    base = 128.0 * sigma1 ** 2 * (4.0 * sigma1 + sigma_r) ** 2
    bound = (base + sigma_r ** 4) / (base - sigma_r ** 4)
    prev = math.inf
    for beta in np.linspace(alpha, alpha * bound, 21)[:-1]:
        mod = kl_moduli(sigma1, sigma_r, 2, 4.0, 1.0, alpha, float(beta))
        assert mod.condition_ok
        assert mod.gamma <= prev + 1e-15
        prev = mod.gamma


def test_kl_moduli_validation():
    with pytest.raises(ValueError, match="sigma"):
        kl_moduli(1.0, 2.0, 1, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        kl_moduli(1.0, 1.0, 1, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="r >="):
        kl_moduli(1.0, 1.0, 0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="nu"):
        kl_moduli(1.0, 1.0, 1, 0.0, 1.0, 1.0, 1.0)


def test_probe_radius_values():
    """The radius comes from M's singular values, here those of diag(4, 1)."""
    M = np.diag([4.0, 1.0])
    sigma = np.array([4.0, 1.0])
    l20 = full_spec(M, lam=0.5, mu_tilde=0.5)
    assert _probe_radius(l20, sigma) == pytest.approx(0.25)
    dc = full_spec(M, lam=0.5, mu_tilde=0.5, model="dc", a=3.0, rho=2.0)
    nu, mu = 2.0, 1.0
    expect = min(0.25, (2.0 / 4.0) / 2.0, 2.0 / (4.0 * math.sqrt(nu) + 16.0 * mu * 4.0))
    assert _probe_radius(dc, sigma) == pytest.approx(expect, rel=1e-12)
    assert _probe_radius(dc, sigma) <= 0.25
    with pytest.raises(ValueError, match="zero"):
        _probe_radius(l20, np.zeros(2))


def test_probe_holds_near_certified_optimum():
    M = np.diag([2.0, 2.0])
    spec = full_spec(M, lam=0.5, mu_tilde=0.5)  # nu = 2, mu = 1
    Wbar = build_balanced_factors(M, 2)
    mod = kl_moduli(2.0, 2.0, 2, 2.0, 1.0, 1.0, 1.0)
    rep = kl_inequality_probe(spec, Wbar, M, mod, samples=100, seed=0)
    assert rep.status == "ok"
    assert rep.kept == 100
    assert rep.slack >= -1e-10
    assert rep.window == (0.0, 0.5)
    again = kl_inequality_probe(spec, Wbar, M, mod, samples=100, seed=0)
    assert again.slack == rep.slack and again.drawn == rep.drawn


def test_probe_requires_hypothesis_flags():
    M = np.diag([2.0, 2.0])
    spec = full_spec(M, lam=0.5, mu_tilde=0.5)
    Wbar = build_balanced_factors(M, 2)
    bad = KLModuli(gamma=1.0, gamma_prime=math.nan, condition_ok=True,
                   alpha_ok=False)
    with pytest.raises(ValueError, match="alpha_ok"):
        kl_inequality_probe(spec, Wbar, M, bad, samples=10)
    bad2 = KLModuli(gamma=1.0, gamma_prime=math.nan, condition_ok=False,
                    alpha_ok=True)
    with pytest.raises(ValueError, match="condition_ok"):
        kl_inequality_probe(spec, Wbar, M, bad2, samples=10)
    with pytest.raises(ValueError, match="samples"):
        good = kl_moduli(2.0, 2.0, 2, 2.0, 1.0, 1.0, 1.0)
        kl_inequality_probe(spec, Wbar, M, good, samples=0)


def test_probe_checks_data_before_sampling():
    M = np.diag([2.0, 2.0])
    spec = full_spec(M, lam=0.5, mu_tilde=0.5)
    Wbar = build_balanced_factors(M, 2)
    mod = kl_moduli(2.0, 2.0, 2, 2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="not the measurement"):
        kl_inequality_probe(spec, Wbar, np.diag([5.0, 5.0]), mod, samples=10)
    with pytest.raises(ValueError, match="M has shape"):
        kl_inequality_probe(spec, Wbar, np.eye(3), mod, samples=10)


def test_probe_cost_per_kept_sample(monkeypatch):
    """On full sampling a drawn sample costs one apply (its smooth value in
    the gap) and a kept one an apply and an adjoint more (the distance's
    gradient); before the loop the data check and Wbar's smooth value cost
    one apply each, and M passes through ``as_matrix`` once per probe."""
    M = np.diag([2.0, 2.0])
    spec = full_spec(M, lam=0.5, mu_tilde=0.5)
    Wbar = build_balanced_factors(M, 2)
    mod = kl_moduli(2.0, 2.0, 2, 2.0, 1.0, 1.0, 1.0)
    calls = {"apply": 0, "adjoint": 0, "M": 0}
    for name in ("apply", "adjoint"):
        def counted(x, _name=name, _fn=getattr(spec.op, name)):
            calls[_name] += 1
            return _fn(x)
        monkeypatch.setattr(spec.op, name, counted)
    checked = linalg.as_matrix

    def as_matrix(X, name="X"):
        calls["M"] += X is M
        return checked(X, name)
    monkeypatch.setattr(linalg, "as_matrix", as_matrix)
    rep = kl_inequality_probe(spec, Wbar, M, mod, samples=20, seed=0)
    assert rep.kept == 20
    assert calls["apply"] <= 2 + rep.drawn + rep.kept
    assert calls["adjoint"] <= rep.kept
    assert calls["M"] == 1


def test_probe_window_can_reject_everything():
    """Huge nu scales every sampled gap beyond 1/2, so nothing is kept."""
    M = np.diag([2.0, 2.0])
    spec = full_spec(M, lam=1e-12, mu_tilde=1e-12)  # nu = 1e12, mu = 1
    Wbar = build_balanced_factors(M, 2)
    mod = kl_moduli(2.0, 2.0, 2, 1e12, 1.0, 1.0, 1.0)
    rep = kl_inequality_probe(spec, Wbar, M, mod, samples=5, seed=0)
    assert rep.status == "no-admissible-samples"
    assert rep.kept == 0
    assert rep.drawn == 200 * 5
    assert math.isnan(rep.slack)


def test_growth_inequality_fails_on_escape_curve():
    """Below the crossover scale sqrt(gamma/(16 nu)) the curve's quartic gap
    beats the cubic-squared distance, so the slack goes negative: the hard
    model cannot satisfy the exponent-1/2 growth inequality at this point."""
    nu = 3.0
    spec, Wbar, M = ones_counterexample(nu)
    mod = kl_moduli(16.0, 16.0, 1, nu, 1.0, 1.0, 1.0)
    tstar = math.sqrt(mod.gamma / (16.0 * nu))
    for frac in (0.9, 0.5, 0.1):
        W = ones_counterexample_point(frac * tstar)
        gap = objective_gap(spec, W, Wbar)
        d = subdiff_distance(spec, W)
        assert gap > 0
        assert d * d - mod.gamma * gap < 0


def test_counterexample_point_is_critical_but_not_optimal():
    spec, Wbar, M = ones_counterexample(3.0)
    assert subdiff_distance(spec, Wbar) == 0.0
    cert = certify_optimal_pair(Wbar, M)
    assert not cert.passed
    assert cert.product_error <= 1e-14 and cert.balance_error <= 1e-14
    assert cert.col_count_u == 4 and cert.rank_product == 1
    with pytest.raises(ValueError, match="positive"):
        ones_counterexample(0.0)


def test_threshold_small_core_returns_kink_slope():
    p = PenaltyParams(lam=1.0, mu_tilde=1.0, a=3.7)
    out = exact_penalty_threshold(1.0, 4.0, 1, 1, 1e3, 1.0, 1.0, p)
    assert out == p.breakpoint_high
    assert out == pytest.approx(7.4 / 4.7, rel=1e-15)


def test_threshold_large_nu_limit():
    p = PenaltyParams(lam=1.0, mu_tilde=1.0, a=3.7)
    alpha, sigma_r, r, kappa, mu, op_norm = 0.5, 1.0, 2, 4, 1.0, 1.0
    core = op_norm * math.sqrt(kappa) / (math.sqrt(alpha) * sigma_r)
    core *= math.sqrt(1.0 + 2.0 * math.sqrt(r) / math.sqrt(mu))
    limit = max(1.0, core) * p.breakpoint_high
    got = exact_penalty_threshold(1e8, mu, r, kappa, sigma_r, alpha, op_norm, p)
    assert got == pytest.approx(limit, rel=1e-3)


def test_threshold_hypothesis_violation():
    p = PenaltyParams(lam=1.0, mu_tilde=1.0, a=3.7)
    with pytest.raises(ValueError, match="threshold hypothesis"):
        exact_penalty_threshold(1.0, 1.0, 1, 1, 1.0, 1.0, 1.0, p)
    with pytest.raises(ValueError, match="positive"):
        exact_penalty_threshold(-1.0, 1.0, 1, 1, 1.0, 1.0, 1.0, p)
    with pytest.raises(ValueError, match="r >= 1"):
        exact_penalty_threshold(10.0, 1.0, 0, 1, 1.0, 1.0, 1.0, p)
