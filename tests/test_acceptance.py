"""End-to-end acceptance checks, one per advertised capability.

Each test prints a single PASS/FAIL line with the measured quantities so the
whole gate can be read off a normal pytest run. Tolerances and runtime
budgets are part of each check.

Criterion 2 checks the paper's local guarantee for the hard model at the
small penalty scale lambda = 0.15*||X0||: started next to the set of global
minimizers (the balanced rank-5 truth padded to kappa columns, plus a small
seeded perturbation), the solver prunes the spurious columns and converges
linearly to that truth. It does not ask the solver to find the truth from
the spectral start. At this scale the first prox step from the spectral start
prunes nothing. Columns die only through the prox or a rank drop; a column
that dies in one factor is zeroed in the other, and a column zero in both
leaves the solver's working set for good. So that run stops above the
truth's rank (10 columns after 5 rank drops); criterion 4 pins that
behaviour of too small a scale. The far-start check
below criterion 2 starts fifty times further out (truth + 5e-2), where spurious
columns die in one factor first. The companion line below criterion 2 solves
the same instance from the spectral start at the recalibrated scale
55*||X0||. See README.md.
"""

import math
import time

import numpy as np

from l20factor import linalg, solver
from l20factor.diagnostics import (certify_optimal_pair, kl_inequality_probe,
                                   kl_moduli, ones_counterexample,
                                   ones_counterexample_point,
                                   subdiff_distance)
from l20factor.harness import (ExperimentConfig, build_model_spec,
                               convergence_fit, gen_instance, relative_error,
                               run_experiment, run_fig3)
from l20factor.objective import (FactorPair, ModelSpec, build_balanced_factors,
                                 objective_gap, smooth_gradient, smooth_value)
from l20factor.penalty import PenaltyParams, g_scalar, psi_star
from l20factor.prox import prox_matrix
from l20factor.sampling import FullOperator, UniformMaskOperator
from l20factor.solver import SolverConfig, solve
from oracles import (fd_gradient, grid_conjugate, l20_bruteforce,
                     prox_radial_oracle)


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {label}: {detail}")
    assert ok, f"criterion {label}: {detail}"


def test_criterion_1_escape_curve_rates(capsys):
    t0 = time.monotonic()
    critical = 0.0
    worst = 0.0
    for nu in (1.0, 3.0):
        spec, Wbar, M = ones_counterexample(nu)
        critical = max(critical, subdiff_distance(spec, Wbar))
        for t in (0.5, 0.1, 0.01):
            W = ones_counterexample_point(t)
            gap = objective_gap(spec, W, Wbar)
            dist = subdiff_distance(spec, W)
            worst = max(
                worst,
                abs(gap - 8 * nu * t**4) / (8 * nu * t**4),
                abs(dist - 8 * math.sqrt(2) * nu * t**3)
                / (8 * math.sqrt(2) * nu * t**3),
            )
    elapsed = time.monotonic() - t0
    ok = critical == 0.0 and worst <= 1e-10 and elapsed < 1.0
    _report(capsys, 1, ok,
            f"escape curve reproduces gap 8*nu*t^4 and distance "
            f"8*sqrt(2)*nu*t^3, worst rel err {worst:.2e}, "
            f"critical-point distance {critical:.1e}, {elapsed:.2f}s (< 1s)")


def _solve_near_truth(delta, max_iters):
    """Criterion 2's instance solved from the balanced rank-5 truth, padded
    to kappa = 15 columns, plus a seeded N(0, delta^2) perturbation."""
    cfg = ExperimentConfig(m=300, n=300, r=5, kappa=15, sample_ratio=0.25,
                           operator_kind="mask", model="l20", mu_tilde=1e-3,
                           lambda_rule="0.15 * specnorm(X0)",
                           epsilon=1e-10, max_iters=max_iters, seed=0)
    M, op, b = gen_instance(cfg)
    spec = build_model_spec(cfg, op, b)
    rng = np.random.default_rng(cfg.seed)
    Wbar = build_balanced_factors(M, cfg.kappa)
    W0 = FactorPair(Wbar.U + delta * rng.standard_normal(Wbar.U.shape),
                    Wbar.V + delta * rng.standard_normal(Wbar.V.shape))
    W, trace, reason = solve(spec, SolverConfig(epsilon=cfg.epsilon,
                                                max_iters=cfg.max_iters), W0)
    _, r2 = convergence_fit(trace)
    held = sum(math.isfinite(rec.dist_u_final) for rec in trace.records)
    return (spec, reason, len(trace.records), relative_error(W, M), r2,
            linalg.l20_norm(W.U), linalg.l20_norm(W.V), held)


def test_criterion_2_hard_model_small_penalty_scale(capsys):
    # Each perturbed zero column has norm about delta * sqrt(300) = 0.017, an
    # order of magnitude below the hard-prox keep threshold
    # sqrt(lambda / L_U) = 0.29 at the truth.
    t0 = time.monotonic()
    delta = 1e-3
    spec, reason, iters, rel_error, r2, nnz_u, _, _ = _solve_near_truth(delta, 6000)
    elapsed = time.monotonic() - t0
    ok = (reason == "converged" and rel_error <= 1e-8 and r2 >= 0.95
          and nnz_u == 5 and elapsed < 60)
    _report(capsys, 2, ok,
            f"lambda = 0.15*||X0|| = {spec.params.lam:.2f}, start = truth "
            f"+ {delta:.0e} per entry: reason={reason} "
            f"after {iters} iterations, "
            f"rel_error={rel_error:.2e} (need <= 1e-8) "
            f"R2={r2:.3f} (need >= 0.95) nnz_u={nnz_u} (need 5) "
            f"{elapsed:.0f}s (< 60s)")


def test_criterion_2_far_start_prunes_orphan_columns(capsys):
    """From truth + 5e-2 the spurious columns die in one factor first; the
    solver zeroes the other half at once instead of waiting for the weak
    balance gradient to shrink it, so the run reaches the truth's support
    well inside the budget and the rate fit reads the linear tail. The
    trace ends holding at most _KEPT + 1 iterates of the 1300-odd."""
    t0 = time.monotonic()
    delta = 5e-2
    _, reason, iters, rel_error, r2, nnz_u, nnz_v, held = \
        _solve_near_truth(delta, 3000)
    elapsed = time.monotonic() - t0
    ok = (reason == "converged" and rel_error <= 1e-8 and r2 >= 0.95
          and nnz_u == nnz_v == 5 and held <= solver._KEPT + 1 and elapsed < 60)
    _report(capsys, "2-far-start", ok,
            f"start = truth + {delta:.0e} per entry: reason={reason} after "
            f"{iters} iterations (budget 3000), rel_error={rel_error:.2e} "
            f"(need <= 1e-8) R2={r2:.3f} (need >= 0.95) "
            f"nnz=({nnz_u}, {nnz_v}) (need (5, 5)) "
            f"{held} iterates held (need <= {solver._KEPT + 1}) "
            f"{elapsed:.0f}s (< 60s)")


def test_criterion_2_companion_recalibrated_scale(capsys):
    t0 = time.monotonic()
    cfg = ExperimentConfig(m=300, n=300, r=5, kappa=15, sample_ratio=0.25,
                           operator_kind="mask", model="l20", mu_tilde=1e-3,
                           epsilon=1e-10, max_iters=20000, seed=0)
    s = run_experiment(cfg)["summary"]
    elapsed = time.monotonic() - t0
    ok = (s["reason"] == "converged" and s["rel_error"] <= 1e-8
          and s["r2"] >= 0.95 and s["nnz_u"] == 5 and elapsed < 60)
    _report(capsys, "2-companion", ok,
            f"lambda = 55*||X0||: same instance recovered, "
            f"rel_error={s['rel_error']:.2e} R2={s['r2']:.3f} "
            f"nnz_u={s['nnz_u']}=r, {s['iterations']} iterations, "
            f"{elapsed:.0f}s (< 60s)")


def test_criterion_3_dc_model_recovery(capsys):
    t0 = time.monotonic()
    cfg = ExperimentConfig(m=300, n=300, r=5, kappa=15, sample_ratio=0.25,
                           operator_kind="mask", model="dc", mu_tilde=1e-2,
                           epsilon=1e-10, max_iters=20000, seed=0)
    s = run_experiment(cfg)["summary"]
    elapsed = time.monotonic() - t0
    ok = s["rel_error"] <= 1e-8 and s["r2"] >= 0.95 and elapsed < 60
    _report(capsys, 3, ok,
            f"dc model, quadratic lambda rule and matched rho: "
            f"rel_error={s['rel_error']:.2e} (need <= 1e-8) "
            f"R2={s['r2']:.3f} (need >= 0.95) nnz_u={s['nnz_u']} "
            f"{elapsed:.0f}s (< 60s)")


def test_criterion_4_penalty_scale_sweep(capsys):
    t0 = time.monotonic()
    cfg = ExperimentConfig(m=200, n=200, r=5, kappa=10, sample_ratio=0.3,
                           operator_kind="mask", model="l20", mu_tilde=1e-3,
                           epsilon=1e-10, max_iters=1500, seed=0)
    runs = run_fig3(cfg, [0.5, 5.0, 50.0, 500.0])["runs"]
    elapsed = time.monotonic() - t0
    smallest = runs[0]
    middle = runs[2]
    # The smallest c converges above the rank: rank drops shed 4 of its 10
    # columns, and it stops at 6 > r = 5 columns.
    ok = (smallest["reason"] == "converged"
          and smallest["nnz_u"] == smallest["nnz_v"] > 5
          and middle["nnz_u"] == 5 and middle["nnz_v"] == 5
          and middle["rel_error"] <= 1e-8 and elapsed < 120)
    counts = [(r["c"], r["nnz_u"]) for r in runs]
    _report(capsys, 4, ok,
            f"(c, nnz_u) = {counts}: smallest c converges above r=5 columns, "
            f"c=50 recovers nnz=r=5 with rel_error="
            f"{middle['rel_error']:.2e}, {elapsed:.0f}s (< 120s)")


def test_criterion_5_oracle_suites(capsys):
    t0 = time.monotonic()

    # (a) conjugate closed form vs dense grid maximization
    worst_a = 0.0
    for a in (2.0, 3.0, 3.7):
        p = PenaltyParams(lam=1.0, mu_tilde=0.0, a=a)
        for s in np.arange(-3.0, 3.0 + 1e-9, 0.01):
            worst_a = max(worst_a,
                          abs(psi_star(p, s) - grid_conjugate(a, abs(s))))

    # (b) the column prox of both models vs grid + golden-section oracle
    rng = np.random.default_rng(0)
    worst_b = 0.0
    for _ in range(100):
        lam = float(rng.uniform(0.1, 5.0))
        L = float(rng.uniform(0.2, 10.0))
        z = float(rng.uniform(0.0, 4.0))
        a = float(rng.uniform(1.5, 5.0))
        rho = float(rng.uniform(0.2, 4.0))
        zcol = np.array([[z]])

        p20 = PenaltyParams(lam=lam, mu_tilde=0.0)
        got = float(prox_matrix(zcol, L, p20, "l20")[0, 0])
        def q20(s, lam=lam, L=L, z=z):
            return 0.5 * lam * (s != 0.0) + 0.5 * L * (s - z) ** 2
        ref = prox_radial_oracle(q20, max(2.0 * z, 1.0))
        if q20(ref) > q20(0.0):
            ref = 0.0
        worst_b = max(worst_b, abs(got - ref))

        pd = PenaltyParams(lam=lam, mu_tilde=0.0, a=a, rho=rho)
        gotd = float(prox_matrix(zcol, L, pd, "dc")[0, 0])
        def qdc(s, pd=pd, L=L, z=z):
            return 0.5 * g_scalar(pd, s) + 0.5 * L * (s - z) ** 2
        refd = prox_radial_oracle(qdc, max(2.0 * z, 1.0))
        if qdc(refd) > qdc(0.0):
            refd = 0.0
        worst_b = max(worst_b, abs(gotd - refd))

    # (c) smooth gradients vs central finite differences
    worst_c = 0.0
    for model in ("l20", "dc"):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, n, kappa = 5, 4, 3
            op = UniformMaskOperator.from_ratio(m, n, 0.7, rng)
            b = rng.standard_normal(op.p)
            rho = 0.8 if model == "dc" else None
            params = PenaltyParams(lam=float(rng.uniform(0.1, 2.0)),
                                   mu_tilde=float(rng.uniform(0.0, 1.0)),
                                   a=3.0, rho=rho)
            spec = ModelSpec(model=model, op=op, b=b, params=params)
            W = FactorPair(rng.standard_normal((m, kappa)),
                           rng.standard_normal((n, kappa)))
            g = smooth_gradient(spec, W)
            fU = fd_gradient(lambda U: smooth_value(spec, FactorPair(U, W.V)), W.U)
            fV = fd_gradient(lambda V: smooth_value(spec, FactorPair(W.U, V)), W.V)
            scale = max(1.0, float(np.abs(g.grad_u).max()),
                        float(np.abs(g.grad_v).max()))
            worst_c = max(worst_c,
                          float(np.abs(g.grad_u - fU).max()) / scale,
                          float(np.abs(g.grad_v - fV).max()) / scale)

    # (d) column-count value vs brute-force grid minimization on 3x4
    rng = np.random.default_rng(11)
    exact_d = True
    for case in range(10):
        X = rng.standard_normal((3, 4))
        for j in range(4):
            if rng.random() < 0.5:
                X[:, j] = 0.0
        exact_d = exact_d and linalg.l20_norm(X) == l20_bruteforce(X)
    exact_d = exact_d and l20_bruteforce(np.zeros((3, 4))) == 0

    elapsed = time.monotonic() - t0
    ok = (worst_a <= 1e-6 and worst_b <= 1e-6 and worst_c <= 1e-5
          and exact_d and elapsed < 30)
    _report(capsys, 5, ok,
            f"conjugate grid {worst_a:.1e} (<= 1e-6), prox oracle "
            f"{worst_b:.1e} (<= 1e-6), finite-difference gradients "
            f"{worst_c:.1e} (<= 1e-5), brute-force column count exact: "
            f"{exact_d}, {elapsed:.0f}s (< 30s)")


def test_criterion_6_growth_inequality_probe(capsys):
    t0 = time.monotonic()
    M = np.zeros((6, 6))
    M[0, 0] = M[1, 1] = 2.0
    nu, mu = 2.0, 1.0
    op = FullOperator(6, 6)
    params = PenaltyParams(lam=1.0 / nu, mu_tilde=mu / nu)
    spec = ModelSpec(model="l20", op=op, b=op.apply(M), params=params)
    moduli = kl_moduli(2.0, 2.0, 2, nu, mu, 1.0, 1.0, None)
    probe = kl_inequality_probe(spec, build_balanced_factors(M, 2), M, moduli,
                                samples=100, seed=0)
    elapsed = time.monotonic() - t0
    radius_ok = abs(probe.radius - math.sqrt(2.0) / 4.0) <= 1e-15
    ok = (moduli.alpha_ok and moduli.condition_ok
          and probe.status == "ok" and probe.kept == 100
          and probe.window == (0.0, 0.5) and radius_ok
          and probe.slack >= -1e-10 and elapsed < 10)
    _report(capsys, 6, ok,
            f"100 admissible samples at radius {probe.radius:.4f} with "
            f"gamma={moduli.gamma:.3e}: min slack {probe.slack:.3e} "
            f"(need >= -1e-10), {elapsed:.1f}s (< 10s)")


def test_criterion_7_growth_failure_at_counterexample(capsys):
    t0 = time.monotonic()
    nu = 3.0
    spec, Wbar, M = ones_counterexample(nu)
    critical = subdiff_distance(spec, Wbar)
    gammas = [kl_moduli(16.0, 16.0, 1, nu, 1.0, 1.0, 1.0, None).gamma,
              1e-3, 1.0]
    all_negative = True
    worst = -math.inf
    for gamma in gammas:
        t_star = math.sqrt(gamma / (16.0 * nu))
        hi = min(0.01, 0.9 * t_star)
        for t in np.geomspace(hi / 100.0, hi, 12):
            W = ones_counterexample_point(float(t))
            gap = objective_gap(spec, W, Wbar)
            dist = subdiff_distance(spec, W)
            slack = dist * dist - gamma * gap
            worst = max(worst, slack)
            all_negative = all_negative and slack < 0
    elapsed = time.monotonic() - t0
    ok = critical == 0.0 and all_negative and elapsed < 5
    _report(capsys, 7, ok,
            f"critical point (distance {critical:.1e}) violates the growth "
            f"inequality for every tested gamma at small t: max slack "
            f"{worst:.2e} < 0, {elapsed:.2f}s (< 5s)")


def test_criterion_8_certificates_and_cross_model_agreement(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    shapes = [(4, 4, 1), (6, 5, 2), (8, 12, 3), (20, 7, 4), (30, 30, 5)]
    certs_ok = True
    for trial in range(20):
        m, n, r = shapes[trial % len(shapes)]
        M = rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T
        kappa = min(r + 2, min(m, n))
        cert = certify_optimal_pair(build_balanced_factors(M, kappa), M)
        certs_ok = certs_ok and cert.passed

    base = dict(m=120, n=120, r=3, kappa=6, sample_ratio=0.35,
                operator_kind="mask", mu_tilde=1e-3, epsilon=1e-10,
                max_iters=8000, seed=0)
    hard = run_experiment(ExperimentConfig(model="l20",
                                           lambda_rule="28 * specnorm(X0)",
                                           **base))
    dc = run_experiment(ExperimentConfig(model="dc", **base))
    M = hard["M"]
    agreement = (np.linalg.norm(hard["W"].product() - dc["W"].product())
                 / np.linalg.norm(M))
    elapsed = time.monotonic() - t0
    ok = (certs_ok and hard["summary"]["reason"] == "converged"
          and dc["summary"]["reason"] == "converged"
          and agreement <= 1e-6 and elapsed < 60)
    _report(capsys, 8, ok,
            f"20/20 balanced-factor certificates passed: {certs_ok}; "
            f"hard and dc solves agree to {agreement:.2e} (need <= 1e-6), "
            f"{elapsed:.0f}s (< 60s)")
