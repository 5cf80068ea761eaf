"""Checking the quadratic-growth machinery that explains linear convergence.

Near a well-conditioned optimum the objective satisfies a growth inequality
dist(0, subdifferential)^2 >= gamma * (objective gap), which is what makes
the solver's error decay geometrically. This script does three things at
desk scale:

1. computes the growth modulus gamma from the spectrum and the sampling
   operator's restricted eigenvalues, and samples the inequality around a
   balanced optimum (every sampled slack should be nonnegative);
2. walks the known escape curve of a degenerate critical point where the
   inequality cannot hold: the gap decays like t^4 but the subgradient
   distance like t^3, so dist^2/gap -> 0 and every fixed gamma eventually
   fails;
3. evaluates the penalty threshold above which the surrogate model shares
   the hard model's global minimizers.

Run: python3 demos/03_growth_diagnostics.py
"""

import math

import numpy as np

from l20factor import (FullOperator, ModelSpec, PenaltyParams,
                       build_balanced_factors, exact_penalty_threshold,
                       kl_inequality_probe, kl_moduli, objective_gap,
                       ones_counterexample, ones_counterexample_point,
                       subdiff_distance)


def main():
    # --- 1. the inequality holds around a clean optimum -------------------
    M = np.zeros((6, 6))
    M[0, 0] = M[1, 1] = 2.0
    nu, mu = 2.0, 1.0
    op = FullOperator(6, 6)
    params = PenaltyParams(lam=1.0 / nu, mu_tilde=mu / nu)
    spec = ModelSpec(model="l20", op=op, b=op.apply(M), params=params)

    # Full sampling has restricted eigenvalues alpha = beta = 1 exactly.
    moduli = kl_moduli(sigma1=2.0, sigma_r=2.0, r=2, nu=nu, mu=mu,
                       alpha=1.0, beta=1.0)
    print(f"growth modulus gamma = {moduli.gamma:.3e} "
          f"(hypotheses: alpha_ok={moduli.alpha_ok}, "
          f"condition_ok={moduli.condition_ok})")

    Wbar = build_balanced_factors(M, kappa=2)
    probe = kl_inequality_probe(spec, Wbar, M, moduli, samples=100, seed=0)
    print(f"probe around the optimum: status={probe.status}, "
          f"kept {probe.kept}/{probe.drawn} draws at radius {probe.radius:.3f}, "
          f"min slack dist^2 - gamma*gap = {probe.slack:.3e} (>= 0 means the "
          "inequality held)\n")

    # --- 2. and fails along the escape curve of a bad critical point ------
    nu = 3.0
    spec_bad, Wcrit, _ = ones_counterexample(nu)
    d0 = subdiff_distance(spec_bad, Wcrit)
    print(f"degenerate critical point: subgradient distance = {d0:.1e}")
    print(f"{'t':>8} {'gap':>12} {'dist^2':>12} {'dist^2/gap':>12}")
    for t in (0.1, 0.03, 0.01, 0.003, 0.001):
        W = ones_counterexample_point(t)
        gap = objective_gap(spec_bad, W, Wcrit)
        dist = subdiff_distance(spec_bad, W)
        print(f"{t:>8.3f} {gap:>12.3e} {dist * dist:>12.3e} "
              f"{dist * dist / gap:>12.3e}")
    print("the ratio is 16*nu*t^2 -> 0: no gamma > 0 works as t -> 0, so "
          "this point lacks\nthe growth property and plain square-root decay "
          "is the best guarantee there.\n")

    # --- 3. penalty threshold for the surrogate ---------------------------
    rho_bar = exact_penalty_threshold(nu=2.0, mu=1.0, r=2, kappa=2,
                                      sigma_r=2.0, alpha=1.0, op_norm=1.0,
                                      params=PenaltyParams(lam=0.5,
                                                           mu_tilde=0.5,
                                                           a=3.7, rho=1.0))
    print(f"penalty threshold rho_bar = {rho_bar:.3f}: any rho above this "
          "makes the surrogate\nand hard models share global minimizers on "
          "this instance.")


if __name__ == "__main__":
    main()
