"""The smooth two-sided surrogate for the column-count penalty.

The hard penalty 0.5*||U||_{2,0} jumps by 1/2 the moment a column becomes
nonzero, which makes the objective discontinuous. The surrogate replaces the
jump with theta(rho*||U_j||), where theta(t) = |t| - psi*(|t|) rises from 0
and saturates at exactly 1 once rho*t >= 2a/(a+1). At saturation the
surrogate and the hard penalty agree exactly, so a solution whose surviving
columns all saturate is also a solution of the hard problem.

Run: python3 demos/02_dc_surrogate.py
"""

import numpy as np

from l20factor import (ModelSpec, PenaltyParams, SolverConfig,
                       UniformMaskOperator, linalg, solve, theta)


def main():
    a = 3.7
    params = PenaltyParams(lam=1.0, mu_tilde=0.0, a=a, rho=1.0)
    print("theta ramps up and saturates at 1 (a = 3.7, rho = 1):")
    print(f"{'t':>6} {'theta(t)':>10}")
    for t in (0.0, 0.2, 0.5, 1.0, 2 * a / (a + 1), 2.0, 5.0):
        print(f"{t:>6.3f} {float(theta(params, t)):>10.6f}")
    print(f"saturation point 2a/(a+1) = {2 * a / (a + 1):.6f}\n")

    rng = np.random.default_rng(0)
    m = n = 60
    r, kappa = 2, 4
    M = rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T
    op = UniformMaskOperator.from_ratio(m, n, 0.4, rng)
    b = op.apply(M)
    x0_norm = float(linalg.top_svd(op.adjoint(b), kappa).sigma[0])

    # Matched scales: lambda quadratic in c*||X0||, rho its reciprocal, so
    # that a column of typical size sits on the ramp at the start and ends
    # saturated if it survives.
    c = 0.03
    lam = ((a + 1) / 2) * (c * x0_norm) ** 2
    rho = 2 / ((a + 1) * c * x0_norm)
    dc_params = PenaltyParams(lam=lam, mu_tilde=1e-3, a=a, rho=rho)
    dc_spec = ModelSpec(model="dc", op=op, b=b, params=dc_params)
    W_dc, trace, reason = solve(dc_spec, SolverConfig(epsilon=1e-10), kappa=kappa)

    rel = np.linalg.norm(W_dc.product() - M) / np.linalg.norm(M)
    print(f"surrogate solve: {reason} after {len(trace.records)} iterations, "
          f"relative error {rel:.3e}")
    norms = np.linalg.norm(W_dc.U, axis=0)
    print("column norms of U, scaled by rho (saturated iff >= "
          f"{2 * a / (a + 1):.4f}):")
    for j, nj in enumerate(norms):
        state = "dead" if nj == 0 else (
            "saturated" if rho * nj >= 2 * a / (a + 1) else "on the ramp")
        print(f"  column {j}: rho*||U_j|| = {rho * nj:8.4f}  ({state})")

    # Same instance through the hard model: both land on the same product.
    hard_params = PenaltyParams(lam=28.0 * x0_norm, mu_tilde=1e-3, a=a)
    hard_spec = ModelSpec(model="l20", op=op, b=b, params=hard_params)
    W_hard, _, _ = solve(hard_spec, SolverConfig(epsilon=1e-10), kappa=kappa)
    agree = (np.linalg.norm(W_hard.product() - W_dc.product())
             / np.linalg.norm(M))
    print(f"\nhard vs surrogate recovered products differ by {agree:.2e} "
          "(relative)")


if __name__ == "__main__":
    main()
