"""Recover a low-rank matrix from partial entries with the hard column-count
penalty.

The model being minimized is

    nu * 0.5*||A(U V^T) - b||^2  +  (mu/4)*||U^T U - V^T V||_F^2
        + 0.5*(#nonzero columns of U + #nonzero columns of V),

over factor pairs (U, V) with kappa columns each, where A samples a fixed
subset of entries. The factor width kappa is set larger than the true rank;
the column-count penalty is what prunes the excess.

Run: python3 demos/01_matrix_completion.py
"""

import numpy as np

from l20factor import (FactorPair, ModelSpec, PenaltyParams, SolverConfig,
                       UniformMaskOperator, certify_optimal_pair, linalg, solve)


def main():
    rng = np.random.default_rng(0)
    m = n = 60
    r = 2        # true rank
    kappa = 4    # factor width handed to the solver (overparameterized)

    M = rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T
    op = UniformMaskOperator.from_ratio(m, n, 0.4, rng)
    b = op.apply(M)
    print(f"target: {m}x{n}, rank {r}, {op.p} of {m * n} entries observed")

    # lambda = 1/nu scales the data term; the rule of thumb that works at
    # this size is a multiple of the spectral norm of A*(b), sigma_1 of its
    # leading triples, as the harness's rules read specnorm(X0).
    x0_norm = float(linalg.top_svd(op.adjoint(b), kappa).sigma[0])
    lam = 28.0 * x0_norm
    params = PenaltyParams(lam=lam, mu_tilde=1e-3, a=3.7)
    spec = ModelSpec(model="l20", op=op, b=b, params=params)

    W, trace, reason = solve(spec, SolverConfig(epsilon=1e-10), kappa=kappa)

    rel = np.linalg.norm(W.product() - M) / np.linalg.norm(M)
    nnz_u = int(np.sum(np.linalg.norm(W.U, axis=0) > 0))
    print(f"stopped: {reason} after {len(trace.records)} iterations")
    print(f"relative error ||UV^T - M|| / ||M|| = {rel:.3e}")
    print(f"nonzero columns: {nnz_u} of {kappa} (true rank {r})")

    stride = max(1, len(trace.records) // 8)
    print(f"\nconvergence trace (every {stride}th iteration):")
    print(f"{'iter':>6} {'objective':>14} {'residual U':>12} {'nnz U':>6}")
    for rec in trace.records[::stride] + trace.records[-1:]:
        print(f"{rec.iteration:>6} {rec.obj_paper:>14.6e} "
              f"{rec.res_u:>12.3e} {rec.nnz_u:>6}")

    # The recovered pair should be a balanced factorization of M with
    # column counts equal to the rank; the certificate checks all three.
    cert = certify_optimal_pair(W, M)
    print(f"\ncertificate: passed={cert.passed} "
          f"(product {cert.product_error:.2e}, balance {cert.balance_error:.2e}, "
          f"columns {cert.col_count_u}/{cert.col_count_v} vs rank {cert.rank_product})")


if __name__ == "__main__":
    main()
