"""Column-sparse factored low-rank matrix recovery.

Recover a low-rank matrix M from linear measurements b = A(M) by minimizing,
over factor pairs (U, V),

    1/2 ||A(U V^T) - b||^2 + (mu/4) ||U^T U - V^T V||_F^2
        + (lam/2) (#nonzero columns of U + #nonzero columns of V)

either with the hard column-counting penalty ("l20") or its continuous
difference-of-convex surrogate ("dc"), using accelerated proximal linearized
alternating minimization. Diagnostics quantify how sharply the objective
grows around the recovered optimum.
"""

from .diagnostics import (KLModuli, OptimalSetCertificate, ProbeReport,
                          certify_optimal_pair, exact_penalty_threshold,
                          kl_inequality_probe, kl_moduli, ones_counterexample,
                          ones_counterexample_point, subdiff_distance)
from .harness import (ExperimentConfig, diagnose, gen_instance,
                      run_experiment, run_fig3)
from .objective import (FactorPair, ModelSpec, SmoothGradient,
                        build_balanced_factors, objective_gap,
                        smooth_gradient, smooth_value)
from .penalty import PenaltyParams, g_scalar, psi_star, theta, theta_prime_plus
from .prox import prox_matrix
from .sampling import (FullOperator, GaussianOperator, RestrictedEigEstimate,
                       SamplingOperator, UniformMaskOperator,
                       estimate_restricted_eigs)
from .solver import DivergenceError, SolveTrace, SolverConfig, SolverState, solve

__version__ = "0.1.0"

__all__ = [
    "DivergenceError", "ExperimentConfig", "FactorPair", "FullOperator",
    "GaussianOperator", "KLModuli", "ModelSpec", "OptimalSetCertificate",
    "PenaltyParams", "ProbeReport", "RestrictedEigEstimate",
    "SamplingOperator", "SmoothGradient", "SolveTrace", "SolverConfig",
    "SolverState", "UniformMaskOperator", "build_balanced_factors",
    "certify_optimal_pair", "diagnose", "estimate_restricted_eigs",
    "exact_penalty_threshold", "g_scalar", "gen_instance",
    "kl_inequality_probe", "kl_moduli",
    "objective_gap", "ones_counterexample", "ones_counterexample_point",
    "prox_matrix", "psi_star",
    "run_experiment", "run_fig3", "smooth_gradient", "smooth_value",
    "solve", "subdiff_distance", "theta", "theta_prime_plus",
]
