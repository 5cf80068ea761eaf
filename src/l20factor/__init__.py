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
                          build_balanced_factors, certify_optimal_pair,
                          exact_penalty_threshold, kl_inequality_probe,
                          kl_moduli, ones_counterexample,
                          ones_counterexample_point, subdiff_distance_psi,
                          subdiff_distance_theta_upper)
from .harness import (ExperimentConfig, diagnose, gen_instance,
                      run_experiment, run_fig3)
from .objective import (FactorPair, ModelSpec, SmoothGradient, full_value,
                        objective_gap, smooth_gradient, smooth_value)
from .penalty import PenaltyParams, g_scalar, phi, psi_star, theta, theta_prime_plus
from .prox import prox_matrix
from .sampling import (FullOperator, GaussianOperator, RestrictedEigEstimate,
                       SamplingOperator, UniformMaskOperator,
                       check_restricted_inner_product, estimate_restricted_eigs)
from .solver import (DivergenceError, SolveTrace, SolverConfig, SolverState,
                     estimate_step_constants, initial_point, solve)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError", "ExperimentConfig", "FactorPair", "FullOperator",
    "GaussianOperator", "KLModuli", "ModelSpec", "OptimalSetCertificate",
    "PenaltyParams", "ProbeReport", "RestrictedEigEstimate",
    "SamplingOperator", "SmoothGradient", "SolveTrace", "SolverConfig",
    "SolverState", "UniformMaskOperator", "build_balanced_factors",
    "certify_optimal_pair", "check_restricted_inner_product", "diagnose",
    "estimate_restricted_eigs", "estimate_step_constants",
    "exact_penalty_threshold", "full_value", "g_scalar", "gen_instance",
    "initial_point", "kl_inequality_probe", "kl_moduli",
    "objective_gap", "ones_counterexample", "ones_counterexample_point",
    "phi", "prox_matrix", "psi_star",
    "run_experiment", "run_fig3", "smooth_gradient", "smooth_value",
    "solve", "subdiff_distance_psi",
    "subdiff_distance_theta_upper", "theta", "theta_prime_plus",
]
