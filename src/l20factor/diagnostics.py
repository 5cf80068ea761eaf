"""Executable optimality and growth-inequality checks.

This module turns the model's structure theory into concrete numbers: the
distance from 0 to the subdifferential at a point (``subdiff_distance``, one
function for both models, whose terms the spec's model picks), moduli for the
local growth inequality dist(0, d objective)^2 >= gamma * (objective gap)
that a KL exponent of 1/2 gives, Monte Carlo probes of that inequality near a
certified optimum, the penalty threshold above which the continuous surrogate
shares the hard model's global minimizers, and certification of balanced
optimal factor pairs. The probe checks its data (hypothesis flags, gamma,
b = A(M), shapes) and evaluates the optimum's terms of the gap once, before
it samples.

All quantities here use the nu-weighted normalization (the unscaled
objective): fidelity weight nu = 1/lam and per-column regularizer weight 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, penalty
from .linalg import Array
from .objective import (FactorPair, ModelSpec, _gap, _gap_terms,
                        smooth_gradient)
from .penalty import PenaltyParams
from .sampling import FullOperator


@dataclass(frozen=True)
class KLModuli:
    """Growth-inequality moduli and their hypothesis flags.

    gamma applies to the hard model, gamma_prime to the dc surrogate
    (NaN when no dc parameters were supplied). The flags record whether the
    restricted-condition-number and alpha-threshold hypotheses hold; the
    moduli are only meaningful when both are true.
    """

    gamma: float
    gamma_prime: float
    condition_ok: bool
    alpha_ok: bool


@dataclass(frozen=True)
class OptimalSetCertificate:
    """Checks that a pair is a balanced exact factorization of M.

    passed requires: relative product error ||U V^T - M||_F / ||M||_F <= 1e-8,
    balance error ||U^T U - V^T V||_F <= 1e-8 * ||M||_2, and both column
    counts (``linalg.l20_norm``) equal to the numerical rank of the product
    (``linalg.numerical_rank``).
    """

    product_error: float
    balance_error: float
    col_count_u: int
    col_count_v: int
    rank_product: int
    passed: bool


# Relative tolerance of the optimal-pair certificate (product and balance).
_CERT_TOL = 1e-8

# Open interval of nu-weighted objective gaps a probe sample must fall in.
PROBE_WINDOW = (0.0, 0.5)


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a growth-inequality sampling probe.

    slack is the minimum of dist^2 - gamma*gap over kept samples (NaN when
    nothing was kept); kept/drawn expose the rejection rate of the
    gap-window filter.
    """

    slack: float
    kept: int
    drawn: int
    radius: float
    gamma: float
    status: str
    window: tuple[float, float] = PROBE_WINDOW


def rank_revealing_svd(M: Array, kappa: int) -> linalg.SvdResult:
    """M's leading singular triples, enough of them to give its numerical
    rank: ``linalg.top_svd`` at kappa (at most min(m, n)), widened to all
    min(m, n) only when every value it found is above the rank tolerance,
    so that the rank cannot lie past them. M is a checked float64 matrix."""
    full = min(M.shape)
    dec = linalg._top_svd(M, min(kappa, full))
    if linalg.numerical_rank(dec.sigma) == dec.sigma.size < full:
        dec = linalg._top_svd(M, full)
    return dec


def certify_optimal_pair(W: FactorPair, M,
                         sigma: Array | None = None) -> OptimalSetCertificate:
    """Certificate that W is a balanced exact factorization of M.

    The tolerances are fixed: relative product error <= 1e-8 and balance
    error <= 1e-8 * ||M||_2, with both column counts equal to the numerical
    rank of U V^T (see ``OptimalSetCertificate``). That rank is read from
    the singular values of the core R_U R_V^T (at most kappa x kappa) of
    the thin QRs U = Q_U R_U and V = Q_V R_V, which are those of U V^T.
    ``sigma`` is M's singular values when the caller has them (||M||_2 is
    the first); otherwise they come from ``rank_revealing_svd`` at W's kappa.
    """
    M = linalg.as_matrix(M, "M")
    nm = float(np.linalg.norm(M))
    if nm == 0:
        raise ValueError("M must be nonzero to certify against")
    if sigma is None:
        sigma = rank_revealing_svd(M, W.kappa).sigma
    max_balance = _CERT_TOL * float(sigma[0])
    perr = float(np.linalg.norm(W.product() - M)) / nm
    berr = float(np.linalg.norm(W.U.T @ W.U - W.V.T @ W.V))
    core = np.linalg.qr(W.U, mode="r") @ np.linalg.qr(W.V, mode="r").T
    rank = linalg.numerical_rank(linalg.svd(core).sigma)
    cu = linalg.l20_norm(W.U)
    cv = linalg.l20_norm(W.V)
    passed = perr <= _CERT_TOL and berr <= max_balance and cu == cv == rank
    return OptimalSetCertificate(
        product_error=perr, balance_error=berr,
        col_count_u=cu, col_count_v=cv, rank_product=rank, passed=passed,
    )


def subdiff_distance(spec: ModelSpec, W: FactorPair) -> float:
    """Distance from 0 to the subdifferential of the spec's model at W.

    G is the nu-weighted gradient of the smooth part both models share: the
    spec's ``smooth_gradient``, with the (nu tau/2) F that ``dc`` moves into
    its penalty added back. A live column (one ``linalg.l20_norm`` counts)
    contributes its component of G, plus for ``dc`` the radial term
    (rho/2) theta'_+(rho s) u/s of its penalty, s = ||u||. A zero column
    contributes 0 for ``l20``, whose penalty's subdifferential there is all
    of space, and max(0, ||G_j|| - rho/2)^2 for ``dc``. The ``l20`` value is
    exact. The ``dc`` value is exact when every column is live; at a zero
    column only an inclusion of the subdifferential is known, so that
    column's contribution is a lower bound on its true one.
    """
    spec.check_shapes(W)
    nu, rho = spec.params.nu, spec.params.rho
    g = smooth_gradient(spec, W)
    total = 0.0
    for grad, F in ((g.grad_u, W.U), (g.grad_v, W.V)):
        live = linalg._live_columns(F)
        grad = nu * grad
        if spec.model == "dc":
            grad = grad + (0.5 * nu * spec.params.tau) * F
            s = np.linalg.norm(F[:, live], axis=0)
            radial = 0.5 * rho * penalty.theta_prime_plus(spec.params, rho * s)
            comp = grad[:, live] + radial * F[:, live] / s
            dead = np.maximum(0.0, np.linalg.norm(grad[:, ~live], axis=0) - 0.5 * rho)
            total += float(np.sum(dead ** 2))
        else:
            comp = grad[:, live]
        total += float(np.sum(comp ** 2))
    return math.sqrt(total)


def kl_moduli(sigma1: float, sigma_r: float, r: int, nu: float, mu: float,
              alpha: float, beta: float,
              params: PenaltyParams | None = None) -> KLModuli:
    """Growth moduli from the instance constants.

    gamma = min((nu/beta) C^2, 2 mu sigma_r) with
    C = (beta+alpha) sigma_r^4 / (128 sqrt(sigma1^3) (4 sigma1 + sigma_r)^2)
        - sqrt(sigma1) (beta - alpha);
    gamma_prime additionally caps at 32/rho^2 (penalty curvature constant 1).
    The flags check beta/alpha against the restricted-condition bound and
    alpha > 4/(nu sigma_r^2).
    """
    if not (sigma1 >= sigma_r > 0):
        raise ValueError(f"need sigma1 >= sigma_r > 0, got {sigma1}, {sigma_r}")
    if not (0 < alpha <= beta):
        raise ValueError(f"need 0 < alpha <= beta, got {alpha}, {beta}")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if nu <= 0 or mu <= 0:
        raise ValueError(f"need nu > 0 and mu > 0, got {nu}, {mu}")
    denom = 128.0 * math.sqrt(sigma1 ** 3) * (4.0 * sigma1 + sigma_r) ** 2
    C = (beta + alpha) * sigma_r ** 4 / denom - math.sqrt(sigma1) * (beta - alpha)
    arg1 = (nu / beta) * C ** 2
    arg2 = 2.0 * mu * sigma_r
    gamma = min(arg1, arg2)
    base = 128.0 * sigma1 ** 2 * (4.0 * sigma1 + sigma_r) ** 2
    condition_ok = beta / alpha < (base + sigma_r ** 4) / (base - sigma_r ** 4)
    alpha_ok = alpha > 4.0 / (nu * sigma_r ** 2)
    if params is not None and params.rho is not None:
        gamma_prime = min(arg1, arg2, 32.0 / params.rho ** 2)
    else:
        gamma_prime = math.nan
    return KLModuli(gamma=gamma, gamma_prime=gamma_prime,
                    condition_ok=condition_ok, alpha_ok=alpha_ok)


def _probe_radius(spec: ModelSpec, sigma: Array) -> float:
    """Sampling radius of the growth-inequality probe around an optimum of
    M, from M's singular values ``sigma``."""
    r = linalg.numerical_rank(sigma)
    if r == 0:
        raise ValueError("M is numerically zero; no probe radius")
    sigma1 = float(sigma[0])
    sigma_r = float(sigma[r - 1])
    radius = 0.25 * math.sqrt(sigma_r)
    if spec.model == "dc":
        params = spec.params
        nu = params.nu
        mu = params.mu_tilde * nu
        op_norm = spec.op.operator_norm()
        radius = min(
            radius,
            params.breakpoint_low / params.rho,
            params.rho / (4.0 * math.sqrt(nu) * op_norm + 16.0 * mu * sigma1),
        )
    return radius


def kl_inequality_probe(spec: ModelSpec, Wbar: FactorPair, M, moduli: KLModuli,
                        samples: int = 100, seed: int = 0,
                        sigma: Array | None = None) -> ProbeReport:
    """Sample the growth inequality dist^2 >= gamma * gap near Wbar.

    Draws uniform perturbations of (U, V) in the Frobenius ball of the
    model's radius, keeps those whose nu-weighted objective gap lies in
    PROBE_WINDOW = (0, 1/2), and reports the minimum slack
    dist^2 - gamma*gap. Nonnegative slack means the inequality held on
    every kept sample. Raises, before sampling, if a hypothesis flag is
    false, gamma is not finite, b is not the measurement A(M) or a shape
    does not match the operator; returns status "no-admissible-samples"
    when the window rejects everything within 200x oversampling. ``sigma``
    is M's singular values when the caller has them (the radius needs
    them); otherwise they come from ``rank_revealing_svd`` at Wbar's kappa.
    Wbar's smooth value and column counts are evaluated once, before
    sampling.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if not moduli.condition_ok:
        raise ValueError("hypothesis flag condition_ok is false; probe undefined")
    if not moduli.alpha_ok:
        raise ValueError("hypothesis flag alpha_ok is false; probe undefined")
    gamma = moduli.gamma if spec.model == "l20" else moduli.gamma_prime
    if not math.isfinite(gamma):
        raise ValueError(f"gamma is not finite for model {spec.model!r}")
    M = linalg.as_matrix(M, "M")
    if M.shape != (spec.op.m, spec.op.n):
        raise ValueError(f"M has shape {M.shape}, operator expects "
                         f"{(spec.op.m, spec.op.n)}")
    if float(np.linalg.norm(spec.op.apply(M) - spec.b)) > 1e-8 * (1.0 + spec.b_norm):
        raise ValueError("b is not the measurement of M (||A(M) - b|| too large)")
    spec.check_shapes(Wbar)
    if sigma is None:
        sigma = rank_revealing_svd(M, Wbar.kappa).sigma
    radius = _probe_radius(spec, sigma)

    m, n, kap = spec.op.m, spec.op.n, Wbar.kappa
    dim = (m + n) * kap
    bar = _gap_terms(spec, Wbar)
    rng = np.random.default_rng(seed)
    kept = 0
    drawn = 0
    min_slack = math.inf
    lo, hi = PROBE_WINDOW
    while kept < samples and drawn < 200 * samples:
        drawn += 1
        D = rng.standard_normal((m + n, kap))
        scale = radius * rng.random() ** (1.0 / dim) / float(np.linalg.norm(D))
        W = FactorPair(Wbar.U + scale * D[:m], Wbar.V + scale * D[m:])
        gap = _gap(spec, _gap_terms(spec, W), bar)
        if not lo < gap < hi:
            continue
        kept += 1
        dist = subdiff_distance(spec, W)
        min_slack = min(min_slack, dist * dist - gamma * gap)
    if kept == 0:
        return ProbeReport(slack=math.nan, kept=0, drawn=drawn, radius=radius,
                           gamma=gamma, status="no-admissible-samples")
    return ProbeReport(slack=min_slack, kept=kept, drawn=drawn, radius=radius,
                       gamma=gamma, status="ok")


def exact_penalty_threshold(nu: float, mu: float, r: int, kappa: int,
                            sigma_r: float, alpha: float, op_norm: float,
                            params: PenaltyParams) -> float:
    """Penalty scale above which the surrogate shares the hard model's optima.

        rho_bar = max(1, sqrt(nu) ||A|| sqrt(kappa) / (sqrt(nu alpha) sigma_r
                  - sqrt(2)) * sqrt(1 + 2 sqrt(r)/sqrt(mu))) * (2a/(a+1))

    The last factor is phi's left derivative at 1, phi'_-(1) = 2a/(a+1),
    which is theta's saturation point ``params.breakpoint_high``.
    Requires sqrt(nu * alpha) * sigma_r > sqrt(2).
    """
    if nu <= 0 or mu <= 0 or alpha <= 0 or sigma_r <= 0 or op_norm <= 0:
        raise ValueError("nu, mu, alpha, sigma_r, op_norm must all be positive")
    if r < 1 or kappa < 1:
        raise ValueError(f"need r >= 1 and kappa >= 1, got r={r}, kappa={kappa}")
    lhs = math.sqrt(nu * alpha) * sigma_r
    if lhs <= math.sqrt(2.0):
        raise ValueError(
            f"threshold hypothesis fails: sqrt(nu*alpha)*sigma_r = {lhs:.6g} "
            f"<= sqrt(2) = {math.sqrt(2.0):.6g}"
        )
    core = math.sqrt(nu) * op_norm * math.sqrt(kappa) / (lhs - math.sqrt(2.0))
    core *= math.sqrt(1.0 + 2.0 * math.sqrt(r) / math.sqrt(mu))
    return max(1.0, core) * params.breakpoint_high


def ones_counterexample(nu: float, mu: float = 1.0) -> tuple[ModelSpec, FactorPair, Array]:
    """Hard-model instance with a critical point violating 1/2-exponent growth.

    M = 4E with E the 4x4 all-ones matrix under full sampling; (E, E) is a
    balanced critical point (zero residual, zero balance) that is not a
    local minimizer. Returns (spec, critical pair, M).
    """
    if nu <= 0 or mu <= 0:
        raise ValueError("nu and mu must be positive")
    E = np.ones((4, 4))
    M = 4.0 * E
    op = FullOperator(4, 4)
    b = op.apply(M)
    params = PenaltyParams(lam=1.0 / nu, mu_tilde=mu / nu)
    spec = ModelSpec(model="l20", op=op, b=b, params=params)
    return spec, FactorPair(E.copy(), E.copy()), M


def ones_counterexample_point(t: float) -> FactorPair:
    """Perturbed pair U(t) = V(t) = E + t*D on the counterexample's escape curve.

    D has the 2x2 block 2I - E in its top-left corner and zeros elsewhere;
    along this curve the objective gap grows like t^4 while the
    subdifferential distance decays like t^3, so dist^2/gap -> 0 as t -> 0.
    """
    E = np.ones((4, 4))
    D = np.zeros((4, 4))
    D[:2, :2] = 2.0 * np.eye(2) - np.ones((2, 2))
    U = E + t * D
    return FactorPair(U, U.copy())
