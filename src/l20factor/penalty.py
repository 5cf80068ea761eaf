"""Scalar penalty functions and the parameter bundle shared across models.

Two column penalties are supported. The hard one charges a constant per
nonzero column ("l20"). The continuous surrogate ("dc") is built from

    phi(t)      = ((a - 1) t^2 + 2 t) / (a + 1),   a > 1, t in [0, 1]
    psi_star(s) = conjugate of the extended phi, piecewise quadratic
    theta(t)    = |t| - psi_star(|t|),  in [0, 1], saturating at t >= 2a/(a+1)

and enters the scaled objective per column as

    g(t) = lam * theta(rho * t) + (tau / 2) * t^2,   tau = lam (a+1) rho^2 / (2 (a-1)),

which is convex; the (tau/2) t^2 term exactly cancels the concave part of
lam * theta(rho t) on the middle branch.

All scalar functions accept floats or numpy arrays and are exact piecewise
formulas (no iteration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PenaltyParams:
    """Regularization parameters in the lambda-scaled convention.

    lam is the per-column weight of the scaled objective (lam = 1/nu against
    the nu-weighted fidelity convention), mu_tilde the balance weight
    (mu_tilde = mu/nu). rho and a only matter for the dc model; rho=None
    marks an l20-only bundle. lam = 0 and mu_tilde = 0 are allowed as
    explicit escape hatches (unregularized / unbalanced runs).
    """

    lam: float
    mu_tilde: float
    a: float = 3.7
    rho: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.mu_tilde) and self.mu_tilde >= 0):
            raise ValueError(f"mu_tilde must be finite and >= 0, got {self.mu_tilde}")
        if not (math.isfinite(self.a) and self.a > 1):
            raise ValueError(f"a must be finite and > 1, got {self.a}")
        if self.rho is not None and not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive when set, got {self.rho}")

    @property
    def nu(self) -> float:
        """Fidelity weight 1/lam of the unscaled objective."""
        if self.lam <= 0:
            raise ValueError("nu undefined for lam = 0")
        return 1.0 / self.lam

    @property
    def tau(self) -> float:
        """Convexifying quadratic weight lam (a+1) rho^2 / (2 (a-1))."""
        if self.rho is None:
            raise ValueError("tau requires rho to be set")
        return self.lam * (self.a + 1) * self.rho ** 2 / (2 * (self.a - 1))

    @property
    def breakpoint_low(self) -> float:
        """First kink of theta at scale rho = 1: 2/(a+1)."""
        return 2.0 / (self.a + 1)

    @property
    def breakpoint_high(self) -> float:
        """Saturation point of theta at scale rho = 1: 2a/(a+1), which is
        also phi's left derivative at 1."""
        return 2.0 * self.a / (self.a + 1)


def _maybe_scalar(out, template):
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(out)
    return out


def psi_star(params: PenaltyParams, s):
    """Convex conjugate of the extended phi: 0, quadratic, then s - 1."""
    return _maybe_scalar(_psi_star(params, np.abs(np.asarray(s, dtype=float))), s)


def _psi_star(params: PenaltyParams, sv):
    """``psi_star`` of a float array sv >= 0."""
    a = params.a
    lo, hi = params.breakpoint_low, params.breakpoint_high
    quad = ((a + 1) * sv - 2) ** 2 / (4 * (a * a - 1))
    return np.where(sv <= lo, 0.0, np.where(sv <= hi, quad, sv - 1.0))


def theta(params: PenaltyParams, t):
    """|t| - psi_star(|t|): one-homogeneous near 0, saturating at 1."""
    return _maybe_scalar(_theta(params, np.abs(np.asarray(t, dtype=float))), t)


def _theta(params: PenaltyParams, tv):
    """``theta`` of a float array tv >= 0 that the caller has checked: the
    dc penalty's kernel and the dc gauge move's penalty change."""
    return tv - _psi_star(params, tv)


def theta_prime_plus(params: PenaltyParams, t):
    """Right derivative of theta for t >= 0: 1, affine decay, then 0."""
    tv = np.asarray(t, dtype=float)
    if np.any(tv < 0):
        raise ValueError("theta_prime_plus is defined for t >= 0")
    a = params.a
    lo, hi = params.breakpoint_low, params.breakpoint_high
    mid = 1.0 - ((a + 1) * tv - 2) * (a + 1) / (2 * (a * a - 1))
    out = np.where(tv < lo, 1.0, np.where(tv < hi, mid, 0.0))
    return _maybe_scalar(out, t)


def g_scalar(params: PenaltyParams, t):
    """Per-column dc penalty of the scaled objective: lam theta(rho t) + (tau/2) t^2.

    Convex on t >= 0; grows like (lam rho) t near 0 and like (tau/2) t^2 + lam
    once saturated.
    """
    tv = np.asarray(t, dtype=float)
    if np.any(tv < 0):
        raise ValueError("g_scalar is defined for t >= 0")
    if params.rho is None:
        raise ValueError("g_scalar requires rho to be set")
    return _maybe_scalar(_g(params, tv), t)


def _g(params: PenaltyParams, t):
    """``g_scalar`` as an array, at t >= 0 and a set rho that the caller has
    checked: the dc prox's radii and the column norms of the dc penalty."""
    return params.lam * _theta(params, params.rho * t) + 0.5 * params.tau * t ** 2
