"""Closed-form column-group proximal operator for both regularizers.

Each solver subproblem separates over columns:

    min_u (stepL/2) ||u - z||^2 + (1/2) h(||u||)

with h(t) = lam * sign(|t|) for the hard model and h = g_scalar for the dc
model. Both reduce to a 1-D problem in s = ||u|| along the ray through z,
which ``prox_matrix`` solves for every column at once.
"""

from __future__ import annotations

import numpy as np

from . import linalg, penalty
from .linalg import Array
from .objective import MODELS
from .penalty import PenaltyParams


def prox_matrix(Z, step_l, params: PenaltyParams, model: str) -> Array:
    """Columnwise prox of the matrix subproblem at Z with step constant step_l.

    ``step_l`` is a positive finite float, or such a vector with one step
    constant per column of Z (a diagonal metric, which keeps each column's
    problem separate). Every formula below broadcasts over columns, so a
    constant vector gives exactly the scalar result.

    Hard model: a column is kept unchanged when ||z||^2 > lam/stepL and set
    to zero otherwise, so ties go to the sparser minimizer.

    dc model: the radial objective q(s) = (stepL/2)(s - ||z||)^2 + (1/2) g(s)
    is piecewise quadratic, with the breakpoints s1 = 2/((a+1) rho) and
    s2 = 2a/((a+1) rho) of g. Each branch's stationary point is clamped to
    its interval; on the middle branch g is affine (tau cancels theta's
    curvature there), so its stationary point comes from the distance term
    alone. The best of these candidates, 0, s1 and s2 is the global
    minimizer; equal values go to the smallest s. The column becomes
    (s/||z||) z.

    At lam = 0 both penalties vanish and the prox is the identity: the result
    is a copy of Z, also on columns whose ||z||^2 underflows to 0.
    """
    Z = linalg.as_matrix(Z, "Z")
    L = np.asarray(step_l, dtype=float)
    if L.ndim != 0 and L.shape != (Z.shape[1],):
        raise ValueError(f"step_l must be a float or one per column of Z's "
                         f"{Z.shape[1]}, got shape {L.shape}")
    if not ((L > 0).all() and np.isfinite(L).all()):
        raise ValueError(f"step_l must be positive and finite, got {step_l}")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if model == "dc" and params.rho is None:
        raise ValueError("dc prox requires params.rho")
    if params.lam == 0.0:
        return Z.copy()
    if model == "l20":
        out = Z.copy()
        thr2 = params.lam / L
        norms2 = np.sum(Z * Z, axis=0)
        out[:, norms2 <= thr2] = 0.0
        return out
    lam, rho, a, tau = params.lam, params.rho, params.a, params.tau
    s1 = 2.0 / ((a + 1) * rho)
    s2 = 2.0 * a / ((a + 1) * rho)
    z0 = np.linalg.norm(Z, axis=0)
    # Each branch's point is clamped to its interval, so the rows are sorted.
    cand = np.empty((6, Z.shape[1]))
    cand[0] = 0.0
    cand[1] = np.minimum(np.maximum((L * z0 - 0.5 * lam * rho) / (L + 0.5 * tau), 0.0), s1)
    cand[2] = s1
    cand[3] = np.minimum(np.maximum(z0 - (0.5 * lam * rho / L) * a / (a - 1), s1), s2)
    cand[4] = s2
    cand[5] = np.maximum(L * z0 / (L + 0.5 * tau), s2)
    q = 0.5 * L * (cand - z0) ** 2 + 0.5 * penalty._g(params, cand)
    s = cand[np.argmin(q, axis=0), np.arange(Z.shape[1])]
    out = np.zeros_like(Z)
    live = s > 0.0
    out[:, live] = Z[:, live] * (s[live] / z0[live])
    return out
