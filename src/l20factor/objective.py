"""Objective evaluation and smooth-part gradients for both models.

The package works internally in the loss-scaled form

    Phi(U, V) + (1/2) sum_j [h(||U_j||) + h(||V_j||)]

with Phi(U,V) = 1/2 ||A(U V^T) - b||^2 + (mu_tilde/4) ||U^T U - V^T V||_F^2.
For the hard model ("l20") h(t) = lam * sign(|t|); for the surrogate ("dc")
h = g_scalar and Phi additionally subtracts (tau/4)(||U||_F^2 + ||V||_F^2),
which the (tau/2) t^2 inside g adds back, so the total equals the scaled
continuous surrogate exactly.

Nu-weighted values (fidelity weight nu = 1/lam, per-column weight 1/2) are
derived views: unscaled = scaled / lam. The trace schema calls this column
obj_paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg, penalty
from .linalg import Array
from .penalty import PenaltyParams
from .sampling import SamplingOperator

MODELS = ("l20", "dc")


@dataclass(frozen=True)
class FactorPair:
    """A factor pair (U, V) with U m x kappa and V n x kappa."""

    U: Array
    V: Array

    def __post_init__(self):
        U = linalg.as_matrix(self.U, "U")
        V = linalg.as_matrix(self.V, "V")
        if U.shape[1] != V.shape[1]:
            raise ValueError(
                f"U and V must share the column count, got {U.shape} and {V.shape}"
            )
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)

    @property
    def kappa(self) -> int:
        return self.U.shape[1]

    def product(self) -> Array:
        return self.U @ self.V.T

    def copy(self) -> "FactorPair":
        return FactorPair(self.U.copy(), self.V.copy())


@dataclass(frozen=True)
class ModelSpec:
    """Problem instance: model family, measurement operator, data, parameters."""

    model: str
    op: SamplingOperator
    b: Array
    params: PenaltyParams

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        b = linalg.as_vector(self.b, "b")
        if b.shape[0] != self.op.p:
            raise ValueError(
                f"b has length {b.shape[0]} but the operator expects {self.op.p}"
            )
        if self.model == "dc" and self.params.rho is None:
            raise ValueError("dc model requires params.rho")
        object.__setattr__(self, "b", b)

    def check_shapes(self, W: FactorPair) -> None:
        if W.U.shape[0] != self.op.m or W.V.shape[0] != self.op.n:
            raise ValueError(
                f"factor shapes {W.U.shape}, {W.V.shape} do not match the "
                f"{self.op.m}x{self.op.n} operator"
            )


@dataclass(frozen=True)
class SmoothGradient:
    """Gradients of the smooth part, with the residual and balance cached."""

    grad_u: Array
    grad_v: Array
    residual: Array = field(repr=False)
    balance: Array = field(repr=False)


class _Evaluation(NamedTuple):
    """One point's residual A(U V^T) - b, balance U^T U - V^T V and Phi(U, V)."""

    residual: Array
    balance: Array
    value: float


def _evaluate(spec: ModelSpec, U: Array, V: Array) -> _Evaluation:
    """Residual, balance and smooth value at checked arrays (U, V), with one apply."""
    r = spec.op.apply(U @ V.T) - spec.b
    bal = U.T @ U - V.T @ V
    val = 0.5 * float(r @ r) + 0.25 * spec.params.mu_tilde * float(np.sum(bal * bal))
    if spec.model == "dc":
        val -= 0.25 * spec.params.tau * (float(np.sum(U * U)) + float(np.sum(V * V)))
    return _Evaluation(r, bal, val)


def _gradient_half(spec: ModelSpec, R: Array, U: Array, V: Array, bal: Array,
                   which: str) -> Array:
    """The U (which="u") or V half of the smooth gradient, from R = A*(residual)."""
    mu = spec.params.mu_tilde
    if which == "u":
        g, own = R @ V + mu * (U @ bal), U
    else:
        g, own = R.T @ U - mu * (V @ bal), V
    if spec.model == "dc":
        g = g - 0.5 * spec.params.tau * own
    return g


def _gradient(spec: ModelSpec, U: Array, V: Array, ev: _Evaluation) -> SmoothGradient:
    """Both smooth-gradient halves at (U, V) from its evaluation, with one adjoint."""
    R = spec.op.adjoint(ev.residual)
    return SmoothGradient(_gradient_half(spec, R, U, V, ev.balance, "u"),
                          _gradient_half(spec, R, U, V, ev.balance, "v"),
                          ev.residual, ev.balance)


def smooth_value(spec: ModelSpec, W: FactorPair) -> float:
    """Scaled smooth part Phi(U, V) for the active model."""
    spec.check_shapes(W)
    return _evaluate(spec, W.U, W.V).value


def smooth_gradient(spec: ModelSpec, W: FactorPair) -> SmoothGradient:
    """Gradients of smooth_value with respect to U and V."""
    spec.check_shapes(W)
    return _gradient(spec, W.U, W.V, _evaluate(spec, W.U, W.V))


def column_penalty_value(spec: ModelSpec, W: FactorPair) -> float:
    """Scaled regularizer (1/2) sum_j [h(||U_j||) + h(||V_j||)]."""
    if spec.model == "l20":
        count = linalg.l20_norm(W.U) + linalg.l20_norm(W.V)
        return 0.5 * spec.params.lam * count
    su = linalg.column_norms(W.U)
    sv = linalg.column_norms(W.V)
    return 0.5 * float(
        np.sum(penalty.g_scalar(spec.params, su))
        + np.sum(penalty.g_scalar(spec.params, sv))
    )


def full_value(spec: ModelSpec, W: FactorPair) -> tuple[float, float]:
    """(scaled, unscaled) objective values; unscaled = scaled/lam, NaN at lam = 0."""
    scaled = smooth_value(spec, W) + column_penalty_value(spec, W)
    lam = spec.params.lam
    unscaled = scaled / lam if lam > 0 else math.nan
    return scaled, unscaled


def objective_gap(spec: ModelSpec, W: FactorPair, Wbar: FactorPair) -> float:
    """Nu-weighted objective difference, evaluated cancellation-free.

    Computes value(W) - value(Wbar) by differencing the smooth parts and the
    per-column penalty terms separately instead of subtracting two full
    objective values. The regularizer of nearby points carries large common
    constants (1/2 per surviving column) that would otherwise swamp small
    gaps in floating point.
    """
    nu = spec.params.nu
    smooth_diff = smooth_value(spec, W) - smooth_value(spec, Wbar)
    if spec.model == "l20":
        count_diff = (
            linalg.l20_norm(W.U) + linalg.l20_norm(W.V)
            - linalg.l20_norm(Wbar.U) - linalg.l20_norm(Wbar.V)
        )
        return nu * smooth_diff + 0.5 * count_diff
    pen_diff = 0.0
    for A, B in ((W.U, Wbar.U), (W.V, Wbar.V)):
        sa = linalg.column_norms(A)
        sb = linalg.column_norms(B)
        pen_diff += float(
            np.sum(penalty.g_scalar(spec.params, sa))
            - np.sum(penalty.g_scalar(spec.params, sb))
        )
    return nu * (smooth_diff + 0.5 * pen_diff)
