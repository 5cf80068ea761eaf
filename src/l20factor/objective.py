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


def _unchecked_pair(U: Array, V: Array) -> FactorPair:
    """A FactorPair of float64 matrices with a shared column count that the
    caller has checked, made without ``FactorPair``'s checks."""
    W = object.__new__(FactorPair)
    object.__setattr__(W, "U", U)
    object.__setattr__(W, "V", V)
    return W


def build_balanced_factors(X, kappa: int) -> FactorPair:
    """Balanced factor pair with UV^T = X (for kappa >= rank) from X's
    leading kappa singular triples, ``linalg.top_svd(X, kappa)``.

    U = P sqrt(S), V = Q sqrt(S) on those triples; the singular values past
    ``linalg.numerical_rank`` (those at or below 1e-8 * sigma_1) are treated
    as zero, so both factors have exactly min(kappa, numerical_rank(sigma))
    nonzero columns. This is the solver's spectral start from X0 = A*(b).
    """
    X = linalg.as_matrix(X)
    if not 1 <= kappa <= min(X.shape):
        raise ValueError(f"kappa must lie in [1, {min(X.shape)}], got {kappa}")
    return balanced_factors(linalg._top_svd(X, kappa), kappa)


def balanced_factors(dec: linalg.SvdResult, kappa: int) -> FactorPair:
    """``build_balanced_factors`` of X from its leading triples ``dec``
    (at least kappa of them)."""
    if not 1 <= kappa <= dec.sigma.size:
        raise ValueError(f"kappa must lie in [1, {dec.sigma.size}], got {kappa}")
    sigma = dec.sigma[:kappa].copy()
    sigma[linalg.numerical_rank(dec.sigma):] = 0.0
    root = np.sqrt(sigma)
    return FactorPair(dec.P[:, :kappa] * root, dec.Q[:, :kappa] * root)


@dataclass(frozen=True)
class ModelSpec:
    """Problem instance: model family, measurement operator, data, parameters.

    ``b_norm`` is ||b||, computed once from the checked b."""

    model: str
    op: SamplingOperator
    b: Array
    params: PenaltyParams
    b_norm: float = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "b_norm", float(np.linalg.norm(b)))

    def check_shapes(self, W: FactorPair) -> None:
        if W.U.shape[0] != self.op.m or W.V.shape[0] != self.op.n:
            raise ValueError(
                f"factor shapes {W.U.shape}, {W.V.shape} do not match the "
                f"{self.op.m}x{self.op.n} operator"
            )


@dataclass(frozen=True)
class SmoothGradient:
    """Gradients of the smooth part with respect to U and V."""

    grad_u: Array
    grad_v: Array


class _Evaluation(NamedTuple):
    """One point's residual A(U V^T) - b, balance U^T U - V^T V and Phi(U, V)."""

    residual: Array
    balance: Array
    value: float


def _evaluate(spec: ModelSpec, U: Array, V: Array, image: Array,
              bal: Array | None = None) -> _Evaluation:
    """Residual, balance and smooth value at checked arrays (U, V), given
    image = A(U V^T) from the operator or from one of its restricted maps,
    and the balance U^T U - V^T V when the caller has formed it already.
    The value is symmetric in the pair's order (at (V, U) only the balance
    is negated), so a substep passes its active factor first."""
    r = image - spec.b
    if bal is None:
        bal = U.T @ U - V.T @ V
    val = 0.5 * float(r @ r) + 0.25 * spec.params.mu_tilde * float(np.sum(bal * bal))
    if spec.model == "dc":
        val -= 0.25 * spec.params.tau * (float(np.sum(U * U)) + float(np.sum(V * V)))
    return _Evaluation(r, bal, val)


def _gradient_half(spec: ModelSpec, data: Array, Z: Array, bal: Array) -> Array:
    """The smooth gradient's half in the factor Z, Q the other, from its
    data term (A*(residual) V for U, A*(residual)^T U for V) and
    bal = Z^T Z - Q^T Q."""
    g = data + spec.params.mu_tilde * (Z @ bal)
    if spec.model == "dc":
        g = g - 0.5 * spec.params.tau * Z
    return g


def smooth_value(spec: ModelSpec, W: FactorPair) -> float:
    """Scaled smooth part Phi(U, V) for the active model."""
    spec.check_shapes(W)
    return _evaluate(spec, W.U, W.V, spec.op.apply(W.U @ W.V.T)).value


def smooth_gradient(spec: ModelSpec, W: FactorPair) -> SmoothGradient:
    """Gradients of smooth_value with respect to U and V, with one adjoint."""
    spec.check_shapes(W)
    U, V = W.U, W.V
    ev = _evaluate(spec, U, V, spec.op.apply(U @ V.T))
    R = spec.op.adjoint(ev.residual)
    return SmoothGradient(_gradient_half(spec, R @ V, U, ev.balance),
                          _gradient_half(spec, R.T @ U, V, -ev.balance))


def column_penalty_value(spec: ModelSpec, W: FactorPair) -> float:
    """Scaled regularizer (1/2) sum_j [h(||U_j||) + h(||V_j||)]."""
    nnz = linalg.l20_norm(W.U) + linalg.l20_norm(W.V) if spec.model == "l20" else 0
    return _column_penalty(spec, W.U, W.V, nnz)


def _column_penalty(spec: ModelSpec, U: Array, V: Array, nnz: int) -> float:
    """``column_penalty_value`` at checked arrays; ``nnz`` is
    l20_norm(U) + l20_norm(V), which only the l20 model reads."""
    if spec.model == "l20":
        return 0.5 * spec.params.lam * nnz
    su = np.linalg.norm(U, axis=0)
    sv = np.linalg.norm(V, axis=0)
    return 0.5 * float(
        np.sum(penalty._g(spec.params, su)) + np.sum(penalty._g(spec.params, sv))
    )


def objective_gap(spec: ModelSpec, W: FactorPair, Wbar: FactorPair) -> float:
    """Nu-weighted objective difference, evaluated cancellation-free.

    Computes value(W) - value(Wbar) by differencing the smooth parts and the
    per-column penalty terms separately instead of subtracting two full
    objective values. The regularizer of nearby points carries large common
    constants (1/2 per surviving column) that would otherwise swamp small
    gaps in floating point.
    """
    return _gap(spec, _gap_terms(spec, W), _gap_terms(spec, Wbar))


def _gap_terms(spec: ModelSpec, W: FactorPair) -> tuple[float, float]:
    """The two values of W that ``objective_gap`` differences: the smooth
    part, and the column count (l20) or the penalty value (dc)."""
    if spec.model == "l20":
        return smooth_value(spec, W), linalg.l20_norm(W.U) + linalg.l20_norm(W.V)
    return smooth_value(spec, W), column_penalty_value(spec, W)


def _gap(spec: ModelSpec, terms: tuple[float, float],
         bar: tuple[float, float]) -> float:
    """``objective_gap`` from the ``_gap_terms`` of W and of Wbar."""
    nu = spec.params.nu
    smooth_diff = terms[0] - bar[0]
    if spec.model == "l20":
        return nu * smooth_diff + 0.5 * (terms[1] - bar[1])
    return nu * (smooth_diff + (terms[1] - bar[1]))
