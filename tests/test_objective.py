import numpy as np
import pytest
from numpy.testing import assert_allclose

from l20factor.objective import (FactorPair, ModelSpec, column_penalty_value,
                                 objective_gap, smooth_gradient, smooth_value)
from l20factor.penalty import PenaltyParams
from l20factor.sampling import (FullOperator, GaussianOperator,
                                UniformMaskOperator)
from oracles import fd_gradient


def ones_instance(lam=0.25, mu_tilde=1.0, model="l20", rho=None):
    """Full sampling of M = 4E (4x4 ones); (E, E) is an exact balanced fit."""
    E = np.ones((4, 4))
    op = FullOperator(4, 4)
    b = op.apply(4.0 * E)
    params = PenaltyParams(lam=lam, mu_tilde=mu_tilde, rho=rho)
    return ModelSpec(model=model, op=op, b=b, params=params), FactorPair(E, E.copy())


def escape_pair(t):
    """E + t*D with D = (2I - E) on the leading 2x2 block, zero elsewhere."""
    E = np.ones((4, 4))
    D = np.zeros((4, 4))
    D[:2, :2] = 2.0 * np.eye(2) - np.ones((2, 2))
    U = E + t * D
    return FactorPair(U, U.copy())


def random_spec(rng, model, kind):
    m, n, kappa = 5, 4, 3
    if kind == "full":
        op = FullOperator(m, n)
    elif kind == "mask":
        op = UniformMaskOperator.from_ratio(m, n, 0.6, rng)
    else:
        op = GaussianOperator(m, n, 12, seed=int(rng.integers(1 << 20)))
    b = rng.standard_normal(op.p)
    rho = 0.8 if model == "dc" else None
    params = PenaltyParams(lam=0.3, mu_tilde=0.7, a=3.0, rho=rho)
    spec = ModelSpec(model=model, op=op, b=b, params=params)
    W = FactorPair(rng.standard_normal((m, kappa)), rng.standard_normal((n, kappa)))
    return spec, W


def test_factor_pair_validation():
    with pytest.raises(ValueError, match="column count"):
        FactorPair(np.ones((3, 2)), np.ones((4, 3)))
    W = FactorPair(np.ones((3, 2)), np.zeros((4, 2)))
    assert W.kappa == 2
    assert_allclose(W.product(), np.zeros((3, 4)))
    W2 = W.copy()
    W2.U[0, 0] = 99.0
    assert W.U[0, 0] == 1.0


def test_model_spec_validation():
    op = FullOperator(2, 2)
    params = PenaltyParams(lam=1.0, mu_tilde=0.0)
    with pytest.raises(ValueError, match="model must be"):
        ModelSpec(model="hard", op=op, b=np.zeros(4), params=params)
    with pytest.raises(ValueError, match="length"):
        ModelSpec(model="l20", op=op, b=np.zeros(3), params=params)
    with pytest.raises(ValueError, match="rho"):
        ModelSpec(model="dc", op=op, b=np.zeros(4), params=params)
    spec = ModelSpec(model="l20", op=op, b=np.zeros(4), params=params)
    with pytest.raises(ValueError, match="do not match"):
        spec.check_shapes(FactorPair(np.ones((3, 1)), np.ones((2, 1))))


def test_smooth_value_zero_everything():
    op = FullOperator(2, 3)
    spec = ModelSpec(model="l20", op=op, b=np.zeros(6),
                     params=PenaltyParams(lam=1.0, mu_tilde=1.0))
    assert smooth_value(spec, FactorPair(np.zeros((2, 2)), np.zeros((3, 2)))) == 0.0


def test_smooth_value_exact_balanced_fit():
    spec, W = ones_instance()
    assert smooth_value(spec, W) == 0.0


def test_smooth_value_dc_subtracts_quadratic():
    op = FullOperator(2, 2)
    b = op.apply(np.eye(2))
    params = PenaltyParams(lam=2.0, mu_tilde=0.5, a=3.0, rho=1.5)
    spec = ModelSpec(model="dc", op=op, b=b, params=params)
    W = FactorPair(np.eye(2), np.eye(2))
    assert smooth_value(spec, W) == pytest.approx(-params.tau, rel=1e-14)


def test_gradient_vanishes_at_critical_point():
    """(E, E) fits M = 4E exactly and is balanced: the gradient vanishes, and
    so does the l20 smooth value, a sum of squares of residual and balance."""
    spec, W = ones_instance()
    g = smooth_gradient(spec, W)
    assert_allclose(g.grad_u, 0.0, atol=1e-14)
    assert_allclose(g.grad_v, 0.0, atol=1e-14)
    assert smooth_value(spec, W) == 0.0


def test_gradient_vanishes_at_zero_pair():
    for model, rho in (("l20", None), ("dc", 2.0)):
        op = FullOperator(3, 3)
        spec = ModelSpec(model=model, op=op, b=np.ones(9),
                         params=PenaltyParams(lam=1.0, mu_tilde=1.0, rho=rho))
        g = smooth_gradient(spec, FactorPair(np.zeros((3, 2)), np.zeros((3, 2))))
        assert_allclose(g.grad_u, 0.0)
        assert_allclose(g.grad_v, 0.0)


@pytest.mark.parametrize("model", ["l20", "dc"])
def test_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(42)
    kinds = ["full", "mask", "gaussian"]
    for i in range(20):
        spec, W = random_spec(rng, model, kinds[i % 3])
        g = smooth_gradient(spec, W)
        fU = fd_gradient(lambda U: smooth_value(spec, FactorPair(U, W.V)), W.U)
        fV = fd_gradient(lambda V: smooth_value(spec, FactorPair(W.U, V)), W.V)
        scale = max(1.0, float(np.abs(g.grad_u).max()), float(np.abs(g.grad_v).max()))
        assert np.abs(g.grad_u - fU).max() <= 1e-5 * scale
        assert np.abs(g.grad_v - fV).max() <= 1e-5 * scale


def scaled_value(spec, W):
    """The scaled objective: smooth part plus column penalty."""
    return smooth_value(spec, W) + column_penalty_value(spec, W)


def test_full_value_at_exact_fit_counts_columns():
    for lam in (0.25, 1.0, 3.0):
        spec, W = ones_instance(lam=lam)
        scaled = scaled_value(spec, W)
        assert scaled == pytest.approx(lam * 4.0, rel=1e-15)
        assert scaled / lam == pytest.approx(4.0, rel=1e-15)


def test_full_value_zero_pair_is_half_data_norm():
    op = FullOperator(2, 2)
    b = np.array([1.0, 2.0, 3.0, 4.0])
    lam = 0.5
    spec = ModelSpec(model="l20", op=op, b=b,
                     params=PenaltyParams(lam=lam, mu_tilde=1.0))
    scaled = scaled_value(spec, FactorPair(np.zeros((2, 1)), np.zeros((2, 1))))
    assert scaled == pytest.approx(0.5 * 30.0)
    assert scaled / lam == pytest.approx((1.0 / lam) * 0.5 * 30.0)


def test_swap_symmetry_under_transposed_measurements():
    rng = np.random.default_rng(7)
    G = rng.standard_normal((6, 3, 4))
    op = GaussianOperator.from_matrices(G)
    opT = GaussianOperator.from_matrices(G.transpose(0, 2, 1))
    b = rng.standard_normal(6)
    params = PenaltyParams(lam=0.4, mu_tilde=0.9)
    spec = ModelSpec(model="l20", op=op, b=b, params=params)
    specT = ModelSpec(model="l20", op=opT, b=b, params=params)
    U = rng.standard_normal((3, 2))
    V = rng.standard_normal((4, 2))
    a = smooth_value(spec, FactorPair(U, V))
    bb = smooth_value(specT, FactorPair(V, U))
    assert a == pytest.approx(bb, rel=1e-13)


def test_regularizer_counts_columns_exactly():
    """Zeroing a column of U whose V partner is already zero drops the nu-weighted
    value by exactly 1/2 when the balance weight is off (smooth part fixed)."""
    rng = np.random.default_rng(3)
    op = FullOperator(4, 4)
    U = rng.standard_normal((4, 3))
    V = rng.standard_normal((4, 3))
    V[:, 2] = 0.0
    b = op.apply(U @ V.T) + rng.standard_normal(16)
    spec = ModelSpec(model="l20", op=op, b=b,
                     params=PenaltyParams(lam=0.7, mu_tilde=0.0))
    W = FactorPair(U, V)
    U2 = U.copy()
    U2[:, 2] = 0.0
    W2 = FactorPair(U2, V)
    assert objective_gap(spec, W2, W) == -0.5
    s1, s2 = scaled_value(spec, W), scaled_value(spec, W2)
    assert s2 - s1 == pytest.approx(-0.5 * 0.7, rel=1e-13)


def test_dc_equals_l20_when_saturated():
    rng = np.random.default_rng(5)
    op = FullOperator(4, 4)
    b = rng.standard_normal(16)
    lam, rho, a = 0.8, 2.0, 3.0
    U = rng.standard_normal((4, 2)) + 5.0 * np.sign(rng.standard_normal((4, 2)))
    V = rng.standard_normal((4, 2)) + 5.0 * np.sign(rng.standard_normal((4, 2)))
    W = FactorPair(U, V)
    sat = 2 * a / ((a + 1) * rho)
    assert min(np.linalg.norm(U, axis=0).min(), np.linalg.norm(V, axis=0).min()) > sat
    dc = ModelSpec(model="dc", op=op, b=b,
                   params=PenaltyParams(lam=lam, mu_tilde=0.6, a=a, rho=rho))
    hard = ModelSpec(model="l20", op=op, b=b,
                     params=PenaltyParams(lam=lam, mu_tilde=0.6))
    assert scaled_value(dc, W) == pytest.approx(scaled_value(hard, W), rel=1e-13)


def test_objective_gap_on_quartic_curve():
    """Along the escape direction the nu-weighted gap is exactly 8 nu t^4."""
    for nu in (1.0, 3.0):
        spec, Wbar = ones_instance(lam=1.0 / nu, mu_tilde=1.0 / nu)
        for t in (1e-1, 1e-2, 1e-3):
            gap = objective_gap(spec, escape_pair(t), Wbar)
            assert gap == pytest.approx(8.0 * nu * t ** 4, rel=1e-9)


def test_objective_gap_matches_direct_difference_when_large():
    rng = np.random.default_rng(11)
    for model, rho in (("l20", None), ("dc", 1.2)):
        spec, W = random_spec(rng, model, "gaussian")
        W2 = FactorPair(W.U + 0.5, W.V - 0.25)
        direct = (scaled_value(spec, W2) - scaled_value(spec, W)) / spec.params.lam
        assert objective_gap(spec, W2, W) == pytest.approx(direct, rel=1e-10)


def test_column_penalty_values():
    op = FullOperator(3, 3)
    b = np.zeros(9)
    U = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 0.0]])
    V = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    W = FactorPair(U, V)
    hard = ModelSpec(model="l20", op=op, b=b,
                     params=PenaltyParams(lam=2.0, mu_tilde=0.0))
    assert column_penalty_value(hard, W) == pytest.approx(2.0)  # (1+1) cols * lam/2
    dc = ModelSpec(model="dc", op=op, b=b,
                   params=PenaltyParams(lam=2.0, mu_tilde=0.0, a=3.0, rho=0.5))
    tau = dc.params.tau
    from l20factor.penalty import theta
    expect = 0.5 * (2.0 * theta(dc.params, 0.5 * 5.0) + tau / 2 * 25.0
                    + 2.0 * theta(dc.params, 0.5 * 1.0) + tau / 2 * 1.0)
    assert column_penalty_value(dc, W) == pytest.approx(expect, rel=1e-14)
