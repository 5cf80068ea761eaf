import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from l20factor.penalty import PenaltyParams, g_scalar, theta
from l20factor.prox import prox_matrix
from oracles import prox_column_by_column, prox_radial_oracle


def dc_params(lam=1.0, a=3.0, rho=1.0, mu_tilde=0.0):
    return PenaltyParams(lam=lam, mu_tilde=mu_tilde, a=a, rho=rho)


def prox_l20_col(z, step_l, weight):
    """prox_matrix of the hard model on the one-column matrix z."""
    Z = np.asarray(z, dtype=float)[:, None]
    return prox_matrix(Z, step_l, PenaltyParams(lam=weight, mu_tilde=0.0), "l20")[:, 0]


def prox_dc_col(z, step_l, params):
    """prox_matrix of the dc model on the one-column matrix z."""
    Z = np.asarray(z, dtype=float)[:, None]
    return prox_matrix(Z, step_l, params, "dc")[:, 0]


def test_request_validation():
    p = dc_params()
    for bad in (0.0, np.inf, [1.0, np.inf], np.nan):
        with pytest.raises(ValueError, match="step_l"):
            prox_matrix(np.ones((2, 2)), bad, p, "dc")
    with pytest.raises(ValueError, match="unknown model"):
        prox_matrix(np.ones((2, 2)), 1.0, p, "soft")
    with pytest.raises(ValueError, match="finite"):
        prox_matrix(np.array([[np.inf]]), 1.0, p, "dc")
    with pytest.raises(ValueError, match="rho"):
        prox_matrix(np.ones((2, 2)), 1.0, PenaltyParams(lam=1.0, mu_tilde=0.0), "dc")


def test_l20_column_keep_and_kill():
    # threshold ||z|| = sqrt(weight/L) = sqrt(4/1) = 2
    assert_allclose(prox_l20_col([3.0, 0.0], 1.0, 4.0), [3.0, 0.0])
    assert_allclose(prox_l20_col([1.0, 1.0], 1.0, 4.0), [0.0, 0.0])


def test_l20_column_tie_goes_to_zero():
    assert_allclose(prox_l20_col([2.0, 0.0], 1.0, 4.0), [0.0, 0.0])


def test_l20_column_zero_weight_is_identity():
    z = np.array([0.3, -0.1])
    out = prox_l20_col(z, 5.0, 0.0)
    assert_allclose(out, z)
    out[0] = 9.0
    assert z[0] == 0.3  # returned a copy


def test_l20_column_validation():
    with pytest.raises(ValueError, match="step_l"):
        prox_l20_col([1.0], -1.0, 1.0)
    with pytest.raises(ValueError, match="lam"):
        prox_l20_col([1.0], 1.0, -1.0)


def test_l20_prox_decision_via_objective():
    """The kept/killed decision agrees with direct comparison of the two
    candidate objective values (L/2)||u-z||^2 + (lam/2) 1[u != 0]."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = rng.standard_normal(3) * rng.uniform(0.1, 3.0)
        L = rng.uniform(0.1, 10.0)
        lam = rng.uniform(0.0, 5.0)
        keep_cost = 0.5 * lam
        kill_cost = 0.5 * L * float(z @ z)
        out = prox_l20_col(z, L, lam)
        if keep_cost < kill_cost:
            assert_allclose(out, z)
        elif keep_cost > kill_cost:
            assert_allclose(out, 0.0)


def test_dc_zero_input_maps_to_zero():
    assert_allclose(prox_dc_col(np.zeros(4), 2.0, dc_params()), 0.0)


def test_dc_saturated_branch_shrinks_by_tau():
    """Far beyond the saturation radius the penalty is lam + (tau/2) s^2, so
    the prox is the plain quadratic shrinkage L z0 / (L + tau/2)."""
    p = dc_params(lam=0.5, a=3.0, rho=1.0)
    L = 2.0
    z = np.array([40.0, 30.0])  # z0 = 50, far above s2 = 1.5
    out = prox_dc_col(z, L, p)
    s = L * 50.0 / (L + 0.5 * p.tau)
    assert_allclose(out, (s / 50.0) * z, rtol=1e-14)


def test_dc_column_matches_grid_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        lam = rng.uniform(0.05, 3.0)
        a = rng.uniform(1.5, 8.0)
        rho = rng.uniform(0.2, 4.0)
        L = rng.uniform(0.2, 8.0)
        p = dc_params(lam=lam, a=a, rho=rho)
        z0 = rng.uniform(0.0, 6.0 / rho)

        def q(s):
            return 0.5 * L * (s - z0) ** 2 + 0.5 * g_scalar(p, s)

        s_ref = prox_radial_oracle(q, z0 + 1.0)
        out = prox_dc_col(np.array([z0]), L, p)
        s_got = float(out[0])
        # compare objective values, not locations: flat stretches make the
        # minimizer itself ill-conditioned
        assert q(s_got) <= q(s_ref) + 1e-9
        if q(s_ref) < q(s_got) - 1e-12:
            pytest.fail(f"oracle found a better point: {s_ref} vs {s_got}")


def test_dc_prox_prefers_smaller_norm_on_ties():
    """When zero and a nonzero candidate tie exactly, the result is zero."""
    p = dc_params(lam=1.0, a=3.0, rho=1.0)
    L = 1.0
    # kill cost q(0) = L z0^2 / 2; for small z0 the inner branch candidate is
    # clamped to 0 as well, so scan for the transition and check both sides.
    z_grid = np.linspace(0.0, 2.0, 4001)
    outs = np.array([float(prox_dc_col(np.array([z]), L, p)[0]) for z in z_grid])
    jumps = np.where(np.diff(outs > 0).astype(int) != 0)[0]
    for i in jumps:
        assert outs[i] == 0.0  # zero side of the boundary stays zero


def test_dc_grid_optimality():
    """Prox output beats a 2000-point grid up to 1e-9 slack."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = dc_params(lam=rng.uniform(0.1, 2.0), a=rng.uniform(2.0, 6.0),
                      rho=rng.uniform(0.3, 3.0))
        L = rng.uniform(0.3, 5.0)
        z0 = rng.uniform(0.0, 5.0)

        def q(s):
            return 0.5 * L * (s - z0) ** 2 + 0.5 * g_scalar(p, s)

        s_got = float(prox_dc_col(np.array([z0]), L, p)[0])
        grid = np.linspace(0.0, z0 + 1.0, 2000)
        assert q(s_got) <= min(q(s) for s in grid) + 1e-9


def test_dc_prox_is_direction_preserving():
    p = dc_params(lam=0.7, a=3.7, rho=1.3)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(5)
    out = prox_dc_col(z, 1.5, p)
    s = np.linalg.norm(out)
    if s > 0:
        assert_allclose(out / s, z / np.linalg.norm(z), rtol=1e-12)


def test_dc_prox_nonexpansive_constant():
    """Prox of a convex function is 1-Lipschitz; check ||P(z1)-P(z2)|| <= 2||z1-z2||
    with margin at a tiny perturbation."""
    p = dc_params(lam=0.4, a=3.0, rho=1.0)
    L = 1.0
    z = np.array([3.0, 1.0])
    delta = 1e-6 * np.array([1.0, -1.0]) / np.sqrt(2.0)
    d = prox_dc_col(z + delta, L, p) - prox_dc_col(z, L, p)
    assert np.linalg.norm(d) <= 2.0 * 1e-6


def test_matrix_prox_l20():
    p = PenaltyParams(lam=4.0, mu_tilde=0.0)
    Z = np.array([[3.0, 1.0, 2.0], [0.0, 1.0, 0.0]])
    out = prox_matrix(Z, 1.0, p, "l20")
    assert_allclose(out, [[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_matrix_prox_zero_matrix():
    p = dc_params()
    for model in ("l20", "dc"):
        out = prox_matrix(np.zeros((3, 2)), 1.0, p, model)
        assert_allclose(out, 0.0)


@pytest.mark.parametrize("model", ["l20", "dc"])
def test_matrix_prox_is_columnwise(model):
    """Each output column is bitwise the prox of that column alone."""
    p = dc_params(lam=0.9, a=3.0, rho=1.1)
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((4, 5))
    out = prox_matrix(Z, 1.7, p, model)
    for j in range(5):
        col = prox_matrix(Z[:, [j]], 1.7, p, model)
        assert out[:, j].tobytes() == col[:, 0].tobytes()


@pytest.mark.parametrize("model", ["l20", "dc"])
def test_matrix_prox_takes_one_step_constant_per_column(model):
    """A step vector gives bitwise the column-by-column scalar calls, with
    steps over four decades so that columns land on different branches, and
    a constant vector gives exactly the scalar result. A non-positive or
    non-finite entry, a vector of the wrong length and a matrix of steps are
    ValueErrors."""
    p = dc_params(lam=0.9, a=3.0, rho=1.1)
    rng = np.random.default_rng(7)
    for _ in range(20):
        Z = rng.standard_normal((4, 6)) * rng.uniform(0.1, 3.0, 6)
        steps = 10.0 ** rng.uniform(-2.0, 2.0, 6)
        out = prox_matrix(Z, steps, p, model)
        assert out.tobytes() == prox_column_by_column(prox_matrix, Z, steps, p,
                                                      model).tobytes()
        assert np.array_equal(prox_matrix(Z, np.full(6, 1.7), p, model),
                              prox_matrix(Z, 1.7, p, model))
    for bad in (np.array([1.0, 0.0, 1.0]), np.array([1.0, -2.0, 1.0]),
                np.array([1.0, np.nan, 1.0]), np.ones(2), np.ones(4),
                np.ones((3, 3))):
        with pytest.raises(ValueError, match="step_l"):
            prox_matrix(np.ones((2, 3)), bad, p, model)


@pytest.mark.parametrize("model", ["l20", "dc"])
def test_matrix_prox_permutation_equivariance(model):
    p = dc_params(lam=0.9, a=3.0, rho=1.1)
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((4, 5))
    perm = rng.permutation(5)
    out = prox_matrix(Z, 1.3, p, model)
    out_p = prox_matrix(Z[:, perm], 1.3, p, model)
    assert_allclose(out_p, out[:, perm])


def test_l20_output_is_exactly_zero_or_z():
    rng = np.random.default_rng(6)
    p = PenaltyParams(lam=1.2, mu_tilde=0.0)
    Z = rng.standard_normal((3, 8)) * rng.uniform(0.1, 2.0, size=(1, 8))
    out = prox_matrix(Z, 2.0, p, "l20")
    for j in range(8):
        assert (out[:, j] == Z[:, j]).all() or (out[:, j] == 0.0).all()


@st.composite
def prox_inputs(draw):
    m = draw(st.integers(1, 4))
    kappa = draw(st.integers(1, 4))
    entries = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    Z = np.array(draw(st.lists(entries, min_size=m * kappa, max_size=m * kappa)))
    Z = Z.reshape(m, kappa)
    Z[:, draw(st.lists(st.booleans(), min_size=kappa, max_size=kappa))] = 0.0
    L = draw(st.floats(0.1, 10.0))
    lam = draw(st.one_of(st.just(0.0), st.floats(0.01, 50.0)))
    p = dc_params(lam=lam, a=draw(st.floats(1.2, 8.0)), rho=draw(st.floats(0.2, 4.0)))
    return Z, L, p


@pytest.mark.parametrize("model", ["l20", "dc"])
@settings(max_examples=40, deadline=None)
@given(prox_inputs())
@example((np.zeros((3, 2)), 1.0, dc_params()))                     # all-zero Z
@example((np.array([[0.3], [-0.4]]), 2.0, dc_params(lam=0.0)))     # lam = 0, kappa = 1
@example((np.array([[0.3, 1.0], [-0.4, 2.0]]), 1.0, dc_params(lam=50.0)))  # all pruned
@example((np.array([[2.2e-308, 0.3], [0.0, -0.4]]), 1.0, dc_params(lam=0.0)))  # underflow
def test_prox_matrix_property(model, case):
    """Every column keeps the direction of z, and its prox objective
    (L/2)||u - z||^2 + (1/2) h(||u||) is no worse than the radial oracle's."""
    Z, L, p = case
    out = prox_matrix(Z, L, p, model)
    assert out.shape == Z.shape
    if p.lam == 0.0:
        # The identity, bitwise, also on columns whose ||z||^2 underflows.
        assert out.tobytes() == Z.tobytes()

    def h(s):
        return p.lam * (s != 0.0) if model == "l20" else g_scalar(p, s)

    for z, u in zip(Z.T, out.T):
        z0, s = float(np.linalg.norm(z)), float(np.linalg.norm(u))
        if s > 0.0:
            assert_allclose(u / s, z / z0, rtol=1e-12, atol=1e-15)

        def q(t):
            return 0.5 * L * (t - z0) ** 2 + 0.5 * h(t)

        ref = prox_radial_oracle(q, max(2.0 * z0, 1.0))
        got = 0.5 * L * float(np.sum((u - z) ** 2)) + 0.5 * h(s)
        assert got <= min(q(ref), q(0.0)) + 1e-9


def test_dc_penalty_identity_against_surrogate():
    """(1/2) g(s) - (tau/4) s^2 equals (lam/2) theta(rho s): the quadratic the
    prox adds per column is exactly what the smooth part subtracts."""
    p = dc_params(lam=1.4, a=2.5, rho=0.9)
    for s in np.linspace(0.0, 5.0, 200):
        lhs = 0.5 * g_scalar(p, s) - 0.25 * p.tau * s * s
        rhs = 0.5 * p.lam * theta(p, p.rho * s)
        assert lhs == pytest.approx(rhs, abs=1e-12)
