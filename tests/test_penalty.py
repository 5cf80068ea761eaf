import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l20factor import penalty
from l20factor.penalty import (PenaltyParams, g_scalar, psi_star, theta,
                               theta_prime_plus)
from oracles import grid_conjugate, phi_direct


def P(a=3.0, lam=1.0, mu_tilde=0.0, rho=None):
    return PenaltyParams(lam=lam, mu_tilde=mu_tilde, a=a, rho=rho)


def test_params_validation():
    with pytest.raises(ValueError, match="lam"):
        PenaltyParams(lam=-1.0, mu_tilde=0.0)
    with pytest.raises(ValueError, match="a must"):
        PenaltyParams(lam=1.0, mu_tilde=0.0, a=1.0)
    with pytest.raises(ValueError, match="mu_tilde"):
        PenaltyParams(lam=1.0, mu_tilde=-0.5)
    with pytest.raises(ValueError, match="rho"):
        PenaltyParams(lam=1.0, mu_tilde=0.0, rho=0.0)


def test_params_derived_quantities():
    p = P(a=3.0, lam=2.0, rho=0.5)
    assert p.nu == 0.5
    assert p.tau == pytest.approx(0.5)
    assert p.breakpoint_low == pytest.approx(0.5)
    assert p.breakpoint_high == pytest.approx(1.5)
    with pytest.raises(ValueError, match="nu undefined"):
        P(lam=0.0).nu


def test_tau_requires_rho():
    with pytest.raises(ValueError, match="rho"):
        P().tau


def test_psi_star_examples():
    assert psi_star(P(a=3.0), 0.0) == 0.0
    assert psi_star(P(a=3.0), 0.5) == 0.0  # at the low breakpoint
    assert psi_star(P(a=3.0), 1.0) == pytest.approx(0.125)
    assert psi_star(P(a=3.0), 2.0) == pytest.approx(1.0)
    assert psi_star(P(a=3.7), 2.0) == pytest.approx(1.0)
    assert psi_star(P(a=3.0), 5.0) == pytest.approx(4.0)


def test_psi_star_matches_grid_conjugate():
    for a in (2.0, 3.0, 3.7):
        p = P(a=a)
        for s in np.arange(-3.0, 3.0 + 1e-9, 0.01):
            assert abs(psi_star(p, s) - grid_conjugate(a, abs(s))) <= 1e-6


def test_theta_examples():
    assert theta(P(a=3.0), 0.0) == 0.0
    assert theta(P(a=3.0), 1.0) == pytest.approx(0.875)
    assert theta(P(a=3.0), 2.0) == pytest.approx(1.0)
    assert theta(P(a=3.0), 10.0) == pytest.approx(1.0)
    assert theta(P(a=3.0), -1.0) == pytest.approx(0.875)


def test_theta_prime_plus_examples():
    assert theta_prime_plus(P(a=3.0), 0.0) == 1.0
    assert theta_prime_plus(P(a=3.0), 1.0) == pytest.approx(0.5)
    assert theta_prime_plus(P(a=3.0), 1.5) == 0.0
    assert theta_prime_plus(P(a=3.0), 4.0) == 0.0
    with pytest.raises(ValueError, match="t >= 0"):
        theta_prime_plus(P(a=3.0), -0.1)


def test_theta_prime_matches_finite_differences():
    h = 1e-6
    for a in (2.0, 3.0, 3.7):
        p = P(a=a)
        lo, hi = p.breakpoint_low, p.breakpoint_high
        for t in np.linspace(0.0, 3.0, 121):
            if min(abs(t - lo), abs(t - hi)) < 1e-4 or t < h:
                continue
            fd = (theta(p, t + h) - theta(p, t - h)) / (2 * h)
            assert theta_prime_plus(p, t) == pytest.approx(fd, abs=1e-4)


@settings(max_examples=200)
@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(1.01, 20.0))
def test_theta_monotone_and_bounded(t1, t2, a):
    p = P(a=a)
    lo, hi = sorted((t1, t2))
    assert theta(p, lo) <= theta(p, hi) + 1e-12
    assert -1e-12 <= theta(p, t1) <= 1.0 + 1e-12


@settings(max_examples=200)
@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0),
       st.floats(0.0, 1.0), st.floats(1.01, 20.0))
def test_theta_concave_on_nonnegatives(t1, t2, w, a):
    p = P(a=a)
    mid = w * t1 + (1 - w) * t2
    assert theta(p, mid) >= w * theta(p, t1) + (1 - w) * theta(p, t2) - 1e-12


def test_g_scalar_values():
    p = P(a=3.0, lam=2.0, rho=0.5)
    assert g_scalar(p, 0.0) == 0.0
    # rho*t at the saturation point: t = 4 gives rho*t = 2 >= 2a/(a+1), so
    # theta = 1 there and g = lam*1 + (tau/2) * 16 = 2 + 4.
    assert g_scalar(p, 4.0) == pytest.approx(6.0)
    expect = 2.0 * theta(p, 0.5) + 0.25 * 1.0
    assert g_scalar(p, 1.0) == pytest.approx(expect)
    with pytest.raises(ValueError, match="t >= 0"):
        g_scalar(p, -1.0)
    with pytest.raises(ValueError, match="rho"):
        g_scalar(P(lam=1.0), 1.0)


def test_g_kernel_is_g_scalar_bitwise():
    """The dc prox and the dc penalty call the unchecked ``_g``; it gives
    g_scalar's bits at 0, at both breakpoints s1 and s2 as the prox forms
    them, one ulp to each side of them, and at random radii."""
    rng = np.random.default_rng(7)
    for a, rho, lam in ((3.7, 0.05, 1e-4), (2.0, 1.3, 0.7)):
        p = P(a=a, lam=lam, rho=rho)
        s = np.array([2.0 / ((a + 1) * rho), 2.0 * a / ((a + 1) * rho)])
        t = np.concatenate([[0.0], s, np.nextafter(s, 0.0), np.nextafter(s, np.inf),
                            rng.uniform(0.0, 3.0 * s[1], 20)])
        assert penalty._g(p, t).tobytes() == g_scalar(p, t).tobytes()


def test_g_scalar_is_convex():
    """tau is chosen exactly so that g(t) = lam*theta(rho t) + (tau/2) t^2 is convex."""
    rng = np.random.default_rng(1)
    for a, rho, lam in ((2.0, 0.3, 1.0), (3.0, 1.0, 2.0), (3.7, 4.0, 0.7)):
        p = P(a=a, lam=lam, rho=rho)
        for _ in range(1000):
            t1, t2 = rng.uniform(0.0, 6.0 / rho, size=2)
            mid = 0.5 * (t1 + t2)
            lhs = g_scalar(p, mid)
            rhs = 0.5 * (g_scalar(p, t1) + g_scalar(p, t2))
            assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def test_array_broadcasting():
    p = P(a=3.0)
    t = np.array([0.0, 0.5, 1.0, 2.0])
    assert theta(p, t).shape == t.shape
    assert psi_star(p, t).shape == t.shape
    assert isinstance(theta(p, 0.5), float)
