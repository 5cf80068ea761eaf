import numpy as np
import pytest
import scipy.sparse.linalg
from numpy.testing import assert_allclose

from l20factor import sampling
from l20factor.sampling import (FullOperator, GaussianOperator,
                                UniformMaskOperator,
                                check_restricted_inner_product,
                                estimate_restricted_eigs, operator_matrix)


def test_full_apply_is_columnwise_vec():
    op = FullOperator(2, 2)
    assert_allclose(op.apply(np.eye(2)), [1.0, 0.0, 0.0, 1.0])


def test_full_adjoint_inverts_apply():
    op = FullOperator(3, 4)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 4))
    assert_allclose(op.adjoint(op.apply(X)), X)
    assert op.operator_norm() == 1.0


def test_mask_apply_and_adjoint():
    op = UniformMaskOperator(2, 2, rows=[0], cols=[0])
    X = np.array([[7.0, 0.0], [0.0, 0.0]])
    assert_allclose(op.apply(X), [7.0])
    assert_allclose(op.adjoint(np.array([3.0])), [[3.0, 0.0], [0.0, 0.0]])
    assert op.operator_norm() == 1.0


def test_mask_validation():
    with pytest.raises(ValueError, match="duplicate"):
        UniformMaskOperator(2, 2, rows=[0, 0], cols=[1, 1])
    with pytest.raises(ValueError, match="out of range"):
        UniformMaskOperator(2, 2, rows=[2], cols=[0])


def test_mask_from_ratio_count():
    rng = np.random.default_rng(1)
    op = UniformMaskOperator.from_ratio(6, 5, 0.5, rng)
    assert op.p == round(0.5 * 30)
    full = UniformMaskOperator.from_ratio(4, 4, 1.0, np.random.default_rng(2))
    assert full.p == 16
    with pytest.raises(ValueError, match="ratio"):
        UniformMaskOperator.from_ratio(4, 4, 0.0, rng)


def test_gaussian_known_matrices():
    op = GaussianOperator.from_matrices(np.eye(2)[None, :, :] / np.sqrt(2))
    assert_allclose(op.apply(np.eye(2)), [np.sqrt(2.0)])


def test_gaussian_seed_determinism():
    a = GaussianOperator(4, 3, 6, seed=9)
    b = GaussianOperator(4, 3, 6, seed=9)
    assert np.array_equal(a.G, b.G)


def test_gaussian_operator_norm_matches_stacked_svd():
    op = GaussianOperator(5, 4, 12, seed=3)
    exact = np.linalg.norm(op.stacked(), 2)
    assert op.operator_norm() == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("make_op", [
    lambda: FullOperator(4, 3),
    lambda: UniformMaskOperator.from_ratio(4, 3, 0.5, np.random.default_rng(5)),
    lambda: GaussianOperator(4, 3, 7, seed=5),
])
def test_adjoint_pairing(make_op):
    op = make_op()
    rng = np.random.default_rng(6)
    for _ in range(100):
        X = rng.standard_normal((op.m, op.n))
        y = rng.standard_normal(op.p)
        assert op.apply(X) @ y == pytest.approx(float(np.sum(X * op.adjoint(y))),
                                                rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("make_op", [
    lambda: FullOperator(3, 4),
    lambda: UniformMaskOperator.from_ratio(3, 4, 0.5, np.random.default_rng(7)),
    lambda: GaussianOperator(3, 4, 5, seed=7),
])
def test_operator_matrix_matches_apply(make_op):
    op = make_op()
    S = operator_matrix(op)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((op.m, op.n))
    assert_allclose(S @ X.flatten(order="F"), op.apply(X), atol=1e-12)


def test_apply_shape_checks():
    op = FullOperator(2, 3)
    with pytest.raises(ValueError, match="expected shape"):
        op.apply(np.ones((3, 2)))
    with pytest.raises(ValueError, match="length-6"):
        op.adjoint(np.ones(5))


def test_restricted_eigs_full_exact():
    est = estimate_restricted_eigs(FullOperator(5, 4), k=2)
    assert est.method == "exact-full"
    assert est.alpha_lower == est.alpha_upper == 1.0
    assert est.beta_lower == est.beta_upper == 1.0


def test_restricted_eigs_dense_exact_matches_gram():
    op = GaussianOperator(5, 4, 30, seed=3)
    est = estimate_restricted_eigs(op, k=4, samples=2, seed=1)
    assert est.method == "exact-dense"
    w = np.linalg.eigvalsh(op.stacked().T @ op.stacked())
    assert est.alpha_lower == pytest.approx(w[0], abs=1e-12)
    assert est.beta_upper == pytest.approx(w[-1], abs=1e-12)


def test_restricted_eigs_finds_unobserved_row():
    """A mask that never samples row 0 admits rank-1 matrices with A(X) = 0."""
    rows, cols = np.meshgrid(np.arange(1, 6), np.arange(5), indexing="ij")
    op = UniformMaskOperator(6, 5, rows.ravel(), cols.ravel())
    est = estimate_restricted_eigs(op, k=1, samples=3, seed=0)
    assert est.method == "monte-carlo"
    assert est.alpha_upper <= 1e-10
    assert est.beta_lower <= est.beta_upper == 1.0


def test_restricted_eigs_brackets_are_ordered():
    op = GaussianOperator(6, 5, 18, seed=11)
    est = estimate_restricted_eigs(op, k=2, samples=4, seed=2)
    assert est.method == "monte-carlo"
    assert 0.0 <= est.alpha_lower <= est.alpha_upper
    assert est.alpha_upper <= est.beta_lower <= est.beta_upper


def test_restricted_eigs_reproducible():
    op = GaussianOperator(6, 5, 18, seed=11)
    a = estimate_restricted_eigs(op, k=2, samples=3, seed=4)
    b = estimate_restricted_eigs(op, k=2, samples=3, seed=4)
    assert a == b


def test_restricted_eigs_arpack_path_is_reproducible_and_bracketed(monkeypatch):
    """60x60 mask at 30%, k=8: the factor eigenproblems (480 unknowns) go to
    ARPACK, and some converge no eigenvalue; the estimate must still come
    back, repeat exactly and keep its brackets ordered."""
    eigsh = scipy.sparse.linalg.eigsh
    unconverged = []

    def recording_eigsh(*args, **kwargs):
        try:
            return eigsh(*args, **kwargs)
        except scipy.sparse.linalg.ArpackNoConvergence as err:
            unconverged.append(err.eigenvalues.size)
            raise

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording_eigsh)
    op = UniformMaskOperator.from_ratio(60, 60, 0.3, np.random.default_rng(0))
    a = estimate_restricted_eigs(op, k=8, samples=2, seed=0)
    assert 0 in unconverged
    b = estimate_restricted_eigs(op, k=8, samples=2, seed=0)
    assert a == b
    assert a.method == "monte-carlo"
    assert 0.0 <= a.alpha_upper <= a.beta_lower <= a.beta_upper


def test_restricted_eigs_validation():
    op = FullOperator(4, 4)
    with pytest.raises(ValueError, match="k must lie"):
        estimate_restricted_eigs(op, k=5)
    with pytest.raises(ValueError, match="samples"):
        estimate_restricted_eigs(op, k=2, samples=0)


def test_inner_product_slack_full_operator():
    op = FullOperator(4, 4)
    rng = np.random.default_rng(12)
    X = rng.standard_normal((4, 4))
    Y = rng.standard_normal((4, 4))
    assert check_restricted_inner_product(op, 1.0, 1.0, X, Y) >= -1e-12
    assert check_restricted_inner_product(op, 1.0, 1.0, np.zeros((4, 4)), Y) == 0.0


def test_inner_product_slack_gaussian_with_exact_eigs():
    op = GaussianOperator(4, 4, 40, seed=13)
    est = estimate_restricted_eigs(op, k=4)
    rng = np.random.default_rng(14)
    for _ in range(100):
        X = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        Y = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        slack = check_restricted_inner_product(op, est.alpha_lower,
                                               est.beta_upper, X, Y)
        assert slack >= -1e-10


def test_inner_product_validation():
    op = FullOperator(2, 2)
    with pytest.raises(ValueError, match="alpha"):
        check_restricted_inner_product(op, 2.0, 1.0, np.eye(2), np.eye(2))
