import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import (inner_product_slack, operator_matrix,
                     restricted_quadratic_form)

from l20factor import sampling
from l20factor.sampling import (FullOperator, GaussianOperator,
                                RestrictedEigEstimate, SamplingOperator,
                                UniformMaskOperator, estimate_restricted_eigs)


class DenseTestOperator(SamplingOperator):
    """A(X) = S @ vec_F(X) for a fixed S; no kind-specific shortcut applies."""

    kind = "dense-test"

    def __init__(self, S, m, n):
        super().__init__(m, n, S.shape[0])
        self.S = S

    def _apply(self, X):
        return self.S @ X.flatten(order="F")

    def _adjoint(self, y):
        return (self.S.T @ y).reshape((self.m, self.n), order="F")

    def operator_norm(self):
        return float(np.linalg.norm(self.S, 2))


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


def test_mask_flat_index_matches_2d_index():
    """The flat gather and scatter equal the 2-D fancy index bitwise, for a
    C-ordered and a Fortran-ordered X."""
    rng = np.random.default_rng(3)
    op = UniformMaskOperator.from_ratio(7, 5, 0.4, rng)
    X = rng.standard_normal((7, 5))
    for Xo in (X, np.asfortranarray(X)):
        assert np.array_equal(op.apply(Xo), X[op.rows, op.cols])
    y = rng.standard_normal(op.p)
    Z = np.zeros((7, 5))
    Z[op.rows, op.cols] = y
    assert np.array_equal(op.adjoint(y), Z)


def test_mask_validation():
    with pytest.raises(ValueError, match="duplicate"):
        UniformMaskOperator(2, 2, rows=[0, 0], cols=[1, 1])
    # Duplicates at the first and the last flat index, rows * n + cols.
    for rows, cols in (([0, 1, 0], [0, 2, 0]), ([2, 0, 2], [2, 1, 2])):
        with pytest.raises(ValueError, match="mask contains duplicate entries"):
            UniformMaskOperator(3, 3, rows=rows, cols=cols)
    full = UniformMaskOperator(3, 2, rows=[2, 1, 0, 0, 1, 2], cols=[1, 1, 1, 0, 0, 0])
    assert full.p == 6
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
    exact = np.linalg.norm(operator_matrix(op), 2)
    assert op.operator_norm() == pytest.approx(exact, rel=1e-12)


def test_gaussian_beta_upper_bounds_refined_beta():
    """At k = min(m, n) with m*n > 400 the Monte Carlo refinement reaches
    beta_k = ||A||^2; beta_upper must be that exact value, not below it."""
    op = GaussianOperator(25, 25, 300, seed=7)
    est = estimate_restricted_eigs(op, k=25, samples=1, seed=0)
    assert est.method == "monte-carlo"
    assert est.beta_lower <= est.beta_upper
    exact = np.linalg.norm(operator_matrix(op), 2) ** 2
    assert est.beta_upper == pytest.approx(exact, rel=1e-12)


def test_gaussian_operator_norm_is_computed_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    op = GaussianOperator(5, 4, 12, seed=3)
    assert op.operator_norm() == op.operator_norm()
    assert calls == [(12, 12)]
    wide = GaussianOperator.from_matrices(op.G[:, :2, :2])
    wide.operator_norm()
    assert calls[-1] == (4, 4)


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
    S = operator_matrix(op)
    w = np.linalg.eigvalsh(S.T @ S)
    assert est.alpha_lower == pytest.approx(w[0], abs=1e-12)
    assert est.beta_upper == pytest.approx(w[-1], abs=1e-12)


def test_restricted_eigs_finds_unobserved_row():
    """A mask that never samples row 0 admits rank-1 matrices with A(X) = 0."""
    rows, cols = np.meshgrid(np.arange(1, 6), np.arange(5), indexing="ij")
    op = UniformMaskOperator(6, 5, rows.ravel(), cols.ravel())
    est = estimate_restricted_eigs(op, k=1, samples=3, seed=0)
    assert est.method == "exact-mask"
    assert est.alpha_upper == 0.0
    assert est.beta_lower == est.beta_upper == 1.0


@st.composite
def masks(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    flat = draw(st.sets(st.integers(0, m * n - 1), min_size=1))
    rows, cols = np.unravel_index(np.array(sorted(flat)), (m, n))
    return UniformMaskOperator(m, n, rows, cols)


@settings(max_examples=60, deadline=None)
@given(op=masks(), seed=st.integers(0, 2**16))
@example(op=UniformMaskOperator(1, 1, [0], [0]), seed=0)
@example(op=UniformMaskOperator(4, 3, [2], [1]), seed=0)
@example(op=UniformMaskOperator(3, 4, *np.unravel_index(np.arange(12), (3, 4))),
         seed=0)
def test_mask_closed_form_is_exact(op, seed):
    """For every k the mask bracket is attained by e_i e_j^T witnesses, holds
    for random rank-k X and, at k = min(m, n), equals the Gram spectrum."""
    S = operator_matrix(op)
    w = np.linalg.eigvalsh(S.T @ S)
    observed = np.zeros((op.m, op.n), dtype=bool)
    observed[op.rows, op.cols] = True
    rng = np.random.default_rng(seed)
    for k in range(1, min(op.m, op.n) + 1):
        est = estimate_restricted_eigs(op, k)
        assert est.method == "exact-mask"
        assert est.alpha_lower == est.alpha_upper
        assert est.beta_lower == est.beta_upper == 1.0
        if k == min(op.m, op.n):
            assert est.alpha_upper == pytest.approx(w[0], abs=1e-12)
            assert est.beta_upper == pytest.approx(w[-1], abs=1e-12)
        for (i, j), seen in np.ndenumerate(observed):
            E = np.zeros((op.m, op.n))
            E[i, j] = 1.0
            ratio = float(np.sum(op.apply(E) ** 2))
            assert ratio == (est.beta_upper if seen else 0.0)
            assert ratio >= est.alpha_upper
        if not observed.all():
            assert est.alpha_upper == 0.0
        for _ in range(5):
            X = rng.standard_normal((op.m, k)) @ rng.standard_normal((k, op.n))
            ratio = float(np.sum(op.apply(X) ** 2) / np.sum(X ** 2))
            assert est.alpha_upper - 1e-12 <= ratio <= est.beta_upper + 1e-12


@settings(max_examples=60, deadline=None)
@given(op=masks(), kappa=st.integers(1, 4), side=st.sampled_from(["u", "v"]),
       seed=st.integers(0, 2**16))
@example(op=UniformMaskOperator(3, 4, *np.unravel_index(np.arange(12), (3, 4))),
         kappa=3, side="u", seed=0)
@example(op=UniformMaskOperator(4, 3, [2], [1]), kappa=2, side="v", seed=0)
@example(op=UniformMaskOperator(3, 2, [0, 1, 2], [0, 1, 1]), kappa=1, side="u",
         seed=0)
@example(op=UniformMaskOperator.from_ratio(60, 50, 0.3, np.random.default_rng(5)),
         kappa=4, side="v", seed=1)
def test_curvature_is_the_top_eigenvalue_of_the_map_gram(op, kappa, side, seed):
    """One ``curvature()`` serves the mask, full and Gaussian maps, each
    checked against its quadratic form, built column by column in
    tests/oracles.py. ``gram()``'s blocks over Q's nonzero columns, laid on
    the diagonal, are the form on the mask and full maps (one shared block
    ||A||^2 Q^T Q on the full one) and majorize it on the Gaussian map. The
    curvature follows from the blocks: their top eigenvalue, which is the
    form's on the exact maps and ||Q||_2^2 on a fully observed mask or the
    full map, and per-column bounds c, each column's largest absolute row
    sum over the blocks, so that diag(c) majorizes the form; c_l is 0 on
    Q's zero columns, and ||A||^2 sum_l' |Q^T Q|_{ll'} on the full and
    Gaussian maps. Both scale with Q's square at scales whose squares
    under- or overflow. An all-zero Q gives (0.0, zeros) on every map, and
    so does a mask Q that is nonzero only on rows that no observed entry
    meets. A mask map's ``regauged`` is a mask map, with the curvature of
    its own Gram."""
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((op.n if side == "u" else op.m, kappa))
    Q[:, rng.random(kappa) < 0.3] = 0.0
    live = np.any(Q != 0.0, axis=0)
    norm2 = float(np.linalg.norm(Q, 2) ** 2)
    zeros = np.zeros(kappa)
    for other in (op, FullOperator(op.m, op.n), GaussianOperator(op.m, op.n, 5, seed)):
        amap = other.restricted(Q, side)
        assert type(amap) is {"mask": sampling._MaskRestrictedMap,
                              "full": sampling.RestrictedMap,
                              "gaussian": sampling._GaussianRestrictedMap}[other.kind]
        H = restricted_quadratic_form(other, Q, side)
        rows = H.shape[0] // kappa
        G = amap.gram()
        top, columns = amap.curvature()
        assert G.shape[0] in (1, rows) and G.shape[1:] == (live.sum(),) * 2
        if other.kind != "mask":
            a2 = other.operator_norm() ** 2
            assert_allclose(G[0], a2 * Q[:, live].T @ Q[:, live], rtol=1e-12, atol=0.0)
            assert_allclose(columns, a2 * np.abs(Q.T @ Q).sum(axis=1), rtol=1e-12, atol=0.0)
        blocks = np.zeros((rows, kappa, kappa))
        blocks[:, live[:, None] & live] = np.broadcast_to(
            G, (rows,) + G.shape[1:]).reshape(rows, -1)
        laid = np.einsum("ij,iab->iajb", np.eye(rows), blocks).reshape(H.shape)
        scale = max(1.0, float(np.abs(H).max()))
        form_top = float(np.linalg.eigvalsh(H)[-1])
        assert top == pytest.approx(float(np.linalg.eigvalsh(blocks)[:, -1].max()),
                                    rel=1e-12, abs=1e-12)
        assert_allclose(columns, np.abs(blocks).sum(axis=2).max(axis=0), rtol=1e-12,
                        atol=1e-12 * scale)
        assert np.all(columns[~live] == 0.0)
        excess = np.tile(columns, rows)
        assert np.linalg.eigvalsh(np.diag(excess) - H)[0] >= -1e-12 * max(1.0, top)
        if other.kind == "gaussian":
            assert np.linalg.eigvalsh(laid - H)[0] >= -1e-12 * max(1.0, top)
            assert top >= form_top - 1e-12 * max(1.0, top)
        else:
            assert_allclose(laid, H, rtol=1e-12, atol=1e-12 * scale)
            assert top == pytest.approx(form_top, rel=1e-12, abs=1e-12)
            diagonal = [H[i:i + kappa, i:i + kappa] for i in range(0, H.shape[0], kappa)]
            sums = np.max([np.abs(B).sum(axis=1) for B in diagonal], axis=0)
            assert_allclose(columns, sums, rtol=1e-12, atol=1e-12 * max(1.0, sums.max()))
        if other.kind != "gaussian" and other.p == other.m * other.n:
            assert top == pytest.approx(norm2, rel=1e-12, abs=1e-12)
        for c in (1e-150, 1e150):
            scaled = other.restricted(c * Q, side).curvature()
            assert scaled[0] / (c * c) == pytest.approx(top, rel=1e-12, abs=1e-12)
            assert_allclose(scaled[1] / (c * c), columns, rtol=1e-12, atol=1e-12)
        top0, columns0 = other.restricted(np.zeros_like(Q), side).curvature()
        assert top0 == 0.0 and np.array_equal(columns0, zeros)
    unseen = ~op._pattern.any(axis=0 if side == "u" else 1)
    if unseen.any():
        blind = np.zeros_like(Q)
        blind[unseen] = 1.0
        top0, columns0 = op.restricted(blind, side).curvature()
        assert top0 == 0.0 and np.array_equal(columns0, zeros)
    amap = op.restricted(Q, side)
    T = rng.standard_normal((kappa, kappa)) + 3.0 * np.eye(kappa)
    moved = amap.regauged(Q @ T, T)
    assert type(moved) is type(amap) is sampling._MaskRestrictedMap
    assert moved.side == side
    H = restricted_quadratic_form(op, moved.Q, side)
    assert moved.curvature()[0] == pytest.approx(float(np.linalg.eigvalsh(H)[-1]),
                                                 rel=1e-12, abs=1e-12)


def test_mask_curvature_checks_blocks_past_the_first_pass(monkeypatch):
    """Rows 0-2 of Z observe the unit row w = (0.6, 0.8, 0) of V: blocks
    w w^T with eigenvalue 1 and Gershgorin bound 0.8 * 1.4 = 1.12, which
    head the order. Row 3 observes sqrt(1.01) e_3, whose block's eigenvalue
    and bound are both 1.01, the curvature. The first pass takes k = 3
    blocks, rows 0-2, and finds 1.0; row 3's bound reaches it, the Cholesky
    of 1.0 I - G_3 fails, and only the second pass finds 1.01."""
    V = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, np.sqrt(1.01)]])
    op = UniformMaskOperator(4, 2, [0, 1, 2, 3], [0, 0, 0, 1])
    passes, failed = [], []
    eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky

    def counted_eigvalsh(blocks, *args, **kwargs):
        vals = eigvalsh(blocks, *args, **kwargs)
        passes.append((len(blocks), float(vals[:, -1].max())))
        return vals

    def counted_cholesky(blocks):
        try:
            return cholesky(blocks)
        except np.linalg.LinAlgError:
            failed.append(len(blocks))
            raise

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    top = op.restricted(V, "u").curvature()[0]
    assert top == pytest.approx(1.01, rel=1e-12)
    assert passes[0] == (3, pytest.approx(1.0, rel=1e-12))
    assert failed == [1]
    assert passes[1] == (1, pytest.approx(1.01, rel=1e-12))
    assert len(passes) == 2


def test_orthonormalize_fills_a_rank_deficient_factor():
    """Two equal columns give a rank-one F; the jittered QR still returns
    two orthonormal columns."""
    f = np.random.default_rng(0).standard_normal(6)
    Q = sampling._orthonormalize(np.column_stack([f, f]))
    assert Q.shape == (6, 2)
    assert_allclose(Q.T @ Q, np.eye(2), atol=1e-12)


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


def unshared_bracket(op, k, samples, seed):
    """The Monte Carlo bracket with each chain making its own first sweep:
    per sample, all three sweeps toward the minimum, then all three toward
    the maximum, each from ``sampling._refine_factor``."""
    def chain(L0, end):
        fixed, side, vals = L0, "u", []
        for _ in range(3):
            Q = sampling._orthonormalize(fixed)
            val, X = sampling._refine_factor(op.restricted(Q, side))[end]
            vals.append(val)
            fixed, side = (X @ Q, "v") if side == "u" else (X.T @ Q, "u")
        return max(vals) if end else min(vals)

    beta_upper = op.operator_norm() ** 2
    alpha_upper, beta_lower = np.inf, 0.0
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        rng.standard_normal((op.m, k))
        L0 = rng.standard_normal((op.n, k))
        alpha_upper = min(alpha_upper, chain(L0, 0))
        beta_lower = max(beta_lower, chain(L0, 1))
    return RestrictedEigEstimate(k, 0.0, max(min(alpha_upper, beta_upper), 0.0),
                                 min(beta_lower, beta_upper), beta_upper,
                                 samples, "monte-carlo")


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_restricted_eigs_share_the_first_sweep(k, samples, seed, monkeypatch):
    """Sharing each sample's first sweep between its two chains gives the
    unshared estimate exactly, with 5 eigh calls per sample instead of 6."""
    op = GaussianOperator(6, 5, 18, seed=11)
    expected = unshared_bracket(op, k, samples, seed)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert estimate_restricted_eigs(op, k, samples=samples, seed=seed) == expected
    assert len(calls) == 5 * samples


MAP_OPERATORS = pytest.mark.parametrize("make_op", [
    lambda G: GaussianOperator.from_matrices(G),
    lambda G: DenseTestOperator(G.transpose(0, 2, 1).reshape(G.shape[0], -1),
                                G.shape[1], G.shape[2]),
], ids=["gaussian", "fallback"])


@pytest.mark.parametrize("side", [pytest.param("u", id="right"),
                                  pytest.param("v", id="left")])
@pytest.mark.parametrize("make_op", [GaussianOperator.from_matrices], ids=["gaussian"])
def test_refine_factor_matches_column_oracle(make_op, side, monkeypatch):
    """B^T B equals the quadratic form built column by column from apply and
    adjoint, and one eigh of it gives both returned ends, each X a unit
    extremal point of it."""
    rng = np.random.default_rng(21)
    op = make_op(rng.standard_normal((13, 5, 4)) / np.sqrt(13))
    k = 2
    Q, _ = np.linalg.qr(rng.standard_normal((op.n if side == "u" else op.m, k)))
    H = restricted_quadratic_form(op, Q, side)
    eigh = np.linalg.eigh
    seen = []

    def recording_eigh(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    w = np.linalg.eigvalsh(H)
    ends = sampling._refine_factor(op.restricted(Q, side))
    assert len(seen) == 1
    assert_allclose(seen[0], H, rtol=0, atol=1e-12 * np.abs(H).max())
    for want_max, (val, X) in zip((False, True), ends):
        assert val == pytest.approx(w[-1] if want_max else w[0], rel=1e-12)
        assert np.linalg.norm(X) == pytest.approx(1.0, rel=1e-12)
        assert float(np.sum(op.apply(X) ** 2)) == pytest.approx(val, rel=1e-12)


@MAP_OPERATORS
@pytest.mark.parametrize("side", ["u", "v"])
@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_restricted_map_matches_operator_matrix(make_op, side, kappa):
    """apply, adjoint and flip of op.restricted(Q, side) against the
    oracle matrix S: apply(Z) = S vec_F(X) for X = Z Q^T ("u") or Q Z^T
    ("v"), and adjoint(r) is A*(r) Q or A*(r)^T Q with A*(r) from S^T r.
    Q's first column is zero, so at kappa = 1 the whole map is zero."""
    rng = np.random.default_rng(40 + kappa)
    op = make_op(rng.standard_normal((13, 5, 4)) / np.sqrt(13))
    S = operator_matrix(op)
    rows, fixed = (op.m, op.n) if side == "u" else (op.n, op.m)
    Q = rng.standard_normal((fixed, kappa))
    Q[:, 0] = 0.0
    Z = rng.standard_normal((rows, kappa))
    r = rng.standard_normal(op.p)
    scale = np.linalg.norm(S) * max(np.linalg.norm(Q), 1.0) \
        * max(np.linalg.norm(Z), np.linalg.norm(r))

    def image(Z, Q, side):
        X = Z @ Q.T if side == "u" else Q @ Z.T
        return S @ X.flatten(order="F")

    def restricted_adjoint(Q, side):
        R = (S.T @ r).reshape((op.m, op.n), order="F")
        return R @ Q if side == "u" else R.T @ Q

    amap = op.restricted(Q, side)
    assert (amap.Q is Q, amap.side) == (True, side)
    assert_allclose(amap.apply(Z), image(Z, Q, side), rtol=0, atol=1e-12 * scale)
    assert_allclose(amap.adjoint(r), restricted_adjoint(Q, side),
                    rtol=0, atol=1e-12 * scale)
    own, other, other_adj = amap.flip(Z, r)
    other_side = "v" if side == "u" else "u"
    assert (other.Q is Z, other.side) == (True, other_side)
    assert_allclose(own, restricted_adjoint(Q, side), rtol=0, atol=1e-12 * scale)
    assert_allclose(other_adj, restricted_adjoint(Z, other_side),
                    rtol=0, atol=1e-12 * scale)
    assert_allclose(other.apply(Q), image(Z, Q, side), rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("side", ["u", "v"])
def test_mask_map_work_array_is_bitwise_and_private(side):
    """A mask map's apply, adjoint and flip, which go through the
    operator's one work array, equal the base map's bitwise, also when the
    calls interleave; no result shares the work array, so a later call
    changes no earlier result, and the operator's own apply and adjoint
    return fresh arrays."""
    rng = np.random.default_rng(50)
    op = UniformMaskOperator.from_ratio(9, 7, 0.5, rng)
    rows, fixed = (op.m, op.n) if side == "u" else (op.n, op.m)
    Q = rng.standard_normal((fixed, 3))
    Z = rng.standard_normal((rows, 3))
    r = rng.standard_normal(op.p)
    amap, base = op.restricted(Q, side), sampling.RestrictedMap(op, Q, side)
    y, g = amap.apply(Z), amap.adjoint(r)
    flipped = amap.flip(Z, r)
    amap.apply(2.0 * Z)
    amap.adjoint(2.0 * r)
    base_flip = base.flip(Z, r)
    assert np.array_equal(y, base.apply(Z))
    assert np.array_equal(g, base.adjoint(r))
    for a, b in ((flipped[0], base_flip[0]), (flipped[2], base_flip[2])):
        assert np.array_equal(a, b)
    assert np.array_equal(flipped[1].apply(Q), base_flip[1].apply(Q))
    X = Z @ Q.T if side == "u" else Q @ Z.T
    for out in (y, g, flipped[0], flipped[2], op.apply(X), op.adjoint(r)):
        assert not np.shares_memory(out, op._work)


def test_restricted_map_rejects_unknown_side():
    with pytest.raises(ValueError, match="side"):
        FullOperator(3, 2).restricted(np.ones((2, 1)), "right")


def test_restricted_eigs_rejects_an_operator_kind_without_a_bracket():
    """Only the full, mask and Gaussian operators have a bracket; another
    kind is a TypeError naming it, on the exact-dense and the Monte Carlo
    route alike."""
    dense = DenseTestOperator(operator_matrix(GaussianOperator(6, 5, 18, seed=11)), 6, 5)
    for k in (2, 5):
        with pytest.raises(TypeError, match="'dense-test'"):
            estimate_restricted_eigs(dense, k=k, samples=3, seed=4)


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
    assert inner_product_slack(op, 1.0, 1.0, X, Y) >= -1e-12
    assert inner_product_slack(op, 1.0, 1.0, np.zeros((4, 4)), Y) == 0.0


def test_inner_product_slack_gaussian_with_exact_eigs():
    op = GaussianOperator(4, 4, 40, seed=13)
    est = estimate_restricted_eigs(op, k=4)
    rng = np.random.default_rng(14)
    for _ in range(100):
        X = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        Y = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        slack = inner_product_slack(op, est.alpha_lower, est.beta_upper, X, Y)
        assert slack >= -1e-10
