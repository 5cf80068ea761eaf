"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (loops, grids, golden-section,
formulas recomputed in full) and imports nothing from the package, so
tests can compare the two routes. ``operator_matrix`` is the reference dense
form of a measurement operator, in the vec_F basis the package uses.
"""

import numpy as np


def phi_direct(a, t):
    return ((a - 1) * t * t + 2 * t) / (a + 1)


def grid_conjugate(a, s, points=100000):
    """max_{t in [0,1]} s*t - phi(t) on a dense grid."""
    ts = np.linspace(0.0, 1.0, points)
    return float(np.max(s * ts - phi_direct(a, ts)))


def golden_min(f, lo, hi, iters=200):
    """Golden-section search for the minimizer of a unimodal f on [lo, hi]."""
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def prox_radial_oracle(objective, hi, coarse=2000):
    """Global minimizer of a 1-D objective on [0, hi]: grid + golden refine."""
    ss = np.linspace(0.0, hi, coarse)
    vals = np.array([objective(s) for s in ss])
    i = int(np.argmin(vals))
    lo = ss[max(i - 1, 0)]
    up = ss[min(i + 1, coarse - 1)]
    return golden_min(objective, lo, up)


def prox_column_by_column(prox, Z, steps, *args):
    """A per-column step vector's prox, as one call of the scalar-step
    ``prox(Z_j, steps[j], *args)`` per one-column matrix Z_j."""
    return np.column_stack([prox(Z[:, [j]], float(steps[j]), *args)[:, 0]
                            for j in range(Z.shape[1])])


def fd_gradient(f, X, step=1e-5):
    """Central finite differences of a scalar function of a matrix."""
    X = np.asarray(X, dtype=float)
    G = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            Xp = X.copy()
            Xm = X.copy()
            Xp[i, j] += step
            Xm[i, j] -= step
            G[i, j] = (f(Xp) - f(Xm)) / (2 * step)
    return G


def l20_bruteforce(X, a=3.0, grid=11):
    """Column count via grid minimization of the variational form.

    min sum_j phi(w_j) over w in [0,1]^kappa subject to
    sum_j (1 - w_j) ||X_j|| = 0, with phi increasing, phi(0)=0, phi(1)=1.
    The constraint forces w_j = 1 exactly on nonzero columns, so the optimum
    equals the number of nonzero columns.
    """
    import itertools

    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=0)
    ws = np.linspace(0.0, 1.0, grid)
    best = None
    for combo in itertools.product(ws, repeat=X.shape[1]):
        w = np.array(combo)
        if abs(float((1.0 - w) @ norms)) > 1e-12:
            continue
        val = float(np.sum(phi_direct(a, w)))
        if best is None or val < best:
            best = val
    assert best is not None
    return int(round(best))


def smooth_gradient_direct(spec, U, V):
    """Gradients of the loss-scaled smooth part, written out from its formula:

        grad_U = A*(r) V + mu U (U^T U - V^T V) [- (tau/2) U for dc]
        grad_V = A*(r)^T U - mu V (U^T U - V^T V) [- (tau/2) V for dc]

    with r = A(U V^T) - b, recomputed on every call.
    """
    R = spec.op.adjoint(spec.op.apply(U @ V.T) - spec.b)
    bal = U.T @ U - V.T @ V
    mu = spec.params.mu_tilde
    gU = R @ V + mu * (U @ bal)
    gV = R.T @ U - mu * (V @ bal)
    if spec.model == "dc":
        gU = gU - 0.5 * spec.params.tau * U
        gV = gV - 0.5 * spec.params.tau * V
    return gU, gV


def stopping_residuals(spec, st_prev, st_new):
    """Recompute the stopping residuals of the solver transition st_prev -> st_new.

    Everything is rebuilt from scratch (extrapolation point, residuals,
    gradients), whereas the solver reuses each point's cached residual; the
    tests hold the two routes to 1e-12 of each other.
    """
    w = 0.0 if st_new.restarted else (st_prev.tk_prev - 1.0) / st_prev.tk
    U, V = st_prev.W.U, st_prev.W.V
    Unew, Vnew = st_new.W.U, st_new.W.V
    Ut = U + w * (U - st_prev.W_prev.U)
    Vt = V + w * (V - st_prev.W_prev.V)
    gU, _ = smooth_gradient_direct(spec, Ut, V)
    _, gV = smooth_gradient_direct(spec, Unew, Vt)
    gnew_u, gnew_v = smooth_gradient_direct(spec, Unew, Vnew)
    nb = 1.0 + float(np.linalg.norm(spec.b))
    res_u = float(np.linalg.norm(gU - gnew_u + st_new.LU * (Unew - Ut))) / nb
    res_v = float(np.linalg.norm(gV - gnew_v + st_new.LV * (Vnew - Vt))) / nb
    return res_u, res_v


def restricted_quadratic_form(op, Q, side):
    """Quadratic form of ||A(X)||^2 over the free factor F, column by column.

    side="u": X = F Q^T, F (m x k); side="v": X = Q F^T, F (n x k);
    F is flattened row-major. Column c is the projection of A*(A(X_c)) for
    the basis matrix F = e_c, built from one apply and one adjoint.
    """
    k = Q.shape[1]
    rows = op.m if side == "u" else op.n
    dims = rows * k
    H = np.empty((dims, dims))
    for c in range(dims):
        F = np.zeros(dims)
        F[c] = 1.0
        F = F.reshape(rows, k)
        X = F @ Q.T if side == "u" else Q @ F.T
        Z = op.adjoint(op.apply(X))
        H[:, c] = (Z @ Q if side == "u" else Z.T @ Q).ravel()
    return H


def operator_matrix(op):
    """Dense p x (m*n) matrix of op in the vec_F basis.

    Column j*m + i is A(e_i e_j^T), from one apply per basis matrix, so
    S @ X.flatten(order="F") = A(X) for every X.
    """
    S = np.empty((op.p, op.m * op.n))
    for j in range(op.n):
        for i in range(op.m):
            E = np.zeros((op.m, op.n))
            E[i, j] = 1.0
            S[:, j * op.m + i] = op.apply(E)
    return S


def inner_product_slack(op, alpha, beta, X, Y):
    """Slack of the restricted inner-product bound for the pair (X, Y):

        ((beta - alpha)/(beta + alpha)) ||X||_F ||Y||_F
            - | (2/(alpha + beta)) <A(X), A(Y)> - <X, Y> |

    Nonnegative slack means the pair satisfies the bound; 0 <= alpha <= beta
    with beta > 0 is the caller's to ensure.
    """
    lhs = abs(2.0 / (alpha + beta) * float(op.apply(X) @ op.apply(Y))
              - float(np.sum(X * Y)))
    bound = (beta - alpha) / (beta + alpha) * np.linalg.norm(X) * np.linalg.norm(Y)
    return float(bound - lhs)


def theta_prime_plus_direct(a, t):
    """Right derivative of theta at t >= 0, branch by branch: 1 below
    2/(a+1), the affine decay up to the saturation point 2a/(a+1), then 0."""
    if t < 2.0 / (a + 1):
        return 1.0
    if t < 2.0 * a / (a + 1):
        return 1.0 - ((a + 1) * t - 2) * (a + 1) / (2 * (a * a - 1))
    return 0.0


def dc_subdiff_distance_loop(spec, U, V):
    """Distance to the dc-model subdifferential, one column at a time.

    G is the nu-weighted gradient of the hard model's smooth part. A column
    with norm s above 1e-8 * max(1, ||F||_F) contributes
    ||G_j + (rho/2) theta'_+(rho s) F_j / s||^2, any other column
    max(0, ||G_j|| - rho/2)^2.
    """
    p = spec.params
    nu, rho = 1.0 / p.lam, p.rho
    R = spec.op.adjoint(spec.op.apply(U @ V.T) - spec.b)
    bal = U.T @ U - V.T @ V
    G = nu * (R @ V + p.mu_tilde * (U @ bal))
    H = nu * (R.T @ U - p.mu_tilde * (V @ bal))
    total = 0.0
    for grad, F in ((G, U), (H, V)):
        norms = np.linalg.norm(F, axis=0)
        tol = 1e-8 * max(1.0, float(np.linalg.norm(F)))
        for j in range(F.shape[1]):
            if norms[j] > tol:
                radial = 0.5 * rho * theta_prime_plus_direct(p.a, rho * norms[j])
                comp = grad[:, j] + radial * F[:, j] / norms[j]
                total += float(comp @ comp)
            else:
                total += max(0.0, float(np.linalg.norm(grad[:, j])) - 0.5 * rho) ** 2
    return float(np.sqrt(total))
