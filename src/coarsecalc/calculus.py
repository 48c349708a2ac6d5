"""Gradients at a scale, Laplacians, the symmetric eigensolver and its
Cholesky certificate, energy identities, and the co-area sandwich.

Three gradient notions live here, all pointwise nonnegative fields:

* ``grad_sup(f, h)``: largest deviation of f over the closed ball B(x, h);
* ``grad_lp(f, h, p)``: ball-averaged p-mean deviation,
  ``((1/V(x,h)) sum_{B(x,h)} |f(y)-f(x)|^p mu(y))^(1/p)``;
* ``grad_viewpoint(vp, f, p)``: p-mean deviation against the kernel row,
  ``(sum_y |f(y)-f(x)|^p p_x(y) mu(y))^(1/p)``.

Energy identities here carry a factor 1/2 relative to the naive pairing:
for a symmetric viewpoint, direct expansion of the double sum gives

    sum_xy |f(y)-f(x)|^2 p_x(y) mu(x) mu(y) = 2 <(I-P)f, f>_mu,

so ``energy`` asserts gradient_norm_sq == 2 * dirichlet and
``p2_energy_identity`` asserts its lhs == 2 * rhs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv, dnrm2
from scipy.linalg.lapack import dpotrf, dsyevd
from scipy.sparse import csr_matrix, diags, issparse
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

from coarsecalc.space import boundary_measures, doubling_profile
from coarsecalc.viewpoint import apply as vp_apply, is_symmetric, \
    standard_viewpoint

EIG_RESIDUAL_TOL = 1e-10
ENERGY_IDENTITY_RTOL = 1e-10
# largest matrix solved whole by LAPACK; on one thread Lanczos is faster on
# box walks from about 200 points and on criterion 7's J_2 blocks above 256
DENSE_EIG_SIZE = 256
_EPS = np.finfo(float).eps


def _check_field(space, f):
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n,):
        raise ValueError(f"field must have shape ({space.n},), got {f.shape}")
    return f


def _check_finite(space, f):
    """_check_field that also refuses NaN and +-inf, naming the first such
    point: a NaN makes every tolerance test False, so an identity check
    would pass on it and a sandwich would fail."""
    f = _check_field(space, f)
    finite = np.isfinite(f)
    if not finite.all():
        x = int(np.argmin(finite))
        raise ValueError(f"field has a non-finite value {f[x]} at point {x}")
    return f


def lp_norm(space, f, p):
    """||f||_p with respect to the space measure; p may be inf."""
    if p < 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    f = _check_field(space, f)
    if np.isinf(p):
        return float(np.abs(f).max())
    return float(np.sum(np.abs(f) ** p * space.measure) ** (1.0 / p))


# ----------------------------------------------------------------------
# gradients


def grad_sup(space, f, h):
    """|grad f|_h(x) = sup over B(x,h) of |f(y) - f(x)|."""
    if h < 0:
        raise ValueError(f"scale must be >= 0, got {h}")
    f = _check_field(space, f)
    indptr, indices, _ = space.neighbourhoods(h)
    dev = np.abs(f[indices] - np.repeat(f, np.diff(indptr)))
    return np.maximum.reduceat(dev, indptr[:-1])


def grad_lp(space, f, h, p):
    """Ball-averaged p-mean deviation; p = inf reduces to grad_sup."""
    if p < 1:
        raise ValueError(f"exponent must be >= 1, got {p}")
    if np.isinf(p):
        return grad_sup(space, f, h)
    if h <= 0:
        raise ValueError(f"scale must be > 0, got {h}")
    f = _check_field(space, f)
    indptr, indices, _ = space.neighbourhoods(h)
    dev = np.abs(f[indices] - np.repeat(f, np.diff(indptr))) ** p
    mean = np.add.reduceat(dev * space.measure[indices], indptr[:-1]) / \
        space.volumes(h)
    return mean ** (1.0 / p)


def grad_viewpoint(vp, f, p):
    """Kernel-averaged p-mean deviation; p = inf takes the sup over the
    row support {y : p_x(y) > 0}."""
    if p < 1:
        raise ValueError(f"exponent must be >= 1, got {p}")
    f = _check_field(vp.space, f)
    dev = np.abs(_row_deviation(vp.dens, f))
    if np.isinf(p):
        return _row_max(vp.dens.indptr, dev)
    return _row_integral(vp.dens, dev ** p, vp.space.measure) ** (1.0 / p)


def _row_deviation(D, f):
    """f(y) - f(x) at every stored entry (x, y) of the CSR matrix D."""
    return f[D.indices] - np.repeat(f, np.diff(D.indptr))


def _row_integral(D, g, mu):
    """sum_y g(x, y) D(x, y) mu(y) for every row x; g runs over D's entries."""
    return csr_matrix((g * D.data, D.indices, D.indptr), shape=D.shape) @ mu


def _row_max(indptr, vals):
    """Largest of vals over each CSR row, 0 on an empty row."""
    out = np.zeros(indptr.size - 1)
    full = np.diff(indptr) > 0   # reduceat misreads empty rows
    out[full] = np.maximum.reduceat(vals, indptr[:-1][full])
    return out


# ----------------------------------------------------------------------
# Laplacians and spectra


def laplacian(vp, f, p=2):
    """p-Laplacian; p=2 is exactly f - Pf, general p > 1 is the odd power
    nonlinearity sum_y |f(x)-f(y)|^(p-2) (f(x)-f(y)) p_x(y) mu(y).

    The sign convention makes the operator positive-semidefinite against f
    (consistent with (I - P) at p=2).
    """
    if p <= 1:
        raise ValueError(f"p-Laplacian needs p > 1, got {p}")
    f = _check_field(vp.space, f)
    if p == 2:
        return f - vp_apply(vp, f)
    t = -_row_deviation(vp.dens, f)
    mag = np.abs(t)
    # zero differences have no finite power below p = 2
    term = np.power(mag, p - 2, out=np.zeros_like(mag), where=mag > 0) * t
    return _row_integral(vp.dens, term, vp.space.measure)


def _require_symmetric(vp, who):
    rep = is_symmetric(vp)
    if not rep.symmetric:
        raise ValueError(f"{who} requires a symmetric viewpoint; worst pair "
                         f"({rep.x},{rep.y}) differs by {rep.gap:g}")


def _offdiag_nonnegative(M):
    """True when no off-diagonal entry of M is negative; the diagonal is
    not read, as it may round below zero where it should be zero."""
    if issparse(M):
        M = M.tocoo()
        return bool(np.all(M.data[M.row != M.col] >= 0))
    return bool(np.all((M >= 0) | np.eye(M.shape[0], dtype=bool)))


def symmetric_eig(M, which, k=1):
    """(theta, V, residuals): the k eigenpairs of the symmetric matrix M
    (dense or sparse) that are largest ("LA") or smallest ("SA"), theta
    ascending.

    Up to DENSE_EIG_SIZE points LAPACK dsyevd solves M whole (bitwise what
    np.linalg.eigh returns); above it ARPACK Lanczos runs to machine
    precision from a fixed start, and restarts after a breakdown from a
    fixed seed, so reruns repeat; the zero matrix gets dsyevd's answer.
    The start is the ones vector for the top eigenpair ("LA", k = 1) of a
    matrix with no negative off-diagonal entry: lambda_max then has a
    nonnegative eigenvector (Perron-Frobenius, after a diagonal shift),
    which a positive start meets with weight at least n^-1/2, and on a
    symmetric space Lanczos stays in the small invariant subspace that
    holds it. Every other request starts from a slight ramp. Each
    residual ||M v - theta v|| bounds |lambda - theta| for an eigenvalue
    lambda of M (Parlett, ch. 4); one above EIG_RESIDUAL_TOL *
    max(1, |theta|), or an ARPACK failure such as no Lanczos convergence,
    raises ArithmeticError.
    """
    n = M.shape[0]
    if n <= DENSE_EIG_SIZE:
        dense = M.toarray() if issparse(M) else M
        w, v, info = dsyevd(dense, compute_v=1, lower=1)
        if info != 0:
            raise ArithmeticError(f"dsyevd failed (info = {info})")
        pick = slice(n - k, n) if which == "LA" else slice(k)
        theta, V = w[pick], v[:, pick]
    elif not abs(M).max():
        # Lanczos cannot start on the zero matrix; answer as dsyevd does,
        # theta 0 on the first ("SA") or last k unit vectors
        theta, V = np.zeros(k), np.zeros((n, k))
        V[np.arange(k) if which == "SA" else np.arange(n - k, n),
          np.arange(k)] = 1.0
    else:
        v0 = np.ones(n)
        if not (which == "LA" and k == 1 and _offdiag_nonnegative(M)):
            v0 += np.linspace(0.0, 1e-3, n)
        try:
            theta, V = eigsh(M, k=k, which=which, tol=0, v0=v0, rng=0)
        except ArpackNoConvergence as exc:
            raise ArithmeticError(f"Lanczos did not converge on {n} "
                                  f"points: {exc}") from exc
        except ArpackError as exc:
            raise ArithmeticError(f"Lanczos failed on {n} points: "
                                  f"{exc}") from exc
    residuals = np.empty(k)
    for j, t in enumerate(theta.tolist()):
        x = V[:, j]
        # dense: one BLAS call; M is symmetric, so dense.T (no copy) will do
        r = dgemv(1.0, dense.T, x, beta=-t, y=x) if n <= DENSE_EIG_SIZE \
            else M @ x - t * x
        residuals[j] = dnrm2(r)
        if residuals[j] > EIG_RESIDUAL_TOL * max(1.0, abs(t)):
            raise ArithmeticError(f"eigensolver residual {residuals[j]:g} on "
                                  f"{n} points exceeds {EIG_RESIDUAL_TOL:g}")
    return theta, V, residuals


def above(C, s, diag):
    """True when every eigenvalue of the dense positive semidefinite C, and
    every eigenvalue dsyevd computes for it, is certified above s: C minus
    (s + 4 (k + 1)^2 eps trace(C)) I factors by Cholesky (LAPACK dpotrf),
    so by Sylvester's law of inertia it has no eigenvalue <= 0. The margin
    is above Cholesky's backward error, about (k + 1) eps trace(C), and
    dsyevd's, a small multiple of eps ||C||_2 <= eps trace(C). ``diag`` is
    C's diagonal, which the caller has read already; trace(C) is its sum,
    bit for bit np.trace(C). False certifies nothing; s = inf gives False.
    """
    k = C.shape[0]
    shifted = C.copy()
    shifted.flat[::k + 1] -= s + 4 * (k + 1) ** 2 * _EPS * diag.sum()
    return dpotrf(shifted, lower=1, clean=0, overwrite_a=1)[1] == 0


# ----------------------------------------------------------------------
# energy identities


def energy(vp, f):
    """(<(I-P)f, f>_mu, ||grad_{P,2} f||_2^2); asserts the second equals
    twice the first (to 1e-10 relative)."""
    _require_symmetric(vp, "energy")
    f = _check_finite(vp.space, f)
    mu = vp.space.measure
    dirichlet = float(np.sum((f - vp_apply(vp, f)) * f * mu))
    g = grad_viewpoint(vp, f, 2)
    grad_sq = float(np.sum(g * g * mu))
    scale = max(abs(dirichlet), abs(grad_sq), 1e-300)
    if abs(grad_sq - 2.0 * dirichlet) > ENERGY_IDENTITY_RTOL * scale:
        raise ArithmeticError(
            f"energy identity violated: ||grad||^2 = {grad_sq!r} vs "
            f"2 <(I-P)f, f> = {2 * dirichlet!r}")
    return dirichlet, grad_sq


def p2_energy_identity(vp, f):
    """(||grad_{P^2,2} f||_2^2, ||f||_2^2 - ||Pf||_2^2); asserts lhs == 2*rhs.

    The two-step kernel is the density product D diag(mu) D; no certificate
    is needed for the identity, only the density matrix. The product is
    built on the first call and kept on the viewpoint (``_two_step``), so
    checking k fields builds it once.
    """
    _require_symmetric(vp, "p2_energy_identity")
    f = _check_finite(vp.space, f)
    mu = vp.space.measure
    dens2 = _two_step(vp)
    dev = _row_deviation(dens2, f)
    lhs = float(mu @ _row_integral(dens2, dev * dev, mu))
    pf = vp_apply(vp, f)
    rhs = float(np.sum(f * f * mu) - np.sum(pf * pf * mu))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    if abs(lhs - 2.0 * rhs) > ENERGY_IDENTITY_RTOL * scale:
        raise ArithmeticError(f"two-step energy identity violated: "
                              f"lhs = {lhs!r} vs 2 rhs = {2 * rhs!r}")
    return float(lhs), rhs


# ----------------------------------------------------------------------
# co-area


def coarea(space, f, h):
    """Threshold-sum sandwich (T/2, integral of |grad f|_h, T).

    T = sum over consecutive distinct values v_{i-1} < v_i of f of
    (v_i - v_{i-1}) * mu(boundary_h {f >= v_i}), which is the exact integral
    of t -> mu(boundary_h {f >= t}) because f takes finitely many values.
    The level sets go through ``space.boundaries`` together.
    """
    f = _check_finite(space, f)
    if np.any(f < 0):
        raise ValueError("coarea expects a nonnegative field")
    mid = float(np.sum(grad_sup(space, f, h) * space.measure))
    vals = np.unique(f)
    T = 0.0
    levels = (f >= v for v in vals[1:])
    for step, b in zip(np.diff(vals), boundary_measures(space, levels, h)):
        T += step * b
    lower, upper = T / 2.0, T
    tol = 1e-12 * max(1.0, upper)
    if not (lower <= mid + tol and mid <= upper + tol):
        raise ArithmeticError(f"co-area sandwich violated: "
                              f"{lower!r} <= {mid!r} <= {upper!r}")
    return lower, mid, upper


# ----------------------------------------------------------------------
# comparison reports (sandwich and smoothing)


@dataclass(frozen=True)
class SandwichReport:
    """Pointwise gradient comparison for one field and one viewpoint.

    Arrays: kappa * grad_lp(q) <= grad_vp(q) <= grad_vp(q2) <= grad_sup(A*h),
    where kappa(x) = (c * V(x, h))^(1/q) from the certificate (A, c).
    """

    holds: bool
    lower: np.ndarray
    vp_q: np.ndarray
    vp_q2: np.ndarray
    upper: np.ndarray


def sandwich_report(vp, f, q, q2, slack=1e-12) -> SandwichReport:
    """Check the pointwise gradient sandwich for exponents q <= q2."""
    if q > q2:
        raise ValueError(f"need q <= q2, got {q} > {q2}")
    space = vp.space
    f = _check_finite(space, f)
    V = space.volumes(vp.h)
    if np.isinf(q):
        kappa = np.ones(space.n)
    else:
        kappa = (vp.c * V) ** (1.0 / q)
    lower = kappa * grad_lp(space, f, vp.h, q)
    mid1 = grad_viewpoint(vp, f, q)
    mid2 = grad_viewpoint(vp, f, q2)
    upper = grad_sup(space, f, vp.A * vp.h)
    tol = slack * max(1.0, float(np.abs(f).max()))
    holds = bool(np.all(lower <= mid1 + tol) and np.all(mid1 <= mid2 + tol)
                 and np.all(mid2 <= upper + tol))
    return SandwichReport(holds, lower, mid1, mid2, upper)


@dataclass(frozen=True)
class SmoothingReport:
    """Measured constant in |grad Pf|_h <= C |grad f|_{2h,1} vs the
    doubling-derived bound C_h (C_{2h} + 1)."""

    measured: float
    bound: float
    holds: bool


def smoothing_report(space, f, h) -> SmoothingReport:
    """Measure the smoothing constant of the standard viewpoint at scale h.

    The right-hand side lives at scale 2h: averaging Pf over B(y, h) for
    y in B(x, h) only sees f inside B(x, 2h), and a field varying just
    outside B(x, h) defeats any pointwise bound against |grad f|_{h,1}.
    Points where the rhs vanishes have lhs = 0 as well (f is constant on
    B(x, 2h) there) and are skipped.
    """
    f = _check_field(space, f)
    vp = standard_viewpoint(space, h)
    lhs = grad_sup(space, vp_apply(vp, f), h)
    rhs = grad_lp(space, f, 2 * h, 1)
    pos = rhs > 0
    measured = float((lhs[pos] / rhs[pos]).max()) if np.any(pos) else 0.0
    ch, c2h = (r.constant for r in doubling_profile(space, [h, 2 * h]))
    bound = ch * (c2h + 1.0)
    return SmoothingReport(measured, float(bound), measured <= bound + 1e-9)


# ----------------------------------------------------------------------
# quadratic forms (exact J_2 and the walk's spectral radii read them)


def gradient_pairs(space, h=None, vp=None):
    """Pair triplets (rows, cols, w) with
    sum_k w_k (f(rows_k) - f(cols_k))^2 = ||grad f||_{2,mu}^2.

    Without ``vp`` the pairs are the closed balls B(x, h) with
    w = mu(x) mu(y) / V(x, h) (the ball-averaged gradient); with ``vp``
    they are the kernel rows with w = mu(x) p_x(y) mu(y).
    """
    mu = space.measure
    if vp is None:
        indptr, cols, _ = space.neighbourhoods(h)
    else:
        indptr, cols = vp.dens.indptr, vp.dens.indices
    rows = np.repeat(np.arange(space.n), np.diff(indptr))
    if vp is None:
        w = mu[rows] * mu[cols] / space.volumes(h)[rows]
    else:
        w = mu[rows] * vp.dens.data * mu[cols]
    return rows, cols, w


def l2_gradient_form(space, h=None, vp=None):
    """Sparse Q with f^T Q f = ||grad f||_{2,mu}^2 exactly, on the pairs of
    gradient_pairs(space, h, vp); symmetric even when the kernel is not."""
    rows, cols, w = gradient_pairs(space, h, vp)
    data = np.concatenate([w, w, -w, -w])
    r = np.concatenate([rows, cols, rows, cols])
    c = np.concatenate([rows, cols, cols, rows])
    return csr_matrix((data, (r, c)), shape=(space.n, space.n))


def _form(space, h=None, vp=None):
    """l2_gradient_form(space, h, vp) with each entry (x, y) divided by
    sqrt(mu(x) mu(y)), read-only: dense up to DENSE_EIG_SIZE points, CSR
    with sorted indices above. Memoised on first use: on the Viewpoint, so
    it goes with the kernel, or on the space per lp scale float(h), so
    with_measure starts afresh."""
    if vp is not None and space is not vp.space:
        raise ValueError("the viewpoint lives on another space")
    Q = vp._form if vp is not None else space._forms.get(float(h))
    if Q is None:
        Q = l2_gradient_form(space, h, vp).tocsr()
        Q.sort_indices()
        root = np.sqrt(space.measure)
        rows = np.repeat(np.arange(space.n), np.diff(Q.indptr))
        Q.data = Q.data * (1.0 / (root[rows] * root[Q.indices]))
        arrays = Q.indptr, Q.indices, Q.data
        if space.n <= DENSE_EIG_SIZE:
            # assigned, not summed as by toarray: a stored -0.0 stays -0.0
            Q = np.zeros((space.n, space.n))
            Q[rows, arrays[1]] = arrays[2]
            arrays = Q,
        for arr in arrays:
            arr.flags.writeable = False
        if vp is not None:
            vp._form = Q
        else:
            space._forms[float(h)] = Q
    return Q


def _two_step(vp):
    """The two-step density D diag(mu) D of the viewpoint, CSR with
    read-only arrays, built on first use and kept on the Viewpoint."""
    if vp._two_step is None:
        dens2 = csr_matrix(vp.dens @ diags(vp.space.measure) @ vp.dens)
        for arr in (dens2.data, dens2.indices, dens2.indptr):
            arr.flags.writeable = False
        vp._two_step = dens2
    return vp._two_step


def _block(Q, idx):
    """The block of a _form on the sorted indices idx, in one gather."""
    return Q[idx][:, idx] if issparse(Q) else Q[idx[:, None], idx]
