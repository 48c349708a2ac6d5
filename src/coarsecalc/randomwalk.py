"""Kernel iteration, return-probability decay, the gamma transform, and
spectral radii.

Walk builders
-------------
``lazy_srw(space, h)`` is the uniform closed-ball walk made stochastic by a
lazy diagonal: every point within h receives the same density floor
c0 = 1/max_x V(x,h) and the diagonal absorbs each row's remainder. It is a
certified symmetric viewpoint (A = 1, c = c0).

``pure_srw(space, ambient_degree=None, step=1.0)`` is the plain nearest-
neighbour walk: probability 1/ambient_degree to each neighbour at distance
<= step. Rows at the boundary are substochastic (the walk leaks where the
ambient graph continues but the finite sample stops); that is exactly the
Dirichlet compression of the infinite-space walk, which is what the
spectral-radius diagnostics want. It is *not* a viewpoint (no diagonal
mass, no density floor), so it carries certificate=None and only the
spectral functions accept it.

On-diagonal decay uses the symmetric-kernel identity
p^{2n}_x(x) = sum_y (p^n_x(y))^2 mu(y), cross-checked against a direct
2n-step iteration at the smallest grid point. Spectral radii read
S = diag(m) - Q/2 from the gradient form Q that exact J_2 reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_matrix, diags

from coarsecalc.calculus import (
    _block, _form, _require_symmetric, lp_norm, symmetric_eig)
from coarsecalc.space import _as_indices
from coarsecalc.viewpoint import Certificate, Viewpoint, apply as vp_apply

MASS_TOL = 1e-10
ROUNDTRIP_RTOL = 1e-8
QUAD_RTOL = 1e-9

# c grid for decay domination: 2^(k/4), k = -48..24
C_GRID = [2.0 ** (k / 4.0) for k in range(-48, 25)]


def lazy_srw(space, h) -> Viewpoint:
    """Uniform-floor lazy walk at scale h; a certified symmetric viewpoint."""
    if h <= 0:
        raise ValueError(f"scale must be > 0, got {h}")
    mu = space.measure
    indptr, indices, _ = space.neighbourhoods(h)
    vols = space.volumes(h)
    c0 = 1.0 / vols.max()
    data = np.full(indices.size, c0)
    # one diagonal entry per row, met in row order
    data[np.repeat(np.arange(space.n), np.diff(indptr)) == indices] = \
        c0 + (1.0 - c0 * vols) / mu
    dens = csr_matrix((data, indices, indptr), shape=(space.n, space.n))
    return Viewpoint(space, h, dens, Certificate(1.0, c0), kind="lazy_srw")


def pure_srw(space, ambient_degree=None, step=1.0) -> Viewpoint:
    """Nearest-neighbour walk, substochastic at the sample boundary.

    ``ambient_degree`` defaults to the largest neighbour count in the
    sample (correct for grid boxes and group-ball truncations, whose
    interior realizes the ambient degree).
    """
    indptr, indices, _ = space.neighbourhoods(step)
    rows = np.repeat(np.arange(space.n), np.diff(indptr))
    off = rows != indices            # B(x, step) minus x
    degree = np.bincount(rows[off], minlength=space.n)
    if ambient_degree is None:
        ambient_degree = int(degree.max())
    if ambient_degree <= 0:
        raise ValueError("ambient degree must be positive")
    cols = indices[off]
    dens = csr_matrix((1.0 / (ambient_degree * space.measure[cols]), cols,
                       np.concatenate([[0], np.cumsum(degree)])),
                      shape=(space.n, space.n))
    return Viewpoint(space, float(step), dens, None, kind="pure_srw")


# ----------------------------------------------------------------------
# iteration and decay


def iterate(vp, x0, n_max):
    """Densities p^n_{x0} for n = 0..n_max as an (n_max+1, N) array.

    Each slice must integrate to 1 against mu (checked to 1e-10); a
    substochastic kernel is rejected here by that check.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    space = vp.space
    mu = space.measure
    out = np.zeros((n_max + 1, space.n))
    out[0, x0] = 1.0 / mu[x0]
    densT = vp.dens.T.tocsr()
    for n in range(1, n_max + 1):
        out[n] = densT @ (out[n - 1] * mu)
        mass = float(out[n] @ mu)
        if abs(mass - 1.0) > MASS_TOL:
            raise ArithmeticError(f"mass drifted to {mass!r} at step {n}; "
                                  "kernel is not stochastic")
    return out


@dataclass(frozen=True)
class DecayCurve:
    """Even-step return densities u(n) = p^{2n}_x(x) on a step grid."""

    times: np.ndarray
    values: np.ndarray
    x: int
    kernel: str

    def at(self, n):
        i = np.searchsorted(self.times, n)
        if i == self.times.size or self.times[i] != n:
            raise KeyError(f"step {n} not tabulated")
        return float(self.values[i])


def on_diagonal(vp, x, n_grid) -> DecayCurve:
    """p^{2n}_x(x) over the grid via the squared-density identity.

    Monotone nonincreasing and strictly positive for a symmetric stochastic
    kernel; both are enforced. The smallest grid point is cross-checked
    against a direct 2n-step iteration.
    """
    _require_symmetric(vp, "on_diagonal")
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or n_grid[0] < 0:
        raise ValueError("need a nonempty grid of steps >= 0")
    mu = vp.space.measure
    n0 = n_grid[0]
    dens = iterate(vp, x, max(n_grid[-1], 2 * n0))
    vals = np.array([float(np.sum(dens[n] ** 2 * mu)) for n in n_grid])
    if np.any(vals <= 0):
        raise ArithmeticError("return density vanished; kernel degenerate")
    if np.any(np.diff(vals) > 1e-12 * vals[:-1]):
        k = int(np.argmax(np.diff(vals) > 1e-12 * vals[:-1]))
        raise ArithmeticError(f"even-step decay not monotone at n={n_grid[k]}")
    # cross-check at n0 against the walk's own return density at 2 n0
    direct = dens[2 * n0, x]
    if abs(direct - vals[0]) > 1e-10 * max(direct, vals[0], 1e-300):
        raise ArithmeticError(
            f"squared-density identity broke at n={n0}: {vals[0]!r} vs "
            f"direct {direct!r}")
    return DecayCurve(np.array(n_grid, dtype=float), vals, int(x), vp.kind)


# ----------------------------------------------------------------------
# gamma transform


@dataclass(frozen=True)
class GammaTransform:
    """Tabulated decay rate gamma with t = integral_{v_min}^{1/gamma(t)}
    phi(v)^2 dv/v."""

    t: np.ndarray
    gamma: np.ndarray
    v_min: float
    tail_estimate: float
    phi_kind: str

    def at(self, t):
        """Log-log interpolation between tabulated points."""
        t = np.asarray(t, dtype=float)
        lg = np.interp(np.log(t), np.log(self.t), np.log(self.gamma))
        out = np.exp(lg)
        return float(out) if out.ndim == 0 else out


# the linear-piece integrals sum 18 series terms below _SERIES_R (the
# rest is under 1e-17 relative there); the closed forms they switch to
# lose a few 1e-14 at _SERIES_R and less above it
_SERIES_R = 0.125
_SERIES_J = np.arange(18.0)


def _linear_piece(phi_p, rise, r):
    """integral over [p, p(1 + r)] of phi(v)^2 dv/v, phi rising linearly
    from phi_p by rise; arrays of pieces, summed.

    Substituting v = p(1 + r tau) gives r * int_0^1 (phi_p + rise tau)^2
    / (1 + r tau) dtau = phi_p^2 log1p(r) + 2 phi_p rise r I_1 + rise^2
    r I_2 with I_k = int_0^1 tau^k / (1 + r tau) dtau: a sum of
    nonnegative terms, so nothing cancels between them (the textbook
    a^2 log + 2ab dv + b^2 dv^2 / 2 does on steep pieces far from 0). Each
    r I_k is its series sum_j (-r)^(j+1) / (j + k + 1) while r is small
    and its closed form otherwise.
    """
    small = r < _SERIES_R
    rs, rl = r[small, None], r[~small]
    ri1, ri2 = np.empty_like(r), np.empty_like(r)
    alt = -((-rs) ** (_SERIES_J + 1.0))
    ri1[small] = np.sum(alt / (_SERIES_J + 2.0), axis=1)
    ri2[small] = np.sum(alt / (_SERIES_J + 3.0), axis=1)
    ri1[~small] = 1.0 - np.log1p(rl) / rl
    ri2[~small] = 0.5 - ri1[~small] / rl
    return float(np.sum(phi_p * phi_p * np.log1p(r)
                        + rise * (2.0 * phi_p * ri1 + rise * ri2)))


def _phi2_integral(phi):
    """(a, b) -> integral_a^b phi(v)^2 dv/v for 0 < a (0 when b <= a).

    Exact for ``power`` (c^2 (b^2e - a^2e) / 2e, written as c^2 b^2e
    (1 - (a/b)^2e) / 2e with expm1 and log1p, so short intervals keep
    their relative accuracy and no factor overflows alone) and for
    ``tabulated`` (one linear piece between consecutive knots in (a, b),
    clamped ends included, each by ``_linear_piece``); adaptive quad with
    relative error QUAD_RTOL for ``log_power``.
    """
    if phi.kind == "power":
        c2, e2 = phi.params["coef"] ** 2, 2.0 * phi.params["exponent"]

        def integral(a, b):
            lr = np.log1p((b - a) / a)
            if e2 == 0.0:
                return c2 * lr
            return c2 * b ** e2 * -np.expm1(-e2 * lr) / e2
    elif phi.kind == "tabulated":
        args, values = phi.params["args"], phi.params["values"]

        def integral(a, b):
            lo = np.searchsorted(args, a, side="right")
            hi = np.searchsorted(args, b, side="left")
            v = np.concatenate(([a], args[lo:hi], [b]))
            f = np.interp(v, args, values)
            return _linear_piece(f[:-1], np.diff(f), np.diff(v) / v[:-1])
    else:
        def integral(a, b):
            return quad(lambda v: phi(v) ** 2 / v, a, b, epsrel=QUAD_RTOL,
                        limit=400)[0]
    return lambda a, b: integral(a, b) if a < b else 0.0


def gamma_transform(phi, t_grid, v_min=None) -> GammaTransform:
    """Invert t = F(M) = integral_{v_min}^{M} phi(v)^2 dv/v, gamma = 1/M.

    With no explicit cutoff the integrand must be integrable at 0: the
    estimated below-cutoff tail has to stay under 1e-6 of the smallest t,
    otherwise the call errors out demanding an explicit v_min. Each t is
    bracketed by lo < M <= hi with F(hi) >= t, then solved by Newton's
    method in s = log M from hi. dF/ds = phi(e^s)^2 is exact and
    nondecreasing (phi is), so s -> F(e^s) is convex and Newton from the
    right of the root decreases monotonically onto it inside [lo, hi];
    phi(hi) > 0 there since F(hi) >= t > 0. So M stays right of the root,
    F(M) >= t up to integration error, and gamma errs low. ``power`` and
    ``tabulated`` rates are integrated in closed form; only ``log_power``,
    which has no elementary antiderivative, uses adaptive quadrature with
    relative error 1e-9. The round trip integral reproduces each t to 1e-8
    relative.
    """
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size == 0 or t_grid[0] <= 0:
        raise ValueError("t grid must be positive")
    integral = _phi2_integral(phi)

    auto = v_min is None
    if auto:
        v_min = 1e-12
    v_min = float(v_min)
    if v_min <= 0:
        raise ValueError("v_min must be > 0")
    # estimate the contribution below the cutoff by geometric extrapolation
    pieces = [integral(v_min / 2.0 ** (k + 1), v_min / 2.0 ** k)
              for k in range(8)]
    tail = sum(pieces)
    if pieces[0] > 0 and pieces[-1] > 0:
        ratio = pieces[-1] / pieces[-2] if pieces[-2] > 0 else 1.0
        if ratio < 0.999:
            tail += pieces[-1] * ratio / (1.0 - ratio)
        else:
            tail = np.inf
    if auto and tail > 1e-6 * t_grid[0]:
        raise ValueError(
            f"phi^2(v)/v is not integrable near 0 (tail estimate {tail:g}); "
            "pass an explicit v_min cutoff")

    # March through the sorted t grid keeping a running lower bracket
    # (M_base, F_base) with F_base = integral from v_min to M_base, so each
    # step only integrates a short segment.
    gammas = np.empty(t_grid.size)
    m_base, f_base = v_min, 0.0
    for i, t in enumerate(t_grid):
        lo, f_lo = m_base, f_base
        hi = max(2.0 * lo, 2.0 * v_min)
        f_hi = f_lo + integral(lo, hi)
        while f_hi < t:
            lo, f_lo = hi, f_hi
            hi *= 4.0
            if hi > 1e280:
                raise ValueError(f"t={t:g} unreachable: phi^2/v integral "
                                 "saturates below it")
            f_hi = f_lo + integral(lo, hi)
        for _ in range(200):
            nxt = hi * np.exp(-(f_hi - t) / phi(hi) ** 2)
            if hi / nxt < 1.0 + 1e-12:
                break
            f_hi -= integral(nxt, hi)
            hi = nxt
        M = nxt     # a last step under 1e-12 needs no segment integral
        got = integral(v_min, M)
        if abs(got - t) > ROUNDTRIP_RTOL * t:
            raise ArithmeticError(f"gamma round-trip failed at t={t:g}: "
                                  f"integral {got!r}")
        gammas[i] = 1.0 / M
        m_base, f_base = lo, f_lo
    if np.any(np.diff(gammas) >= 0):
        raise ArithmeticError("gamma must be strictly decreasing")
    return GammaTransform(t_grid, gammas, v_min, float(tail), phi.kind)


# ----------------------------------------------------------------------
# decay vs profile


@dataclass
class DecayProfileReport:
    status: str                  # "ok" | "no_c_works" | "skipped_bounded_phi"
    best_c: Optional[float]
    slope_decay: Optional[float]
    slope_gamma: Optional[float]
    kept_n: np.ndarray
    decay: np.ndarray
    centers: list
    violating_n: Optional[int] = None
    meta: dict = dataclass_field(default_factory=dict)


def _diameter_estimate(space):
    d0 = space.dist_row(0)
    a = int(np.argmax(np.where(np.isfinite(d0), d0, -1.0)))
    da = space.dist_row(a)
    return float(np.max(da[np.isfinite(da)]))


def _fit_top_decade(ns, vals):
    hi = ns[-1]
    keep = ns >= hi / 10.0
    if keep.sum() < 2:
        keep = np.ones_like(ns, dtype=bool)
    return float(np.polyfit(np.log(ns[keep]), np.log(vals[keep]), 1)[0])


def decay_vs_profile(space, vp, phi, n_grid, centers=None) -> DecayProfileReport:
    """Compare measured return decay against the gamma transform of phi.

    Keeps the diffusive window n <= (L/4)^2 (L = grid side when the space
    carries grid metadata, else the diameter) before boundary effects bend
    the curve, fits log-log slopes over the top decade of the kept range,
    and searches the largest c in a quarter-step geometric grid with
    sup_x p^{2n}_x(x) <= gamma(c n) at every kept n.
    """
    if not phi.unbounded:
        return DecayProfileReport("skipped_bounded_phi", None, None, None,
                                  np.array([]), np.array([]), [],
                                  meta={"reason": "bounded rate function "
                                                  "cannot control decay"})
    if centers is None:
        if space.n > 512:
            raise ValueError("pass explicit centers for N > 512")
        centers = list(range(space.n))
    centers = [int(c) for c in centers]
    n_grid = np.array(sorted(int(n) for n in n_grid if n >= 1))
    if n_grid.size < 2:
        raise ValueError("need at least two steps >= 1 in the grid")
    L = space.meta.get("L") or _diameter_estimate(space)
    n_cap = max(4.0, (L / 4.0) ** 2)
    kept = n_grid[n_grid <= n_cap]
    if kept.size < 2:
        kept = n_grid
    curves = [on_diagonal(vp, x, kept) for x in centers]
    u = np.max(np.vstack([c.values for c in curves]), axis=0)

    t_lo = C_GRID[0] * kept[0]
    t_hi = C_GRID[-1] * kept[-1]
    gt = gamma_transform(phi, np.geomspace(t_lo, t_hi, 160),
                         v_min=1e-3 / space.total_measure)
    best_c, viol = None, None
    for c in C_GRID:
        bound = gt.at(c * kept)
        if np.all(u <= bound * (1.0 + 1e-12)):
            best_c = c
        else:
            if best_c is None:
                viol = int(kept[int(np.argmax(u > bound))])
    slope_u = _fit_top_decade(kept.astype(float), u)
    if best_c is not None:
        slope_g = _fit_top_decade(kept.astype(float), gt.at(best_c * kept))
        return DecayProfileReport("ok", best_c, slope_u, slope_g, kept, u,
                                  centers, meta={"n_cap": n_cap})
    slope_g = _fit_top_decade(kept.astype(float), gt.at(kept))
    return DecayProfileReport("no_c_works", None, slope_u, slope_g, kept, u,
                              centers, violating_n=viol,
                              meta={"n_cap": n_cap})


# ----------------------------------------------------------------------
# Nash from measured decay


@dataclass(frozen=True)
class NashFromDecayEntry:
    index: int
    skipped: bool
    n_star: Optional[int]
    constant: Optional[float]
    margin: Optional[float]
    passed: Optional[bool]


@dataclass(frozen=True)
class NashFromDecayReport:
    passes: bool
    entries: list
    log_derivative_ratio: float


def nash_from_decay(space, vp, decay: DecayCurve, fields) -> NashFromDecayReport:
    """Per-field Nash-type bound induced by a measured decay curve.

    Each field is normalized to ||f||_1 = 1. At steps n where
    gamma(n) < ||f||_2^2 the bound

        ||f||_2^2 <= (n / log(||f||_2^2 / gamma(n)) + 1) (||f||_2^2 - ||Pf||_2^2)

    is evaluated and the tightest n is reported with the induced constant;
    fields with gamma(n) >= ||f||_2^2 everywhere are skipped (too spread
    out for the tabulated range). The decay curve's regularity is
    summarized by max_n gamma(n)/gamma(2n) over tabulated doublings.
    """
    _require_symmetric(vp, "nash_from_decay")
    mu = space.measure
    times = decay.times.astype(int)
    table = dict(zip(times.tolist(), decay.values.tolist()))
    ratio = 0.0
    for n in times:
        if 2 * n in table and table[2 * n] > 0:
            ratio = max(ratio, table[n] / table[2 * n])
    entries = []
    all_pass = True
    for i, f in enumerate(fields):
        f = np.asarray(f, dtype=float)
        n1 = lp_norm(space, f, 1)
        if n1 == 0:
            raise ValueError(f"field {i} is zero")
        f = f / n1
        u0 = lp_norm(space, f, 2) ** 2
        pf = vp_apply(vp, f)
        u1 = float(np.sum(pf * pf * mu))
        best = None
        for n, g in table.items():
            if n < 1 or g >= u0:
                continue
            c_n = n / np.log(u0 / g) + 1.0
            rhs = c_n * (u0 - u1)
            if best is None or rhs < best[1]:
                best = (n, rhs, c_n)
        if best is None:
            entries.append(NashFromDecayEntry(i, True, None, None, None,
                                              None))
            continue
        n_star, rhs, c_n = best
        ok = u0 <= rhs * (1.0 + 1e-9)
        all_pass = all_pass and ok
        entries.append(NashFromDecayEntry(i, False, int(n_star), float(c_n),
                                          float(rhs - u0), bool(ok)))
    return NashFromDecayReport(all_pass, entries, float(ratio))


# ----------------------------------------------------------------------
# spectral radius


def _radii(kernel, subsets):
    """Yield (rho_A, residual) per A in subsets (None: the whole space):
    the largest eigenvalue of S = diag(m) - Q/2 on A, with Q the kernel's
    mu-normalised form (calculus._form, the one exact J_2 reads) and
    m = dens @ mu. S is p(x, y) sqrt(mu(x) mu(y)) entrywise, up to
    rounding, so for a kernel with no negative density S >= 0 and its
    largest eigenvalue is its spectral radius (Perron-Frobenius); its
    absolute value is taken, as on a block with no edge rounding can
    leave it a hair below 0. Q is symmetric whatever the kernel, hence
    the checks."""
    _require_symmetric(kernel, "spectral radius")
    if (kernel.dens.data < 0).any():
        raise ValueError("spectral radius requires nonnegative densities; "
                         f"the smallest is {kernel.dens.data.min():g}")
    Q, m = _form(kernel.space, vp=kernel), kernel.dens @ kernel.space.measure
    for A in subsets:
        idx = None if A is None else _as_indices(kernel.space, A)
        if idx is not None and not idx.size:
            raise ValueError("subset must be nonempty")
        C, d = (Q, m) if idx is None else (_block(Q, idx), m[idx])
        S = (np.diag(d) if isinstance(C, np.ndarray) else diags(d)) - C / 2
        theta, _, residuals = symmetric_eig(S, "LA")
        yield abs(float(theta[0])), float(residuals[0])


def spectral_radius(kernel):
    """(rho, residual) of the self-adjoint operator S on L2(mu) (see
    _radii); residual = ||S v - theta v|| bounds the distance from rho to
    an eigenvalue of S. A full finite stochastic symmetric kernel has
    rho = 1 (constants are fixed); the informative quantity is the
    Dirichlet compression to a proper subset, see dirichlet_spectral_radius.
    """
    return next(_radii(kernel, [None]))


def dirichlet_spectral_radius(kernel, A):
    """(rho_A, residual): spectral radius of the kernel compressed to the
    nonempty subset A, read as space.subset reads indices. The finite
    proxy for an infinite space's spectral radius: rho_A increases along
    exhaustions and converges to it from below."""
    return next(_radii(kernel, [A]))


def exhaustion_radii(kernel, subsets):
    """rho_A along a family of subsets, in the given order, all read from
    the kernel's one form (its symmetry checked once for them all)."""
    return [rho for rho, _ in _radii(kernel, subsets)]
