"""Large-scale equivalence: certification, discretization, pullbacks,
thick supports, rough volume preservation, and scale reduction.

A certificate for a map F between two finite metric measure spaces
records, over the sampled pair set:

* monotone control staircases rho_minus / rho_plus (min and max image
  distance as a function of source distance) — the finite-sample shadow
  of the usual coarse-embedding moduli;
* the onto constant C (how far any target point sits from the image);
* two-sided ball-volume ratios C_r on a grid of radii.

Everything here is exact arithmetic over the sample; the certificate is
explicitly flagged finite-sample, because growth of rho_minus over the
observed range is all a finite scan can certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from coarsecalc.calculus import grad_sup, lp_norm
from coarsecalc.profiles import (Backend, _thin, isoperimetric_profile,
                                 profile_in_balls)
from coarsecalc.space import (MetricMeasureSpace, Subset, doubling_profile,
                              geodesicity_report, thicken)

PAIR_SCAN_LIMIT = 4096
MAX_BINS = 64

# best-constant search grid for distributional inequalities: quarter
# powers of two, C >= 1
CONSTANT_GRID = [2.0 ** (k / 4.0) for k in range(0, 41)]


@dataclass(frozen=True)
class CoarseViolation:
    axiom: str
    detail: str
    witness: tuple

    def __str__(self):
        return f"axiom ({self.axiom}) fails: {self.detail} at {self.witness}"


@dataclass
class LseCertificate:
    """Sampled large-scale-equivalence certificate for a point map.

    ``violation`` is None when nothing failed; the staircases are kept
    either way so a failure report still shows what was measured.
    """

    F: np.ndarray
    bin_edges: np.ndarray       # right edges of source-distance bins
    rho_minus: np.ndarray
    rho_plus: np.ndarray
    onto_C: float
    C_r: dict
    finite_sample: bool = True
    violation: Optional[CoarseViolation] = None

    @property
    def ok(self):
        return self.violation is None

    def rho_plus_at(self, t):
        """Valid upper modulus at source distance t (clamped outside the
        sampled range)."""
        k = int(np.searchsorted(self.bin_edges, t, side="left"))
        return float(self.rho_plus[min(k, self.rho_plus.size - 1)])

    def rho_minus_at(self, t):
        k = int(np.searchsorted(self.bin_edges, t, side="right")) - 1
        return float(self.rho_minus[max(k, 0)])

    def to_dict(self):
        out = {
            "bins": self.bin_edges.tolist(),
            "rho_minus": self.rho_minus.tolist(),
            "rho_plus": self.rho_plus.tolist(),
            "onto_C": self.onto_C,
            "C_r": {str(r): c for r, c in self.C_r.items()},
            "finite_sample": self.finite_sample,
            "ok": self.ok,
        }
        if self.violation is not None:
            out["violation"] = {"axiom": self.violation.axiom,
                                "detail": self.violation.detail,
                                "witness": list(self.violation.witness)}
        return out


def certify_lse(space, target, F, r_grid=()) -> LseCertificate:
    """Scan all pairs and certify the control moduli of F.

    The staircases are the tightest monotone envelopes consistent with
    every sampled pair: rho_plus(t) = max image distance over pairs at
    source distance <= t, rho_minus(t) = min image distance over pairs at
    source distance >= t. A flat rho_minus across a growing source range
    is the concrete finite-sample failure of properness and is returned
    as a violation with the witnessing pair.
    """
    F = np.asarray(F, dtype=np.int64)
    if F.shape != (space.n,):
        raise ValueError(f"map must assign every one of the {space.n} "
                         "source points")
    if F.min() < 0 or F.max() >= target.n:
        bad = int(np.argmax((F < 0) | (F >= target.n)))
        raise ValueError(f"map sends point {bad} to {F[bad]}, outside the "
                         f"target's {target.n} points")
    if space.n > PAIR_SCAN_LIMIT:
        raise ValueError(f"all-pairs certification capped at "
                         f"{PAIR_SCAN_LIMIT} points; sample the space first")

    # the pairs x < y in row order, by blocks that fit both spaces' rows
    parts = []
    step = min(space.block_rows(), target.block_rows())
    for xb in np.split(np.arange(space.n), np.arange(step, space.n, step)):
        D, T = space.dist_rows(xb), target.dist_rows(F[xb])
        i, y = np.nonzero(xb[:, None] < np.arange(space.n))
        parts.append((D[i, y], T[i, F[y]]))
    src_d, img_d = map(np.concatenate, zip(*parts))

    if src_d.size == 0:
        edges = np.array([0.0])
        rho_minus = rho_plus = np.array([0.0])
    else:
        uniq = np.unique(src_d)
        if uniq.size <= MAX_BINS:
            edges = uniq
        else:
            qs = np.quantile(src_d, np.linspace(0.0, 1.0, MAX_BINS + 1)[1:])
            edges = np.unique(qs)
            edges[-1] = src_d.max()
        which = np.searchsorted(edges, src_d, side="left")
        which = np.minimum(which, edges.size - 1)
        lo = np.full(edges.size, np.inf)
        hi = np.full(edges.size, -np.inf)
        np.minimum.at(lo, which, img_d)
        np.maximum.at(hi, which, img_d)
        # monotone envelopes; empty bins inherit their neighbours
        rho_plus = np.maximum.accumulate(np.where(np.isfinite(hi), hi, 0.0))
        rho_minus = np.minimum.accumulate(
            np.where(np.isfinite(lo), lo, np.inf)[::-1])[::-1]
        rho_minus = np.where(np.isfinite(rho_minus), rho_minus, 0.0)

    onto_C = float(target.min_dist_to(np.unique(F)).max())

    C_r = {}
    for r in r_grid:
        vs = space.volumes(r)
        vt = target.volumes(r)[F]
        C_r[float(r)] = float(max((vs / vt).max(), (vt / vs).max()))

    violation = None
    if edges.size > 1 and rho_minus[-1] <= rho_minus[0]:
        far = int(np.argmax(src_d))
        # the pairs' (x, y) index arrays, in the same row order
        x, y = (int(v[far]) for v in np.triu_indices(space.n, 1))
        violation = CoarseViolation(
            "a", f"image distances stay <= {rho_minus[-1]:g} while source "
                 f"distances reach {src_d[far]:g}", (x, y))
    return LseCertificate(F, edges, rho_minus, rho_plus, onto_C, C_r,
                          True, violation)


# ----------------------------------------------------------------------
# discretization


@dataclass
class Discretization:
    graph: MetricMeasureSpace
    centers: np.ndarray          # original indices of the net points
    assign: np.ndarray           # point -> net vertex index
    certificate: LseCertificate


def discretize(space, h) -> Discretization:
    """Greedy maximal h-separated net with Voronoi measures.

    Net points are chosen in index order (deterministic); a point joins
    the net iff its distance to the current net exceeds h. Vertices are
    weighted by the measure of their Voronoi cell (ties to the lower
    center index), so the graph carries exactly the total measure.
    Centers at distance <= 2h are joined; the metric is the unweighted
    path metric. The internal certificate against the source must pass.
    """
    if h <= 0:
        raise ValueError(f"scale must be > 0, got {h}")
    # the next centre is the first point no centre covers yet, so one
    # distance row per centre gives the net, the cells and the edges
    centers, rows = [], []
    covered = np.zeros(space.n, dtype=bool)
    while not covered.all():
        centers.append(int(np.argmin(covered)))
        rows.append(space.dist_row(centers[-1]))
        covered |= rows[-1] <= h
    centers = np.array(centers, dtype=np.int64)
    rows = np.vstack(rows)
    assign = np.argmin(rows, axis=0)
    vmeas = np.zeros(centers.size)
    np.add.at(vmeas, assign, space.measure)
    i, j = np.nonzero(np.triu(rows[:, centers] <= 2.0 * h, 1))
    edges = np.column_stack([i, j, np.ones(i.size)])
    try:
        graph = MetricMeasureSpace.from_graph(
            centers.size, edges, vmeas, name=f"{space.name}|net_h={h:g}",
            meta={"h": float(h), "source": space.name})
    except ValueError as exc:
        raise ValueError(f"discretization at h={h:g} is disconnected "
                         f"({exc}); increase h") from None
    cert = certify_lse(space, graph, assign, r_grid=(2.0 * h, 4.0 * h))
    if not cert.ok and cert.violation.axiom == "a" and \
            cert.bin_edges[-1] <= 2.0 * h:
        # every pair lies within 2h, as two points of one cell may, so a
        # net is free to collapse them all (a one-point net does)
        cert.violation = None
    if not cert.ok:
        raise ArithmeticError(f"internal certificate failed: "
                              f"{cert.violation}")
    return Discretization(graph, centers, assign, cert)


# ----------------------------------------------------------------------
# pullback and the transfer lemmas


def _levels(vals, cap):
    """The sampled thresholds of a field: its distinct positive values,
    thinned evenly to cap."""
    return _thin(np.unique(vals[vals > 0]), cap)


def _level_masses(mu, g, levels, above=np.greater):
    """mu({g > t}) for each level t, or mu({g >= t}) with above =
    np.greater_equal: one masked sum per level."""
    return np.array([mu[above(g, t)].sum() for t in levels])


def pullback(space, f_target, F, h):
    """psi_h(x) = sup over the closed ball B(x,h) of |f(F(y))|."""
    g = np.abs(np.asarray(f_target, dtype=float)[np.asarray(F, np.int64)])
    indptr, indices, _ = space.neighbourhoods(h)
    return np.maximum.reduceat(g[indices], indptr[:-1])


@dataclass
class TransferReport:
    status: str                   # "ok" | "unbounded"
    c_l1: float
    C_l2: float
    C_l3: float
    h_prime: float
    u: float
    detail: dict = dataclass_field(default_factory=dict)


def pullback_transfer_report(space, target, F, cert, f_target, h,
                             p=2, q=2) -> TransferReport:
    """Measured constants for the three pullback comparison lemmas.

    L1 (norm floor): mu({psi^p >= t}) >= c mu'({|f|^p >= t}) at sampled
    thresholds. L2 (gradient ceiling): mu({(grad_h psi)^q > t}) <=
    C mu'({(grad_h' f)^q > t/2}) with h' = 2 rho_plus(h). L3 (support):
    mu(supp psi) <= C mu'(thickening of supp f by rho_plus(h)).
    """
    F = np.asarray(F, dtype=np.int64)
    f_target = np.asarray(f_target, dtype=float)
    psi = pullback(space, f_target, F, h)
    mu, mu_t = space.measure, target.measure

    # every threshold is a value of |f|^p, so no denominator is 0
    rhs_vals = np.abs(f_target) ** p
    ts = _levels(rhs_vals, 32)
    c_l1 = (_level_masses(mu, psi ** p, ts, np.greater_equal)
            / _level_masses(mu_t, rhs_vals, ts, np.greater_equal)).min() \
        if ts.size else 1.0   # f vanished; nothing to bound

    h_prime = 2.0 * cert.rho_plus_at(h)
    status = "ok"
    detail = {}
    g_psi = grad_sup(space, psi, h) ** q
    if h_prime > 0:
        g_f = grad_sup(target, f_target, h_prime) ** q
    else:
        g_f = np.zeros(target.n)
    ts = _levels(g_psi, 32)
    lhs = _level_masses(mu, g_psi, ts)
    rhs = _level_masses(mu_t, g_f, ts / 2.0)
    seen = lhs > 0
    if np.any(seen & (rhs == 0)):
        status = "unbounded"
        detail["l2_threshold"] = float(ts[np.argmax(seen & (rhs == 0))])
        C_l2 = np.inf
    else:
        C_l2 = (lhs[seen] / rhs[seen]).max(initial=1.0)

    u = cert.rho_plus_at(h)
    supp_t = np.flatnonzero(f_target != 0)
    if supp_t.size == 0:
        C_l3 = 0.0
    else:
        thick = thicken(target, target.subset(supp_t), u)
        num = mu[psi != 0].sum()
        C_l3 = float(num / thick.measure)
    return TransferReport(status, float(c_l1), float(C_l2), float(C_l3),
                          float(h_prime), float(u), detail)


# ----------------------------------------------------------------------
# thick supports


@dataclass
class ThickeningResult:
    field: np.ndarray
    thick_support: Subset
    status: str                   # "thinned" | "whole_space" | "fallback"
    measure_inflation: float
    gradient_ratio: Optional[float]
    detail: dict = dataclass_field(default_factory=dict)


def thicken_support(space, f, h, p=2) -> ThickeningResult:
    """Restrict f to points deeper than h/2 inside its support.

    The restriction f~ = f on {d(x, supp(f)^c) > h/2} keeps
    ||f~||_p^p >= ||f||_p^p - ||grad_h f||_p^p and satisfies
    |grad_{h/2} f~| <= |grad_h f| on the kept set (and <= twice that
    globally); both are asserted. The returned thick support is the
    (h/2)-thickening of the kept set: a union of closed (h/2)-balls
    containing supp(f~) by construction. When the gradient eats half the
    norm (||grad_h f||_p >= ||f||_p / 2) the bound is vacuous and the
    indicator of a ball of measure closest to 1 is returned instead,
    flagged "fallback".
    """
    f = np.asarray(f, dtype=float)
    if not np.any(f):
        raise ValueError("field must be nonzero")
    if h <= 0:
        raise ValueError(f"scale must be > 0, got {h}")
    gf = grad_sup(space, f, h)
    norm_f = lp_norm(space, f, p)
    norm_g = lp_norm(space, gf, p)
    if norm_g >= 0.5 * norm_f:
        return _fallback_ball(space, h)

    keep = space.min_dist_to(np.flatnonzero(f == 0)) > h / 2.0
    f_thin = np.where(keep, f, 0.0)
    kept_idx = np.flatnonzero(keep)
    if kept_idx.size == 0:
        # cannot happen given the norm guarantee below, but fail loudly
        raise ArithmeticError("thinning removed the whole support despite "
                              "a small gradient")
    thick = thicken(space, space.subset(kept_idx), h / 2.0)

    lhs = lp_norm(space, f_thin, p) ** p
    rhs = norm_f ** p - norm_g ** p
    if lhs < rhs - 1e-12 * max(1.0, abs(rhs)):
        raise ArithmeticError(f"norm guarantee broke: {lhs!r} < {rhs!r}")
    g_thin = grad_sup(space, f_thin, h / 2.0)
    slack = 1e-12 * max(1.0, float(gf.max()))
    if np.any(g_thin[keep] > gf[keep] + slack):
        x = int(np.flatnonzero(keep)[np.argmax(g_thin[keep] - gf[keep])])
        raise ArithmeticError(f"gradient domination broke at point {x}")
    if np.any(g_thin > 2.0 * gf + slack):
        x = int(np.argmax(g_thin - 2.0 * gf))
        raise ArithmeticError(f"global factor-2 domination broke at {x}")
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(gf > 0, g_thin / gf, 0.0)
    supp_measure = float(space.measure[f_thin != 0].sum())
    status = "whole_space" if kept_idx.size == space.n else "thinned"
    return ThickeningResult(
        f_thin, thick, status,
        float(thick.measure / supp_measure),
        float(ratios.max()),
        {"kept_points": int(kept_idx.size),
         "norm_p": p,
         "norm_floor": rhs,
         "norm_kept": lhs})


def _fallback_ball(space, h):
    # the nearest-first ball of mass closest to 1; the first centre wins
    best = None
    for xb, D in space.dist_blocks():
        order = np.argsort(D, axis=1, kind="stable")
        csum = np.cumsum(space.measure[order], axis=1)
        err = np.abs(csum - 1.0)
        i = int(np.argmin(err.min(axis=1)))
        k = int(np.argmin(err[i]))
        if best is None or err[i, k] < best[0]:
            best = (err[i, k], int(xb[i]), order[i, :k + 1], csum[i, k])
    _, x, idx, mass = best
    ball = space.subset(idx)
    field = ball.mask().astype(float)
    thick = thicken(space, ball, h / 2.0)
    return ThickeningResult(field, thick, "fallback",
                            float(thick.measure / ball.measure), None,
                            {"center": int(x), "ball_measure": float(mass)})


# ----------------------------------------------------------------------
# rough volume preservation


@dataclass
class RoughVolumeReport:
    status: str        # "clause1" | "clause2" | "skipped_no_containment"
    ratio: Optional[float]
    bound: Optional[float]
    holds: Optional[bool]
    u: float


def _doubling_bound(space, u):
    cs = doubling_profile(space, [u, 2.0 * u, 4.0 * u])
    return float(np.prod([c.constant for c in cs]))


def rough_volume_check(space, target, F, A, A_t, u) -> RoughVolumeReport:
    """Two-sided rough volume preservation under containment hypotheses.

    Clause 1: if the u-thickening of F^{-1}(A') sits inside A, then
    mu'(A') <= C mu(A). Clause 2 (mirror): if the u-thickening of F(A)
    sits inside A', then mu(A) <= C mu'(A'). C is the covering-argument
    product of doubling constants at scales u, 2u, 4u on the side whose
    measure is being bounded. Neither containment holding is a
    structured skip, not an error.
    """
    F = np.asarray(F, dtype=np.int64)
    pre = np.flatnonzero(np.isin(F, A_t.indices))
    if pre.size == 0 or \
            np.isin(thicken(space, space.subset(pre), u).indices,
                    A.indices).all():
        ratio = A_t.measure / A.measure if A.measure > 0 else (
            0.0 if A_t.measure == 0 else np.inf)
        bound = _doubling_bound(target, u)
        return RoughVolumeReport("clause1", float(ratio), bound,
                                 bool(ratio <= bound), float(u))
    img = np.unique(F[A.indices])
    if np.isin(thicken(target, target.subset(img), u).indices,
               A_t.indices).all():
        ratio = A.measure / A_t.measure if A_t.measure > 0 else np.inf
        bound = _doubling_bound(space, u)
        return RoughVolumeReport("clause2", float(ratio), bound,
                                 bool(ratio <= bound), float(u))
    return RoughVolumeReport("skipped_no_containment", None, None, None,
                             float(u))


# ----------------------------------------------------------------------
# scale reduction


@dataclass
class ScaleReductionReport:
    status: str        # "ok" | "skipped_not_geodesic" | "no_constant"
    best_C: Optional[float]
    per_field: list
    profile_ratio: Optional[tuple]
    geodesicity: dict


def scale_reduction_check(space, b, h, fields,
                          profile_radii=()) -> ScaleReductionReport:
    """Distributional comparison of gradients at scale h versus scale 2b.

    Requires the space to be b-geodesic (chaining through intermediate
    points is what shrinks the scale); quasi-geodesic or disconnected
    spaces get a structured skip. For each field the smallest C on a
    quarter-power grid with mu({grad_h f > t}) <= C mu({grad_2b f > t/C})
    across all sampled thresholds is reported; optionally the ball
    profile at the two scales is compared as a cross-check.
    """
    if h < 2.0 * b:
        raise ValueError(f"need h >= 2b, got h={h:g}, b={b:g}")
    geo = geodesicity_report(space, [b])[0]
    if geo["status"] != "b-geodesic":
        return ScaleReductionReport("skipped_not_geodesic", None, [],
                                    None, geo)
    mu = space.measure
    per_field = []
    for f in fields:
        f = np.asarray(f, dtype=float)
        g_h = grad_sup(space, f, h)
        g_2b = grad_sup(space, f, 2.0 * b)
        ts = _levels(g_h, 48)
        lhs = _level_masses(mu, g_h, ts)
        # the first constant that holds at every threshold
        per_field.append(next((C for C in CONSTANT_GRID if not np.any(
            lhs > C * _level_masses(mu, g_2b, ts / C))), None))
    ratio = None
    if profile_radii:
        ph = profile_in_balls(space, Backend.sup(h), 2,
                              list(profile_radii))
        p2b = profile_in_balls(space, Backend.sup(2.0 * b), 2,
                               list(profile_radii))
        keep = np.isfinite(ph.values) & np.isfinite(p2b.values) & \
            (p2b.values > 0)
        if keep.any():
            r = ph.values[keep] / p2b.values[keep]
            ratio = (float(r.min()), float(r.max()))
    if None in per_field:
        return ScaleReductionReport("no_constant", None, per_field, ratio,
                                    geo)
    return ScaleReductionReport("ok", float(max(per_field, default=1.0)),
                                per_field, ratio, geo)


# ----------------------------------------------------------------------
# profile transfer band


@dataclass
class TransferBandReport:
    within_band: bool
    K: int
    K_prime: float
    volumes: np.ndarray
    ratios: np.ndarray
    scales: tuple
    transfers: list
    in_range: np.ndarray


def profile_transfer_band(space, target, F, cert, p, h,
                          v_grid=None) -> TransferBandReport:
    """Check that candidate profiles of a certified pair track each other.

    With K = ceil(max C_r) from the certificate and h' = 2 rho_plus(h),
    compares j_{X,p} at volume v with j_{X',p} at volume K v; the band
    half-width K' = max(2 C_L2 / c_L1, 1) comes from measured pullback
    constants on the target profile's witness fields.

    The band is only asserted where both arguments sit in the profile's
    meaningful range (volume at most half the total measure): past that
    point the maximizers are complements with vanishing boundary and the
    curve just repeats the largest proper candidate, so ratios there say
    nothing about the equivalence. Out-of-range ratios are still reported;
    ``in_range`` marks which entries back ``within_band``, and a report
    whose mask is all False asserts nothing.

    Profiles are computed with the averaged-gradient flavor, which has
    closed evaluation at p in {1, 2}; at p = 2 the sup flavor would
    bracket every candidate subset by an ascent of up to DUAL_ITERS
    eigensolves in place of one.
    """
    if not cert.C_r:
        raise ValueError("certificate carries no volume constants; rerun "
                         "certify_lse with a radius grid")
    if not cert.ok:
        raise ValueError(f"cannot transfer along a violated certificate: "
                         f"{cert.violation}")

    K = int(math.ceil(max(cert.C_r.values())))
    h_prime = 2.0 * cert.rho_plus_at(h)
    if v_grid is None:
        lo = float(space.measure.min())
        v_grid = np.geomspace(max(lo, space.total_measure / 64.0),
                              space.total_measure / 2.0, 6)
    v_grid = np.asarray(v_grid, dtype=float)
    j_src = isoperimetric_profile(space, Backend.lp(h), p, v_grid)
    j_tgt = isoperimetric_profile(target, Backend.lp(h_prime), p,
                                  K * v_grid)

    transfers = []
    c1, c2 = np.inf, 1.0
    for w in j_tgt.witnesses:
        if w is None:
            continue
        f = np.zeros(target.n)
        f[w["indices"]] = 1.0
        rep = pullback_transfer_report(space, target, F, cert, f, h, p=p)
        transfers.append(rep)
        c1 = min(c1, rep.c_l1)
        c2 = max(c2, rep.C_l2)
    K_prime = max(1.0, 2.0 * c2 / c1) if np.isfinite(c1) and c1 > 0 \
        else np.inf

    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = j_src.values / j_tgt.values
    in_range = ((v_grid <= 0.5 * space.total_measure * (1 + 1e-12))
                & (K * v_grid <= 0.5 * target.total_measure * (1 + 1e-12)))
    keep = np.isfinite(ratios) & (ratios > 0) & in_range
    within = bool(np.all(ratios[keep] <= K_prime) and
                  np.all(ratios[keep] >= 1.0 / K_prime))
    return TransferBandReport(within, K, float(K_prime), v_grid, ratios,
                              (float(h), float(h_prime)), transfers,
                              in_range)
