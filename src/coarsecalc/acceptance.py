"""The package's acceptance suite: nine numbered end-to-end checks.

Each criterion function builds its own spaces and kernels, runs the
library against independently derived reference values, and returns a
CriterionResult with named sub-checks. The same functions back both the
test suite (one test per criterion) and ``coarsecalc accept``.

Reference values that matter are frozen here at full precision with the
derivation noted next to them; none of them is produced by the code
under test. Where a target constant turned out to be unreachable at the
stated size, the criterion pins the independently derived value instead
and carries the explanation in its ``discrepancy`` field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np
from numpy.random import default_rng
from scipy.linalg import eigvalsh_tridiagonal

from coarsecalc import calculus, coarse, profiles, randomwalk, viewpoint, zoo
from coarsecalc.profiles import Backend, RateFunction
from coarsecalc.space import boundary_measures

# ----------------------------------------------------------------------
# frozen reference values
#
# Radial reduction of the degree-4 tree ball: the nearest-neighbour walk
# compressed to the depth-n ball, projected on distance from the root,
# is the (n+1)-point birth-death chain whose symmetrized matrix is
# tridiagonal with couplings J_0 = 1/2, J_k = sqrt(3)/4. Its top
# eigenvalue equals the Dirichlet spectral radius of the full ball (the
# leading eigenvector is radial). Values below computed from that
# tridiagonal with LAPACK, independent of the library's eigensolver.
TREE_RADIAL_RHO = {
    6: 0.8113619196946872,
    7: 0.8221679378315968,
    8: 0.830014897578613,
    9: 0.8359050036212543,
    10: 0.8404454698082207,
    14: 0.8511675685724556,
    20: 0.8579338626959127,
}
# sqrt(3)/2: the infinite-tree spectral radius (limit of the above)
TREE_LIMIT_RHO = 0.8660254037844386
# intercept of the linear fit of rho(depth) against 1/(depth+2)^2 over
# depths 6..14 (Richardson extrapolation toward the limit)
TREE_RICHARDSON_INTERCEPT = 0.8642004113926238


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    runtime_s: float
    budget_s: Optional[float]
    checks: dict
    details: dict = dataclass_field(default_factory=dict)
    discrepancy: Optional[str] = None

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        budget = f" (budget {self.budget_s:.0f}s)" if self.budget_s else ""
        return (f"[{self.cid}] {mark} {self.title} "
                f"in {self.runtime_s:.1f}s{budget}")


def _mixed_spaces(count, seed, n_max=200):
    """A deterministic rotation of small spaces with a matching scale."""
    out = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            n = 20 + (i * 17) % (n_max - 20)
            out.append((zoo.random_geometric(n, seed=seed + i), 0.3))
        elif kind == 1:
            L = 3 + i % 6
            out.append((zoo.grid(2, L), 1.0 + (i % 2)))
        else:
            out.append((zoo.path(10 + 5 * (i % 20)), 1.0))
    return out


def _loglog_slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ys, float)), 1)[0])


# ----------------------------------------------------------------------
# criterion 1: discrete energy identities


def criterion_1():
    rng = default_rng(101)
    worst1 = worst2 = 0.0
    pairs = 0
    for space, h in _mixed_spaces(50, seed=900):
        vp = viewpoint.random_symmetric_viewpoint(space, h, rng)
        for _ in range(20):
            f = rng.standard_normal(space.n)
            dirichlet, grad_sq = calculus.energy(vp, f)
            worst1 = max(worst1, abs(grad_sq - 2.0 * dirichlet)
                         / max(abs(grad_sq), 1e-300))
            lhs, rhs = calculus.p2_energy_identity(vp, f)
            worst2 = max(worst2, abs(lhs - 2.0 * rhs)
                         / max(abs(lhs), 1e-300))
            pairs += 1
    checks = {"one_step_identity": worst1 <= 1e-10,
              "two_step_identity": worst2 <= 1e-10,
              "sample_count": pairs == 1000}
    return checks, {"max_rel_error_one_step": worst1,
                    "max_rel_error_two_step": worst2,
                    "viewpoints": 50, "fields_per_viewpoint": 20}


def criterion_2():
    rng = default_rng(202)
    spaces = _mixed_spaces(10, seed=1200, n_max=120)
    worst_gap = 0.0
    indicator_gap = 0.0
    count = indicators = 0
    for i in range(100):
        space, h = spaces[i % len(spaces)]
        if i % 5 == 0:
            k = rng.integers(1, space.n)
            f = np.zeros(space.n)
            f[rng.choice(space.n, size=k, replace=False)] = 1.0
            indicators += 1
        else:
            f = np.abs(rng.standard_normal(space.n))
        lower, middle, upper = calculus.coarea(space, f, h)
        worst_gap = max(worst_gap,
                        max(lower - middle, middle - upper)
                        / max(upper, 1e-300))
        if i % 5 == 0:
            indicator_gap = max(indicator_gap,
                                abs(middle - upper) / max(upper, 1e-300))
        count += 1
    checks = {"sandwich_everywhere": worst_gap <= 0.0,
              "indicator_upper_equality": indicator_gap <= 1e-12,
              "sample_count": count == 100 and indicators == 20}
    return checks, {"fields": count, "indicator_fields": indicators,
                    "worst_indicator_gap": indicator_gap}


def criterion_3():
    rng = default_rng(303)
    violations = 0
    reports = 0
    for i, (space, h) in enumerate(_mixed_spaces(50, seed=3400, n_max=150)):
        if i % 2 == 0:
            vp = viewpoint.standard_viewpoint(space, h)
        else:
            vp = viewpoint.random_symmetric_viewpoint(space, h, rng)
        f = rng.standard_normal(space.n)
        for q, q2 in ((1, 2), (2, np.inf), (1, np.inf)):
            rep = calculus.sandwich_report(vp, f, q, q2, slack=1e-12)
            reports += 1
            if not rep.holds:
                violations += 1
    checks = {"zero_violations": violations == 0,
              "all_chains_checked": reports == 150}
    return checks, {"pairs": 50, "chains_per_pair": 3,
                    "violations": violations}


def criterion_4():
    details = {}
    checks = {}

    # two-dimensional box
    g2 = zoo.grid(2, 64)
    vp2 = randomwalk.lazy_srw(g2, 1.0)
    center2 = 32 * 64 + 32
    phi2 = RateFunction.power(0.5)
    rep2 = randomwalk.decay_vs_profile(g2, vp2, phi2, range(1, 257),
                                       centers=[center2])
    checks["d2_domination"] = rep2.status == "ok" and rep2.best_c is not None
    checks["d2_decay_slope"] = abs(rep2.slope_decay + 1.0) <= 0.15
    details["d2"] = {"slope_decay": rep2.slope_decay,
                     "slope_gamma": rep2.slope_gamma,
                     "best_c": rep2.best_c, "status": rep2.status}

    # gamma transform of phi(v) = sqrt(v) against its closed form
    v_min = 1e-6
    ts = np.geomspace(1e-2, 1e4, 50)
    gt2 = randomwalk.gamma_transform(phi2, ts, v_min=v_min)
    closed2 = 1.0 / (ts + v_min)
    err2 = float(np.max(np.abs(gt2.gamma - closed2) / closed2))
    slope_g2 = _loglog_slope(ts, gt2.gamma)
    checks["d2_gamma_closed_form"] = err2 <= 1e-8
    checks["d2_gamma_slope_exact"] = abs(slope_g2 + 1.0) <= 1e-3
    details["d2"]["gamma_closed_form_rel_err"] = err2
    details["d2"]["gamma_slope"] = slope_g2

    # one-dimensional window
    g1 = zoo.path(256)
    vp1 = randomwalk.lazy_srw(g1, 1.0)
    phi1 = RateFunction.power(1.0)
    rep1 = randomwalk.decay_vs_profile(g1, vp1, phi1, range(1, 257),
                                       centers=[128])
    checks["d1_domination"] = rep1.status == "ok" and rep1.best_c is not None
    checks["d1_decay_slope"] = abs(rep1.slope_decay + 0.5) <= 0.1
    gt1 = randomwalk.gamma_transform(phi1, ts, v_min=v_min)
    closed1 = (2.0 * ts + v_min ** 2) ** -0.5
    err1 = float(np.max(np.abs(gt1.gamma - closed1) / closed1))
    checks["d1_gamma_closed_form"] = err1 <= 1e-8
    checks["d1_gamma_slope_exact"] = abs(_loglog_slope(ts, gt1.gamma)
                                         + 0.5) <= 1e-3
    details["d1"] = {"slope_decay": rep1.slope_decay,
                     "slope_gamma": rep1.slope_gamma,
                     "best_c": rep1.best_c,
                     "gamma_closed_form_rel_err": err1}
    return checks, details


def criterion_5():
    rng = default_rng(505)
    g = zoo.grid(2, 16)
    vp_box = randomwalk.lazy_srw(g, 1.0)
    geo = zoo.random_geometric(120, seed=5050)
    vp_geo = viewpoint.random_symmetric_viewpoint(geo, 0.3, rng)

    violations = 0
    fields = 0
    for i in range(100):
        vp = vp_box if i % 2 == 0 else vp_geo
        space = vp.space
        f = rng.standard_normal(space.n)
        u = []
        g_cur = f
        for _ in range(11):
            u.append(calculus.lp_norm(space, g_cur, 2) ** 2)
            g_cur = viewpoint.apply(vp, g_cur)
        u = np.array(u)
        bad = u[1:-1] ** 2 > u[:-2] * u[2:] * (1.0 + 1e-10)
        violations += int(bad.sum())
        fields += 1

    # induced Nash constants from a dominating decay curve. The conversion
    # needs gamma(n) >= sup_x of the return density p^{2n}_x(x): a curve
    # recorded at one point underestimates fields concentrated elsewhere
    # (on a box the corner return beats the center, 0.375 vs 0.3125 at
    # n=1 for the lazy walk), so take the pointwise max over all starts.
    steps = np.arange(1, 65)
    per_point = np.empty((g.n, steps.size))
    for x in range(g.n):
        per_point[x] = randomwalk.on_diagonal(vp_box, x, steps).values
    x_star = int(per_point[:, -1].argmax())
    decay = randomwalk.DecayCurve(steps.astype(float), per_point.max(axis=0),
                                  x_star, vp_box.kind)
    nash_fields = [rng.standard_normal(g.n) for _ in range(20)]
    for _ in range(10):
        f = np.zeros(g.n)
        f[rng.integers(g.n)] = 1.0
        nash_fields.append(f)
    rep = randomwalk.nash_from_decay(g, vp_box, decay, nash_fields)
    finite = [e for e in rep.entries if not e.skipped]
    checks = {"log_convexity_zero_violations": violations == 0,
              "hundred_fields": fields == 100,
              "nash_bounds_hold": rep.passes,
              "nash_constants_finite":
                  len(finite) > 0 and
                  all(np.isfinite(e.constant) for e in finite)}
    return checks, {"convexity_violations": violations,
                    "nash_evaluated": len(finite),
                    "nash_skipped": len(rep.entries) - len(finite),
                    "decay_doubling_ratio": rep.log_derivative_ratio}


def _tree_radial_rho(depth):
    """Top eigenvalue of the radial tridiagonal reduction (see header)."""
    off = np.array([0.5] + [np.sqrt(3.0) / 4.0] * (depth - 1))
    return float(eigvalsh_tridiagonal(np.zeros(depth + 1), off)[-1])


def _tree_return_probs(n_max):
    """p^{2n}(root, root) of the nearest-neighbour walk on the infinite
    4-regular tree, via its radial birth-death chain (depth capped far
    beyond the walk's reach, so the values are exact)."""
    cap = 2 * n_max + 4
    cur = np.zeros(cap + 1)
    cur[0] = 1.0
    out = np.empty(n_max + 1)
    out[0] = 1.0
    for step in range(1, 2 * n_max + 1):
        nxt = np.zeros_like(cur)
        nxt[1] += cur[0]
        nxt[0:cap] += cur[1:cap + 1] * 0.25
        nxt[2:cap + 1] += cur[1:cap] * 0.75
        cur = nxt
        if step % 2 == 0:
            out[step // 2] = cur[0]
    return out


def criterion_6():
    checks = {}
    details = {}

    # --- tree side: pinned radial values and the library against them
    rho14 = _tree_radial_rho(14)
    checks["tree_depth14_pinned"] = \
        abs(rho14 - TREE_RADIAL_RHO[14]) <= 1e-10
    lib_vs_oracle = {}
    for depth in (6, 8, 10):
        tree = zoo.regular_tree(4, depth)
        vp = randomwalk.pure_srw(tree, ambient_degree=4)
        rho_lib, residual = randomwalk.spectral_radius(vp)
        lib_vs_oracle[depth] = {"library": rho_lib,
                                "radial": _tree_radial_rho(depth),
                                "residual": residual}
        checks[f"tree_depth{depth}_library_matches_radial"] = \
            abs(rho_lib - TREE_RADIAL_RHO[depth]) <= 1e-7
    details["tree"] = lib_vs_oracle

    # limit recovery: Richardson extrapolation in 1/(depth+2)^2
    depths = np.arange(6, 15)
    rhos = np.array([_tree_radial_rho(int(d)) for d in depths])
    xs = 1.0 / (depths + 2.0) ** 2
    intercept = float(np.polyfit(xs, rhos, 1)[1])
    checks["tree_richardson_reproducible"] = \
        abs(intercept - TREE_RICHARDSON_INTERCEPT) <= 1e-9
    checks["tree_limit_recovered"] = \
        abs(intercept - TREE_LIMIT_RHO) <= 2e-3
    details["tree_richardson_intercept"] = intercept

    # limit cross-check: return-probability fit log u_n ~ 2n log rho
    # - 1.5 log n + const over n in [20, 60]
    u = _tree_return_probs(60)
    ns = np.arange(20, 61)
    y = np.log(u[20:61]) + 1.5 * np.log(ns)
    rho_hat = float(np.exp(np.polyfit(2.0 * ns, y, 1)[0]))
    checks["tree_limit_from_return_probs"] = \
        abs(rho_hat - TREE_LIMIT_RHO) <= 5e-3
    details["tree_return_prob_rho"] = rho_hat

    # --- lattice side: 1 - rho_A shrinks like L^-2 and rho_A -> 1
    Ls = [8, 12, 16, 24, 32]
    gaps, closed_err = [], 0.0
    for L in Ls:
        vp = randomwalk.pure_srw(zoo.grid(2, L), ambient_degree=4)
        rho, _ = randomwalk.spectral_radius(vp)
        closed = np.cos(np.pi / (L + 1))
        closed_err = max(closed_err, abs(rho - closed))
        gaps.append(1.0 - rho)
    slope = _loglog_slope(Ls, gaps)
    checks["box_closed_form"] = closed_err <= 1e-6
    checks["box_gap_slope"] = abs(slope + 2.0) <= 0.3
    checks["box_rho_to_one"] = all(np.diff(gaps) < 0) and gaps[-1] < 0.01
    details["box"] = {"L": Ls, "one_minus_rho": gaps, "slope": slope,
                      "max_closed_form_error": closed_err}

    # --- Cheeger trends: tree balls stay expander-like, boxes do not
    tree = zoo.regular_tree(4, 8)
    fam = [tree.subset(tree.ball(0, k)) for k in range(1, 8)]
    tree_ratios = (boundary_measures(tree, (a.mask() for a in fam), 1.0)
                   / [a.measure for a in fam]).tolist()
    checks["tree_cheeger_floor"] = min(tree_ratios) >= 0.5
    details["tree_cheeger_min"] = min(tree_ratios)

    box = zoo.grid(2, 64)
    coords = box.meta["coords"]
    # the centred boxes of side 4, 8, 16 and 32
    inside = [np.all((coords >= (64 - s) // 2) & (coords < (64 + s) // 2),
                     axis=1) for s in (4, 8, 16, 32)]
    vols = [box.subset(np.flatnonzero(m)).measure for m in inside]
    ratios = (boundary_measures(box, inside, 1.0) / vols).tolist()
    box_slope = _loglog_slope(vols, ratios)
    checks["box_cheeger_slope"] = abs(box_slope + 0.5) <= 0.15
    checks["box_cheeger_to_zero"] = ratios[-1] < ratios[0]
    details["box_cheeger"] = {"volumes": vols, "ratios": ratios,
                              "slope": box_slope}

    discrepancy = (
        "The stated tree constant 0.866 +- 0.010 is the infinite-tree "
        "limit and is unattainable at depth 14: the exact compressed "
        f"spectral radius there is {TREE_RADIAL_RHO[14]:.9f} (gap 0.0149; "
        "the band would need depth ~19, about 10^9 vertices). This "
        "criterion pins the independently derived depth-14 value and "
        "verifies the 0.8660254 limit by extrapolation and by the "
        "return-probability fit instead. See the decisions ledger.")
    return checks, details, discrepancy


def criterion_7():
    checks = {}
    details = {}
    v_grid = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]

    def record(tag, band, expect_asserted):
        checks[f"{tag}_band"] = band.within_band
        checks[f"{tag}_in_range_count"] = \
            int(band.in_range.sum()) == expect_asserted
        checks[f"{tag}_transfer_constants"] = all(
            t.status == "ok" and t.c_l1 > 0 and np.isfinite(t.C_l2)
            and np.isfinite(t.C_l3) for t in band.transfers)
        details[tag] = {"K": band.K, "K_prime": band.K_prime,
                        "ratios": band.ratios.tolist(),
                        "in_range": band.in_range.tolist(),
                        "l1_constants": [t.c_l1 for t in band.transfers],
                        "l2_constants": [t.C_l2 for t in band.transfers],
                        "l3_constants": [t.C_l3 for t in band.transfers]}

    # pair (a): same grid under two norms, identity map. K = 2 keeps the
    # first six grid volumes inside the half-total range (2 * 128 <= 288).
    X = zoo.grid(2, 24, metric="l1")
    Y = zoo.grid(2, 24, metric="linf")
    ident = np.arange(X.n)
    cert_a = coarse.certify_lse(X, Y, ident, r_grid=(2.0, 4.0))
    checks["a_certificate"] = cert_a.ok
    record("a", coarse.profile_transfer_band(X, Y, ident, cert_a, p=2,
                                             h=1.0, v_grid=v_grid), 6)
    details["a"]["C_r"] = cert_a.C_r

    # pair (b): a Euclidean grid against its own discretization. K = 4 on
    # a total measure of 256 leaves four in-range volumes (4 * 32 <= 128).
    Xb = zoo.grid(2, 16, metric="l2")
    disc = coarse.discretize(Xb, 1.25)
    checks["b_certificate"] = disc.certificate.ok
    record("b", coarse.profile_transfer_band(
        Xb, disc.graph, disc.assign, disc.certificate, p=2, h=1.25,
        v_grid=v_grid), 4)
    details["b"]["vertices"] = disc.graph.n

    # pair (c): a stretched path against its net. On 9 points the stated
    # grid has no in-range volume at all (K = 3 forces 3 v <= 4.5), so the
    # curves are reported over it but the band is asserted on the pair's
    # own feasible volumes.
    Xc = zoo.scale_metric(zoo.path(9), 2.0)
    disc_c = coarse.discretize(Xc, 2.0)
    checks["c_certificate"] = disc_c.certificate.ok
    checks["c_net_is_every_other_point"] = \
        disc_c.centers.tolist() == [0, 2, 4, 6, 8] and \
        disc_c.graph.measure.tolist() == [2.0, 2.0, 2.0, 2.0, 1.0]
    record("c", coarse.profile_transfer_band(
        Xc, disc_c.graph, disc_c.assign, disc_c.certificate, p=2, h=2.0,
        v_grid=v_grid), 0)
    record("c_native", coarse.profile_transfer_band(
        Xc, disc_c.graph, disc_c.assign, disc_c.certificate, p=2, h=2.0,
        v_grid=[1.0, 1.25, 1.5]), 3)
    discrepancy = (
        "Ratios at volumes past half the total measure are saturation "
        "artifacts: there the maximizers are complements with vanishing "
        "boundary and the curve repeats its largest proper candidate "
        "(measured up to 2.46x on the 9-point pair, breaching any "
        "certificate-derived band). The band is therefore asserted on the "
        "in-range volumes of the stated grid (6 of 7 for the norm pair, 4 "
        "of 7 for the discretization pair) plus native volumes {1, 1.25, "
        "1.5} for the 9-point pair, whose stated grid has no in-range "
        "entry; out-of-range ratios are reported unasserted."
    )
    return checks, details, discrepancy


# On the 3x3 l1 grid the candidate family genuinely misses the volume-5
# optimum: no sub-box has 5 points, and exhaustive search finds a staircase
# (top row plus the two cells under its left end) with j = 5/6, while the
# best candidate is an L-shaped complement at 5/7. Both values are pinned
# below; equality is asserted at every other volume. Balls, not boxes, are
# what the candidates match elsewhere on this grid (at volume 4 the 2x2
# box scores 4/7, beaten by the radius-1 ball at 2/3).
GRID3_L1_J1_MISS = {5.0: (5.0 / 7.0, 5.0 / 6.0)}


def criterion_8():
    checks = {}
    details = {}
    cases = [
        ("path9", zoo.path(9), 1.0, True, {}),
        ("grid3_l1", zoo.grid(2, 3, metric="l1"), 1.0, True,
         GRID3_L1_J1_MISS),
        ("grid3_linf", zoo.grid(2, 3, metric="linf"), 1.0, True, {}),
        ("path12", zoo.path(12), 1.0, True, {}),
        ("geo12", zoo.random_geometric(12, seed=5), 0.6, False, {}),
    ]
    for name, space, h, expect_equal, misses in cases:
        b = Backend.sup(h)
        v_grid = np.arange(1.0, space.n)
        j_c = profiles.isoperimetric_profile(space, b, 1, v_grid)
        j_e = profiles.isoperimetric_profile(space, b, 1, v_grid,
                                             strategy="exact")
        both = np.isfinite(j_c.values) & np.isfinite(j_e.values)
        never_above = np.all(j_c.values[both]
                             <= j_e.values[both] * (1 + 1e-12))
        inf_consistent = np.array_equal(np.isinf(j_c.values),
                                        np.isinf(j_e.values))
        checks[f"{name}_j1_bounded_by_oracle"] = bool(never_above
                                                      and inf_consistent)

        fam = [sub for sub, _ in profiles.candidate_subsets(space, b)]
        I_c = profiles.boundary_profile(space, h, family=fam)[0]
        I_e = profiles.boundary_profile(space, h)[0]
        bothI = np.isfinite(I_c.values) & np.isfinite(I_e.values)
        checks[f"{name}_I_bounded_by_oracle"] = bool(
            np.all(I_c.values[bothI] >= I_e.values[bothI] * (1 - 1e-12)))

        ch_c, _ = profiles.cheeger(space, h, fam)
        ch_e, _ = profiles.cheeger(space, h, "all")
        checks[f"{name}_cheeger_bounded_by_oracle"] = \
            ch_c >= ch_e * (1 - 1e-12)

        if expect_equal:
            mismatches = {}
            for v, vc, ve in zip(v_grid, j_c.values, j_e.values):
                if np.isinf(vc) and np.isinf(ve):
                    continue
                pin = misses.get(float(v))
                if pin is not None:
                    if abs(vc - pin[0]) > 1e-12 or abs(ve - pin[1]) > 1e-12:
                        mismatches[float(v)] = (float(vc), float(ve))
                elif abs(vc - ve) > 1e-12:
                    mismatches[float(v)] = (float(vc), float(ve))
            gap_I = float(np.max(np.abs(I_c.values[bothI]
                                        - I_e.values[bothI])))
            gap_ch = abs(ch_c - ch_e)
            checks[f"{name}_exact_family_equality"] = \
                not mismatches and gap_I <= 1e-12 and gap_ch <= 1e-12
            details[name] = {"j_mismatches": mismatches, "I_gap": gap_I,
                             "cheeger_gap": gap_ch,
                             "pinned_family_misses": dict(misses)}
        else:
            details[name] = {"cheeger_candidate": ch_c,
                             "cheeger_exact": ch_e}
    discrepancy = (
        "The stated achieving family for grids (sub-boxes) does not attain "
        "the exhaustive j_1 optimum at volume 5 on the 3x3 l1 grid: no "
        "sub-box has 5 points and the best candidate (an L-shaped "
        "complement, 5/7) loses to a staircase subset (5/6). The suite "
        "pins both independently derived values at that volume and asserts "
        "equality everywhere else."
    )
    return checks, details, discrepancy


def criterion_9():
    checks = {}
    details = {}
    unit_h = [0.4, 0.6, 1.0, 1.6]
    cases = [
        ("path16", zoo.path(16), unit_h),
        ("grid8_l1", zoo.grid(2, 8, metric="l1"), unit_h),
        ("grid6_l2", zoo.grid(2, 6, metric="l2"), unit_h),
        ("geo64", zoo.random_geometric(64, seed=7),
         [0.02, 0.05, 0.1, 0.2, 0.35]),
        ("free2_r3", zoo.free_group_ball(2, 3), [0.6, 1.0, 1.6]),
        ("tree3_d4", zoo.regular_tree(3, 4), [0.6, 1.0, 1.6]),
        ("heis_r2", zoo.heisenberg_ball(2), [0.6, 1.0, 1.6]),
    ]
    for name, space, h_grid in cases:
        threshold = None
        all_ok = True
        sizes = {}
        for h in h_grid:
            try:
                disc = coarse.discretize(space, h)
            except ValueError:
                if threshold is not None:
                    all_ok = False   # connectivity must persist above it
                continue
            if threshold is None:
                threshold = h
            sizes[h] = disc.graph.n
            if not disc.certificate.ok:
                all_ok = False
        checks[f"{name}_roundtrip"] = bool(all_ok and threshold is not None)
        details[name] = {"threshold": threshold, "net_sizes": sizes}
    return checks, details


# ----------------------------------------------------------------------
# registry and runners

CRITERIA = [
    (1, "two-step energy identities on random symmetric kernels", 60.0,
     criterion_1),
    (2, "coarea sandwich with indicator equality", 60.0, criterion_2),
    (3, "pointwise gradient sandwich across exponents", None, criterion_3),
    (4, "lattice return decay matches the volume-profile transform", 120.0,
     criterion_4),
    (5, "return-decay log-convexity and induced Nash bounds", None,
     criterion_5),
    (6, "spectral-radius dichotomy: tree against lattice", None,
     criterion_6),
    (7, "profile invariance under certified equivalences", 300.0,
     criterion_7),
    (8, "candidate families against exhaustive enumeration", None,
     criterion_8),
    (9, "discretization round-trip certificates", None, criterion_9),
]


def run_criterion(cid) -> CriterionResult:
    for num, title, budget, fn in CRITERIA:
        if num != cid:
            continue
        t0 = time.monotonic()
        out = fn()
        dt = time.monotonic() - t0
        discrepancy = None
        if len(out) == 3:
            checks, details, discrepancy = out
        else:
            checks, details = out
        passed = all(checks.values())
        if budget is not None:
            checks = dict(checks)
            checks["within_runtime_budget"] = dt < budget
            passed = passed and dt < budget
        return CriterionResult(num, title, passed, dt, budget, checks,
                               details, discrepancy)
    raise ValueError(f"no criterion numbered {cid}")


def run_all(cids=None):
    if cids is None:
        cids = [num for num, _, _, _ in CRITERIA]
    return [run_criterion(c) for c in cids]


def as_table(results):
    """Summary of a run, for the CLI's JSON writer to convert."""
    return {
        "passed": all(r.passed for r in results),
        "criteria": [{
            "id": r.cid,
            "title": r.title,
            "passed": r.passed,
            "runtime_s": round(r.runtime_s, 3),
            "budget_s": r.budget_s,
            "checks": r.checks,
            "details": r.details,
            **({"discrepancy": r.discrepancy} if r.discrepancy else {}),
        } for r in results],
    }
