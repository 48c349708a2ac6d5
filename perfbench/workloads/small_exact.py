"""small_exact: many small spaces and exact answers.

Energy and two-step identities on seeded random symmetric kernels, the
coarea sandwich and the pointwise gradient sandwich (acceptance criteria
1-3); exhaustive j_1, boundary and Cheeger tables against the candidate
families (criterion 8); and descent J_2 on the sup backend. Exhaustive
tables, dense kernels and descent dominate while every neighbourhood is
tiny and built once, so caching neighbourhoods or faster eigensolves have
little to gain here and any cost they add at set-up shows.
"""

import numpy as np

import oracle
from coarsecalc import calculus, profiles, viewpoint, zoo
from workloads.common import Task, expect, expect_close

# (family, size, scale) of the seeded small spaces
MIXED = {
    False: (("rgg", 40, 0.3), ("grid", 5, 1.0), ("path", 20, 1.0),
            ("rgg", 60, 0.3), ("grid", 6, 2.0), ("path", 30, 1.0),
            ("rgg", 50, 0.35), ("grid", 4, 1.0)),
    True: (("rgg", 12, 0.4), ("grid", 3, 1.0), ("path", 8, 1.0)),
}
# (name, family, size, scale) of the exhaustively tabulated spaces
EXACT = {
    False: (("path16", "path", 16, 1.0), ("box3_linf", "grid_linf", 3, 1.0),
            ("rgg12", "rgg", 12, 0.6), ("box3_l1", "grid", 3, 1.0),
            ("path12", "path", 12, 1.0), ("path8", "path", 8, 1.0)),
    True: (("path8", "path", 8, 1.0), ("rgg8", "rgg", 8, 0.6)),
}
# (space name, points of the subset) for descent J_2 on the sup backend
DESCENT = {False: (("path8", (2, 3, 4)), ("box3_l1", (0, 1, 3))),
           True: (("path8", (2, 3, 4)),)}
ENERGY_FIELDS = 4
IDENTITY_RTOL = 1e-10


def _space(family, size, rng):
    if family == "rgg":
        space = zoo.random_geometric(size, int(rng.integers(2 ** 31)))
        return space, oracle.coord_distances(space.meta["coords"], 2)
    if family == "path":
        space = zoo.path(size)
        return space, oracle.coord_distances(space.meta["coords"], 1)
    if family == "grid_linf":
        space = zoo.grid(2, size, "linf")
        return space, oracle.coord_distances(space.meta["coords"], np.inf)
    space = zoo.grid(2, size)
    return space, oracle.coord_distances(space.meta["coords"], 1)


def setup(seed, smoke, workdir):
    rng = np.random.default_rng(seed)
    mixed = []
    for family, size, h in MIXED[smoke]:
        space, dist = _space(family, size, rng)
        n = space.n
        indicator = np.zeros(n)
        indicator[rng.choice(n, size=n // 3, replace=False)] = 1.0
        mixed.append({
            "space": space, "dist": dist, "h": h,
            "kernel_rng": np.random.default_rng(rng.integers(2 ** 31)),
            "energy_fields": rng.standard_normal((ENERGY_FIELDS, n)),
            "coarea_fields": [np.abs(rng.standard_normal(n)),
                              np.abs(rng.standard_normal(n)), indicator],
            "sandwich_field": rng.standard_normal(n),
        })
    exact = {}
    for name, family, size, h in EXACT[smoke]:
        space, dist = _space(family, size, rng)
        exact[name] = {"space": space, "dist": dist, "h": h}
    return {"mixed": mixed, "exact": exact, "smoke": smoke}


def tasks(inp, results, stats):
    for i, case in enumerate(inp["mixed"]):
        yield from _identity_tasks(i, case)
    for name, case in inp["exact"].items():
        yield from _exhaustive_tasks(name, case, results)
    for name, subset in DESCENT[inp["smoke"]]:
        case = inp["exact"][name]
        yield Task(f"{name}.descent", lambda c=case, s=subset:
                   profiles.jp_subset(c["space"], profiles.Backend.sup(c["h"]),
                                      np.array(s), 2),
                   lambda res, c=case: _check_descent(res, c))


def probes(inp, results):
    cases = [(f"mixed{i}", c) for i, c in enumerate(inp["mixed"])]
    cases += list(inp["exact"].items())
    return [(name, c["space"], c["h"]) for name, c in cases]


def _identity_tasks(i, case):
    space, h = case["space"], case["h"]

    def energies():
        vp = viewpoint.random_symmetric_viewpoint(space, h,
                                                  case["kernel_rng"])
        return vp, [calculus.energy(vp, f) + calculus.p2_energy_identity(vp, f)
                    for f in case["energy_fields"]]

    yield Task(f"mixed{i}.energy", energies,
               lambda out: _check_energies(out, case),
               corrupt=lambda out: (out[0], [(d, 2 * g, a, b)
                                             for d, g, a, b in out[1]]))
    yield Task(f"mixed{i}.coarea", lambda: [
        calculus.coarea(space, f, h) for f in case["coarea_fields"]],
        lambda out: _check_coarea(out, case))

    def sandwiches():
        if i % 2 == 0:
            vp = viewpoint.standard_viewpoint(space, h)
        else:
            vp = viewpoint.random_symmetric_viewpoint(space, h,
                                                      case["kernel_rng"])
        f = case["sandwich_field"]
        return [calculus.sandwich_report(vp, f, q, q2)
                for q, q2 in ((1, 2), (2, np.inf), (1, np.inf))]

    yield Task(f"mixed{i}.sandwich", sandwiches,
               lambda reps: expect(all(r.holds for r in reps),
                                   "gradient sandwich violated"))


def _exhaustive_tasks(name, case, results):
    space, h = case["space"], case["h"]
    b = profiles.Backend.sup(h)
    v_grid = np.arange(1.0, space.n)
    fam = f"{name}.family"
    yield Task(fam, lambda: profiles.candidate_subsets(space, b),
               lambda out: expect(len(out) > 0, "empty candidate family"))
    yield Task(f"{name}.j1", lambda: profiles.isoperimetric_profile(
        space, b, 1, v_grid), lambda c: _check_mode(c, "lower_bound"))
    yield Task(f"{name}.j1_exact", lambda: profiles.isoperimetric_profile(
        space, b, 1, v_grid, strategy="exact"),
        lambda c: _check_j1(results[f"{name}.j1"], c, case))
    yield Task(f"{name}.I", lambda: profiles.boundary_profile(
        space, h, family=[s for s, _ in results[fam]])[0],
        lambda c: _check_mode(c, "upper_bound"))
    yield Task(f"{name}.I_exact", lambda: profiles.boundary_profile(space, h)[0],
               lambda c: _check_boundary(results[f"{name}.I"], c, case))
    yield Task(f"{name}.cheeger", lambda: profiles.cheeger(
        space, h, [s for s, _ in results[fam]]),
        lambda out: _check_cheeger_witness(out, case))
    yield Task(f"{name}.cheeger_exact", lambda: profiles.cheeger(space, h, "all"),
               lambda out: _check_cheeger(results[f"{name}.cheeger"], out,
                                          case))


# ----------------------------------------------------------------------
# checks


def _check_energies(out, case):
    vp, rows = out
    dens = vp.dens.toarray()
    mu = case["space"].measure
    for f, (dirichlet, grad_sq, lhs, rhs) in zip(case["energy_fields"], rows):
        expect_close(grad_sq, 2.0 * dirichlet, "one-step energy identity",
                     rtol=IDENTITY_RTOL)
        expect_close(lhs, 2.0 * rhs, "two-step energy identity",
                     rtol=IDENTITY_RTOL)
        expect_close(grad_sq, oracle.kernel_grad_sq(dens, mu, f),
                     "gradient energy against the dense oracle",
                     rtol=IDENTITY_RTOL)


def _check_coarea(out, case):
    dist, mu, h = case["dist"], case["space"].measure, case["h"]
    for f, (lower, mid, upper) in zip(case["coarea_fields"], out):
        tol = 1e-12 * max(1.0, upper)
        expect(lower <= mid + tol and mid <= upper + tol,
               f"coarea sandwich {lower} <= {mid} <= {upper} fails")
        expect_close(mid, oracle.grad_sup(dist, f, h) @ mu,
                     "gradient integral against the dense oracle", rtol=1e-12)
    lower, mid, upper = out[-1]     # the indicator: upper bound is attained
    expect(abs(mid - upper) <= 1e-12 * upper,
           f"indicator coarea {mid} != {upper}")


def _check_mode(curve, mode):
    expect(curve.mode == mode, f"{curve.kind} mode {curve.mode!r}, want {mode!r}")


def _check_j1(cand, exact, case):
    _check_mode(exact, "exact")
    # a candidate value is a j_1 of some subset, so it never exceeds the
    # exhaustive value (which is infinite when a subset is cut off at h);
    # nan marks a volume below every candidate's measure
    c, e = cand.values, exact.values
    expect(bool(np.all(np.isnan(c) | np.isinf(e) | (c <= e * (1 + 1e-12)))),
           f"candidate j_1 {c} above the exhaustive {e}")
    dist, mu, h = case["dist"], case["space"].measure, case["h"]
    finite = np.flatnonzero(np.isfinite(exact.values))
    for i in finite[[0, finite.size // 2, -1]] if finite.size else ():
        w = exact.witnesses[i]
        want = mu[w["indices"]].sum() / oracle.boundary_measure(
            dist, mu, w["indices"], h)
        expect_close(w["value"], want, "exhaustive j_1 witness", rtol=1e-12)


def _check_boundary(cand, exact, case):
    _check_mode(exact, "exact")
    both = np.isfinite(cand.values) & np.isfinite(exact.values)
    expect(bool(np.all(cand.values[both] >= exact.values[both] * (1 - 1e-12))),
           "candidate boundary profile below the exhaustive one")
    dist, mu, h = case["dist"], case["space"].measure, case["h"]
    for w in exact.witnesses[::4]:
        if w is not None:
            expect_close(w["boundary"], oracle.boundary_measure(
                dist, mu, w["indices"], h), "boundary witness", rtol=1e-12)


def _check_cheeger_witness(out, case):
    value, witness = out
    dist, mu, h = case["dist"], case["space"].measure, case["h"]
    expect(witness.measure <= mu.sum() / 2, "Cheeger witness too large")
    expect_close(value, oracle.boundary_measure(dist, mu, witness.indices, h)
                 / witness.measure, "Cheeger witness ratio", rtol=1e-12)


def _check_cheeger(cand, exact, case):
    _check_cheeger_witness(exact, case)
    expect(cand[0] >= exact[0] * (1 - 1e-12),
           f"candidate Cheeger {cand[0]} below the exhaustive {exact[0]}")


def _check_descent(res, case):
    expect(res.mode == "lower_bound", f"descent mode {res.mode!r}")
    dist, mu, h = case["dist"], case["space"].measure, case["h"]
    f = res.witness_field
    g = oracle.grad_sup(dist, f, h)
    expect_close(res.value, np.sqrt((f * f) @ mu / ((g * g) @ mu)),
                 "descent witness quotient", rtol=1e-9)
