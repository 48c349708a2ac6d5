"""transfer: profile transfer along certified equivalences (the shape of
acceptance criterion 7, at smaller sizes).

Three pairs: an l1 grid against the linf grid on the same points under the
identity, an l2 grid against its ``discretize`` net, and a stretched path
against its net. Each runs certification, p = 2 candidate profiles on both
sides through ``profile_transfer_band`` and pullback transfers of seeded
random fields. The candidate profiles make thousands of ``jp_subset`` calls
on the same few spaces, each rebuilding the gradient form of its space, so
reuse of work per (space, scale) shows here.
"""

import dataclasses

import numpy as np

import oracle
from coarsecalc import coarse, profiles, zoo
from workloads.common import Task, expect, expect_close

SIZES = {False: {"L_norms": 5, "L_net": 5, "fields": 2},
         True: {"L_norms": 4, "L_net": 4, "fields": 1}}
# criterion 7's volume grid, and the stretched path's own volumes (its
# total measure of 9 leaves none of the grid in range)
V_GRID = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
V_NATIVE = (1.0, 1.25, 1.5)
V_PATH = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0)


def setup(seed, smoke, workdir):
    size = SIZES[smoke]
    rng = np.random.default_rng(seed)
    a_src = zoo.grid(2, size["L_norms"], "l1")
    a_tgt = zoo.grid(2, size["L_norms"], "linf")
    b_src = zoo.grid(2, size["L_net"], "l2")
    c_src = zoo.scale_metric(zoo.path(9), 2.0)
    return {
        "a_src": a_src, "a_tgt": a_tgt, "b_src": b_src, "c_src": c_src,
        "dist": {"a_src": oracle.coord_distances(a_src.meta["coords"], 1),
                 "b_src": oracle.coord_distances(b_src.meta["coords"], 2),
                 "c_src": 2.0 * oracle.coord_distances(
                     c_src.meta["coords"], 1)},
        # target fields for the pullbacks; nets take a prefix of a row
        "fields": rng.standard_normal((size["fields"], a_tgt.n)),
    }


def tasks(inp, results, stats):
    X, Y, Xb, Xc = inp["a_src"], inp["a_tgt"], inp["b_src"], inp["c_src"]
    dist = inp["dist"]
    ident = np.arange(X.n)

    yield Task("a.certify",
               lambda: coarse.certify_lse(X, Y, ident, r_grid=(2.0, 4.0)),
               _check_identity_cert,
               corrupt=lambda c: dataclasses.replace(c, onto_C=1.0))
    yield Task("a.band", lambda: coarse.profile_transfer_band(
        X, Y, ident, results["a.certify"], p=2, h=1.0, v_grid=V_GRID),
        _check_band)
    for k, f in enumerate(inp["fields"]):
        yield Task(f"a.pullback{k}",
                   lambda f=f: coarse.pullback(X, f, ident, 1.0),
                   lambda psi, f=f: _check_pullback(psi, dist["a_src"], f,
                                                    ident, 1.0))
        yield Task(f"a.transfer{k}",
                   lambda f=f: coarse.pullback_transfer_report(
                       X, Y, ident, results["a.certify"], f, 1.0),
                   _check_transfer)

    yield Task("b.discretize", lambda: coarse.discretize(Xb, 1.25),
               lambda d: _check_net(d, Xb, dist["b_src"], 1.25))
    yield Task("b.band", lambda: _band_to_net(Xb, results["b.discretize"],
                                              1.25, V_GRID), _check_band)
    for k, f in enumerate(inp["fields"]):
        yield Task(f"b.transfer{k}", lambda f=f: _transfer_to_net(
            Xb, results["b.discretize"], f, 1.25), _check_transfer)

    yield Task("c.discretize", lambda: coarse.discretize(Xc, 2.0),
               _check_path_net)
    yield Task("c.band", lambda: _band_to_net(Xc, results["c.discretize"],
                                              2.0, V_NATIVE),
               lambda band: _check_band(band, all_in_range=True))
    yield Task("c.profile", lambda: profiles.isoperimetric_profile(
        Xc, profiles.Backend.lp(2.0), 2, V_PATH),
        lambda curve: _check_path_profile(curve, dist["c_src"], Xc.measure))


def probes(inp, results):
    out = [("a_src", inp["a_src"], 1.0)]
    out.append(("a_tgt", inp["a_tgt"], results["a.band"].scales[1]))
    for pair, src in (("b", "b_src"), ("c", "c_src")):
        disc = results[f"{pair}.discretize"]
        h, h_net = results[f"{pair}.band"].scales
        out.append((src, inp[src], h))
        out.append((f"{pair}_net", disc.graph, h_net))
    return out


def _band_to_net(src, disc, h, v_grid):
    return coarse.profile_transfer_band(src, disc.graph, disc.assign,
                                        disc.certificate, p=2, h=h,
                                        v_grid=v_grid)


def _transfer_to_net(src, disc, f, h):
    return coarse.pullback_transfer_report(
        src, disc.graph, disc.assign, disc.certificate, f[:disc.graph.n], h)


# ----------------------------------------------------------------------
# checks


def _check_identity_cert(cert):
    expect(cert.ok, f"certificate failed: {cert.violation}")
    expect(cert.onto_C == 0.0, f"identity map is onto, got C = {cert.onto_C}")
    expect(sorted(cert.C_r) == [2.0, 4.0], f"radii {sorted(cert.C_r)}")
    expect(bool(np.all(np.diff(cert.rho_plus) >= 0)),
           "rho_plus is not monotone")
    expect(bool(np.all(cert.rho_minus <= cert.rho_plus)),
           "rho_minus exceeds rho_plus")


def _check_band(band, all_in_range=False):
    expect(band.within_band, f"ratios {band.ratios} leave the band "
                             f"[1/{band.K_prime:g}, {band.K_prime:g}]")
    expect(bool(band.in_range.all() if all_in_range else band.in_range.any()),
           f"in-range mask {band.in_range}")
    r = band.ratios[band.in_range]
    expect(bool(np.all(np.isfinite(r) & (r > 0))), f"in-range ratios {r}")
    for t in band.transfers:
        _check_transfer(t)


def _check_transfer(t):
    expect(t.status == "ok" and t.c_l1 > 0 and np.isfinite(t.C_l2)
           and np.isfinite(t.C_l3),
           f"transfer constants status={t.status} c_l1={t.c_l1} "
           f"C_l2={t.C_l2} C_l3={t.C_l3}")


def _check_pullback(psi, dist, f, F, h):
    g = np.abs(f[F])
    want = np.array([g[dist[x] <= h].max() for x in range(dist.shape[0])])
    expect(np.array_equal(psi, want), "pullback differs from the oracle")


def _check_net(disc, space, dist, h):
    expect(disc.certificate.ok, f"net certificate: {disc.certificate.violation}")
    c = disc.centers
    expect(disc.graph.total_measure == space.total_measure,
           "net does not carry the total measure")
    off = dist[np.ix_(c, c)][~np.eye(c.size, dtype=bool)]
    expect(bool(np.all(off > h)), "net centers are not h-separated")
    to_net = dist[:, c]
    expect(bool(to_net.min(axis=1).max() <= h), "net is not h-dense")
    expect(np.array_equal(to_net[np.arange(space.n), disc.assign],
                          to_net.min(axis=1)),
           "a point is not assigned to a nearest center")


def _check_path_net(disc):
    expect(disc.certificate.ok, "stretched-path certificate failed")
    expect(disc.centers.tolist() == [0, 2, 4, 6, 8] and
           disc.graph.measure.tolist() == [2.0, 2.0, 2.0, 2.0, 1.0],
           f"stretched-path net {disc.centers.tolist()} "
           f"{disc.graph.measure.tolist()}")


def _check_path_profile(curve, dist, mu):
    expect(curve.mode == "lower_bound", f"candidate mode {curve.mode!r}")
    q = oracle.ball_average_form(dist, mu, 2.0)
    for w in curve.witnesses:
        expect_close(oracle.j2(q, mu, w["indices"]), w["value"],
                     f"J_2 of witness {w['label']}", rtol=1e-9)
    exact = oracle.j2_profile(q, mu, V_PATH)
    expect(bool(np.all(curve.values <= exact * (1 + 1e-9))),
           f"candidate profile {curve.values} above exhaustive {exact}")
