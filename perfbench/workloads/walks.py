"""walks: random walks on large spaces, each space swept once.

Kernels on a tree, boxes, a path and a random geometric graph, on-diagonal
decay against the gamma transform of the volume growth, spectral radii of
boxes and tree balls, and the gamma transform itself. Every neighbourhood
is built once, so the graph and coordinate ball builders, kernel iteration
and power iteration dominate; a cache that only helps repeated queries
has nothing to reuse here.
"""

import numpy as np

import oracle
from coarsecalc import randomwalk, viewpoint, zoo
from coarsecalc.acceptance import TREE_RADIAL_RHO
from coarsecalc.profiles import RateFunction
from workloads.common import (Task, expect, expect_close,
                              expect_stochastic_symmetric)

SIZES = {
    False: {"tree_rho": 9, "tree_balls": (6, 7, 8), "tree_lazy": 6,
            "box_linf": 40, "box_decay": 40, "path": 192, "rgg": 2000,
            "rgg_h": 0.05, "boxes": (8, 12, 16, 24)},
    True: {"tree_rho": 7, "tree_balls": (6,), "tree_lazy": 3,
           "box_linf": 8, "box_decay": 16, "path": 64, "rgg": 200,
           "rgg_h": 0.15, "boxes": (8,)},
}
GAMMA_T = np.geomspace(1e-2, 1e4, 20)
GAMMA_VMIN = 1e-6


def setup(seed, smoke, workdir):
    size = SIZES[smoke]
    rng = np.random.default_rng(seed)
    L, n = size["box_decay"], size["path"]
    # decay is measured at a seeded point of the middle half, where the
    # diffusive window is not bent by the boundary
    cx, cy = rng.integers(L // 4, 3 * L // 4, size=2)
    rgg = zoo.random_geometric(size["rgg"], int(rng.integers(2 ** 31)))
    return {
        "size": size,
        "tree_rho": zoo.regular_tree(4, size["tree_rho"]),
        "tree_lazy": zoo.regular_tree(4, size["tree_lazy"]),
        "box_linf": zoo.grid(2, size["box_linf"], "linf"),
        "box_decay": zoo.grid(2, L),
        "box_center": int(cx * L + cy),
        "path": zoo.path(n),
        "path_center": int(rng.integers(n // 4, 3 * n // 4)),
        "rgg": rgg,
        "boxes": [zoo.grid(2, b) for b in size["boxes"]],
    }


def tasks(inp, results, stats):
    size = inp["size"]
    tree = inp["tree_lazy"]
    yield Task("tree.lazy", lambda: randomwalk.lazy_srw(tree, 1.0),
               lambda vp: _check_tree_lazy(vp, tree.n))

    big = inp["tree_rho"]
    yield Task("tree.pure", lambda: randomwalk.pure_srw(big, ambient_degree=4),
               lambda vp: expect(vp.dens.nnz == 2 * (big.n - 1),
                                 f"pure walk has {vp.dens.nnz} entries"))
    yield Task("tree.rho", lambda: randomwalk.spectral_radius(
        results["tree.pure"]),
        lambda out: expect_close(out[0], TREE_RADIAL_RHO[size["tree_rho"]],
                                 "tree spectral radius", atol=1e-7),
        corrupt=lambda out: (out[0] + 1e-6, out[1]))
    radii = size["tree_balls"]
    yield Task("tree.balls", lambda: randomwalk.exhaustion_radii(
        results["tree.pure"], [big.subset(big.ball(0, float(k)))
                               for k in radii]),
        lambda rhos: expect_close(rhos, [TREE_RADIAL_RHO[k] for k in radii],
                                  "tree ball spectral radii", atol=1e-7))

    box = inp["box_linf"]
    L_linf = size["box_linf"]
    yield Task("box_linf.standard",
               lambda: viewpoint.standard_viewpoint(box, 1.0),
               lambda vp: _check_standard_linf(vp, L_linf))

    g, c = inp["box_decay"], inp["box_center"]
    yield Task("box.lazy", lambda: randomwalk.lazy_srw(g, 1.0),
               expect_stochastic_symmetric)
    yield Task("box.decay", lambda: randomwalk.decay_vs_profile(
        g, results["box.lazy"], RateFunction.power(0.5),
        range(1, 4 * size["box_decay"] + 1), centers=[c]),
        lambda rep: _check_decay(rep, -1.0, 0.15))

    p, pc = inp["path"], inp["path_center"]
    yield Task("path.lazy", lambda: randomwalk.lazy_srw(p, 1.0),
               expect_stochastic_symmetric)
    yield Task("path.decay", lambda: randomwalk.decay_vs_profile(
        p, results["path.lazy"], RateFunction.power(1.0),
        range(1, size["path"] + 1), centers=[pc]),
        lambda rep: _check_decay(rep, -0.5, 0.1))

    rgg, h = inp["rgg"], size["rgg_h"]
    yield Task("rgg.lazy", lambda: randomwalk.lazy_srw(rgg, h),
               lambda vp: _check_rgg(vp, rgg.meta["coords"], h))

    for L, b in zip(size["boxes"], inp["boxes"]):
        yield Task(f"box{L}.rho", lambda b=b: randomwalk.spectral_radius(
            randomwalk.pure_srw(b, ambient_degree=4)),
            lambda out, L=L: expect_close(out[0],
                                          oracle.box_spectral_radius(L),
                                          f"box {L} spectral radius",
                                          atol=1e-6))

    t, v = GAMMA_T, GAMMA_VMIN
    yield Task("gamma.sqrt", lambda: randomwalk.gamma_transform(
        RateFunction.power(0.5), t, v_min=v),
        lambda gt: expect_close(gt.gamma, 1.0 / (t + v),
                                "gamma of sqrt(v)", rtol=1e-8))
    yield Task("gamma.linear", lambda: randomwalk.gamma_transform(
        RateFunction.power(1.0), t, v_min=v),
        lambda gt: expect_close(gt.gamma, (2.0 * t + v * v) ** -0.5,
                                "gamma of v", rtol=1e-8))


def probes(inp, results):
    size = inp["size"]
    out = [("tree_lazy", inp["tree_lazy"], 1.0),
           ("box_linf", inp["box_linf"], 1.0),
           ("box_decay", inp["box_decay"], 1.0),
           ("path", inp["path"], 1.0),
           ("rgg", inp["rgg"], size["rgg_h"])]
    out += [(f"box{L}", b, 1.0) for L, b in zip(size["boxes"], inp["boxes"])]
    return out


# ----------------------------------------------------------------------
# checks


def _check_tree_lazy(vp, n):
    expect_stochastic_symmetric(vp)
    # every edge in both directions plus the diagonal
    expect(vp.dens.nnz == n + 2 * (n - 1),
           f"lazy tree walk has {vp.dens.nnz} entries, want {3 * n - 2}")


def _check_standard_linf(vp, L):
    sizes = oracle.linf_box_ball_sizes(L, 1.0)
    expect(np.array_equal(np.diff(vp.dens.indptr), sizes),
           "standard kernel supports differ from the box balls")
    want = np.repeat(1.0 / sizes, sizes)
    expect(np.array_equal(vp.dens.data, want),
           "standard kernel is not uniform on its balls")


def _check_decay(rep, slope, tol):
    expect(rep.status == "ok" and rep.best_c is not None,
           f"decay not dominated: {rep.status}")
    expect(abs(rep.slope_decay - slope) <= tol,
           f"decay slope {rep.slope_decay} not within {tol} of {slope}")


def _check_rgg(vp, coords, h):
    expect_stochastic_symmetric(vp)
    expect(vp.dens.nnz == oracle.pairs_within(coords, h),
           "random geometric walk support differs from the h-balls")
