"""Walk kernels, return decay, the rate transform, spectral radii."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh

from coarsecalc import calculus, profiles, randomwalk, zoo
from coarsecalc.acceptance import TREE_RADIAL_RHO
from coarsecalc.calculus import EIG_RESIDUAL_TOL
from coarsecalc.profiles import Backend, RateFunction, jp_subset
from coarsecalc.randomwalk import (
    DecayCurve,
    dirichlet_spectral_radius,
    exhaustion_radii,
    gamma_transform,
    iterate,
    lazy_srw,
    on_diagonal,
    pure_srw,
    spectral_radius,
)
from coarsecalc.viewpoint import Viewpoint, is_symmetric, \
    standard_viewpoint


def test_lazy_srw_is_symmetric_everywhere():
    for space in (zoo.path(9), zoo.grid(2, 5), zoo.random_geometric(20, 1)):
        h = 0.3 if space.n == 20 else 1.0
        assert is_symmetric(lazy_srw(space, h)).symmetric


def test_pure_srw_interior_row():
    g = zoo.grid(2, 5)
    vp = pure_srw(g, ambient_degree=4)
    center = 2 * 5 + 2
    sup, dens = vp.row(center)
    assert sup.size == 4
    np.testing.assert_allclose(dens, 0.25)


def test_pure_srw_substochastic_at_rim():
    g = zoo.grid(2, 5)
    vp = pure_srw(g, ambient_degree=4)
    mass = vp.dens @ g.measure
    assert mass[0] == pytest.approx(0.5)     # corner keeps 2 of 4 moves
    assert mass[2 * 5 + 2] == pytest.approx(1.0)


def test_iterate_conserves_mass():
    vp = lazy_srw(zoo.grid(2, 6), 1.0)
    dens = iterate(vp, 7, 20)
    mass = dens @ vp.space.measure
    np.testing.assert_allclose(mass, 1.0, atol=1e-12)
    assert np.all(dens >= -1e-15)


def test_on_diagonal_pinned_first_step():
    # lazy kernel on the 3x3 grid: c0 = 1/5, corner keeps 1 - 2/5 = 3/5;
    # u_1(corner) = (3/5)^2 + 2 (1/5)^2 = 11/25
    vp = lazy_srw(zoo.grid(2, 3), 1.0)
    curve = on_diagonal(vp, 0, [1, 2, 3])
    assert curve.values[0] == pytest.approx(11.0 / 25.0)
    assert np.all(np.diff(curve.values) <= 1e-15)


@pytest.mark.parametrize("steps,walk", [([1, 2, 3], 3), ([3, 4], 6),
                                        ([0, 5], 5)])
def test_on_diagonal_walks_once(monkeypatch, steps, walk):
    # one walk reaches both the grid's end and the cross-check's 2 n0
    vp = lazy_srw(zoo.grid(2, 3), 1.0)
    calls = []
    monkeypatch.setattr(randomwalk, "iterate", lambda vp, x, n: (
        calls.append(n) or iterate(vp, x, n)))
    curve = on_diagonal(vp, 4, steps)
    assert calls == [walk]
    dens = iterate(vp, 4, walk)
    assert curve.values.tolist() == [
        float(np.sum(dens[n] ** 2 * vp.space.measure)) for n in steps]

    # the cross-check reads the walk's row 2 n0
    def bent(vp, x, n):
        out = iterate(vp, x, n)
        out[2 * steps[0], x] *= 1.01
        return out
    monkeypatch.setattr(randomwalk, "iterate", bent)
    with pytest.raises(ArithmeticError, match="squared-density identity"):
        on_diagonal(vp, 4, steps)


def test_on_diagonal_requires_symmetry():
    space = zoo.path(5).with_measure(np.array([2.0, 1, 1, 1, 1]))
    from coarsecalc.viewpoint import standard_viewpoint
    with pytest.raises(ValueError, match="symmetric"):
        on_diagonal(standard_viewpoint(space, 1.0), 0, [1, 2])


def test_decay_curve_lookup():
    c = DecayCurve(np.array([1.0, 2.0]), np.array([0.5, 0.25]), 0, "test")
    assert c.at(2) == 0.25
    with pytest.raises(KeyError):
        c.at(3)


# ------------------------------------------------------------- transform


def test_gamma_transform_sqrt_closed_form():
    # phi(v) = sqrt(v) with cutoff: t = integral_vmin^M dv = M - vmin, so
    # gamma(t) = 1 / (t + vmin)
    phi = RateFunction.power(0.5)
    g = gamma_transform(phi, [0.5, 1.0, 4.0, 16.0], v_min=1e-6)
    for t, got in zip(g.t, g.gamma):
        assert got == pytest.approx(1.0 / (t + 1e-6), rel=1e-8)


def test_gamma_transform_linear_closed_form():
    # phi(v) = v: t = (M^2 - vmin^2)/2, so gamma(t) = (2t + vmin^2)^(-1/2)
    phi = RateFunction.power(1.0)
    g = gamma_transform(phi, [1.0, 2.0, 8.0], v_min=0.1)
    for t, got in zip(g.t, g.gamma):
        assert got == pytest.approx((2.0 * t + 0.01) ** -0.5, rel=1e-8)


@pytest.mark.parametrize("e,c,v_min", [
    (0.25, 3.0, 1e-4), (0.1, 1.0, 1e-3), (0.05, 1.0, 1e-3)])
def test_gamma_transform_small_exponent_closed_form(e, c, v_min):
    # t = c^2 (M^2e - v_min^2e) / 2e; quadrature over the decades M spans
    # here used to fail the round trip
    ts = np.geomspace(1e-2, 1e4, 50)
    g = gamma_transform(RateFunction.power(e, c), ts, v_min=v_min)
    M = (v_min ** (2 * e) + 2 * e * ts / c ** 2) ** (1 / (2 * e))
    np.testing.assert_allclose(g.gamma, 1.0 / M, rtol=1e-13)


def test_gamma_transform_constant_rate():
    # phi = c: t = c^2 log(M / v_min), so gamma = exp(-t / c^2) / v_min
    phi, v_min = RateFunction.power(0.0, 2.0), 1e-3
    ts = np.geomspace(1e-2, 1e3, 40)
    g = gamma_transform(phi, ts, v_min=v_min)
    np.testing.assert_allclose(g.gamma, np.exp(-ts / 4.0) / v_min,
                               rtol=1e-12)
    # t = 1e4 needs M = v_min e^2500, past the bracket's 1e280
    with pytest.raises(ValueError, match="unreachable"):
        gamma_transform(phi, [1e3, 1e4], v_min=v_min)


def test_gamma_transform_demands_cutoff_when_divergent():
    with pytest.raises(ValueError, match="v_min"):
        gamma_transform(RateFunction.log_power(1.0, 0.0), [1.0])


# phi is zero up to v = 2; quad across the kink at 2 used to miss 1e-9
ZERO_STRETCH = RateFunction.tabulated([1, 2, 4, 8, 100], [0, 0, 1.5, 3, 20])


def _forward(phi, a, b):
    """Tight-tolerance F = integral_a^b phi(v)^2 dv/v, split at the kinks.

    Quadrature runs over the offset w = v - a, and a tabulated phi is
    read off its knots shifted by a, so the nodes keep their precision
    on intervals much narrower than a (on [1, 1 + 1e-8] nodes in v are
    rounded to 2e-8 of the width, which moves the result by 4e-10)."""
    if phi.kind == "tabulated":
        args, values = phi.params["args"] - a, phi.params["values"]
        kinks = [k for k in args if 0 < k < b - a]

        def f(w):
            return np.interp(w, args, values)
    else:
        kinks = []

        def f(w):
            return phi(a + w)
    return quad(lambda w: f(w) ** 2 / (a + w), 0.0, b - a, epsrel=1e-13,
                limit=1000, points=kinks or None)[0]


@pytest.mark.parametrize("phi,v_min", [
    (RateFunction.power(0.5), 1e-6),
    (RateFunction.power(3.0, 0.1), 1e-2),
    (RateFunction.log_power(1.0, 0.5), 1e-3),
    (RateFunction.tabulated([0.5, 1, 3, 10], [0.1, 1, 2, 2.5]), 1e-3),
    (ZERO_STRETCH, 1e-3),
], ids=["sqrt", "cubic", "log_power", "tabulated", "zero_stretch"])
def test_gamma_transform_is_on_the_conservative_side(phi, v_min):
    # Newton in log M approaches the root from the right, so an
    # independent integral up to M = 1/gamma reaches t: gamma errs low
    ts = np.geomspace(1e-2, 1e2, 30)
    g = gamma_transform(phi, ts, v_min=v_min)
    for t, gam in zip(g.t, g.gamma):
        assert _forward(phi, v_min, 1.0 / gam) >= t * (1.0 - 1e-9)


@pytest.mark.parametrize("phi,a,b", [
    (RateFunction.power(0.5), 1.0, 1.0 + 1e-9),
    (RateFunction.power(3.0, 0.1), 7.0, 7.0 * (1.0 + 1e-6)),
    (RateFunction.power(0.25, 3.0), 1e-4, 1e2),
    (RateFunction.power(0.0, 2.0), 1e-3, 1e3),
    (RateFunction.power(0.0, 2.0), 5.0, 5.0 + 1e-9),
    (RateFunction.tabulated([1, 1 + 1e-8], [0, 1]), 1.0, 1.0 + 1e-8),
    (RateFunction.tabulated([1000, 1000.01], [0, 1e-3]), 1000.0, 1000.01),
    (RateFunction.tabulated([0.5, 1, 3, 10], [0.1, 1, 2, 2.5]), 0.1, 50.0),
    (RateFunction.tabulated([0.5, 1, 3, 10], [0.1, 1, 2, 2.5]), 1.2, 1.3),
    (ZERO_STRETCH, 1e-3, 150.0),
    (ZERO_STRETCH, 1.5, 3.0),
    (ZERO_STRETCH, 5.0, 5.0 * (1.0 + 1e-10)),
], ids=["sqrt_short", "cubic_short", "quartic_root_long", "constant_long",
        "constant_short", "tiny_segment", "steep_far_segment",
        "both_clamped_ends", "inside_one_segment", "zero_stretch",
        "zero_stretch_kink", "zero_stretch_short"])
def test_exact_integral_matches_forward_quad(phi, a, b):
    # no quad call: power and tabulated rates are integrated in closed form
    got = randomwalk._phi2_integral(phi)(a, b)
    want = _forward(phi, a, b)
    assert want > 0
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_gamma_transform_log_power_matches_forward_integral():
    phi = RateFunction.log_power(-0.5, 1.0, 2.0)
    v_min = 1e-4
    Ms = np.geomspace(1e-3, 1e5, 17)
    ts = [_forward(phi, v_min, M) for M in Ms]
    g = gamma_transform(phi, ts, v_min=v_min)
    np.testing.assert_allclose(g.gamma, 1.0 / Ms, rtol=1e-9)


def test_gamma_transform_zero_stretch_tabulated_rate():
    # used to raise "gamma round-trip failed at t=0.01"
    g = gamma_transform(ZERO_STRETCH, np.geomspace(1e-2, 1e2, 50),
                        v_min=1e-3)
    assert g.tail_estimate == 0.0
    assert np.all(1.0 / g.gamma > 2.0)
    assert np.all(np.diff(g.gamma) < 0)


def test_decay_vs_profile_quad_calls_per_grid_point(monkeypatch):
    # the bisection took about 42 quad calls per t on a power rate; power
    # and tabulated rates now take none, log_power keeps Newton's few
    calls = []
    real = randomwalk.quad
    monkeypatch.setattr(randomwalk, "quad",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    space = zoo.path(192)
    vp = lazy_srw(space, 1.0)
    rep = randomwalk.decay_vs_profile(space, vp, RateFunction.power(1.0),
                                      range(1, 193), centers=[96])
    assert rep.status == "ok"
    assert calls == []
    for phi in (ZERO_STRETCH,
                RateFunction.tabulated([0.5, 1, 3, 10], [0.1, 1, 2, 2.5])):
        gamma_transform(phi, np.geomspace(1e-2, 1e2, 160), v_min=1e-3)
    assert calls == []
    rep = randomwalk.decay_vs_profile(space, vp,
                                      RateFunction.log_power(1.0, 1.0),
                                      range(1, 193), centers=[96])
    assert rep.status == "ok"
    assert 0 < len(calls) <= 12 * 160


def test_gamma_interpolation():
    phi = RateFunction.power(0.5)
    g = gamma_transform(phi, [1.0, 2.0, 4.0], v_min=1e-6)
    mid = g.at(3.0)
    assert g.gamma[2] < mid < g.gamma[1]


# ------------------------------------------------------- decay vs profile


def test_decay_vs_profile_lattice_slope():
    space = zoo.grid(2, 32)
    vp = lazy_srw(space, 1.0)
    rep = randomwalk.decay_vs_profile(space, vp, RateFunction.power(0.5),
                                      n_grid=range(1, 65),
                                      centers=[16 * 32 + 16])
    assert rep.status == "ok"
    assert rep.slope_decay == pytest.approx(-1.0, abs=0.15)
    assert np.isfinite(rep.best_c)


def test_nash_from_decay_dominating_curve():
    g = zoo.grid(2, 8)
    vp = lazy_srw(g, 1.0)
    steps = np.arange(1, 33)
    per_point = np.vstack([on_diagonal(vp, x, steps).values
                           for x in range(g.n)])
    decay = DecayCurve(steps.astype(float), per_point.max(axis=0), 0,
                       vp.kind)
    rng = np.random.default_rng(12)
    fields = [rng.standard_normal(g.n) for _ in range(6)]
    for x in (0, 27):
        spike = np.zeros(g.n)
        spike[x] = 1.0
        fields.append(spike)
    rep = randomwalk.nash_from_decay(g, vp, decay, fields)
    assert rep.passes
    evaluated = [e for e in rep.entries if not e.skipped]
    assert evaluated and all(np.isfinite(e.constant) for e in evaluated)


# --------------------------------------------------------------- spectra


def test_spectral_radius_of_tree_against_tridiagonal_reduction():
    # the radial reduction of the depth-6 tree walk is a (depth+1)-point
    # birth-death chain whose top eigenvalue LAPACK can do exactly
    depth = 6
    off = np.array([0.5] + [np.sqrt(3.0) / 4.0] * (depth - 1))
    want = eigvalsh_tridiagonal(np.zeros(depth + 1), off)[-1]
    tree = zoo.regular_tree(4, depth)
    rho, residual = spectral_radius(pure_srw(tree, ambient_degree=4))
    assert rho == pytest.approx(want, abs=1e-12)
    assert 0 <= residual <= EIG_RESIDUAL_TOL


def test_lattice_radius_below_one_and_growing():
    rhos = []
    for L in (8, 16):
        rho, _ = spectral_radius(pure_srw(zoo.grid(2, L), ambient_degree=4))
        assert rho < 1.0
        rhos.append(rho)
    assert rhos[0] < rhos[1]


def test_dirichlet_radius_monotone_in_subset():
    vp = lazy_srw(zoo.path(30), 1.0)
    inner, _ = dirichlet_spectral_radius(vp, list(range(10, 16)))
    outer, _ = dirichlet_spectral_radius(vp, list(range(5, 25)))
    whole, _ = spectral_radius(vp)
    assert inner < outer <= whole + 1e-12


def test_one_form_per_viewpoint(monkeypatch):
    # the radii and exact viewpoint J_2 all read the kernel's one form
    vp = lazy_srw(zoo.path(40), 1.0)
    subsets = [list(range(20 - k, 20 + k)) for k in (3, 6, 12, 19)]
    calls = []
    build = calculus.l2_gradient_form
    monkeypatch.setattr(calculus, "l2_gradient_form",
                        lambda *a, **k: calls.append(1) or build(*a, **k))
    want = [dirichlet_spectral_radius(vp, a)[0] for a in subsets]
    spectral_radius(vp)
    assert exhaustion_radii(vp, subsets) == want
    jp_subset(vp.space, Backend.viewpoint(vp), subsets[0], 2)
    assert len(calls) == 1
    assert vp.space._forms == {}


def test_fresh_viewpoints_leave_no_form_on_the_space():
    space = zoo.grid(2, 6)
    for _ in range(5):
        vp = lazy_srw(space, 1.0)
        spectral_radius(vp)
        jp_subset(space, Backend.viewpoint(vp), [0, 1, 6], 2)
        assert vp._form is not None
    assert space._forms == {}


def test_form_of_a_viewpoint_on_another_space_is_refused():
    # the form is memoised on the viewpoint, so it must be its own space's
    vp = lazy_srw(zoo.path(9), 1.0)
    moved = vp.space.with_measure(np.linspace(1.0, 2.0, 9))
    with pytest.raises(ValueError, match="another space"):
        jp_subset(moved, Backend.viewpoint(vp), [3, 4, 5], 2)
    assert vp._form is None


def _kernel_cases():
    cases = []
    for space in (zoo.grid(2, 8), zoo.regular_tree(3, 5),
                  zoo.random_geometric(60, 3), zoo.grid(2, 20)):
        mu = np.random.default_rng(1).uniform(0.5, 2.0, space.n)
        cases += [pytest.param(space, None, id=f"lazy-{space.name}"),
                  pytest.param(space.with_measure(mu), None,
                               id=f"lazy-{space.name}-mu")]
    for space in (zoo.grid(2, 8), zoo.grid(2, 12), zoo.grid(2, 20),
                  zoo.regular_tree(4, 6)):
        cases.append(pytest.param(space, 4, id=f"pure-{space.name}"))
    return cases


@pytest.mark.parametrize("space, degree", _kernel_cases())
def test_radii_match_the_sliced_kernel_oracle(space, degree):
    # S = diag(m) - Q/2 on A is diags(sqrt mu) @ dens @ diags(sqrt mu)
    # compressed to A, whatever the row masses m
    vp = lazy_srw(space, 1.0) if degree is None else \
        pure_srw(space, ambient_degree=degree)
    root = diags(np.sqrt(space.measure))
    M = (root @ vp.dens @ root).tocsr()
    subsets = [None, np.arange(0, space.n, 2),
               np.arange(2 * space.n // 3)]
    if space.n > calculus.DENSE_EIG_SIZE:
        assert any(a is not None and a.size > calculus.DENSE_EIG_SIZE
                   for a in subsets)
    got = [spectral_radius(vp)] + \
        [dirichlet_spectral_radius(vp, a) for a in subsets[1:]]
    for a, (rho, residual) in zip(subsets, got):
        block = (M if a is None else M[a][:, a]).toarray()
        assert abs(rho - np.abs(np.linalg.eigvalsh(block)).max()) <= 1e-14
        assert 0 <= residual <= EIG_RESIDUAL_TOL
    assert exhaustion_radii(vp, subsets[1:]) == [r for r, _ in got[1:]]


def test_radius_of_a_block_with_no_edge_above_the_dense_size():
    # the leaves of a tree: a zero block, which Lanczos cannot start on
    space = zoo.regular_tree(4, 6)
    vp = pure_srw(space, ambient_degree=4)
    for m in (200, 300):
        assert (m > calculus.DENSE_EIG_SIZE) == (m == 300)
        A = list(range(space.n - m, space.n))
        assert dirichlet_spectral_radius(vp, A) == (0.0, 0.0)


def test_spectral_radius_refuses_a_non_symmetric_kernel():
    # the form is symmetric whatever the kernel, so only the check stands
    # between a non-symmetric kernel and a wrong radius
    vp = standard_viewpoint(zoo.path(9), 1.0)
    assert not is_symmetric(vp).symmetric
    for call in (lambda: spectral_radius(vp),
                 lambda: dirichlet_spectral_radius(vp, [3, 4, 5]),
                 lambda: exhaustion_radii(vp, [[3, 4, 5]])):
        with pytest.raises(ValueError, match="symmetric viewpoint"):
            call()


def test_spectral_radius_refuses_a_negative_density():
    # such a kernel is no walk, and the largest eigenvalue of S need not
    # be its spectral radius; Viewpoint itself accepts it
    space = zoo.path(6)
    dens = lazy_srw(space, 1.0).dens.toarray()
    dens[2, 3] = dens[3, 2] = -0.1
    vp = Viewpoint(space, 1.0, dens, None)
    assert is_symmetric(vp).symmetric
    for call in (lambda: spectral_radius(vp),
                 lambda: dirichlet_spectral_radius(vp, [1, 2, 3]),
                 lambda: exhaustion_radii(vp, [[1, 2, 3]])):
        with pytest.raises(ValueError, match="nonnegative densities"):
            call()


def _two_balls():
    # a reducible S with a repeated top eigenvalue: two disjoint l1 balls
    # of grid(2,32), mirror images of each other, joined by no edge
    space = zoo.grid(2, 32)
    A = np.union1d(space.ball(8 * 32 + 8, 11.0),
                   space.ball(23 * 32 + 23, 11.0))
    return pure_srw(space, ambient_degree=4), A


def _lazy_mu():
    space = zoo.grid(2, 20)
    mu = np.random.default_rng(5).uniform(0.5, 2.0, space.n)
    return lazy_srw(space.with_measure(mu), 1.0), np.arange(300)


# (name, () -> (kernel, subset or None)): pure walks on tree balls and
# boxes, lazy walks on a random geometric graph and under a weighted mu,
# a pure walk whose computed diagonal of S rounds below zero, and a
# reducible S, on both sides of DENSE_EIG_SIZE
PERRON_CASES = {
    **{f"tree{d}": (lambda d=d: (pure_srw(zoo.regular_tree(4, d),
                                          ambient_degree=4), None))
       for d in (4, 5, 6, 7)},
    **{f"box{L}": (lambda L=L: (pure_srw(zoo.grid(2, L), ambient_degree=4),
                                None))
       for L in (8, 16, 17, 24, 32)},
    "lazy_rgg": lambda: (lazy_srw(zoo.random_geometric(600, 4), 0.08),
                         np.arange(0, 600, 2)),
    "rounding_diag": lambda: (pure_srw(zoo.random_geometric(600, 1),
                                       step=0.1), None),
    "lazy_mu": _lazy_mu,
    "two_balls": _two_balls,
}


@pytest.mark.parametrize("name", sorted(PERRON_CASES))
def test_radius_is_the_perron_root(name, monkeypatch):
    # rho is the top eigenvalue of S >= 0: it is max |eigenvalue| of the
    # block and lies in the Collatz-Wielandt bracket [min S1, max S1]
    vp, A = PERRON_CASES[name]()
    starts = []
    monkeypatch.setattr(calculus, "eigsh", lambda *a, **k: starts.append(
        k["v0"]) or eigsh(*a, **k))
    rho, residual = spectral_radius(vp) if A is None else \
        dirichlet_spectral_radius(vp, A)
    root = diags(np.sqrt(vp.space.measure))
    M = (root @ vp.dens @ root).tocsr()
    block = M if A is None else M[A][:, A]
    tol = 1e-12 * max(1.0, rho)
    if block.shape[0] > 1500:
        # the tree of depth 7: its top eigenvector is radial, and the
        # pinned value comes from the radial tridiagonal
        assert abs(rho - TREE_RADIAL_RHO[7]) <= tol
    else:
        assert abs(rho - np.abs(np.linalg.eigvalsh(block.toarray())).max()) \
            <= tol
    rows = np.asarray(block.sum(axis=1)).ravel()
    assert rows.min() - tol <= rho <= rows.max() + tol
    assert 0 <= residual <= EIG_RESIDUAL_TOL
    if name == "rounding_diag":
        S = diags(vp.dens @ vp.space.measure) - \
            calculus._form(vp.space, vp=vp) / 2
        assert (S.diagonal() < 0).sum() > 100
    if block.shape[0] > calculus.DENSE_EIG_SIZE:
        assert len(starts) == 1 and np.all(starts[0] == 1.0)
    else:
        assert starts == []


def test_only_the_top_pair_of_a_nonnegative_matrix_starts_from_ones(
        monkeypatch):
    # exact J_2 ("SA") blocks and the candidate eigenfield ("LA", k = 2)
    # keep the ramp start, so their outputs stay bit for bit; path(300)'s
    # family reaches its level rows (grid(2,20)'s is full before them)
    starts = []
    monkeypatch.setattr(calculus, "eigsh", lambda *a, **k: starts.append(
        k["v0"]) or eigsh(*a, **k))
    space = zoo.grid(2, 20)
    vp = lazy_srw(space, 1.0)
    jp_subset(space, Backend.lp(1.0), np.arange(300), 2)
    jp_subset(space, Backend.viewpoint(vp), np.arange(300), 2)
    line = zoo.path(300)
    profiles.candidate_subsets(line, Backend.viewpoint(lazy_srw(line, 1.0)))
    spectral_radius(vp)
    assert [v.size for v in starts] == [300, 300, 300, 400]
    assert all(np.array_equal(v, np.ones(v.size) + np.linspace(
        0.0, 1e-3, v.size)) for v in starts[:3])
    assert np.all(starts[3] == 1.0)


def test_radius_reruns_repeat_after_a_lanczos_breakdown():
    # on the tree's last 400 points S = 0.8 I: the ones start spans an
    # invariant subspace at once, and ARPACK restarts from its generator
    tree = zoo.regular_tree(4, 6)
    lazy = lazy_srw(tree, 1.0)
    big = zoo.regular_tree(4, 8)
    pure = pure_srw(big, ambient_degree=4)
    balls = [big.ball(0, float(k)) for k in (5, 6, 7)]
    box = lazy_srw(zoo.grid(2, 20), 1.0)
    rng = np.random.default_rng(3)

    def scalar():
        # unseeded Lanczos runs in between must not reach the radii
        eigsh(diags(rng.uniform(size=500)), k=1, which="LA")
        return dirichlet_spectral_radius(lazy, np.arange(tree.n - 400,
                                                         tree.n))

    def radii():
        got = [scalar()]
        eigsh(diags(rng.uniform(size=500)), k=1, which="LA")
        got += [dirichlet_spectral_radius(pure, b) for b in balls]
        got.append(spectral_radius(box))
        return np.array(got)

    first = radii()
    assert first[0, 0] == pytest.approx(0.8, abs=1e-15)
    for _ in range(2):
        assert radii().tobytes() == first.tobytes()
    # the restart's draw shows on the scalar block, so ask it often
    for _ in range(40):
        assert np.array(scalar()).tobytes() == first[0].tobytes()


def test_exhaustion_radii_nondecreasing():
    vp = lazy_srw(zoo.path(40), 1.0)
    subsets = [list(range(20 - k, 20 + k)) for k in (3, 6, 12, 19)]
    rhos = exhaustion_radii(vp, subsets)
    assert all(a <= b + 1e-12 for a, b in zip(rhos, rhos[1:]))
