"""Gradients, Laplacians, eigensolves, energy identities, coarea,
comparisons."""

import copy

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import ArpackNoConvergence

from coarsecalc import calculus, profiles, randomwalk, viewpoint, zoo
from coarsecalc.randomwalk import lazy_srw, pure_srw
from coarsecalc.viewpoint import random_symmetric_viewpoint, standard_viewpoint


def test_lp_norm_pinned():
    space = zoo.path(2)
    f = np.array([3.0, 4.0])
    assert calculus.lp_norm(space, f, 2) == pytest.approx(5.0)
    assert calculus.lp_norm(space, f, 1) == pytest.approx(7.0)
    assert calculus.lp_norm(space, f, np.inf) == pytest.approx(4.0)


def test_grad_sup_of_indicator():
    space = zoo.path(10)
    f = np.zeros(10)
    f[:5] = 1.0
    g = calculus.grad_sup(space, f, 1.0)
    # only the two rim points see a jump inside their radius-1 ball
    np.testing.assert_allclose(g, [0, 0, 0, 0, 1, 1, 0, 0, 0, 0])


def test_grad_lp_between_zero_and_sup():
    space = zoo.grid(2, 6)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(space.n)
    sup = calculus.grad_sup(space, f, 1.0)
    for p in (1.0, 2.0, 4.0):
        g = calculus.grad_lp(space, f, 1.0, p)
        assert np.all(g <= sup + 1e-12)
        assert np.all(g >= 0)


def test_energy_identity_pinned_three_points():
    # by hand on the 3-point path with the uniform-floor lazy kernel:
    # P = [[2/3,1/3,0],[1/3,1/3,1/3],[0,1/3,2/3]], so f = (1, 0, -1) gives
    # (I-P)f = (1/3, 0, -1/3) and a Dirichlet form of 2/3.
    space = zoo.path(3)
    vp = lazy_srw(space, 1.0)
    dirichlet, grad_sq = calculus.energy(vp, np.array([1.0, 0.0, -1.0]))
    assert dirichlet == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert grad_sq == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_two_step_identity_small():
    space = zoo.path(3)
    vp = lazy_srw(space, 1.0)
    f = np.array([1.0, 0.0, -1.0])
    lhs, rhs = calculus.p2_energy_identity(vp, f)
    assert lhs == pytest.approx(2.0 * rhs, rel=1e-12)


def test_energy_requires_symmetry():
    space = zoo.path(5).with_measure(np.array([1.0, 3, 1, 1, 1]))
    vp = standard_viewpoint(space, 1.0)
    with pytest.raises(ValueError, match="symmetric"):
        calculus.energy(vp, np.ones(5))


@given(st.integers(0, 2 ** 32 - 1))
def test_energy_identity_random_kernels(seed):
    rng = np.random.default_rng(seed)
    space = zoo.random_geometric(20, seed=seed % 1000)
    vp = random_symmetric_viewpoint(space, 0.3, rng)
    f = rng.standard_normal(space.n)
    dirichlet, grad_sq = calculus.energy(vp, f)   # self-asserting
    assert grad_sq == pytest.approx(2.0 * dirichlet, rel=1e-9, abs=1e-12)


def test_coarea_indicator_hits_upper_bound():
    space = zoo.path(10)
    f = np.zeros(10)
    f[3:6] = 1.0
    lower, mid, upper = calculus.coarea(space, f, 1.0)
    # indicator of {3,4,5}: boundary measure 4, sup-gradient total 4
    assert upper == pytest.approx(4.0)
    assert mid == pytest.approx(upper)
    assert lower == pytest.approx(2.0)


def test_coarea_rejects_negative_fields():
    with pytest.raises(ValueError, match="nonnegative"):
        calculus.coarea(zoo.path(5), np.array([1.0, -1, 0, 0, 0]), 1.0)


@given(st.integers(0, 10 ** 6))
def test_coarea_sandwich_random_fields(seed):
    rng = np.random.default_rng(seed)
    space = zoo.grid(2, 4)
    f = rng.random(space.n)
    lower, mid, upper = calculus.coarea(space, f, 1.0)
    assert lower <= mid + 1e-12 and mid <= upper + 1e-12


def test_laplacian_annihilates_constants():
    vp = standard_viewpoint(zoo.grid(2, 5), 1.0)
    out = calculus.laplacian(vp, np.full(25, 7.0))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_laplacian_positive_against_field():
    vp = standard_viewpoint(zoo.path(8), 1.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = rng.standard_normal(8)
        for p in (2, 3.0):
            val = np.sum(calculus.laplacian(vp, f, p=p) * f
                         * vp.space.measure)
            assert val >= -1e-10


def test_dirichlet_eigenvalue_monotone_in_domain():
    # exact J_2 under a symmetric kernel is delta^(-1/2), delta the
    # Dirichlet eigenvalue of the subset: a larger domain has the smaller
    # delta, so the larger J_2
    vp = lazy_srw(zoo.path(20), 1.0)
    backend = profiles.Backend.viewpoint(vp)
    small = profiles.jp_subset(vp.space, backend, list(range(5, 9)), 2)
    large = profiles.jp_subset(vp.space, backend, list(range(3, 15)), 2)
    assert small.mode == large.mode == "exact"
    assert 0 < small.value < large.value < np.inf


def _walk_matrix(space):
    return pure_srw(space, ambient_degree=4).symmetric_matrix().tocsr()


# (name, matrix): bipartite boxes and tree balls (spectrum symmetric about
# 0, so the top and bottom pairs are +rho and -rho), a lazy walk, and
# gradient forms handed over dense, on both sides of DENSE_EIG_SIZE
EIG_CASES = {
    "box8": lambda: _walk_matrix(zoo.grid(2, 8)),
    "box16": lambda: _walk_matrix(zoo.grid(2, 16)),
    "box17": lambda: _walk_matrix(zoo.grid(2, 17)),
    "box24": lambda: _walk_matrix(zoo.grid(2, 24)),
    "tree4": lambda: _walk_matrix(zoo.regular_tree(4, 4)),
    "tree5": lambda: _walk_matrix(zoo.regular_tree(4, 5)),
    "lazy_rgg300": lambda: lazy_srw(zoo.random_geometric(300, 4), 0.12)
    .symmetric_matrix().tocsr(),
    "form_box6": lambda: calculus.l2_gradient_form(
        zoo.grid(2, 6), 1.0).toarray()[1:, 1:],
    "form_box18": lambda: calculus.l2_gradient_form(
        zoo.grid(2, 18), 1.0).toarray()[1:, 1:],
}


def test_eig_cases_straddle_the_dense_size():
    sizes = [make().shape[0] for make in EIG_CASES.values()]
    assert min(sizes) <= calculus.DENSE_EIG_SIZE < max(sizes)
    assert calculus.DENSE_EIG_SIZE in sizes     # box16: the last dense size


@pytest.mark.parametrize("name", sorted(EIG_CASES))
def test_symmetric_eig_matches_dense_oracle(name):
    M = EIG_CASES[name]()
    dense = M.toarray() if hasattr(M, "toarray") else M
    w = np.linalg.eigvalsh(dense)
    for which in ("LA", "SA"):
        for k in (1, 2):
            theta, V, res = calculus.symmetric_eig(M, which, k)
            assert theta.shape == (k,) and V.shape == (M.shape[0], k)
            assert np.all(np.diff(theta) >= 0)
            tol = 1e-12 * np.maximum(1.0, np.abs(theta))
            want = w[-k:] if which == "LA" else w[:k]
            assert np.all(np.abs(theta - want) <= tol)
            bound = calculus.EIG_RESIDUAL_TOL * np.maximum(1.0, np.abs(theta))
            direct = np.linalg.norm(dense @ V - V * theta, axis=0)
            assert np.all(res <= bound) and np.all(direct <= bound)
            np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0,
                                       rtol=1e-12)
            again = calculus.symmetric_eig(M, which, k)
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip((theta, V, res), again))


def test_symmetric_eig_raises_on_residual_and_nonconvergence(monkeypatch):
    small = _walk_matrix(zoo.grid(2, 4))
    large = _walk_matrix(zoo.grid(2, 17))
    monkeypatch.setattr(calculus, "EIG_RESIDUAL_TOL", 0.0)
    for M in (small, large):
        with pytest.raises(ArithmeticError, match="residual"):
            calculus.symmetric_eig(M, "LA")
    monkeypatch.undo()

    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([]),
                                  np.zeros((large.shape[0], 0)))

    monkeypatch.setattr(calculus, "eigsh", stalled)
    with pytest.raises(ArithmeticError, match="did not converge"):
        calculus.symmetric_eig(large, "LA")
    calculus.symmetric_eig(small, "LA")          # the dense path is untouched


def test_sandwich_report_holds_across_exponents():
    space = zoo.random_geometric(30, seed=21)
    vp = standard_viewpoint(space, 0.3)
    rng = np.random.default_rng(4)
    for q, q2 in ((1.0, 2.0), (2.0, np.inf), (1.0, np.inf)):
        rep = calculus.sandwich_report(vp, rng.standard_normal(space.n),
                                       q, q2)
        assert rep.holds


def test_smoothing_report_bound():
    space = zoo.grid(2, 8)
    rng = np.random.default_rng(6)
    rep = calculus.smoothing_report(space, rng.standard_normal(space.n), 1.0)
    assert rep.holds
    assert rep.measured <= rep.bound + 1e-9


# Per-point loops over kernel rows: the oracle for the CSR reductions in
# grad_viewpoint, laplacian (p != 2) and p2_energy_identity.
def _loop_grad(vp, f, p):
    out = np.zeros(vp.space.n)
    for x in range(vp.space.n):
        sup, dens = vp.row(x)
        dev = np.abs(f[sup] - f[x])
        if np.isinf(p):
            out[x] = dev.max() if sup.size else 0.0
        else:
            out[x] = np.sum(dev ** p * dens * vp.space.measure[sup]) ** (1 / p)
    return out


def _loop_laplacian(vp, f, p):
    out = np.zeros(vp.space.n)
    for x in range(vp.space.n):
        sup, dens = vp.row(x)
        t = f[x] - f[sup]
        mag = np.abs(t)
        term = np.where(mag > 0, mag ** (p - 2) * t, 0.0)
        out[x] = np.sum(term * dens * vp.space.measure[sup])
    return out


def _loop_two_step_lhs(vp, f):
    mu = vp.space.measure
    dens2 = csr_matrix(vp.dens @ diags(mu) @ vp.dens)
    lhs = 0.0
    for x in range(vp.space.n):
        sl = slice(dens2.indptr[x], dens2.indptr[x + 1])
        sup = dens2.indices[sl]
        dev = f[sup] - f[x]
        lhs += mu[x] * np.sum(dev * dev * dens2.data[sl] * mu[sup])
    return lhs


def _close(a, b):
    """Agreement to 1e-13 relative to the largest entry."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return np.abs(a - b).max() <= 1e-13 * max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("make,h", [
    (lambda: zoo.path(12), 1.0), (lambda: zoo.grid(2, 5), 1.0),
    (lambda: zoo.regular_tree(3, 3), 1.0),
    (lambda: zoo.random_geometric(40, 3), 0.3)],
    ids=["path", "grid", "tree", "rgg"])
@pytest.mark.parametrize("measure", ["unit", "random"])
def test_kernel_reductions_match_row_loops(make, h, measure):
    rng = np.random.default_rng(17)
    space = make()
    if measure == "random":
        space = space.with_measure(rng.uniform(0.5, 2.0, space.n))
    for vp in (lazy_srw(space, h), standard_viewpoint(space, h),
               random_symmetric_viewpoint(space, h, rng)):
        f = rng.standard_normal(space.n)
        for p in (1, 1.5, 2, 3, np.inf):
            assert _close(calculus.grad_viewpoint(vp, f, p),
                          _loop_grad(vp, f, p)), (vp.kind, p)
        with np.errstate(divide="ignore", invalid="ignore"):
            for p in (1.5, 3):
                assert _close(calculus.laplacian(vp, f, p),
                              _loop_laplacian(vp, f, p)), (vp.kind, p)
        if calculus.is_symmetric(vp).symmetric:
            assert _close(calculus.p2_energy_identity(vp, f)[0],
                          _loop_two_step_lhs(vp, f)), vp.kind


# ----------------------------------------------------------------------
# the memos on a Viewpoint: the symmetry verdict and the two-step kernel


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_symmetry_report_is_built_once_per_viewpoint(monkeypatch):
    builds = _count_calls(monkeypatch, viewpoint, "_symmetry_report")
    space = zoo.path(12)
    vp = lazy_srw(space, 1.0)
    f = np.random.default_rng(3).standard_normal(space.n)
    for _ in range(3):
        calculus.energy(vp, f)
        calculus.p2_energy_identity(vp, f)
    randomwalk.on_diagonal(vp, 0, [1, 2, 4])
    randomwalk.spectral_radius(vp)
    assert calculus.is_symmetric(vp) is vp._symmetry
    assert len(builds) == 1
    calculus.energy(lazy_srw(space, 1.0), f)   # a new kernel, a new report
    assert len(builds) == 2


def test_two_step_kernel_is_built_once_and_read_only(monkeypatch):
    products = _count_calls(monkeypatch, calculus, "diags")
    rng = np.random.default_rng(5)
    space = zoo.grid(2, 5)
    vp = random_symmetric_viewpoint(space, 1.0, rng)
    assert vp._two_step is None
    for _ in range(6):
        calculus.p2_energy_identity(vp, rng.standard_normal(space.n))
    assert len(products) == 1
    dens2 = vp._two_step
    assert calculus._two_step(vp) is dens2
    mu = space.measure
    np.testing.assert_array_equal(
        dens2.toarray(), csr_matrix(vp.dens @ diags(mu) @ vp.dens).toarray())
    for arr in (dens2.data, dens2.indices, dens2.indptr):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_builders_start_with_empty_memos_and_deep_copies_keep_them():
    space = zoo.path(8).with_measure(np.linspace(1.0, 2.0, 8))
    std = standard_viewpoint(space, 1.0)
    assert not calculus.is_symmetric(std).symmetric
    sym, _ = viewpoint.symmetrize(space, std)
    rng = np.random.default_rng(0)
    first = random_symmetric_viewpoint(space, 1.0, rng)
    f = rng.standard_normal(space.n)
    calculus.p2_energy_identity(first, f)
    randomwalk.spectral_radius(first)
    second = random_symmetric_viewpoint(space, 1.0, rng)
    for vp in (sym, second):
        assert (vp._symmetry, vp._two_step, vp._form) == (None, None, None)
    copied = copy.deepcopy(first)
    assert copied._symmetry == first._symmetry
    np.testing.assert_array_equal(copied._two_step.toarray(),
                                  first._two_step.toarray())
    np.testing.assert_array_equal(copied._form, first._form)
    assert calculus.p2_energy_identity(copied, f) == \
        calculus.p2_energy_identity(first, f)


def _memo_arrays(memo):
    """Every array of a memo slot: arrays, sparse matrices' arrays, and
    those held in dicts and tuples."""
    if isinstance(memo, dict):
        return [a for m in memo.values() for a in _memo_arrays(m)]
    if isinstance(memo, tuple):
        return [a for m in memo for a in _memo_arrays(m)]
    if hasattr(memo, "indptr"):
        return [memo.data, memo.indices, memo.indptr]
    return [memo]


@pytest.mark.parametrize("make", [lambda: zoo.grid(2, 4),
                                  lambda: zoo.grid(2, 17)],
                         ids=["dense_forms", "sparse_forms"])
def test_deep_copies_keep_every_memo_read_only(make):
    # every memo slot of a space and of a viewpoint, filled, then copied as
    # the benchmark copies its inputs: the copies hold equal read-only
    # arrays, and the originals stay read-only
    space = make()
    vp = lazy_srw(space, 1.0)
    calculus._form(space, 1.0)
    calculus._form(space, vp=vp)
    calculus.p2_energy_identity(vp, np.arange(space.n, dtype=float))
    space.neighbourhoods(2.0)
    # exhaustive tables exist up to EXACT_ENUM_LIMIT points only
    tables = space.n <= profiles.EXACT_ENUM_LIMIT
    if tables:
        profiles._space_tables(space, profiles.Backend.sup(1.0))
        profiles._space_tables(space, profiles.Backend.lp(1.0))
    slots = {"space": ("_balls", "_forms") + ("_tables",) * tables,
             "vp": ("_form", "_two_step")}
    inputs = {"space": space, "vp": vp}
    copied = copy.deepcopy(inputs)
    assert copied["vp"].space is copied["space"]
    for name, attrs in slots.items():
        for attr in attrs:
            orig = getattr(inputs[name], attr)
            got = getattr(copied[name], attr)
            assert orig is not None and (not isinstance(orig, dict) or orig)
            want, arrays = _memo_arrays(orig), _memo_arrays(got)
            assert len(arrays) == len(want) > 0
            for a, b in zip(arrays, want):
                assert a is not b and not np.shares_memory(a, b)
                assert not a.flags.writeable and not b.flags.writeable
                np.testing.assert_array_equal(a, b)
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = a
    assert copied["vp"]._symmetry == vp._symmetry
    # the copies still answer as the originals do
    f = np.linspace(-1.0, 1.0, space.n)
    assert calculus.p2_energy_identity(copied["vp"], f) == \
        calculus.p2_energy_identity(vp, f)


def test_an_asymmetric_viewpoint_raises_the_same_witness_on_every_call():
    space = zoo.path(5).with_measure(np.array([1.0, 3, 1, 1, 1]))
    std = standard_viewpoint(space, 1.0)
    vp = viewpoint.Viewpoint(space, 1.0, std.dens, std.certificate)
    rep = viewpoint._symmetry_report(vp)
    witness = (f"requires a symmetric viewpoint; worst pair "
               f"({rep.x},{rep.y}) differs by {rep.gap:g}")
    f = np.arange(5.0)
    for _ in range(3):
        for call, who in ((lambda: calculus.energy(vp, f), "energy"),
                          (lambda: calculus.p2_energy_identity(vp, f),
                           "p2_energy_identity"),
                          (lambda: randomwalk.on_diagonal(vp, 0, [1]),
                           "on_diagonal"),
                          (lambda: randomwalk.spectral_radius(vp),
                           "spectral radius")):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"{who} {witness}"
    assert calculus.is_symmetric(vp) == rep


def _unmemoised_energy(vp, f):
    """energy and p2_energy_identity as they read before the memos: the
    symmetry check aside, every step of both, inline."""
    mu = vp.space.measure
    dirichlet = float(np.sum((f - vp.dens @ (f * mu)) * f * mu))
    g = calculus.grad_viewpoint(vp, f, 2)
    grad_sq = float(np.sum(g * g * mu))
    dens2 = csr_matrix(vp.dens @ diags(mu) @ vp.dens)
    dev = f[dens2.indices] - np.repeat(f, np.diff(dens2.indptr))
    lhs = float(mu @ (csr_matrix((dev * dev * dens2.data, dens2.indices,
                                  dens2.indptr), shape=dens2.shape) @ mu))
    pf = vp.dens @ (f * mu)
    rhs = float(np.sum(f * f * mu) - np.sum(pf * pf * mu))
    return dirichlet, grad_sq, lhs, rhs


@pytest.mark.parametrize("make,h", [
    (lambda: zoo.path(12), 1.0), (lambda: zoo.grid(2, 5), 1.0),
    (lambda: zoo.grid(2, 5, "linf"), 1.0),
    (lambda: zoo.random_geometric(40, 3), 0.3)],
    ids=["path", "grid", "grid_linf", "rgg"])
@pytest.mark.parametrize("kind", ["lazy_srw", "symmetrized", "random"])
def test_memoised_identities_are_bitwise_the_unmemoised_path(make, h, kind):
    rng = np.random.default_rng(29)
    space = make()
    if kind == "lazy_srw":
        vp = lazy_srw(space, h)
    elif kind == "symmetrized":
        vp, space = viewpoint.symmetrize(space, standard_viewpoint(space, h))
    else:
        vp = random_symmetric_viewpoint(space, h, rng)
    for _ in range(5):
        f = rng.standard_normal(space.n)
        got = calculus.energy(vp, f) + calculus.p2_energy_identity(vp, f)
        assert np.array(got).tobytes() == \
            np.array(_unmemoised_energy(vp, f)).tobytes()


# ----------------------------------------------------------------------
# fields with NaN or +-inf


NONFINITE_CHECKS = {
    "energy": lambda vp, f: calculus.energy(vp, f),
    "p2_energy_identity": lambda vp, f: calculus.p2_energy_identity(vp, f),
    "sandwich_report": lambda vp, f: calculus.sandwich_report(vp, f, 2, 2),
    "coarea": lambda vp, f: calculus.coarea(vp.space, f, vp.h),
    "nash_check": lambda vp, f: profiles.nash_check(
        vp.space, vp, lambda v: v ** 0.5, [np.ones(vp.space.n), f]),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("check", sorted(NONFINITE_CHECKS))
def test_identity_checks_refuse_a_non_finite_field(check, bad):
    vp = lazy_srw(zoo.path(5), 1.0)
    f = np.array([0.0, bad, 1.0, 2.0, 0.0])
    with pytest.raises(ValueError,
                       match=rf"^field has a non-finite value {bad} at "
                             rf"point 1$"):
        NONFINITE_CHECKS[check](vp, f)
    f[1], f[3], f[4] = 1.0, bad, np.nan   # the first one is named
    with pytest.raises(ValueError, match=r"at point 3$"):
        NONFINITE_CHECKS[check](vp, f)
