"""Viewpoint construction, validation, symmetry, smoothing, persistence."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from coarsecalc import randomwalk, zoo
from coarsecalc.viewpoint import (
    Certificate,
    Viewpoint,
    Violation,
    apply,
    is_symmetric,
    load_viewpoint,
    random_symmetric_viewpoint,
    save_viewpoint,
    standard_viewpoint,
    symmetrize,
    validate,
    viewpoint_from_json,
    viewpoint_to_json,
)


@pytest.fixture
def path6():
    return zoo.path(6)


def test_standard_viewpoint_rows_are_probabilities(path6):
    vp = standard_viewpoint(path6, 1.0)
    # row x of the transition matrix is p_x(y) mu(y)
    np.testing.assert_allclose(vp.dens @ path6.measure, 1.0, atol=1e-12)
    assert vp.certificate.A >= 1.0
    assert vp.certificate.c > 0.0


def test_standard_viewpoint_uniform_on_balls(path6):
    vp = standard_viewpoint(path6, 1.0)
    sup, dens = vp.row(2)
    assert sorted(sup.tolist()) == [1, 2, 3]
    np.testing.assert_allclose(dens, 1.0 / 3.0)


def test_validate_raises_on_negative_density(path6):
    vp = standard_viewpoint(path6, 1.0)
    dens = vp.dens.toarray()
    dens[0, 0], dens[0, 1] = -0.5, 1.5
    with pytest.raises(ValueError, match="negative"):
        validate(path6, csr_matrix(dens), 1.0)


def test_validate_raises_on_nan_density(path6):
    # NaN compares false with 0 and sums to NaN, which no tolerance flags
    vp = standard_viewpoint(path6, 1.0)
    dens = vp.dens.toarray()
    dens[3, 2] = np.nan
    with pytest.raises(ValueError, match="row 3 has a non-finite density"):
        validate(path6, csr_matrix(dens), 1.0)


def test_validate_raises_on_mass_defect(path6):
    vp = standard_viewpoint(path6, 1.0)
    dens = vp.dens.toarray() * 0.9
    with pytest.raises(ValueError, match="probability"):
        validate(path6, csr_matrix(dens), 1.0)


def test_validate_reports_far_support_through_a(path6):
    # declaring a smaller scale than the kernel actually uses is legal;
    # the certificate absorbs it into the support factor A
    wide = standard_viewpoint(path6, 2.0)
    out = validate(path6, wide.dens, 1.0)
    assert isinstance(out, Certificate)
    assert out.A == pytest.approx(2.0)


def test_validate_flags_zero_density_inside_ball(path6):
    dens = np.zeros((6, 6))
    np.fill_diagonal(dens, 1.0)   # point masses never cover B(x, 1)
    out = validate(path6, csr_matrix(dens), 1.0)
    assert isinstance(out, Violation)
    assert out.axiom == "density floor"


def test_validate_accepts_standard(path6):
    vp = standard_viewpoint(path6, 1.0)
    out = validate(path6, vp.dens, 1.0)
    assert isinstance(out, Certificate)
    assert out.A == pytest.approx(vp.certificate.A)


def test_standard_not_symmetric_on_nonuniform_measure():
    space = zoo.path(6).with_measure(np.array([1.0, 2, 1, 1, 1, 1]))
    rep = is_symmetric(standard_viewpoint(space, 1.0))
    assert not rep.symmetric
    assert rep.gap > 0


def test_symmetry_verdict_does_not_depend_on_the_unit_of_mu():
    # densities scale as 1 / (unit of mu): at mu * 2^60 every gap of the
    # standard kernel was below an absolute 1e-12
    mu = np.random.default_rng(0).uniform(0.5, 2.0, 16)
    for k in (-60, 0, 60):
        space = zoo.grid(2, 4).with_measure(mu * 2.0 ** k)
        vp = standard_viewpoint(space, 1.0)
        assert not is_symmetric(vp).symmetric
        assert is_symmetric(symmetrize(space, vp)[0]).symmetric


def test_random_symmetric_viewpoint_is_symmetric():
    space = zoo.random_geometric(25, seed=2)
    vp = random_symmetric_viewpoint(space, 0.3, np.random.default_rng(5))
    assert is_symmetric(vp).symmetric


def test_symmetrize_reweights_by_ball_volume(path6):
    vp = standard_viewpoint(path6, 1.0)
    sym, reweighted = symmetrize(path6, vp)
    np.testing.assert_allclose(reweighted.measure, [2, 3, 3, 3, 3, 2])
    assert is_symmetric(sym).symmetric


def test_symmetrize_refuses_a_support_other_than_the_ball(path6):
    # a wider kernel declared at h = 1: row 0 reaches point 2, outside B(0, 1)
    wide = standard_viewpoint(path6, 2.0)
    vp = Viewpoint(path6, 1.0, wide.dens, wide.certificate)
    with pytest.raises(ValueError,
                       match=r"row 0 support differs from B\(x, h\)"):
        symmetrize(path6, vp)


def test_symmetrize_refuses_a_row_not_uniform_on_its_ball(path6):
    dens = standard_viewpoint(path6, 1.0).dens.toarray()
    dens[3, 2], dens[3, 4] = 0.25, 5.0 / 12.0   # row 3 still integrates to 1
    vp = Viewpoint(path6, 1.0, csr_matrix(dens), Certificate(1.0, 0.25))
    with pytest.raises(ValueError, match="row 3 is not uniform on its ball"):
        symmetrize(path6, vp)


def test_apply_preserves_constants(path6):
    vp = standard_viewpoint(path6, 1.0)
    out = apply(vp, np.full(6, 3.25))
    np.testing.assert_allclose(out, 3.25, atol=1e-12)


def test_kernel_file_with_a_repeated_support_point_is_rejected(path6):
    # read as two densities, [0, 1, 1] certified c = 0.25 while the
    # operator summed them to p_0(1) = 0.5
    doc = viewpoint_to_json(standard_viewpoint(path6, 1.0))
    doc["rows"][0] = {"x": 0, "support": [0, 1, 1],
                      "density": [0.5, 0.25, 0.25]}
    with pytest.raises(ValueError, match="row 0: support repeats point 1"):
        viewpoint_from_json(doc, path6)


def test_viewpoint_roundtrip(tmp_path, path6):
    vp = standard_viewpoint(path6, 1.0)
    p = tmp_path / "vp.json"
    save_viewpoint(vp, p)
    back = load_viewpoint(p, path6)
    np.testing.assert_allclose(back.dens.toarray(), vp.dens.toarray(),
                               atol=1e-15)
    assert back.h == vp.h


def test_repr_prints_the_certificate_only_when_there_is_one(path6):
    assert repr(randomwalk.pure_srw(path6)) == \
        "Viewpoint(h=1, kind='pure_srw', space='grid_1d_L6_l1')"
    assert repr(standard_viewpoint(path6, 1.0)) == \
        "Viewpoint(h=1, kind='standard', A=1, c=0.333333, " \
        "space='grid_1d_L6_l1')"


def test_a_viewpoint_leaves_the_callers_matrix_alone():
    # path(4)'s lazy kernel with one explicit zero: the viewpoint drops the
    # zero from its own copy, and later edits of the caller's matrix do
    # not reach it
    space = zoo.path(4)
    kernel = randomwalk.lazy_srw(space, 1.0).dens.toarray()
    rows, cols = np.nonzero(kernel)
    data = kernel[rows, cols]
    data[1] = 0.0
    M = csr_matrix((data, (rows, cols)), shape=(4, 4))
    assert M.indptr.tolist() == [0, 2, 5, 8, 10]
    before = [a.copy() for a in (M.indptr, M.indices, M.data)]
    vp = Viewpoint(space, 1.0, M, None)
    for arr, was in zip((M.indptr, M.indices, M.data), before):
        assert arr.dtype == was.dtype
        np.testing.assert_array_equal(arr, was)
    assert vp.dens.indptr.tolist() == [0, 1, 4, 7, 9]
    kept = vp.dens.toarray()
    M.data[:] = 7.0
    np.testing.assert_array_equal(vp.dens.toarray(), kept)
