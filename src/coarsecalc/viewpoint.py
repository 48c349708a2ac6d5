"""Averaging kernels at a scale, their certificates, and the Markov operator.

A *viewpoint* at scale h assigns to each point x a probability density
``p_x`` with respect to the space measure (the probability of landing at y
is ``p_x(y) * mu(y)``), subject to three axioms:

1. each row integrates to 1 against mu (relative tolerance 1e-12);
2. ``supp(p_x)`` lies inside the ball ``B(x, A*h)`` for a certified A >= 1;
3. ``p_x(y) >= c`` for every y in ``B(x, h)``, for a certified floor c > 0.

Densities are stored as a sparse CSR matrix, which makes symmetry
``p_x(y) == p_y(x)`` a literal matrix symmetry and keeps the Markov
operator a single sparse matvec: ``(Pf)(x) = sum_y p_x(y) f(y) mu(y)``.

Scalar fields are plain float arrays indexed by point.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.sparse import csr_matrix, diags

from coarsecalc.space import _read_only

STOCHASTIC_TOL = 1e-12
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Certificate:
    """Validated viewpoint constants: support factor A >= 1, density floor c > 0."""

    A: float
    c: float


@dataclass(frozen=True)
class Violation:
    """Witness that a kernel fails a viewpoint axiom at scale h."""

    x: int
    axiom: str
    y: int

    def __str__(self):
        return f"row {self.x} fails {self.axiom!r} at point {self.y}"


@dataclass(frozen=True)
class SymmetryReport:
    symmetric: bool
    x: int
    y: int
    gap: float
    p_xy: float
    p_yx: float


class Viewpoint:
    """A certified kernel at scale h on a fixed space.

    Immutable after construction but for its memos, which depend on the
    kernel alone and are built on first use: the form ``calculus._form``
    keeps, the two-step density of ``calculus._two_step`` and the
    ``is_symmetric`` verdict. Builders return new viewpoints, which start
    with none; a deep copy carries them, read-only, with the densities
    they were computed from. The densities are a copy of ``dens`` with its
    explicit zeros dropped, so the caller's matrix is left as it was.
    ``apply`` is pure, so viewpoints can be shared across workers.
    """

    def __init__(self, space, h, dens, certificate, kind="custom"):
        # a copy: zeros are dropped in place, and the memos read this kernel
        dens = csr_matrix(dens, copy=True)
        dens.eliminate_zeros()
        if dens.shape != (space.n, space.n):
            raise ValueError(f"kernel must be {space.n} x {space.n}, "
                             f"got {dens.shape}")
        if h <= 0:
            raise ValueError(f"scale must be > 0, got {h}")
        self.space = space
        self.h = float(h)
        self.dens = dens
        self.certificate = certificate
        self.kind = kind
        self._form = None       # calculus._form(space, vp=self)
        self._two_step = None   # calculus._two_step(self)
        self._symmetry = None   # is_symmetric(self)

    def __deepcopy__(self, memo):
        """A deep copy whose memos are read-only, as the originals are."""
        out = copy.copy(self)
        memo[id(self)] = out
        out.__dict__.update(copy.deepcopy(self.__dict__, memo))
        _read_only(out._form, out._two_step)
        return out

    @property
    def A(self):
        return self.certificate.A

    @property
    def c(self):
        return self.certificate.c

    def row(self, x):
        """Support indices and densities of row x."""
        sl = slice(self.dens.indptr[x], self.dens.indptr[x + 1])
        return self.dens.indices[sl], self.dens.data[sl]

    def symmetric_matrix(self):
        """M[x, y] = p_x(y) sqrt(mu(x) mu(y)).

        For a symmetric viewpoint this is a symmetric matrix similar to the
        transition matrix, so its eigenvalues are the operator spectrum on
        L2(mu).
        """
        root = np.sqrt(self.space.measure)
        return diags(root) @ self.dens @ diags(root)

    def __repr__(self):
        cert = "" if self.certificate is None else \
            f"A={self.A:g}, c={self.c:g}, "
        return (f"Viewpoint(h={self.h:g}, kind={self.kind!r}, {cert}"
                f"space={self.space.name!r})")


def standard_viewpoint(space, h) -> Viewpoint:
    """Uniform averaging over the closed ball: p_x = 1_B(x,h) / V(x,h).

    Certificate: A = 1 and c = 1 / max_x V(x, h).
    """
    if h <= 0:
        raise ValueError(f"scale must be > 0, got {h}")
    indptr, indices, _ = space.neighbourhoods(h)
    V = space.volumes(h)
    dens = csr_matrix((np.repeat(1.0 / V, np.diff(indptr)), indices, indptr),
                      shape=(space.n, space.n))
    return Viewpoint(space, h, dens, Certificate(1.0, 1.0 / V.max()),
                     kind="standard")


def validate(space, dens, h) -> Union[Certificate, Violation]:
    """Check the viewpoint axioms; return tight constants or a witness.

    Returns the smallest support factor A (clamped to >= 1) and the largest
    density floor c for which the axioms hold. A row that is not a
    probability density raises (reporting the row sum); a zero density
    inside some B(x, h) returns a :class:`Violation` witness instead.
    """
    dens = csr_matrix(dens)
    dens.eliminate_zeros()
    # NaN passes both the sign and the row-sum tests below
    finite = np.isfinite(dens.data)
    if not finite.all():
        bad = int(np.argmin(finite))
        row = int(np.searchsorted(dens.indptr, bad, side="right")) - 1
        raise ValueError(f"row {row} has a non-finite density "
                         f"{dens.data[bad]}")
    if np.any(dens.data < 0):
        bad = int(np.argmax(dens.data < 0))
        raise ValueError(f"kernel has a negative density {dens.data[bad]}")
    sums = dens @ space.measure
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[worst] - 1.0) > STOCHASTIC_TOL:
        raise ValueError(f"row {worst} is not a probability density: "
                         f"integrates to {sums[worst]!r}")
    A, c = 1.0, np.inf
    for xb, D in space.dist_blocks():
        K = dens[xb]
        rows = np.repeat(np.arange(xb.size), np.diff(K.indptr))
        d_sup = D[rows, K.indices]
        A = max(A, d_sup.max(initial=0.0) / h)
        # B(x, h) minus the support; the first point left is the witness
        outside = D <= h
        outside[rows, K.indices] = False
        if outside.any():
            i, y = np.argwhere(outside)[0]
            return Violation(int(xb[i]), "density floor", int(y))
        c = min(c, K.data[d_sup <= h].min())
    return Certificate(float(A), float(c))


def is_symmetric(vp) -> SymmetryReport:
    """True iff max_{x,y} |p_x(y) - p_y(x)| <= 1e-12 times the largest
    density (a test free of mu's unit), with the worst pair.

    The report depends on the densities alone, so it is built once per
    viewpoint and kept on it; every later call returns the same report.
    """
    if vp._symmetry is None:
        vp._symmetry = _symmetry_report(vp)
    return vp._symmetry


def _symmetry_report(vp) -> SymmetryReport:
    diff = (vp.dens - vp.dens.T).tocoo()
    if diff.nnz == 0:
        p = vp.dens[0, 0]
        return SymmetryReport(True, 0, 0, 0.0, p, p)
    k = int(np.argmax(np.abs(diff.data)))
    x, y = int(diff.row[k]), int(diff.col[k])
    gap = abs(diff.data[k])
    return SymmetryReport(gap <= SYMMETRY_TOL * np.abs(vp.dens.data).max(),
                          x, y, float(gap),
                          float(vp.dens[x, y]), float(vp.dens[y, x]))


def symmetrize(space, vp):
    """Re-express the standard viewpoint as a symmetric one over V-weighted mu.

    The standard kernel is reversible for the measure mu'(y) = V(y,h) mu(y);
    dividing each density by the landing-ball volume, q_x(y) = p_x(y)/V(y,h),
    gives the same transition probabilities as densities w.r.t. mu', and the
    density matrix becomes literally symmetric. Returns (viewpoint over the
    reweighted space, the reweighted space).
    """
    if vp.kind != "standard":
        _assert_standard(space, vp)
    # standard rows are 1/V(x,h) on the diagonal
    V = 1.0 / vp.dens.diagonal()
    new_measure = V * space.measure
    new_space = space.with_measure(new_measure, name=f"{space.name}|Vweighted")
    q = vp.dens @ diags(1.0 / V)
    c = float(q.data.min())
    out = Viewpoint(new_space, vp.h, q, Certificate(1.0, c),
                    kind="symmetrized")
    return out, new_space


def _assert_standard(space, vp):
    indptr, indices, _ = space.neighbourhoods(vp.h)
    D = vp.dens
    if not (np.array_equal(D.indptr, indptr) and
            np.array_equal(D.indices, indices)):
        x = next(x for x in range(space.n) if not np.array_equal(
            vp.row(x)[0], indices[indptr[x]:indptr[x + 1]]))
        raise ValueError(f"symmetrize expects the standard viewpoint; "
                         f"row {x} support differs from B(x, h)")
    counts = np.diff(indptr)
    V = np.repeat(space.volumes(vp.h), counts)
    off = np.abs(D.data - 1.0 / V) > 1e-12 / V
    if np.any(off):
        x = int(np.repeat(np.arange(space.n), counts)[np.argmax(off)])
        raise ValueError(f"symmetrize expects the standard viewpoint; "
                         f"row {x} is not uniform on its ball")


def apply(vp, f):
    """Markov smoothing: (Pf)(x) = sum_y p_x(y) f(y) mu(y)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (vp.space.n,):
        raise ValueError(f"field must have shape ({vp.space.n},), "
                         f"got {f.shape}")
    return vp.dens @ (f * vp.space.measure)


def random_symmetric_viewpoint(space, h, rng) -> Viewpoint:
    """Random symmetric viewpoint for property tests.

    Draws symmetric uniform(0.5, 1.5) weights on the pairs {d(x,y) <= h},
    divides by the largest row integral, and pours each row's deficit onto
    the diagonal. Rows sum to 1 exactly (up to float), the floor is at
    least min-weight / max-row-integral, and the support factor is A = 1.
    """
    n = space.n
    indptr, indices, _ = space.neighbourhoods(h)
    w = np.zeros((n, n))
    w[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1.0
    w *= rng.uniform(0.5, 1.5, size=(n, n))
    w = np.minimum(w, w.T)  # symmetric, zero outside symmetric ball pairs
    integrals = w @ space.measure
    w /= integrals.max()
    deficit = 1.0 - w @ space.measure
    w[np.arange(n), np.arange(n)] += deficit / space.measure
    dens = csr_matrix(w)
    cert = validate(space, dens, h)
    if not isinstance(cert, Certificate):
        raise AssertionError(f"random kernel failed validation: {cert}")
    return Viewpoint(space, h, dens, cert, kind="random_symmetric")


# ----------------------------------------------------------------------
# JSON serialization: {"h": float, "rows": [{"x": i, "support": [...],
#                      "density": [...]}]}


def viewpoint_to_json(vp) -> dict:
    rows = []
    for x in range(vp.space.n):
        sup, vals = vp.row(x)
        rows.append({"x": x, "support": [int(j) for j in sup],
                     "density": [float(v) for v in vals]})
    return {"h": vp.h, "rows": rows}


def save_viewpoint(vp, path):
    with open(path, "w") as fh:
        json.dump(viewpoint_to_json(vp), fh, sort_keys=True)


def viewpoint_from_json(doc, space) -> Viewpoint:
    """Rebuild a viewpoint from its JSON document against a given space.

    The certificate is recomputed by :func:`validate`, never trusted from
    the file; a kernel that no longer satisfies the axioms is rejected with
    the witness.
    """
    for key in ("h", "rows"):
        if key not in doc:
            raise ValueError(f"kernel file missing key {key!r}")
    rows = doc["rows"]
    if len(rows) != space.n:
        raise ValueError(f"kernel has {len(rows)} rows, space has {space.n}")
    indptr = np.zeros(space.n + 1, dtype=np.int64)
    indices = []
    data = []
    seen = set()
    for i, row in enumerate(rows):
        for key in ("x", "support", "density"):
            if key not in row:
                raise ValueError(f"kernel row {i} is missing key {key!r}")
        x = int(row["x"])
        if not 0 <= x < space.n or x in seen:
            raise ValueError(f"bad or duplicate row index {x}")
        seen.add(x)
    by_x = {int(r["x"]): r for r in rows}
    for x in range(space.n):
        row = by_x[x]
        sup = np.asarray(row["support"], dtype=np.int64)
        vals = np.asarray(row["density"], dtype=float)
        if sup.shape != vals.shape:
            raise ValueError(f"row {x}: support and density lengths differ")
        order = np.argsort(sup)
        twice = np.flatnonzero(np.diff(sup[order]) == 0)
        if twice.size:
            raise ValueError(f"row {x}: support repeats point "
                             f"{sup[order][twice[0]]}")
        indices.append(sup[order])
        data.append(vals[order])
        indptr[x + 1] = indptr[x] + sup.size
    dens = csr_matrix((np.concatenate(data) if data else np.array([]),
                       np.concatenate(indices) if indices else np.array([]),
                       indptr), shape=(space.n, space.n))
    cert = validate(space, dens, float(doc["h"]))
    if isinstance(cert, Violation):
        raise ValueError(f"kernel file fails validation: {cert}")
    return Viewpoint(space, float(doc["h"]), dens, cert, kind="loaded")


def load_viewpoint(path, space) -> Viewpoint:
    with open(path) as fh:
        doc = json.load(fh)
    return viewpoint_from_json(doc, space)
