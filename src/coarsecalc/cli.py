"""Command-line driver binding the library end to end.

Subcommands cover space generation and IO (``zoo``), kernel construction
(``viewpoint``), calculus checks (``calc``), profile sweeps (``profile``),
walk experiments (``walk``), equivalence certification (``coarse``) and
the acceptance suite (``accept``). Each of calc/profile/walk/coarse also
takes ``--config FILE``: a JSON experiment description executed by
:func:`run`, which is the general path; inline flags cover the common
one-shot invocations and are translated into the same config form.

Exit codes: 0 when every asserted invariant passed, 1 when at least one
failed (a witness file is written next to the artifacts), 2 when the
config or arguments are invalid (first schema error reported by JSON
pointer).

Artifacts are bit-identical across runs with the same config and seed:
JSON is written with sorted keys and fixed separators, CSV with a fixed
line terminator, and all randomness flows from the single configured
seed. Non-finite floats appear in JSON as the strings "inf", "-inf",
"nan" (strict JSON has no literals for them).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from coarsecalc import acceptance, calculus, coarse, profiles, randomwalk, \
    viewpoint, zoo
from coarsecalc.profiles import Backend, RateFunction
from coarsecalc.space import (boundary, doubling_profile, geodesicity_report,
                              load_space, save_space, thicken)

try:
    from importlib.metadata import version as _pkg_version
    VERSION = _pkg_version("coarsecalc")
except Exception:
    VERSION = "0.1.0"


# ----------------------------------------------------------------------
# deterministic serialization


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isfinite(f):
            return f
        return "nan" if math.isnan(f) else ("inf" if f > 0 else "-inf")
    return v


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path, header, rows):
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return "" if v is None else str(v)

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([cell(v) for v in row])


# ----------------------------------------------------------------------
# config schema and validation

# a saved space {"file": PATH}, or a zoo family with its parameters
_SPACE_SCHEMA = {
    "type": "object",
    "if": {"required": ["file"]},
    "then": {"properties": {"file": {"type": "string"}},
             "additionalProperties": False},
    "else": {"required": ["family"],
             "properties": {
                 "family": {"enum": sorted(zoo.FAMILIES)},
                 "d": {"type": "integer", "minimum": 1},
                 "L": {"type": "integer", "minimum": 2},
                 "metric": {"enum": list(zoo.GRID_METRICS)},
                 "n": {"type": "integer", "minimum": 2},
                 "degree": {"type": "integer", "minimum": 3},
                 "depth": {"type": "integer", "minimum": 1},
                 "rank": {"type": "integer", "minimum": 1},
                 "radius": {"type": "integer", "minimum": 1},
                 "seed": {"type": "integer", "minimum": 0},
                 "scale": {"type": "number", "exclusiveMinimum": 0},
             },
             "additionalProperties": False},
}

_KERNEL_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["standard", "lazy_srw", "pure_srw",
                          "random_symmetric", "file"]},
        "h": {"type": "number", "exclusiveMinimum": 0},
        "path": {"type": "string"},
        "ambient_degree": {"type": "integer", "minimum": 1},
        "step": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

OP_NAMES = [
    "accept", "boundary_profile", "certify", "cheeger", "coarea_check",
    "decay", "decay_vs_profile", "discretize", "energy_check", "gamma",
    "grad", "gradient_sandwich", "laplacian", "nash_check",
    "nash_from_decay", "profile", "pullback_transfer", "rough_volume",
    "scale_reduction", "smoothing", "sobolev_verify", "spectral_radius",
    "thicken_support", "transfer_band",
]

# keys an operation cannot run without; profile needs volumes unless it
# has radii
_OP_NEEDS = {op: {"required": keys} for op, keys in {
    "certify": ["target"], "decay_vs_profile": ["phi"], "discretize": ["h"],
    "gamma": ["phi"], "grad": ["field"], "laplacian": ["field"],
    "nash_check": ["phi"], "pullback_transfer": ["target", "field"],
    "rough_volume": ["target", "A", "A_target", "u"],
    "scale_reduction": ["b", "h"], "sobolev_verify": ["phi"],
    "thicken_support": ["field"], "transfer_band": ["target"],
}.items()}
_OP_NEEDS["profile"] = {"if": {"not": {"required": ["radii"]}},
                        "then": {"required": ["volumes"]}}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["operations"],
    "properties": {
        "space": _SPACE_SCHEMA,
        "kernel": _KERNEL_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "tolerances": {"type": "object",
                       "additionalProperties": {"type": "number"}},
        "operations": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "object",
                      "required": ["op"],
                      "properties": {"op": {"enum": OP_NAMES},
                                     "target": _SPACE_SCHEMA},
                      "allOf": [{"if": {"required": ["op"],
                                        "properties": {"op": {"const": op}}},
                                 "then": needs}
                                for op, needs in _OP_NEEDS.items()]},
        },
    },
    "additionalProperties": False,
}


class ConfigError(Exception):
    """Schema or semantic config failure, located by JSON pointer."""

    def __init__(self, pointer, message):
        self.pointer = pointer or "/"
        self.message = message
        super().__init__(f"config error at {self.pointer}: {message}")


def _pointer(path):
    return "/" + "/".join(str(p) for p in path)


def validate_config(doc):
    """Raise ConfigError on the first (best-match) schema or semantic
    violation; the pointer names the offending element."""
    validator = Draft202012Validator(CONFIG_SCHEMA)
    err = best_match(validator.iter_errors(doc))
    if err is not None:
        raise ConfigError(_pointer(err.absolute_path), err.message)

    kernel = doc.get("kernel")
    if kernel:
        if kernel["kind"] in ("standard", "lazy_srw", "random_symmetric") \
                and "h" not in kernel:
            raise ConfigError("/kernel/h",
                              f"kernel kind {kernel['kind']!r} needs h")
        if kernel["kind"] == "file" and "path" not in kernel:
            raise ConfigError("/kernel/path", "kernel kind 'file' needs path")

    if "seed" not in doc:
        culprit = _first_stochastic(doc)
        if culprit is not None:
            raise ConfigError("/seed",
                              f"seed is mandatory: {culprit} is stochastic")


def _first_stochastic(doc):
    kernel = doc.get("kernel")
    if kernel and kernel.get("kind") == "random_symmetric":
        return "/kernel (random_symmetric)"
    for i, op in enumerate(doc.get("operations", [])):
        for key, val in op.items():
            if isinstance(val, str) and val.startswith("random:"):
                return f"/operations/{i}/{key}"
        p = op.get("p")
        if isinstance(p, (int, float)) and not math.isinf(p) \
                and p not in (1, 2):
            return f"/operations/{i}/p (descent restarts)"
    return None


# ----------------------------------------------------------------------
# run context


@dataclass
class RunContext:
    out: Path
    base: Path
    space: object = None
    kernel: object = None
    rng: object = None
    tolerances: dict = dataclass_field(default_factory=dict)
    op_pointer: str = "/operations"   # JSON pointer of the running operation
    artifacts: list = dataclass_field(default_factory=list)
    failures: list = dataclass_field(default_factory=list)

    def tol(self, name, default):
        return float(self.tolerances.get(name, default))

    def need_space(self):
        if self.space is None:
            raise ConfigError("/space", "this operation needs a space")
        return self.space

    def need_kernel(self):
        if self.kernel is None:
            raise ConfigError("/kernel", "this operation needs a kernel")
        return self.kernel

    def need_rng(self):
        if self.rng is None:
            raise ConfigError("/seed", "this operation needs a seed")
        return self.rng

    def resolve(self, relpath):
        p = Path(relpath)
        return p if p.is_absolute() else self.base / p

    def emit_json(self, name, obj, op, claim):
        path = self.out / name
        _write_json(path, obj)
        self.artifacts.append({"path": name, "operation": op,
                               "claim": claim})

    def emit_csv(self, name, header, rows, op, claim):
        path = self.out / name
        _write_csv(path, header, rows)
        self.artifacts.append({"path": name, "operation": op,
                               "claim": claim})

    def fail(self, name, op, witness):
        self.emit_json(name, witness, op,
                       "witness for a failed assertion")
        self.failures.append({"operation": op, "witness": name})


def _build_space(spec, base, pointer):
    """The space a spec names: a saved ``{"file": ...}`` or a zoo family.
    A spec the space cannot be built from is a ConfigError at pointer."""
    try:
        if "file" in spec:
            return load_space(Path(base) / spec["file"])
        return zoo.generate(spec)
    except (OSError, ValueError) as exc:
        raise ConfigError(pointer, str(exc)) from None


def _build_kernel(spec, space, ctx):
    """The kernel a spec names. A file that cannot be read or does not
    hold a kernel of the space is a ConfigError at /kernel/path, a kernel
    the other parameters cannot build one at /kernel."""
    kind = spec["kind"]
    try:
        if kind == "standard":
            return viewpoint.standard_viewpoint(space, spec["h"])
        if kind == "lazy_srw":
            return randomwalk.lazy_srw(space, spec["h"])
        if kind == "pure_srw":
            return randomwalk.pure_srw(
                space, ambient_degree=spec.get("ambient_degree"),
                step=spec.get("step", 1.0))
        if kind == "random_symmetric":
            return viewpoint.random_symmetric_viewpoint(space, spec["h"],
                                                        ctx.need_rng())
        return viewpoint.load_viewpoint(ctx.resolve(spec["path"]), space)
    except (OSError, ValueError) as exc:
        raise ConfigError("/kernel/path" if kind == "file" else "/kernel",
                          str(exc)) from None


def _fields(ctx, spec, nonneg=False):
    """Field list from 'random:N', 'file:path', or an inline array."""
    if isinstance(spec, str) and spec.startswith("random:"):
        n = ctx.need_space().n
        k = int(spec.split(":", 1)[1])
        out = [ctx.need_rng().standard_normal(n) for _ in range(k)]
    else:
        if isinstance(spec, str) and spec.startswith("file:"):
            with open(ctx.resolve(spec.split(":", 1)[1])) as fh:
                spec = json.load(fh)
        elif not isinstance(spec, list):
            raise ConfigError(ctx.op_pointer, f"bad field spec {spec!r}")
        rows = [spec] if spec and not isinstance(spec[0], list) else spec
        out = [np.asarray(row, dtype=float) for row in rows]
    return [np.abs(f) for f in out] if nonneg else out


def _phi(ctx, spec):
    """Rate spec: 'power:exp[,coef]', 'log_power:log,pow[,coef]',
    'tabulated:file'."""
    kind, _, rest = str(spec).partition(":")
    if kind == "power":
        parts = [float(x) for x in rest.split(",")]
        return RateFunction.power(*parts)
    if kind == "log_power":
        parts = [float(x) for x in rest.split(",")]
        return RateFunction.log_power(*parts)
    if kind == "tabulated":
        with open(ctx.resolve(rest)) as fh:
            doc = json.load(fh)
        return RateFunction.tabulated(doc["args"], doc["values"])
    raise ConfigError("/operations", f"bad rate spec {spec!r}")


def _backend(ctx, spec):
    kind, _, rest = str(spec).partition(":")
    if kind == "sup":
        return Backend.sup(float(rest))
    if kind == "lp":
        return Backend.lp(float(rest))
    if kind == "vp":
        if rest:
            vp = viewpoint.load_viewpoint(ctx.resolve(rest),
                                          ctx.need_space())
        else:
            vp = ctx.need_kernel()
        return Backend.viewpoint(vp)
    raise ConfigError("/operations", f"bad backend spec {spec!r}")


def _steps(spec, default_max=64):
    if isinstance(spec, list):
        return [int(x) for x in spec]
    if isinstance(spec, dict):
        return list(range(int(spec.get("start", 1)),
                          int(spec.get("max", default_max)) + 1,
                          int(spec.get("step", 1))))
    return list(range(1, default_max + 1))


def _target_map(ctx, op):
    """(space, target, F): the run's space, the op's target space and the
    map into it ("identity", "file:PATH" or an inline list)."""
    space = ctx.need_space()
    target = _build_space(op["target"], ctx.base, f"{ctx.op_pointer}/target")
    spec = op.get("map", "identity")
    if spec == "identity":
        if space.n != target.n:
            raise ConfigError(f"{ctx.op_pointer}/map",
                              "identity map needs equal point counts")
        F = np.arange(space.n)
    elif isinstance(spec, str) and spec.startswith("file:"):
        with open(ctx.resolve(spec.split(":", 1)[1])) as fh:
            F = np.asarray(json.load(fh), dtype=np.int64)
    elif isinstance(spec, list):
        F = np.asarray(spec, dtype=np.int64)
    else:
        raise ConfigError(f"{ctx.op_pointer}/map", f"bad map spec {spec!r}")
    return space, target, F


# ----------------------------------------------------------------------
# operation handlers: each returns True/False for asserted invariants or
# None for purely informational output


def _op_energy_check(ctx, op, tag):
    vp = ctx.need_kernel()
    fields = _fields(ctx, op.get("fields", "random:20"))
    tol = ctx.tol("energy_rel", 1e-10)
    rows, worst = [], (0.0, None)
    for i, f in enumerate(fields):
        d, g = calculus.energy(vp, f)
        e1 = abs(g - 2.0 * d) / max(abs(g), 1e-300)
        lhs, rhs = calculus.p2_energy_identity(vp, f)
        e2 = abs(lhs - 2.0 * rhs) / max(abs(lhs), 1e-300)
        rows.append((i, d, g, e1, lhs, rhs, e2))
        if max(e1, e2) > worst[0]:
            worst = (max(e1, e2), i)
    ctx.emit_csv(f"{tag}.csv",
                 ["field", "dirichlet", "grad_sq_half_x2", "rel_err_1",
                  "two_step_lhs", "two_step_rhs", "rel_err_2"], rows,
                 "energy_check",
                 "one- and two-step energy identities hold to tolerance")
    if worst[0] > tol:
        ctx.fail(f"{tag}_witness.json", "energy_check",
                 {"field_index": worst[1], "rel_error": worst[0],
                  "field": fields[worst[1]]})
        return False
    return True


def _op_coarea_check(ctx, op, tag):
    space = ctx.need_space()
    h = float(op.get("h", 1.0))
    fields = _fields(ctx, op.get("fields", "random:20"), nonneg=True)
    rows = []
    for i, f in enumerate(fields):
        lo, mid, up = calculus.coarea(space, f, h)
        rows.append((i, lo, mid, up))
    ctx.emit_csv(f"{tag}.csv", ["field", "half_total", "integral", "total"],
                 rows, "coarea_check",
                 "threshold sums sandwich the gradient integral")
    return True


def _op_gradient_sandwich(ctx, op, tag):
    vp = ctx.need_kernel()
    fields = _fields(ctx, op.get("fields", "random:20"))
    q, q2 = float(op.get("q", 1)), float(op.get("q2", 2))
    slack = ctx.tol("sandwich_slack", 1e-12)
    bad = None
    for i, f in enumerate(fields):
        rep = calculus.sandwich_report(vp, f, q, q2, slack=slack)
        if not rep.holds:
            bad = (i, f, rep)
            break
    ctx.emit_json(f"{tag}.json",
                  {"fields": len(fields), "q": q, "q2": q2,
                   "violations": 0 if bad is None else 1},
                  "gradient_sandwich",
                  "pointwise gradient chain holds across exponents")
    if bad is not None:
        i, f, rep = bad
        ctx.fail(f"{tag}_witness.json", "gradient_sandwich",
                 {"field_index": i, "field": f, "lower": rep.lower,
                  "vp_q": rep.vp_q, "vp_q2": rep.vp_q2, "upper": rep.upper})
        return False
    return True


def _op_smoothing(ctx, op, tag):
    space = ctx.need_space()
    h = float(op.get("h", 1.0))
    fields = _fields(ctx, op.get("fields", "random:10"))
    rows = []
    holds = True
    for i, f in enumerate(fields):
        rep = calculus.smoothing_report(space, f, h)
        rows.append((i, rep.measured, rep.bound, rep.holds))
        holds = holds and rep.holds
    ctx.emit_csv(f"{tag}.csv", ["field", "measured", "bound", "holds"],
                 rows, "smoothing",
                 "averaging constant stays under the doubling bound")
    return holds


def _op_grad(ctx, op, tag):
    space = ctx.need_space()
    f = _fields(ctx, op["field"])[0]
    kind = op.get("kind", "sup")
    p = float(op.get("p", 2))
    if kind == "viewpoint":
        g = calculus.grad_viewpoint(ctx.need_kernel(), f, p)
    elif kind == "lp":
        g = calculus.grad_lp(space, f, float(op.get("h", 1.0)), p)
    else:
        g = calculus.grad_sup(space, f, float(op.get("h", 1.0)))
    ctx.emit_json(f"{tag}.json", g, "grad", "gradient field values")
    return None


def _op_laplacian(ctx, op, tag):
    vp = ctx.need_kernel()
    f = _fields(ctx, op["field"])[0]
    out = calculus.laplacian(vp, f, p=float(op.get("p", 2)))
    ctx.emit_json(f"{tag}.json", out, "laplacian",
                  "scale Laplacian field values")
    return None


def _op_profile(ctx, op, tag):
    space = ctx.need_space()
    b = _backend(ctx, op.get("backend", "sup:1"))
    p = float(op.get("p", 2))
    rng = ctx.rng
    if "radii" in op:
        curve = profiles.profile_in_balls(space, b, p,
                                          [float(r) for r in op["radii"]],
                                          rng=rng)
    else:
        curve = profiles.isoperimetric_profile(
            space, b, p, [float(v) for v in op["volumes"]],
            strategy=op.get("strategy", "candidates"), rng=rng)
    _emit_curve(ctx, tag, "profile", curve,
                "isoperimetric profile samples with witnesses")
    return None


def _emit_curve(ctx, tag, opname, curve, claim):
    rows, wits = [], {}
    for i, (a, v) in enumerate(zip(curve.args, curve.values)):
        wid = ""
        if i < len(curve.witnesses) and curve.witnesses[i] is not None:
            wid = f"w{i}"
            wits[wid] = curve.witnesses[i]
        rows.append((a, v, curve.mode, wid))
    ctx.emit_csv(f"{tag}.csv", ["argument", "value", "mode", "witness"],
                 rows, opname, claim)
    ctx.emit_json(f"{tag}.json",
                  {"kind": curve.kind, "args": curve.args,
                   "values": curve.values, "mode": curve.mode,
                   "meta": curve.meta, "witnesses": wits},
                  opname, claim + " (JSON form)")


def _op_boundary_profile(ctx, op, tag):
    space = ctx.need_space()
    h = float(op.get("h", 1.0))
    family = op.get("family", "all")
    if family == "balls":
        family = [space.subset(space.ball(x, r))
                  for x in range(space.n)
                  for r in (h, 2 * h, 4 * h)]
    curves = profiles.boundary_profile(space, h, family=family,
                                       t_grid=op.get("t_grid"))
    rows = []
    for curve in curves:
        for a, v in zip(curve.args, curve.values):
            rows.append((curve.kind, a, v, curve.mode))
    ctx.emit_csv(f"{tag}.csv", ["curve", "mass", "value", "mode"], rows,
                 "boundary_profile",
                 "boundary profiles over the mass grid")
    return None


def _op_cheeger(ctx, op, tag):
    space = ctx.need_space()
    h = float(op.get("h", 1.0))
    family = op.get("family", "all")
    if isinstance(family, list):
        family = [space.subset(np.asarray(s, dtype=np.int64))
                  for s in family]
    value, witness = profiles.cheeger(space, h, family)
    ctx.emit_json(f"{tag}.json",
                  {"value": value, "witness_indices": witness.indices,
                   "witness_measure": witness.measure},
                  "cheeger", "boundary-to-volume minimum and its witness")
    return None


def _op_sobolev_verify(ctx, op, tag):
    space = ctx.need_space()
    b = _backend(ctx, op.get("backend", "sup:1"))
    p = float(op.get("p", 2))
    phi = _phi(ctx, op["phi"])
    fields = _fields(ctx, op.get("fields", "random:40"))
    rep = profiles.sobolev_verify(space, b, p, phi, fields)
    assert_c = op.get("assert_C")
    passed = rep.passes and (assert_c is None or rep.C <= float(assert_c))
    ctx.emit_json(f"{tag}.json",
                  {"passes": rep.passes, "C": rep.C, "C_prime": rep.C_prime,
                   "asserted_C": assert_c, "worst_index": rep.worst_index,
                   "margins": rep.margins},
                  "sobolev_verify",
                  "fitted norm-vs-gradient constant over the sample fields")
    if not passed:
        ctx.fail(f"{tag}_witness.json", "sobolev_verify",
                 {"worst_index": rep.worst_index,
                  "field": fields[rep.worst_index],
                  "fitted_C": rep.C, "asserted_C": assert_c,
                  "failures": rep.failures})
    return passed


def _op_nash_check(ctx, op, tag):
    space = ctx.need_space()
    vp = ctx.need_kernel()
    phi = _phi(ctx, op["phi"])
    fields = _fields(ctx, op.get("fields", "random:40"))
    rep = profiles.nash_check(space, vp, phi, fields)
    assert_c = op.get("assert_C")
    passed = rep.passes and (assert_c is None or rep.C <= float(assert_c))
    ctx.emit_json(f"{tag}.json",
                  {"passes": rep.passes, "C": rep.C,
                   "asserted_C": assert_c, "margins": rep.margins},
                  "nash_check",
                  "fitted Nash constant over the sample fields")
    if not passed:
        worst = int(np.argmin(rep.margins))
        ctx.fail(f"{tag}_witness.json", "nash_check",
                 {"worst_index": worst, "field": fields[worst],
                  "fitted_C": rep.C, "asserted_C": assert_c})
    return passed


def _op_decay(ctx, op, tag):
    vp = ctx.need_kernel()
    x = int(op.get("x", 0))
    curve = randomwalk.on_diagonal(vp, x, _steps(op.get("n")))
    ctx.emit_csv(f"{tag}.csv", ["n", "return_density"],
                 list(zip(curve.times, curve.values)), "decay",
                 "even-step return densities at the chosen point")
    return None


def _op_gamma(ctx, op, tag):
    phi = _phi(ctx, op["phi"])
    t = op.get("t", {})
    if isinstance(t, list):
        ts = np.asarray(t, dtype=float)
    else:
        ts = np.geomspace(float(t.get("min", 1e-2)),
                          float(t.get("max", 1e4)),
                          int(t.get("count", 50)))
    gt = randomwalk.gamma_transform(phi, ts, v_min=op.get("v_min"))
    ctx.emit_csv(f"{tag}.csv", ["t", "gamma"],
                 list(zip(gt.t, gt.gamma)), "gamma",
                 "decay transform of the rate function")
    ctx.emit_json(f"{tag}_meta.json",
                  {"v_min": gt.v_min, "tail_estimate": gt.tail_estimate,
                   "phi": gt.phi_kind},
                  "gamma", "transform cutoff and tail bookkeeping")
    return None


def _op_decay_vs_profile(ctx, op, tag):
    space = ctx.need_space()
    vp = ctx.need_kernel()
    phi = _phi(ctx, op["phi"])
    rep = randomwalk.decay_vs_profile(space, vp, phi,
                                      _steps(op.get("n"), 256),
                                      centers=op.get("centers"))
    ctx.emit_json(f"{tag}.json",
                  {"status": rep.status, "best_c": rep.best_c,
                   "slope_decay": rep.slope_decay,
                   "slope_gamma": rep.slope_gamma,
                   "kept_n": rep.kept_n, "meta": rep.meta},
                  "decay_vs_profile",
                  "measured return decay against the rate transform")
    if rep.status == "skipped_bounded_phi":
        return None
    if rep.status != "ok":
        ctx.fail(f"{tag}_witness.json", "decay_vs_profile",
                 {"status": rep.status, "violating_n": rep.violating_n,
                  "decay": rep.decay})
        return False
    return True


def _op_nash_from_decay(ctx, op, tag):
    space = ctx.need_space()
    vp = ctx.need_kernel()
    curve = randomwalk.on_diagonal(vp, int(op.get("x", 0)),
                                   _steps(op.get("n")))
    fields = _fields(ctx, op.get("fields", "random:20"))
    rep = randomwalk.nash_from_decay(space, vp, curve, fields)
    rows = [(e.index, e.skipped, e.n_star, e.constant, e.margin, e.passed)
            for e in rep.entries]
    ctx.emit_csv(f"{tag}.csv",
                 ["field", "skipped", "n_star", "constant", "margin",
                  "passed"], rows, "nash_from_decay",
                 "per-field functional bounds induced by the decay curve")
    if not rep.passes:
        bad = [e.index for e in rep.entries if not (e.skipped or e.passed)]
        ctx.fail(f"{tag}_witness.json", "nash_from_decay",
                 {"failing_fields": bad,
                  "fields": [fields[i] for i in bad]})
        return False
    return True


def _op_spectral_radius(ctx, op, tag):
    vp = ctx.need_kernel()
    space = ctx.need_space()
    if "radii" in op:
        center = int(op.get("center", 0))
        subsets = [space.subset(space.ball(center, float(r)))
                   for r in op["radii"]]
        rhos = randomwalk.exhaustion_radii(vp, subsets)
        ctx.emit_csv(f"{tag}.csv", ["radius", "rho"],
                     list(zip([float(r) for r in op["radii"]], rhos)),
                     "spectral_radius",
                     "compressed spectral radii along a ball exhaustion")
        return None
    if "subset" in op:
        rho, residual = randomwalk.dirichlet_spectral_radius(
            vp, np.asarray(op["subset"], dtype=np.int64))
    else:
        rho, residual = randomwalk.spectral_radius(vp)
    ctx.emit_json(f"{tag}.json", {"rho": rho, "residual": residual},
                  "spectral_radius", "spectral radius and its eigen residual")
    return None


def _op_certify(ctx, op, tag):
    space, target, F = _target_map(ctx, op)
    cert = coarse.certify_lse(space, target, F,
                              r_grid=[float(r) for r in op.get("radii", [])])
    ctx.emit_json(f"{tag}.json", cert.to_dict(), "certify",
                  "distortion envelopes and volume constants for the map")
    if not cert.ok:
        ctx.fail(f"{tag}_witness.json", "certify",
                 {"axiom": cert.violation.axiom,
                  "detail": cert.violation.detail,
                  "witness": cert.violation.witness})
        return False
    return True


def _op_discretize(ctx, op, tag):
    space = ctx.need_space()
    disc = coarse.discretize(space, float(op["h"]))
    save_space(disc.graph, ctx.out / f"{tag}_net.json")
    ctx.artifacts.append({"path": f"{tag}_net.json", "operation":
                          "discretize", "claim": "net space at the scale"})
    ctx.emit_json(f"{tag}_assign.json",
                  {"centers": disc.centers, "assign": disc.assign},
                  "discretize", "net centers and the projection map")
    ctx.emit_json(f"{tag}_certificate.json", disc.certificate.to_dict(),
                  "discretize", "round-trip certificate for the net")
    return disc.certificate.ok


def _op_pullback_transfer(ctx, op, tag):
    space, target, F = _target_map(ctx, op)
    cert = coarse.certify_lse(space, target, F,
                              r_grid=[float(r) for r in op.get("radii", [])])
    f_target = _fields(ctx, op["field"])[0]
    rep = coarse.pullback_transfer_report(
        space, target, F, cert, f_target, float(op.get("h", 1.0)),
        p=float(op.get("p", 2)), q=float(op.get("q", 2)))
    ctx.emit_json(f"{tag}.json",
                  {"status": rep.status, "c_l1": rep.c_l1,
                   "C_l2": rep.C_l2, "C_l3": rep.C_l3,
                   "h_prime": rep.h_prime, "u": rep.u,
                   "detail": rep.detail},
                  "pullback_transfer",
                  "measured norm, gradient and support transfer constants")
    return rep.status == "ok"


def _op_transfer_band(ctx, op, tag):
    space, target, F = _target_map(ctx, op)
    cert = coarse.certify_lse(space, target, F,
                              r_grid=[float(r) for r in op.get("radii", [])])
    if not cert.ok:
        ctx.fail(f"{tag}_witness.json", "transfer_band",
                 {"axiom": cert.violation.axiom,
                  "detail": cert.violation.detail})
        return False
    band = coarse.profile_transfer_band(
        space, target, F, cert, p=float(op.get("p", 2)),
        h=float(op.get("h", 1.0)),
        v_grid=[float(v) for v in op["volumes"]] if "volumes" in op
        else None)
    ctx.emit_json(f"{tag}.json",
                  {"within_band": band.within_band, "K": band.K,
                   "K_prime": band.K_prime, "volumes": band.volumes,
                   "ratios": band.ratios, "scales": band.scales,
                   "in_range": band.in_range},
                  "transfer_band",
                  "profile ratios against the certificate-derived band "
                  "(asserted on the in-range volumes)")
    if not band.within_band:
        ctx.fail(f"{tag}_witness.json", "transfer_band",
                 {"ratios": band.ratios, "K_prime": band.K_prime,
                  "in_range": band.in_range})
        return False
    return True


def _op_thicken_support(ctx, op, tag):
    space = ctx.need_space()
    f = _fields(ctx, op["field"])[0]
    res = coarse.thicken_support(space, f, float(op.get("h", 1.0)),
                                 p=float(op.get("p", 2)))
    ctx.emit_json(f"{tag}.json",
                  {"status": res.status,
                   "thick_support": res.thick_support.indices,
                   "measure_inflation": res.measure_inflation,
                   "gradient_ratio": res.gradient_ratio,
                   "detail": res.detail, "field": res.field},
                  "thicken_support",
                  "support fattening with norm and gradient guarantees")
    return None


def _op_rough_volume(ctx, op, tag):
    space, target, F = _target_map(ctx, op)
    rep = coarse.rough_volume_check(
        space, target, F, space.subset(op["A"]),
        target.subset(op["A_target"]), float(op["u"]))
    result = {"status": rep.status, "ratio": rep.ratio,
              "bound": rep.bound, "holds": rep.holds, "u": rep.u}
    ctx.emit_json(f"{tag}.json", result, "rough_volume",
                  "volume comparability across the map at the scale")
    if rep.status == "skipped_no_containment":
        return None
    if not rep.holds:
        ctx.fail(f"{tag}_witness.json", "rough_volume", result)
    return bool(rep.holds)


def _op_scale_reduction(ctx, op, tag):
    space = ctx.need_space()
    fields = _fields(ctx, op.get("fields", "random:10"))
    rep = coarse.scale_reduction_check(
        space, float(op["b"]), float(op["h"]), fields,
        profile_radii=[float(r) for r in op.get("profile_radii", [])])
    ctx.emit_json(f"{tag}.json",
                  {"status": rep.status, "best_C": rep.best_C,
                   "per_field": rep.per_field,
                   "profile_ratio": rep.profile_ratio,
                   "geodesicity": rep.geodesicity},
                  "scale_reduction",
                  "distribution bound reducing the scale to the step size")
    if rep.status == "ok":
        return True
    if rep.status == "skipped_not_geodesic":
        return None
    return False


def _op_accept(ctx, op, tag):
    results = acceptance.run_all(op.get("criteria"))
    table = acceptance.as_table(results)
    ctx.emit_json(f"{tag}.json", table, "accept",
                  "acceptance criteria with sub-checks and timings")
    ctx.emit_csv(f"{tag}.csv", ["id", "passed", "runtime_s", "title"],
                 [(r.cid, r.passed, round(r.runtime_s, 3), r.title)
                  for r in results], "accept", "acceptance summary table")
    for r in results:
        print(r.line())
        if r.discrepancy:
            print(f"    note: {r.discrepancy}")
    if not table["passed"]:
        bad = [r.cid for r in results if not r.passed]
        ctx.fail(f"{tag}_witness.json", "accept",
                 {"failing_criteria": bad,
                  "checks": {str(r.cid): r.checks for r in results
                             if not r.passed}})
        return False
    return True


OP_TABLE = {
    "accept": _op_accept,
    "boundary_profile": _op_boundary_profile,
    "certify": _op_certify,
    "cheeger": _op_cheeger,
    "coarea_check": _op_coarea_check,
    "decay": _op_decay,
    "decay_vs_profile": _op_decay_vs_profile,
    "discretize": _op_discretize,
    "energy_check": _op_energy_check,
    "gamma": _op_gamma,
    "grad": _op_grad,
    "gradient_sandwich": _op_gradient_sandwich,
    "laplacian": _op_laplacian,
    "nash_check": _op_nash_check,
    "nash_from_decay": _op_nash_from_decay,
    "profile": _op_profile,
    "pullback_transfer": _op_pullback_transfer,
    "rough_volume": _op_rough_volume,
    "scale_reduction": _op_scale_reduction,
    "smoothing": _op_smoothing,
    "sobolev_verify": _op_sobolev_verify,
    "spectral_radius": _op_spectral_radius,
    "thicken_support": _op_thicken_support,
    "transfer_band": _op_transfer_band,
}


def run(config, out_dir=None, base_dir=".") -> int:
    """Execute a validated experiment config; returns the exit code.

    Operations run sequentially; assertion failures do not stop the run
    (each writes its witness), so one invocation reports everything it
    can. The manifest is written last and lists every artifact. A config
    error met while an operation runs stops the run with exit code 2; the
    manifest then lists what ran and records the error.
    """
    try:
        validate_config(config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2

    out = Path(out_dir or config.get("out", "coarsecalc_out"))
    ctx = RunContext(out=out, base=Path(base_dir),
                     tolerances=config.get("tolerances", {}))
    if "seed" in config:
        ctx.rng = np.random.default_rng(int(config["seed"]))
    try:
        if "space" in config:
            ctx.space = _build_space(config["space"], ctx.base, "/space")
        if "kernel" in config:
            ctx.kernel = _build_kernel(config["kernel"], ctx.need_space(),
                                       ctx)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)

    all_passed = True
    statuses = []
    for i, op in enumerate(config["operations"]):
        name = op["op"]
        tag = f"{i:02d}_{name}"
        ctx.op_pointer = f"/operations/{i}"
        try:
            outcome = OP_TABLE[name](ctx, op, tag)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            _write_manifest(out, config, statuses, ctx, False, {
                "pointer": exc.pointer, "message": exc.message})
            return 2
        except (AssertionError, ArithmeticError, ValueError) as exc:
            ctx.fail(f"{tag}_witness.json", name, {"error": str(exc)})
            outcome = False
        statuses.append((name, outcome))
        label = "info" if outcome is None else \
            ("ok" if outcome else "FAIL")
        print(f"{tag}: {label}")
        if outcome is False:
            all_passed = False

    _write_manifest(out, config, statuses, ctx, all_passed)
    return 0 if all_passed else 1


def _write_manifest(out, config, statuses, ctx, passed, config_error=None):
    """manifest.json: the operations run, their outcomes and artifacts; a
    run stopped by a config error also records its pointer and message."""
    manifest = {
        "tool": "coarsecalc",
        "version": VERSION,
        "passed": passed,
        "config": _jsonable(config),
        "operations": [{"op": n, "outcome":
                        ("info" if s is None else ("pass" if s else "fail"))}
                       for n, s in statuses],
        "artifacts": ctx.artifacts,
        "failures": ctx.failures,
    }
    if config_error is not None:
        manifest["config_error"] = config_error
    _write_json(out / "manifest.json", manifest)
    print(f"manifest: {out / 'manifest.json'}")


# ----------------------------------------------------------------------
# argument parsing: one-shot flags assemble configs for run()
#
# Shared flags live on the action parsers (defined through parent parsers
# with SUPPRESS defaults) so they can follow the action word, while the
# calc/profile/walk/coarse parsers carry the same flags with real defaults
# for the --config route; SUPPRESS keeps an action parse from clobbering a
# value given before the action word.

_COMMON_FLAGS = (
    ("--seed", {"type": int}),
    ("--out", {}),
    ("--tol-overrides", {"metavar": "FILE",
                         "help": "JSON file of tolerance overrides"}),
)

_DATA_FLAGS = (
    ("--space", {"help": "space JSON file"}),
    ("--vp", {"help": "kernel JSON file"}),
    ("--kernel", {"choices": ["standard", "lazy_srw", "pure_srw"]}),
    ("--h", {"type": float}),
)


def _parents():
    shared = argparse.ArgumentParser(add_help=False)
    for flag, kw in _COMMON_FLAGS + _DATA_FLAGS:
        shared.add_argument(flag, default=argparse.SUPPRESS, **kw)
    return [shared]


def _add_route_flags(sp):
    sp.add_argument("--config", default=None,
                    help="experiment config JSON; overrides inline flags")
    for flag, kw in _COMMON_FLAGS + _DATA_FLAGS:
        sp.add_argument(flag, default=None, **kw)


def _common_config(args, ops, extra=None):
    cfg = dict(extra or {})
    cfg["operations"] = ops
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "tol_overrides", None):
        with open(args.tol_overrides) as fh:
            cfg["tolerances"] = json.load(fh)
    return cfg


def _space_cfg(args):
    space = getattr(args, "space", None)
    return {"space": {"file": space}} if space else {}


def _kernel_cfg(args):
    if getattr(args, "vp", None):
        return {"kernel": {"kind": "file", "path": args.vp}}
    kind = getattr(args, "kernel", None)
    if kind:
        k = {"kind": kind}
        h = getattr(args, "h", None)
        if h is not None:
            k["h"] = h
        return {"kernel": k}
    return {}


def _floats(text):
    return [float(x) for x in text.split(",") if x]


def build_parser():
    ap = argparse.ArgumentParser(
        prog="coarsecalc",
        description="calculus at a fixed scale on finite metric measure "
                    "spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    z = sub.add_parser("zoo", help="generate and inspect spaces")
    zs = z.add_subparsers(dest="action", required=True)
    zg = zs.add_parser("generate")
    zg.add_argument("--family", required=True, choices=sorted(zoo.FAMILIES))
    zg.add_argument("--d", type=int, default=None)
    zg.add_argument("--L", type=int, default=None)
    zg.add_argument("--metric", default=None, choices=zoo.GRID_METRICS)
    zg.add_argument("--n", type=int, default=None)
    zg.add_argument("--degree", type=int, default=None)
    zg.add_argument("--depth", type=int, default=None)
    zg.add_argument("--rank", type=int, default=None)
    zg.add_argument("--radius", type=int, default=None)
    zg.add_argument("--scale", type=float, default=None)
    zg.add_argument("--seed", type=int, default=None)
    zg.add_argument("--out", required=True)
    zi = zs.add_parser("info")
    zi.add_argument("--space", required=True)
    zi.add_argument("--scales", default="1,2")
    zi.add_argument("--b", type=float, default=None)

    v = sub.add_parser("viewpoint", help="build and check kernels")
    vs = v.add_subparsers(dest="action", required=True)
    for action in ("standard", "lazy", "random"):
        p = vs.add_parser(action)
        p.add_argument("--space", required=True)
        p.add_argument("--h", type=float, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
    p = vs.add_parser("symmetrize")
    p.add_argument("--space", required=True)
    p.add_argument("--vp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-space", default=None,
                   help="where to write the reweighted space")
    p = vs.add_parser("check")
    p.add_argument("--space", required=True)
    p.add_argument("--vp", required=True)

    c = sub.add_parser("calc", help="gradients, energies, coarea")
    _add_route_flags(c)
    cs = c.add_subparsers(dest="action")
    p = cs.add_parser("grad", parents=_parents())
    p.add_argument("--kind", default="sup",
                   choices=["sup", "lp", "viewpoint"])
    p.add_argument("--p", type=float, default=2)
    p.add_argument("--field", required=True)
    p = cs.add_parser("energy", parents=_parents())
    p.add_argument("--fields", default="random:20")
    p = cs.add_parser("coarea", parents=_parents())
    p.add_argument("--fields", default="random:20")
    p = cs.add_parser("sandwich", parents=_parents())
    p.add_argument("--fields", default="random:20")
    p.add_argument("--q", type=float, default=1)
    p.add_argument("--q2", type=float, default=2)

    pr = sub.add_parser("profile", help="isoperimetric and boundary "
                                        "profiles")
    _add_route_flags(pr)
    ps = pr.add_subparsers(dest="action")
    p = ps.add_parser("jp", parents=_parents())
    p.add_argument("--p", type=float, default=2)
    p.add_argument("--backend", default="sup:1")
    p.add_argument("--volumes", required=True)
    p = ps.add_parser("boundary", parents=_parents())
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--family", default="all")
    p = ps.add_parser("cheeger", parents=_parents())
    p.add_argument("--scale", type=float, default=1.0)
    p = ps.add_parser("sobolev", parents=_parents())
    p.add_argument("--backend", default="sup:1")
    p.add_argument("--p", type=float, default=2)
    p.add_argument("--phi", required=True)
    p.add_argument("--fields", default="random:40")
    p.add_argument("--assert-c", type=float, default=None)

    w = sub.add_parser("walk", help="return decay and spectral radii")
    _add_route_flags(w)
    ws = w.add_subparsers(dest="action")
    p = ws.add_parser("decay", parents=_parents())
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--n-max", type=int, default=64)
    p = ws.add_parser("gamma", parents=_parents())
    p.add_argument("--phi", required=True)
    p.add_argument("--t-min", type=float, default=1e-2)
    p.add_argument("--t-max", type=float, default=1e4)
    p.add_argument("--t-count", type=int, default=50)
    p.add_argument("--v-min", type=float, default=None)
    p = ws.add_parser("compare", parents=_parents())
    p.add_argument("--phi", required=True)
    p.add_argument("--n-max", type=int, default=256)
    p.add_argument("--centers", default=None)
    p = ws.add_parser("rho", parents=_parents())
    p.add_argument("--center", type=int, default=None)
    p.add_argument("--radii", default=None)

    co = sub.add_parser("coarse", help="equivalence certification and "
                                       "transfer")
    _add_route_flags(co)
    cos = co.add_subparsers(dest="action")
    p = cos.add_parser("certify", parents=_parents())
    p.add_argument("--target", required=True)
    p.add_argument("--map", default="identity")
    p.add_argument("--radii", default="")
    cos.add_parser("discretize", parents=_parents())
    p = cos.add_parser("thicken", parents=_parents())
    p.add_argument("--field", required=True)
    p.add_argument("--p", type=float, default=2)
    p = cos.add_parser("band", parents=_parents())
    p.add_argument("--target", required=True)
    p.add_argument("--map", default="identity")
    p.add_argument("--radii", default="")
    p.add_argument("--p", type=float, default=2)
    p.add_argument("--volumes", default=None)

    a = sub.add_parser("accept", help="run the acceptance suite")
    for flag, kw in _COMMON_FLAGS:
        a.add_argument(flag, default=None, **kw)
    a.add_argument("--criteria", default=None,
                   help="comma-separated subset, e.g. 1,4,6")
    return ap


def _cmd_zoo(args):
    if args.action == "generate":
        spec = {key: val for key, val in vars(args).items()
                if val is not None and key not in ("command", "action", "out")}
        try:
            space = _build_space(spec, ".", "/space")
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return 2
        save_space(space, args.out)
        print(f"{space.name}: {space.n} points, total measure "
              f"{space.total_measure:g} -> {args.out}")
        return 0
    space = load_space(args.space)
    print(f"{space.name}: {space.n} points, total measure "
          f"{space.total_measure:g}")
    for rep in doubling_profile(space, _floats(args.scales)):
        print(f"  doubling at r={rep.r:g}: C={rep.constant:.6g} "
              f"(worst point {rep.worst_point})")
    if args.b is not None:
        rep = geodesicity_report(space, [args.b])[0]
        print(f"  at b={args.b:g}: {rep['status']} "
              f"(mult {rep['mult']:.6g}, add {rep['add']:.6g})")
    return 0


def _cmd_viewpoint(args):
    space = load_space(args.space)
    if args.action == "check":
        try:
            vp = viewpoint.load_viewpoint(args.vp, space)
        except ValueError as exc:
            print(f"invalid kernel: {exc}", file=sys.stderr)
            return 1
        sym = viewpoint.is_symmetric(vp)
        cert = vp.certificate
        print(f"h={vp.h:g} kind={vp.kind} support_factor={cert.A:g} "
              f"floor={cert.c:g}")
        print("symmetric" if sym.symmetric else
              f"asymmetric at ({sym.x},{sym.y}): "
              f"{sym.p_xy:.12g} vs {sym.p_yx:.12g}")
        return 0
    if args.action == "symmetrize":
        vp_in = viewpoint.load_viewpoint(args.vp, space)
        vp, new_space = viewpoint.symmetrize(space, vp_in)
        if args.out_space:
            save_space(new_space, args.out_space)
    elif args.action == "standard":
        vp = viewpoint.standard_viewpoint(space, args.h)
    elif args.action == "lazy":
        vp = randomwalk.lazy_srw(space, args.h)
    else:
        if args.seed is None:
            print("config error at /seed: random kernel needs --seed",
                  file=sys.stderr)
            return 2
        vp = viewpoint.random_symmetric_viewpoint(
            space, args.h, np.random.default_rng(args.seed))
    viewpoint.save_viewpoint(vp, args.out)
    print(f"kernel -> {args.out}")
    return 0


def _one_shot_ops(args):
    """Translate subcommand flags into an operation list."""
    act = args.action
    h = getattr(args, "h", None)
    if args.command == "calc":
        if act == "grad":
            return [{"op": "grad", "kind": args.kind, "p": args.p,
                     "field": f"file:{args.field}",
                     **({"h": h} if h is not None else {})}]
        if act == "energy":
            return [{"op": "energy_check", "fields": args.fields}]
        if act == "coarea":
            return [{"op": "coarea_check", "fields": args.fields,
                     **({"h": h} if h is not None else {})}]
        if act == "sandwich":
            return [{"op": "gradient_sandwich", "fields": args.fields,
                     "q": args.q, "q2": args.q2}]
    if args.command == "profile":
        if act == "jp":
            return [{"op": "profile", "p": args.p, "backend": args.backend,
                     "volumes": _floats(args.volumes)}]
        if act == "boundary":
            return [{"op": "boundary_profile", "h": args.scale,
                     "family": args.family}]
        if act == "cheeger":
            return [{"op": "cheeger", "h": args.scale}]
        if act == "sobolev":
            op = {"op": "sobolev_verify", "backend": args.backend,
                  "p": args.p, "phi": args.phi, "fields": args.fields}
            if args.assert_c is not None:
                op["assert_C"] = args.assert_c
            return [op]
    if args.command == "walk":
        if act == "decay":
            return [{"op": "decay", "x": args.x,
                     "n": {"max": args.n_max}}]
        if act == "gamma":
            return [{"op": "gamma", "phi": args.phi,
                     "t": {"min": args.t_min, "max": args.t_max,
                           "count": args.t_count},
                     **({"v_min": args.v_min}
                        if args.v_min is not None else {})}]
        if act == "compare":
            op = {"op": "decay_vs_profile", "phi": args.phi,
                  "n": {"max": args.n_max}}
            if args.centers:
                op["centers"] = [int(x) for x in args.centers.split(",")]
            return [op]
        if act == "rho":
            op = {"op": "spectral_radius"}
            if args.radii:
                op["radii"] = _floats(args.radii)
                op["center"] = args.center or 0
            elif args.center is not None:
                op["center"] = args.center
            return [op]
    if args.command == "coarse":
        if act == "certify":
            return [{"op": "certify", "target": {"file": args.target},
                     "map": args.map if args.map == "identity"
                     else f"file:{args.map}",
                     "radii": _floats(args.radii)}]
        if act == "discretize":
            if h is None:
                return "discretize needs --h"
            return [{"op": "discretize", "h": h}]
        if act == "thicken":
            return [{"op": "thicken_support",
                     "field": f"file:{args.field}", "h": h or 1.0,
                     "p": args.p}]
        if act == "band":
            op = {"op": "transfer_band", "target": {"file": args.target},
                  "map": args.map if args.map == "identity"
                  else f"file:{args.map}",
                  "radii": _floats(args.radii), "p": args.p,
                  "h": h or 1.0}
            if args.volumes:
                op["volumes"] = _floats(args.volumes)
            return [op]
    return f"unknown action {act!r}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "zoo":
        return _cmd_zoo(args)
    if args.command == "viewpoint":
        return _cmd_viewpoint(args)
    if args.command == "accept":
        ops = [{"op": "accept"}]
        if args.criteria:
            ops[0]["criteria"] = [int(x) for x in args.criteria.split(",")]
        cfg = _common_config(args, ops)
        return run(cfg, out_dir=args.out)

    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error at /: {exc}", file=sys.stderr)
            return 2
        if getattr(args, "seed", None) is not None:
            cfg["seed"] = args.seed
        if getattr(args, "tol_overrides", None):
            with open(args.tol_overrides) as fh:
                cfg.setdefault("tolerances", {}).update(json.load(fh))
        return run(cfg, out_dir=getattr(args, "out", None) or
                   cfg.get("out"), base_dir=path.parent)

    if getattr(args, "action", None) is None:
        print(f"config error at /: {args.command} needs a subcommand or "
              f"--config", file=sys.stderr)
        return 2
    ops = _one_shot_ops(args)
    if isinstance(ops, str):
        print(f"config error at /: {ops}", file=sys.stderr)
        return 2
    cfg = _common_config(args, ops, _space_cfg(args))
    cfg.update(_kernel_cfg(args))
    return run(cfg, out_dir=getattr(args, "out", None))


if __name__ == "__main__":
    sys.exit(main())
