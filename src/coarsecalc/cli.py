"""Command-line driver binding the library end to end.

Subcommands cover space generation and IO (``zoo``), kernel construction
(``viewpoint``), calculus checks (``calc``), profile sweeps (``profile``),
walk experiments (``walk``), equivalence certification (``coarse``) and
the acceptance suite (``accept``). Each of calc/profile/walk/coarse also
takes ``--config FILE``: a JSON experiment description executed by
:func:`run`, which is the general path; inline flags cover the common
one-shot invocations and are translated into the same config form. The
table ``OPS`` declares every operation: its handler, required keys,
defaults, and the one-shot action and flags that fill its keys.

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
from dataclasses import asdict, dataclass, field as dataclass_field
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from coarsecalc import acceptance, calculus, coarse, profiles, randomwalk, \
    viewpoint, zoo
from coarsecalc.profiles import Backend, RateFunction
from coarsecalc.space import (doubling_profile, geodesicity_report,
                              load_space, save_space)

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

# a zoo family with its parameters; `zoo generate` takes one flag for each,
# in this order
_ZOO_SCHEMA = {
    "required": ["family"],
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
        "scale": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

# a saved space {"file": PATH}, or a zoo family
_SPACE_SCHEMA = {
    "type": "object",
    "if": {"required": ["file"]},
    "then": {"properties": {"file": {"type": "string"}},
             "additionalProperties": False},
    "else": _ZOO_SCHEMA,
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

# what a config's "tolerances" may override
TOLERANCES = {"energy_rel": 1e-10, "sandwich_slack": 1e-12}


class ConfigError(Exception):
    """Schema or semantic config failure, located by JSON pointer."""

    def __init__(self, pointer, message):
        self.pointer = pointer or "/"
        self.message = message
        super().__init__(f"config error at {self.pointer}: {message}")


def _check(schema, doc, pointer=""):
    """Raise ConfigError at the best-match violation of schema by doc, the
    part of a config found at pointer, or else at doc's first NaN: NaN
    passes every numeric rule of a schema, since it compares false."""
    err = best_match(Draft202012Validator(schema).iter_errors(doc))
    if err is not None:
        path = "".join(f"/{p}" for p in err.absolute_path)
        raise ConfigError(pointer + path, err.message)
    _refuse_nan(doc, pointer)


def _refuse_nan(doc, pointer):
    """Raise ConfigError at doc's first NaN, depth first."""
    if isinstance(doc, float) and math.isnan(doc):
        raise ConfigError(pointer, "NaN is not a valid number")
    if isinstance(doc, (dict, list)):
        for key, val in (doc.items() if isinstance(doc, dict)
                         else enumerate(doc)):
            _refuse_nan(val, f"{pointer}/{key}")


def validate_config(doc):
    """Raise ConfigError on the first (best-match) schema or semantic
    violation; the pointer names the offending element. Returns the
    operations with their defaults filled in."""
    _check(CONFIG_SCHEMA, doc)
    kernel = doc.get("kernel")
    if kernel:
        if kernel["kind"] in ("standard", "lazy_srw", "random_symmetric") \
                and "h" not in kernel:
            raise ConfigError("/kernel/h",
                              f"kernel kind {kernel['kind']!r} needs h")
        if kernel["kind"] == "file" and "path" not in kernel:
            raise ConfigError("/kernel/path", "kernel kind 'file' needs path")

    ops = []
    for i, op in enumerate(doc["operations"]):
        _check(_OP_SCHEMAS[op["op"]], op, f"/operations/{i}")
        if op["op"] == "spectral_radius" and "center" in op \
                and "radii" not in op:
            raise ConfigError(f"/operations/{i}/center", "center needs radii")
        merged = _merged(OPS[op["op"]].defaults, op)
        if isinstance(merged.get("n"), dict) and not _steps(merged["n"]):
            raise ConfigError(f"/operations/{i}/n",
                              f"the range of steps {merged['n']} is empty")
        ops.append(merged)
    _check_seed(doc, ops)
    return ops


def _merged(base, over):
    """base updated by over; a dict value updates a dict value key by key,
    so {"n": {"max": 8}} keeps the default start and step of n."""
    out = dict(base)
    for key, val in over.items():
        old = out.get(key)
        out[key] = {**old, **val} if isinstance(old, dict) \
            and isinstance(val, dict) else val
    return out


def _check_seed(doc, ops=()):
    """A config without a seed may draw no randomness: no random_symmetric
    kernel and no random field spec."""
    if "seed" in doc:
        return
    culprits = [f"/operations/{i}/{key}" for i, op in enumerate(ops)
                for key, val in op.items()
                if isinstance(val, str) and val.startswith("random:")]
    if doc.get("kernel", {}).get("kind") == "random_symmetric":
        culprits.insert(0, "/kernel (random_symmetric)")
    if culprits:
        raise ConfigError("/seed",
                          f"seed is mandatory: {culprits[0]} is stochastic")


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
    # the running operation: its JSON pointer, its name and its tag, the
    # prefix of its artifacts' names
    op_pointer: str = "/operations"
    op: str = None
    tag: str = None
    artifacts: list = dataclass_field(default_factory=list)
    failures: list = dataclass_field(default_factory=list)

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
        return self.base / relpath     # an absolute relpath stays as it is

    def emit(self, suffix, write, claim):
        """Write the artifact <tag><suffix> by write(path) and list it."""
        name = self.tag + suffix
        write(self.out / name)
        self.artifacts.append({"path": name, "operation": self.op,
                               "claim": claim})

    def emit_json(self, obj, claim, part=""):
        self.emit(f"{part}.json", lambda path: _write_json(path, obj), claim)

    def emit_csv(self, header, rows, claim):
        self.emit(".csv", lambda path: _write_csv(path, header, rows), claim)

    def fail(self, witness):
        self.emit_json(witness, "witness for a failed assertion", "_witness")
        self.failures.append({"operation": self.op,
                              "witness": f"{self.tag}_witness.json"})


def _build_space(spec, base, pointer):
    """The space a spec names: a saved ``{"file": ...}`` or a zoo family.
    A spec the space cannot be built from is a ConfigError at pointer."""
    try:
        if "file" in spec:
            return load_space(Path(base) / spec["file"])
        return zoo.generate(spec)
    except (OSError, ValueError) as exc:
        raise ConfigError(pointer, str(exc)) from None


def _build_kernel(spec, space, base, rng):
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
            return viewpoint.random_symmetric_viewpoint(space, spec["h"], rng)
        return viewpoint.load_viewpoint(Path(base) / spec["path"], space)
    except (OSError, ValueError) as exc:
        raise ConfigError("/kernel/path" if kind == "file" else "/kernel",
                          str(exc)) from None


def _read_json(path, pointer, schema=None):
    """The JSON document at path; one that cannot be read, or that fails
    the schema of the key naming it, is a ConfigError at pointer."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(pointer, str(exc)) from None
    if schema is not None:
        _check(schema, doc, pointer)
    return doc


def _fields(ctx, op, key, space=None):
    """Field list op[key] names: 'random:N', 'file:path', or an inline
    array, on space (the run's space by default)."""
    spec, pointer = op[key], f"{ctx.op_pointer}/{key}"
    n = (space or ctx.need_space()).n
    if isinstance(spec, str) and spec.startswith("random:"):
        k = spec.split(":", 1)[1]
        if not k.isdecimal() or int(k) == 0:
            raise ConfigError(pointer, f"bad field spec {spec!r}: N must be "
                                       f"a positive integer")
        out = [ctx.need_rng().standard_normal(n) for _ in range(int(k))]
    else:
        if isinstance(spec, str) and spec.startswith("file:"):
            spec = _read_json(ctx.resolve(spec.split(":", 1)[1]), pointer,
                              _FIELD_VALUES)
        elif not isinstance(spec, list):
            raise ConfigError(pointer, f"bad field spec {spec!r}")
        rows = [spec] if spec and not isinstance(spec[0], list) else spec
        out = [np.asarray(row, dtype=float) for row in rows]
        if any(f.shape != (n,) for f in out):
            raise ConfigError(pointer, f"a field needs one value for each "
                                       f"of the {n} points")
    return out


def _phi(ctx, op):
    """Rate spec: 'power:exp[,coef]', 'log_power:log,pow[,coef]',
    'tabulated:file'."""
    spec, pointer = op["phi"], f"{ctx.op_pointer}/phi"
    kind, _, rest = str(spec).partition(":")
    try:
        if kind in ("power", "log_power"):
            return getattr(RateFunction, kind)(*_spec_numbers(rest))
        if kind == "tabulated":
            doc = _read_json(ctx.resolve(rest), pointer)
            return RateFunction.tabulated(doc["args"], doc["values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(pointer, f"bad rate spec {spec!r}: {exc}") from None
    raise ConfigError(pointer, f"bad rate spec {spec!r}")


def _backend(ctx, op):
    """Backend spec: 'sup:h', 'lp:h', 'vp' (the run's kernel) or
    'vp:file'."""
    spec, pointer = op["backend"], f"{ctx.op_pointer}/backend"
    kind, _, rest = str(spec).partition(":")
    try:
        if kind in ("sup", "lp"):
            h, = _spec_numbers(rest)
            if h < 0 or kind == "lp" and h == 0:
                raise ValueError(f"the {kind} scale must be "
                                 f"{'>= 0' if kind == 'sup' else '> 0'}")
            return getattr(Backend, kind)(h)
        if kind == "vp":
            if rest:
                vp = viewpoint.load_viewpoint(ctx.resolve(rest),
                                              ctx.need_space())
            else:
                vp = ctx.need_kernel()
            return Backend.viewpoint(vp)
    except (OSError, ValueError) as exc:
        raise ConfigError(pointer,
                          f"bad backend spec {spec!r}: {exc}") from None
    raise ConfigError(pointer, f"bad backend spec {spec!r}")


def _spec_numbers(text):
    """The comma-separated numbers of a spec; a non-finite one is a
    ValueError, since NaN passes every bound a rate or backend sets."""
    nums = [float(x) for x in text.split(",")]
    if not all(map(math.isfinite, nums)):
        raise ValueError("numbers must be finite")
    return nums


def _steps(spec):
    if isinstance(spec, list):
        return [int(x) for x in spec]
    return list(range(int(spec["start"]), int(spec["max"]) + 1,
                      int(spec["step"])))


def _target_map(ctx, op, certify=True):
    """(space, target, F, cert): the run's space, the op's target space,
    the map into it ("identity", "file:PATH" or an inline list) and, with
    certify, the map's certificate over the op's radii."""
    space = ctx.need_space()
    target = _build_space(op["target"], ctx.base, f"{ctx.op_pointer}/target")
    spec, pointer = op["map"], f"{ctx.op_pointer}/map"
    if isinstance(spec, str) and spec.startswith("file:"):
        spec = _read_json(ctx.resolve(spec.split(":", 1)[1]), pointer,
                          _INDICES)
    if spec == "identity":
        if space.n != target.n:
            raise ConfigError(pointer,
                              "identity map needs equal point counts")
        F = np.arange(space.n)
    elif isinstance(spec, list):
        F = np.asarray(spec, dtype=np.int64)
        if F.shape != (space.n,) or F.min() < 0 or F.max() >= target.n:
            raise ConfigError(pointer, f"a map needs one of the target's "
                                       f"{target.n} points for each of the "
                                       f"{space.n} points")
    else:
        raise ConfigError(pointer, f"bad map spec {spec!r}")
    cert = coarse.certify_lse(space, target, F,
                              r_grid=[float(r) for r in op["radii"]]) \
        if certify else None
    return space, target, F, cert


# ----------------------------------------------------------------------
# operation handlers: each returns True/False for asserted invariants or
# None for purely informational output; OPS fills in the keys they read


def _op_energy_check(ctx, op):
    vp = ctx.need_kernel()
    fields = _fields(ctx, op, "fields")
    tol = float(ctx.tolerances["energy_rel"])
    rows, worst = [], (0.0, None)
    for i, f in enumerate(fields):
        d, g = calculus.energy(vp, f)
        e1 = abs(g - 2.0 * d) / max(abs(g), 1e-300)
        lhs, rhs = calculus.p2_energy_identity(vp, f)
        e2 = abs(lhs - 2.0 * rhs) / max(abs(lhs), 1e-300)
        rows.append((i, d, g, e1, lhs, rhs, e2))
        if max(e1, e2) > worst[0]:
            worst = (max(e1, e2), i)
    ctx.emit_csv(["field", "dirichlet", "grad_sq_half_x2", "rel_err_1",
                  "two_step_lhs", "two_step_rhs", "rel_err_2"], rows,
                 "one- and two-step energy identities hold to tolerance")
    if worst[0] > tol:
        ctx.fail({"field_index": worst[1], "rel_error": worst[0],
                  "field": fields[worst[1]]})
        return False
    return True


def _op_coarea_check(ctx, op):
    space = ctx.need_space()
    h = float(op["h"])
    fields = [np.abs(f) for f in _fields(ctx, op, "fields")]
    rows = []
    for i, f in enumerate(fields):
        lo, mid, up = calculus.coarea(space, f, h)
        rows.append((i, lo, mid, up))
    ctx.emit_csv(["field", "half_total", "integral", "total"], rows,
                 "threshold sums sandwich the gradient integral")
    return True


def _op_gradient_sandwich(ctx, op):
    vp = ctx.need_kernel()
    fields = _fields(ctx, op, "fields")
    q, q2 = float(op["q"]), float(op["q2"])
    slack = float(ctx.tolerances["sandwich_slack"])
    bad = None
    for i, f in enumerate(fields):
        rep = calculus.sandwich_report(vp, f, q, q2, slack=slack)
        if not rep.holds:
            bad = (i, f, rep)
            break
    ctx.emit_json({"fields": len(fields), "q": q, "q2": q2,
                   "violations": 0 if bad is None else 1},
                  "pointwise gradient chain holds across exponents")
    if bad is not None:
        i, f, rep = bad
        ctx.fail({"field_index": i, "field": f, "lower": rep.lower,
                  "vp_q": rep.vp_q, "vp_q2": rep.vp_q2, "upper": rep.upper})
        return False
    return True


def _op_smoothing(ctx, op):
    space = ctx.need_space()
    h = float(op["h"])
    fields = _fields(ctx, op, "fields")
    rows = []
    holds = True
    for i, f in enumerate(fields):
        rep = calculus.smoothing_report(space, f, h)
        rows.append((i, rep.measured, rep.bound, rep.holds))
        holds = holds and rep.holds
    ctx.emit_csv(["field", "measured", "bound", "holds"], rows,
                 "averaging constant stays under the doubling bound")
    return holds


def _op_grad(ctx, op):
    space = ctx.need_space()
    f = _fields(ctx, op, "field")[0]
    kind = op["kind"]
    backend = Backend.viewpoint(ctx.need_kernel()) if kind == "viewpoint" \
        else getattr(Backend, kind)(op["h"])
    ctx.emit_json(backend.gradient(space, f, float(op["p"])),
                  "gradient field values")
    return None


def _op_laplacian(ctx, op):
    vp = ctx.need_kernel()
    f = _fields(ctx, op, "field")[0]
    ctx.emit_json(calculus.laplacian(vp, f, p=float(op["p"])),
                  "scale Laplacian field values")
    return None


def _op_profile(ctx, op):
    space, b, p = ctx.need_space(), _backend(ctx, op), float(op["p"])
    if op["radii"] is not None:
        curve = profiles.profile_in_balls(space, b, p, op["radii"])
    else:
        curve = profiles.isoperimetric_profile(space, b, p, op["volumes"],
                                               strategy=op["strategy"])
    wits = {f"w{i}": w for i, w in enumerate(curve.witnesses)
            if w is not None}
    rows = [(a, v, curve.mode, "" if w is None else f"w{i}") for i, (a, v, w)
            in enumerate(zip(curve.args, curve.values, curve.witnesses))]
    claim = "isoperimetric profile samples with witnesses"
    ctx.emit_csv(["argument", "value", "mode", "witness"], rows, claim)
    ctx.emit_json({"kind": curve.kind, "args": curve.args,
                   "values": curve.values, "mode": curve.mode,
                   "meta": curve.meta, "witnesses": wits},
                  claim + " (JSON form)")
    return None


def _op_boundary_profile(ctx, op):
    curves = profiles.boundary_profile(ctx.need_space(), float(op["h"]),
                                       family=op["family"],
                                       t_grid=op["t_grid"])
    rows = []
    for curve in curves:
        for a, v in zip(curve.args, curve.values):
            rows.append((curve.kind, a, v, curve.mode))
    ctx.emit_csv(["curve", "mass", "value", "mode"], rows,
                 "boundary profiles over the mass grid")
    return None


def _op_cheeger(ctx, op):
    value, witness = profiles.cheeger(ctx.need_space(), float(op["h"]),
                                      op["family"])
    ctx.emit_json({"value": value, "witness_indices": witness.indices,
                   "witness_measure": witness.measure},
                  "boundary-to-volume minimum and its witness")
    return None


def _op_sobolev_verify(ctx, op):
    space = ctx.need_space()
    b = _backend(ctx, op)
    p = float(op["p"])
    phi = _phi(ctx, op)
    fields = _fields(ctx, op, "fields")
    rep = profiles.sobolev_verify(space, b, p, phi, fields)
    assert_c = op["assert_C"]
    passed = rep.passes and (assert_c is None or rep.C <= float(assert_c))
    ctx.emit_json({"passes": rep.passes, "C": rep.C, "C_prime": rep.C_prime,
                   "asserted_C": assert_c, "worst_index": rep.worst_index,
                   "margins": rep.margins},
                  "fitted norm-vs-gradient constant over the sample fields")
    if not passed:
        ctx.fail({"worst_index": rep.worst_index,
                  "field": fields[rep.worst_index],
                  "fitted_C": rep.C, "asserted_C": assert_c,
                  "failures": rep.failures})
    return passed


def _op_nash_check(ctx, op):
    space = ctx.need_space()
    vp = ctx.need_kernel()
    phi = _phi(ctx, op)
    fields = _fields(ctx, op, "fields")
    rep = profiles.nash_check(space, vp, phi, fields)
    assert_c = op["assert_C"]
    passed = rep.passes and (assert_c is None or rep.C <= float(assert_c))
    ctx.emit_json({"passes": rep.passes, "C": rep.C,
                   "asserted_C": assert_c, "margins": rep.margins},
                  "fitted Nash constant over the sample fields")
    if not passed:
        worst = int(np.argmin(rep.margins))
        ctx.fail({"worst_index": worst, "field": fields[worst],
                  "fitted_C": rep.C, "asserted_C": assert_c})
    return passed


def _op_decay(ctx, op):
    vp = ctx.need_kernel()
    curve = randomwalk.on_diagonal(vp, int(op["x"]), _steps(op["n"]))
    ctx.emit_csv(["n", "return_density"],
                 list(zip(curve.times, curve.values)),
                 "even-step return densities at the chosen point")
    return None


def _op_gamma(ctx, op):
    phi = _phi(ctx, op)
    t = op["t"]
    if isinstance(t, list):
        ts = np.asarray(t, dtype=float)
    else:
        ts = np.geomspace(float(t["min"]), float(t["max"]), int(t["count"]))
    gt = randomwalk.gamma_transform(phi, ts, v_min=op["v_min"])
    ctx.emit_csv(["t", "gamma"], list(zip(gt.t, gt.gamma)),
                 "decay transform of the rate function")
    ctx.emit_json({"v_min": gt.v_min, "tail_estimate": gt.tail_estimate,
                   "phi": gt.phi_kind},
                  "transform cutoff and tail bookkeeping", "_meta")
    return None


def _op_decay_vs_profile(ctx, op):
    space = ctx.need_space()
    vp = ctx.need_kernel()
    phi = _phi(ctx, op)
    rep = randomwalk.decay_vs_profile(space, vp, phi, _steps(op["n"]),
                                      centers=op["centers"])
    ctx.emit_json({"status": rep.status, "best_c": rep.best_c,
                   "slope_decay": rep.slope_decay,
                   "slope_gamma": rep.slope_gamma,
                   "kept_n": rep.kept_n, "meta": rep.meta},
                  "measured return decay against the rate transform")
    if rep.status == "skipped_bounded_phi":
        return None
    if rep.status != "ok":
        ctx.fail({"status": rep.status, "violating_n": rep.violating_n,
                  "decay": rep.decay})
        return False
    return True


def _op_nash_from_decay(ctx, op):
    space = ctx.need_space()
    vp = ctx.need_kernel()
    curve = randomwalk.on_diagonal(vp, int(op["x"]), _steps(op["n"]))
    fields = _fields(ctx, op, "fields")
    rep = randomwalk.nash_from_decay(space, vp, curve, fields)
    rows = [(e.index, e.skipped, e.n_star, e.constant, e.margin, e.passed)
            for e in rep.entries]
    ctx.emit_csv(["field", "skipped", "n_star", "constant", "margin",
                  "passed"], rows,
                 "per-field functional bounds induced by the decay curve")
    if not rep.passes:
        bad = [e.index for e in rep.entries if not (e.skipped or e.passed)]
        ctx.fail({"failing_fields": bad, "fields": [fields[i] for i in bad]})
        return False
    return True


def _op_spectral_radius(ctx, op):
    vp = ctx.need_kernel()
    space = ctx.need_space()
    if op["radii"] is not None:
        rhos = randomwalk.exhaustion_radii(vp, [
            space.ball(int(op["center"]), float(r)) for r in op["radii"]])
        ctx.emit_csv(["radius", "rho"],
                     list(zip([float(r) for r in op["radii"]], rhos)),
                     "compressed spectral radii along a ball exhaustion")
        return None
    if op["subset"] is not None:
        rho, residual = randomwalk.dirichlet_spectral_radius(vp,
                                                             op["subset"])
    else:
        rho, residual = randomwalk.spectral_radius(vp)
    ctx.emit_json({"rho": rho, "residual": residual},
                  "spectral radius and its eigen residual")
    return None


def _op_certify(ctx, op):
    _, _, _, cert = _target_map(ctx, op)
    ctx.emit_json(cert.to_dict(),
                  "distortion envelopes and volume constants for the map")
    if not cert.ok:
        ctx.fail({"axiom": cert.violation.axiom,
                  "detail": cert.violation.detail,
                  "witness": cert.violation.witness})
        return False
    return True


def _op_discretize(ctx, op):
    disc = coarse.discretize(ctx.need_space(), float(op["h"]))
    ctx.emit("_net.json", lambda path: save_space(disc.graph, path),
             "net space at the scale")
    ctx.emit_json({"centers": disc.centers, "assign": disc.assign},
                  "net centers and the projection map", "_assign")
    ctx.emit_json(disc.certificate.to_dict(),
                  "round-trip certificate for the net", "_certificate")
    return disc.certificate.ok


def _op_pullback_transfer(ctx, op):
    space, target, F, cert = _target_map(ctx, op)
    f_target = _fields(ctx, op, "field", space=target)[0]
    rep = coarse.pullback_transfer_report(
        space, target, F, cert, f_target, float(op["h"]),
        p=float(op["p"]), q=float(op["q"]))
    ctx.emit_json(asdict(rep),
                  "measured norm, gradient and support transfer constants")
    return rep.status == "ok"


def _op_transfer_band(ctx, op):
    # the band reads the certificate's volume constants, which certify_lse
    # measures only over a radius grid
    if not op["radii"]:
        raise ConfigError(f"{ctx.op_pointer}/radii",
                          "transfer_band needs a nonempty radii grid")
    space, target, F, cert = _target_map(ctx, op)
    if not cert.ok:
        ctx.fail({"axiom": cert.violation.axiom,
                  "detail": cert.violation.detail})
        return False
    band = coarse.profile_transfer_band(
        space, target, F, cert, p=float(op["p"]), h=float(op["h"]),
        v_grid=op["volumes"])
    ctx.emit_json({"within_band": band.within_band, "K": band.K,
                   "K_prime": band.K_prime, "volumes": band.volumes,
                   "ratios": band.ratios, "scales": band.scales,
                   "in_range": band.in_range},
                  "profile ratios against the certificate-derived band "
                  "(asserted on the in-range volumes)")
    if not band.within_band:
        ctx.fail({"ratios": band.ratios, "K_prime": band.K_prime,
                  "in_range": band.in_range})
        return False
    return True


def _op_thicken_support(ctx, op):
    space = ctx.need_space()
    f = _fields(ctx, op, "field")[0]
    res = coarse.thicken_support(space, f, float(op["h"]), p=float(op["p"]))
    ctx.emit_json({"status": res.status,
                   "thick_support": res.thick_support.indices,
                   "measure_inflation": res.measure_inflation,
                   "gradient_ratio": res.gradient_ratio,
                   "detail": res.detail, "field": res.field},
                  "support fattening with norm and gradient guarantees")
    return None


def _op_rough_volume(ctx, op):
    space, target, F, _ = _target_map(ctx, op, certify=False)
    rep = coarse.rough_volume_check(
        space, target, F, space.subset(op["A"]),
        target.subset(op["A_target"]), float(op["u"]))
    result = asdict(rep)
    ctx.emit_json(result, "volume comparability across the map at the scale")
    if rep.status == "skipped_no_containment":
        return None
    if not rep.holds:
        ctx.fail(result)
    return bool(rep.holds)


def _op_scale_reduction(ctx, op):
    space = ctx.need_space()
    fields = _fields(ctx, op, "fields")
    rep = coarse.scale_reduction_check(
        space, float(op["b"]), float(op["h"]), fields,
        profile_radii=[float(r) for r in op["profile_radii"]])
    ctx.emit_json(asdict(rep),
                  "distribution bound reducing the scale to the step size")
    if rep.status == "ok":
        return True
    if rep.status == "skipped_not_geodesic":
        return None
    return False


def _op_accept(ctx, op):
    results = acceptance.run_all(op["criteria"])
    table = acceptance.as_table(results)
    ctx.emit_json(table, "acceptance criteria with sub-checks and timings")
    ctx.emit_csv(["id", "passed", "runtime_s", "title"],
                 [(r.cid, r.passed, round(r.runtime_s, 3), r.title)
                  for r in results], "acceptance summary table")
    for r in results:
        print(r.line())
        if r.discrepancy:
            print(f"    note: {r.discrepancy}")
    if not table["passed"]:
        bad = [r.cid for r in results if not r.passed]
        ctx.fail({"failing_criteria": bad,
                  "checks": {str(r.cid): r.checks for r in results
                             if not r.passed}})
        return False
    return True


# ----------------------------------------------------------------------
# the operation table
#
# A one-shot flag is (flag, op key, converter, argparse keywords); a flag
# left unset or empty leaves its key out. The shared --h fills h as well.


def _floats(text):
    return [_number(float, x) for x in text.split(",") if x]


def _ints(text):
    return [_number(int, x) for x in text.split(",") if x]


def _number(kind, text):
    """text as a kind, or as given for the schema to refuse at its key."""
    try:
        return kind(text)
    except ValueError:
        return text


@dataclass(frozen=True)
class Op:
    """One operation: its handler, the keys it cannot run without, the
    values of the keys it may leave out and, for a one-shot action, the
    command, the action word and the flags that fill its keys. Its needs
    and defaults are all the keys it takes: a default of None marks a key
    read only when given."""
    handler: object
    needs: tuple = ()
    defaults: dict = dataclass_field(default_factory=dict)
    command: str = None
    action: str = None
    flags: tuple = ()


_FLOAT, _INT = {"type": float}, {"type": int}
_REQUIRED = {"required": True}
_STEPS = {"start": 1, "max": 64, "step": 1}
_FIELDS = ("--fields", "fields", None, {})
_P = ("--p", "p", None, _FLOAT)
_H = ("--h", "h", None, {})
_FIELD = ("--field", "field", lambda path: f"file:{path}", _REQUIRED)
_TARGET = (("--target", "target", lambda path: {"file": path}, _REQUIRED),
           ("--map", "map",
            lambda path: path if path == "identity" else f"file:{path}", {}),
           ("--radii", "radii", _floats, {}))
_N_MAX = ("--n-max", "n", lambda n: {"max": n}, _INT)
# the gradients grad reads, one per Backend kind
_BACKEND_KINDS = ["sup", "lp", "viewpoint"]

# in the order the one-shot actions are listed in --help
OPS = {
    "grad": Op(_op_grad, ("field",), {"kind": "sup", "p": 2, "h": 1.0},
               "calc", "grad",
               (("--kind", "kind", None, {"choices": _BACKEND_KINDS}), _P,
                _FIELD, _H)),
    "energy_check": Op(_op_energy_check, (), {"fields": "random:20"},
                       "calc", "energy", (_FIELDS,)),
    "coarea_check": Op(_op_coarea_check, (),
                       {"h": 1.0, "fields": "random:20"},
                       "calc", "coarea", (_FIELDS, _H)),
    "gradient_sandwich": Op(_op_gradient_sandwich, (),
                            {"fields": "random:20", "q": 1, "q2": 2},
                            "calc", "sandwich",
                            (_FIELDS, ("--q", "q", None, _FLOAT),
                             ("--q2", "q2", None, _FLOAT))),
    "profile": Op(_op_profile, (),
                  {"backend": "sup:1", "p": 2, "strategy": "candidates",
                   "volumes": None, "radii": None},
                  "profile", "jp",
                  (_P, ("--backend", "backend", None, {}),
                   ("--volumes", "volumes", _floats, _REQUIRED))),
    "boundary_profile": Op(_op_boundary_profile, (),
                           {"h": 1.0, "family": "all", "t_grid": None},
                           "profile", "boundary",
                           (("--scale", "h", None, _FLOAT),
                            ("--family", "family", None, {}))),
    "cheeger": Op(_op_cheeger, (), {"h": 1.0, "family": "all"},
                  "profile", "cheeger", (("--scale", "h", None, _FLOAT),)),
    "sobolev_verify": Op(_op_sobolev_verify, ("phi",),
                         {"backend": "sup:1", "p": 2, "fields": "random:40",
                          "assert_C": None},
                         "profile", "sobolev",
                         (("--backend", "backend", None, {}), _P,
                          ("--phi", "phi", None, _REQUIRED), _FIELDS,
                          ("--assert-c", "assert_C", None, _FLOAT))),
    "decay": Op(_op_decay, (), {"x": 0, "n": _STEPS}, "walk", "decay",
                (("--x", "x", None, _INT), _N_MAX)),
    "gamma": Op(_op_gamma, ("phi",),
                {"t": {"min": 1e-2, "max": 1e4, "count": 50}, "v_min": None},
                "walk", "gamma",
                (("--phi", "phi", None, _REQUIRED),
                 ("--t-min", "t", lambda t: {"min": t}, _FLOAT),
                 ("--t-max", "t", lambda t: {"max": t}, _FLOAT),
                 ("--t-count", "t", lambda t: {"count": t}, _INT),
                 ("--v-min", "v_min", None, _FLOAT))),
    "decay_vs_profile": Op(_op_decay_vs_profile, ("phi",),
                           {"n": dict(_STEPS, max=256), "centers": None},
                           "walk", "compare",
                           (("--phi", "phi", None, _REQUIRED), _N_MAX,
                            ("--centers", "centers", _ints, {}))),
    "spectral_radius": Op(_op_spectral_radius, (),
                          {"center": 0, "radii": None, "subset": None},
                          "walk", "rho",
                          (("--center", "center", None, _INT),
                           ("--radii", "radii", _floats, {}))),
    "certify": Op(_op_certify, ("target",), {"map": "identity", "radii": []},
                  "coarse", "certify", _TARGET),
    "discretize": Op(_op_discretize, ("h",), {}, "coarse", "discretize",
                     (_H,)),
    "thicken_support": Op(_op_thicken_support, ("field",),
                          {"h": 1.0, "p": 2}, "coarse", "thicken",
                          (_FIELD, _P, _H)),
    "transfer_band": Op(_op_transfer_band, ("target",),
                        {"map": "identity", "p": 2, "h": 1.0,
                         "volumes": None, "radii": None},
                        "coarse", "band",
                        _TARGET + (_P, ("--volumes", "volumes", _floats, {}),
                                   _H)),
    "accept": Op(_op_accept, (), {"criteria": None}),
    "laplacian": Op(_op_laplacian, ("field",), {"p": 2}),
    "nash_check": Op(_op_nash_check, ("phi",),
                     {"fields": "random:40", "assert_C": None}),
    "nash_from_decay": Op(_op_nash_from_decay, (),
                          {"x": 0, "n": _STEPS, "fields": "random:20"}),
    "pullback_transfer": Op(_op_pullback_transfer, ("target", "field"),
                            {"map": "identity", "radii": [], "h": 1.0,
                             "p": 2, "q": 2}),
    "rough_volume": Op(_op_rough_volume, ("target", "A", "A_target", "u"),
                       {"map": "identity"}),
    "scale_reduction": Op(_op_scale_reduction, ("b", "h"),
                          {"fields": "random:10", "profile_radii": []}),
    "smoothing": Op(_op_smoothing, (), {"h": 1.0, "fields": "random:10"}),
}


# point indices, range-checked against the space as the operation runs
_INDICES = {"type": "array", "items": {"type": "integer"}}
_FAMILY_SCHEMA = {"anyOf": [{"enum": ["all", "balls"]},
                            {"type": "array", "items": _INDICES}]}
# one field or a list of fields, inline or in the file a field spec names
_FIELD_VALUES = {"type": "array", "items": {"type": ["number", "array"],
                                            "items": {"type": "number"}}}
_NUMBER, _NATURAL = {"type": "number"}, {"type": "integer", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_RADII = {"type": "array", "items": {"type": "number", "minimum": 0}}
# J_p is defined for 1 <= p <= inf ("inf")
_EXPONENT = {"anyOf": [{"type": "number", "minimum": 1}, {"const": "inf"}]}
# the types of the keys operations take; a key not named here takes any
# value
_OP_KEYS = {"target": _SPACE_SCHEMA, "family": _FAMILY_SCHEMA,
            "p": _EXPONENT, "q": _EXPONENT, "q2": _EXPONENT,
            "h": _NUMBER, "b": _NUMBER, "u": _NUMBER,
            "x": _NATURAL, "center": _NATURAL,
            "centers": {"type": "array", "items": _NATURAL, "minItems": 1},
            "subset": {"anyOf": [_INDICES, {"type": "null"}]},
            "A": _INDICES, "A_target": _INDICES,
            "kind": {"enum": _BACKEND_KINDS},
            "strategy": {"enum": ["candidates", "exact"]},
            "volumes": {"type": "array", "items": _NUMBER},
            "radii": _RADII, "profile_radii": _RADII,
            "t_grid": {"type": ["array", "null"], "items": _NUMBER},
            "assert_C": {"type": ["number", "null"]},
            "v_min": {"type": ["number", "null"], "exclusiveMinimum": 0},
            "field": {"anyOf": [{"type": "string"}, _FIELD_VALUES]},
            "fields": {"anyOf": [{"type": "string"}, _FIELD_VALUES]},
            "map": {"anyOf": [{"type": "string"}, _INDICES]},
            # walk steps, rate arguments: a list, or a range to expand
            "n": {"type": ["array", "object"], "items": _NATURAL,
                  "minItems": 1,
                  "properties": {"start": _NATURAL,
                                 "max": {"type": "integer"},
                                 "step": {"type": "integer", "minimum": 1}},
                  "additionalProperties": False},
            # a geometric grid of rate arguments has positive ends
            "t": {"type": ["array", "object"], "items": _POSITIVE,
                  "minItems": 1,
                  "properties": {"min": _POSITIVE, "max": _POSITIVE,
                                 "count": {"type": "integer", "minimum": 1}},
                  "additionalProperties": False},
            "criteria": {"anyOf": [_INDICES, {"type": "null"}]}}

# each operation takes its op, its needs and its defaults, and no other key
_OP_SCHEMAS = {name: {"required": list(spec.needs),
                      "properties": {"op": {"const": name},
                                     **{key: _OP_KEYS.get(key, {}) for key
                                        in (*spec.needs, *spec.defaults)}},
                      "additionalProperties": False}
               for name, spec in OPS.items()}
# profile needs volumes unless it has radii
_OP_SCHEMAS["profile"].update({"if": {"not": {"required": ["radii"]}},
                               "then": {"required": ["volumes"]}})

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["operations"],
    "properties": {
        "space": _SPACE_SCHEMA,
        "kernel": _KERNEL_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "tolerances": {"type": "object",
                       "properties": {key: {"type": "number"}
                                      for key in TOLERANCES},
                       "additionalProperties": False},
        "operations": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "object",
                      "required": ["op"],
                      "properties": {"op": {"enum": sorted(OPS)}}},
        },
    },
    "additionalProperties": False,
}


def run(config, out_dir=None, base_dir=".") -> int:
    """Execute a validated experiment config; returns the exit code.

    Operations run sequentially; assertion failures do not stop the run
    (each writes its witness), so one invocation reports everything it
    can. The manifest is written last and lists every artifact. A config
    error met while an operation runs stops the run with exit code 2; the
    manifest then lists what ran and records the error. Any other error
    an operation raises is its failure, with the message as witness.
    """
    try:
        ops = validate_config(config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2

    out = Path(out_dir or config.get("out", "coarsecalc_out"))
    ctx = RunContext(out=out, base=Path(base_dir),
                     tolerances={**TOLERANCES, **config.get("tolerances", {})})
    if "seed" in config:
        ctx.rng = np.random.default_rng(int(config["seed"]))
    try:
        if "space" in config:
            ctx.space = _build_space(config["space"], ctx.base, "/space")
        if "kernel" in config:
            ctx.kernel = _build_kernel(config["kernel"], ctx.need_space(),
                                       ctx.base, ctx.rng)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)

    statuses = []
    for i, op in enumerate(ops):
        name = op["op"]
        ctx.op_pointer, ctx.op, ctx.tag = \
            f"/operations/{i}", name, f"{i:02d}_{name}"
        try:
            outcome = OPS[name].handler(ctx, op)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            _write_manifest(out, config, statuses, ctx, False, {
                "pointer": exc.pointer, "message": exc.message})
            return 2
        except Exception as exc:
            print(f"{ctx.tag}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ctx.fail({"error": str(exc)})
            outcome = False
        statuses.append((name, outcome))
        label = "info" if outcome is None else \
            ("ok" if outcome else "FAIL")
        print(f"{ctx.tag}: {label}")

    all_passed = all(s is None or s for _, s in statuses)
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
# Shared flags live on the action parsers (defined through a parent parser
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

# the commands whose actions are the one-shot operations of OPS
_COMMANDS = {"calc": "gradients, energies, coarea",
             "profile": "isoperimetric and boundary profiles",
             "walk": "return decay and spectral radii",
             "coarse": "equivalence certification and transfer"}


# the argparse type of a flag filling a schema property of that type
_FLAG_TYPES = {"integer": int, "number": float}

# the kernel kind each viewpoint action builds
_VIEWPOINT_KINDS = {"standard": "standard", "lazy": "lazy_srw",
                    "random": "random_symmetric", "symmetrize": "file",
                    "check": "file"}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="coarsecalc",
        description="calculus at a fixed scale on finite metric measure "
                    "spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    z = sub.add_parser("zoo", help="generate and inspect spaces")
    zs = z.add_subparsers(dest="action", required=True)
    zg = zs.add_parser("generate")
    # the schema checks the values, so an enum is only shown as choices
    for key, prop in _ZOO_SCHEMA["properties"].items():
        zg.add_argument(f"--{key}", type=_FLAG_TYPES.get(prop.get("type")),
                        required=key in _ZOO_SCHEMA["required"],
                        metavar="{%s}" % ",".join(prop["enum"])
                        if "enum" in prop else None)
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

    shared = argparse.ArgumentParser(add_help=False)
    for flag, kw in _COMMON_FLAGS + _DATA_FLAGS:
        shared.add_argument(flag, default=argparse.SUPPRESS, **kw)
    for command, text in _COMMANDS.items():
        c = sub.add_parser(command, help=text)
        c.add_argument("--config", default=None,
                       help="experiment config JSON; overrides inline flags")
        for flag, kw in _COMMON_FLAGS + _DATA_FLAGS:
            c.add_argument(flag, default=None, **kw)
        actions = c.add_subparsers(dest="action")
        for name, spec in OPS.items():
            if spec.command == command:
                p = actions.add_parser(spec.action, parents=[shared])
                p.set_defaults(operation=name)
                for flag, _, _, kw in spec.flags:
                    if flag != "--h":   # shared, already on p
                        p.add_argument(flag, **kw)

    a = sub.add_parser("accept", help="run the acceptance suite")
    for flag, kw in _COMMON_FLAGS:
        a.add_argument(flag, default=None, **kw)
    a.add_argument("--criteria", default=None,
                   help="comma-separated subset, e.g. 1,4,6")
    return ap


def _cmd_zoo(args):
    if args.action == "generate":
        spec = {key: getattr(args, key) for key in _ZOO_SCHEMA["properties"]
                if getattr(args, key) is not None}
        _check(_SPACE_SCHEMA, spec, "/space")
        space = _build_space(spec, ".", "/space")
        save_space(space, args.out)
        print(f"{space.name}: {space.n} points, total measure "
              f"{space.total_measure:g} -> {args.out}")
        return 0
    flags = {"scales": _floats(args.scales)}
    if args.b is not None:
        flags["b"] = args.b
    _check({"properties": {"scales": {"items": _POSITIVE}, "b": _POSITIVE}},
           flags)
    space = _build_space({"file": args.space}, ".", "/space")
    print(f"{space.name}: {space.n} points, total measure "
          f"{space.total_measure:g}")
    for rep in doubling_profile(space, flags["scales"]):
        print(f"  doubling at r={rep.r:g}: C={rep.constant:.6g} "
              f"(worst point {rep.worst_point})")
    if args.b is not None:
        rep = geodesicity_report(space, [args.b])[0]
        print(f"  at b={args.b:g}: {rep['status']} "
              f"(mult {rep['mult']:.6g}, add {rep['add']:.6g})")
    return 0


def _cmd_viewpoint(args):
    kind = _VIEWPOINT_KINDS[args.action]
    spec = {"kind": kind, "path": args.vp} if kind == "file" else \
        {"kind": kind, "h": args.h}
    doc = {"kernel": spec}
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    _check(_KERNEL_SCHEMA, spec, "/kernel")
    _check_seed(doc)
    space = _build_space({"file": args.space}, ".", "/space")
    try:
        vp = _build_kernel(spec, space, ".",
                           np.random.default_rng(doc.get("seed")))
    except ConfigError as exc:
        # check reports a readable file that holds no valid kernel
        if args.action != "check" or \
                not isinstance(exc.__context__, ValueError):
            raise
        print(f"invalid kernel: {exc.message}", file=sys.stderr)
        return 1
    if args.action == "check":
        sym = viewpoint.is_symmetric(vp)
        print(f"h={vp.h:g} kind={vp.kind} support_factor={vp.A:g} "
              f"floor={vp.c:g}")
        print("symmetric" if sym.symmetric else
              f"asymmetric at ({sym.x},{sym.y}): "
              f"{sym.p_xy:.12g} vs {sym.p_yx:.12g}")
        return 0
    if args.action == "symmetrize":
        vp, new_space = viewpoint.symmetrize(space, vp)
        if args.out_space:
            save_space(new_space, args.out_space)
    viewpoint.save_viewpoint(vp, args.out)
    print(f"kernel -> {args.out}")
    return 0


def _one_shot_config(args):
    """The config an action's flags describe; a flag left unset or empty
    leaves its key out, for the operation's default to fill."""
    op = {"op": args.operation}
    for flag, key, convert, _ in OPS[args.operation].flags:
        val = getattr(args, flag[2:].replace("-", "_"))
        if val not in (None, ""):
            op = _merged(op, {key: convert(val) if convert else val})
    cfg = {"operations": [op]}
    if args.space:
        cfg["space"] = {"file": args.space}
    if args.vp:
        cfg["kernel"] = {"kind": "file", "path": args.vp}
    elif args.kernel:
        cfg["kernel"] = {"kind": args.kernel}
        if args.h is not None:
            cfg["kernel"]["h"] = args.h
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    base = "."
    try:
        if args.command == "zoo":
            return _cmd_zoo(args)
        if args.command == "viewpoint":
            return _cmd_viewpoint(args)
        if args.command == "accept":
            cfg = {"operations": [{"op": "accept"}]}
            if args.criteria:
                cfg["operations"][0]["criteria"] = _ints(args.criteria)
        elif args.config:
            base = Path(args.config).parent
            cfg = _read_json(args.config, "/", {"type": "object"})
        elif args.action is None:
            raise ConfigError("/", f"{args.command} needs a subcommand or "
                              f"--config")
        else:
            cfg = _one_shot_config(args)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.tol_overrides:
            cfg.setdefault("tolerances", {}).update(
                _read_json(args.tol_overrides, "/tolerances",
                           CONFIG_SCHEMA["properties"]["tolerances"]))
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    return run(cfg, out_dir=args.out, base_dir=base)


if __name__ == "__main__":
    sys.exit(main())
