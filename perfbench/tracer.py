"""Spans around calls into coarsecalc, recorded from the benchmark's side.

``Tracer.install`` replaces every public function of the eight layer
modules, and the public methods of ``MetricMeasureSpace`` and ``Backend``,
with a wrapper that records one span per call: its name
``layer.function``, start, end, parent span and the root span (set-up or
one task) it ran under. The wrapper is bound under every name that refers
to the function in any coarsecalc module, so calls from one module into
another, and within a module, are seen as well. ``uninstall`` puts the
originals back. Spans stay in memory; ``write`` saves them and ``metrics``
turns them into the per-layer figures.
"""

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("space", "zoo", "viewpoint", "calculus", "profiles", "randomwalk",
          "coarse", "cli")

# Class methods traced as part of a layer. ball_rows is a generator, so
# its cost shows in the ball() spans it makes.
METHODS = {
    "space": ("MetricMeasureSpace", ("ball", "dist_row", "volume",
                                     "min_dist_to", "dense_matrix",
                                     "from_dense", "from_graph",
                                     "from_coords")),
    "profiles": ("Backend", ("gradient", "pair_weights", "relation_rows")),
}

# Inclusive time of each group of functions; a call nested inside another
# call of the same group is counted once, through the outer one.
TIMED = {
    "space.ball_sweep_s": ("space.MetricMeasureSpace.ball",),
    "space.boundary_s": ("space.boundary",),
    "space.save_s": ("space.save_space",),
    "space.load_s": ("space.load_space",),
    "zoo.generate_s": ("zoo.*",),
    "viewpoint.build_s": ("viewpoint.standard_viewpoint",
                          "viewpoint.random_symmetric_viewpoint",
                          "viewpoint.compose", "viewpoint.symmetrize"),
    "viewpoint.validate_s": ("viewpoint.validate", "viewpoint.is_symmetric"),
    "viewpoint.load_s": ("viewpoint.load_viewpoint",),
    "calculus.form_s": ("calculus.l2_gradient_form",
                        "calculus.viewpoint_l2_form"),
    "calculus.grad_s": ("calculus.grad_sup", "calculus.grad_lp",
                        "calculus.grad_viewpoint", "calculus.fiber_gradient"),
    "calculus.identity_s": ("calculus.energy", "calculus.p2_energy_identity",
                            "calculus.coarea", "calculus.sandwich_report"),
    "profiles.candidates_s": ("profiles.candidate_subsets",),
    "profiles.profile_s": ("profiles.isoperimetric_profile",
                           "profiles.profile_in_balls"),
    "profiles.exact_s": ("#exact",),
    "profiles.descent_s": ("#descent",),
    "randomwalk.kernel_s": ("randomwalk.lazy_srw", "randomwalk.pure_srw"),
    "randomwalk.iterate_s": ("randomwalk.iterate",),
    "randomwalk.spectral_s": ("randomwalk.spectral_radius",
                              "randomwalk.dirichlet_spectral_radius",
                              "randomwalk.exhaustion_radii"),
    "randomwalk.gamma_s": ("randomwalk.gamma_transform",),
    "coarse.certify_s": ("coarse.certify_lse",),
    "coarse.discretize_s": ("coarse.discretize",),
    "coarse.pullback_s": ("coarse.pullback",
                          "coarse.pullback_transfer_report"),
    "coarse.band_s": ("coarse.profile_transfer_band",),
    "cli.run_s": ("cli.run",),
}

# Counts gathered by the hooks below, with their units.
COUNTED = {
    "space.balls": "count",
    "space.ball_pairs": "count",
    "space.file_bytes": "bytes",
    "viewpoint.nnz": "count",
    "profiles.jp_calls": "count",
    "profiles.candidates": "count",
    "profiles.subsets": "count",
    "randomwalk.steps": "count",
    "randomwalk.power_iters": "count",
    "cli.artifacts": "count",
    "cli.artifact_bytes": "bytes",
}

VIEWPOINT_BUILDERS = ("viewpoint.standard_viewpoint",
                      "viewpoint.random_symmetric_viewpoint",
                      "viewpoint.compose", "viewpoint.symmetrize",
                      "viewpoint.viewpoint_from_json",
                      "randomwalk.lazy_srw", "randomwalk.pure_srw")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _ball_hook(fn, args, kwargs, out, counts):
    counts["space.balls"] += 1
    counts["space.ball_pairs"] += len(out)


def _save_hook(fn, args, kwargs, out, counts):
    counts["space.file_bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


def _viewpoint_hook(fn, args, kwargs, out, counts):
    vp = out[0] if isinstance(out, tuple) else out
    counts["viewpoint.nnz"] += vp.dens.nnz


def _jp_hook(fn, args, kwargs, out, counts):
    counts["profiles.jp_calls"] += 1
    a = _bound(fn, args, kwargs)
    p, kind = a["p"], a["backend"].kind
    if p not in (1, 2) and not np.isinf(p) or (p == 2 and kind == "sup"):
        return "descent"
    return None


def _candidates_hook(fn, args, kwargs, out, counts):
    counts["profiles.candidates"] += len(out)


def _exhaustive_hook(fn, args, kwargs, out, counts):
    a = _bound(fn, args, kwargs)
    exact = a.get("strategy") == "exact" or (
        isinstance(a.get("family"), str) and a["family"] == "all")
    if exact:
        counts["profiles.subsets"] += 2 ** a["space"].n
        return "exact"
    return None


def _iterate_hook(fn, args, kwargs, out, counts):
    counts["randomwalk.steps"] += int(_bound(fn, args, kwargs)["n_max"])


def _spectral_hook(fn, args, kwargs, out, counts):
    counts["randomwalk.power_iters"] += int(out[1])


def _cli_run_hook(fn, args, kwargs, out, counts):
    a = _bound(fn, args, kwargs)
    out_dir = a["out_dir"] or a["config"].get("out", "coarsecalc_out")
    if not os.path.isdir(out_dir):
        return None
    for entry in os.scandir(out_dir):
        if entry.is_file():
            counts["cli.artifacts"] += 1
            counts["cli.artifact_bytes"] += entry.stat().st_size


HOOKS = {
    "space.MetricMeasureSpace.ball": _ball_hook,
    "space.save_space": _save_hook,
    "profiles.jp_subset": _jp_hook,
    "profiles.candidate_subsets": _candidates_hook,
    "profiles.isoperimetric_profile": _exhaustive_hook,
    "profiles.boundary_profile": _exhaustive_hook,
    "profiles.cheeger": _exhaustive_hook,
    "randomwalk.iterate": _iterate_hook,
    "randomwalk.spectral_radius": _spectral_hook,
    "randomwalk.dirichlet_spectral_radius": _spectral_hook,
    "cli.run": _cli_run_hook,
}
HOOKS.update({name: _viewpoint_hook for name in VIEWPOINT_BUILDERS})


def per_layer_units():
    """Every per-layer metric the tracer reports, with its unit."""
    units = {name: "s" for name in TIMED}
    units.update(COUNTED)
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    return units


class Tracer:
    """Records spans for calls into coarsecalc while installed."""

    def __init__(self, workload):
        self.workload = workload
        self.names = []         # name id -> "layer.function"
        self.spans = []         # (id, parent, name id, start, end, root, raised)
        self.tags = {}          # span id -> tag set by a hook
        self.counts = defaultdict(int)
        self._cur = 0
        self._root = 0
        self._next = 1
        self._patches = []
        self._targets = None

    # ------------------------------------------------------------------

    def _discover(self):
        """(owner, attribute, span name, function) for every traced callable."""
        targets = []
        for layer in LAYERS:
            mod = importlib.import_module(f"coarsecalc.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or \
                        inspect.isgeneratorfunction(obj):
                    continue
                targets.append((mod, attr, f"{layer}.{attr}", obj))
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(mod, cls_name)
                for attr in methods:
                    targets.append((cls, attr, f"{layer}.{cls_name}.{attr}",
                                    vars(cls)[attr]))
        return targets

    def install(self):
        if self._targets is None:
            self._targets = self._discover()
        modules = [m for name, m in sys.modules.items()
                   if name == "coarsecalc" or name.startswith("coarsecalc.")]
        for owner, attr, name, obj in self._targets:
            if isinstance(obj, classmethod):
                wrapped = classmethod(self._wrap(name, obj.__func__))
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, obj)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is obj:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches = []

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._cur
            sid = tracer._next
            tracer._next = sid + 1
            tracer._cur = sid
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.spans.append((sid, parent, name_id, t0, perf_counter(),
                                     tracer._root, True))
                raise
            finally:
                tracer._cur = parent
            tracer.spans.append((sid, parent, name_id, t0, perf_counter(),
                                 tracer._root, False))
            if hook is not None:
                tag = hook(fn, args, kwargs, out, tracer.counts)
                if tag is not None:
                    tracer.tags[sid] = tag
            return out

        return traced

    # ------------------------------------------------------------------

    def root(self, name):
        """Context manager: a root span (set-up, a task or a probe) that
        the spans recorded inside it point to."""
        return _Root(self, name)

    def metrics(self):
        """Per-layer metrics over every span recorded under set-up and task
        roots (probe roots are left out)."""
        units = per_layer_units()
        out = {name: 0.0 for name in units}
        for name in COUNTED:
            out[name] = float(self.counts[name])
        if not self.spans:
            return out, units
        spans = sorted(self.spans)
        sid = np.array([s[0] for s in spans])
        parent = np.array([s[1] for s in spans])
        name_id = np.array([s[2] for s in spans])
        t0 = np.array([s[3] for s in spans])
        t1 = np.array([s[4] for s in spans])
        root = np.array([s[5] for s in spans])
        raised = np.array([s[6] for s in spans])
        if not np.array_equal(sid, np.arange(1, sid.size + 1)):
            raise RuntimeError("span ids are not contiguous")
        names = np.array(self.names)
        is_probe = np.array([n.startswith("probe.") for n in self.names])
        # span ids are 1..N in order, so the root span of span k sits at
        # position root[k] - 1
        under_probe = is_probe[name_id[np.maximum(root, 1) - 1]]
        keep = (root > 0) & (parent > 0) & ~under_probe

        dur = t1 - t0
        has_parent = parent > 0
        child = np.bincount(parent[has_parent] - 1, weights=dur[has_parent],
                            minlength=sid.size)
        self_time = dur - child
        layer_of = np.array([n.split(".", 1)[0] for n in names])[name_id]
        for layer in LAYERS:
            sel = keep & (layer_of == layer)
            out[f"{layer}.self_s"] = float(self_time[sel].sum())
            out[f"{layer}.errors"] = float((sel & raised).sum())

        span_names = names[name_id]
        tags = np.array([self.tags.get(int(s), "") for s in sid])
        for metric, group in TIMED.items():
            sel = np.zeros(sid.size, dtype=bool)
            for item in group:
                if item.startswith("#"):
                    sel |= tags == item[1:]
                elif item.endswith(".*"):
                    sel |= layer_of == item[:-2]
                else:
                    sel |= span_names == item
            out[metric] = _union_length(t0[sel & keep], t1[sel & keep])
        return out, units

    def write(self, path):
        """Save every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\troot\traised\tworkload\n")
            for sid, parent, name_id, t0, t1, root, raised in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{self.names[name_id]}\t{t0!r}\t"
                         f"{t1!r}\t{root}\t{int(raised)}\t{self.workload}\n")


class _Root:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name_id = len(tracer.names)
        tracer.names.append(name)

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next
        tr._next += 1
        self.saved = (tr._cur, tr._root)
        tr._cur = tr._root = self.sid
        self.t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        tr._cur, tr._root = self.saved
        tr.spans.append((self.sid, 0, self.name_id, self.t0, perf_counter(),
                         self.sid, exc_type is not None))
        return False


def _union_length(t0, t1):
    """Total length of the union of nested intervals: only intervals not
    inside an earlier one count."""
    order = np.lexsort((-t1, t0))
    total, end = 0.0, -np.inf
    for a, b in zip(t0[order], t1[order]):
        if a >= end:
            total += b - a
            end = b
    return float(total)
