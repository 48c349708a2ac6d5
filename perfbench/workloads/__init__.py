"""The benchmark's workloads, one module each.

A workload module has three functions:

* ``setup(seed, smoke, workdir)`` builds the inputs from the seed and
  returns them as a dict; set-up time measures it;
* ``tasks(inp, results, stats)`` yields the ``Task`` objects of one pass:
  timed calls into coarsecalc, each with a check of its output. A task's
  output is stored in ``results`` under its name before the next task is
  asked for, so later tasks can use it; ``stats`` collects counts that are
  not failures, such as ``route_mismatches``;
* ``probes(inp, results)`` lists the ``(label, space, h)`` pairs whose
  neighbourhoods the tasks sweep; the traced run times one bare sweep and
  one gradient form of each.

The checks do not depend on the seed: they use closed forms, pinned
constants, facts that hold for every input (a candidate value is never
above the exhaustive one) and the dense oracles in ``oracle.py``.
"""

import importlib

NAMES = ("transfer", "walks", "small_exact", "cli_files")


def load(name):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return importlib.import_module(f"workloads.{name}")
