"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are files, or directories of files, holding what
perfbench/run.py printed; every run record in them is read. Run both sides
with the same ``--seconds`` and the same seeds, alternating which side runs
first; runs are paired by workload, trace mode and seed.

For each workload and metric the command prints each side's median and
quartiles with the number of runs, the pairs the change won (ties count
for neither side) and a verdict:

* ``improved``: the change won at least nine tenths of the pairs and the
  medians differ, in its favour, by more than the distance between the
  base's quartiles;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json (for a metric without a bound: the base
  won nine tenths of the pairs by more than its quartile distance);
* ``no worse``: neither, and the base's spread (quartile distance over the
  median) is within the bound, or every change run beat every base run;
* ``same``: every run on both sides read the same value (counts);
* ``unresolved``: anything else, including every per-layer metric that
  did not improve or get worse, since those carry no bound.

A gain does not count where the change failed more operations, so the
failed totals of both sides are printed first.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def read_records(path):
    files = sorted(Path(path).rglob("*")) if Path(path).is_dir() \
        else [Path(path)]
    out = []
    for f in files:
        if not f.is_file():
            continue
        for line in f.read_text().splitlines():
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if rec.get("record") == "perfbench":
                out.append(rec)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, pairs, better, bound):
    """Verdict for one metric; ``pairs`` holds (base, change) values."""
    if len(set(base) | set(change)) == 1:
        return "same", 0
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = statistics.median(change)
    spread = b_q3 - b_q1
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) > 0)
    n = len(pairs)
    gain = sign * (b_med - c_med)
    if n and wins >= 0.9 * n and gain > spread:
        return "improved", wins
    if bound is None:
        if n and losses >= 0.9 * n and -gain > spread:
            return "worse", wins
        return "unresolved", wins
    if -gain > bound * abs(b_med):
        return "worse", wins
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if spread <= bound * abs(b_med) or all_better:
        return "no worse", wins
    return "unresolved", wins


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = ap.parse_args(argv)

    spec = json.loads(Path(args.benchmark).read_text())
    meta = {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"base": read_records(args.base),
             "change": read_records(args.change)}
    for name, recs in sides.items():
        if not recs:
            print(f"no run records in {getattr(args, name)}", file=sys.stderr)
            return 2

    # values[side][(workload, trace, metric)] = [(seed, value), ...]
    values = {side: defaultdict(list) for side in sides}
    failed = {side: defaultdict(lambda: [0, 0]) for side in sides}
    envs = {side: set() for side in sides}
    for side, recs in sides.items():
        for rec in recs:
            key = (rec["workload"], rec["trace"])
            failed[side][key][0] += rec["failed"]
            failed[side][key][1] += rec["attempted"]
            env = rec["env"]
            envs[side].add((env["nproc"], env["numpy"], env["scipy"],
                            env["blas"]))
            for metric, m in rec["metrics"].items():
                values[side][key + (metric,)].append((rec["seed"], m["value"]))
            for metric in ("fail_rate", "route_mismatches", "solve_s"):
                values[side][key + (metric,)].append((rec["seed"], rec[metric]))
    if envs["base"] != envs["change"]:
        print(f"warning: the sides ran on different environments: "
              f"{envs['base']} vs {envs['change']}")

    for key in sorted(set(failed["base"]) | set(failed["change"])):
        fb, fc = failed["base"].get(key, [0, 0]), failed["change"].get(key, [0, 0])
        print(f"{key[0]} (trace {key[1]}): failed {fb[0]}/{fb[1]} base, "
              f"{fc[0]}/{fc[1]} change")
    print()
    header = (f"{'workload':<12} {'metric':<26} {'base median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'runs':>7} {'won':>5}  verdict")
    print(header)
    for key in sorted(set(values["base"]) & set(values["change"])):
        workload, _, metric = key
        vb, vc = values["base"][key], values["change"][key]
        better, bound = meta.get(metric, ("lower", None))
        base, change = [v for _, v in vb], [v for _, v in vc]
        pairs = _pairs(vb, vc)
        word, wins = verdict(base, change, pairs, better, bound)
        print(f"{workload:<12} {metric:<26} {_fmt(base):>34} "
              f"{_fmt(change):>34} {len(base):>3}/{len(change):<3} "
              f"{wins:>2}/{len(pairs):<2}  {word}")
    return 0


def _pairs(vb, vc):
    """Pair the k-th base run of each seed with the k-th change run of the
    same seed; runs without a partner are left out."""
    by_seed = defaultdict(lambda: ([], []))
    for seed, v in vb:
        by_seed[seed][0].append(v)
    for seed, v in vc:
        by_seed[seed][1].append(v)
    return [p for b, c in by_seed.values() for p in zip(b, c)]


def _fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


if __name__ == "__main__":
    sys.exit(main())
