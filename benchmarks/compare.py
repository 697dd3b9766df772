"""Compare two result sets written by sweep.py.

    python3 benchmarks/compare.py BASE.jsonl NEW.jsonl

For every workload and metric found in both files, prints each side's
median and quartiles and a verdict:

- end-to-end metrics, judged against the bound in BENCHMARK.json:
  ``better`` when NEW beats BASE in at least 9 of 10 seed-matched pairs and
  the medians differ by more than BASE's own q3 - q1; ``worse`` when NEW's
  median is worse than BASE's by more than the bound; ``unresolved`` when
  either side's spread (q3 - q1) / median exceeds the bound and the runs do
  not separate (every NEW run better, or worse, than every BASE run);
  otherwise ``within``.
- per-layer work counters (layertrace.COUNTERS): ``same`` when every
  seed-matched value is identical, else ``changed``; per-layer times get no
  verdict.

Exit status 1 when any end-to-end metric is ``worse``, or, with
``--same-counters`` (two traced sets of the same code), when a counter
changed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from layertrace import COUNTERS  # noqa: E402
from sweep import ROOT, load, quartiles, spread  # noqa: E402


def by_seed(records):
    """{(workload, metric): {seed: value}}"""
    out = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return out


def verdict(base, new, better, bound):
    """Verdict for one end-to-end metric; base/new map seed -> value."""
    sign = 1.0 if better == "higher" else -1.0
    b_vals, n_vals = list(base.values()), list(new.values())
    b_q1, b_med, b_q3 = quartiles(b_vals)
    n_med = quartiles(n_vals)[1]
    worse_share = sign * (b_med - n_med) / abs(b_med)
    if sign * (min(n_vals) - max(b_vals)) > 0:
        separated = "better"
    elif sign * (max(n_vals) - min(b_vals)) < 0:
        separated = "worse"
    else:
        separated = None
    seeds = sorted(set(base) & set(new))
    wins = sum(sign * (new[s] - base[s]) > 0 for s in seeds)
    gain = (seeds and wins >= 0.9 * len(seeds)
            and sign * (n_med - b_med) > b_q3 - b_q1)
    if max(spread(b_vals), spread(n_vals)) > bound and separated is None:
        return "unresolved"
    if worse_share > bound:
        return "worse"
    return "better" if gain else "within"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--same-counters", action="store_true",
                    help="fail if a work counter differs (repeat check)")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, new = by_seed(load(args.base)), by_seed(load(args.new))

    print(f"{'workload':<13} {'metric':<34} {'base q1/median/q3':>40} "
          f"{'new q1/median/q3':>40}  verdict")
    failed = False
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b, n = base[key], new[key]
        cols = []
        for side in (b, n):
            q1, q2, q3 = quartiles(list(side.values()))
            cols.append(f"{q1:.5g} / {q2:.5g} / {q3:.5g}")
        if name in e2e:
            v = verdict(b, n, e2e[name]["better"], e2e[name]["bound"])
            failed = failed or v == "worse"
        elif name in COUNTERS:
            seeds = set(b) & set(n)
            v = "same" if all(b[s] == n[s] for s in seeds) else "changed"
            failed = failed or (args.same_counters and v == "changed")
        else:
            v = "-"
        print(f"{workload:<13} {name:<34} {cols[0]:>40} {cols[1]:>40}  {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
