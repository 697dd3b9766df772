"""Run the benchmark over workloads and seeds and record a result set.

    python3 benchmarks/sweep.py --out results.jsonl [--workloads gtf_eval,...]
                                [--seeds 1-10] [--trace 0|1] [--seconds S]

Runs ``run.py`` once per (workload, seed), one after another, and appends one
JSON line per run to ``--out``: the workload, seed, trace flag and the run's
result.  Then prints, for every workload and metric, the median, the
quartiles and the spread (q3 - q1) / median, marking end-to-end spreads that
exceed a third of the metric's bound.  ``compare.py`` compares two such
files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def group(records):
    """{(workload, metric): [values in seed order]}"""
    out = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def summary(records, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = [f"{'workload':<13} {'metric':<34} {'n':>3} {'median':>13} "
             f"{'q1':>13} {'q3':>13} {'spread':>8}  bound/3"]
    for (workload, name), values in sorted(group(records).items()):
        q1, q2, q3 = quartiles(values)
        s = spread(values)
        mark = ""
        if name in bounds:
            mark = f"{bounds[name] / 3:.3f} {'ok' if s < bounds[name] / 3 else 'WIDE'}"
        lines.append(f"{workload:<13} {name:<34} {len(values):>3} {q2:>13.6g} "
                     f"{q1:>13.6g} {q3:>13.6g} {s:>8.4f}  {mark}")
    for rec in records:
        if not rec["result"]["correct"]:
            lines.append(f"INCORRECT: {rec['workload']} seed {rec['seed']}")
    return "\n".join(lines)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", f"{args.seconds:g}",
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace, "result": result}) + "\n")
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    print(summary(load(args.out), spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
