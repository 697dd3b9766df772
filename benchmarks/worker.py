"""One benchmark run inside a fresh interpreter; started by run.py.

    python3 benchmarks/worker.py --setup-only
    python3 benchmarks/worker.py --workload W --seed N --seconds S --trace 0|1

``--setup-only`` imports gentrig and its cli and exits: run.py times that
from outside as the set-up.  Otherwise the worker runs the workload's closed
loop and prints one JSON line with its figures.  With ``--trace 1`` it runs
the loop untraced for half the rounds, then with every public function
wrapped for the other half, and reports the per-layer figures and the
difference traced minus untraced of each end-to-end figure.

A run is a fixed number of rounds, ``rounds(workload, seconds)``: as many as
take ``seconds`` at the workload's nominal round time.  The work of a run,
and so its counts of attempted and failed operations, depends only on the
seed and ``--seconds``, never on how fast the machine happened to be; the
run lasts about ``seconds`` and longer on a slow or loaded machine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

MIN_ROUNDS = 3
# worst_margin is measured on the inputs of this seed's first round, the same
# in every run, so that it moves only when the program's accuracy does
PANEL_SEED = 0
# errors below this share of their tolerance are rounding noise: one ulp more
# or less must not read as an accuracy change, so the margin stops here
MARGIN_CAP = 1e4


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rounds(workload, seconds):
    """Rounds that take ``seconds`` at the workload's nominal round time."""
    return max(MIN_ROUNDS, round(seconds / workload.round_s))


def run_phase(workload, tally, n_rounds, on_round=None):
    """Run rounds 0 .. n_rounds - 1.

    ``on_round`` gets the round's mean calibration factor after each round.
    """
    for r in range(n_rounds):
        first = len(tally.scales)
        workload.run_round(tally, r)
        tally.checkpoint()
        if on_round is not None:
            on_round(statistics.mean(tally.scales[first:]))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import gentrig
    import gentrig.cli  # noqa: F401  (part of set-up for every workload)

    if args.setup_only:
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[args.workload](args.seed, gentrig)
    n_rounds = rounds(workload, args.seconds / 2 if args.trace else args.seconds)
    phases = [Tally()]
    run_phase(workload, phases[0], n_rounds)
    rss = [peak_rss_mb()]

    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        t0 = time.perf_counter()
        tracer.install(gentrig)
        install_s = time.perf_counter() - t0
        workload.tracer = tracer
        per_round = []
        phases.append(Tally())
        # the traced phase replays the untraced rounds from round 0, so its
        # counts repeat between runs of one seed and its figures compare
        # with the untraced phase on the same inputs
        try:
            run_phase(workload, phases[1], n_rounds,
                      on_round=lambda f: per_round.append(tracer.round_metrics(f)))
        finally:
            tracer.uninstall()
        rss.append(peak_rss_mb())

    # output checks that need references run only now, after every timed call
    figures = []
    for tally, peak in zip(phases, rss):
        workload.finish(tally)
        figures.append(dict(tally.metrics(), peak_rss_mb=peak))
    panel = Tally(calibrated=False)
    panel_workload = WORKLOADS[args.workload](PANEL_SEED, gentrig)
    panel_workload.run_round(panel, 0)
    panel_workload.finish(panel)
    if panel.failed == panel.attempted:
        margin = 0.0  # no output passed its check
    else:
        margin = 1.0 / max(panel.worst, 1.0 / MARGIN_CAP)
    for fig in figures:
        fig["worst_margin"] = margin
    result = {"metrics": figures[0], "errors": {}}
    for key in ("attempted", "failed", "wrong"):
        result[key] = sum(getattr(t, key) for t in phases)
    for tally in phases:
        for name, count in tally.errors.items():
            result["errors"][name] = result["errors"].get(name, 0) + count

    if args.trace:
        # counts from the first traced round; times, scaled like the timed
        # figures, are medians over rounds
        layer = dict(per_round[0])
        for key in layer:
            if key.endswith("_s") or key.endswith("_point"):
                layer[key] = statistics.median(m[key] for m in per_round)
        for key, value in figures[0].items():
            layer[f"trace.overhead.{key}"] = figures[1][key] - value
        layer["trace.overhead.setup_s"] = install_s
        result["layers"] = layer

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
