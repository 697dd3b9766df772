"""gentrig benchmark: one run of one workload.

    python3 benchmarks/run.py --workload verify_full --seed 1 --seconds 25 --trace 0

Run from the repository root.  Workloads: verify_full, gtf_eval,
closed_forms (see workloads.py for what each does and why).  The run starts
fresh, single-threaded interpreters on the source tree in ``src``:

- SETUP_SAMPLES of them only import gentrig and its cli; the median time
  from start to exit, scaled to reference machine speed (calibrate.py), is
  ``setup_s`` (one more start before them is discarded: it compiles the
  bytecode of a fresh checkout);
- one runs the workload's closed loop for ``--seconds`` (worker.py).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer ones with ``--trace 1`` (BENCHMARK.json
lists both).  Exit status 2 means the run could not be made; it then prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify_full", "gtf_eval", "closed_forms")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env():
    """Environment of every interpreter the run starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("GTF_TOL", None)  # the suites must run at their own tolerances
    return env


def setup_seconds(env):
    """Median start-to-exit time of interpreters that import gentrig,
    scaled to reference machine speed (calibrate.py)."""
    from calibrate import calibration_seconds, scale

    samples = []
    cal = calibration_seconds()
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, WORKER, "--setup-only"], env=env,
                       check=True, timeout=60, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        before, cal = cal, calibration_seconds()
        if i:
            samples.append(elapsed * scale(before, cal))
    return statistics.median(samples)


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gentrig", "__init__.py")):
        return fail(f"no gentrig source tree at {SRC}")
    spec = load_spec()
    env = child_env()
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        setup_s = None if args.trace else setup_seconds(env)
        proc = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except (subprocess.SubprocessError, OSError) as exc:
        return fail(f"could not run the workload: {exc}")
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"worker exited with status {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        names = spec["per_layer"]
        values = raw["layers"]
    else:
        names = spec["end_to_end"]
        values = dict(raw["metrics"], setup_s=setup_s)
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        return fail(f"worker did not report {missing}")
    if raw["errors"]:
        print(f"benchmark: failed operations by kind: {raw['errors']}", file=sys.stderr)
    print(json.dumps({
        "correct": raw["wrong"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
