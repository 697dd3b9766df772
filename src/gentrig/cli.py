"""Command line surface: evaluate functions, run identity-verification
suites, and emit tables (Wallis values, product partials, solution profiles)
as CSV or JSON records.

Exit codes: 0 success, 1 verification failure, 2 bad flags or domain error.
The environment variable GTF_TOL, when set, overrides every suite tolerance.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bvp, gtf, integrals, quadrature
from .errors import ConvergenceError, DomainError, ToleranceError
from .gtf import ParamPair

GRIDS = {
    "small": [1.5, 2.0, 3.0],
    "full": [1.5, 2.0, 2.5, 3.0, 4.0],
}

SUITES = ("pythagorean", "appendix", "wallis", "product", "elliott", "bvp", "all")
TABLE_KINDS = ("wallis_sin", "wallis_cos", "lemniscate", "product_partials", "bvp_profile")


@dataclass
class OutputRecord:
    command: str
    inputs: dict
    value: float

    def to_json(self) -> str:
        return json.dumps(
            {"command": self.command, "inputs": self.inputs, "value": self.value}
        )


def _machine(x: float) -> str:
    return f"{x:.17g}"


def _human(x: float) -> str:
    return f"{x:.10g}"


# ---------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    inputs = {"fn": args.fn, "p": args.p, "q": args.q}
    if args.fn == "pi":
        if args.x is not None:
            raise DomainError("--x is not accepted for --fn pi")
        value = gtf.pi_pq(args.p, args.q)
    else:
        if args.x is None:
            raise DomainError(f"--fn {args.fn} requires --x")
        inputs["x"] = args.x
        fn = {"sin": gtf.sin_pq, "cos": gtf.cos_pq, "asin": gtf.asin_pq}[args.fn]
        value = fn(args.p, args.q, args.x)
    record = OutputRecord(command="eval", inputs=inputs, value=value)
    if args.format == "json":
        print(record.to_json())
    else:
        arg_txt = ", ".join(f"{k}={v}" for k, v in inputs.items() if k != "fn")
        print(f"{args.fn}({arg_txt}) = {_human(value)}")
    return 0


# ---------------------------------------------------------------- verify

# Each suite returns a list of (case name, residual, tolerance).


def _suite_pythagorean(grid):
    cases = []
    xs01 = np.linspace(0.0, 1.0, 33)
    for p in grid:
        for q in grid:
            half = 0.5 * gtf.pi_pq(p, q)
            s, c = gtf.sincos_pq(p, q, half * xs01)
            resid = float(np.max(np.abs(c**p + s**q - 1.0)))
            cases.append((f"pythagorean p={p} q={q}", resid, 1e-11))
    return cases


def _suite_appendix(grid):
    cases = []
    for p in grid:
        for q in grid:
            worst = 0.0
            for x01 in (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0):
                r1, r2 = gtf.sin_symmetry_appendix(p, q, x01)
                worst = max(worst, abs(r1), abs(r2))
            cases.append((f"appendix p={p} q={q}", worst, 1e-10))
    return cases


def _suite_wallis(grid):
    cases = []
    ns = (0, 1, 3)
    for p in grid:
        for q in grid:
            pair = ParamPair(p, q)
            for n in ns:
                for r in (q - 1.0, 0.5 * (q - 1.0), -0.5):
                    value = integrals.wallis_sin(integrals.WallisQuery(pair, n, r))
                    oracle = quadrature.power_moment(p, q, q * n + r, "sin")
                    cases.append(
                        (f"wallis_sin p={p} q={q} n={n} r={r:g}",
                         abs(value - oracle), 1e-7)
                    )
                for r in (1.0, 0.5 * (3.0 - p)):
                    value = integrals.wallis_cos(integrals.WallisQuery(pair, n, r))
                    oracle = quadrature.power_moment(p, q, p * n + r, "cos")
                    cases.append(
                        (f"wallis_cos p={p} q={q} n={n} r={r:g}",
                         abs(value - oracle), 1e-7)
                    )
    return cases


def _suite_product(grid):
    del grid
    cases = []
    for p, q in ((2.0, 2.0), (2.0, 4.0), (3.0, 1.5)):
        target = 0.5 * gtf.pi_pq(p, q)
        partial = integrals.pi_product_partial(p, q, 100_000)
        cases.append((f"product p={p} q={q} N=1e5", abs(partial - target), 1e-3))
    return cases


def _suite_elliott(grid):
    del grid
    cases = [("elliott classical p=q=r=2 k=0.5",
              integrals.elliott_residual(2.0, 2.0, 2.0, 0.5), 1e-9)]
    for p, q in ((1.5, 2.0), (2.0, 3.0), (2.0, 2.0), (2.5, 4.0), (1.5, 1.5)):
        for r, k in ((2.0, 0.3), (3.0, 0.7)):
            resid = integrals.elliott_residual(p, q, r, k)
            cases.append((f"elliott p={p} q={q} r={r} k={k}", resid, 1e-7))
    return cases


def _suite_bvp(grid):
    cases = []
    for p in grid:
        for q in grid:
            for H in (1.0, 2.5):
                sol = bvp.solve_general(bvp.BvpSpec(H=H, p=p, q=q))
                xs = H * (np.arange(1, 10) / 10.0)
                ode = bvp.residual_general(sol, xs).max()
                phase = bvp.phase_curve_residual(sol, xs).max()
                bc = max(abs(sol(0.0)), abs(sol(H)))
                cases.append((f"bvp ode p={p} q={q} H={H}", ode, 1e-6))
                cases.append((f"bvp phase p={p} q={q} H={H}", phase, 1e-9))
                cases.append((f"bvp boundary p={p} q={q} H={H}", bc, 1e-10))
    for m in (0.5, 1.0, 2.0):
        sol = bvp.solve_nonlocal(bvp.NonlocalSpec(H=1.0, m=m))
        closure = abs(bvp.nonlocal_mean_square_slope(sol) - m**2) / m**2
        cases.append((f"bvp nonlocal closure m={m}", closure, 1e-6))
    for p in grid:
        sol = bvp.solve_pq_equal(p)
        xs = np.linspace(0.0, 1.0, 21)
        sym = float(np.max(np.abs(sol(xs) - sol(1.0 - xs))))
        cases.append((f"bvp pq-equal symmetry p={p}", sym, 1e-11))
    return cases


_SUITE_FUNCS = {
    "pythagorean": _suite_pythagorean,
    "appendix": _suite_appendix,
    "wallis": _suite_wallis,
    "product": _suite_product,
    "elliott": _suite_elliott,
    "bvp": _suite_bvp,
}


def cmd_verify(args) -> int:
    names = list(_SUITE_FUNCS) if args.suite == "all" else [args.suite]
    grid = GRIDS[args.grid]
    tol_override = os.environ.get("GTF_TOL")
    override = float(tol_override) if tol_override else None
    any_fail = False
    for name in names:
        cases = _SUITE_FUNCS[name](grid)
        worst = 0.0
        ok = True
        for case, resid, tol in cases:
            tol = override if override is not None else tol
            passed = resid <= tol
            ok = ok and passed
            worst = max(worst, resid)
            print(f"  {case}: residual={resid:.3e} tol={tol:.1e} "
                  f"{'ok' if passed else 'FAIL'}")
        print(f"SUITE {name} {'PASS' if ok else 'FAIL'} max_residual={worst:.3e}")
        any_fail = any_fail or not ok
    return 1 if any_fail else 0


# ---------------------------------------------------------------- table


def _table_rows(args):
    """Yield (columns, rows) for the requested kind; rows are OutputRecords."""
    kind = args.kind
    if kind in ("wallis_sin", "wallis_cos"):
        if args.p is None or args.q is None:
            raise DomainError(f"--kind {kind} requires --p and --q")
        pair = ParamPair(args.p, args.q)
        r = args.r if args.r is not None else 0.0
        func = integrals.wallis_sin if kind == "wallis_sin" else integrals.wallis_cos
        base = args.q if kind == "wallis_sin" else args.p
        columns = ["n", "r", "exponent", "value"]
        rows = []
        for n in range(args.nmax + 1):
            value = func(integrals.WallisQuery(pair, n, r))
            rows.append(OutputRecord(
                "table",
                {"kind": kind, "p": args.p, "q": args.q, "n": n, "r": r,
                 "exponent": base * n + r},
                value,
            ))
        return columns, rows
    if kind == "lemniscate":
        columns = ["n", "residue", "exponent", "value"]
        rows = []
        for n in range(args.nmax + 1):
            for residue in range(4):
                value = integrals.lemniscate_wallis(n, residue)
                rows.append(OutputRecord(
                    "table",
                    {"kind": kind, "n": n, "residue": residue,
                     "exponent": 4 * n + residue},
                    value,
                ))
        return columns, rows
    if kind == "product_partials":
        if args.p is None or args.q is None:
            raise DomainError("--kind product_partials requires --p and --q")
        factors = integrals.product_factors(args.p, args.q, args.N)
        partials = np.cumprod(factors)
        columns = ["n", "partial"]
        rows = [
            OutputRecord("table",
                         {"kind": kind, "p": args.p, "q": args.q, "n": i + 1},
                         float(v))
            for i, v in enumerate(partials)
        ]
        return columns, rows
    if kind == "bvp_profile":
        if (args.m is None) == (args.p is None):
            raise DomainError("--kind bvp_profile requires exactly one of --m / --p")
        if args.m is not None:
            sol = bvp.solve_nonlocal(bvp.NonlocalSpec(H=args.H, m=args.m))
            inputs = {"kind": kind, "m": args.m, "H": args.H}
        else:
            if args.H != 1.0:
                raise DomainError("the p = q profile is defined on H = 1")
            sol = bvp.solve_pq_equal(args.p)
            inputs = {"kind": kind, "p": args.p, "H": 1.0}
        xs = np.linspace(0.0, sol.spec.H, args.samples)
        us = sol(xs)
        columns = ["x", "u"]
        rows = [
            OutputRecord("table", dict(inputs, x=float(x)), float(u))
            for x, u in zip(xs, us)
        ]
        return columns, rows
    raise DomainError(f"unknown table kind {kind!r}")


def _write_table(columns, rows, fmt, out):
    stream = open(out, "w", newline="") if out else sys.stdout
    try:
        if fmt == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(columns)
            for rec in rows:
                writer.writerow(
                    [_machine(rec.inputs[c]) if isinstance(rec.inputs.get(c), float)
                     else rec.inputs[c] for c in columns[:-1]]
                    + [_machine(rec.value)]
                )
        else:
            for rec in rows:
                stream.write(rec.to_json() + "\n")
    finally:
        if out:
            stream.close()


def cmd_table(args) -> int:
    columns, rows = _table_rows(args)
    try:
        _write_table(columns, rows, args.format, args.out)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentrig",
        description="Generalized trigonometric functions: evaluation, "
        "identity verification, and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate sin/cos/asin/pi at (p, q)")
    p_eval.add_argument("--fn", required=True, choices=("sin", "cos", "asin", "pi"))
    p_eval.add_argument("--p", type=float, required=True)
    p_eval.add_argument("--q", type=float, required=True)
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--format", choices=("human", "json"), default="human")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run an identity-verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--grid", choices=tuple(GRIDS), default="small")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="emit a CSV/JSON table")
    p_table.add_argument("--kind", required=True, choices=TABLE_KINDS)
    p_table.add_argument("--p", type=float)
    p_table.add_argument("--q", type=float)
    p_table.add_argument("--r", type=float)
    p_table.add_argument("--m", type=float)
    p_table.add_argument("--H", type=float, default=1.0)
    p_table.add_argument("--N", type=int, default=1000)
    p_table.add_argument("--nmax", type=int, default=5)
    p_table.add_argument("--samples", type=int, default=101)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ToleranceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
