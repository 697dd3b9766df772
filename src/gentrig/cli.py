"""Command line surface: evaluate functions, run identity-verification
suites, and emit tables (Wallis values, product partials, solution profiles)
as CSV or JSON records.

Exit codes: 0 success, 1 verification failure, 2 bad flags or domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import bvp, gtf, integrals, quadrature
from .errors import ConvergenceError, DomainError, ToleranceError, check_order
from .gtf import ParamPair

GRIDS = {
    "small": [1.5, 2.0, 3.0],
    "full": [1.5, 2.0, 2.5, 3.0, 4.0],
}

SUITES = ("pythagorean", "appendix", "wallis", "product", "elliott", "bvp", "all")
TABLE_KINDS = ("wallis_sin", "wallis_cos", "lemniscate", "product_partials", "bvp_profile")


def _machine(x: float) -> str:
    return f"{x:.17g}"


def _human(x: float) -> str:
    return f"{x:.10g}"


def _record(command: str, inputs: dict, value: float) -> str:
    """One JSON output line: command, inputs (in their order), value."""
    return json.dumps({"command": command, "inputs": inputs, "value": value})


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
    if args.format == "json":
        print(_record("eval", inputs, value))
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
    xs01 = np.array([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0])
    for p in grid:
        for q in grid:
            r1, r2 = gtf.sin_symmetry_appendix(p, q, xs01)
            worst = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
            cases.append((f"appendix p={p} q={q}", worst, 1e-10))
    return cases


def _suite_wallis(grid):
    ns = (0, 1, 3)
    kinds = {
        (p, q): (
            ("sin", q, (q - 1.0, 0.5 * (q - 1.0), -0.5), integrals.wallis_sin),
            ("cos", p, (1.0, 0.5 * (3.0 - p)), integrals.wallis_cos),
        )
        for p in grid for q in grid
    }
    specs = [(p, q, flavor, [base * n + r for n in ns for r in rs])
             for (p, q), pair_kinds in kinds.items()
             for flavor, base, rs, _ in pair_kinds]
    # one oracle pass yields every moment of the grid, spec after spec
    moments = iter(quadrature.power_moments(specs).value)
    oracles = {(p, q, flavor): iter([next(moments) for _ in exps])
               for p, q, flavor, exps in specs}
    cases = []
    for (p, q), pair_kinds in kinds.items():
        pair = ParamPair(p, q)
        for n in ns:
            for flavor, _, rs, func in pair_kinds:
                for r in rs:
                    value = func(integrals.WallisQuery(pair, n, r))
                    cases.append(
                        (f"wallis_{flavor} p={p} q={q} n={n} r={r:g}",
                         abs(value - next(oracles[p, q, flavor])), 1e-7)
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
    lengths, fractions = (1.0, 2.5), np.arange(1, 10) / 10.0
    for p in grid:
        for q in grid:
            checks = bvp.general_checks(p, q, lengths, fractions)
            for H, (ode, phase, bc) in zip(lengths, checks):
                cases.append((f"bvp ode p={p} q={q} H={H}", ode.max(), 1e-6))
                cases.append((f"bvp phase p={p} q={q} H={H}", phase.max(), 1e-9))
                cases.append((f"bvp boundary p={p} q={q} H={H}", bc, 1e-10))
    for m in (0.5, 1.0, 2.0):
        closure = abs(bvp.nonlocal_mean_square_slope(1.0, m) - m**2) / m**2
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
    any_fail = False
    for name in names:
        cases = _SUITE_FUNCS[name](grid)
        ok = all(resid <= tol for _, resid, tol in cases)
        worst = max([0.0] + [resid for _, resid, _ in cases])
        lines = [f"  {case}: residual={resid:.3e} tol={tol:.1e} "
                 f"{'ok' if resid <= tol else 'FAIL'}\n" for case, resid, tol in cases]
        lines.append(f"SUITE {name} {'PASS' if ok else 'FAIL'} max_residual={worst:.3e}\n")
        sys.stdout.write("".join(lines))  # the suite's lines in one write
        any_fail = any_fail or not ok
    return 1 if any_fail else 0


# ---------------------------------------------------------------- table


def _table_rows(args):
    """(columns, rows) of the requested kind: a row is an (inputs, value)
    pair, and the columns name the inputs a CSV row shows, then the value."""
    kind, p, q = args.kind, args.p, args.q
    if kind in ("wallis_sin", "wallis_cos", "product_partials") and None in (p, q):
        raise DomainError(f"--kind {kind} requires --p and --q")
    if kind in ("wallis_sin", "wallis_cos"):
        pair = ParamPair(p, q)
        r = args.r if args.r is not None else 0.0
        func, base = ((integrals.wallis_sin, q) if kind == "wallis_sin"
                      else (integrals.wallis_cos, p))
        return ["n", "r", "exponent", "value"], [
            ({"kind": kind, "p": p, "q": q, "n": n, "r": r, "exponent": base * n + r},
             func(integrals.WallisQuery(pair, n, r)))
            for n in range(check_order(args.nmax, what="--nmax") + 1)
        ]
    if kind == "lemniscate":
        return ["n", "residue", "exponent", "value"], [
            ({"kind": kind, "n": n, "residue": residue, "exponent": 4 * n + residue},
             integrals.lemniscate_wallis(n, residue))
            for n in range(check_order(args.nmax, what="--nmax") + 1) for residue in range(4)
        ]
    if kind == "product_partials":
        N = check_order(args.N, 1, what="--N")
        partials = np.cumprod(integrals.product_factors(p, q, N))
        return ["n", "partial"], [
            ({"kind": kind, "p": p, "q": q, "n": n}, float(v))
            for n, v in enumerate(partials, 1)
        ]
    if (args.m is None) == (p is None):
        raise DomainError("--kind bvp_profile requires exactly one of --m / --p")
    if args.m is not None:
        sol = bvp.solve_nonlocal(args.H, args.m)
        inputs = {"kind": kind, "m": args.m, "H": args.H}
    elif args.H != 1.0:
        raise DomainError("the p = q profile is defined on H = 1")
    else:
        sol = bvp.solve_pq_equal(p)
        inputs = {"kind": kind, "p": p, "H": 1.0}
    xs = np.linspace(0.0, sol.H, check_order(args.samples, 1, what="--samples"))
    return ["x", "u"], [
        (dict(inputs, x=float(x)), float(u)) for x, u in zip(xs, sol(xs))
    ]


def _write_table(columns, rows, fmt, out):
    stream = open(out, "w", newline="") if out else sys.stdout
    try:
        if fmt == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(
                [_machine(v) if isinstance(v, float) else v
                 for v in (inputs[c] for c in columns[:-1])] + [_machine(value)]
                for inputs, value in rows
            )
        else:
            stream.writelines(
                _record("table", inputs, value) + "\n" for inputs, value in rows
            )
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
