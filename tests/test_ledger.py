r"""The residual ledger: `gentrig verify --suite all` on every grid, committed
as tests/data/verify_small.txt, verify_full.txt and verify_extreme.txt,
against a fresh in-process run.  A run fails the ledger if a case is added, missing
or moved, if a tolerance changes, or if a residual rises above max(4 x its
ledger value, 64 eps x its suite's scale), so a residual that grows inside
its tolerance shows up before the check goes red.  A change that moves
residuals rewrites the ledger in the same commit; the ledger's diff is then
the record of what moved.  From the repository root, this rewrites it:

    for grid in small full extreme; do
        PYTHONPATH=src python -m gentrig.cli verify --suite all --grid $grid \
            > tests/data/verify_$grid.txt
    done
"""

import contextlib
import io
import pathlib
import re

import numpy as np
import pytest

from gentrig import cli

DATA = pathlib.Path(__file__).parent / "data"
EPS = np.finfo(float).eps
# each suite's scale: the size of the values whose difference a residual
# is, so that 64 eps x scale is a few dozen roundings of them
SCALE = {
    "pythagorean": 1.0,  # c^p + s^q and 1
    "appendix": 1.0,  # sines and cosine powers in [0, 1]
    "wallis": 4.0,  # the moments, up to 3.53 on the full grid
    "product": 2.0,  # the partial products and pi_pq/2, up to 1.57
    "elliott": 16.0,  # E K', K E' and K K', up to about 11
    "bvp": 1.0,  # profiles, slopes and boundary values of order 1
}
CASE = re.compile(r"  (.+): residual=(\S+) tol=(\S+) (?:ok|FAIL)")
SUITE = re.compile(r"SUITE (\w+) (?:PASS|FAIL) max_residual=\S+")


def parse(text):
    """[(suite, case, residual, tolerance as printed)] in the order printed;
    a suite's line follows its cases."""
    rows, pending = [], []
    for line in text.splitlines():
        case, suite = CASE.fullmatch(line), SUITE.fullmatch(line)
        if case:
            pending.append((case[1], float(case[2]), case[3]))
        else:
            assert suite, line
            rows += [(suite[1], *row) for row in pending]
            pending = []
    assert not pending  # every case closed by its suite's line
    return rows


def risen(now, ledger):
    """The cases of now whose residual rose above max(4 x the ledger's,
    64 eps x the suite's scale), as (suite, case, residual, ledger's)."""
    return [(suite, case, r, was) for (suite, case, r, _), (_, _, was, _) in zip(now, ledger)
            if not r <= max(4.0 * was, 64.0 * EPS * SCALE[suite])]


def verify_text(grid):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--suite", "all", "--grid", grid]) == 0
    return out.getvalue()


@pytest.mark.parametrize("grid", ["small", "full", "extreme"])
def test_residuals_within_the_ledger(grid):
    now = parse(verify_text(grid))
    ledger = parse((DATA / f"verify_{grid}.txt").read_text())
    assert {suite for suite, *_ in ledger} == set(SCALE)
    assert [row[:2] for row in now] == [row[:2] for row in ledger]  # none added, missing or moved
    assert [row[3] for row in now] == [row[3] for row in ledger]  # the tolerances
    assert risen(now, ledger) == []


def test_a_rise_inside_the_tolerance_fails():
    """Four times the ledger is the limit, and the floor of 64 eps x scale
    keeps rounding-level residuals (and zeros) from failing it."""
    ledger = parse("  wallis_sin p=2.0 q=2.0 n=0 r=1: residual=1.000e-13 tol=1.0e-07 ok\n"
                   "  wallis_sin p=2.0 q=2.0 n=1 r=1: residual=0.000e+00 tol=1.0e-07 ok\n"
                   "SUITE wallis PASS max_residual=1.000e-13\n")
    risen_to = [(4e-13, 0.0, []), (4.1e-13, 0.0, [0]), (1e-13, 64 * 4 * EPS, []),
                (1e-13, 1e-13, [1])]
    for first, second, which in risen_to:
        now = [ledger[0][:2] + (first, "1.0e-07"), ledger[1][:2] + (second, "1.0e-07")]
        assert [ledger[i][:2] for i in which] == [row[:2] for row in risen(now, ledger)]
