"""Independent integration oracle: tanh-sinh (double-exponential) quadrature.

The substitution x = (1 + tanh((pi/2) sinh t)) / 2 maps [0, 1] onto the real
line and turns algebraic endpoint singularities with exponent > -1 into a
transformed integrand that decays double-exponentially, so the trapezoidal
rule in t converges geometrically.  Interval halving of the step gives an
a-posteriori error estimate for free.

integrate takes a batch of integrands on [0, 1] that share the nodes, and
calls them once per refinement level, on the nodes of both half-axes
together (level 0's call also holds the centre); each level is summed by
one reduction per half-axis, so the Python overhead is paid a handful of
times per batch, and f must act elementwise on its array of nodes.  Each
integrand is refined until it alone meets the tolerance, and stops being
evaluated once it has.  The reduction sums each row alone, the same way
for any number of rows, so a batch gives every integrand the same value,
bit for bit, as a batch of its own.  beta_integrals uses this to take any
number of complete or incomplete beta integrals in one pass, the Wallis
moments and the bvp travel times and first integrals of the whole verify
grid included: each is one to three half-rows that an endpoint
substitution makes bounded, so that no mass of a singular endpoint lies
beyond the outermost node, however small a or b.  The batch holds each
distinct half-row once, and rows that repeat or share halves read its
value.

This module must not import gtf, integrals, bvp or specfun, nor scipy: it is
the independent side of every closed-form-versus-quadrature check in the
package, and computes no Gamma or Beta function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceError, as_float, as_floats, check_order

# Truncation of the transformed axis.  At t = 6 the node weight is below
# 1e-17 even against an endpoint singularity as strong as t^(-0.9).
_T_MAX = 6.0
_MAX_LEVEL = 12

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class QuadResult:
    """value and err_estimate are arrays of shape (m,) for a batch of m
    integrands; evaluations counts the nodes passed to the integrand,
    summed over the rows.  For beta_integrals those rows are its distinct
    half-rows, so where half-rows repeat the count is below the sum of the
    rows' lone calls."""

    value: np.ndarray
    err_estimate: np.ndarray
    evaluations: int


@functools.lru_cache(maxsize=None)
def _level_nodes(level: int):
    """The nodes x in (0, 1) added at ``level``, their weights w and the
    index n where the lower half-axis starts in both.

    The trapezoidal step is h = 2**-level; level 0 contributes all integer
    t >= 0, later levels the odd multiples of h, up to _T_MAX.  A node t > 0
    lies at 1 - d and at d, d = 1 / (1 + exp(pi sinh t)), with weight (pi/2)
    cosh t / cosh^2((pi/2) sinh t) at both; x holds the upper nodes first,
    headed at level 0 by the centre t = 0, x = 1/2.  The upper nodes that
    round onto 1 are dropped, neither evaluated nor counted: 11 581 of the
    table's 24 576 (3 of the 6 at level 0), and the bits and evaluation
    counts of beta_integrals' batches rest on that.  The least lower node,
    at t = 6, is 6.1e-276, so no node's distance from 0 underflows.

    Cached on first use (all levels together hold about 0.6 MB); the arrays
    are shared by every call and therefore read-only.
    """
    h = 2.0 ** (-level)
    if level == 0:
        t = np.arange(0, int(_T_MAX / h) + 1) * h
    else:
        t = np.arange(1, int(_T_MAX / h) + 1, 2) * h
    u = 0.5 * np.pi * np.sinh(t)
    w = 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    lo = 1.0 / (1.0 + np.exp(2.0 * u))
    up = 1.0 - lo < 1.0
    below = slice(1 if level == 0 else 0, None)  # the centre is in the upper part
    x = np.concatenate((1.0 - lo[up], lo[below]))
    w = np.concatenate((w[up], w[below]))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w, int(up.sum())


def integrate(f: Callable, m: int, tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate a batch of m integrands over [0, 1] on shared nodes, each
    with a certified interval-halving estimate.

    f(x, rows) is called once per refinement level with the level's nodes
    in one array x (level 0's starts with the centre 1/2) and rows, the
    ascending indices of the integrands still refining: np.arange(m) at
    level 0.  It returns shape (len(rows), len(x)) and must act
    elementwise, so that a node's value does not depend on its neighbours.
    Each row stops at the level where it would stop alone, with the same
    arithmetic, so its value and error estimate equal those of a batch of
    its own bit for bit; ``evaluations`` is the total over the rows.  At
    m = 0 the result is empty and f is not called.

    A row stops once the halving disagreement is within tol max(1,
    |estimate|): relative for integrals of at least 1, absolute below.
    Raises DomainError unless m is an integer >= 0 (an integral float
    passes) and 0 < tol < inf, before f is called; and
    ToleranceError (carrying the best estimates) if some row does not stop
    within the budget of _MAX_LEVEL + 1 levels, at most 37 572 evaluations
    per integrand.
    """
    # written so that NaN fails the test; as_float rejects an int beyond the doubles
    if not 0.0 < as_float(tol, "tol") < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    m = check_order(m, what="integrate's row count m")

    # results of every row, filled in as rows stop
    value = np.full(m, np.nan)
    err = np.full(m, np.inf)
    evals = np.zeros(m, dtype=int)
    # the rows still refining: their indices, sums of w_j * f(x_j) over all
    # nodes seen so far, latest estimates and disagreements
    live = np.arange(m)
    est, diff = value, err  # rebound, never written through
    nev = 0  # integrand values per row so far
    for level in range(_MAX_LEVEL + 1):
        if not len(live):
            break
        x, w, n = _level_nodes(level)
        y = np.asarray(f(x, live), dtype=float)
        k = 0
        if level == 0:
            # the centre, as a sum from 0.0: -0.0 becomes 0.0
            raw = w[0] * y[:, 0] + 0.0
            k = 1
        # one reduction a half-axis sums each row as a batch of its own would
        raw += (y[:, k:n] * w[k:n]).sum(axis=1) + (y[:, n:] * w[n:]).sum(axis=1)
        nev += len(x)

        est, prev = 2.0 ** (-level - 1) * raw, est
        if level < 2:
            continue
        diff = np.abs(est - prev)
        done = np.isfinite(est) & (diff <= tol * np.maximum(1.0, np.abs(est)))
        if done.any():
            stop = live[done]
            value[stop] = est[done]
            err[stop] = np.maximum(diff[done], np.abs(est[done]) * 1e-16)
            evals[stop] = nev
            go = ~done
            live, raw, est, diff = live[go], raw[go], est[go], diff[go]

    if len(live):  # every level ran: these rows failed with their latest estimates
        value[live], err[live], evals[live] = est, diff, nev
        raise _not_met(tol, QuadResult(value, err, int(evals.sum())), nev, live.tolist(), m)
    return QuadResult(value, err, int(evals.sum()))


def _not_met(tol, result, evaluations, rows, m):
    """integrate's ToleranceError after its budget of levels, naming rows,
    the indices of the failed rows, among m."""
    budget = _MAX_LEVEL + 1
    return ToleranceError(
        f"quadrature: tolerance {tol:g} not met in rows {rows} of {m} after its budget "
        f"of {budget} levels, {evaluations} evaluations per integrand",
        result, layer="quadrature", evaluations=evaluations, budget=budget, rows=tuple(rows))


def beta_integrals(a, b, tol: float = DEFAULT_TOL, upper=None) -> QuadResult:
    """B_Y(a, b) = int_0^Y t^(a-1) (1-t)^(b-1) dt for each row of the 1-D
    arrays a and b, all in one integrate batch, each row equal bit for bit
    to a call of its own.  The 1-D array upper gives each row's limit Y by
    its root Y^a in (0, 1]; the default, None, is 1 in every row, the
    complete integral B(a, b).  The root keeps a limit exact where Y itself
    underflows: sin_pq^q at q = 1000 is below 1e-308 where sin_pq is not
    (bvp.general_checks).

    Each row is a sum of half-rows whose limit Z <= 1/2 is carried as its
    root R = Z^a, substituted at t = 0 by t = (R tau)^(1/a) (Davis and
    Rabinowitz):

        B_Z(a, b) = (R / a) int_0^1 (1 - Z tau^(1/a))^(b-1) dtau,

    an integrand between 1 and 2^(1-b): no endpoint singularity, however
    near 0 a or b is.  A row with Y <= 1/2 is one half-row, at R = upper.
    A row with Y > 1/2 is B(a, b) = B_{1/2}(a, b) + B_{1/2}(b, a), two
    half-rows at R = 2^-a and 2^-b, minus B_{1-Y}(b, a) where Y < 1; its
    1 - Y is formed from Y = upper^(1/a), whose rounding it carries, so a
    caller near Y = 1 passes the other tail's row instead.  The integrand
    of a half-row depends on (a, Z, b) alone, so integrate takes each
    distinct half-row once (B(a, b) and B(b, a) share both halves, and a
    repeated row all of its own), and the result's evaluations count only
    those.  Per level, tau^(1/a) is formed once per distinct a among the
    live half-rows, Z tau^(1/a) and its log1p once per distinct (a, Z), and
    every power elementwise as the exp of a log: numpy's power
    special-cases some scalar exponents, so a lone row would differ from
    the same row in a batch.

    integrate stops a half-row once two levels agree to tol max(1,
    |estimate|), so a row whose value is below 1 is certified to tol
    absolutely, not relatively: its err_estimate covers its error, which
    may be large against the value.  B(10, 1000) reads 4.19e-25 for
    3.47e-25, 21% high, with an estimate of 4.0e-25, and B(2, 1e6) is
    1.0e-11 off, relative.  A caller that needs relative accuracy there
    scales its rows.

    DomainError unless a, b and upper are 1-D of one length, with a and b
    in (0, inf) and upper in (0, 1], NaN failing.  A ToleranceError names
    the failing rows of a and b, every row holding a failed half-row, and
    carries every row's best estimate.
    """
    a, b = as_floats(a, "a"), as_floats(b, "b")
    root = np.ones(a.shape) if upper is None else as_floats(upper, "upper")
    if a.ndim != 1 or not a.shape == b.shape == root.shape:
        raise DomainError("beta_integrals needs 1-D arrays a, b and upper of one length, "
                          f"got shapes {a.shape}, {b.shape} and {root.shape}")
    # written so that NaN fails the test
    bad = ~((a > 0.0) & (a < math.inf) & (b > 0.0) & (b < math.inf)
            & (root > 0.0) & (root <= 1.0))
    if bad.any():
        i = int(bad.argmax())
        raise DomainError(f"beta_integrals needs a, b in (0, inf) and upper in (0, 1], got "
                          f"({a[i]}, {b[i]}, {root[i]}) in row {i}")
    m = len(a)
    lim = np.exp(np.log(root) / a)  # Y, 1 exactly at upper = 1
    whole = np.flatnonzero(lim > 0.5)
    cut = whole[lim[whole] < 1.0]
    rest = 1.0 - lim[cut]  # exact: Y > 1/2 (Sterbenz)
    # the half-rows, each row's in the order they are summed: every row's
    # half from t = 0 up to min(Y, 1/2), the half t > 1/2 of the rows with Y >
    # 1/2, and the tails beyond Y < 1 of those, taken away
    row = np.concatenate((np.arange(m), whole, cut))
    x = np.concatenate((a, b[whole], b[cut]))
    y = np.concatenate((b, a[whole], a[cut]))
    z = np.concatenate((np.minimum(lim, 0.5), np.full(len(whole), 0.5), rest))
    scale = np.concatenate((np.where(lim > 0.5, np.exp2(-a), root), np.exp2(-b[whole]),
                            -np.exp(b[cut] * np.log(rest)))) / x
    # each half-row's rounding, in units of |term|: 2 eps for the term and
    # the signed sum, plus its integrand's amplification of a rounding in
    # its exponent (b - 1) log1p(-Z tau^(1/a)) or in Z: at most that
    # exponent's size at tau = 1, and below a averaged over the integrand
    slack = np.finfo(float).eps * (2.0 + np.minimum(np.abs((y - 1.0) * np.log1p(-z)), x))
    # one sort of the half-rows by (a, Z, b) marks where a, (a, Z) and the
    # half-row change: integrate takes each distinct half-row once, its
    # duplicates (B(a, b) and B(b, a) share both halves) read its value
    order = np.lexsort((y, z, x))
    x, z, y = x[order], z[order], y[order]
    new = np.ones((3, len(x)), dtype=bool)  # a new a, (a, Z) and half-row
    new[0, 1:] = x[1:] != x[:-1]
    new[1, 1:] = new[0, 1:] | (z[1:] != z[:-1])
    new[2, 1:] = new[1, 1:] | (y[1:] != y[:-1])
    ids = np.cumsum(new, axis=1) - 1
    half = np.empty_like(order)
    half[order] = ids[2]  # each half-row's distinct half-row
    at = ids[1][new[2]]  # each distinct half-row's (a, Z)
    of = ids[0][new[1]]  # each (a, Z)'s a
    powers, limits, y1 = x[new[0]], z[new[1]], (y[new[2]] - 1.0)[:, None]

    def f(tau, rows):
        used, index = _distinct(at[rows], len(limits))
        need, which = _distinct(of[used], len(powers))
        ln = np.exp(np.log(tau) / powers[need, None]).take(which, axis=0)
        ln *= -limits[used, None]
        out = np.log1p(ln, out=ln).take(index, axis=0)
        out *= y1[rows]
        return np.exp(out, out=out)

    try:
        return _sum_halves(integrate(f, len(at), tol), half, row, scale, slack, m)
    except ToleranceError as exc:
        failed = row[np.isin(half, exc.rows)]
        raise _not_met(tol, _sum_halves(exc.result, half, row, scale, slack, m), exc.evaluations,
                       np.unique(failed).tolist(), m) from None


def _distinct(ids, n):
    """np.unique(ids, return_inverse=True) for an int array ids of values
    in [0, n), by a mask of those values instead of a sort."""
    seen = np.bincount(ids, minlength=n) > 0
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[ids]


def _sum_halves(res, half, row, scale, slack, m):
    """beta_integrals' result from integrate's on its distinct half-rows:
    half maps each half-row to its distinct one, and row i's value sums the
    terms scale times value over its half-rows, in their order.  Its
    estimate sums |scale| times theirs plus slack |term|, the rounding
    that the level difference does not see: of the terms and their signed
    sum, which cancels where a row with Y > 1/2 is small against B(a, b),
    and of each integrand's evaluation."""
    terms = scale * res.value[half]
    err = np.abs(scale) * res.err_estimate[half] + slack * np.abs(terms)
    # as floats also for m = 0, where bincount returns integers
    value, err = (np.bincount(row, v, m).astype(float, copy=False) for v in (terms, err))
    return QuadResult(value, err, res.evaluations)
