"""Independent integration oracle: tanh-sinh (double-exponential) quadrature.

The substitution x = tanh((pi/2) sinh t) maps (-1, 1) to the real line and
turns algebraic endpoint singularities with exponent > -1 into a transformed
integrand that decays double-exponentially, so the trapezoidal rule in t
converges geometrically.  Interval halving of the step gives an a-posteriori
error estimate for free.

The integrand is called once per refinement level, on the nodes of both
half-axes together (level 0's call also holds the centre), and the level
is summed by one reduction per half-axis, so the Python overhead is paid a
handful of times per integral; f must act elementwise on its array of nodes.

One call can integrate a batch of integrands that share the nodes: each
is refined until it alone meets the tolerance, and the others stop being
evaluated once they have.  A lone integrand is a batch of one row, and the
reduction sums each row alone, the same way for any number of rows, so a
batch gives every integrand the same value, bit for bit, as a call of its
own.  beta_integrals uses this to take any number of complete or incomplete
beta integrals in one pass, the Wallis moments and the bvp travel times of
the whole verify grid included: each is one to three half-rows that an
endpoint substitution makes bounded, so that no mass of a singular endpoint
lies beyond the outermost node, however small a or b.  The batch holds each
distinct half-row once, and rows that repeat or share halves read its value.

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

from .errors import DomainError, ToleranceError

# Truncation of the transformed axis.  At t = 6 the node weight is below
# 1e-17 even against an endpoint singularity as strong as t^(-0.9).
_T_MAX = 6.0
_MAX_LEVEL = 12
_MIN_OFFSET = 5e-300  # skip nodes whose endpoint distance underflows

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class QuadResult:
    """value and err_estimate are floats for one integrand and arrays of
    shape (m,) for a batch of m; evaluations counts the nodes passed to
    the integrand, summed over the rows of a batch.  For beta_integrals
    those rows are its distinct half-rows, so where half-rows repeat the
    count is below the sum of the rows' lone calls."""

    value: float | np.ndarray
    err_estimate: float | np.ndarray
    evaluations: int


@functools.lru_cache(maxsize=None)
def _level_nodes(level: int):
    """Weights and endpoint distances of the nodes added at ``level``.

    The trapezoidal step is h = 2**-level; level 0 contributes all integer
    t >= 0, later levels the odd multiples of h.  Returns (w, delta) for the
    positive half-axis, where delta = 1 - tanh((pi/2) sinh t) is the node's
    distance from the endpoint of the reference interval [-1, 1].

    Cached on first use (all levels together hold about 0.4 MB); the arrays
    are shared by every call and therefore read-only.
    """
    h = 2.0 ** (-level)
    if level == 0:
        t = np.arange(0, int(_T_MAX / h) + 1) * h
    else:
        t = np.arange(1, int(_T_MAX / h) + 1, 2) * h
    u = 0.5 * np.pi * np.sinh(t)
    w = 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    with np.errstate(over="ignore"):
        delta = 2.0 / (1.0 + np.exp(2.0 * u))
    w.flags.writeable = False
    delta.flags.writeable = False
    return w, delta


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """Integrate f over [a, b] with a certified interval-halving estimate.

    f is called with a numpy array of abscissas and must return an array of
    the same shape.  Nodes closer to a nonzero endpoint than one ulp round
    onto it and are dropped, neither evaluated nor counted; near an
    endpoint equal to 0 every node is exact.  f is called once per
    refinement level, with the nodes of both half-axes in one array (level
    0's call starts with the centre of [a, b]); it must act elementwise, so
    that a node's value does not depend on its neighbours.

    A batch of m integrands on the same nodes is one f that returns shape
    (m, len(x)).  Its first call asks for every row; that shape fixes m.
    Every later call passes the keyword ``rows``, the ascending indices of
    the integrands still refining, and wants shape (len(rows), len(x)).
    Each row stops at the level where it would stop alone, with the same
    arithmetic, so its value and error estimate equal those of a
    single-integrand call bit for bit; ``value`` and ``err_estimate`` are
    then arrays of shape (m,) and ``evaluations`` the total over the rows.
    An empty interval returns 0.0 whatever f is.

    Raises DomainError unless a <= b are finite and 0 < tol < inf, if
    [a, b] is too narrow for the node table (width below
    2 _MIN_OFFSET / min(tol, 1), 1e-289 at the default tolerance), both
    before f is called; and ToleranceError (carrying the best estimates)
    if the halving disagreement of some integrand does not fall below tol
    within the budget of _MAX_LEVEL + 1 levels, at most 49 153 evaluations
    per integrand.  The width rule checks the share of the rule's weight on
    the nodes skipped near the endpoints, not the error: an integrand
    singular at an endpoint has more of its mass there (beta_integrals
    substitutes its singularities away).
    """
    # written so that NaN fails each test
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if not -math.inf < a <= b < math.inf:
        raise DomainError(f"need finite limits a <= b, got [{a}, {b}]")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    halfw = 0.5 * (b - a)
    # the nodes skipped for lying within _MIN_OFFSET of an endpoint carry the
    # share _MIN_OFFSET / halfw of the rule's weight; more than tol of it (or
    # all of it, the centre node included) cannot be certified.  A share of
    # the weight, not an error bound: t^(e-1) leaves (_MIN_OFFSET/halfw)^e of
    # its mass there, and being relative the rule also rejects widths whose
    # result met the stopping test, which is absolute while |est| < 1
    if _MIN_OFFSET > min(tol, 1.0) * halfw:
        raise DomainError(
            f"interval width {b - a:g} is too narrow for tolerance {tol:g}: "
            f"the nodes skipped within {_MIN_OFFSET:g} of an endpoint carry "
            f"more than that share of the rule's weight")

    nev = 0  # integrand values per row so far
    for level in range(_MAX_LEVEL + 1):
        w, delta = _level_nodes(level)
        off = delta * halfw
        keep = off >= _MIN_OFFSET
        w, off = w[keep], off[keep]
        if level == 0:
            # t = 0 sits at the interval centre, shared by both half-axes; it
            # heads level 0's call, whose shape fixes the number of rows
            xc = b - off[:1]
            wc, w, off = w[0], w[1:], off[1:]
        x_hi, x_lo = b - off, a + off
        # drop the nodes that round onto an endpoint: on [0, 1], 11 581 of
        # the table's 24 576 upper nodes round onto 1 (3 of the 6 at level
        # 0), and beta_integrals' bits and evaluation counts rest on that
        m_hi = x_hi != b
        m_lo = x_lo != a
        w_hi, w_lo = w[m_hi], w[m_lo]
        # the level's nodes in one call, split back by position below
        halves = (x_hi[m_hi], x_lo[m_lo])
        x = np.concatenate((xc, *halves) if level == 0 else halves)
        if level == 0:
            y = np.asarray(f(x), dtype=float)
            batch = y.ndim == 2
            m = len(y) if batch else 1
            # results of every row, filled in as rows stop
            value = np.full(m, np.nan)
            err = np.full(m, np.inf)
            evals = np.zeros(m, dtype=int)
            # the rows still refining: their indices, sums of w_j * f(x_j)
            # over all nodes seen so far, latest estimates and disagreements
            live = np.arange(m)
            est, diff = value, err  # rebound, never written through
        else:
            y = np.asarray(f(x, rows=live) if batch else f(x), dtype=float)
        shape = (len(live), len(x))
        y = y if y.shape == shape else np.broadcast_to(y, shape)
        if level == 0:
            raw = wc * y[:, 0] + 0.0  # as a sum from 0.0: -0.0 becomes 0.0
            y = y[:, 1:]
        # one reduction a half-axis sums each row as a lone call would
        n_hi = len(w_hi)
        raw += (y[:, :n_hi] * w_hi).sum(axis=1) + (y[:, n_hi:] * w_lo).sum(axis=1)
        nev += len(x)

        h = 2.0 ** (-level)
        est, prev = h * halfw * raw, est
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
        if not len(live):
            return _result(batch, value, err, evals)

    # every level ran: the rows in live failed with their latest estimates
    value[live], err[live], evals[live] = est, diff, nev
    raise _not_met(tol, _result(batch, value, err, evals), nev,
                   (live.tolist(), len(value)) if batch else None)


def _result(batch, value, err, evals):
    if batch:
        return QuadResult(value, err, int(evals.sum()))
    return QuadResult(value[0], err[0], int(evals[0]))


def _not_met(tol, result, evaluations, failed=None):
    """integrate's ToleranceError after its budget of levels; failed is
    (rows, m) for a batch, the indices of its failed rows and its number of
    rows, and None for a lone integrand."""
    where = "" if failed is None else " in rows {} of {}".format(*failed)
    budget = _MAX_LEVEL + 1
    return ToleranceError(
        f"quadrature: tolerance {tol:g} not met{where} after its budget of "
        f"{budget} levels, {evaluations} evaluations per integrand",
        result, layer="quadrature", evaluations=evaluations, budget=budget,
        rows=None if failed is None else tuple(failed[0]))


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

    DomainError unless a, b and upper are 1-D of one length, with a and b
    in (0, inf) and upper in (0, 1], NaN failing.  A ToleranceError names
    the failing rows of a and b, every row holding a failed half-row, and
    carries every row's best estimate.
    """
    a, b = (np.asarray(v, dtype=float) for v in (a, b))
    root = np.ones(a.shape) if upper is None else np.asarray(upper, dtype=float)
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

    def f(tau, rows=np.arange(len(at))):
        used, index = _distinct(at[rows], len(limits))
        need, which = _distinct(of[used], len(powers))
        ln = np.exp(np.log(tau) / powers[need, None]).take(which, axis=0)
        ln *= -limits[used, None]
        out = np.log1p(ln, out=ln).take(index, axis=0)
        out *= y1[rows]
        return np.exp(out, out=out)

    try:
        return _sum_halves(integrate(f, 0.0, 1.0, tol=tol), half, row, scale, m)
    except ToleranceError as exc:
        failed = row[np.isin(half, exc.rows)]
        raise _not_met(tol, _sum_halves(exc.result, half, row, scale, m), exc.evaluations,
                       (np.unique(failed).tolist(), m)) from None


def _distinct(ids, n):
    """np.unique(ids, return_inverse=True) for an int array ids of values
    in [0, n), by a mask of those values instead of a sort."""
    seen = np.bincount(ids, minlength=n) > 0
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[ids]


def _sum_halves(res, half, row, scale, m):
    """beta_integrals' result from integrate's on its distinct half-rows:
    half maps each half-row to its distinct one, and row i's value sums
    scale times value over its half-rows, in their order, and its estimate
    |scale| times theirs."""
    value = np.bincount(row, scale * res.value[half], m)
    err = np.bincount(row, np.abs(scale) * res.err_estimate[half], m)
    return QuadResult(value, err, res.evaluations)
