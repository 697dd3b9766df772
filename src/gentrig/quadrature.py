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
own.  beta_integrals uses this to take any number of beta integrals B(a, b),
the Wallis moments of the whole verify grid included, in one pass: each is
two half-rows that an endpoint substitution makes bounded, so that no mass
of a singular endpoint lies beyond the outermost node, however small a or b.

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
    the integrand, summed over the rows of a batch."""

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
    dist: bool = False,
) -> QuadResult:
    """Integrate f over [a, b] with a certified interval-halving estimate.

    f is called with a numpy array of abscissas and must return an array of
    the same shape.  With dist=True it is instead called as f(x, da, db)
    where da = x - a and db = b - x are endpoint distances computed without
    cancellation; use this for integrands singular at an endpoint that need
    the distance to far better than machine epsilon of the interval length.
    In plain mode, nodes closer to a nonzero endpoint than one ulp round
    onto it and are dropped, neither evaluated nor counted, which caps the
    achievable accuracy near 1e-8 for an inverse-square-root singularity
    at such an endpoint (singularities at an endpoint equal to 0 are
    unaffected).  f is called once per refinement level, with the nodes of
    both half-axes in one array (level 0's call starts with the centre of
    [a, b]); it must act elementwise, so that a node's value does not
    depend on its neighbours.

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
    within the budget of _MAX_LEVEL + 1 levels, 49 153 evaluations per
    integrand where no node is skipped or dropped.  The width rule checks
    the share of the rule's weight on the nodes skipped near the endpoints,
    not the error: an integrand singular at an endpoint has more of its
    mass there (beta_integrals substitutes its singularities away).
    """
    # written so that NaN fails each test
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if not -math.inf < a <= b < math.inf:
        raise DomainError(f"need finite limits a <= b, got [{a}, {b}]")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    halfw = 0.5 * (b - a)
    width = b - a
    # the nodes skipped for lying within _MIN_OFFSET of an endpoint carry the
    # share _MIN_OFFSET / halfw of the rule's weight; more than tol of it (or
    # all of it, the centre node included) cannot be certified.  A share of
    # the weight, not an error bound: t^(e-1) leaves (_MIN_OFFSET/halfw)^e of
    # its mass there, and being relative the rule also rejects widths whose
    # result met the stopping test, which is absolute while |est| < 1
    if _MIN_OFFSET > min(tol, 1.0) * halfw:
        raise DomainError(
            f"interval width {width:g} is too narrow for tolerance {tol:g}: "
            f"the nodes skipped within {_MIN_OFFSET:g} of an endpoint carry "
            f"more than that share of the rule's weight")

    nev = 0  # integrand values per row so far
    for level in range(_MAX_LEVEL + 1):
        w, delta = _level_nodes(level)
        off = delta * halfw
        keep = off >= _MIN_OFFSET
        w, off = w[keep], off[keep]
        cols = []
        if level == 0:
            # t = 0 sits at the interval centre, shared by both half-axes; it
            # heads level 0's call, whose shape fixes the number of rows
            xc = b - off[:1]
            cols.append((xc, xc - a, off[:1]) if dist else (xc,))
            wc, w, off = w[0], w[1:], off[1:]
        x_hi, x_lo = b - off, a + off
        if dist:
            rest = width - off
            cols += [(x_hi, rest, off), (x_lo, off, rest)]
            w_hi = w_lo = w
        else:
            # without exact endpoint distances, drop nodes that round onto
            # an endpoint: f may be singular exactly there
            m_hi = x_hi != b
            m_lo = x_lo != a
            cols += [(x_hi[m_hi],), (x_lo[m_lo],)]
            w_hi, w_lo = w[m_hi], w[m_lo]
        # the level's nodes in one call, split back by position below
        x, *args = (np.concatenate(c) for c in zip(*cols))
        if level == 0:
            y = np.asarray(f(x, *args), dtype=float)
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
            y = np.asarray(f(x, *args, rows=live) if batch else f(x, *args),
                           dtype=float)
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
    where = _rows_where(live.tolist(), len(value)) if batch else ""
    levels = _MAX_LEVEL + 1
    raise ToleranceError(
        f"quadrature: tolerance {tol:g} not met{where} after {levels} levels, "
        f"{nev} evaluations per integrand, of a budget of {levels} levels",
        _result(batch, value, err, evals), layer="quadrature", levels=levels,
        evaluations=nev, budget=levels, rows=tuple(live.tolist()) if batch else None)


def _result(batch, value, err, evals):
    if batch:
        return QuadResult(value, err, int(evals.sum()))
    return QuadResult(value[0], err[0], int(evals[0]))


def _rows_where(rows, m):
    return f" in rows {rows} of {m}"


def beta_integrals(a, b, tol: float = DEFAULT_TOL) -> QuadResult:
    """B(a, b) = int_0^1 t^(a-1) (1-t)^(b-1) dt for each row of the 1-D
    arrays a and b, all in one integrate batch, each row equal bit for bit
    to a call of its own.

    Each row is split at t = 1/2 and each half substituted at its own end,
    t = tau^(1/a) / 2 (Davis and Rabinowitz):

        B(a, b) = (2^-a / a) int_0^1 (1 - tau^(1/a) / 2)^(b-1) dtau
                  + the same term with a and b swapped.

    Both integrands lie between 1 and 2^(1-b): no endpoint singularity,
    however near 0 a or b is.  Per level, tau^(1/a) is formed once per
    distinct a among the live half-rows, and every power elementwise as the
    exp of a log: numpy's power special-cases some scalar exponents, so a
    lone row would differ from the same row in a batch.

    DomainError unless a and b are 1-D of one length with every entry in
    (0, inf), NaN failing.  A ToleranceError names the failing rows of a
    and b, and carries every row's best estimate.
    """
    a, b = (np.asarray(v, dtype=float) for v in (a, b))
    if a.ndim != 1 or a.shape != b.shape:
        raise DomainError("beta_integrals needs 1-D arrays a, b of one length, "
                          f"got shapes {a.shape} and {b.shape}")
    # written so that NaN fails the test
    bad = ~((a > 0.0) & (a < math.inf) & (b > 0.0) & (b < math.inf))
    if bad.any():
        i = int(bad.argmax())
        raise DomainError(f"beta_integrals needs a, b in (0, inf), got "
                          f"({a[i]}, {b[i]}) in row {i}")
    m = len(a)
    # half-row i < m is row i's half at t < 1/2, half-row m + i its other half
    x, y = np.concatenate((a, b)), np.concatenate((b, a))
    xs, at = np.unique(x, return_inverse=True)
    y1 = (y - 1.0)[:, None]
    scale = np.exp2(-x) / x

    def f(tau, rows=np.arange(2 * m)):
        used, index = np.unique(at[rows], return_inverse=True)
        ln = np.log1p(-0.5 * np.exp(np.log(tau) / xs[used, None]))
        out = ln.take(index, axis=0)
        out *= y1[rows]
        return np.exp(out, out=out)

    try:
        return _join_halves(integrate(f, 0.0, 1.0, tol=tol), scale, m)
    except ToleranceError as exc:
        rows = sorted({r % m for r in exc.rows})
        message = str(exc).replace(_rows_where(list(exc.rows), 2 * m),
                                   _rows_where(rows, m))
        raise ToleranceError(message, _join_halves(exc.result, scale, m),
                             layer=exc.layer, levels=exc.levels,
                             evaluations=exc.evaluations, budget=exc.budget,
                             rows=tuple(rows)) from None


def _join_halves(res, scale, m):
    """beta_integrals' result from integrate's on its 2m half-rows."""
    value, err = scale * res.value, scale * res.err_estimate
    return QuadResult(value[:m] + value[m:], err[:m] + err[m:], res.evaluations)
