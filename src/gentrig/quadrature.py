"""Independent integration oracle: tanh-sinh (double-exponential) quadrature.

The substitution x = tanh((pi/2) sinh t) maps (-1, 1) to the real line and
turns algebraic endpoint singularities with exponent > -1 into a transformed
integrand that decays double-exponentially, so the trapezoidal rule in t
converges geometrically.  Interval halving of the step gives an a-posteriori
error estimate for free.

One call can integrate a batch of integrands that share the nodes: each
is refined until it alone meets the tolerance, and the others stop being
evaluated once they have, so a batch gives every integrand the same value,
bit for bit, as a call of its own.  power_moment uses this to take every
Wallis moment of one (p, q) in one pass.

This module must not import gtf, integrals or bvp: it is the independent side
of every closed-form-versus-quadrature check in the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceError, check_pq

# Truncation of the transformed axis.  At t = 6 the node weight is below
# 1e-17 even against an endpoint singularity as strong as t^(-0.9).
_T_MAX = 6.0
_MAX_LEVEL = 12
_MIN_OFFSET = 5e-300  # skip nodes whose endpoint distance underflows

DEFAULT_TOL = 1e-10
MAX_EVALS = 2_000_000


@dataclass(frozen=True)
class QuadResult:
    """value and err_estimate are floats for one integrand and arrays of
    shape (m,) for a batch of m; evaluations counts integrand values,
    summed over the rows of a batch."""

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


def _eval(f, x, args, rows):
    """f at x with one row per integrand in ``rows``; rows=None stands for
    a single integrand, whose values become the one row."""
    if rows is None:
        y = np.asarray(f(x, *args), dtype=float)
        return (y if y.shape == x.shape else np.broadcast_to(y, x.shape))[None]
    y = np.asarray(f(x, *args, rows=rows), dtype=float)
    shape = (len(rows), len(x))
    return y if y.shape == shape else np.broadcast_to(y, shape)


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    dist: bool = False,
    max_evals: int = MAX_EVALS,
) -> QuadResult:
    """Integrate f over [a, b] with a certified interval-halving estimate.

    f is called with a numpy array of abscissas and must return an array of
    the same shape.  With dist=True it is instead called as f(x, da, db)
    where da = x - a and db = b - x are endpoint distances computed without
    cancellation; use this for integrands singular at an endpoint that need
    the distance to far better than machine epsilon of the interval length.
    In plain mode, nodes closer to a nonzero endpoint than one ulp are
    unrepresentable and are skipped, which caps the achievable accuracy
    near 1e-8 for an inverse-square-root singularity at such an endpoint
    (singularities at an endpoint equal to 0 are unaffected).

    A batch of m integrands on the same nodes is one f that returns shape
    (m, len(x)).  Its first call, at the centre of [a, b], asks for every
    row; that shape fixes m.  Every later call passes the keyword ``rows``,
    the ascending indices of the integrands still refining, and wants
    shape (len(rows), len(x)).  Each row stops at the level where it would
    stop alone, with the same arithmetic, so its value and error estimate
    equal those of a single-integrand call bit for bit; ``value`` and
    ``err_estimate`` are then arrays of shape (m,) and ``evaluations`` the
    total over the rows.  An empty interval returns 0.0 whatever f is.

    Raises DomainError unless a <= b are finite and 0 < tol < inf, or if
    [a, b] is too narrow for the node table (width below
    2 _MIN_OFFSET / min(tol, 1), 1e-289 at the default tolerance), and
    ToleranceError (carrying the best estimates) if the halving
    disagreement of some integrand does not fall below tol within the
    refinement and evaluation budgets.  The width rule checks the share of
    the rule's weight on the nodes skipped near the endpoints, not the
    error: an integrand singular at an endpoint has more of its mass there.
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

    for level in range(_MAX_LEVEL + 1):
        w, delta = _level_nodes(level)
        off = delta * halfw
        keep = off >= _MIN_OFFSET
        w, off = w[keep], off[keep]

        if level == 0:
            # t = 0 sits at the interval centre, shared by both half-axes.
            xc = np.array([b - off[0]])
            yc = np.asarray(f(xc, xc - a, off[:1]) if dist else f(xc),
                            dtype=float)
            batch = yc.ndim == 2
            yc = np.broadcast_to(yc, xc.shape) if not batch else yc[:, 0]
            m = len(yc)
            # results of every row, filled in as rows stop
            value = np.full(m, np.nan)
            err = np.full(m, np.inf)
            evals = np.zeros(m, dtype=int)
            # the rows still refining: their indices, sums of w_j * f(x_j)
            # over all nodes seen so far, latest estimates and disagreements
            live = np.arange(m)
            raw = w[0] * yc + 0.0  # as a sum from 0.0: -0.0 becomes 0.0
            est, diff = value, err  # rebound, never written through
            nev = 1
            w, off = w[1:], off[1:]

        if nev + 2 * len(off) > max_evals:
            raise _failure("evaluation budget exceeded", value, err, evals,
                           batch, live, est, diff, level, nev, max_evals)
        x_hi = b - off
        x_lo = a + off
        rows = live if batch else None
        if dist:
            rest = width - off
            y_hi = _eval(f, x_hi, (rest, off), rows)
            y_lo = _eval(f, x_lo, (off, rest), rows)
            w_hi = w_lo = w
        else:
            # without exact endpoint distances, drop nodes that round onto
            # an endpoint: f may be singular exactly there
            m_hi = x_hi != b
            m_lo = x_lo != a
            y_hi = _eval(f, x_hi[m_hi], (), rows)
            y_lo = _eval(f, x_lo[m_lo], (), rows)
            w_hi, w_lo = w[m_hi], w[m_lo]
        # one dot per row keeps each row's sum equal to a lone call's
        raw += [np.dot(w_hi, r_hi) + np.dot(w_lo, r_lo)
                for r_hi, r_lo in zip(y_hi, y_lo)]
        nev += 2 * len(off)

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

    raise _failure(f"tolerance {tol:g} not met", value, err, evals, batch,
                   live, est, diff, _MAX_LEVEL + 1, nev, max_evals)


def _result(batch, value, err, evals):
    if batch:
        return QuadResult(value, err, int(evals.sum()))
    return QuadResult(value[0], err[0], int(evals[0]))


def _failure(what, value, err, evals, batch, live, est, diff, levels, nev,
             budget):
    """ToleranceError for the rows in ``live``, whose latest estimates and
    disagreements are ``est`` and ``diff``, naming where it failed."""
    value[live], err[live], evals[live] = est, diff, nev
    where = f" in rows {live.tolist()} of {len(value)}" if batch else ""
    return ToleranceError(
        f"quadrature: {what}{where} after {levels} levels, "
        f"{nev} evaluations per integrand of a budget of {budget}",
        _result(batch, value, err, evals), layer="quadrature", levels=levels,
        evaluations=nev, budget=budget,
        rows=tuple(live.tolist()) if batch else None,
    )


def integrate_singular_beta(a_exp: float, b_exp: float, upper: float) -> QuadResult:
    """Oracle for beta-type integrals: int_0^upper t^(a-1) (1-t)^(b-1) dt.

    Evaluates the integrand from exact endpoint distances, so both exponents
    may sit arbitrarily close to 0 without precision loss near t = 0 or 1.
    """
    # written so that NaN fails the test
    if not (0.0 < a_exp < math.inf and 0.0 < b_exp < math.inf):
        raise DomainError(
            f"beta exponents must be positive and finite, got ({a_exp}, {b_exp})")
    if not 0.0 <= upper <= 1.0:
        raise DomainError("upper limit must lie in [0, 1]")
    if upper == 0.0:
        return QuadResult(0.0, 0.0, 0)

    gap = 1.0 - upper

    def f(x, da, db):
        return da ** (a_exp - 1.0) * (gap + db) ** (b_exp - 1.0)

    return integrate(f, 0.0, upper, tol=1e-12, dist=True)


def power_moment(p: float, q: float, exponent, flavor: str,
                 tol: float = 1e-10):
    """Oracle for the half-period moments int_0^{pi_pq/2} sin_pq^e dt
    (flavor "sin") and int_0^{pi_pq/2} cos_pq^e dt (flavor "cos").

    The substitution s = sin_pq turns them into int_0^1 s^e (1-s^q)^(-1/p) ds
    and int_0^1 (1-s^q)^((e-1)/p) ds, whose endpoint factors are exact in
    distance form; the floors keep negative powers finite at zero-weight
    nodes.

    exponent is a number (the moment is returned as a float) or a 1-D
    sequence (an array of moments is returned, each equal bit for bit to
    its own scalar call).  A sequence is one batched integration: the
    factor 1 - s^q is formed once per node set and each moment raises it,
    or s, to its own exponent.  Needs p, q in (1, inf) and every exponent
    finite with e > -1 ("sin") or e > 1 - p ("cos"), where the integral
    converges; DomainError otherwise, NaN included.
    """
    if flavor not in ("sin", "cos"):
        raise DomainError(f"flavor must be 'sin' or 'cos', got {flavor!r}")
    check_pq(p, q)
    exps = np.asarray(exponent, dtype=float)
    least = -1.0 if flavor == "sin" else 1.0 - p
    # written so that NaN fails the test
    if exps.ndim > 1 or not ((exps > least) & (exps < math.inf)).all():
        raise DomainError(
            f"{flavor} moment exponents must be finite and > {least:g}, "
            f"given as a number or a 1-D sequence; got {exponent!r}")
    # each row is raised to its own Python-float exponent, never to a
    # column of them: numpy's power takes its fast paths (e = 2, 0.5, ...)
    # only for a scalar exponent, and a moment must not depend on its batch
    es = exps.reshape(-1).tolist()
    if flavor == "cos":
        es = [(e - 1.0) / p for e in es]

    def f(t, da, db, rows=range(len(es))):
        with np.errstate(divide="ignore"):
            tail = np.maximum(-np.expm1(q * np.log1p(-db)), 5e-324)
        base = np.maximum(t, 5e-324) if flavor == "sin" else tail
        y = np.array([base ** es[i] for i in rows]).reshape(len(rows), len(t))
        return y * tail ** (-1.0 / p) if flavor == "sin" else y

    value = integrate(f, 0.0, 1.0, tol=tol, dist=True).value
    return value if exps.ndim else value[0]
