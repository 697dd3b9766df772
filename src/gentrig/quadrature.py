"""Independent integration oracle: tanh-sinh (double-exponential) quadrature.

The substitution x = tanh((pi/2) sinh t) maps (-1, 1) to the real line and
turns algebraic endpoint singularities with exponent > -1 into a transformed
integrand that decays double-exponentially, so the trapezoidal rule in t
converges geometrically.  Interval halving of the step gives an a-posteriori
error estimate for free.

This module must not import gtf, integrals or bvp: it is the independent side
of every closed-form-versus-quadrature check in the package.
"""

from __future__ import annotations

import functools
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
MAX_EVALS = 2_000_000


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
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


def _eval(f, x, args):
    y = f(x, *args)
    y = np.asarray(y, dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    return y


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

    Raises ToleranceError (carrying the best estimate) if the halving
    disagreement does not fall below tol within the refinement and
    evaluation budgets.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if a > b:
        raise DomainError("need a <= b")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    halfw = 0.5 * (b - a)
    width = b - a
    raw = 0.0  # sum of w_j * f(x_j) over all nodes seen so far
    nev = 0
    value = np.nan
    err = np.inf

    for level in range(_MAX_LEVEL + 1):
        w, delta = _level_nodes(level)
        keep = delta * halfw >= _MIN_OFFSET
        w, delta = w[keep], delta[keep]
        off = delta * halfw

        if level == 0:
            # t = 0 sits at the interval centre, shared by both half-axes.
            xc = np.array([b - off[0]])
            if dist:
                yc = _eval(f, xc, (xc - a, off[:1]))
            else:
                yc = _eval(f, xc, ())
            raw += w[0] * yc[0]
            nev += 1
            w, off = w[1:], off[1:]

        if nev + 2 * len(off) > max_evals:
            raise ToleranceError(
                "evaluation cap exceeded", QuadResult(value, err, nev)
            )
        x_hi = b - off
        x_lo = a + off
        if dist:
            y_hi = _eval(f, x_hi, (width - off, off))
            y_lo = _eval(f, x_lo, (off, width - off))
            raw += float(np.dot(w, y_hi) + np.dot(w, y_lo))
        else:
            # without exact endpoint distances, drop nodes that round onto
            # an endpoint: f may be singular exactly there
            m_hi = x_hi != b
            m_lo = x_lo != a
            y_hi = _eval(f, x_hi[m_hi], ())
            y_lo = _eval(f, x_lo[m_lo], ())
            raw += float(np.dot(w[m_hi], y_hi) + np.dot(w[m_lo], y_lo))
        nev += 2 * len(off)

        h = 2.0 ** (-level)
        prev_value = value
        value = h * halfw * raw
        if level >= 2:
            err = abs(value - prev_value)
            if np.isfinite(value) and err <= tol * max(1.0, abs(value)):
                return QuadResult(value, max(err, abs(value) * 1e-16), nev)

    raise ToleranceError(
        f"tolerance {tol:g} not met after level {_MAX_LEVEL}",
        QuadResult(value, err, nev),
    )


def integrate_singular_beta(a_exp: float, b_exp: float, upper: float) -> QuadResult:
    """Oracle for beta-type integrals: int_0^upper t^(a-1) (1-t)^(b-1) dt.

    Evaluates the integrand from exact endpoint distances, so both exponents
    may sit arbitrarily close to 0 without precision loss near t = 0 or 1.
    """
    if a_exp <= 0 or b_exp <= 0:
        raise DomainError("beta exponents must be positive")
    if not 0.0 <= upper <= 1.0:
        raise DomainError("upper limit must lie in [0, 1]")
    if upper == 0.0:
        return QuadResult(0.0, 0.0, 0)

    gap = 1.0 - upper

    def f(x, da, db):
        return da ** (a_exp - 1.0) * (gap + db) ** (b_exp - 1.0)

    return integrate(f, 0.0, upper, tol=1e-12, dist=True)
