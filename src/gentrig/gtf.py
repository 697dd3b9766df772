"""Generalized trigonometric functions with two parameters.

sin_pq is the inverse of x -> int_0^x (1 - t^q)^(-1/p) dt on [0, 1]; pi_pq
is twice that integral at x = 1, and cos_pq the derivative of sin_pq.  For
p = q = 2 everything reduces to the circular functions.  The numerical
realization goes through the regularized incomplete beta function and its
inverse; near the right end of the principal interval the inverse is solved
in the swapped-tail form to keep cos_pq accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from . import specfun
from .errors import DomainError, check_pq

_REL_SLACK = 1e-12  # tolerated floating overshoot of a domain endpoint


def conjugate(p: float) -> float:
    """Hoelder conjugate p* = p / (p - 1) on [1, inf]; 1* = inf, inf* = 1."""
    if not 1.0 <= p <= math.inf:  # written so that NaN fails the test
        raise DomainError(f"conjugate requires p in [1, inf], got {p}")
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class ParamPair:
    """Exponent pair (p, q), both in (1, inf) for the standard constructor."""

    p: float
    q: float

    def __post_init__(self):
        check_pq(self.p, self.q)

    @property
    def p_star(self) -> float:
        return conjugate(self.p)

    @property
    def q_star(self) -> float:
        return conjugate(self.q)


def pi_pq(p: float, q: float) -> float:
    """Generalized pi: pi_pq = (2/q) B(1/p*, 1/q).

    The degenerate conventions pi_{s,1} = 2 s* and pi_{inf,s} = 2 are
    accepted here (and only here).
    """
    if q == 1.0:
        if not 1.0 < p:
            raise DomainError("pi_pq with q = 1 requires p > 1")
        return 2.0 * conjugate(p)
    if math.isinf(p):
        check_pq(2.0, q)  # the convention needs q in (1, inf)
        return 2.0
    check_pq(p, q)
    return (2.0 / q) * specfun.beta(1.0 / conjugate(p), 1.0 / q)


def _as_unit(x, top: float, what: str):
    """Validate x in [0, top] (tiny relative slack) and return clipped array."""
    xx = np.asarray(x, dtype=float)
    slack = _REL_SLACK * top
    # written so that NaN fails the test
    if not ((xx >= -slack) & (xx <= top + slack)).all():
        raise DomainError(f"{what} requires argument in [0, {top}]")
    return np.clip(xx, 0.0, top)


def _maybe_scalar(v):
    return float(v) if np.ndim(v) == 0 else v


def _libm_pow(base, exponent: float):
    """base ** exponent one element at a time on Python floats, i.e. through
    the C library's pow, as the scalar paths of this package compute it.

    numpy's vectorized power differs from pow in the last ulp on a few
    percent of inputs; callers that must reproduce the scalar calls bit for
    bit on arrays raise their powers here.
    """
    if np.ndim(base) == 0:
        return float(base) ** exponent
    base = np.asarray(base, dtype=float)
    return np.array([v ** exponent for v in base.ravel().tolist()]).reshape(base.shape)


def asin_pq(p: float, q: float, x):
    """Inverse generalized sine on [0, 1], via the incomplete beta form."""
    check_pq(p, q)
    xx = _as_unit(x, 1.0, "asin_pq")
    a, b = 1.0 / q, 1.0 / conjugate(p)
    val = (1.0 / q) * specfun.beta(a, b) * sc.betainc(a, b, xx**q)
    return _maybe_scalar(val)


def sin_pq(p: float, q: float, x):
    """Generalized sine on the principal interval [0, pi_pq/2]."""
    check_pq(p, q)
    halfpi = 0.5 * pi_pq(p, q)
    xx = _as_unit(x, halfpi, "sin_pq")
    a, b = 1.0 / q, 1.0 / conjugate(p)
    t = sc.betaincinv(a, b, xx / halfpi)
    return _maybe_scalar(t ** (1.0 / q))


def cos_pq(p: float, q: float, x):
    """Generalized cosine (1 - sin_pq^q)^(1/p) on [0, pi_pq/2].

    Solved in the swapped-tail form I_{1-t}(b, a) = 1 - I_t(a, b) so that
    accuracy is retained where sin_pq is close to 1.
    """
    check_pq(p, q)
    halfpi = 0.5 * pi_pq(p, q)
    xx = _as_unit(x, halfpi, "cos_pq")
    a, b = 1.0 / q, 1.0 / conjugate(p)
    tc = sc.betaincinv(b, a, (halfpi - xx) / halfpi)
    return _maybe_scalar(tc ** (1.0 / p))


def sincos_pq(p: float, q: float, x, *, pointwise: bool = False):
    """(sin_pq(p, q, x), cos_pq(p, q, x)) from one validation and one pi_pq.

    Both incomplete-beta inversions (the sine form and the swapped-tail
    cosine form) run on the whole array.  The pair equals the two separate
    calls bit for bit, for scalars and for arrays.  With pointwise=True the
    two final powers are instead taken one element at a time through the C
    library's pow, so that an array result equals the scalar calls
    [sin_pq(p, q, xi) for xi in x] (and likewise cos_pq) bit for bit; numpy's
    vectorized power, which the array calls use, can differ from those in
    the last ulp.  Scalars give the same result either way.
    """
    check_pq(p, q)
    halfpi = 0.5 * pi_pq(p, q)
    xx = _as_unit(x, halfpi, "sincos_pq")
    a, b = 1.0 / q, 1.0 / conjugate(p)
    t = sc.betaincinv(a, b, xx / halfpi)
    tc = sc.betaincinv(b, a, (halfpi - xx) / halfpi)
    if pointwise:
        return _libm_pow(t, 1.0 / q), _libm_pow(tc, 1.0 / p)
    return _maybe_scalar(t ** (1.0 / q)), _maybe_scalar(tc ** (1.0 / p))


def dcos_power_identity_residual(p: float, q: float, x: float) -> float:
    """Residual of (cos_pq^(p-1))' = -((p-1) q / p) sin_pq^(q-1).

    The left side is a central finite difference (step 1e-5, shrunk when x
    sits close to an endpoint); the identity carries the minus sign that
    makes sin_pq solve the p-Laplacian oscillator.
    """
    check_pq(p, q)
    halfpi = 0.5 * pi_pq(p, q)
    if not 0.0 < x < halfpi:
        raise DomainError("x must be interior to (0, pi_pq/2)")
    h = min(1e-5, 0.5 * x, 0.5 * (halfpi - x))
    lhs = (
        cos_pq(p, q, x + h) ** (p - 1.0) - cos_pq(p, q, x - h) ** (p - 1.0)
    ) / (2.0 * h)
    rhs = -((p - 1.0) * q / p) * sin_pq(p, q, x) ** (q - 1.0)
    return abs(lhs - rhs)


def sin_symmetry_appendix(p: float, q: float, x01: float):
    """Signed residuals of the two reflection formulas tying (p, q) to
    the conjugate pair (q*, p*):

        sin_pq((pi_pq/2) x)  vs  cos_{q*,p*}^(q*-1)((pi_{q*,p*}/2)(1-x))
        cos_pq((pi_pq/2) x)  vs  sin_{q*,p*}^(p*-1)((pi_{q*,p*}/2)(1-x))
    """
    check_pq(p, q)
    if not 0.0 <= x01 <= 1.0:
        raise DomainError("x01 must lie in [0, 1]")
    ps, qs = conjugate(p), conjugate(q)
    half_a = 0.5 * pi_pq(p, q)
    half_b = 0.5 * pi_pq(qs, ps)
    s_a, c_a = sincos_pq(p, q, half_a * x01)
    s_b, c_b = sincos_pq(qs, ps, half_b * (1.0 - x01))
    return s_a - c_b ** (qs - 1.0), c_a - s_b ** (ps - 1.0)


def multiple_angle_residual(p: float, x: float) -> float:
    """Residual of sin_{2,p}(2^(2/p) x) = 2^(2/p) sin_{p*,p}(x) cos_{p*,p}^(p*-1)(x)
    for x in [0, pi_{p*,p}/2]."""
    check_pq(2.0, p)
    ps = conjugate(p)
    half = 0.5 * pi_pq(ps, p)
    if not 0.0 <= x <= half * (1.0 + _REL_SLACK):
        raise DomainError("x must lie in [0, pi_{p*,p}/2]")
    scale = 2.0 ** (2.0 / p)
    # the doubled argument sweeps the full arch [0, pi_{2,p}] as x sweeps
    # the half period, since pi_{2,p} = 2^(2/p - 1) pi_{p*,p}
    lhs = extend_sin_symmetric(p, min(scale * x, pi_pq(2.0, p)))
    s, c = sincos_pq(ps, p, x)
    rhs = scale * s * c ** (ps - 1.0)
    return abs(lhs - rhs)


def extend_sin_symmetric(p: float, x):
    """sin_{2,p} on [0, pi_{2,p}], mirrored about the midpoint on the
    second half.  This is the only family the extension is defined for."""
    check_pq(2.0, p)
    full = pi_pq(2.0, p)
    xx = _as_unit(x, full, "extend_sin_symmetric")
    folded = np.minimum(xx, full - xx)
    return _maybe_scalar(sin_pq(2.0, p, folded))
