"""Generalized trigonometric functions with two parameters.

sin_pq is the inverse of x -> int_0^x (1 - t^q)^(-1/p) dt on [0, 1]; pi_pq
is twice that integral at x = 1, and cos_pq the derivative of sin_pq.  For
p = q = 2 everything reduces to the circular functions.  The numerical
realization goes through the regularized incomplete beta function and its
inverse, in two tails (DLMF 8.17.4): with a = 1/q, b = 1/p*, y = x/(pi_pq/2)
and yc = 1 - y, t = sin_pq^q solves I_t(a, b) = y and s = cos_pq^p = 1 - t
solves I_s(b, a) = yc.  One inversion gives both, the other being 1 minus
the one solved, wherever the solved value is at most 1/2 and its argument
is the smaller of y and yc: t up to y = min(y_half, 1/2), s above max(y_half,
1/2), y_half = I_{1/2}(a, b), kept per pair (_pair) with pi_pq/2.  In the
band between y_half and 1/2 each is solved from its own argument, so
sincos_pq inverts a point twice only there, and sin_pq and cos_pq always
once (_inverse_tails).

Every evaluator takes a point or an array of points, and the input alone
picks the lane.  A float or an int takes the float lane: plain range
comparisons, scipy's scalar kernels (scipy.special.cython_special, the same
Boost code as the ufuncs), Python float powers, no 0-d array, and a Python
float back.  Arrays of fewer than specfun.INV_FIT_MIN points take the
ufuncs and numpy's powers.  Larger arrays take specfun's kernels: the
inversions specfun._inverse_tails (fitted inverses Newton-polished on the
series specfun.inc_beta_reg, both tails from one setup), and asin_pq that
series.  These build their setup once per shape (a, b), about 0.2 ms for
an inversion's fits and forward sums, and keep it in a bounded cache: a
1000-point sin_pq or cos_pq call costs about 0.12 ms at a (p, q) met before
(0.17 ms for the function whose tail holds the band, which takes a third
branch) and 0.36-0.40 ms at a new one, sincos_pq 0.18 and 0.42 ms, asin_pq
0.07 and 0.16 ms; on 1e6 points sin_pq, cos_pq, sincos_pq and asin_pq take
36, 38, 50 and 22 ns a point (medians on a shared 2-vCPU x86-64 VM).  All
lanes share every other formula and one accuracy contract: at every point each
is within 2e-15 of 50-digit mpmath, relative and divided by the condition
number of its inversion, or no further than scipy's raw inverse
(tests/test_gtf.py, TestFittedInverse; the band keeps it where the other
tail's argument is the larger).  Lanes may differ in the last ulps
(numpy's power and the C library's pow differ on a few percent of points);
bits match between sincos_pq and sin_pq, cos_pq, between the scalar kernels
and the ufuncs, and wherever a point sits in an array of a given lane.  At
1/q = 1/p*, I_{1/2}(a, a) = 1/2 and every lane inverts y = 1/2 to 1/2,
where Boost's inverse misses it by up to 1.3e-8.  The series is within
9.4e-16 of mpmath where Boost's incomplete beta is off by up to 3e-15.

Where x^q underflows, sin_pq(x) is x: its next term is O(x^(q+1)), while
the incomplete-beta form has nothing left to resolve there (the test is
x < DBL_MIN^(1/q)).  asin_pq(x) is its two-term series x + x z / (p (q + 1))
wherever 0 < z = x^q < 2^-27, in every lane, whereas Boost's incomplete
beta loses accuracy at small z in proportion to |ln z| (1.6e-14 at z =
1e-305, 4-5 ulps at z near 1e-15).  The series is x F(1/p, 1/q; 1 + 1/q; z):
its third term is x d z^2 with d = (1/p)(1 + 1/p) / (2 (2q + 1)) < 1/3 and
each later one is below z times the one before, so for z < 2^-27 the terms
left out sum to below x 2^-54 / 3 (1 + 2^-26), a third of half an ulp of
the value; the bound reaches half an ulp only near z = sqrt(3) 2^-27.
Below z = 2^-53 the second term is below half an ulp of x too, and the
value is x.  Above 2^-27 the float lane and small arrays keep Boost's
incomplete beta.  Likewise, where the
swapped-tail inverse tc = cos_pq^p falls below DBL_MIN (near the top of the
interval at p near 1), cos_pq is its leading term (b B(b, a) yc)^(1/(p-1)),
with yc = 1 - x/(pi_pq/2), a = 1/q and b = 1/p*: its relative correction
is O(tc), whereas the inverse clamps tc near DBL_MIN there and tc^(1/p)
would be far too large.  Every lane takes this rule, sincos_pq's included.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.special as sc
from scipy.special import cython_special as _cs

from . import specfun
from .errors import DomainError, check_pq, within

_REL_SLACK = 1e-12  # tolerated floating overshoot of a domain endpoint
_DBL_MIN = sys.float_info.min
_ASIN_SERIES_MAX = 2.0**-27  # asin_pq(x) is its two-term series below this x^q


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
    """Validate x in [0, top], with a tiny relative slack, and clip it to
    [0, top].  A float or an int (the float lane) comes back as a Python
    float, anything else as a float array; the comparisons and the clip are
    the same in both, so the lanes accept the same points and give the same
    values, -0.0 included.  NaN and infinities raise DomainError."""
    slack = _REL_SLACK * top
    if isinstance(x, (float, int)):
        x = float(x)
        # written so that NaN fails the test
        if not -slack <= x <= top + slack:
            raise DomainError(f"{what} requires argument in [0, {top}]")
        return min(max(x, 0.0), top)
    xx = np.asarray(x, dtype=float)
    if not within(xx, -slack, top + slack):
        raise DomainError(f"{what} requires argument in [0, {top}]")
    return np.clip(xx, 0.0, top)


@functools.lru_cache(maxsize=128)
def _pair(p: float, q: float):
    """(pi_pq/2, a, b, y_half) of a pair (p, q), valid by check_pq: the
    shapes a = 1/q, b = 1/p* of its incomplete-beta form and y_half =
    I_{1/2}(a, b), where its inversion splits into two tails (1/2 exactly
    at a = b).  Kept for 128 pairs: a hit costs less than the pi_pq it
    saves."""
    a, b = 1.0 / q, 1.0 / conjugate(p)
    return 0.5 * pi_pq(p, q), a, b, specfun._half_mass(a, b)


def _inverse_tails(a: float, b: float, y_half: float, y, yc, tails=(True, True)):
    """(t, s) with I_t(a, b) = y and s = 1 - t, I_s(b, a) = yc, those that
    tails asks for each accurate relative to its own argument, from one
    inversion a point wherever one serves both.

    t is solved from y and s from yc, and one value serves both tails, the
    other being 1 minus it (DLMF 8.17.4), where the solved value is <= 1/2
    and its argument is the smaller of y and yc: t up to y = min(y_half,
    1/2), s above max(y_half, 1/2), y_half = I_{1/2}(a, b).  In the band
    between y_half and 1/2 each tail is solved from its own argument, so a
    point there is inverted twice only when both tails are asked for (at a
    = b, y_half = 1/2 and there is no band).  A float y takes scipy's
    scalar kernel and gives both values, only those asked for accurate in
    the band.  An array of fewer than specfun.INV_FIT_MIN points takes one
    ufunc call with the shapes swapped point by point (the same Boost code,
    bit for bit), and a second on the band's cosines if both tails are
    asked for; a larger one the polished specfun._inverse_tails (or the
    ufunc where the shape's fits are not certified).  An array call gives
    None for a tail not asked for.  At a = b a tail's argument of 1/2 gives
    t = s = 1/2 in every lane, since I_{1/2}(a, a) = 1/2, where Boost's
    inverse misses it by up to 1.3e-8 at some a (68 of 4000 random p in
    (1, 100) at a = 1/p*)."""
    lo, hi = min(y_half, 0.5), max(y_half, 0.5)
    t_top = hi if tails[0] else lo  # t is solved from y where y <= t_top
    s_bottom = lo if tails[1] else hi  # s from yc where y > s_bottom
    if isinstance(y, float):
        t = s = None
        if y <= t_top:
            t = 0.5 if a == b and y == 0.5 else _cs.betaincinv(a, b, y)
        if y > s_bottom:
            s = 0.5 if a == b and yc == 0.5 else _cs.betaincinv(b, a, yc)
        return (1.0 - s if t is None else t), (1.0 - t if s is None else s)
    if y.size >= specfun.INV_FIT_MIN:
        fitted = specfun._inverse_tails(a, b, y, yc, *tails)
        if fitted is not None:
            return fitted
    up = y > t_top
    w = np.where(up, yc, y)
    r = sc.betaincinv(np.where(up, b, a), np.where(up, a, b), w)
    if a == b:
        r[w == 0.5] = 0.5
    rc = 1.0 - r
    t = np.where(up, rc, r) if tails[0] else None
    s = np.where(up, r, rc) if tails[1] else None
    if s_bottom < t_top:  # both asked for, and a band: its s from yc
        band = (y > s_bottom) & ~up
        s[band] = sc.betaincinv(b, a, yc[band])
    return t, s


def _betainc(a: float, b: float, t):
    """I_t(a, b), dispatched like _betaincinv: scipy's kernels for a float t
    and for arrays of fewer than specfun.INV_FIT_MIN points, the series
    specfun.inc_beta_reg for larger arrays."""
    if isinstance(t, float):
        return _cs.betainc(a, b, t)
    if t.size < specfun.INV_FIT_MIN:
        return sc.betainc(a, b, t)
    return specfun.inc_beta_reg(a, b, t)


def _small_x(x, v, under, z=None, d=None):
    """A value v of sin_pq or asin_pq at x, with its series where x > 0 and
    `under` says that x^q is too small for the incomplete-beta form: x
    itself, or x + x z / d where d is given (z = x^q); a Python float for a
    point (a float v), and an array v is changed in place."""
    if isinstance(v, float):
        if under and x > 0.0:
            return float(x if d is None else x + x * z / d)
        return float(v)
    small = under & (x > 0.0)
    if small.any():
        xs = x[small]
        v[small] = xs if d is None else xs + xs * z[small] / d
    return v


def _lead_cos_power(a: float, b: float, yc):
    """b B(b, a) yc: cos_pq^(p-1) to leading order where the swapped-tail
    inverse tc = cos_pq^p is below DBL_MIN, with a = 1/q, b = 1/p*."""
    return b * specfun.beta(b, a) * yc


def _cos_from_tail(p: float, a: float, b: float, tc, yc):
    """cos_pq = tc^(1/p) from the swapped-tail inverse tc at yc, or its
    leading term (b B(b, a) yc)^(1/(p-1)) where tc < DBL_MIN."""
    c = tc ** (1.0 / p)
    if isinstance(c, float):
        if tc < _DBL_MIN:
            c = _lead_cos_power(a, b, yc) ** (1.0 / (p - 1.0))
        return float(c)
    under = tc < _DBL_MIN
    if under.any():
        c[under] = _lead_cos_power(a, b, yc[under]) ** (1.0 / (p - 1.0))
    return c


def _cos_power(p: float, q: float, c, yc):
    """cos_pq^(p-1) from a cosine c of _sincos_tail and the argument yc of
    its inversion: c^(p-1), except where c < DBL_MIN.  There the inverse
    tc = cos_pq^p is below DBL_MIN too (c = tc^(1/p) >= tc), so c is the
    leading term (b B(b, a) yc)^(1/(p-1)), perhaps underflowed, and the
    power is that term's base b B(b, a) yc; at p near 1 it is far from
    underflow (1e-308^(1/400) = 0.17).  A float c gives a float."""
    if isinstance(c, float):
        if c < _DBL_MIN:
            return float(_lead_cos_power(1.0 / q, 1.0 / conjugate(p), yc))
        return c ** (p - 1.0)
    cp = c ** (p - 1.0)
    under = c < _DBL_MIN
    if under.any():
        cp[under] = _lead_cos_power(1.0 / q, 1.0 / conjugate(p), yc[under])
    return cp


def asin_pq(p: float, q: float, x):
    """Inverse generalized sine on [0, 1], via the incomplete beta form."""
    check_pq(p, q)
    xx = _as_unit(x, 1.0, "asin_pq")
    a, b = 1.0 / q, 1.0 / conjugate(p)
    xq = xx**q
    val = (1.0 / q) * specfun.beta(a, b) * _betainc(a, b, xq)
    return _small_x(xx, val, xq < _ASIN_SERIES_MAX, xq, p * (q + 1.0))


def sin_pq(p: float, q: float, x):
    """Generalized sine on the principal interval [0, pi_pq/2]."""
    return _sincos_tail(p, q, x, (True, False), "sin_pq")[0]


def cos_pq(p: float, q: float, x):
    """Generalized cosine (1 - sin_pq^q)^(1/p) on [0, pi_pq/2].

    s = cos_pq^p is solved in the swapped-tail form I_s(b, a) = 1 -
    I_{1-s}(a, b) above y = min(I_{1/2}(a, b), 1/2), so that accuracy is
    retained where sin_pq is close to 1, and below it is 1 - t from the
    sine's t <= 1/2, one inversion a point either way (_inverse_tails).
    """
    return _sincos_tail(p, q, x, (False, True), "cos_pq")[1]


def sincos_pq(p: float, q: float, x):
    """(sin_pq(p, q, x), cos_pq(p, q, x)) from one validation and one
    inversion a point, two in the band between I_{1/2}(a, b) and 1/2.

    Outside the band a point is inverted once, in the tail whose argument is
    the smaller, and the sine and the cosine both come from that inversion
    (_inverse_tails), in the lane the input's type and size select (see the
    module docstring).  sin_pq and cos_pq take the same path, so the pair
    equals the two separate calls bit for bit, for scalars and for arrays.
    """
    return _sincos_tail(p, q, x)[:2]


def _sincos_tail(p: float, q: float, x, tails=(True, True), what="sincos_pq"):
    """(sin, cos, yc) at x, yc = 1 - x/(pi_pq/2) the argument of the
    swapped-tail inversion, which _cos_power needs, from one call of
    _inverse_tails.  An array call computes the sine and the cosine only
    where tails says so, and gives None for the other."""
    check_pq(p, q)
    halfpi, a, b, y_half = _pair(p, q)
    xx = _as_unit(x, halfpi, what)
    yc = (halfpi - xx) / halfpi
    t, s = _inverse_tails(a, b, y_half, xx / halfpi, yc, tails)
    sin = _small_x(xx, t ** (1.0 / q), xx < _DBL_MIN ** a) if tails[0] else None
    cos = _cos_from_tail(p, a, b, s, yc) if tails[1] else None
    return sin, cos, yc


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


def sin_symmetry_appendix(p: float, q: float, x01):
    """Signed residuals of the two reflection formulas tying (p, q) to
    the conjugate pair (q*, p*):

        sin_pq((pi_pq/2) x)  vs  cos_{q*,p*}^(q*-1)((pi_{q*,p*}/2)(1-x))
        cos_pq((pi_pq/2) x)  vs  sin_{q*,p*}^(p*-1)((pi_{q*,p*}/2)(1-x))

    x01 is one point of [0, 1] (two floats are returned; a float or an int
    takes the float lane) or an array of them (two arrays, in the lane the
    array's size selects); the lanes agree to within gtf's accuracy
    contract, not bit for bit.  A residual is a few ulps except near x01 =
    1, where the rounding of pi_pq/2 - x in the cosine dominates.  Unlike
    sin_pq, x01 gets no slack beyond [0, 1].
    """
    check_pq(p, q)
    if isinstance(x01, (float, int)):
        xx = float(x01)
        ok = 0.0 <= xx <= 1.0
    else:
        xx = np.asarray(x01, dtype=float)
        ok = within(xx, 0.0, 1.0)
    if not ok:  # written so that NaN fails
        raise DomainError("x01 must lie in [0, 1]")
    ps, qs = conjugate(p), conjugate(q)
    half_a = _pair(p, q)[0]
    half_b = _pair(qs, ps)[0]
    s_a, c_a = sincos_pq(p, q, half_a * xx)
    s_b, c_b = sincos_pq(qs, ps, half_b * (1.0 - xx))
    return s_a - c_b ** (qs - 1.0), c_a - s_b ** (ps - 1.0)


def multiple_angle_residual(p: float, x: float) -> float:
    """Residual of sin_{2,p}(2^(2/p) x) = 2^(2/p) sin_{p*,p}(x) cos_{p*,p}^(p*-1)(x)
    for x in [0, pi_{p*,p}/2]."""
    check_pq(2.0, p)
    ps = conjugate(p)
    x = _as_unit(x, 0.5 * pi_pq(ps, p), "multiple_angle_residual")
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
    folded = min(xx, full - xx) if isinstance(xx, float) else np.minimum(xx, full - xx)
    return sin_pq(2.0, p, folded)
