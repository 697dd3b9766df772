"""Generalized trigonometric functions with two parameters.

sin_pq is the inverse of x -> int_0^x (1 - t^q)^(-1/p) dt on [0, 1]; pi_pq
is twice that integral at x = 1, and cos_pq the derivative of sin_pq.  For
p = q = 2 everything reduces to the circular functions.  The numerical
realization goes through the regularized incomplete beta function and its
inverse (DLMF 8.17.4): with a = 1/q, b = 1/p*, y = x/(pi_pq/2) and yc = 1 -
y, t = sin_pq^q solves I_t(a, b) = y and s = cos_pq^p = 1 - t solves I_s(b,
a) = yc.  specfun owns every such evaluation: which tail a point is solved
in (one inversion a point, two for sincos_pq in the band between y_half =
I_{1/2}(a, b) and 1/2), and which lane solves it.  This module keeps the
validation, the pair's record (_pair: pi_pq/2, the shapes and the split
points, built once per pair) and the formulas around the inverse.

Every evaluator takes a point or an array of points, and the input alone
picks the lane.  A point (a float, an int, a numpy scalar or a 0-d array)
takes the float lane: straight-line float code on the pair's record, Boost's
scalar kernels (specfun._point_tails, specfun._betainc), Python float
powers, no array, and a Python float back (about 1 us a sin_pq call at a
pair met before; BENCH_18.json).  An array takes specfun's array entries,
specfun._inverse_tails and specfun._inc_beta, and numpy's powers; they take
scipy's ufuncs on small arrays and fitted, Newton-polished kernels on large
ones (the per-call and per-point costs are in BENCH_16.json and
BENCH_17.json).  All lanes share every other formula and one accuracy
contract: at every point each is within 2e-15 of 50-digit mpmath, relative
and divided by the condition number of its inversion, or no further than
scipy's raw inverse (tests/test_gtf.py, TestFittedInverse).  Lanes may
differ in the last ulps (numpy's power and the C library's pow differ on a
few percent of points); bits match between sincos_pq and sin_pq, cos_pq,
between the scalar kernels and the ufuncs, and wherever a point sits in an
array of a given lane.

sin_pq, cos_pq, sincos_pq and sin_symmetry_appendix also take numpy arrays
p and q (of at least one dimension) that broadcast against x: the lane for
several pairs, one call for a whole grid of pairs (the verify suites).  It
builds each distinct pair's record once through _pair, which validates it,
so an invalid pair anywhere raises DomainError; every other per-pair value
is computed as the Python float of a single-pair call and broadcast
afterwards (_per_pair).  Its inversions take Boost's ufunc with each point's
own shapes at any size, one call for all pairs plus one for the band.  A
power whose exponent varies with the pair is numpy's pow at every point,
except at the exponents -1, 1/2 and 2, which numpy takes by a special case
(reciprocal, sqrt, square) when given as a float: those points are raised
to a float exponent (_power; quadrature._FAST_POWERS holds the three).  So
each point equals its own pair's call in scipy's ufunc lane (an array of
fewer than specfun.INV_FIT_MIN points) bit for bit.  asin_pq and pi_pq take
one pair.

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
value is x; above 2^-27 asin_pq is specfun's incomplete beta.  Likewise,
where the swapped-tail inverse tc = cos_pq^p falls below DBL_MIN (near the
top of the interval at p near 1), cos_pq is its leading term (b B(b, a)
yc)^(1/(p-1)), with yc = 1 - x/(pi_pq/2), a = 1/q and b = 1/p*: its
relative correction is O(tc), whereas the inverse clamps tc near DBL_MIN
there and tc^(1/p) would be far too large.  Every lane takes this rule,
sincos_pq's included, and every power cos_pq^(p-1) is that term's base b
B(b, a) yc there, which does not underflow (_cos_power: the bvp profile and
phase curve, and the appendix, multiple-angle and derivative-identity
residuals).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, check_pq, within
from .quadrature import _FAST_POWERS

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
    [0, top].  A float or an int, a numpy scalar or a 0-d array (the float
    lane) comes back as a Python float, anything else as a float array; the
    comparisons and the clip are the same in both, so the lanes accept the
    same points and give the same values, -0.0 included.  NaN and
    infinities raise DomainError."""
    slack = _REL_SLACK * top
    if isinstance(top, np.ndarray):  # a top a point, from several pairs
        x = np.asarray(x, dtype=float)
        if not ((x >= -slack) & (x <= top + slack)).all():  # NaN fails too
            raise DomainError(f"{what} requires argument in [0, pi_pq/2] of its pair")
        return x.clip(0.0, top)
    if not isinstance(x, (float, int)):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            if not within(x, -slack, top + slack):
                raise DomainError(f"{what} requires argument in [0, {top}]")
            return x.clip(0.0, top)  # np.clip's method, without its dispatch
    x = float(x)
    # written so that NaN fails the test
    if not -slack <= x <= top + slack:
        raise DomainError(f"{what} requires argument in [0, {top}]")
    return min(max(x, 0.0), top)


@functools.lru_cache(maxsize=128)
def _pair(p: float, q: float):
    """The record of a pair (p, q), Python floats built after check_pq on a
    miss only, so no invalid pair is kept: (pi_pq/2, a, b, lo, hi, 1/p,
    DBL_MIN^a, B), the shapes a = 1/q, b = 1/p* of the incomplete-beta form,
    lo and hi the smaller and the larger of 1/2 and y_half = I_{1/2}(a, b),
    where specfun splits the inversion (1/2 exactly at a = b), and B = B(b,
    a), the factor of pi_pq, asin_pq and the cosine's leading term
    (specfun.beta is symmetric bit for bit).  Kept for 128 pairs; 2, 2.0 and np.float64(2.0)
    are one key."""
    check_pq(p, q)
    p, q = float(p), float(q)
    a, b = 1.0 / q, 1.0 / conjugate(p)
    B, y_half = specfun.beta(b, a), specfun._half_mass(a, b)
    lo, hi = min(y_half, 0.5), max(y_half, 0.5)
    return 0.5 * (2.0 / q * B), a, b, lo, hi, 1.0 / p, _DBL_MIN**a, B


def _several(p, q) -> bool:
    """Whether p or q is an array of at least one dimension, the lane for
    several pairs, tested without building an array."""
    return bool(isinstance(p, np.ndarray) and p.ndim or isinstance(q, np.ndarray) and q.ndim)


def _per_pair(fn, p, q):
    """fn(p, q), a tuple of Python floats at one pair that validates the
    pair (as _pair does), at every pair of the broadcast of the arrays p and
    q: one float array a field, shaped like that broadcast.  fn runs once
    per distinct pair, so that each value is its single-pair float, bit for
    bit, and an invalid pair anywhere raises its DomainError."""
    pp, qq = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    index = {}
    at = [index.setdefault(k, len(index)) for k in zip(pp.ravel().tolist(), qq.ravel().tolist())]
    table = np.array([fn(*k) for k in index], dtype=float)
    return table[at].T.reshape((-1,) + pp.shape)


def _power(base, e):
    """base ** e at an array base, e a float or an array of exponents that
    broadcasts against it, equal at every point bit for bit to base ** e
    with that point's exponent given as a float: numpy takes a float
    exponent of _FAST_POWERS (-1, 1/2, 2) by a special case (reciprocal,
    sqrt, square), which differs from pow in the last ulp on a few percent
    of points, and every other exponent, a float or an array, by pow.  base
    has the shape of the result."""
    if not isinstance(e, np.ndarray):
        return base ** e
    out = base ** e
    for f in _FAST_POWERS:
        at = e == f
        if at.any():
            np.copyto(out, base ** f, where=at)
    return out


def _small_x(x, v, under, z=None, d=None):
    """An array v of sin_pq or asin_pq at x, changed in place to its series
    where x > 0 and `under` says that x^q is too small for the
    incomplete-beta form: x itself, or x + x z / d where d is given (z =
    x^q)."""
    small = under & (x > 0.0)
    if small.any():
        xs = x[small]
        v[small] = xs if d is None else xs + xs * z[small] / d
    return v


def _cos_from_tail(p, b, B, tc, yc):
    """cos_pq = tc^(1/p) from the swapped-tail inverse tc at yc, an array,
    or its leading term (b B yc)^(1/(p-1)) where tc < DBL_MIN, with b = 1/p*
    and B = B(b, 1/q); p, b and B are floats or arrays that broadcast
    against tc."""
    c = _power(tc, 1.0 / p)
    under = tc < _DBL_MIN
    if under.any():
        at = specfun._at
        c[under] = _power(at(b, under) * at(B, under) * yc[under], 1.0 / (at(p, under) - 1.0))
    return c


def _cos_power(p: float, q: float, c, yc):
    """cos_pq^(p-1) from the cosine c of _sincos_tail, a point or an array,
    and the argument yc of its inversion: c^(p-1), except where c < DBL_MIN.
    There tc = cos_pq^p is below DBL_MIN too (c = tc^(1/p) >= tc), so c is
    the leading term (b B(b, a) yc)^(1/(p-1)), perhaps underflowed, and the
    power is its base b B(b, a) yc, far from underflow at p near 1
    (1e-308^(1/400) = 0.17).  The package's one rule for this power: the bvp
    profile and phase curve, the appendix reflections, the multiple-angle
    formula and the derivative identity all take it from here.  Arrays p
    and q that broadcast against c give each point its own pair's power."""
    if isinstance(c, float):  # a point: plain float code
        _, _, b, _, _, _, _, B = _pair(p, q)
        return c ** (p - 1.0) if c >= _DBL_MIN else b * B * yc
    _, _, b, _, _, _, _, B = _per_pair(_pair, p, q) if _several(p, q) else _pair(p, q)
    cp = _power(c, p - 1.0)
    under = c < _DBL_MIN
    if under.any():
        cp[under] = specfun._at(b, under) * specfun._at(B, under) * yc[under]
    return cp


def asin_pq(p: float, q: float, x):
    """Inverse generalized sine on [0, 1], via the incomplete beta form."""
    _, a, b, _, _, _, _, B = _pair(p, q)
    if isinstance(x, (float, int)):  # the float lane: _as_unit's test inline
        x = float(x)
        if not -_REL_SLACK <= x <= 1.0 + _REL_SLACK:
            raise DomainError("asin_pq requires argument in [0, 1.0]")
        x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x  # -0.0 kept
        xq = x**q
        if 0.0 < x and xq < _ASIN_SERIES_MAX:
            return float(x + x * xq / (p * (q + 1.0)))
        return a * B * specfun._betainc(a, b, xq)
    xx = _as_unit(x, 1.0, "asin_pq")
    if isinstance(xx, float):  # a numpy scalar or a 0-d array
        return asin_pq(p, q, xx)
    xq = xx**q
    val = a * B * specfun._inc_beta(a, b, xq)
    return _small_x(xx, val, xq < _ASIN_SERIES_MAX, xq, p * (q + 1.0))


def sin_pq(p: float, q: float, x):
    """Generalized sine on the principal interval [0, pi_pq/2]."""
    return _sincos_tail(p, q, x, (True, False), "sin_pq")[0]


def cos_pq(p: float, q: float, x):
    """Generalized cosine (1 - sin_pq^q)^(1/p) on [0, pi_pq/2].

    s = cos_pq^p is solved in the swapped-tail form I_s(b, a) = 1 -
    I_{1-s}(a, b) above y = min(I_{1/2}(a, b), 1/2), so that accuracy is
    retained where sin_pq is close to 1, and below it is 1 - t from the
    sine's t <= 1/2, one inversion a point either way
    (specfun._inverse_tails).
    """
    return _sincos_tail(p, q, x, (False, True), "cos_pq")[1]


def sincos_pq(p: float, q: float, x):
    """(sin_pq(p, q, x), cos_pq(p, q, x)) from one validation and one
    inversion a point, two in the band between I_{1/2}(a, b) and 1/2.

    Outside the band a point is inverted once, in the tail whose argument is
    the smaller, and the sine and the cosine both come from that inversion
    (specfun._inverse_tails), in the lane the input's type and size select
    (see the module docstring).  sin_pq and cos_pq take the same path, so
    the pair equals the two separate calls bit for bit, for scalars and for
    arrays.
    """
    return _sincos_tail(p, q, x)[:2]


def _sincos_tail(p: float, q: float, x, tails=(True, True), what="sincos_pq"):
    """(sin, cos, yc) at x, yc = 1 - x/(pi_pq/2) the argument of the
    swapped-tail inversion, which _cos_power needs, with the sine and the
    cosine only where tails says so (None for the other).  A point takes
    the float lane, straight-line float code on the pair's record (_pair):
    _as_unit's test and clip, at most one scalar inversion a tail, the
    small-x rule and the DBL_MIN rule; an array one specfun._inverse_tails
    call.  Arrays p and q (the lane for several pairs) give every point
    of the broadcast of p, q and x its own pair's record, and take the
    array code: one specfun._inverse_tails call for every pair."""
    try:
        halfpi, a, b, lo, hi, inv_p, tiny, B = _pair(p, q)
    except TypeError:  # no cache hashes an array
        if not _several(p, q):
            raise
        halfpi, a, b, lo, hi, inv_p, tiny, B = _per_pair(_pair, p, q)
        p, x = np.asarray(p, dtype=float), np.asarray(x, dtype=float)
    want_sin, want_cos = tails
    if not isinstance(x, (float, int)):
        xx = _as_unit(x, halfpi, what)
        if isinstance(xx, float):  # a numpy scalar or a 0-d array
            return _sincos_tail(p, q, xx, tails, what)
        yc = (halfpi - xx) / halfpi
        t, s = specfun._inverse_tails(a, b, lo, hi, xx / halfpi, yc, tails)
        sin = _small_x(xx, _power(t, a), xx < tiny) if want_sin else None
        cos = _cos_from_tail(p, b, B, s, yc) if want_cos else None
        return sin, cos, yc
    x = float(x)
    slack = _REL_SLACK * halfpi
    if not -slack <= x <= halfpi + slack:  # written so that NaN fails the test
        raise DomainError(f"{what} requires argument in [0, {halfpi}]")
    x = 0.0 if x < 0.0 else halfpi if x > halfpi else x  # -0.0 kept
    yc = (halfpi - x) / halfpi
    t, s = specfun._point_tails(a, b, lo, hi, x / halfpi, yc, tails)
    sin = cos = None
    if want_sin:
        sin = x if 0.0 < x < tiny else t**a
    if want_cos:
        if s < _DBL_MIN:  # the leading term, as in _cos_from_tail
            cos = float((b * B * yc) ** (1.0 / (p - 1.0)))
        else:
            cos = s**inv_p
    return sin, cos, yc


def dcos_power_identity_residual(p: float, q: float, x: float) -> float:
    """Residual of (cos_pq^(p-1))' = -((p-1) q / p) sin_pq^(q-1).

    The left side is a central finite difference (step 1e-5, shrunk when x
    sits close to an endpoint); the identity carries the minus sign that
    makes sin_pq solve the p-Laplacian oscillator.
    """
    halfpi = _pair(p, q)[0]  # after check_pq(p, q)
    if not 0.0 < x < halfpi:
        raise DomainError("x must be interior to (0, pi_pq/2)")
    h = min(1e-5, 0.5 * x, 0.5 * (halfpi - x))
    ends = [_cos_power(p, q, *_sincos_tail(p, q, x + d, (False, True), "cos_pq")[1:])
            for d in (h, -h)]
    lhs = (ends[0] - ends[1]) / (2.0 * h)
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
    sin_pq, x01 gets no slack beyond [0, 1].  Arrays p and q that broadcast
    against x01 take the lane for several pairs: two gtf calls for all of
    them, each point equal bit for bit to its own pair's call in scipy's
    ufunc lane.
    """
    several = _several(p, q)
    if several:
        halfpi, ps, qs, halfpi_c = _per_pair(_reflected, p, q)
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    else:
        halfpi, ps, qs, halfpi_c = _reflected(p, q)
    if isinstance(x01, (float, int)) and not several:
        xx = float(x01)
        ok = 0.0 <= xx <= 1.0
    else:
        xx = np.asarray(x01, dtype=float)
        ok = within(xx, 0.0, 1.0)
    if not ok:  # written so that NaN fails
        raise DomainError("x01 must lie in [0, 1]")
    s_a, c_a = sincos_pq(p, q, halfpi * xx)
    s_b, c_b, yc_b = _sincos_tail(qs, ps, halfpi_c * (1.0 - xx))
    return s_a - _cos_power(qs, ps, c_b, yc_b), c_a - _power(s_b, ps - 1.0)


def _reflected(p: float, q: float):
    """(pi_pq/2, p*, q*, pi_{q*,p*}/2) of sin_symmetry_appendix, after
    check_pq(p, q)."""
    halfpi = _pair(p, q)[0]
    ps, qs = conjugate(p), conjugate(q)
    return halfpi, ps, qs, _pair(qs, ps)[0]


def multiple_angle_residual(p: float, x: float) -> float:
    """Residual of sin_{2,p}(2^(2/p) x) = 2^(2/p) sin_{p*,p}(x) cos_{p*,p}^(p*-1)(x)
    for x in [0, pi_{p*,p}/2]."""
    full = 2.0 * _pair(2.0, p)[0]  # pi_{2,p}, after check_pq(2, p)
    ps = conjugate(p)
    x = _as_unit(x, _pair(ps, p)[0], "multiple_angle_residual")
    scale = 2.0 ** (2.0 / p)
    # the doubled argument sweeps the full arch [0, pi_{2,p}] as x sweeps
    # the half period, since pi_{2,p} = 2^(2/p - 1) pi_{p*,p}
    lhs = extend_sin_symmetric(p, min(scale * x, full))
    s, c, yc = _sincos_tail(ps, p, x)
    rhs = scale * s * _cos_power(ps, p, c, yc)
    return abs(lhs - rhs)


def extend_sin_symmetric(p: float, x):
    """sin_{2,p} on [0, pi_{2,p}], mirrored about the midpoint on the
    second half.  This is the only family the extension is defined for."""
    full = 2.0 * _pair(2.0, p)[0]  # pi_{2,p}, after check_pq(2, p)
    xx = _as_unit(x, full, "extend_sin_symmetric")
    folded = min(xx, full - xx) if isinstance(xx, float) else np.minimum(xx, full - xx)
    return sin_pq(2.0, p, folded)
