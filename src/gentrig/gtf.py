"""Generalized trigonometric functions with two parameters.

sin_pq is the inverse of x -> int_0^x (1 - t^q)^(-1/p) dt on [0, 1]; pi_pq
is twice that integral at x = 1, and cos_pq the derivative of sin_pq.  For
p = q = 2 everything reduces to the circular functions.  The numerical
realization goes through the regularized incomplete beta function and its
inverse (DLMF 8.17.4): with a = 1/q, b = 1/p*, y = x/(pi_pq/2) and yc = 1 -
y, t = sin_pq^q solves I_t(a, b) = y and s = cos_pq^p = 1 - t solves I_s(b,
a) = yc.  specfun owns every such evaluation: which tail a point is solved
in (one inversion a point, two for sincos_pq in the band between y_half =
I_{1/2}(a, b) and 1/2), and which lane solves it; only sin_pq and cos_pq,
at a point, choose their one tail themselves, as specfun._point_tails
does, and call Boost's scalar inverse.  This module keeps the validation,
the pair's record (_pair: pi_pq/2, the shapes and the split points, built
once per pair) and the formulas around the inverse.

Every evaluator takes a point or an array of points, and the input alone
picks the lane.  A point (a float, an int, a numpy scalar or a 0-d array)
takes the float lane: straight-line float code on the pair's record, Boost's
scalar kernels, Python float powers, no array, and a Python float back.
Each entry point of that lane first makes one comparison: a Python float
within its range (for sin_pq from DBL_MIN^(1/q) up, below which the
small-x rule holds) goes straight to its kernel, and every other point,
an int or a bool, a numpy scalar, a point of the slack, NaN, an infinity or
an int beyond the doubles, goes through _as_unit, the one scalar validator,
which returns the clipped Python float or raises DomainError (sin_pq and
cos_pq first hand a numpy scalar but np.float64, or a 0-d array, to
_off_point, which re-enters with its float).
sin_pq and cos_pq each take a point on a path of their own, a numpy scalar
or a 0-d array as its float, which solves only the tail its value needs
(specfun._betaincinv; about 1.25 us a call at a pair met before, 8-9%
below the parent's in interleaved loops, BENCH_48.json, in_process);
sincos_pq and the other callers that want both tails take
specfun._point_tails, and asin_pq specfun._betainc.  An array takes the
same steps on arrays, a block of specfun.INV_FIT_BLOCK points at a time
(_sincos_block, _asin_array): the test and clip, y and yc, specfun's
per-block inversion (specfun._tails_block) or sum (specfun._inc_beta_block)
and numpy's powers, with the small-x and DBL_MIN rules, each block written into the preallocated
outputs and every intermediate result in the call's block-sized buffers
(specfun._Scratch).  specfun takes scipy's ufuncs on small arrays and
fitted, Newton-polished kernels on large ones (the per-point costs and
allocation peaks are in BENCH_36.json).  All lanes share every other formula
and one accuracy contract: at every point each is within 2e-15 of 50-digit
mpmath, relative and divided by the condition number of its inversion, or no
further than scipy's raw inverse (tests/test_gtf.py, TestFittedInverse).
Lanes may differ in the last ulps (numpy's power and the C library's pow
differ on a few percent of points); bits match between sincos_pq and sin_pq,
cos_pq, between the scalar kernels and the ufuncs, and wherever a point sits
in an array of a given lane.

sin_pq, cos_pq, sincos_pq and sin_symmetry_appendix also take numpy arrays
p and q (of at least one dimension) that broadcast against x, and
extend_sin_symmetric an array p: the lane for several pairs, one call for a
whole grid of pairs (the verify suites).  It builds each distinct pair's
record once through _pair, which validates it, so an invalid pair anywhere
raises DomainError; every other per-pair value is computed as the Python
float of a single-pair call and broadcast afterwards (_per_pair).  Its
inversions take Boost's ufunc with each point's own shapes at any size,
one call for all pairs plus one for the band.  A power whose exponent
varies with the pair is numpy's pow at every point, except at the exponents
-1, 1/2 and 2, which numpy takes by a special case (reciprocal,
sqrt, square) when given as a float: those points are raised to a float
exponent (_power; _FAST_POWERS holds the three).  So each point equals its own pair's call in
scipy's ufunc lane (an array of fewer than specfun.INV_FIT_MIN points) bit
for bit.  asin_pq and pi_pq take one pair.  A 0-d p or q is a point, as a
0-d x is: _pair's cache hashes no array, and each entry point retries with
its float in the TypeError arm of its lookup, so the float lane does no
work for it and returns its float call's bits.

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
top of the interval at p near 1, and from about its middle at p = 1.001),
cos_pq is its leading term (b B(b, a) yc)^(1/(p-1)), with yc = 1 -
x/(pi_pq/2), a = 1/q and b = 1/p*: its relative correction is O(tc),
whereas the inverse clamps tc near DBL_MIN there and tc^(1/p) would be far
too large.  Every lane takes this rule, sincos_pq's included.  The power
cos_pq^(p-1), the bvp profile's factor and the appendix residuals', is
_sincos's third output, taken from the inverse as tc^b (c^(p-1) =
tc^((p-1)/p), and b = 1/p*) before tc^(1/p) forms the cosine, so it
magnifies no rounding of c; where tc < DBL_MIN, the one test of the rule,
it is the leading term's base b B(b, a) yc, which does not underflow.
The record is built from the shapes (_shapes): _pair gives it (1/q,
1/p*) with the exponents 1/p and 1/(p - 1) of a pair, bvp its problem's
own shapes, so no conjugate is rounded between the problem and the
inversion.  The record's evaluator, _sincos, takes a point x, whose y and
yc it forms, or a fraction y of the half period with its complement yc as
the caller knows them: bvp's x/H and (H - x)/H and the appendix's x01 and
1 - x01.  So no product (pi_pq/2) y is rounded and divided back, whose
rounding yc = 1 - y magnifies by y/yc near the top of the interval.  The
x-level entry points keep their arithmetic and their bits.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, as_floats, check_pq, within

_REL_SLACK = 1e-12  # tolerated floating overshoot of a domain endpoint
_DBL_MIN = sys.float_info.min
_ASIN_SERIES_MAX = 2.0**-27  # asin_pq(x) is its two-term series below this x^q
# exponents that numpy's power takes by a special case (reciprocal, sqrt,
# square) when given as a scalar or a one-element array, and by pow when
# given in an array of several points: the two differ in the last ulp on a
# few percent of points
_FAST_POWERS = (-1.0, 0.5, 2.0)


def conjugate(p: float) -> float:
    """Hoelder conjugate p* = p / (p - 1) on [1, inf]; 1* = inf, inf* = 1."""
    if 1.0 < p < math.inf:  # written so that NaN fails the test
        return p / (p - 1)  # exact at an int, 1.0 at one beyond the doubles
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    raise DomainError(f"conjugate requires p in [1, inf], got {p}")


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
    accepted here (and only here).  Two Python floats in (1, inf) take one
    test to the formula; any other p and q take the conventions and
    check_pq's floats, so that an int beyond the doubles raises DomainError
    and a numpy float32 is computed in double precision.
    """
    if not (p.__class__ is float and q.__class__ is float
            and 1.0 < p < math.inf and 1.0 < q < math.inf):
        if q == 1.0:
            if not 1.0 < p:
                raise DomainError("pi_pq with q = 1 requires p > 1")
            return 2.0 * conjugate(p)
        if p == math.inf:
            check_pq(2.0, q)  # the convention needs q in (1, inf)
            return 2.0
        p, q = check_pq(p, q)
    return (2.0 / q) * specfun.beta(1.0 / conjugate(p), 1.0 / q)


def _as_unit(x, top: float, what: str, out=None):
    """Validate x in [0, top], with a tiny relative slack, and clip it to
    [0, top].  A float or an int, a numpy scalar or a 0-d array (the float
    lane) comes back as a Python float, anything else as a float array,
    written into out where given (a block of the array lanes); the
    comparisons and the clip are the same in both, so the lanes accept the
    same points and give the same values, -0.0 included.  NaN and
    infinities raise DomainError."""
    slack = _REL_SLACK * top
    if isinstance(top, np.ndarray):  # a top a point, from several pairs
        x = as_floats(x, "x")
        if not ((x >= -slack) & (x <= top + slack)).all():  # NaN fails too
            raise DomainError(f"{what} requires argument in [0, pi_pq/2] of its pair")
        return x.clip(0.0, top, out=out)
    if not isinstance(x, (float, int)):
        x = as_floats(x, "x")
        if x.ndim:
            if not within(x, -slack, top + slack):
                raise DomainError(f"{what} requires argument in [0, {top}]")
            return x.clip(0.0, top, out=out)  # np.clip's method, without its dispatch
        x = float(x)
    # written so that NaN fails the test, and before float() would overflow
    # at an int beyond the doubles
    if not -slack <= x <= top + slack:
        raise DomainError(f"{what} requires argument in [0, {top}]")
    return min(max(float(x), 0.0), top)


@functools.lru_cache(maxsize=128)
def _pair(p: float, q: float):
    """The record of a pair (p, q), built by _shapes after check_pq on a
    miss only, so no invalid pair is kept: the shapes a = 1/q and b = 1/p*
    with the exponents 1/p and 1/(p - 1).  Kept for 128 pairs; 2, 2.0 and
    np.float64(2.0) are one key."""
    p, q = check_pq(p, q)
    return _shapes(1.0 / q, 1.0 / conjugate(p), 1.0 / p, 1.0 / (p - 1.0))


def _shapes(a: float, b: float, inv_p: float, inv_pm1: float):
    """The record of the incomplete-beta form at the shapes (a, b), Python
    floats: (pi_pq/2, a, b, lo, hi, 1/p, 1/(p - 1), DBL_MIN^a, B), with
    1/p and 1/(p - 1) given as inv_p and inv_pm1 (the cosine's power of the
    inverse tc = cos^p, and its leading term's), lo and hi the smaller and
    the larger of 1/2 and y_half = I_{1/2}(a, b), where specfun splits the
    inversion (1/2 exactly at a = b), and B = B(b, a), the factor of pi_pq
    = 2 a B, asin_pq and the cosine's leading term (specfun.beta is
    symmetric bit for bit).  a B is pi_pq(p, q)/2 bit for bit wherever a =
    1/q is a normal double (q below 2^1022).  _pair gives a pair's; bvp
    gives its problem's own shapes (1/q, 1/p), with no conjugate rounded in
    between."""
    B, y_half = specfun.beta(b, a), specfun._half_mass(a, b)
    return a * B, a, b, min(y_half, 0.5), max(y_half, 0.5), inv_p, inv_pm1, _DBL_MIN**a, B


def _several(p, q) -> bool:
    """Whether p or q is an array of at least one dimension, the lane for
    several pairs, tested without building an array."""
    return bool(isinstance(p, np.ndarray) and p.ndim or isinstance(q, np.ndarray) and q.ndim)


def _per_pair(fn, p, q, *args):
    """fn(p, q, *args), a tuple of Python floats at one pair that validates
    the pair (as _pair does), at every pair of the broadcast of the arrays p
    and q: one float array a field, shaped like that broadcast.  fn runs
    once per distinct pair, so that each value is its single-pair float, bit
    for bit, and an invalid pair anywhere raises its DomainError.  An empty
    broadcast gives empty fields; fn then runs once at the stand-in pair (2,
    2), which counts the fields and checks args."""
    pp, qq = np.broadcast_arrays(as_floats(p, "p"), as_floats(q, "q"))
    index = {}
    at = [index.setdefault(k, len(index)) for k in zip(pp.ravel().tolist(), qq.ravel().tolist())]
    table = np.array([fn(*k, *args) for k in index or [(2.0, 2.0)]], dtype=float)
    return table[at].T.reshape(table.shape[1:] + pp.shape)


def _records(p, q):
    """_pair(p, q), or at arrays p and q (the lane for several pairs) its
    fields as arrays over their broadcast (_per_pair)."""
    return _per_pair(_pair, p, q) if _several(p, q) else _pair(p, q)


def _power(base, e, out=None):
    """base ** e at an array base, e a float or an array of exponents that
    broadcasts against it, into out where given (which may be base itself),
    equal at every point bit for bit to base ** e with that point's exponent
    given as a float: numpy takes a float exponent of _FAST_POWERS (-1, 1/2,
    2) by a special case (reciprocal, sqrt, square), which differs from pow
    in the last ulp on a few percent of points, and every other exponent, a
    float or an array, by pow.  base has the shape of the result."""
    if not isinstance(e, np.ndarray):
        return base ** e if out is None else np.power(base, e, out)
    fast = []
    for f in _FAST_POWERS:
        at = e == f
        if at.any():
            fast.append((at, base ** f))  # before out overwrites base
    v = np.power(base, e, out)
    for at, value in fast:
        np.copyto(v, value, where=at)
    return v


def _small_x(x, v, under, ws, z=None, d=None):
    """An array v of sin_pq or asin_pq at x, changed in place to its series
    where x > 0 and the mask `under` (overwritten) says that x^q is too
    small for the incomplete-beta form: x itself, or x + x z / d where d is
    given (z = x^q); ws is the call's specfun._Scratch."""
    if under.any():  # else skip the second mask: most blocks have no such point
        positive = np.greater(x, 0.0, ws.m["gtf.positive"][:x.size].reshape(x.shape))
        small = np.logical_and(under, positive, under)
        if small.any():  # x = 0 alone is under too
            at = small.nonzero()
            xs = x[at]
            v[at] = xs if d is None else xs + xs * z[at] / d
    return v


def asin_pq(p: float, q: float, x):
    """Inverse generalized sine on [0, 1], via the incomplete beta form.

    A Python float in [0, 1] goes straight to the series rule and Boost's
    scalar incomplete beta; any other point (an int, a numpy scalar, a 0-d
    array, a point of the slack, NaN, an infinity) through _as_unit first,
    and an array to _asin_array.
    """
    try:
        _, a, b, _, _, _, _, _, B = _pair(p, q)
    except TypeError:  # a 0-d p or q: no cache hashes an array
        return asin_pq(float(p), float(q), x)
    if not (x.__class__ is float and 0.0 <= x <= 1.0):
        if not isinstance(x, (float, int)) and np.ndim(x):
            return _asin_array(p, q, a, b, B, as_floats(x, "x"))
        x = _as_unit(x, 1.0, "asin_pq")
    xq = x**q
    if 0.0 < x and xq < _ASIN_SERIES_MAX:
        return float(x + x * xq / (p * (q + 1.0)))
    return a * B * specfun._betainc(a, b, xq)


def _asin_array(p: float, q: float, a: float, b: float, B: float, x):
    """asin_pq's array lane at a float array x, a new array of its shape,
    a block of specfun.INV_FIT_BLOCK points at a time (specfun._blockwise):
    _as_unit's test and clip, z = x^q, specfun._inc_beta_block and the
    series rule, each block written into the output and every intermediate
    result in one specfun._Scratch of block-sized buffers.  A function of
    its own, so that the float lane's locals stay plain ones."""
    out = np.empty(x.shape)
    lane = specfun._series_lane(a, b, x.size)
    scale, d = a * B, p * (q + 1.0)

    def block(x, v, ws):
        n = x.size
        xx = _as_unit(x, 1.0, "asin_pq", out=ws.f["x"][:n])
        xq = np.power(xx, q, ws.f["y"][:n])
        specfun._inc_beta_block(a, b, xq, v, lane, ws)
        np.multiply(v, scale, v)  # (a B) I_z(a, b)
        under = np.less(xq, _ASIN_SERIES_MAX, ws.m["gtf.small"][:n])
        _small_x(xx, v, under, ws, xq, d)

    specfun._blockwise(block, x.size, x.reshape(-1), out.reshape(-1))
    return out


def sin_pq(p: float, q: float, x):
    """Generalized sine on the principal interval [0, pi_pq/2].

    A point goes straight to Boost's scalar inverse: the pair's record, one
    comparison, and t from y up to hi, else 1 - s from yc, one inversion
    (specfun._point_tails' t, bit for bit).  The comparison passes a Python
    float in [DBL_MIN^(1/q), pi_pq/2]; any other float or int takes
    _as_unit's test and clip and then the small-x rule, and any other input
    _off_point.  This path and cos_pq's are the one-tail copies of
    _point_tails' choice of tail, written out because a shared helper's
    frame cost them 5-8% a call (BENCH_47.json, shared_tail_helpers).  Above
    hi there is no rule for yc = 1/2 at a = b, which cannot occur: hi is
    1/2 there, and y > 1/2 makes x/(pi_pq/2) - 1/2 > 2^-54 and pi_pq/2 - x
    exact, so yc < 1/2 (likewise in cos_pq and specfun._point_tails).
    """
    try:
        halfpi, a, b, _, hi, _, _, tiny, _ = _pair(p, q)
    except TypeError:  # no cache hashes an array
        return _off_point(sin_pq, p, q, x, 0)
    if not (x.__class__ is float and tiny <= x <= halfpi):
        if not isinstance(x, (float, int)):
            return _off_point(sin_pq, p, q, x, 0)
        x = _as_unit(x, halfpi, "sin_pq")
        if 0.0 < x < tiny:
            return x
    y = x / halfpi
    if y <= hi:
        return (0.5 if a == b and y == 0.5 else specfun._betaincinv(a, b, y)) ** a
    return (1.0 - specfun._betaincinv(b, a, (halfpi - x) / halfpi)) ** a


def cos_pq(p: float, q: float, x):
    """Generalized cosine (1 - sin_pq^q)^(1/p) on [0, pi_pq/2].

    s = cos_pq^p is solved in the swapped-tail form I_s(b, a) = 1 -
    I_{1-s}(a, b) above y = min(I_{1/2}(a, b), 1/2), so that accuracy is
    retained where sin_pq is close to 1, and below it is 1 - t from the
    sine's t <= 1/2, one inversion a point either way
    (specfun._tails_block).  A point takes a path like sin_pq's, with the
    DBL_MIN rule: a Python float in [0, pi_pq/2] goes straight to the
    kernel, any other float or int through _as_unit, any other input
    through _off_point.
    """
    try:
        halfpi, a, b, lo, _, inv_p, inv_pm1, _, B = _pair(p, q)
    except TypeError:  # no cache hashes an array
        return _off_point(cos_pq, p, q, x, 1)
    if not (x.__class__ is float and 0.0 <= x <= halfpi):
        if not isinstance(x, (float, int)):
            return _off_point(cos_pq, p, q, x, 1)
        x = _as_unit(x, halfpi, "cos_pq")
    y = x / halfpi
    if y <= lo:
        return (1.0 - (0.5 if a == b and y == 0.5 else specfun._betaincinv(a, b, y))) ** inv_p
    yc = (halfpi - x) / halfpi
    s = specfun._betaincinv(b, a, yc)
    if s < _DBL_MIN:  # the leading term, as in _sincos_block
        return float((b * B * yc) ** inv_pm1)
    return s**inv_p


def _off_point(fn, p, q, x, want: int):
    """sin_pq or cos_pq (fn, whose value is _sincos_tail's output want) at
    any input but a float or an int x at a pair of floats: arrays p, q or x
    take the array lane, and a 0-d p, q or x (a numpy scalar too) re-enters
    fn with its float, so that every point takes fn's own path."""
    if _several(p, q) or np.ndim(x):
        return _sincos_tail(p, q, x, (want == 0, want == 1, False), fn.__name__)[want]
    return fn(float(p), float(q), x if isinstance(x, (float, int)) else float(x))


def sincos_pq(p: float, q: float, x):
    """(sin_pq(p, q, x), cos_pq(p, q, x)) from one validation and one
    inversion a point, two in the band between I_{1/2}(a, b) and 1/2.

    Outside the band a point is inverted once, in the tail whose argument is
    the smaller, and the sine and the cosine both come from that inversion
    (specfun._tails_block), in the lane the input's type and size select
    (see the module docstring).  sin_pq and cos_pq solve each tail from the
    same argument, so the pair equals the two separate calls bit for bit,
    for scalars and for arrays.
    """
    try:
        rec = _pair(p, q)
    except TypeError:  # no cache hashes an array
        return _sincos_tail(p, q, x, (True, True, False))[:2]
    return _sincos(rec, x, (True, True, False))[:2]


def _sincos_tail(p: float, q: float, x, tails=(True, True, True), what="sincos_pq"):
    """_sincos at the pair (p, q): its record (_pair), or at arrays p and q
    (the lane for several pairs) every point of the broadcast of p, q and x
    its own pair's record, which takes the array code with scipy's ufunc
    for every pair; a 0-d p or q is taken as its float."""
    try:
        rec = _pair(p, q)
    except TypeError:  # no cache hashes an array
        if _several(p, q):
            return _sincos_arrays(_per_pair(_pair, p, q), x, tails, what)
        rec = _pair(float(p), float(q))  # a 0-d p or q
    return _sincos(rec, x, tails, what)


def _sincos(rec, x, tails=(True, True, True), what="sincos_pq", yc=None):
    """(sin, cos, cp) at x on the record rec (_shapes), cp = cos_pq^(p-1):
    tc^b of the swapped-tail inverse tc = cos_pq^p, taken before tc^(1/p)
    (c^(p-1) = tc^((p-1)/p) and b = 1/p*), or where tc < DBL_MIN the base
    b B(b, a) yc of the cosine's leading term, yc = 1 - x/(pi_pq/2), far
    from underflow at p near 1 (1e-308^(1/400) = 0.17).  Where yc is given,
    x is not a point but the fraction y = x/(pi_pq/2) of the half period,
    in [0, 1], and yc its complement 1 - y as the caller knows it (bvp's
    x/H and (H - x)/H, the appendix's x01 and 1 - x01): the inversion takes
    both as given, unchecked, so no product with pi_pq/2 is rounded and
    divided back, and only the small-x rule forms the point (pi_pq/2) y.  A
    point, or a float fraction on a record of floats, takes the float lane,
    which computes sin and cos whatever tails says, and cp where asked for
    or where it is that base: straight-line float code on the record, one
    comparison that passes a Python float in [0, pi_pq/2] (any other point
    takes _as_unit's test and clip), both tails of specfun._point_tails,
    the small-x rule and the DBL_MIN rule.  An array takes the same steps
    on arrays, block by block (_sincos_block), and computes only what tails
    = (want_sin, want_cos, want_cp) asks for, None for the others; asking
    for cp computes cos too.  A record of arrays (the lane for several
    pairs) needs an array x, or a fraction, which then takes the array
    lane."""
    halfpi, a, b, lo, hi, inv_p, inv_pm1, tiny, B = rec
    if yc is None:
        if not (x.__class__ is float and 0.0 <= x <= halfpi):
            if not isinstance(x, (float, int)) and np.ndim(x):
                return _sincos_arrays(rec, x, tails, what)
            x = _as_unit(x, halfpi, what)
        y, yc = x / halfpi, (halfpi - x) / halfpi
    elif x.__class__ is float and halfpi.__class__ is float:
        y, x = x, halfpi * x
    else:
        return _sincos_arrays(rec, x, tails, what, yc)
    t, s = specfun._point_tails(a, b, lo, hi, y, yc)
    sin = x if 0.0 < x < tiny else t**a
    if s < _DBL_MIN:  # the leading term and its base, as in _sincos_block
        return sin, float((b * B * yc) ** inv_pm1), b * B * yc
    return sin, s**inv_p, s**b if tails[2] else None


def _sincos_arrays(rec, x, tails, what, yc=None):
    """_sincos's array lane: new arrays shaped like x, filled by
    _sincos_block a block of specfun.INV_FIT_BLOCK points at a time
    (specfun._blockwise), with one specfun._Scratch of block-sized buffers
    for every intermediate result, in the lane of specfun._inverse_lane,
    chosen once for the whole array.  Where the fields of rec are arrays
    (several pairs) the outputs take the broadcast of x and the pairs, and
    _sincos_block runs once on it, x a broadcast view and each field a
    value a pair: scipy's ufunc broadcasts them, so nothing is copied to a
    value a point.  A fraction's yc is taken on x's shape."""
    x = as_floats(x, "x")
    several = isinstance(rec[0], np.ndarray)  # pi_pq/2 of every pair
    if several:
        x = np.broadcast_to(x, np.broadcast(x, rec[0]).shape)
    yc = None if yc is None else np.broadcast_to(yc, x.shape)
    # cp is taken from tc, which the cosine's block holds: asking for it computes cos too
    out = [np.empty(x.shape) if w else None for w in (tails[0], tails[1] or tails[2], tails[2])]
    if several:
        _sincos_block(x, yc, *rec, *out, what, None, specfun._Scratch(x.size))
    else:
        flat = [None if v is None else v.reshape(-1) for v in (x, yc, *out)]
        specfun._blockwise(_sincos_block, x.size, *flat[:2], *rec, *flat[2:], what,
                           specfun._inverse_lane(rec[1], rec[2], x.size))
    return tuple(out)


def _sincos_block(x, yc, halfpi, a, b, lo, hi, inv_p, inv_pm1, tiny, B, sin, cos, cp, what,
                  lane, ws):
    """The array lane at a block x: _as_unit's test and clip, y and yc, or
    where yc is given (not None) the fraction y = x and its complement yc
    as they are, with the point (pi_pq/2) y for the small-x rule alone;
    specfun._tails_block's inversion and the powers, with the small-x and
    DBL_MIN rules, written into the blocks sin, cos and cp = cos^(p-1)
    (None where not asked for; cp needs cos); every intermediate result in
    ws's buffers, shaped like x.  The record's values are floats, or arrays
    that broadcast against x (the lane for several pairs, one block of any
    shape)."""
    n, shape = x.size, x.shape
    if yc is None:
        xx = _as_unit(x, halfpi, what, out=ws.f["x"][:n].reshape(shape))
        yc = np.subtract(halfpi, xx, ws.f["yc"][:n].reshape(shape))
        np.divide(yc, halfpi, yc)
        y = np.divide(xx, halfpi, ws.f["y"][:n].reshape(shape))
    else:
        y, xx = x, np.multiply(halfpi, x, ws.f["x"][:n].reshape(shape))
    specfun._tails_block(a, b, lo, hi, y, yc, sin, cos, lane, ws)  # t and tc
    if sin is not None:
        _power(sin, a, sin)
        _small_x(xx, sin, np.less(xx, tiny, ws.m["gtf.small"][:n].reshape(shape)), ws)
    if cos is not None:  # tc^(1/p), or the leading term where tc < DBL_MIN
        under = np.less(cos, _DBL_MIN, ws.m["gtf.under"][:n].reshape(shape))
        if cp is not None:  # tc^b = c^(p-1), before tc^(1/p) overwrites tc
            _power(cos, b, cp)
        _power(cos, inv_p, cos)
        if under.any():  # cp is the leading term's base there
            base = specfun._at(b, under) * specfun._at(B, under) * yc[under]
            cos[under] = _power(base, specfun._at(inv_pm1, under))
            if cp is not None:
                cp[under] = base


def sin_symmetry_appendix(p: float, q: float, x01):
    """Signed residuals of the two reflection formulas tying (p, q) to
    the conjugate pair (q*, p*):

        sin_pq((pi_pq/2) x)  vs  cos_{q*,p*}^(q*-1)((pi_{q*,p*}/2)(1-x))
        cos_pq((pi_pq/2) x)  vs  sin_{q*,p*}^(p*-1)((pi_{q*,p*}/2)(1-x))

    x01 is one point of [0, 1] (two floats are returned; a float or an int
    takes the float lane) or an array of them (two arrays, in the lane the
    array's size selects); the lanes agree to within gtf's accuracy
    contract, not bit for bit.  Each side is evaluated at its fraction of
    the half period, the pair's at (x01, 1 - x01) and the reflected pair's
    at (1 - x01, x01) (_sincos), so no product with pi_pq/2 is rounded and
    divided back, and a residual is a few ulps up to x01 = 1.  The
    reflected pair is (q*, p*) with both conjugates rounded, as a caller
    forms it.  Unlike sin_pq, x01 gets no slack beyond [0, 1].  Arrays p
    and q that broadcast against x01 take the lane for several pairs: two
    gtf calls for all of them, each point equal bit for bit to its own
    pair's call in scipy's ufunc lane.
    """
    several = _several(p, q)
    if several:
        p, q = as_floats(p, "p"), as_floats(q, "q")
    try:
        rec = _records(p, q)  # after check_pq at every pair
    except TypeError:  # a 0-d p or q: no cache hashes an array
        return sin_symmetry_appendix(float(p), float(q), x01)
    # the reflected pair as a caller forms it, each conjugate rounded
    ps, qs = (p / (p - 1.0), q / (q - 1.0)) if several else (conjugate(p), conjugate(q))
    rec_c = _records(qs, ps)
    if isinstance(x01, (float, int)) or not np.ndim(x01):
        # a point: written so that NaN fails, and before float() would
        # overflow at an int beyond the doubles
        if not 0.0 <= x01 <= 1.0:
            raise DomainError("x01 must lie in [0, 1]")
        xx = float(x01)
    else:
        xx = as_floats(x01, "x01")
        if not within(xx, 0.0, 1.0):  # NaN fails too
            raise DomainError("x01 must lie in [0, 1]")
    xc = 1.0 - xx
    s_a, c_a, _ = _sincos(rec, xx, (True, True, False), yc=xc)
    s_b, _, cp_b = _sincos(rec_c, xc, yc=xx)
    return s_a - cp_b, c_a - _power(s_b, ps - 1.0)


def extend_sin_symmetric(p: float, x):
    """sin_{2,p} on [0, pi_{2,p}], mirrored about the midpoint on the
    second half.  This is the only family the extension is defined for.
    An array p that broadcasts against x takes the lane for several pairs:
    one sin_pq call, each point equal bit for bit to its own p's call in
    scipy's ufunc lane."""
    try:
        full = 2.0 * _records(2.0, p)[0]  # pi_{2,p}, after check_pq(2, p)
    except TypeError:  # a 0-d p: no cache hashes an array
        return extend_sin_symmetric(float(p), x)
    xx = _as_unit(x, full, "extend_sin_symmetric")
    folded = min(xx, full - xx) if isinstance(xx, float) else np.minimum(xx, full - xx)
    return sin_pq(2.0, p, folded)
