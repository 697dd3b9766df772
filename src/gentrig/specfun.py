"""Special functions: the three that the closed forms call, beta, the
Pochhammer ratio poch_ratio = (a)_n / (b)_n and the Gauss hypergeometric
function hyp2f1 on the box that the elliptic integrals use, and every
evaluation of the regularized incomplete beta function and its inverse
that gtf and the primitives make.  This is the package's only module that
imports scipy.

Every Wallis-type formula is a Pochhammer ratio times a generalized pi, the
elliptic integrals are 2F1 values and the primitives incomplete beta
integrals (_beta_integral, Boost's scalar kernels).  gtf calls three
entries at its shapes a = 1/q, b = 1/p* (both at most 1): _point_tails
inverts a point for the callers that want both tails, and on an array's
blocks _tails_block inverts and _inc_beta_block sums I_t(a, b), each into
the caller's outputs with every intermediate result in the call's
block-sized buffers (_Scratch; one block loop, _blockwise).  At a point,
gtf.sin_pq and gtf.cos_pq call the scalar inverse _betaincinv themselves,
for the one tail each needs, chosen as _point_tails chooses it, and
gtf.asin_pq the scalar sum _betainc.  An array of fewer than INV_FIT_MIN points takes scipy's
ufuncs, a larger one the fitted lane, chosen once a call (_inverse_lane,
_series_lane): the sum's polynomial of about 20 terms economized from its
series, and inverses from Chebyshev fits, one Newton step on that sum
(_fitted_block).  Both are built once per shape, in bounded caches
(_inverse_setup, _forward).  Scalar Gamma and Boost calls take scipy's
Cython kernels (the ufuncs' own code, bit for bit, at a fraction of a ufunc
call's cost).  The hypergeometric function is evaluated here because call
sites need a certified tail bound on every series, Gauss summation at
argument 1, and a cost that does not grow as the argument approaches 1.
Differences ln Gamma(z + e) - ln Gamma(z) come from the Stirling series
without per-term transcendentals, and a large-n Pochhammer ratio is one exp
of such a difference times Gamma(b) / Gamma(a), so neither costs more for a
larger n or a smaller e.

Costs of hyp2f1 by branch, medians in the slow state of a shared 2-vCPU
x86-64 VM (BENCH_21.json), all inside its box: the power series at (1/3,
1/2, 0.93) 18 us at x = 0.3 and 30 us at x = 1/2; Gauss's connection
formula at (1/3, 1/2, 1.2), its two series in y and seven Gamma calls, 40
us at x = 0.7 and 15 us at x = 0.99; the logarithmic (near-integer) form at
(1/2, 1/2, 1), K's, 58 us at x = 0.7 and 33 us at x = 0.99.  Every power
series of F, in x or in y, is summed by one loop, _series, which tests its
tail after every term; most terms settle that test with one inline product
(_tail_certified).  No loop keeps a term budget: in the box each stops on
its certified tail within a term count proved in its docstring (at most 57,
in _series and in the logarithmic sum of _connection_near_integer), so no
loop of hyp2f1 raises.  A primitive's _beta_integral is one beta and one or
two Boost calls, a few us at any exponent.
"""

from __future__ import annotations

import collections
import functools
import math
import sys

import numpy as np
import scipy.special as sc
from scipy.special import cython_special as _cs

from .errors import DomainError, check_order

# a series stops once its certified tail is below this fraction of the sum
# of the magnitudes of its terms, the scale of its own rounding error
HYP2F1_TAIL_TOL = 2.0**-53
# within this distance of an integer m, c - a - b takes the regularized
# connection formula; beyond it the plain one loses at most a factor
# ~1/HYP2F1_REG_EPS to the cancellation of its two Gamma poles
HYP2F1_REG_EPS = 0.1
# below this n poch_ratio is a running product (relative error <= ~n eps)
POCH_SWITCH = 64
# arrays of at least INV_FIT_MIN points take the fitted lanes of
# _inc_beta_block and _tails_block, fewer scipy's ufuncs.  Inversions start
# from Chebyshev fits of degree INV_FIT_DEGREE, certified when their
# trailing coefficients are within INV_FIT_TOL; every array lane runs
# INV_FIT_BLOCK points at a time.  A shape's setup (_inverse_setup,
# _forward) costs 0.35-0.6 ms once (medians over 40 random pairs in a
# shared VM's fast and slow states; BENCH_36.json) and is cached.
# INV_FIT_MIN is where a call that builds its setup broke even with the
# ufuncs (400-700 points by shape, BENCH_7.json).  A cached shape breaks
# even lower, but not far below: at (2.5, 3), best of 7 x 200 calls on a
# shared 2-vCPU Xeon VM, ufunc against fitted lane, sincos_pq took 34 vs
# 124 us at 5 points, 120 vs 165 us at 101 and 554 vs 188 us at 599;
# asin_pq 15 vs 86 us at 5, 27 vs 63 us at 101 and 88 vs 73 us at 599; and
# sincos_pq at a fresh pair a call, 101 points, 185 vs 535 us
INV_FIT_MIN = 600
INV_FIT_DEGREE = 24
INV_FIT_TOL = 1e-12
INV_FIT_BLOCK = 1 << 15
# a certified fit keeps its leading coefficients up to a dropped tail of at
# most this fraction of its smallest node value: with the fit's own error
# its start is within 2^-30, relative, which one Newton step squares
INV_FIT_TRUNC = 2.0**-31
# the sum's coefficients come from this many terms of F(a, 1 - b;
# a + 1; u), u <= 1/2: for shapes a, b <= 1 the n-th term is positive and
# below u^n, so the terms left out add less than 2^-56 / (1 - 1/2) = 2^-55
# of the sum (whose first is 1).  They are summed as their economized
# polynomial, within _POLY_TOL k(0), which keeps at most _POLY_TERMS terms
# on every such shape (_economize; 19-22 on every shape tried)
_INC_TERMS = 56
_POLY_TERMS = 23
_POLY_TOL = 2.0**-56

_DBL_MIN = sys.float_info.min
# the double specializations of scipy's fused Cython kernels, Gamma's and
# Boost's incomplete beta and its inverse: the code the dispatcher picks for
# a float, bit for bit, without its ~0.2 us a call (the dispatcher itself
# where a scipy build exposes no signatures)
_gamma, _rgamma, _betainc, _betaincc, _betaincinv = (
    getattr(f, "__signatures__", {}).get("double", f)
    for f in (_cs.gamma, _cs.rgamma, _cs.betainc, _cs.betaincc, _cs.betaincinv))
_CHEB_K = np.arange(INV_FIT_DEGREE + 1)
# Chebyshev points of the second kind mapped to [0, 1], from 1 down to 0, and
# the DCT-I that takes values there to interpolant coefficients
_CHEB_NODES = 0.5 + 0.5 * np.cos(np.pi * _CHEB_K / INV_FIT_DEGREE)
_CHEB_DCT = (2.0 / INV_FIT_DEGREE) * np.cos(np.pi * np.outer(_CHEB_K, _CHEB_K) / INV_FIT_DEGREE)
_CHEB_DCT[:, [0, -1]] *= 0.5
_CHEB_DCT[[0, -1], :] *= 0.5

_STIRLING_MIN = 10.0  # the series below is used from this argument on
# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of ln Gamma (DLMF
# 5.11.1) truncated here is exact to 1e-18 for arguments >= _STIRLING_MIN
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400)

# c_12, c_11, ..., c_2 of 1 / Gamma(z) = sum c_k z^k (DLMF 5.7.1; c_2 is
# Euler's gamma), rounded from 60-digit values
_RGAMMA = (-2.013485478078824e-05, 1.280502823881162e-04, -2.1524167411495098e-04,
           -1.1651675918590652e-03, 7.2189432466631e-03, -9.621971527876973e-03,
           -4.219773455554433e-02, 1.6653861138229148e-01, -4.200263503409524e-02,
           -6.558780715202539e-01, 5.772156649015329e-01)


def _log1p_ratio(t: float) -> float:
    """log1p(t) / t, continued by 1 at t = 0."""
    return math.log1p(t) / t if t else 1.0


def _expm1_ratio(t: float) -> float:
    """expm1(t) / t, continued by 1 at t = 0."""
    return math.expm1(t) / t if t else 1.0


def _stirling_diff(w: float, e: float, total: float = 0.0) -> float:
    """total + (ln Gamma(w + e) - ln Gamma(w)) / e for w, w + e >= _STIRLING_MIN,
    continued by psi(w) at e = 0.  With t = e / w and rho = w / (w + e), the
    Stirling series gives (w - 1/2) ln(1 + t) / e + ln(w + e) - 1 and, a term
    c_k w^(1-2k), -c_k w^(-2k) rho (1 + rho + ... + rho^(2k-2)): positive
    partial sums, so nothing cancels as e -> 0.  One log1p and one log, ~2 us
    a call (~5.6 us with an expm1 a term).

    Each term is below 0.14 of the one before (|c_(k+1) / c_k| <= 4.61 and
    the rest of the ratio is at most (rho^2 + rho + 1) / w^2 <= 3/100 with
    w, w + e >= 10), so once a term leaves the total unchanged every later
    one would too, even across a power of 2, and the sum stops there with
    the same bits: after two or three terms at a large-n Pochhammer ratio's
    w = b + n."""
    total += (w - 0.5) / w * _log1p_ratio(e / w) + math.log(w + e) - 1.0
    inv2 = 1.0 / (w * w)
    power, rho, rsum = inv2, w / (w + e), 1.0  # rsum = 1 + rho + ... + rho^(2k-2)
    for coef in _STIRLING:
        t = total - coef * power * rsum * rho
        if t == total:
            break
        total = t
        power *= inv2
        rsum = 1.0 + rho * (1.0 + rho * rsum)
    return total


def _lgamma_diff(z: float, e: float) -> float:
    """(ln|Gamma(z + e)| - ln|Gamma(z)|) / e, continued by psi(z) at e = 0.

    Both arguments are shifted up to _stirling_diff's range with Gamma(z + 1)
    = z Gamma(z), each shift j adding ln(1 + t) / e, t = e / (z + j).  Needs
    t >= -1/2 at every shift, as both callers keep it: _gamma_ratio_m1 takes
    it only where 2|e| is at most the gap from z to its nearest pole, so
    |t| <= 1/2, and poch_ratio passes z, e > 0 (below -1/2 the log1p of a
    rounded t would lose digits as z + e nears the pole at 0).  Within
    ~1.3e-15 of mpmath relative to max(1, |value|) for z in [1e-3, 1e6], |e|
    in [1e-12, 3] on that domain; ~2 us plus ~0.45 us a shift (at most 10)."""
    total = 0.0
    shifts = max(0, math.ceil(_STIRLING_MIN - min(z, z + e)))
    for j in range(shifts):  # _log1p_ratio(t) / zj, inlined
        zj = z + j
        t = e / zj
        total -= (math.log1p(t) / t if t else 1.0) / zj
    return _stirling_diff(z + shifts, e, total)


def _gamma_ratio_m1(z: float, e: float, ze: float) -> float:
    """(Gamma(z) / Gamma(ze) - 1) / e with ze = z + e, as accurate as the
    caller knows it; continued by -psi(z) at e = 0.  Near 1 it is one
    _lgamma_diff, ~2 us plus ~0.45 us a shift up to z >= 10 (4-7 us at the
    z < 1 of the connection formula, in the slow state of a shared 2-vCPU
    VM); far from 1, two scalar Gamma calls.  The ratios at z = 1 and z = m
    + 1, which depend on e alone, take _unit_gamma_ratios instead."""
    pole_gap = z if z >= 0.5 else abs(z - round(z))
    if 2.0 * abs(e) > pole_gap:  # the ratio is far from 1: no cancellation
        return (_gamma(z) * _rgamma(ze) - 1.0) / e
    lam = _lgamma_diff(z, e)
    return -lam * _expm1_ratio(-e * lam)


def _rgamma_m1(e: float) -> float:
    """R(e) = (1 / Gamma(1 + e) - 1) / e for |e| <= HYP2F1_REG_EPS, continued
    by Euler's gamma at e = 0: the Taylor series 1 / Gamma(z) = sum c_k z^k
    (DLMF 5.7.1) gives R(e) = sum_{k>=2} c_k e^(k-2), here its 11 terms to
    c_12 by Horner's rule; the next, c_13 e^11, is below 2.2e-17 R(0) there.
    No Gamma call and nothing divided by e: ~0.5 us."""
    out = 0.0
    for coef in _RGAMMA:
        out = out * e + coef
    return out


def _unit_gamma_ratios(m: int, e: float):
    """(g1, q1) with 1 / Gamma(1 - e) = 1 + e g1 and m! / Gamma(m + 1 + e) =
    1 + e q1, for an integer m >= 0 and |e| <= HYP2F1_REG_EPS, from
    _rgamma_m1: g1 = -R(-e), and with Gamma(m + 1 + e) = Gamma(1 + e) prod_{j
    <= m} (j + e), m! / Gamma(m + 1 + e) = (1 + e R(e)) P, where P = prod j /
    (j + e) = 1 + e S is carried as S, S_j = S_{j-1} - P_{j-1} / (j + e), so
    nothing cancels as e -> 0 (q1 is -psi(m + 1) at e = 0).  Within 2.5 eps
    of 50-digit mpmath relative to max(1, |value|) for m <= 5, ~2 us, where
    two _lgamma_diff calls read 6 eps at ~10 us."""
    r, s = _rgamma_m1(e), 0.0
    for j in range(1, m + 1):
        s -= (1.0 + e * s) / (j + e)
    return -_rgamma_m1(-e), r + s + e * r * s


def poch_ratio(a: float, b: float, n: int) -> float:
    """(a)_n / (b)_n for a nonnegative integer n on its callers' box: a, b > 0
    and finite with |a - b| <= 1 (every Wallis-type closed form is such a
    ratio times a generalized pi, and |a - b| reaches 1 where 1/p* rounds to
    it); the empty product n = 0 is 1.  Anything else, NaN and +-inf
    included, raises DomainError.

    Below POCH_SWITCH, a running product of the factor ratios (a + m) / (b +
    m).  Above, Gamma(a + n) / Gamma(b + n), one exp of _stirling_diff, times
    Gamma(b) / Gamma(a) (DLMF 5.2.5), two Gamma calls where a, b lie in
    [DBL_MIN, _STIRLING_MIN] (Gamma(b) <= max(1/b, 9!) and 1 / Gamma(a) in
    [min(a, 1/9!), 1.13]) and the exp in e^+-708, _lgamma_diff elsewhere:
    ~4 us for any n (14-19 us with two Stirling differences).  A subnormal a
    or b takes _peeled; the ratio is inf where it overflows."""
    try:
        a, b, n = float(a), float(b), check_order(n)
    except OverflowError:  # an int beyond the doubles
        raise DomainError(f"poch_ratio requires a, b within the doubles, got ({a}, {b})") from None
    # written so that NaN fails the test
    if not (0.0 < a < math.inf and 0.0 < b < math.inf and abs(a - b) <= 1.0):
        raise DomainError(
            f"poch_ratio requires finite a, b > 0 with |a - b| <= 1, got ({a}, {b})")
    if n < POCH_SWITCH:
        out = 1.0
        for m in range(n):
            out *= (a + m) / (b + m)
        return out
    e = a - b
    if not e:
        return 1.0
    if min(a, b) < _DBL_MIN:  # subnormal
        return _peeled(a, b, n)
    lead = e * _stirling_diff(b + n, e)  # ln Gamma(a + n) - ln Gamma(b + n)
    if abs(lead) <= 708.0 and max(a, b) <= _STIRLING_MIN:
        return math.exp(lead) * (_gamma(b) * _rgamma(a))
    # ln Gamma(a) - ln Gamma(b), shifted up from the smaller: every t > 0
    ln_ratio = lead - e * _lgamma_diff(min(a, b), abs(e))
    try:
        return math.exp(ln_ratio)
    except OverflowError:  # as the product overflows, to inf
        return math.inf


def _peeled(a: float, b: float, n: int) -> float:
    """(a)_n / (b)_n = (a / b) (a + 1)_{n-1} / (b + 1)_{n-1} for n >= 1 and a
    or b subnormal, where a Stirling shift from it would overflow; a + 1 and
    b + 1 stay in poch_ratio's box.  a / b is formed last where it is
    subnormal."""
    ratio, q = poch_ratio(a + 1.0, b + 1.0, n - 1), a / b
    return q * ratio if q >= _DBL_MIN else a * (ratio / b)


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) for x, y > 0, symmetric bit for bit; either
    may be inf, where B(x, inf) = 0.

    exp(ln Gamma(x) + ln Gamma(y) - ln Gamma(x + y)) while both are below
    _STIRLING_MIN.  From there on that exponent loses eps ln Gamma(max) to
    cancellation (B(1e16, 1) read about 1), so with s = min(x, y) and g =
    max(x, y), ln B = ln Gamma(s) - s D, where D = (ln Gamma(g + s) - ln
    Gamma(g)) / s is _lgamma_diff(g, s), which needs no shift here
    (_stirling_diff): within ~4.2 (1 + |ln B|) eps of mpmath for 10 <= g <=
    1e300.  inf where B is beyond the doubles (min(x, y) near 1e-308 and
    below), 0 where it underflows.  That branch takes s and g as floats, so
    an int or an np.int64 gives its float's bits (w * w would overflow a
    large int and wrap an np.int64), and an int beyond the doubles raises
    DomainError."""
    if not (x > 0 and y > 0):
        raise DomainError("beta requires positive arguments")
    try:
        if x < _STIRLING_MIN and y < _STIRLING_MIN:
            ln_b = _cs.gammaln(x) + _cs.gammaln(y) - _cs.gammaln(x + y)
        else:
            s = float(min(x, y))
            ln_b = _cs.gammaln(s) - s * _stirling_diff(float(max(x, y)), s)
        # NaN is inf - inf: x, y both below ~5.6e-309 (B = inf), or both
        # above ~2.5e305 or one of them inf (B = 0)
        return math.exp(ln_b) if ln_b == ln_b else math.inf if max(x, y) < 1.0 else 0.0
    except OverflowError:  # exp's, B ~ 1/min(x, y) beyond the doubles, or an int's float()
        if max(x, y) > sys.float_info.max:  # an int beyond the doubles, compared exactly
            raise DomainError(f"beta requires x, y within the doubles, got ({x}, {y})") from None
        return math.inf


def _beta_integral(a: float, b: float, z: float, zc: float) -> float:
    """The incomplete beta integral B_z(a, b) = int_0^z t^(a-1) (1 - t)^(b-1)
    dt for a, b > 0 and z in [0, 1], with zc = 1 - z as accurate as the
    caller knows it (the primitives of integrals: z = sin_pq^q and zc =
    cos_pq^p from one inversion): B(a, b) I_z(a, b) from Boost's scalar
    betainc up to z = 1/2, and above it B(a, b) (1 - J), J = I_zc(b, a)
    (DLMF 8.17.4), so the value keeps the accuracy of zc where z rounds to
    1.  1 - J is formed as such where J <= 1/2, and by Boost's betaincc,
    which does not cancel, where J > 1/2 (small b: at b = 1e-12 and zc =
    1e-15, 1 - J is 3.5e-11).  betaincc itself reads 1.0 for 1 - 3.9e-11 at
    a = b = 1/2, zc = 3.7e-21, and 1 - betainc lost 3.5e-7 at the former
    point; against 40-digit mpmath this rule read no error above 1e-13 on
    4000 random shapes and zc down to 1e-40.

    B_0 is 0.  Below z = 1, b is taken as max(b, 2^-60): B(a, b) ~ 1/b
    overflows at subnormal b while B_z stays finite, and the factor (1 -
    t)^b of the integrand moves by less than 2^-60 |ln zc| relative."""
    if z <= 0.0:
        return 0.0
    if zc > 0.0:
        b = max(b, 2.0**-60)
    if z <= 0.5:
        return beta(a, b) * _betainc(a, b, z)
    j = _betainc(b, a, zc)
    return beta(a, b) * (1.0 - j if j <= 0.5 else _betaincc(b, a, zc))


def _inc_beta_terms(a: float, b: float):
    """The coefficients a / (a + n) (1 - b)_n / n! of u^n, n = 1 ..
    _INC_TERMS - 1, in F(a, 1 - b; a + 1; u)."""
    n = np.arange(1.0, _INC_TERMS)
    return a / (a + n) * np.cumprod((n - b) / n)


@functools.cache
def _bases():
    """(U, T), built on the first call: U[k, n] is the Chebyshev coefficient
    of T_k(x) in u^n, u = (1 + x) / 4, for n < _INC_TERMS - 1, from
    u^n = 8^-n [C(2n, n) + 2 sum_{k=1..n} C(2n, n - k) T_k(x)] (the power of
    cos^2 of half the angle), so every entry is nonnegative; T[k, j] is the
    coefficient of x^j in T_k, k, j < _POLY_TERMS, integers and exact."""
    n = np.arange(_INC_TERMS - 1.0)
    u2c = np.triu(sc.binom(2.0 * n, np.maximum(n - n[:, None], 0.0))) * 0.125**n
    u2c[1:] *= 2.0
    t2m = np.zeros((_POLY_TERMS, _POLY_TERMS))
    t2m[0, 0] = t2m[1, 1] = 1.0
    for k in range(2, _POLY_TERMS):  # T_k = 2x T_(k-1) - T_(k-2)
        t2m[k, 1:] = 2.0 * t2m[k - 1, :-1]
        t2m[k] -= t2m[k - 2]
    return u2c, t2m


def _monomial(cheb):
    """The coefficients of x^j in sum_k cheb[k] T_k(x), len(cheb) <=
    _POLY_TERMS."""
    k = len(cheb)
    return cheb @ _bases()[1][:k, :k]


def _economize(kappa):
    """Coefficients of x^j, x = 4u - 1 in [-1, 1], of a polynomial within
    _POLY_TOL k(0) of k(u) = sum_n kappa[n] u^n on u in [0, 1/2], for the
    kappa of shapes a, b <= 1 (_inc_beta_terms).

    The Chebyshev coefficients of k in x are sums of nonnegative terms, so
    they are accurate to rounding, and the series is cut where its dropped
    tail is at most _POLY_TOL k(0), the minimum of k.  For such shapes
    0 <= kappa[n] <= kappa[n - 1], so each Chebyshev coefficient is at most
    kappa[0] times that of 1 / (1 - u) = 4 / (3 - x), sqrt(8) rho^-k with
    rho = 3 + sqrt(8): the tail from k = 23 on is below 0.61 _POLY_TOL
    kappa[0], and at most _POLY_TERMS coefficients are kept.  The monomial
    coefficients of the uncut series, sum_n kappa[n] ((1 + x) / 4)^n, are
    nonnegative and sum to k(1/2) <= 8 (ln 2 - 1/2) kappa[0] = 1.545
    kappa[0] (a = 1, b -> 0); the cut moves that sum by below 2e-8 kappa[0],
    since the dropped c_k times the 1-norm (1 + sqrt(2))^k of T_k is at most
    kappa[0] min(2^-56 (1 + sqrt(2))^k, sqrt(8) (1 + sqrt(2))^-k).  So
    Horner's rule rounds as on a sum of positive terms."""
    cheb = _bases()[0] @ kappa
    tails = np.cumsum(cheb[::-1])[::-1]  # sum_{j >= k} c_j
    keep = max(1, int(np.count_nonzero(tails > _POLY_TOL * kappa[0])))
    return _monomial(cheb[:keep])


# _Scratch's float buffers, one row each of one allocation: gtf's clipped x,
# its y (asin_pq's x^q) and yc; the gathered argument w, the band's wb, the
# values v and the residual r of _solve and _inc_beta_block (which never run
# at once); the leaf kernels' temporaries t0-t3
_FLOAT_BUFFERS = ("x", "y", "yc", "w", "wb", "v", "r", "t0", "t1", "t2", "t3")


class _Scratch:
    """The buffers that every block of one array call reuses, so that no
    intermediate result of a block allocates: ws.f[name] is a float buffer
    and ws.m[name] a mask, each ws.size (the call's block) long and cut by
    its user to the points at hand.  A routine names its own buffers,
    except the leaf kernels, which share four temporaries by the phase they
    run in: t0 and t1 hold _inv_fit_eval's z and x, _newton_step's density
    and its log1p term, lower's 1 + g and upper's (2s)^b - 1 and g; t2 is
    g's x and then upper's (2s)^b, and t3 upper's (2s)^b g.  So a kernel
    that runs inside another (g in lower and upper, lower in upper) takes
    none that its caller holds.  A routine given no _Scratch takes a fresh
    one of its argument's size.

    The float buffers are the rows of one array, named in _FLOAT_BUFFERS
    (a name not listed raises KeyError).  Separate arrays, one a name,
    scattered the allocator's heap: in about half of gtf_eval's runs its
    peak RSS rose by 6 MB, at the same speed per call (BENCH_36.json).  The
    masks are taken on first use."""

    def __init__(self, size: int):
        self.size = size
        self.f = dict(zip(_FLOAT_BUFFERS, np.empty((len(_FLOAT_BUFFERS), size))))
        self.m = collections.defaultdict(functools.partial(np.empty, size, bool))


def _blockwise(body, size: int, *args):
    """body(*args, ws) once per block of INV_FIT_BLOCK points of flat arrays
    of size points, with every array among args (the inputs, the outputs
    and the per-point values alike) cut to the block, anything else (a
    float, None) passed as it is, and ws one _Scratch of a block that every
    block reuses: the array lanes' one block loop.  An array of fewer
    points is one block."""
    ws = _Scratch(min(size, INV_FIT_BLOCK))
    if size <= INV_FIT_BLOCK:
        return body(*args, ws)
    for start in range(0, size, INV_FIT_BLOCK):
        cut = slice(start, start + INV_FIT_BLOCK)
        body(*(v[cut] if isinstance(v, np.ndarray) else v for v in args), ws)


def _horner(coef, x, out=None):
    """sum_j coef[j] x^j on an array x by Horner's rule, coef an array,
    into out (a new array by default).  The coefficients are taken as
    Python floats and every out positionally: at a block of a thousand
    points each ufunc call costs about as much as its arithmetic."""
    acc = np.empty_like(x) if out is None else out
    *rest, last = coef.tolist()
    acc.fill(last)
    for c in reversed(rest):
        np.multiply(acc, x, acc)
        np.add(acc, c, acc)
    return acc


def _hyp_m1(a: float, b: float):
    """(g, g(1/2)) for g(u) = F(a, 1 - b; a + 1; u) - 1 = u k(u) on arrays
    of points u <= 1/2, shapes a, b <= 1: k is the _INC_TERMS-term series,
    economized to a polynomial in x = 4u - 1 (_economize), and g(1/2) is g
    itself at u = 1/2.  g(u, out, ws) writes into out (a new array by
    default).  The coefficients are read-only: _forward's cache shares them
    between calls."""
    mono = _economize(_inc_beta_terms(a, b))
    mono.flags.writeable = False

    def g(u, out=None, ws=None):
        x = np.multiply(u, 4.0, (ws or _Scratch(u.size)).f["t2"][:u.size])
        np.subtract(x, 1.0, x)
        k = _horner(mono, x, out)
        return np.multiply(k, u, k)

    return g, float(g(np.array([0.5]))[0])


def _lower_tail(a: float, b: float, g, g_half: float):
    """(lower, c, i_half): I_t(a, b) = t^a c (1 + g(t)) on an array of
    points t <= 1/2, c = 1 / (a B(a, b)) and I_{1/2}(a, b), from (g, g_half)
    = _hyp_m1(a, b)."""
    c = _gamma(a + b) * _rgamma(a + 1.0) * _rgamma(b)

    def lower(t, out=None, ws=None):
        ws = ws or _Scratch(t.size)
        v = np.power(t, a, out)
        np.multiply(v, c, v)
        h = g(t, ws.f["t0"][:t.size], ws)
        np.add(h, 1.0, h)
        return np.multiply(v, h, v)  # (t^a c) (1 + g(t)), in that order

    return lower, c, 0.5**a * c * (1.0 + g_half)


def _upper_tail(b: float, i_half: float, swapped, c_sw: float, g_sw, g_sw_half: float):
    """I_t(a, b) on an array of points s = 1 - t <= 1/2, from the other
    tail: i_half = I_{1/2}(a, b) and swapped = I_s(b, a) = s^b c_sw (1 +
    g_sw(s)), with (g_sw, g_sw_half) = _hyp_m1(b, a).  It is 1 - J, J =
    I_s(b, a), where I_{1/2}(a, b) >= 1/2, since then J <= I_{1/2}(b, a) <=
    1/2 at every s <= 1/2 and 1 - J cannot cancel.  On the other shapes
    (small b) it is 1 - J where J <= 1/2, and where J > 1/2 it is anchored at
    t = 1/2, as I_{1/2}(a, b) plus the mass of (1/2, t],

        2^-b / (b B(a, b)) [g(1/2) - ((2s)^b - 1) - (2s)^b g(s)],

    with g = F(b, 1 - a; b + 1; .) - 1: both parts are nonnegative and
    (2s)^b - 1 is an expm1, so nothing cancels; I_{1/2}(a, b) and g(1/2)
    come from the same polynomials, so the two branches meet at t = 1/2.
    upper(s, out, ws) writes into out (a new array by default)."""
    if i_half >= 0.5:
        def upper(s, out=None, ws=None):
            j = swapped(s, out, ws)
            return np.subtract(1.0, j, j)
        return upper
    c_hi = 0.5**b * c_sw

    def upper(s, out=None, ws=None):
        n = s.size
        ws = ws or _Scratch(n)
        e = np.add(s, s, ws.f["t0"][:n])
        with np.errstate(divide="ignore"):  # log(0) at s = 0
            np.log(e, e)
        np.multiply(e, b, e)
        np.expm1(e, e)  # (2s)^b - 1
        g = g_sw(s, ws.f["t1"][:n], ws)
        s2b = np.add(e, 1.0, ws.f["t2"][:n])  # (2s)^b
        s2b_g = np.multiply(s2b, g, ws.f["t3"][:n])
        anchored = np.subtract(g_sw_half, e, e)
        np.subtract(anchored, s2b_g, anchored)
        np.multiply(anchored, c_hi, anchored)
        np.add(anchored, i_half, anchored)
        np.add(g, 1.0, g)
        j = np.multiply(s2b, c_hi, out)  # I_s(b, a) = 1 - I_t(a, b)
        np.multiply(j, g, j)
        far = np.greater(j, 0.5, ws.m["upper.far"][:n])
        v = np.subtract(1.0, j, j)
        np.putmask(v, far, anchored)
        return v

    return upper


@functools.lru_cache(maxsize=128)
def _forward(a: float, b: float):
    """(lower, swapped, upper, upper_swapped): I_t(a, b) on an array of
    points t <= 1/2, I_s(b, a) on an array of points s <= 1/2, I_t(a, b) on
    an array of points s = 1 - t <= 1/2 and I_s(b, a) on an array of points
    t = 1 - s <= 1/2, for shapes a, b <= 1 (_lower_tail, _upper_tail), each
    f(x, out, ws) into out.  Each tail is accurate relative to its own
    value, so the inverses of both tails of a shape take their steps here.

    Built once per shape and cached (two economizations, ~80 us; a few kB
    an entry), since gtf repeats its shapes from call to call."""
    (g_lo, g_lo_half), (g_hi, g_hi_half) = _hyp_m1(a, b), _hyp_m1(b, a)
    lower, c_lo, i_half = _lower_tail(a, b, g_lo, g_lo_half)
    swapped, c_sw, j_half = _lower_tail(b, a, g_hi, g_hi_half)
    return (lower, swapped, _upper_tail(b, i_half, swapped, c_sw, g_hi, g_hi_half),
            _upper_tail(a, j_half, lower, c_lo, g_lo, g_lo_half))


def _series_lane(a: float, b: float, size: int):
    """_forward(a, b) for an array of size points, the series that
    _inc_beta_block sums; None, scipy's ufunc, below INV_FIT_MIN points
    (where no series is built)."""
    return None if size < INV_FIT_MIN else _forward(a, b)


def _inc_beta_block(a: float, b: float, t, out, forward, ws):
    """I_t(a, b) into out at a block t of points of [0, 1], shapes a, b <=
    1, in the lane of _series_lane (forward): scipy's ufunc (the float
    lane's Boost code, bit for bit) or the series below, with ws the
    call's _Scratch.

    For t <= 1/2, I_t(a, b) = t^a F(a, 1 - b; a + 1; t) / (a B(a, b)) (DLMF
    8.17.7); above, the same series of the swapped tail J = I_s(b, a) = 1 -
    I_t(a, b), s = 1 - t (DLMF 8.17.4), anchored at t = 1/2 where 1 - J
    would cancel (_upper_tail).  Every term is positive and below half the
    one before, and F - 1 = u k(u) is summed as k's economized polynomial in
    x = 4u - 1 (_hyp_m1).  The block is split once at t = 1/2 into the
    index lists of its two branches, each gathered with take and scattered
    back once, which on shuffled points costs a fraction of a boolean-mask
    gather or scatter.  Against 50-digit mpmath, over 300 shapes (a and b
    down to 1e-6) at 45 points each, the relative error is at most 9.4e-16,
    most of it from the Gamma quotient in front, where Boost's betainc
    reaches 2.9e-15."""
    if forward is None:
        np.copyto(out, sc.betainc(a, b, t))
        return out
    lower, _, upper, _ = forward
    below = np.less_equal(t, 0.5, ws.m["inc.below"][:t.size])
    at = below.nonzero()[0]
    w = t.take(at, out=ws.f["w"][:at.size], mode="clip")
    out[at] = lower(w, ws.f["v"][:at.size], ws)
    at = np.logical_not(below, below).nonzero()[0]
    w = t.take(at, out=ws.f["w"][:at.size], mode="clip")
    np.subtract(1.0, w, w)  # 1 - t is exact here
    out[at] = upper(w, ws.f["v"][:at.size], ws)
    return out


def _newton_step(a: float, b: float, lnb: float, x, resid, ws=None):
    """x after one guarded Newton step on I_x(a, b) = y, clipped to [0, 1],
    where resid = I_x(a, b) - y and the derivative is the beta density, lnb
    = ln B(a, b): in place in x, with resid overwritten.  Where the density
    is 0, infinite or NaN (x at 0 or 1) x is kept; the masks that keep it
    are formed only where the block has such a point.  With the shapes
    swapped it steps s = 1 - x: I_s(b, a) - (1 - y) = -resid, and the
    density is the same."""
    n = x.size
    ws = ws or _Scratch(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dens = np.log(x, ws.f["t0"][:n])
        np.multiply(dens, a - 1, dens)
        v = np.negative(x, ws.f["t1"][:n])
        np.log1p(v, v)
        np.multiply(v, b - 1, v)
        np.add(dens, v, dens)
        np.subtract(dens, lnb, dens)
        np.exp(dens, dens)
        step = np.divide(resid, dens, resid)
    if not (n and 0.0 < dens.min() and dens.max() < math.inf):  # NaN fails too
        held = np.isfinite(dens, ws.m["newton.held"][:n])
        np.logical_and(held, np.greater(dens, 0.0, ws.m["newton.pos"][:n]), held)
        np.putmask(step, np.logical_not(held, held), 0.0)
    np.subtract(x, step, x)
    np.maximum(0.0, x, out=x)  # the bits of np.clip, -0.0 included
    return np.minimum(1.0, x, out=x)


def _inv_fit(a: float, b: float, lnb: float, w_half: float, lower):
    """Interpolant of the inverse of w = I_t(a, b) on t in [0, 1/2], where
    w_half = I_{1/2}(a, b), as (a, ln(a B), z_max, coefficients of x^j on
    x in [-1, 1]); None if it cannot be certified.  lower is I_t(a, b) on
    arrays of points t <= 1/2 (_forward's).

    For small t, a B w = t^a (1 + O(t)), so z = (a B w)^(1/a) is t times a
    function analytic and positive on [0, 1/2], and h(z) = t / z is
    analytic on [0, z_max], z_max = z(w_half), with h(0) = 1 (Trefethen,
    Approximation Theory and Approximation Practice, ch. 3 and 8).  h is
    interpolated at the INV_FIT_DEGREE + 1 Chebyshev points of that
    interval, from scipy's inverses polished on lower (the fitted lane's
    forward function).  The fit is certified when z_max is a normal float
    and the last three coefficients are within INV_FIT_TOL of the first:
    its relative error is then about INV_FIT_TOL.

    A certified fit is then cut, as Chebfun cuts a series, after the
    fewest coefficients (at least two) whose dropped tail sum |c_k| is at
    most INV_FIT_TRUNC min h over the nodes.  h = F(a, 1 - b; a + 1;
    t)^(-1/a), and F = a int_0^1 s^(a-1) (1 - t s)^(b-1) ds is monotone in
    t, so that is the minimum over the interval, whose ends are nodes.
    Every |T_k| <= 1, so the cut moves h by at most INV_FIT_TRUNC of its
    value anywhere, and the start is within 2^-30, relative, with room for
    the fit's own error (a cut at a fraction of |c_0| instead let it reach
    1.07 2^-30, where h dips to 0.72 c_0).  One Newton step squares the
    start's relative error e: the next is about e^2 |t f'/(2 f)| with f the
    beta density, |(a - 1) - (b - 1) t / (1 - t)| / 2 <= 1 for a, b <= 1
    and t <= 1/2, so 2^-60 is left, below the rounding of the step itself.
    The fits of gtf's shapes keep 5-11 of their INV_FIT_DEGREE + 1
    coefficients for p, q in (1, 6], up to 13 at exponents near 1 and 1000;
    the kept ones are turned into monomials once, here, for _horner (their
    rounding, a few ulps of h times the growth of T_k's coefficients, stays
    far below 2^-30).
    """
    lnab = math.log(a) + lnb
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        z_max = float(np.exp((np.log(w_half) + lnab) / a))
        if not _DBL_MIN <= z_max < math.inf:
            return None
        z = z_max * _CHEB_NODES[:-1]  # the last node is z = 0, where h = 1
        w = np.exp(a * np.log(z) - lnab)
        t = sc.betaincinv(a, b, w)
        t = _newton_step(a, b, lnb, t, lower(t) - w)
        h = np.append(t / z, 1.0)
    coef = _CHEB_DCT @ h
    if not np.abs(coef[-3:]).max() <= INV_FIT_TOL * abs(coef[0]):  # NaN fails too
        return None
    tails = np.cumsum(np.abs(coef[::-1]))[::-1]  # sum_{j >= k} |c_j|
    keep = max(2, int(np.count_nonzero(tails > INV_FIT_TRUNC * h.min())))
    mono = _monomial(coef[:keep])
    mono.flags.writeable = False  # shared by _inverse_setup's cache
    return a, lnab, z_max, mono


def _inv_fit_eval(fit, w, out=None, ws=None):
    """t with I_t(a, b) = w (w <= I_{1/2}(a, b)) from a fit of _inv_fit:
    z (a power of w) times h(z), a polynomial in x = 2 z / z_max - 1, into
    out (a new array by default)."""
    a, lnab, z_max, mono = fit
    n = w.size
    ws = ws or _Scratch(n)
    z = np.log(w, ws.f["t0"][:n])
    np.add(z, lnab, z)
    np.divide(z, a, z)
    np.exp(z, z)
    x = np.multiply(z, 2.0 / z_max, ws.f["t1"][:n])
    np.subtract(x, 1.0, x)
    t = _horner(mono, x, out)
    return np.multiply(t, z, t)


def _half_mass(a: float, b: float) -> float:
    """I_{1/2}(a, b), where the inverse of I_t(a, b) splits into its two
    tails: 1/2 exactly at a = b (DLMF 8.17.4), where Boost's misses it on
    most shapes, and Boost's scalar kernel otherwise."""
    return 0.5 if a == b else _betainc(a, b, 0.5)


@functools.lru_cache(maxsize=128)
def _inverse_setup(a: float, b: float):
    """(lnb, y_half, fits): what the fitted inverses of the shapes (a, b)
    need besides _forward's sums, built once per shape and cached, as
    _forward is.  lnb = ln B(a, b), y_half = _half_mass(a, b), and fits the
    two fits of _inv_fit, of (a, b) below y_half and of (b, a) above it, or
    None unless both are certified.  One entry serves both tails, t and s =
    1 - t (_tails_block).  An entry holds a few kB of coefficients, never
    a result."""
    lnb = float(sc.betaln(a, b))
    lower, swapped, _, _ = _forward(a, b)
    y_half = _half_mass(a, b)
    fits = (_inv_fit(a, b, lnb, y_half, lower),
            _inv_fit(b, a, lnb, _half_mass(b, a), swapped))
    return lnb, y_half, None if None in fits else fits


def _point_tails(a: float, b: float, lo: float, hi: float, y: float, yc: float):
    """(t, s) of _tails_block at one point with both tails asked for,
    always: Python floats from Boost's scalar kernel (the ufunc's code, bit
    for bit), for the float lane's callers that want both.  t is solved from
    y up to hi and s from yc above lo, so one inversion serves both outside
    the band between them (the other tail is 1 minus it) and each is solved
    from its own argument inside it.  At a = b, y = 1/2 gives t = 1/2; yc
    is never 1/2 where s is solved (gtf.sin_pq).  gtf.sin_pq and gtf.cos_pq
    make the same choice for their one tail at a point, inline, and call
    _betaincinv themselves."""
    t = s = None
    if y <= hi:
        t = 0.5 if a == b and y == 0.5 else _betaincinv(a, b, y)
    if y > lo:
        s = _betaincinv(b, a, yc)
    return 1.0 - s if t is None else t, 1.0 - t if s is None else s


def _inverse_lane(a: float, b: float, size: int):
    """What _tails_block needs to take the fitted lane at an array of size
    points of the shapes (a, b), (lnb, y_half, fits, _forward(a, b)) from
    _inverse_setup, one cache lookup a call; None, scipy's ufunc, below
    INV_FIT_MIN points (where no setup is built), at arrays of shapes and
    where the fits are not certified."""
    if size < INV_FIT_MIN or isinstance(a, np.ndarray):
        return None
    lnb, y_half, fits = _inverse_setup(a, b)
    return None if fits is None else (lnb, y_half, fits, _forward(a, b))


def _tails_block(a: float, b: float, lo: float, hi: float, y, yc, t, s, lane, ws):
    """(t, s) with I_t(a, b) = y and s = 1 - t, I_s(b, a) = yc, at a block
    of points y and yc = 1 - y (rounded on its own) of [0, 1], shapes a, b <=
    1, and lo, hi the smaller and the larger of 1/2 and I_{1/2}(a, b)
    (gtf._pair), written into the arrays t and s, each None where it is not
    asked for; each accurate relative to its own argument.  a, b, lo and hi
    are floats, or arrays of y's shape (gtf's lane for several pairs), and
    each rule below then holds per point.  lane is _inverse_lane's, and ws
    the call's _Scratch.

    One solved value serves both tails, the other being 1 minus it (DLMF
    8.17.4), where it is <= 1/2 and its argument is the smaller of y and yc,
    so that its complement carries no larger error than that argument's
    rounding: t up to y = lo, s above hi.  In the band between them each
    tail is solved from its own argument, so a point is inverted twice only
    there, and only when both tails are asked for.  Without a fitted lane
    the block takes scipy's ufunc with the shapes swapped point by point
    (the float lane's Boost code, bit for bit, whether the shapes are floats
    or arrays); otherwise _fitted_block.  At a = b a tail's argument 1/2
    gives 1/2 in every lane, since I_{1/2}(a, a) = 1/2, where Boost's
    inverse misses it by up to 1.3e-8 at some a (68 of 4000 random p in (1,
    100) at a = 1/p*)."""
    t_top = hi if t is not None else lo  # t is solved from y where y <= t_top
    s_bottom = lo if s is not None else hi  # s from yc where y > s_bottom
    if lane is not None:
        return _fitted_block(lane, a, b, y, yc, t, s, t_top, s_bottom, ws)
    up = y > t_top
    w = np.where(up, yc, y)
    r = sc.betaincinv(np.where(up, b, a), np.where(up, a, b), w)
    equal = a == b
    if _anywhere(equal):
        r[(w == 0.5) & equal] = 0.5
    rc = 1.0 - r
    if t is not None:
        np.copyto(t, np.where(up, rc, r))
    if s is not None:
        np.copyto(s, np.where(up, r, rc))
    if _anywhere(s_bottom < t_top):  # both asked for, and a band: its s from yc
        band = (y > s_bottom) & ~up
        s[band] = sc.betaincinv(_at(b, band), _at(a, band), yc[band])


def _anywhere(cond) -> bool:
    """Whether a comparison holds anywhere: as it is for two floats (a
    bool), at any point for arrays of shapes (a bool array)."""
    return cond if isinstance(cond, bool) else bool(cond.any())


def _at(v, mask):
    """A shape, or any per-pair value, at the points a boolean mask selects:
    a float as it is, an array (a value a point or a pair) broadcast to the
    mask's shape first."""
    return v if isinstance(v, float) else np.broadcast_to(v, mask.shape)[mask]


def _fitted_block(lane, a: float, b: float, y, yc, t, s, t_top: float, s_bottom: float, ws):
    """_tails_block's fitted lane, on the certified setup lane =
    (lnb, y_half, fits, _forward(a, b)) of _inverse_lane: t from y where y
    <= t_top, s from yc where y > s_bottom.  Each branch solves a value <=
    1/2: t below y_half (the fit of (a, b), one Newton step on lower), s' =
    1 - t above it from 1 - y (the fit of (b, a), a step on upper, anchored
    where 1 - I_s(b, a) would cancel); likewise s above y_half (the fit of
    (b, a) at yc, a step on swapped) and t' = 1 - s below it from 1 - yc
    (upper_swapped).  The band's branch shares its fit and its Newton step
    with the branch of the same fit (_solve), so a block evaluates each fit
    once."""
    lnb, y_half, fits, (lower, swapped, upper, upper_swapped) = lane
    with np.errstate(divide="ignore", under="ignore"):  # log(0) at y = 0, 1
        # t <= 1/2 from y up to y_half, and where y_half > 1/2 the band's s
        # > 1/2 from yc as 1 - t'
        own = np.less_equal(y, min(y_half, t_top), ws.m["tails.own"][:y.size]).nonzero()[0]
        band = _points_in(y, s_bottom, y_half, ws) if s_bottom < y_half else None
        _solve(fits[0], a, b, lnb, y, own, lower, yc, band, upper_swapped, t, s, ws)
        # s <= 1/2 from yc above y_half, and where y_half < 1/2 the band's t
        # > 1/2 from y as 1 - s'
        own = np.greater(y, max(y_half, s_bottom), ws.m["tails.own"][:y.size]).nonzero()[0]
        band = _points_in(y, y_half, t_top, ws) if y_half < t_top else None
        _solve(fits[1], b, a, lnb, yc, own, swapped, y, band, upper, s, t, ws)


def _points_in(y, lo: float, hi: float, ws):
    """The indices of the points of y in (lo, hi]."""
    inside = np.greater(y, lo, ws.m["tails.in"][:y.size])
    np.logical_and(inside, np.less_equal(y, hi, ws.m["tails.below"][:y.size]), inside)
    return inside.nonzero()[0]


def _solve(fit, a: float, b: float, lnb: float, arg, own, own_sum, band_arg, band,
           band_sum, solved, other, ws):
    """One fit of _inv_fit and one Newton step (_newton_step) on the
    shapes (a, b) for a branch and, behind it, the band's branch of the same
    fit: x <= 1/2 with I_x(a, b) = w at the points own, w = arg there, its
    residual own_sum(x) - w, written into solved and 1 - x into other; and
    at the points band (or None), x' from 1 - w', w' = band_arg there, its
    residual w' - band_sum(x'), with 1 - x' written into other after the
    branch's.  Each array is None where it is not asked for."""
    k = own.size
    kb = 0 if band is None else band.size
    if k + kb > ws.size:  # sincos_pq's band beside a longer branch: one after the other
        _solve(fit, a, b, lnb, arg, own, own_sum, band_arg, None, band_sum, solved, other, ws)
        return _solve(fit, a, b, lnb, arg, own[:0], own_sum, band_arg, band, band_sum,
                      solved, other, ws)
    w = ws.f["w"][:k + kb]
    arg.take(own, out=w[:k], mode="clip")
    if kb:
        wb = band_arg.take(band, out=ws.f["wb"][:kb], mode="clip")
        np.subtract(1.0, wb, w[k:])
    x = _inv_fit_eval(fit, w, out=ws.f["v"][:k + kb], ws=ws)
    resid = ws.f["r"][:k + kb]
    own_sum(x[:k], resid[:k], ws)
    np.subtract(resid[:k], w[:k], resid[:k])
    if kb:
        band_sum(x[k:], resid[k:], ws)
        np.subtract(wb, resid[k:], resid[k:])
    _newton_step(a, b, lnb, x, resid, ws)
    if a == b:  # no band here: y_half = 1/2
        np.putmask(x, np.equal(w, 0.5, ws.m["solve.half"][:k]), 0.5)
    if solved is not None:
        solved[own] = x[:k]
    if other is not None:
        complement = np.subtract(1.0, x, resid)
        other[own] = complement[:k]
        if kb:
            other[band] = complement[k:]


def _tail_certified(size: float, mag: float, m: float, aa: float, ab: float,
                    ac: float, x: float) -> bool:
    """The ratio test that stops a power series after term m >= |c| + 2 of
    magnitude size, with mag the sum of the magnitudes so far and aa, ab, ac
    = |a|, |b|, |c|: rho = (m + |a|)(m + |b|) / ((m - |c|)(m + 1)) x bounds
    the next ratios, and the tail size rho / (1 - rho) must be within
    HYP2F1_TAIL_TOL mag.  rho >= m x / (m + 1) >= 2x/3 there, so the test
    cannot pass unless size x / 2 <= HYP2F1_TAIL_TOL mag, which _series
    checks first, inline, so that most terms skip this call; the stop is
    _series' only one, and its docstring bounds the term at which it
    comes."""
    rho = (m + aa) * (m + ab) / ((m - ac) * (m + 1.0)) * x
    return rho < 1.0 and size * rho / (1.0 - rho) <= HYP2F1_TAIL_TOL * mag


def _series(a: float, b: float, c: float, x: float, head: float = 1.0) -> float:
    """head - 1 plus the power series of F(a, b; c; x), x in [0, 1), summed
    with Kahan compensation until _tail_certified (c not a nonpositive
    integer): F itself at head = 1, and at head = 0 F - 1 without the leading
    1, so that it keeps its relative accuracy however small x is.

    The loop keeps no budget: on every parameter set its callers pass it
    stops after at most 57 terms.  After term m, of size t_m, the test
    passes once t_m rho / (1 - rho) <= 2^-53 mag, rho = (m + |a|)(m + |b|) /
    ((m - |c|)(m + 1)) x, where mag, the sum of the magnitudes, is at least
    1 at head = 1.  On each caller's set:
    - hyp2f1's series at x <= 1/2 in its box (0 < a < c < a + 1, |b| < 1):
      every term ratio (a + j)/(c + j) |b + j|/(j + 1) x is at most x, so
      t_m <= 2^-m, and rho <= (m + 1) / (2 (m - 2)): the test passes by m =
      54 (the bound there is 0.56 of its threshold).
    - _connection's two series in y < 1/2, (a, b; 1 - s) and (c - a, c - b;
      1 + s), s at least HYP2F1_REG_EPS from an integer: each is (alpha,
      gamma - delta; gamma) with alpha, delta in (0, 1) (alpha = a, delta =
      1 - (c - a); alpha = c - a, delta = 1 - a) and gamma = 1 -+ s at least
      0.1 from an integer.  Its ratio is (alpha + j)/(j + 1) < 1 times
      |gamma + j - delta| / |gamma + j|, below 1 wherever gamma + j >=
      delta.  At gamma in [0.1, 0.9] only j = 0 can exceed 1, by less than
      1/gamma - 1 <= 9; at gamma in [-0.9, -0.1] (the first series only) b
      = gamma - delta > -1 puts gamma + 1 above delta, so again only j = 0,
      by 1 + delta/|gamma| < 1/|gamma| <= 10.  So t_m < 10 y^m, and with
      |c - b|, |1 + s| < 3, rho <= (m + 3) / (2 (m - 3)): the test passes
      by m = 57 (0.78).
    - elliott_residual's small side, F - 1 at head = 0 and x <= 1/2, on the
      same box as hyp2f1's: mag >= t_1 and, by the ratio bound of the first
      case, t_m <= t_1 x^(m - 1): the test passes by m = 55 (0.56).
    Each bound is increasing in x and keeps room for an argument a few ulps
    (or hyp2f1's 1e-9 of comp) above 1/2 and for the relative error, ~m eps,
    of the computed terms.  NaN and +-inf never reach the loop: hyp2f1's box
    and elliott_residual's checks reject them first.  Other parameters
    (tests call it with |a|, |b| above 1) still stop, since at an argument
    below 1 the terms decay geometrically once m passes |a|, |b| and |c|."""
    aa, ab, ac = abs(a), abs(b), abs(c)
    n_safe = int(math.ceil(max(aa, ab, ac))) + 2  # the test's first term
    term, total, comp, mag = 1.0, head, 0.0, head
    tol, hx = HYP2F1_TAIL_TOL, 0.5 * x
    n = 0.0  # a float counter: the same values as an int n, at less cost
    while True:
        m = n + 1.0
        term *= (a + n) * (b + n) / ((c + n) * m) * x
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        size = abs(term)
        mag += size
        if m >= n_safe and size * hx <= tol * mag and _tail_certified(
                size, mag, m, aa, ab, ac, x):
            return total
        n = m


def _connection(a: float, b: float, c: float, s: float, y: float) -> float:
    """F(a, b; c; 1 - y) for y in (0, 1/2) by Gauss's connection formula
    (A&S 15.3.6, DLMF 15.8.4), for s = c - a - b at least HYP2F1_REG_EPS
    from an integer: seven scalar Gamma calls and the two series in y, each
    a _series.  In hyp2f1's box no Gamma product leaves the doubles (Gamma(c)
    <= Gamma(2^-511) and the other factors are bounded), and a pole of 1 /
    Gamma gives its part 0."""
    gc = _gamma(c)
    f1, f2 = _series(a, b, 1.0 - s, y), _series(c - a, c - b, 1.0 + s, y)
    g1 = gc * _gamma(s) * _rgamma(c - a) * _rgamma(c - b)
    g2 = gc * _gamma(-s) * _rgamma(a) * _rgamma(b)
    return g1 * f1 + _times_power(g2 * f2, y, s)


def _times_power(v: float, y: float, s: float) -> float:
    """v y^s for y in (0, 1): v * y**s, bit for bit, where y**s is a double;
    where it overflows, (v h) h with h = y^(s/2), so the product is inf
    only beyond the doubles, and where h overflows too (|v y^s| >= |v|
    2^2048), +-inf for v != 0."""
    try:
        return v * y**s
    except OverflowError:
        try:
            h = y ** (0.5 * s)
        except OverflowError:
            return math.copysign(math.inf, v) if v else 0.0
        return v * h * h


def _connection_near_integer(a: float, b: float, c: float, ca: float, cb: float,
                             y: float, m: int, e: float):
    """F(a, b; c; 1 - y) for y in (0, 1/2) and c - a - b = m + e, m >= 0 an
    integer and |e| <= HYP2F1_REG_EPS; ca and cb are c - a and c - b.

    A&S 15.3.6 with the poles of Gamma(c-a-b) and Gamma(a+b-c) cancelled
    analytically (Forrey, J. Comput. Phys. 137, 1997; Michel & Stoitsov,
    Comput. Phys. Commun. 178, 2008): the first m terms of the first series,
    plus the prefactor Gamma(c) / (Gamma(a) Gamma(b) m!) (-y)^m (pi e /
    sin(pi e)) times sum_k y^k E_k with E_k = (u_k - v_k) / e,

        u_k = m! Gamma(a+m+k) Gamma(b+m+k)
              / (Gamma(a+m+e) Gamma(b+m+e) Gamma(k+1-e) (m+k)!),
        v_k = m! y^e Gamma(a+m+k+e) Gamma(b+m+k+e)
              / (Gamma(a+m+e) Gamma(b+m+e) Gamma(m+k+1+e) k!).

    E_0 is formed from (Gamma(z) / Gamma(z + e) - 1) / e and E_k by the
    recurrence E_{k+1} = r_u E_k + v_k (r_u - r_v) / e, with (r_u - r_v) / e
    in closed form; nothing is divided by e numerically, so e = 0 gives the
    logarithmic formulas A&S 15.3.10-15.3.12 and small e stays accurate.

    Cost: two _gamma_ratio_m1 calls (qa and qb, each an _lgamma_diff), the
    e-only ratios g1 and q1 from one 11-term polynomial (_unit_gamma_ratios,
    ~2 us), one product of four scalar Gamma calls (and one more with the
    head), and ~1.3 us a term of the sum in y, whose tail bound forms delta
    only once its first part passes.

    Both Gamma quotients, the head's and the prefactor's with its 1/m! and
    (-y)^m, are plain products: in hyp2f1's box no factor leaves the
    doubles, and (-y)^m underflows only at m = 2 with y below ~1e-154, where
    the head, of size ~1, holds the value to its last bit.

    The sum in y keeps no budget: on every parameter set hyp2f1 passes (m in
    {0, 1, 2}, |e| <= HYP2F1_REG_EPS, y < 1/2, also after Euler's
    transformation, where a, b are c - a, c - b) it stops after at most 57
    terms, E_0 .. E_56.  With A = a + m + k, B = b + m + k and K0 = m! /
    (Gamma(a + m + e) Gamma(b + m + e)), let w_k(t) = y^t Gamma(A + t)
    Gamma(B + t) / (Gamma(k + 1 - e + t) Gamma(m + k + 1 + t)): u_k = K0
    w_k(0), v_k = K0 w_k(e), and E_k = -K0 w_k'(theta_k), theta_k between
    0 and e.  From k1 = 2 - m on, every Gamma argument exceeds z = m + k -
    1.2 >= 0.8, and since a < 1 and b + m + e = c - a < 1, A + t < m + k +
    1 + t and B + t < k + 1 - e + t: so w_k > 0 falls as k grows, and its
    log-derivative L_k lies in [ln y - D_k, ln y], D_k = 2 (1/z + 1/z^2)
    (psi' <= 1/z + 1/z^2).  Hence from k1 on every E_k has K0's sign, mag >=
    y^k1 |E_k1| >= y^k1 |K0| w_k1(theta_k1) |ln y|, |E_k| <= |K0|
    w_k(theta_k) (|ln y| + D_k), |v_k| = |K0| w_k(e), w_k <= w_k1 and
    w_k(t) / w_k(t') <= (e^D_k / y)^|e|.  The loop's stop bound at k (g =
    rho / (1 - rho), with its rm, rho and delta), over mag, is then at most

        y^(k - k1) (e^D_k / y)^|e| [(1 + D_k / |ln y|) g
                                     + delta (e^D_k / y)^|e| g / (rm (1 - rho) |ln y|)],

    increasing in y and |e|, and in the rm and delta bounds, here taken at
    their largest in the box (|a + m - 1|, |b + m - 1| <= 2, |a + b + m - 2|
    <= 3).  At y = 1/2 and |e| = 0.1 it is below 2^-53 by 57, 56 and 55
    terms at m = 0, 1 and 2 (0.67 of the threshold at most), with room for
    the relative error, ~k eps, of the computed terms.

    The loop screens that stop test first, at rm = 1: the first part,
    yk (|E_k| g) with g = rho / (1 - rho), can be within HYP2F1_TAIL_TOL
    mag only if yk (|E_k| y / (1 - y)) is.  That holds in floating point:
    each factor of fl(rm) is at least 1 (1 + ra/K and 1 + rb/K with ra, rb
    >= 0, and a division by 1 - ae/K <= 1), so fl(rm) >= 1, and rounding is
    monotone, so fl(rho) = fl(y fl(rm)) >= y, fl(1 - rho) <= fl(1 - y) and
    fl(g) >= fl(y / fl(1 - y)); the screen's product is formed as the
    test's is.  A term the screen fails cannot stop the loop, and rm, rho
    and g are formed only where it passes (as _series screens
    _tail_certified), so the loop stops at the same term with the same
    bits.
    """
    head = 0.0
    if m:  # sum_{n<m} (a)_n (b)_n / ((1-m-e)_n n!) y^n, a polynomial
        term = total = 1.0
        for n in range(m - 1):
            term *= (a + n) * (b + n) / (((n + 1 - m) - e) * (n + 1.0)) * y
            total += term
        head = _gamma(c) * _gamma(m + e) * _rgamma(ca) * _rgamma(cb) * total

    qa = _gamma_ratio_m1(a + m, e, cb)  # a + m + e = c - b
    qb = _gamma_ratio_m1(b + m, e, ca)
    g1, q1 = _unit_gamma_ratios(m, e)
    ly = math.log(y)
    ey = ly * _expm1_ratio(e * ly)  # y^e = 1 + e ey
    ek = ((qa + qb + g1 - ey - q1) + e * (qa * qb + (qa + qb) * g1 - ey * q1)
          + e * e * qa * qb * g1)
    vk = math.exp(e * ly) * (1.0 + e * q1)
    al, be, ae = a + m - 1.0, b + m - 1.0, abs(e)
    lead = a + b + m - 2.0
    lead_abs, cross, ab_sum = abs(lead), abs(al * be), abs(al + be)
    two_albe, m_albe, ra, rb = 2.0 * al * be, m * al * be, abs(al) + ae, abs(be) + ae

    total = mag = 0.0
    g_y = y / (1.0 - y)  # the screen's g, at rm = 1
    yk, k = 1.0, 0.0  # a float counter, as in _series
    while True:
        t = yk * ek
        total += t
        mag += abs(t)
        K = k + 1.0
        C = K + m
        A, B = a + (m + k), b + (m + k)  # exact where they are near 0
        kc = (K - e) * C
        r_u = A * B / kc
        r_v = (A + e) * (B + e) / ((C + e) * K)
        d_uv = ((lead * K + two_albe) * K + m_albe
                + C * e * (K + al + be + e)) / (kc * (C + e) * K)
        # certified tail: for j >= k, |r_u|, |r_v| <= rm and |(r_u - r_v)/e|
        # <= delta (both bounds decrease in K), so |E_j| <= (|E_k| + (j-k)
        # delta |v_k| / rm) rm^(j-k); its first part alone decides most
        # terms, and before it the screen at rm = 1, which it cannot pass
        # unless the screen does (see the docstring), so rm, rho and g are
        # formed only where the screen passes, and delta where the part does
        thr = HYP2F1_TAIL_TOL * mag
        if yk * (abs(ek) * g_y) <= thr:
            rm = (1.0 + ra / K) * (1.0 + rb / K) / (1.0 - ae / K)
            rho = y * rm
            if rho < 1.0:
                g = rho / (1.0 - rho)
                if yk * (abs(ek) * g) <= thr:
                    delta = (lead_abs * K * K + 2.0 * cross * K + m * cross
                             + C * ae * (K + ab_sum + ae)) / ((K - ae) ** 2 * K * K)
                    if yk * (abs(ek) * g + delta * abs(vk) / rm * g / (1.0 - rho)) <= thr:
                        break
        ek = r_u * ek + d_uv * vk
        vk *= r_v
        yk *= y
        k = K

    pref = _gamma(c) * _rgamma(a) * _rgamma(b) * _rgamma(m + 1.0) * (-y) ** m
    if e:
        pref *= math.pi * e / math.sin(math.pi * e)
    return head + pref * total


def hyp2f1(a: float, b: float, c: float, x: float, *, comp: float | None = None) -> float:
    """Gauss hypergeometric F(a, b; c; x) on its box: 2^-511 <= a < 1, 0 < c
    - a < 1, -1 <= b < 1 and x in [0, 1], with c > a + b at x = 1, where F
    is finite.  That is the family of elliptic_K, elliptic_E and
    elliott_residual: a = 1/q or 1/r, c - a = 1/p*, and b = +-1/r, 1/r*,
    -1/q or 1/q* (b = -1 where -1/r* rounds to it, r above 2^53).  Anything
    else, NaN and +-inf included, raises DomainError.  c > a rules out the
    zeros F has below a, where the connection formula's two parts cancel; a
    >= 2^-511 keeps every product of two Gamma factors in the doubles (a and
    b both near DBL_MIN made their product overflow).

    comp, when given, is 1 - x, for callers that know it more accurately
    than 1 - x rounds to (x close to 1).  It must lie in [0, 1] and within
    1e-9 of 1 - x, else DomainError: a bound far above the rounding that
    comp corrects (half an ulp of 1) and above what the package's callers
    miss 1 - x by, 2.2e-16.  At x = 1 the Gauss summation formula is used.
    Where |b| < 2^-64 (b = 0 at x = 1), F is 1: F - 1 is within |b|
    ln(1/(1 - x)) <= 745 |b| < 2^-54 of 0; at b = -1 it is the polynomial
    1 - a x / c, formed as (c - a + a y) / c.  Otherwise, for x <= 1/2 the
    power series in x, and for x > 1/2 Gauss's connection formula to series
    in y = 1 - x <= 1/2; when c - a - b lies within HYP2F1_REG_EPS of an
    integer that formula is taken in a regularized form that is exact at the
    integer itself (the logarithmic case, e.g. the classical K), after
    Euler's transformation F = y^(c-a-b) F(c - a, c - b; c; x) where that
    integer is -1.  In the box c - a - b lies in (-1, 2) and the two parts
    of the connection formula cancel by at most a factor ~28 (a and c - a
    near 1, b near 0.87, x near 1/2), where the value stays within ~9e-15
    of mpmath.  F leaves the doubles only where 1 - x is subnormal and c -
    a - b near -1 (inf).  Every series stops on a certified tail bound and
    keeps no budget: each loop's term count is proved for the box, at most
    57 terms in _series and in the logarithmic sum of
    _connection_near_integer, so the cost is bounded independently of x;
    each power series, in x or in y, is one _series loop.
    """
    try:
        a, b, c, x = float(a), float(b), float(c), float(x)
    except OverflowError:  # an int beyond the doubles
        raise DomainError("hyp2f1 requires a, b, c and x within the doubles") from None
    # written so that NaN fails the test
    if not (2.0**-511 <= a < 1.0 and 0.0 < c - a < 1.0 and -1.0 <= b < 1.0):
        raise DomainError(
            f"hyp2f1 requires 2^-511 <= a < 1, 0 < c - a < 1 and -1 <= b < 1, "
            f"got ({a}, {b}, {c})")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"hyp2f1 argument must lie in [0, 1], got {x}")
    if comp is None:
        y = 1.0 - x
    elif 0.0 <= comp <= 1.0 and abs(comp - (1.0 - x)) <= 1e-9:
        y = float(comp)
    else:
        raise DomainError(
            f"hyp2f1 complement must lie in [0, 1] within 1e-9 of 1 - x, got {comp} at x = {x}")

    if abs(b) < 2.0**-64 and (y or not b):  # at x = 1 F - 1 grows like b / (c - a)
        return 1.0
    if b == -1.0:
        return ((c - a) + a * y) / c
    s = math.fsum((c, -a, -b))
    if y == 0.0:
        if s <= 0:
            raise DomainError("hyp2f1 at x = 1 requires c > a + b")
        sign = _cs.gammasgn(c) * _cs.gammasgn(s)
        sign /= _cs.gammasgn(c - a) * _cs.gammasgn(c - b)
        return sign * math.exp(
            _cs.gammaln(c) + _cs.gammaln(s) - _cs.gammaln(c - a) - _cs.gammaln(c - b)
        )

    if y >= 0.5:
        return _series(a, b, c, x)
    m = round(s)
    e = s - m
    if abs(e) > HYP2F1_REG_EPS:
        return _connection(a, b, c, s, y)
    if m >= 0:
        return _connection_near_integer(a, b, c, c - a, c - b, y, m, e)
    # Euler's transformation turns m = -1 into 1
    return _times_power(_connection_near_integer(c - a, c - b, c, a, b, y, -m, -e), y, s)
