"""Special functions: the three that the closed forms call, beta, the
Pochhammer ratio poch_ratio = (a)_n / (b)_n and the Gauss hypergeometric
function hyp2f1 on [0, 1], and every evaluation of the regularized
incomplete beta function and its inverse that gtf makes.  This is the
package's only module that imports scipy.

Every Wallis-type formula is a Pochhammer ratio times a generalized pi, and
the elliptic integrals and the primitives are 2F1 values.  gtf calls three
entries at its shapes a = 1/q, b = 1/p* (both at most 1), and each picks
its lane: _point_tails inverts a point, _inverse_tails an array and
_inc_beta sums I_t(a, b) on an array.  Arrays of fewer than INV_FIT_MIN
points take scipy's ufuncs, larger ones the fitted lane: _inc_beta's
polynomial of about 20 terms economized from its series, and inverses from
Chebyshev fits, one Newton step on that sum (_fitted_tails).  Both are
built once per shape, in bounded caches (_inverse_setup, _forward).  Scalar
Gamma and Boost calls take scipy's Cython kernels (the ufuncs' own code,
bit for bit, at a fraction of a ufunc call's cost).  The hypergeometric
function is evaluated here because call sites need a certified tail bound
on every series, the exact terminating polynomial when a parameter is a
nonpositive integer, Gauss summation at argument 1, and a cost that does not
grow as the argument approaches 1.  Differences ln Gamma(z + e) - ln
Gamma(z) come from the Stirling series without per-term transcendentals, and
a large-n Pochhammer ratio is one exp of such a difference times Gamma(b) /
Gamma(a), so neither costs more for a larger n or a smaller e.

Costs of hyp2f1 by branch, medians in the slow state of a shared 2-vCPU
x86-64 VM (BENCH_21.json): the power series at (1/3, 1/2, 0.93) 18 us at x =
0.3 and 30 us at x = 1/2; Gauss's connection formula at (1/3, 1/2, 1.2),
its two series in y and seven Gamma calls, 40 us at x = 0.7 and 15 us at
x = 0.99; the logarithmic (near-integer) form at (1/2, 1/2, 1), K's, 58 us
at x = 0.7 and 33 us at x = 0.99.  Every power series of F, in x or in y,
is summed by one loop, _series, which tests its tail after every term; most
terms settle that test with one inline product (_tail_certified).
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np
import scipy.special as sc
from scipy.special import cython_special as _cs

from .errors import ConvergenceError, DomainError, check_order

# a series stops once its certified tail is below this fraction of the sum
# of the magnitudes of its terms, the scale of its own rounding error
HYP2F1_TAIL_TOL = 2.0**-53
HYP2F1_MAX_TERMS = 300
# within this distance of an integer m, c - a - b takes the regularized
# connection formula; beyond it the plain one loses at most a factor
# ~1/HYP2F1_REG_EPS to the cancellation of its two Gamma poles
HYP2F1_REG_EPS = 0.1
# where the terms of the connection formula cancel by more than this factor
# (large parameters near x = 1/2) and x <= 3/4, the series in x is used
HYP2F1_CANCEL = 16.0
# below this n poch_ratio is a running product (relative error <= ~n eps)
POCH_SWITCH = 64
# arrays of at least INV_FIT_MIN points take the fitted lanes of _inc_beta
# and _inverse_tails, fewer scipy's ufuncs.  Inversions start from Chebyshev
# fits of degree INV_FIT_DEGREE, certified when their trailing coefficients
# are within INV_FIT_TOL; both lanes run INV_FIT_BLOCK points at a time.  A
# shape's setup (_inverse_setup, _forward) costs about 200 us once and is
# cached.  INV_FIT_MIN is where a call that builds its setup broke even with
# the ufuncs (400-700 points by shape, BENCH_7.json); a cached shape wins far
# below it
INV_FIT_MIN = 600
INV_FIT_DEGREE = 24
INV_FIT_TOL = 1e-12
INV_FIT_BLOCK = 1 << 15
# a certified fit keeps its leading coefficients up to a dropped tail of at
# most this fraction of its smallest node value: with the fit's own error
# its start is within 2^-30, relative, which one Newton step squares
INV_FIT_TRUNC = 2.0**-31
# _inc_beta's coefficients come from this many terms of F(a, 1 - b;
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
_gamma, _rgamma, _betainc, _betaincinv = (
    getattr(f, "__signatures__", {}).get("double", f)
    for f in (_cs.gamma, _cs.rgamma, _cs.betainc, _cs.betaincinv))
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


def _is_nonpos_int(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


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
    = z Gamma(z), each shift j adding ln(1 + t) / e, t = e / (z + j), as
    ln((z + j + e) / (z + j)), whose numerator is exact, where t < -1/2.
    Needs no pole between z and z + e.  Within ~1.3e-15 of mpmath relative to
    max(1, |value|) for z in [1e-3, 1e6], |e| in [1e-12, 3]; ~2 us plus
    ~0.45 us a shift (at most 10)."""
    total = 0.0
    shifts = max(0, math.ceil(_STIRLING_MIN - min(z, z + e)))
    for j in range(shifts):  # _log1p_ratio(t) / zj, inlined
        zj = z + j
        t = e / zj
        if t < -0.5:
            total -= math.log((zj + e) / zj) / e
        else:
            total -= (math.log1p(t) / t if t else 1.0) / zj
    return _stirling_diff(z + shifts, e, total)


def _gamma_quotient(num, den) -> float:
    """prod Gamma(num) / prod Gamma(den), zero where den meets a pole."""
    out = 1.0
    for z in num:
        out *= _gamma(z)
    for z in den:
        out *= _rgamma(z)
    return out


def _gamma_ratio_m1(z: float, e: float, ze: float) -> float:
    """(Gamma(z) / Gamma(ze) - 1) / e with ze = z + e, as accurate as the
    caller knows it; continued by -psi(z) at e = 0.  Near 1 it is one
    _lgamma_diff, ~2 us plus ~0.45 us a shift up to z >= 10 (4-7 us at the
    z < 1 of the connection formula, in the slow state of a shared 2-vCPU
    VM); far from 1, two scalar Gamma calls.  The ratios at z = 1 and z = m
    + 1, which depend on e alone, take _unit_gamma_ratios instead."""
    pole_gap = z if z >= 0.5 else abs(z - round(z))
    if 2.0 * abs(e) > pole_gap:  # the ratio is far from 1: no cancellation
        return (_gamma_quotient((z,), (ze,)) - 1.0) / e
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
    """(a)_n / (b)_n for a nonnegative integer n; the empty product n = 0 is 1.

    Below POCH_SWITCH, or unless a, b > 0, a running product of the factor
    ratios (a + m) / (b + m).  Above, Gamma(a + n) / Gamma(b + n), one exp of
    _stirling_diff, times Gamma(b) / Gamma(a) (DLMF 5.2.5), two Gamma calls
    where a, b lie in [DBL_MIN, _STIRLING_MIN] (Gamma(b) <= max(1/b, 9!) and
    1 / Gamma(a) in [min(a, 1/9!), 1.13]) and the exp in e^+-708, _lgamma_diff
    elsewhere: ~4 us for any n (14-19 us with two Stirling differences).
    Every Wallis-type closed form is such a ratio times a generalized pi.
    DomainError unless a and b are finite and (b)_n is nonzero."""
    a, b, n = float(a), float(b), check_order(n)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"poch_ratio requires finite a and b, got ({a}, {b})")
    if n >= POCH_SWITCH and a > 0 and b > 0:
        e = a - b
        if not e:
            return 1.0
        if min(a, b) < _DBL_MIN:  # subnormal: (a / b) (a + 1)_{n-1} / (b + 1)_{n-1}
            ratio, q = poch_ratio(a + 1.0, b + 1.0, n - 1), a / b
            return q * ratio if q >= _DBL_MIN else a * (ratio / b)
        lead = e * _stirling_diff(b + n, e)  # ln Gamma(a + n) - ln Gamma(b + n)
        if abs(lead) <= 708.0 and max(a, b) <= _STIRLING_MIN:  # min(a, b) >= DBL_MIN
            return math.exp(lead) * (_gamma(b) * _rgamma(a))
        try:  # ln Gamma(a) - ln Gamma(b), shifted up from the smaller: every t > 0
            return math.exp(lead - e * _lgamma_diff(min(a, b), abs(e)))
        except OverflowError:  # as the product overflows, to inf
            return math.inf
    if b <= 0.0 and b == math.floor(b) and -b < n:  # b + m = 0 for some m < n
        raise DomainError(f"poch_ratio: (b)_n has a zero factor at b = {b}, n = {n}")
    out = 1.0
    for m in range(n):
        out *= (a + m) / (b + m)
    return out


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) for x, y > 0, symmetric bit for bit; either
    may be inf, where B(x, inf) = 0.

    exp(ln Gamma(x) + ln Gamma(y) - ln Gamma(x + y)) while both are below
    _STIRLING_MIN.  From there on that exponent loses eps ln Gamma(max) to
    cancellation (B(1e16, 1) read about 1), so with s = min(x, y) and g =
    max(x, y), ln B = ln Gamma(s) - s D, where D = (ln Gamma(g + s) - ln
    Gamma(g)) / s is _lgamma_diff(g, s), which needs no shift here
    (_stirling_diff): within ~4.2 (1 + |ln B|) eps of mpmath for 10 <= g <=
    1e300.  inf where B is beyond the doubles, 0 where it underflows."""
    if not (x > 0 and y > 0):
        raise DomainError("beta requires positive arguments")
    if x < _STIRLING_MIN and y < _STIRLING_MIN:
        ln_b = _cs.gammaln(x) + _cs.gammaln(y) - _cs.gammaln(x + y)
    else:
        s = min(x, y)
        ln_b = _cs.gammaln(s) - s * _stirling_diff(max(x, y), s)
    # NaN is inf - inf: x, y both below ~5.6e-309 (B = inf), or both above
    # ~2.5e305 or one of them inf (B = 0)
    try:
        return math.exp(ln_b) if ln_b == ln_b else math.inf if max(x, y) < 1.0 else 0.0
    except OverflowError:  # B > 1/x at x, y near 1e-308
        return math.inf


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


def _horner(coef, x):
    """sum_j coef[j] x^j on an array x by Horner's rule, in place on one new
    array."""
    acc = np.full_like(x, coef[-1])
    for c in coef[-2::-1]:
        acc *= x
        acc += c
    return acc


def _hyp_m1(a: float, b: float):
    """(g, g(1/2)) for g(u) = F(a, 1 - b; a + 1; u) - 1 = u k(u) on arrays
    of points u <= 1/2, shapes a, b <= 1: k is the _INC_TERMS-term series,
    economized to a polynomial in x = 4u - 1 (_economize), and g(1/2) is g
    itself at u = 1/2.  The coefficients are read-only: _forward's cache
    shares them between calls."""
    mono = _economize(_inc_beta_terms(a, b))
    mono.flags.writeable = False

    def g(u):
        x = 4.0 * u
        x -= 1.0
        k = _horner(mono, x)
        k *= u
        return k

    return g, float(g(np.array([0.5]))[0])


def _split(mask):
    """The indices where mask is true and where it is false: each branch of
    a block is gathered with take and scattered back once, which on shuffled
    points costs a fraction of a boolean-mask gather or scatter."""
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def _lower_tail(a: float, b: float, g, g_half: float):
    """(lower, c, i_half): I_t(a, b) = t^a c (1 + g(t)) on an array of
    points t <= 1/2, c = 1 / (a B(a, b)) and I_{1/2}(a, b), from (g, g_half)
    = _hyp_m1(a, b)."""
    c = _gamma_quotient((a + b,), (a + 1.0, b))

    def lower(t):
        return t**a * c * (1.0 + g(t))

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
    come from the same polynomials, so the two branches meet at t = 1/2."""
    if i_half >= 0.5:
        def upper(s):
            j = swapped(s)
            return np.subtract(1.0, j, out=j)
        return upper
    c_hi = 0.5**b * c_sw

    def upper(s):
        with np.errstate(divide="ignore"):  # log(0) at s = 0
            e = np.expm1(b * np.log(s + s))  # (2s)^b - 1
        g = g_sw(s)
        s2b = 1.0 + e  # (2s)^b
        j = c_hi * s2b * (1.0 + g)  # I_s(b, a) = 1 - I_t(a, b)
        anchored = i_half + c_hi * ((g_sw_half - e) - s2b * g)
        return np.where(j > 0.5, anchored, 1.0 - j)

    return upper


@functools.lru_cache(maxsize=128)
def _forward(a: float, b: float):
    """(lower, swapped, upper, upper_swapped): I_t(a, b) on an array of
    points t <= 1/2, I_s(b, a) on an array of points s <= 1/2, I_t(a, b) on
    an array of points s = 1 - t <= 1/2 and I_s(b, a) on an array of points
    t = 1 - s <= 1/2, for shapes a, b <= 1 (_lower_tail, _upper_tail).  Each
    tail is accurate relative to its own value, so the inverses of both
    tails of a shape take their steps here.

    Built once per shape and cached (two economizations, ~80 us; a few kB
    an entry), since gtf repeats its shapes from call to call."""
    (g_lo, g_lo_half), (g_hi, g_hi_half) = _hyp_m1(a, b), _hyp_m1(b, a)
    lower, c_lo, i_half = _lower_tail(a, b, g_lo, g_lo_half)
    swapped, c_sw, j_half = _lower_tail(b, a, g_hi, g_hi_half)
    return (lower, swapped, _upper_tail(b, i_half, swapped, c_sw, g_hi, g_hi_half),
            _upper_tail(a, j_half, lower, c_lo, g_lo, g_lo_half))


def _inc_beta(a: float, b: float, t):
    """I_t(a, b) on an array t of points of [0, 1] for shapes a, b <= 1,
    owning its memory, so that numpy can reuse it in place as a temporary:
    gtf.asin_pq's arrays, validated there.  Fewer than INV_FIT_MIN points
    take scipy's ufunc (the float lane's Boost code, bit for bit), more the
    series below.

    For t <= 1/2, I_t(a, b) = t^a F(a, 1 - b; a + 1; t) / (a B(a, b)) (DLMF
    8.17.7); above, the same series of the swapped tail J = I_s(b, a) = 1 -
    I_t(a, b), s = 1 - t (DLMF 8.17.4), anchored at t = 1/2 where 1 - J
    would cancel (_upper_tail).  Every term is positive and below half the
    one before, and F - 1 = u k(u) is summed as k's economized polynomial in
    x = 4u - 1 (_hyp_m1).  The array is split once at t = 1/2 per block of
    INV_FIT_BLOCK points.  Against 50-digit mpmath, over 300 shapes (a and b
    down to 1e-6) at 45 points each, the relative error is at most 9.4e-16,
    most of it from the Gamma quotient in front, where Boost's betainc
    reaches 2.9e-15."""
    if t.size < INV_FIT_MIN:
        return sc.betainc(a, b, t)
    lower, _, upper, _ = _forward(a, b)
    out = np.empty(t.shape)
    flat_t, flat_out = t.reshape(-1), out.reshape(-1)  # the latter a view
    for start in range(0, t.size, INV_FIT_BLOCK):
        tb = flat_t[start:start + INV_FIT_BLOCK]
        ob = flat_out[start:start + INV_FIT_BLOCK]
        below, above = _split(tb <= 0.5)
        ob[below] = lower(tb.take(below))
        ob[above] = upper(1.0 - tb.take(above))  # 1 - t is exact here
    return out


def _newton_step(a: float, b: float, lnb: float, x, resid):
    """x after one guarded Newton step on I_x(a, b) = y, clipped to [0, 1],
    where resid = I_x(a, b) - y and the derivative is the beta density, lnb
    = ln B(a, b).  Where the density is 0, infinite or NaN (x at 0 or 1) x
    is kept.  With the shapes swapped it steps s = 1 - x: I_s(b, a) - (1 -
    y) = -resid, and the density is the same."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dens = np.exp((a - 1) * np.log(x) + (b - 1) * np.log1p(-x) - lnb)
        step = np.where(np.isfinite(dens) & (dens > 0), resid / dens, 0.0)
    np.subtract(x, step, out=step)
    np.maximum(0.0, step, out=step)  # the bits of np.clip, -0.0 included
    return np.minimum(1.0, step, out=step)


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


def _inv_fit_eval(fit, w):
    """t with I_t(a, b) = w (w <= I_{1/2}(a, b)) from a fit of _inv_fit:
    z (a power of w) times h(z), a polynomial in x = 2 z / z_max - 1."""
    a, lnab, z_max, mono = fit
    z = np.exp((np.log(w) + lnab) / a)
    x = z * (2.0 / z_max)
    x -= 1.0
    t = _horner(mono, x)
    t *= z
    return t


def _fit_step(fit, a: float, b: float, lnb: float, w, resid):
    """x with I_x(a, b) = w on an array w: the start of a fit of _inv_fit
    and one Newton step, where resid(x) is I_x(a, b) - w as the caller
    evaluates it (from the argument it knows exactly, where 1 - w is
    rounded)."""
    x = _inv_fit_eval(fit, w)
    return _newton_step(a, b, lnb, x, resid(x))


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
    1 - t (_inverse_tails).  An entry holds a few kB of coefficients, never
    a result."""
    lnb = float(sc.betaln(a, b))
    lower, swapped, _, _ = _forward(a, b)
    y_half = _half_mass(a, b)
    fits = (_inv_fit(a, b, lnb, y_half, lower),
            _inv_fit(b, a, lnb, _half_mass(b, a), swapped))
    return lnb, y_half, None if None in fits else fits


def _point_tails(a: float, b: float, lo: float, hi: float, y: float, yc: float, tails):
    """(t, s) of _inverse_tails at one point, Python floats from Boost's
    scalar kernel (the ufunc's code, bit for bit): gtf's float lane.  A tail
    not asked for is 1 minus the other."""
    t = s = None
    if y <= (hi if tails[0] else lo):
        t = 0.5 if a == b and y == 0.5 else _betaincinv(a, b, y)
    if y > (lo if tails[1] else hi):
        s = 0.5 if a == b and yc == 0.5 else _betaincinv(b, a, yc)
    return 1.0 - s if t is None else t, 1.0 - t if s is None else s


def _inverse_tails(a: float, b: float, lo: float, hi: float, y, yc, tails):
    """(t, s) with I_t(a, b) = y and s = 1 - t, I_s(b, a) = yc, at arrays y
    and yc = 1 - y (rounded on its own) of points of [0, 1], shapes a, b <=
    1, and lo, hi the smaller and the larger of 1/2 and I_{1/2}(a, b)
    (gtf._pair): those that tails = (want_t, want_s) asks for (None for the
    other), each accurate relative to its own argument.  a, b, lo and hi are
    floats, or arrays that broadcast against y with a point's own values
    (gtf's lane for several pairs), and each rule below then holds per
    point.

    One solved value serves both tails, the other being 1 minus it (DLMF
    8.17.4), where it is <= 1/2 and its argument is the smaller of y and yc,
    so that its complement carries no larger error than that argument's
    rounding: t up to y = lo, s above hi.  In the band between them each
    tail is solved from its own argument, so a point is inverted twice only
    there, and only when both tails are asked for.  Fewer than INV_FIT_MIN
    points, arrays of shapes, and shapes whose fits are not certified, take
    scipy's ufunc with the shapes swapped point by point (the float lane's
    Boost code, bit for bit, whether the shapes are floats or arrays); a
    small array never builds a setup.  More take _fitted_tails.  At a = b a
    tail's argument 1/2 gives 1/2 in every lane, since I_{1/2}(a, a) = 1/2,
    where Boost's inverse misses it by up to 1.3e-8 at some a (68 of 4000
    random p in (1, 100) at a = 1/p*)."""
    t_top = hi if tails[0] else lo  # t is solved from y where y <= t_top
    s_bottom = lo if tails[1] else hi  # s from yc where y > s_bottom
    if y.size >= INV_FIT_MIN and not isinstance(a, np.ndarray):
        lnb, y_half, fits = _inverse_setup(a, b)
        if fits is not None:
            return _fitted_tails(a, b, lnb, y_half, fits, y, yc, t_top, s_bottom, tails)
    up = y > t_top
    w = np.where(up, yc, y)
    r = sc.betaincinv(np.where(up, b, a), np.where(up, a, b), w)
    equal = a == b
    if _anywhere(equal):
        r[(w == 0.5) & equal] = 0.5
    rc = 1.0 - r
    t = np.where(up, rc, r) if tails[0] else None
    s = np.where(up, r, rc) if tails[1] else None
    if _anywhere(s_bottom < t_top):  # both asked for, and a band: its s from yc
        band = (y > s_bottom) & ~up
        s[band] = sc.betaincinv(_at(b, band), _at(a, band), yc[band])
    return t, s


def _anywhere(cond) -> bool:
    """Whether a comparison holds anywhere: as it is for two floats (a
    bool), at any point for arrays of shapes (a bool array)."""
    return cond if isinstance(cond, bool) else bool(cond.any())


def _at(v, mask):
    """A shape, or any per-pair value, at the points a boolean mask selects:
    a float as it is, an array (a value a point or a pair) broadcast to the
    mask's shape first."""
    return v if isinstance(v, float) else np.broadcast_to(v, mask.shape)[mask]


def _fitted_tails(a: float, b: float, lnb: float, y_half: float, fits, y, yc,
                  t_top: float, s_bottom: float, tails):
    """_inverse_tails' fitted lane, on a certified setup (lnb, y_half, fits)
    of _inverse_setup(a, b): t from y where y <= t_top, s from yc where y >
    s_bottom.  Each branch solves a value <= 1/2: t below y_half (the fit of
    (a, b), one Newton step on lower), s' = 1 - t above it from 1 - y (the
    fit of (b, a), a step on upper, anchored where 1 - I_s(b, a) would
    cancel); likewise s above y_half (the fit of (b, a) at yc, a step on
    swapped) and t' = 1 - s below it from 1 - yc (upper_swapped).  Blocks of
    INV_FIT_BLOCK points keep temporaries small, each split once into the
    index lists of its branches."""
    lower, swapped, upper, upper_swapped = _forward(a, b)
    flat, flat_c = y.ravel(), yc.ravel()
    t = np.empty_like(flat) if tails[0] else None
    s = np.empty_like(flat) if tails[1] else None
    with np.errstate(divide="ignore", under="ignore"):  # log(0) at y = 0, 1
        for start in range(0, flat.size, INV_FIT_BLOCK):
            block = slice(start, start + INV_FIT_BLOCK)
            yb, cb = flat[block], flat_c[block]
            tb = None if t is None else t[block]
            sb = None if s is None else s[block]

            def put(idx, x, solved_t):
                """x, solved for t or for s at the points idx, and 1 - x
                for the other."""
                if tb is not None:
                    tb[idx] = x if solved_t else 1.0 - x
                if sb is not None:
                    sb[idx] = 1.0 - x if solved_t else x

            # t <= 1/2 from y up to y_half, s <= 1/2 from yc above it
            own = np.flatnonzero(yb <= min(y_half, t_top))
            w = yb.take(own)
            x = _fit_step(fits[0], a, b, lnb, w, lambda x: lower(x) - w)
            if a == b:
                x[w == 0.5] = 0.5
            put(own, x, True)
            own = np.flatnonzero(yb > max(y_half, s_bottom))
            w = cb.take(own)
            x = _fit_step(fits[1], b, a, lnb, w, lambda x: swapped(x) - w)
            if a == b:
                x[w == 0.5] = 0.5
            put(own, x, False)
            # the band, over the complements just put: t > 1/2 from y as 1
            # - s' (the fit of (b, a) at 1 - y), or s > 1/2 from yc as 1 - t'
            if y_half < t_top:
                band = np.flatnonzero((yb > y_half) & (yb <= t_top))
                w = yb.take(band)
                tb[band] = 1.0 - _fit_step(fits[1], b, a, lnb, 1.0 - w,
                                           lambda x: w - upper(x))
            if s_bottom < y_half:
                band = np.flatnonzero((yb > s_bottom) & (yb <= y_half))
                w = cb.take(band)
                sb[band] = 1.0 - _fit_step(fits[0], a, b, lnb, 1.0 - w,
                                           lambda x: w - upper_swapped(x))
    return tuple(None if v is None else v.reshape(y.shape) for v in (t, s))


def _budget_spent(what: str, a, b, c, x):
    return ConvergenceError(
        f"hyp2f1: {what} at argument {x} spent its budget of "
        f"{HYP2F1_MAX_TERMS} terms (a={a}, b={b}, c={c})",
        layer="specfun.hyp2f1", terms=HYP2F1_MAX_TERMS, budget=HYP2F1_MAX_TERMS,
    )


def _tail_certified(size: float, mag: float, m: float, aa: float, ab: float,
                    ac: float, x: float) -> bool:
    """The ratio test that stops a power series after term m >= |c| + 2 of
    magnitude size, with mag the sum of the magnitudes so far and aa, ab, ac
    = |a|, |b|, |c|: rho = (m + |a|)(m + |b|) / ((m - |c|)(m + 1)) x bounds
    the next ratios, and the tail size rho / (1 - rho) must be within
    HYP2F1_TAIL_TOL mag.  rho >= m x / (m + 1) >= 2x/3 there, so the test
    cannot pass unless size x / 2 <= HYP2F1_TAIL_TOL mag, which the loops
    check first, inline, so that most terms skip this call."""
    rho = (m + aa) * (m + ab) / ((m - ac) * (m + 1.0)) * x
    return rho < 1.0 and size * rho / (1.0 - rho) <= HYP2F1_TAIL_TOL * mag


def _series(a: float, b: float, c: float, x: float, head: float = 1.0) -> float:
    """head - 1 plus the power series of F(a, b; c; x), x in [0, 1), summed
    with Kahan compensation until _tail_certified (c not a nonpositive
    integer): F itself at head = 1, and at head = 0 F - 1 without the leading
    1, so that it keeps its relative accuracy however small x is."""
    aa, ab, ac = abs(a), abs(b), abs(c)
    n_safe = int(math.ceil(max(aa, ab, ac))) + 2  # the test's first term
    term, total, comp, mag = 1.0, head, 0.0, head
    tol, hx = HYP2F1_TAIL_TOL, 0.5 * x
    for n in range(HYP2F1_MAX_TERMS):
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
    raise _budget_spent("series", a, b, c, x)


def _connection(a: float, b: float, c: float, s: float, y: float):
    """(F(a, b; c; 1 - y), sum of the magnitudes of the parts added) for y
    in (0, 1/2) by Gauss's connection formula (A&S 15.3.6, DLMF 15.8.4), for
    s = c - a - b at least HYP2F1_REG_EPS from an integer: seven scalar
    Gamma calls and the two series in y, each a _series."""
    gc = _gamma(c)
    f1, f2 = _series(a, b, 1.0 - s, y), _series(c - a, c - b, 1.0 + s, y)
    t1 = gc * _gamma(s) * _rgamma(c - a) * _rgamma(c - b) * f1
    t2 = gc * _gamma(-s) * _rgamma(a) * _rgamma(b) * f2 * y**s
    return t1 + t2, abs(t1) + abs(t2)


def _connection_near_integer(a: float, b: float, c: float, ca: float, cb: float,
                             y: float, m: int, e: float):
    """(F(a, b; c; 1 - y), sum of the magnitudes of the parts added) for y
    in (0, 1/2) and c - a - b = m + e, m >= 0 an integer and |e| <=
    HYP2F1_REG_EPS; ca and cb are c - a and c - b.

    A&S 15.3.6 with the poles of Gamma(c-a-b) and Gamma(a+b-c) cancelled
    analytically (Forrey, J. Comput. Phys. 137, 1997; Michel & Stoitsov,
    Comput. Phys. Commun. 178, 2008): the first m terms of the first series,
    plus (-1)^m y^m Gamma(c) / (Gamma(a) Gamma(b)) (pi e / sin(pi e)) times
    sum_k y^k E_k with E_k = (u_k - v_k) / e,

        u_k = Gamma(a+m+k) Gamma(b+m+k)
              / (Gamma(a+m+e) Gamma(b+m+e) Gamma(k+1-e) (m+k)!),
        v_k = y^e Gamma(a+m+k+e) Gamma(b+m+k+e)
              / (Gamma(a+m+e) Gamma(b+m+e) Gamma(m+k+1+e) k!).

    E_0 is formed from (Gamma(z) / Gamma(z + e) - 1) / e and E_k by the
    recurrence E_{k+1} = r_u E_k + v_k (r_u - r_v) / e, with (r_u - r_v) / e
    in closed form; nothing is divided by e numerically, so e = 0 gives the
    logarithmic formulas A&S 15.3.10-15.3.12 and small e stays accurate.

    Cost: two _gamma_ratio_m1 calls (qa and qb, each an _lgamma_diff), the
    e-only ratios g1 and q1 from one 11-term polynomial (_unit_gamma_ratios,
    ~2 us), three scalar Gamma calls (seven with the head), and ~1.3 us a
    term of the sum in y, whose tail bound forms delta only once its first
    part passes.
    """
    head = 0.0
    if m:  # sum_{n<m} (a)_n (b)_n / ((1-m-e)_n n!) y^n, a polynomial
        term = total = 1.0
        for n in range(m - 1):
            term *= (a + n) * (b + n) / (((n + 1 - m) - e) * (n + 1.0)) * y
            total += term
        head = _gamma_quotient((c, m + e), (ca, cb)) * total

    mfact = math.factorial(m)
    qa = _gamma_ratio_m1(a + m, e, cb)  # a + m + e = c - b
    qb = _gamma_ratio_m1(b + m, e, ca)
    g1, q1 = _unit_gamma_ratios(m, e)
    ly = math.log(y)
    ey = ly * _expm1_ratio(e * ly)  # y^e = 1 + e ey
    ek = ((qa + qb + g1 - ey - q1) + e * (qa * qb + (qa + qb) * g1 - ey * q1)
          + e * e * qa * qb * g1) / mfact
    vk = math.exp(e * ly) * (1.0 + e * q1) / mfact
    al, be, ae = a + m - 1.0, b + m - 1.0, abs(e)
    lead = a + b + m - 2.0
    lead_abs, cross, ab_sum = abs(lead), abs(al * be), abs(al + be)
    two_albe, m_albe, ra, rb = 2.0 * al * be, m * al * be, abs(al) + ae, abs(be) + ae

    total = mag = 0.0
    yk = 1.0
    for k in range(HYP2F1_MAX_TERMS):
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
        # delta |v_k| / rm) rm^(j-k); its first part alone, below, decides
        # most terms, and delta is formed only where that part passes
        rm = (1.0 + ra / K) * (1.0 + rb / K) / (1.0 - ae / K)
        rho = y * rm
        if rho < 1.0:
            g = rho / (1.0 - rho)
            tail = yk * (abs(ek) * g)
            thr = HYP2F1_TAIL_TOL * mag
            if tail <= thr:
                delta = (lead_abs * K * K + 2.0 * cross * K + m * cross
                         + C * ae * (K + ab_sum + ae)) / ((K - ae) ** 2 * K * K)
                if yk * (abs(ek) * g + delta * abs(vk) / rm * g / (1.0 - rho)) <= thr:
                    break
        ek = r_u * ek + d_uv * vk
        vk *= r_v
        yk *= y
    else:
        raise _budget_spent("logarithmic connection series", a, b, c, 1.0 - y)

    pref = _gamma_quotient((c,), (a, b)) * (-y) ** m
    if e:
        pref *= math.pi * e / math.sin(math.pi * e)
    return head + pref * total, abs(head) + abs(pref) * mag


def hyp2f1(a: float, b: float, c: float, x: float, *, comp: float | None = None) -> float:
    """Gauss hypergeometric F(a, b; c; x) for x in [0, 1].

    comp, when given, is 1 - x, for callers that know it more accurately
    than 1 - x rounds to (x close to 1).  It must lie in [0, 1] and within
    1e-9 of 1 - x, else DomainError: a bound far above the rounding that
    comp corrects (half an ulp of 1) and above what the package's callers
    miss 1 - x by (elliptic_K, elliptic_E and elliott_residual 2.2e-16,
    primitive_sin_cos 5.3e-14 at p, q up to 1000).  When a or b is a
    nonpositive integer the exact terminating polynomial is returned.  At x = 1
    (requires c > a + b) the Gauss summation formula is used.  Otherwise,
    for x <= 1/2 the power series in x, and for x > 1/2 Gauss's connection
    formula to series in y = 1 - x <= 1/2; when c - a - b lies within
    HYP2F1_REG_EPS of an integer that formula is taken in a regularized form
    that is exact at the integer itself (the logarithmic case, e.g. the
    classical K).  Where the two parts of the connection formula cancel
    (large parameters, x near 1/2) and x <= 3/4, the series in x is used
    after all.  Every series stops on a certified tail bound, within
    HYP2F1_MAX_TERMS terms, so the cost is bounded independently of x; each
    power series, in x or in y, is one _series loop.  NaN or +-inf in a, b
    or c raises DomainError.
    """
    a, b, c, x = float(a), float(b), float(c), float(x)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise DomainError(f"hyp2f1 requires finite a, b and c, got ({a}, {b}, {c})")
    if _is_nonpos_int(c):
        raise DomainError("c must not be zero or a negative integer")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"hyp2f1 argument must lie in [0, 1], got {x}")
    if comp is None:
        y = 1.0 - x
    elif 0.0 <= comp <= 1.0 and abs(comp - (1.0 - x)) <= 1e-9:
        y = float(comp)
    else:
        raise DomainError(
            f"hyp2f1 complement must lie in [0, 1] within 1e-9 of 1 - x, got {comp} at x = {x}")

    if _is_nonpos_int(a) or _is_nonpos_int(b):  # the lower order terminates
        total = term = 1.0
        for n in range(int(-max(s for s in (a, b) if _is_nonpos_int(s)))):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
            total += term
        return total

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
        value, scale = _connection(a, b, c, s, y)
    elif m >= 0:
        value, scale = _connection_near_integer(a, b, c, c - a, c - b, y, m, e)
    else:  # Euler's transformation F = y^s F(c-a, c-b; c; 1-y) turns m into -m
        value, scale = _connection_near_integer(c - a, c - b, c, a, b, y, -m, -e)
        value, scale = y**s * value, y**s * scale
    if y >= 0.25 and not scale <= HYP2F1_CANCEL * abs(value):  # NaN too
        try:
            return _series(a, b, c, x)
        except ConvergenceError:  # parameters too large for the budget
            pass
    if math.isnan(value):  # inf * 0 among the Gamma factors of huge parameters
        raise ConvergenceError(
            f"hyp2f1: connection coefficients overflow (a={a}, b={b}, c={c}, "
            f"x={x})", layer="specfun.hyp2f1")
    return value
