"""Special functions: log-gamma, beta, the Pochhammer ratio (a)_n / (b)_n,
the regularized incomplete beta function and its Newton-polished inverse
(for a point or an array; large arrays start from a fitted inverse), and the
Gauss hypergeometric function on [0, 1].

Gamma/beta plumbing is delegated to scipy.special; the scalar Gamma calls
take its Cython kernels (scipy.special.cython_special: the ufuncs' own code,
bit for bit, at a fraction of a ufunc call's cost).  The incomplete beta
function is summed here for shapes a, b <= 1 (all that gtf uses), on arrays,
as a polynomial of about 20 terms economized from its series, and taken from
scipy's betainc otherwise; scipy's betaincinv is the start of the inverse
wherever no certified fit is.  The fits and the polynomial share one Horner
loop (_horner), and both are built once per shape and kept in bounded
caches (_inverse_setup, _forward).  The hypergeometric function is evaluated
here because call sites need a certified tail bound on every series, the exact
terminating polynomial when a parameter is a nonpositive integer, Gauss
summation at argument 1, and a cost that does not grow as the argument
approaches 1.  Differences ln Gamma(z + e) - ln Gamma(z) come from the
Stirling series, so large-n Pochhammer ratios and the logarithmic
connection formulas cost the same for every n and every e.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np
import scipy.special as sc
from scipy.special import cython_special as _cs

from .errors import ConvergenceError, DomainError, check_order, within

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
# inc_beta_reg_inv starts arrays of at least INV_FIT_MIN points from
# Chebyshev fits of degree INV_FIT_DEGREE, certified when their trailing
# coefficients are within INV_FIT_TOL, evaluated INV_FIT_BLOCK points at a
# time.  A shape's setup, both fits and the forward sums (_inverse_setup,
# _forward), costs about 200 us once and is cached; each call then costs
# 90 us at 600 points, 101 at 1000 and 125 at 2000, against 304, 316 and 341
# when every call built its own, and scipy's betaincinv's 336, 564 and 1122
# (at gtf's shapes (a, b) = (1/3, 0.6) on a shared 2-vCPU x86-64 VM, best of
# 7 repeats).  inc_beta_reg, cached, took 48, 53 and 64 us against 138, 146
# and 159 uncached and betainc's 63, 111 and 229.  INV_FIT_MIN was set where
# the uncached lane broke even (400-700 points by shape, BENCH_7.json); a
# cached shape wins far below it, but the first call at a shape pays its setup
INV_FIT_MIN = 600
INV_FIT_DEGREE = 24
INV_FIT_TOL = 1e-12
INV_FIT_BLOCK = 1 << 15
# a certified fit keeps its leading coefficients up to a dropped tail of at
# most this fraction of its smallest node value: with the fit's own error
# its start is within 2^-30, relative, which one Newton step squares
INV_FIT_TRUNC = 2.0**-31
# inc_beta_reg's coefficients come from this many terms of F(a, 1 - b;
# a + 1; u), u <= 1/2: for shapes a, b <= 1 the n-th term is positive and
# below u^n, so the terms left out add less than 2^-56 / (1 - 1/2) = 2^-55
# of the sum (whose first is 1).  They are summed as their economized
# polynomial, within _POLY_TOL k(0), which keeps at most _POLY_TERMS terms
# on every such shape (_economize; 19-22 on every shape tried)
_INC_TERMS = 56
_POLY_TERMS = 23
_POLY_TOL = 2.0**-56

_DBL_MIN = sys.float_info.min
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


def _is_nonpos_int(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def _log1p_ratio(t: float) -> float:
    """log1p(t) / t, continued by 1 at t = 0."""
    return math.log1p(t) / t if t else 1.0


def _expm1_ratio(t: float) -> float:
    """expm1(t) / t, continued by 1 at t = 0."""
    return math.expm1(t) / t if t else 1.0


def _lgamma_diff(z: float, e: float) -> float:
    """(ln|Gamma(z + e)| - ln|Gamma(z)|) / e, continued by psi(z) at e = 0.

    Both arguments are shifted up to Stirling range with Gamma(z + 1) =
    z Gamma(z), each shift adding one log1p term, and the difference of the
    two Stirling series is formed term by term; so no two large logarithms
    are subtracted and the quotient keeps its accuracy as e -> 0.  Needs
    (z + j + e) / (z + j) > 0 for every shift j: no pole between z and z + e.
    """
    total = 0.0
    shifts = max(0, math.ceil(_STIRLING_MIN - min(z, z + e)))
    for j in range(shifts):
        zj = z + j
        total -= _log1p_ratio(e / zj) / zj
    w = z + shifts
    t = e / w
    lt = _log1p_ratio(t)
    # [(w + e - 1/2) ln(w + e) - (w - 1/2) ln w - e] / e
    total += (w - 0.5) / w * lt + math.log(w + e) - 1.0
    # sum_k c_k [(w + e)^(1-2k) - w^(1-2k)] / e
    inv2 = 1.0 / (w * w)
    power = inv2
    l1p = t * lt
    for k, coef in enumerate(_STIRLING, 1):
        u = (1 - 2 * k) * l1p
        total += coef * power * (1 - 2 * k) * _expm1_ratio(u) * lt
        power *= inv2
    return total


def _gamma_quotient(num, den) -> float:
    """prod Gamma(num) / prod Gamma(den), zero where den meets a pole."""
    out = 1.0
    for z in num:
        out *= _cs.gamma(z)
    for z in den:
        out *= _cs.rgamma(z)
    return out


def _gamma_ratio_m1(z: float, e: float, ze: float) -> float:
    """(Gamma(z) / Gamma(ze) - 1) / e with ze = z + e, as accurate as the
    caller knows it; continued by -psi(z) at e = 0."""
    pole_gap = z if z >= 0.5 else abs(z - round(z))
    if 2.0 * abs(e) > pole_gap:  # the ratio is far from 1: no cancellation
        return (_gamma_quotient((z,), (ze,)) - 1.0) / e
    lam = _lgamma_diff(z, e)
    return -lam * _expm1_ratio(-e * lam)


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return _cs.gammaln(x)


def poch_ratio(a: float, b: float, n: int) -> float:
    """(a)_n / (b)_n for a nonnegative integer n; the empty product n = 0 is 1.

    Below POCH_SWITCH, or unless a, b > 0, a running product of the factor
    ratios (a + m) / (b + m).  From POCH_SWITCH on one exp of
    [ln Gamma(n + a) - ln Gamma(n + b)] - [ln Gamma(a) - ln Gamma(b)], both
    differences from the Stirling series, so the cost does not grow with n.
    Every Wallis-type closed form is such a ratio times a generalized pi.
    """
    n = check_order(n)
    if n >= POCH_SWITCH and a > 0 and b > 0:
        e = a - b
        try:
            return math.exp(e * (_lgamma_diff(b + n, e) - _lgamma_diff(b, e)))
        except OverflowError:  # as the product overflows, to inf
            return math.inf
    out = 1.0
    for m in range(n):
        out *= (a + m) / (b + m)
    return out


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) for x, y > 0."""
    if not (x > 0 and y > 0):
        raise DomainError("beta requires positive arguments")
    return math.exp(ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y))


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
    1/2 at every s <= 1/2 and 1 - J cannot cancel; only the other shapes
    take the form anchored at t = 1/2 (inc_beta_reg)."""
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
    t = 1 - s <= 1/2; inc_beta_reg's sums for shapes a, b <= 1 (_lower_tail,
    _upper_tail), scipy's betainc otherwise.  Each tail is accurate relative
    to its own value, so the inverses of both tails of a shape take their
    steps here.

    Built once per shape and cached (two economizations, ~80 us; a few kB
    an entry), since gtf repeats its shapes from call to call."""
    if not (a <= 1.0 and b <= 1.0):
        return ((lambda t: sc.betainc(a, b, t)), (lambda s: sc.betainc(b, a, s)),
                (lambda s: sc.betainc(a, b, 1.0 - s)),
                (lambda t: sc.betainc(b, a, 1.0 - t)))
    (g_lo, g_lo_half), (g_hi, g_hi_half) = _hyp_m1(a, b), _hyp_m1(b, a)
    lower, c_lo, i_half = _lower_tail(a, b, g_lo, g_lo_half)
    swapped, c_sw, j_half = _lower_tail(b, a, g_hi, g_hi_half)
    return (lower, swapped, _upper_tail(b, i_half, swapped, c_sw, g_hi, g_hi_half),
            _upper_tail(a, j_half, lower, c_lo, g_lo, g_lo_half))


def _inc_beta(a: float, b: float, t):
    """I_t(a, b) on an array t of points of [0, 1]: the series of
    inc_beta_reg for shapes a, b <= 1, split once per block of INV_FIT_BLOCK
    points at t = 1/2, and scipy's betainc for other shapes.  The result
    owns its memory, so that numpy can reuse it in place as a temporary."""
    if not (a <= 1.0 and b <= 1.0):
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


def inc_beta_reg(a: float, b: float, t):
    """Regularized incomplete beta function I_t(a, b) at a point or an array
    t of [0, 1] (NaN is rejected).

    For shapes a, b <= 1, all that gtf uses, it is summed here, INV_FIT_BLOCK
    points at a time.  For t <= 1/2, I_t(a, b) = t^a F(a, 1 - b; a + 1; t) /
    (a B(a, b)) (DLMF 8.17.7); above, the same series of the swapped tail
    J = I_s(b, a) = 1 - I_t(a, b), s = 1 - t (DLMF 8.17.4).  Every term is
    positive and its ratio to the one before is below 1/2, so _INC_TERMS
    terms leave a tail below 2^-55 of the sum.  F - 1 = u k(u) is not summed
    term by term: k's series is re-expanded in Chebyshev polynomials of x =
    4u - 1 on u in [0, 1/2], where every coefficient is a sum of nonnegative
    terms, cut after the coefficients (at most 23; 19-22 on every shape
    tried) that leave a tail below 2^-56 k(0), and summed by Horner's rule
    in x from its monomial coefficients (_economize).  Where J > 1/2, 1 - J would cancel
    (I_t(a, b) < 1/2 at t > 1/2, which happens when I_{1/2}(a, b) < 1/2:
    small b; never where I_{1/2}(a, b) >= 1/2, see _forward); there the
    value is anchored at t = 1/2 instead, as
    I_{1/2}(a, b) plus the mass of (1/2, t],

        2^-b / (b B(a, b)) [g(1/2) - ((2s)^b - 1) - (2s)^b g(s)],

    with g = F(b, 1 - a; b + 1; .) - 1: both parts are nonnegative and
    (2s)^b - 1 is an expm1, so nothing cancels; I_{1/2}(a, b) and g(1/2) come
    from the same polynomials, so the two branches meet at t = 1/2.
    Against 50-digit mpmath, over 300 shapes (a and b down to 1e-6) at 45
    points each, the relative error is at most 9.4e-16 (7.6e-16 in a second
    scan of 300 shapes and 13 500 points, the same as the series summed term
    by term), most of it from the Gamma quotient in front, where Boost's
    reaches 2.9e-15.  Other shapes take scipy's betainc (Boost).
    """
    if not (a > 0 and b > 0):
        raise DomainError("inc_beta_reg requires positive shape parameters")
    tt = np.asarray(t, dtype=float)
    if not within(tt, 0.0, 1.0):
        raise DomainError("inc_beta_reg requires t in [0, 1]")
    out = _inc_beta(a, b, tt)
    return float(out) if out.ndim == 0 else out


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
    most shapes, and scipy's scalar kernel otherwise."""
    return 0.5 if a == b else _cs.betainc(a, b, 0.5)


@functools.lru_cache(maxsize=128)
def _inverse_setup(a: float, b: float):
    """(lnb, y_half, lower, upper, fits): what the fitted inverses of the
    shapes (a, b) need, built once per shape and cached, as _forward is.
    lnb = ln B(a, b), y_half = _half_mass(a, b), lower and upper are
    _forward's, and fits the two fits of _inv_fit, of (a, b) below y_half
    and of (b, a) above it, or None unless both are certified.  One entry
    serves both tails, t and s = 1 - t (_inverse_tails).  An entry holds a
    few kB of coefficients, never a result."""
    lnb = float(sc.betaln(a, b))
    lower, swapped, upper, _ = _forward(a, b)
    y_half = _half_mass(a, b)
    fits = (_inv_fit(a, b, lnb, y_half, lower),
            _inv_fit(b, a, lnb, _half_mass(b, a), swapped))
    return lnb, y_half, lower, upper, None if None in fits else fits


def _inverse_tails(a: float, b: float, y, yc, want_t=True, want_s=True):
    """(t, s) with I_t(a, b) = y and s = 1 - t, I_s(b, a) = yc, at arrays y
    and yc = 1 - y (rounded on its own) of points of [0, 1], each accurate
    relative to its own argument where it is wanted (want_t, want_s; the
    other is None): the fitted lane of gtf's inversions and of
    inc_beta_reg_inv, from the one setup _inverse_setup(a, b), or None
    where its fits are not certified.

    t is solved from y, and s from yc, each in a branch that solves a value
    <= 1/2: t <= 1/2 below y_half = I_{1/2}(a, b) (the fit of (a, b), one
    Newton step on lower) and above it s' = 1 - t <= 1/2 from 1 - y (the
    fit of (b, a), a step on upper, anchored at 1/2 where 1 - I_s(b, a)
    would cancel); likewise s <= 1/2 above y_half (the fit of (b, a) at
    yc, a step on swapped) and below it t' = 1 - s from 1 - yc
    (upper_swapped).  One value serves both tails, the other being 1 minus
    it (DLMF 8.17.4), wherever the solved value is <= 1/2 and its argument
    is the smaller of y and yc: there the complement carries no larger
    error than its own argument's rounding.  That holds outside the band
    between y_half and 1/2, so a point is solved once unless it lies in the
    band and both tails are wanted; at a = b, y_half = 1/2 and there is no
    band.  Blocks
    of INV_FIT_BLOCK points keep temporaries small; each block is split once
    into the index lists of its branches, and a branch runs its fit, its
    step and its forward function on its own gathered points.  At a = b, a
    tail's argument 1/2 gives 1/2, since I_{1/2}(a, a) = 1/2."""
    lnb, y_half, _, _, fits = _inverse_setup(a, b)
    if fits is None:
        return None
    lower, swapped, upper, upper_swapped = _forward(a, b)
    lo, hi = min(y_half, 0.5), max(y_half, 0.5)
    t_top = hi if want_t else lo  # t is solved from y where y <= t_top
    s_bottom = lo if want_s else hi  # s from yc where y > s_bottom
    flat, flat_c = y.ravel(), yc.ravel()
    t = np.empty_like(flat) if want_t else None
    s = np.empty_like(flat) if want_s else None
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


def inc_beta_reg_inv(a: float, b: float, y):
    """Inverse of I_x(a, b) in x, polished to |I_x(a,b) - y| <= 1e-14.

    y is a point of [0, 1] or an array of them (NaN is rejected).  Each start
    is polished by one guarded Newton step.  The start is scipy's betaincinv
    (Boost) and the step is taken on scipy's betainc, except for arrays of
    at least INV_FIT_MIN points, where the start comes from two Chebyshev
    fits of the inverse (_inv_fit), one on each side of
    y_half = I_{1/2}(a, b), and the step on inc_beta_reg (its polynomial for
    shapes a, b <= 1, scipy's betainc otherwise): _inverse_tails at y and
    1 - y (exact where it is used, above max(y_half, 1/2)), whose branches
    each solve a value <= 1/2, x or s = 1 - x, and split no further.  The
    fits and the forward functions are built once per shape
    (_inverse_setup, _forward: 2 INV_FIT_DEGREE scipy inversions and their
    polish, and two economizations) and cached for later calls.  At (a, b)
    = (1/3, 0.6) and its swap on a shared 2-vCPU x86-64 VM, the setup cost
    about 200 us a shape, once; then a call took about 90 us at 600 points
    and 27-31 ns a point on 1e6 shuffled points, against 0.57 us a point for
    scipy's betaincinv, and inc_beta_reg 15-18 ns against 127 ns for Boost's
    betainc (INV_FIT_MIN's comment has the small sizes).  Where a fit cannot
    be certified (extreme shapes) scipy's start and step are taken, as for
    small arrays.  At a = b = 1/2 Boost inverts in closed form and its value
    is returned unpolished.  Large arrays may therefore differ from the
    small-array result in the last ulps.
    """
    if not (a > 0 and b > 0):
        raise DomainError("inc_beta_reg_inv requires positive shape parameters")
    yy = np.asarray(y, dtype=float)
    if not within(yy, 0.0, 1.0):
        raise DomainError("inc_beta_reg_inv requires y in [0, 1]")
    if a == b == 0.5:
        x = sc.betaincinv(a, b, yy)
        return float(x) if x.ndim == 0 else x
    if yy.size >= INV_FIT_MIN:
        tails = _inverse_tails(a, b, yy, 1.0 - yy, want_s=False)
        if tails is not None:
            return tails[0]
    x0 = sc.betaincinv(a, b, yy)
    x = _newton_step(a, b, float(sc.betaln(a, b)), x0, sc.betainc(a, b, x0) - yy)
    return float(x) if x.ndim == 0 else x


def _budget_spent(what: str, a, b, c, x):
    return ConvergenceError(
        f"hyp2f1: {what} at argument {x} spent its budget of "
        f"{HYP2F1_MAX_TERMS} terms (a={a}, b={b}, c={c})",
        layer="specfun.hyp2f1", terms=HYP2F1_MAX_TERMS, budget=HYP2F1_MAX_TERMS,
    )


def _series(a: float, b: float, c: float, x: float, head: float = 1.0) -> float:
    """head - 1 plus the power series of F(a, b; c; x), x in [0, 1), summed
    until a ratio-test bound certifies the tail (c not a nonpositive
    integer)."""
    # indices beyond which term ratios are bounded by a quantity < 1
    aa, ab, ac = abs(a), abs(b), abs(c)
    n_safe = int(math.ceil(max(aa, ab, ac))) + 2
    term = 1.0
    total = mag = head
    comp = 0.0  # Kahan compensation
    for n in range(HYP2F1_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term == 0.0:
            return total
        mag += abs(term)
        m = n + 1
        if m >= n_safe:
            rho = (m + aa) * (m + ab) / ((m - ac) * (m + 1.0)) * x
            if 0.0 <= rho < 1.0 and abs(term) * rho / (1.0 - rho) <= HYP2F1_TAIL_TOL * mag:
                return total
    raise _budget_spent("series", a, b, c, x)


def _connection(a: float, b: float, c: float, s: float, y: float):
    """(F(a, b; c; 1 - y), sum of the magnitudes of the parts added) for y
    in (0, 1/2) by Gauss's connection formula (A&S 15.3.6, DLMF 15.8.4), for
    s = c - a - b at least HYP2F1_REG_EPS from an integer."""
    t1 = _gamma_quotient((c, s), (c - a, c - b)) * _series(a, b, 1.0 - s, y)
    t2 = _gamma_quotient((c, -s), (a, b)) * _series(c - a, c - b, 1.0 + s, y) * y**s
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
    q1 = _gamma_ratio_m1(m + 1.0, e, m + 1.0 + e)  # m! / Gamma(m+1+e) = 1 + e q1
    g1 = -_gamma_ratio_m1(1.0, -e, 1.0 - e)  # 1 / Gamma(1-e) = 1 + e g1
    ly = math.log(y)
    ey = ly * _expm1_ratio(e * ly)  # y^e = 1 + e ey
    ek = ((qa + qb + g1 - ey - q1) + e * (qa * qb + (qa + qb) * g1 - ey * q1)
          + e * e * qa * qb * g1) / mfact
    vk = math.exp(e * ly) * (1.0 + e * q1) / mfact
    al, be, ae = a + m - 1.0, b + m - 1.0, abs(e)
    lead = a + b + m - 2.0
    lead_abs, cross, ab_sum = abs(lead), abs(al * be), abs(al + be)

    total = mag = 0.0
    yk = 1.0
    for k in range(HYP2F1_MAX_TERMS):
        t = yk * ek
        total += t
        mag += abs(t)
        K = k + 1.0
        C = K + m
        A, B = a + (m + k), b + (m + k)  # exact where they are near 0
        r_u = A * B / ((K - e) * C)
        r_v = (A + e) * (B + e) / ((C + e) * K)
        d_uv = ((lead * K + 2.0 * al * be) * K + m * al * be
                + C * e * (K + al + be + e)) / ((K - e) * C * (C + e) * K)
        # certified tail: for j >= k, |r_u|, |r_v| <= rm and |(r_u - r_v)/e|
        # <= delta (both bounds decrease in K), so |E_j| <= (|E_k| + (j-k)
        # delta |v_k| / rm) rm^(j-k)
        rm = (1.0 + (abs(al) + ae) / K) * (1.0 + (abs(be) + ae) / K) / (1.0 - ae / K)
        delta = (lead_abs * K * K + 2.0 * cross * K + m * cross
                 + C * ae * (K + ab_sum + ae)) / ((K - ae) ** 2 * K * K)
        rho = y * rm
        if rho < 1.0:
            g = rho / (1.0 - rho)
            tail = yk * (abs(ek) * g + delta * abs(vk) / rm * g / (1.0 - rho))
            if tail <= HYP2F1_TAIL_TOL * mag:
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


def hyp2f1m1(a: float, b: float, c: float, x: float) -> float:
    """F(a, b; c; x) - 1 for x in [0, 1/2], summed without the leading 1, so
    that it keeps its relative accuracy however small x is."""
    if _is_nonpos_int(c):
        raise DomainError("c must not be zero or a negative integer")
    if not 0.0 <= x <= 0.5:
        raise DomainError(f"hyp2f1m1 argument must lie in [0, 1/2], got {x}")
    return _series(a, b, c, x, head=0.0)


def hyp2f1(a: float, b: float, c: float, x: float, *, comp: float | None = None) -> float:
    """Gauss hypergeometric F(a, b; c; x) for x in [0, 1].

    comp, when given, is 1 - x, for callers that know it more accurately
    than 1 - x rounds to (x close to 1).  When a or b is a nonpositive
    integer the exact terminating polynomial is returned.  At x = 1
    (requires c > a + b) the Gauss summation formula is used.  Otherwise,
    for x <= 1/2 the power series in x, and for x > 1/2 Gauss's connection
    formula to series in y = 1 - x <= 1/2; when c - a - b lies within
    HYP2F1_REG_EPS of an integer that formula is taken in a regularized form
    that is exact at the integer itself (the logarithmic case, e.g. the
    classical K).  Where the two parts of the connection formula cancel
    (large parameters, x near 1/2) and x <= 3/4, the series in x is used
    after all.  Every series stops on a certified tail bound, within
    HYP2F1_MAX_TERMS terms, so the cost is bounded independently of x.
    """
    if _is_nonpos_int(c):
        raise DomainError("c must not be zero or a negative integer")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"hyp2f1 argument must lie in [0, 1], got {x}")
    if comp is None:
        y = 1.0 - x
    elif 0.0 <= comp <= 1.0:
        y = comp
    else:
        raise DomainError(f"hyp2f1 complement must lie in [0, 1], got {comp}")

    n_terms = None
    for s in (a, b):
        if _is_nonpos_int(s):
            k = int(-s)
            n_terms = k if n_terms is None else min(n_terms, k)
    if n_terms is not None:
        total = term = 1.0
        for n in range(n_terms):
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
