"""Integral formulas for the generalized trigonometric functions: primitives
as incomplete beta integrals (at pi_pq/2 the definite integral, a beta
value), Wallis-type closed forms with their degenerate conventions, the
lemniscate catalog, generalized complete elliptic integrals with Elliott's
identity, and the infinite product converging to pi_pq/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, as_float, check_order, check_pq
from .gtf import _DBL_MIN, ParamPair, _as_unit, _pair, conjugate, pi_pq

@dataclass(frozen=True)
class WallisQuery:
    """One Wallis-type integral: exponent qn+r (sine flavor) or pn+r (cosine)."""

    params: ParamPair
    n: int
    r: float

    def __post_init__(self):
        check_order(self.n)


@dataclass(frozen=True)
class EllipticQuery:
    """Generalized complete elliptic integral query (params, r, modulus k)
    for finite r > 1 and k in [0, 1); r = inf is rejected, as
    elliott_residual rejects it."""

    params: ParamPair
    r: float
    k: float

    def __post_init__(self):
        if not 1.0 < as_float(self.r, "r") < math.inf:
            raise DomainError(f"need r > 1, finite, got {self.r}")
        if not 0.0 <= self.k < 1.0:
            raise DomainError("need modulus k in [0, 1)")


def _check_kl(p: float, k: float, l: float):
    if not -1.0 < k < math.inf:
        raise DomainError(f"need exponent k > -1, finite, got {k}")
    if not 1.0 - p < l < math.inf:
        raise DomainError(f"need exponent l > 1 - p, finite, got {l}")


def primitive_sin_cos(p: float, q: float, k: float, l: float, x: float) -> float:
    """int_0^x sin_pq^k cos_pq^l dt as an incomplete beta integral.

    Valid for k > -1, l > 1-p and x in [0, pi_pq/2].  With t = sin_pq^q the
    integral is (1/q) B_z(a, b) at z = sin_pq(x)^q, a = (k+1)/q and b = 1 +
    (l-1)/p (DLMF 8.17.1), taken from specfun._beta_integral with z and its
    complement cos_pq^p straight from gtf's inversion of x (never re-raised
    from the sine and the cosine), so it keeps its accuracy where sin_pq
    rounds to 1, and at any l.  Below x = DBL_MIN^(1/q), where sin_pq(x) is
    x itself and z underflows, it is x^(k+1)/(k+1); at the right endpoint it
    is the definite integral (1/q) B(a, b).
    """
    try:
        p, q, k, l = float(p), float(q), float(k), float(l)
    except OverflowError:  # an int beyond the doubles
        raise DomainError("need p, q, k and l within the doubles") from None
    _check_kl(p, k, l)
    halfpi, ia, ib, lo, hi, _, _, tiny, _ = _pair(p, q)
    x = _as_unit(x, halfpi, "primitive_sin_cos")
    a, b = (k + 1.0) / q, 1.0 + (l - 1.0) / p
    if x >= halfpi:
        return (1.0 / q) * specfun.beta(a, b)
    if x < tiny:
        return x ** (k + 1.0) / (k + 1.0)
    z, zc = specfun._point_tails(ia, ib, lo, hi, x / halfpi, (halfpi - x) / halfpi)
    return (1.0 / q) * specfun._beta_integral(a, b, z, zc)


def wallis_sin(query: WallisQuery) -> float:
    """int_0^{pi_pq/2} sin_pq^(qn+r) dt for r in (-1, q-1].

    At the degenerate endpoint r = q-1 (detected exactly) the derived
    exponent u equals 1 and pi_{p,1} = 2 p* by convention.
    """
    params = query.params
    return _wallis_sin(float(params.p), float(params.q), query.n, as_float(query.r, "r"))


def _wallis_sin(p: float, q: float, n: int, r: float) -> float:
    if not -1.0 < r <= q - 1.0:
        raise DomainError("sine flavor requires r in (-1, q-1]")
    u = 1.0 if r == q - 1.0 else q / (r + 1.0)
    pi_pu = pi_pq(p, u)  # 2 p* at u = 1
    ratio = specfun.poch_ratio(1.0 / u, 1.0 / conjugate(p) + 1.0 / u, n)
    return u * ratio / q * (pi_pu / 2.0)


def wallis_cos(query: WallisQuery) -> float:
    """int_0^{pi_pq/2} cos_pq^(pn+r) dt for r in (1-p, 1].

    With v = p/(r+p-1) this is (1/v)_n / (1/v + 1/q)_n pi_{v*,q}/2, and
    pi_{v*,q}/2 = (1/q) B(1/v, 1/q) is taken from 1/v = (r + (p-1))/p
    directly, whose numerator is exact where r nears 1 - p: re-forming 1/v
    as 1 - 1/v* would cost ~v ulps there.  At r = 1 the derived exponent v
    equals 1, v* = inf, and pi_{inf,q} = 2.
    """
    params = query.params
    return _wallis_cos(float(params.p), float(params.q), query.n, as_float(query.r, "r"))


def _wallis_cos(p: float, q: float, n: int, r: float) -> float:
    if not 1.0 - p < r <= 1.0:
        raise DomainError("cosine flavor requires r in (1-p, 1]")
    if r == 1.0:
        return specfun.poch_ratio(1.0, 1.0 + 1.0 / q, n)  # pi_{inf,q}/2 = 1
    # p - 1 is exact, and so is the sum near 1 - p
    return _cos_moment((r + (p - 1.0)) / p, q, n)


def _cos_moment(iv: float, q: float, n: int) -> float:
    """(1/v)_n / (1/v + 1/q)_n pi_{v*,q}/2 at iv = 1/v < 1, with pi_{v*,q}/2
    = (1/q) B(1/v, 1/q): wallis_cos's value."""
    return specfun.poch_ratio(iv, iv + 1.0 / q, n) * ((1.0 / q) * specfun.beta(iv, 1.0 / q))


# the displayed special cases: kind -> the value at (p, q, n).  For
# cos_pn_2mp, r = 2 - p gives 1/v = (r + (p - 1))/p = 1/p exactly, and 1/p
# is taken as such: above p = 2^53 the rounded r lands on 1 - p
WALLIS_SPECIAL_KINDS = {
    "sin_qn": lambda p, q, n: _wallis_sin(p, q, n, 0.0),
    "sin_qn_qm2": lambda p, q, n: _wallis_sin(p, q, n, q - 2.0),
    "sin_qn_qm1": lambda p, q, n: _wallis_sin(p, q, n, q - 1.0),
    "cos_pn": lambda p, q, n: _wallis_cos(p, q, n, 0.0),
    "cos_pn_2mp": lambda p, q, n: _cos_moment(1.0 / p, q, n),
    "cos_pn_1": lambda p, q, n: _wallis_cos(p, q, n, 1.0),
}


def wallis_special_cases(p: float, q: float, n: int, which: str) -> float:
    """The six displayed special cases: wallis_sin at r in {0, q-2, q-1} and
    wallis_cos at r in {0, 2-p, 1}.

    Each is a Pochhammer ratio times a generalized pi value; kind cos_pn_2mp
    is the ratio (1/p)_n / (1/p + 1/q)_n times pi_{p*,q}/2, consistent with
    the recurrence seed J_{2-p} = (1/q) B(1/q, 1/p) and with the classical
    n = 1 check int cos^2 = pi/4 at p = q = 2.  Its 1/v = (r + (p - 1))/p
    is 1/p exactly and is taken as 1/p, so every p of the domain is
    accepted: where p is above 2^53, r = 2 - p rounds onto 1 - p and
    wallis_cos itself would reject it.  Below 2^53 both roads give the same
    bits, since 2 - p and p - 1 are exact there.
    """
    if which not in WALLIS_SPECIAL_KINDS:
        raise DomainError(f"unknown special case {which!r}")
    p, q = check_pq(p, q)
    return WALLIS_SPECIAL_KINDS[which](p, q, check_order(n))


def lemniscate_wallis(n: int, residue: int) -> float:
    """int_0^{varpi/2} sl^(4n+residue) dt for the lemniscate sine sl = sin_{2,4}.

    The ratio (a)_n / (a + 1/2)_n with a = (residue + 1)/4, i.e. the
    rational product of the step-down recurrence I_k = (k-3)/(k-1) I_{k-4},
    times the constant selected by the residue class: varpi/2, pi/4,
    pi/(2 varpi), 1/2 for residues 0..3.
    """
    if residue not in (0, 1, 2, 3):
        raise DomainError("residue must be one of 0, 1, 2, 3")
    half = _pair(2.0, 4.0)[0]  # varpi / 2
    a = (residue + 1) / 4.0
    ratio = specfun.poch_ratio(a, a + 0.5, n)
    if residue == 0:
        return ratio * half
    if residue == 1:
        return ratio * math.pi / 4.0
    if residue == 2:
        return ratio * math.pi / (4.0 * half)
    return ratio * 0.5


def product_factors(p: float, q: float, N: int) -> np.ndarray:
    """The first N factors (1 - 1/(pn(qn+1-q/p)))^(-1), each exceeding 1.

    The n-th factor is [n / (n - 1/p)] [(n + 1/q - 1/p) / (n + 1/q)], formed
    as 1 + 1/((pn - 1)(qn + 1)); where that addend is below half an ulp the
    factor rounds to 1.0, its faithful value.  With p, q > 1 the addend's
    denominator is at least p - 1 >= eps, so no factor is below 1.
    """
    check_pq(p, q)
    n = np.arange(1, check_order(N, 1) + 1, dtype=float)
    return 1.0 + 1.0 / ((p * n - 1.0) * (q * n + 1.0))


def pi_product_partial(p: float, q: float, N: int) -> float:
    """Partial product of the first N factors of the infinite product for
    pi_pq/2: (1)_N (1 + 1/q - 1/p)_N / ((1 - 1/p)_N (1 + 1/q)_N), two
    Pochhammer ratios, so the cost does not grow with N.

    Strictly increasing in N and converging to pi_pq/2 from below.
    """
    check_pq(p, q)
    N = check_order(N, 1)
    ip, iq = 1.0 / p, 1.0 / q
    return specfun.poch_ratio(1.0, 1.0 - ip, N) * specfun.poch_ratio(
        1.0 + (iq - ip), 1.0 + iq, N
    )


def _power_and_complement(k: float, q: float):
    """(k^q, 1 - k^q) for k in [0, 1), the complement without cancellation."""
    if k == 0.0:
        return 0.0, 1.0
    return k**q, -math.expm1(q * math.log(k))


def elliptic_K(query: EllipticQuery) -> float:
    """Generalized complete elliptic integral of the first kind,
    (pi_pq/2) F(1/q, 1/r; 1/p* + 1/q; k^q).  hyp2f1's box admits every p and
    r and q up to 2^511: 1/q below 2^-511 is out (DomainError)."""
    p, q, r = float(query.params.p), float(query.params.q), float(query.r)
    c = 1.0 / conjugate(p) + 1.0 / q
    kq, kpr = _power_and_complement(float(query.k), q)
    return _pair(p, q)[0] * specfun.hyp2f1(1.0 / q, 1.0 / r, c, kq, comp=kpr)


def elliptic_E(query: EllipticQuery) -> float:
    """Generalized complete elliptic integral of the second kind,
    (pi_pq/2) F(1/q, -1/r*; 1/p* + 1/q; k^q).  hyp2f1's box admits every p
    and r and q up to 2^511: 1/q below 2^-511 is out (DomainError)."""
    p, q, r = float(query.params.p), float(query.params.q), float(query.r)
    c = 1.0 / conjugate(p) + 1.0 / q
    kq, kpr = _power_and_complement(float(query.k), q)
    return _pair(p, q)[0] * specfun.hyp2f1(1.0 / q, -1.0 / conjugate(r), c, kq, comp=kpr)


def elliott_residual(p: float, q: float, r: float, k: float) -> float:
    """|E K' + K E' - K K' - pi_pq pi_{s,r}/4| for the Elliott identity.

    Here K = K_{p,q,r*}(k), K' = K_{p,r,q*}(k') with k'^r = 1 - k^q, and
    1/s = 1/p - 1/q; the identity needs p <= q (s = inf when p = q, with
    pi_{inf,r} = 2).  The classical Legendre relation is p = q = r = 2.

    One of K, K' grows without bound as k approaches 0 or 1, so the left
    side is formed as (E - K) K' + K E' with the roles of the two sides
    swapped as needed: E - K comes from the two series F - 1 at the small
    argument, which have opposite signs, so it keeps its relative accuracy
    and the large factor multiplies no rounding error of order 1.  Each
    small-side F - 1 is one specfun._series at head = 0, the loop that sums
    every power series of hyp2f1.  The large side's hyp2f1 calls take a =
    1/r and b = 1/q* (k^q <= 1/2) or a = 1/q and b = 1/r* (above), and
    hyp2f1's box needs b < 1: so r or q where 1/r* or 1/q* rounds to 1
    (above ~2^53) raises DomainError naming it, at every k.

    Where k^q < DBL_MIN the residual is the limit |K E' - pi_pq pi_{s,r}/4|
    with K = pi_pq/2 and E' at k' = 1, Gauss's sum (c - a - b = 1/p* + 1/q
    > 0 there; K' at k' = 1 has none, since 1/q - 1/p <= 0, and is never
    taken).  (E - K) K' is of order (k^q)^(1/q + 1/p*) = (k^q)^(1 + 1/q -
    1/p), which need not be small (at p = 1.001 and q = 1000 the exponent is
    0.002), but it cancels exactly against E' - E'(1), of the same order:
    what the limit leaves out is O(k^q) times pi_pq/2 and pi_{p,r}/2, below
    DBL_MIN times them.
    """
    p, q = check_pq(p, q)
    r, k = as_float(r, "r"), as_float(k, "k")
    if p > q:
        raise DomainError("Elliott's identity requires p <= q")
    if not 1.0 < r < math.inf:
        raise DomainError(f"need r > 1, finite, got {r}")
    if not 0.0 < k < 1.0:
        raise DomainError("need modulus k in (0, 1)")
    ps, iqs, irs = conjugate(p), 1.0 / conjugate(q), 1.0 / conjugate(r)
    for name, v, inv_conj in (("q", q, iqs), ("r", r, irs)):
        if not inv_conj < 1.0:
            raise DomainError(f"need 1/{name}* < 1 in floating point ({name} below ~2^53), "
                              f"got {name} = {v}")
    kq, kpr = _power_and_complement(k, q)  # kpr = k'^r
    # per side: a, b of K, b of E, c, argument, its complement, pi/2 factor
    side1 = (1.0 / q, irs, -1.0 / r, 1.0 / ps + 1.0 / q, kq, kpr, _pair(p, q)[0])
    side2 = (1.0 / r, iqs, -1.0 / q, 1.0 / ps + 1.0 / r, kpr, kq, 0.5 * pi_pq(p, r))
    pi_sr = pi_pq(math.inf if p == q else p * q / (q - p), r)
    rhs = side1[-1] * pi_sr / 2.0
    if kq < _DBL_MIN:  # the limit K E' with K = pi_pq/2 and E' at k' = 1
        a, _, be, c, _, _, half_l = side2
        return abs(side1[-1] * half_l * specfun.hyp2f1(a, be, c, 1.0) - rhs)
    small, large = (side1, side2) if kq <= 0.5 else (side2, side1)
    a, bk, be, c, x, _, half = small
    gk = specfun._series(a, bk, c, x, head=0.0)  # F - 1, x <= 1/2
    ge = specfun._series(a, be, c, x, head=0.0)
    a, bk, be, c, x, y, half_l = large
    K_l = half_l * specfun.hyp2f1(a, bk, c, x, comp=y)
    E_l = half_l * specfun.hyp2f1(a, be, c, x, comp=y)
    lhs = half * (ge - gk) * K_l + half * (1.0 + gk) * E_l
    return abs(lhs - rhs)
