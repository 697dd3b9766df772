"""Integral formulas for the generalized trigonometric functions: primitives
via the hypergeometric function, definite integrals via beta, Wallis-type
closed forms with their degenerate conventions, the lemniscate catalog,
generalized complete elliptic integrals with Elliott's identity, and the
infinite product converging to pi_pq/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, check_order, check_pq
from .gtf import ParamPair, conjugate, pi_pq, sin_pq

WALLIS_SPECIAL_KINDS = (
    "sin_qn",
    "sin_qn_qm2",
    "sin_qn_qm1",
    "cos_pn",
    "cos_pn_2mp",
    "cos_pn_1",
)


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
    """Generalized complete elliptic integral query (params, r, modulus k)."""

    params: ParamPair
    r: float
    k: float

    def __post_init__(self):
        if not self.r > 1.0:
            raise DomainError("need r > 1")
        if not 0.0 <= self.k < 1.0:
            raise DomainError("need modulus k in [0, 1)")


def _check_kl(p: float, k: float, l: float):
    if not k > -1.0:
        raise DomainError("need exponent k > -1")
    if not l > 1.0 - p:
        raise DomainError("need exponent l > 1 - p")


def primitive_sin_cos(p: float, q: float, k: float, l: float, x: float) -> float:
    """int_0^x sin_pq^k cos_pq^l dt in hypergeometric closed form.

    Valid for k > -1, l > 1-p and x in [0, pi_pq/2]; at the right endpoint
    the value is the definite beta form (the series argument reaches 1).
    """
    _check_kl(p, k, l)
    halfpi = 0.5 * pi_pq(p, q)
    if not 0.0 <= x <= halfpi * (1.0 + 1e-12):
        raise DomainError("x must lie in [0, pi_pq/2]")
    if x >= halfpi:
        return definite_sin_cos(p, q, k, l)
    s = sin_pq(p, q, x)
    if s == 0.0:
        return 0.0
    arg = min(s**q, 1.0)
    f = specfun.hyp2f1((k + 1.0) / q, (1.0 - l) / p, 1.0 + (k + 1.0) / q, arg)
    return s ** (k + 1.0) / (k + 1.0) * f


def definite_sin_cos(p: float, q: float, k: float, l: float) -> float:
    """int_0^{pi_pq/2} sin_pq^k cos_pq^l dt = (1/q) B((k+1)/q, 1 + (l-1)/p)."""
    _check_kl(p, k, l)
    return (1.0 / q) * specfun.beta((k + 1.0) / q, 1.0 + (l - 1.0) / p)


def primitive_finite_sum(p: float, q: float, k: float, n: int, x: float) -> float:
    """int_0^x sin_pq^k cos_pq^(pn+1) dt as the terminating binomial sum.

    Coincides with primitive_sin_cos(k, l = pn+1, x): the hypergeometric
    series terminates because its second parameter is -n.
    """
    if not k > -1.0:
        raise DomainError("need exponent k > -1")
    n = check_order(n)
    s = sin_pq(p, q, x)
    total = 0.0
    for m in range(n + 1):
        total += (-1.0) ** m / (k + 1.0 + q * m) * math.comb(n, m) * s ** (
            k + 1.0 + q * m
        )
    return total


def wallis_sin(query: WallisQuery) -> float:
    """int_0^{pi_pq/2} sin_pq^(qn+r) dt for r in (-1, q-1].

    At the degenerate endpoint r = q-1 (detected exactly) the derived
    exponent u equals 1 and pi_{p,1} = 2 p* by convention.
    """
    p, q, n, r = query.params.p, query.params.q, query.n, query.r
    if not -1.0 < r <= q - 1.0:
        raise DomainError("sine flavor requires r in (-1, q-1]")
    if r == q - 1.0:
        u, pi_pu = 1.0, 2.0 * conjugate(p)
    else:
        u = q / (r + 1.0)
        pi_pu = pi_pq(p, u)
    ratio = specfun.poch_ratio(1.0 / u, 1.0 / conjugate(p) + 1.0 / u, n)
    return u * ratio / q * (pi_pu / 2.0)


def wallis_cos(query: WallisQuery) -> float:
    """int_0^{pi_pq/2} cos_pq^(pn+r) dt for r in (1-p, 1].

    At r = 1 the derived exponent v equals 1, v* = inf, and pi_{inf,q} = 2.
    """
    p, q, n, r = query.params.p, query.params.q, query.n, query.r
    if not 1.0 - p < r <= 1.0:
        raise DomainError("cosine flavor requires r in (1-p, 1]")
    if r == 1.0:
        v, pi_vq = 1.0, 2.0
    else:
        v = p / (r + p - 1.0)
        pi_vq = pi_pq(conjugate(v), q)
    ratio = specfun.poch_ratio(1.0 / v, 1.0 / v + 1.0 / q, n)
    return ratio * (pi_vq / 2.0)


def wallis_special_cases(p: float, q: float, n: int, which: str) -> float:
    """The six displayed special cases: wallis_sin at r in {0, q-2, q-1} and
    wallis_cos at r in {0, 2-p, 1}.

    Each is a Pochhammer ratio times a generalized pi value; kind cos_pn_2mp
    is the ratio (1/p)_n / (1/p + 1/q)_n times pi_{p*,q}/2, consistent with
    the recurrence seed J_{2-p} = (1/q) B(1/q, 1/p) and with the classical
    n = 1 check int cos^2 = pi/4 at p = q = 2.
    """
    cases = {
        "sin_qn": (wallis_sin, 0.0),
        "sin_qn_qm2": (wallis_sin, q - 2.0),
        "sin_qn_qm1": (wallis_sin, q - 1.0),
        "cos_pn": (wallis_cos, 0.0),
        "cos_pn_2mp": (wallis_cos, 2.0 - p),
        "cos_pn_1": (wallis_cos, 1.0),
    }
    if which not in cases:
        raise DomainError(f"unknown special case {which!r}")
    flavor, r = cases[which]
    return flavor(WallisQuery(ParamPair(p, q), n, r))


def lemniscate_wallis(n: int, residue: int) -> float:
    """int_0^{varpi/2} sl^(4n+residue) dt for the lemniscate sine sl = sin_{2,4}.

    The ratio (a)_n / (a + 1/2)_n with a = (residue + 1)/4, i.e. the
    rational product of the step-down recurrence I_k = (k-3)/(k-1) I_{k-4},
    times the constant selected by the residue class: varpi/2, pi/4,
    pi/(2 varpi), 1/2 for residues 0..3.
    """
    if residue not in (0, 1, 2, 3):
        raise DomainError("residue must be one of 0, 1, 2, 3")
    varpi = pi_pq(2.0, 4.0)
    a = (residue + 1) / 4.0
    ratio = specfun.poch_ratio(a, a + 0.5, n)
    if residue == 0:
        return ratio * varpi / 2.0
    if residue == 1:
        return ratio * math.pi / 4.0
    if residue == 2:
        return ratio * math.pi / (2.0 * varpi)
    return ratio * 0.5


def product_factors(p: float, q: float, N: int) -> np.ndarray:
    """The first N factors (1 - 1/(pn(qn+1-q/p)))^(-1); each exceeds 1."""
    check_pq(p, q)
    n = np.arange(1, check_order(N, 1) + 1, dtype=float)
    denom = p * n * (q * n + 1.0 - q / p)
    factors = 1.0 / (1.0 - 1.0 / denom)
    if not np.all(factors > 1.0):
        raise AssertionError("every product factor must exceed 1")
    return factors


def pi_product_partial(p: float, q: float, N: int) -> float:
    """Partial product of the infinite-product representation of pi_pq/2.

    Strictly increasing in N and converging to pi_pq/2 from below.
    """
    return float(np.prod(product_factors(p, q, N)))


def elliptic_K(query: EllipticQuery) -> float:
    """Generalized complete elliptic integral of the first kind,
    (pi_pq/2) F(1/q, 1/r; 1/p* + 1/q; k^q)."""
    p, q = query.params.p, query.params.q
    c = 1.0 / conjugate(p) + 1.0 / q
    return 0.5 * pi_pq(p, q) * specfun.hyp2f1(
        1.0 / q, 1.0 / query.r, c, query.k**q
    )


def elliptic_E(query: EllipticQuery) -> float:
    """Generalized complete elliptic integral of the second kind,
    (pi_pq/2) F(1/q, -1/r*; 1/p* + 1/q; k^q)."""
    p, q = query.params.p, query.params.q
    c = 1.0 / conjugate(p) + 1.0 / q
    return 0.5 * pi_pq(p, q) * specfun.hyp2f1(
        1.0 / q, -1.0 / conjugate(query.r), c, query.k**q
    )


def elliott_residual(p: float, q: float, r: float, k: float) -> float:
    """|E K' + K E' - K K' - pi_pq pi_{s,r}/4| for the Elliott identity.

    Here K = K_{p,q,r*}(k), K' = K_{p,r,q*}(k') with k'^r = 1 - k^q, and
    1/s = 1/p - 1/q; the identity needs p <= q (s = inf when p = q, with
    pi_{inf,r} = 2).  The classical Legendre relation is p = q = r = 2.
    """
    check_pq(p, q)
    if p > q:
        raise DomainError("Elliott's identity requires p <= q")
    if not r > 1.0:
        raise DomainError("need r > 1")
    if not 0.0 < k < 1.0:
        raise DomainError("need modulus k in (0, 1)")
    ps = conjugate(p)
    kq = k**q
    kpr = 1.0 - kq  # = k'^r, exact
    c1 = 1.0 / ps + 1.0 / q
    c2 = 1.0 / ps + 1.0 / r
    half1 = 0.5 * pi_pq(p, q)
    half2 = 0.5 * pi_pq(p, r)
    K1 = half1 * specfun.hyp2f1(1.0 / q, 1.0 / conjugate(r), c1, kq)
    E1 = half1 * specfun.hyp2f1(1.0 / q, -1.0 / r, c1, kq)
    K2 = half2 * specfun.hyp2f1(1.0 / r, 1.0 / conjugate(q), c2, kpr)
    E2 = half2 * specfun.hyp2f1(1.0 / r, -1.0 / q, c2, kpr)
    pi_sr = 2.0 if p == q else pi_pq(p * q / (q - p), r)
    rhs = 2.0 * half1 * pi_sr / 4.0
    return abs(E1 * K2 + K1 * E2 - K1 * K2 - rhs)
