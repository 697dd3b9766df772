"""Scalar special functions: log-gamma, beta, the Pochhammer ratio
(a)_n / (b)_n, a Newton-polished inverse of the regularized incomplete beta
function, and the Gauss hypergeometric function on [0, 1].

Gamma/beta plumbing and the incomplete beta function itself are delegated
to scipy.special; the hypergeometric series is evaluated here because call
sites need a certified absolute tail bound, the exact terminating polynomial
when a parameter is a nonpositive integer, and Gauss summation at argument 1.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sc

from .errors import ConvergenceError, DomainError, check_order

HYP2F1_TAIL_TOL = 1e-13
HYP2F1_MAX_TERMS = 100_000


def _is_nonpos_int(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return float(sc.gammaln(x))


def poch_ratio(a: float, b: float, n: int) -> float:
    """(a)_n / (b)_n for a nonnegative integer n, as a running product of
    the factor ratios (a + m) / (b + m); the empty product n = 0 is 1.

    Every Wallis-type closed form is such a ratio times a generalized pi.
    """
    out = 1.0
    for m in range(check_order(n)):
        out *= (a + m) / (b + m)
    return out


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) for x, y > 0."""
    if not (x > 0 and y > 0):
        raise DomainError("beta requires positive arguments")
    return math.exp(ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y))


def inc_beta_reg_inv(a: float, b: float, y):
    """Inverse of I_x(a, b) in x, polished to |I_x(a,b) - y| <= 1e-14."""
    if not (a > 0 and b > 0):
        raise DomainError("inc_beta_reg_inv requires positive shape parameters")
    yy = np.asarray(y, dtype=float)
    if np.any(yy < 0) or np.any(yy > 1):
        raise DomainError("inc_beta_reg_inv requires y in [0, 1]")
    x = sc.betaincinv(a, b, yy)
    # one guarded Newton correction; the derivative is the beta density
    lnb = sc.betaln(a, b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        resid = sc.betainc(a, b, x) - yy
        dens = np.exp((a - 1) * np.log(x) + (b - 1) * np.log1p(-x) - lnb)
        step = np.where(np.isfinite(dens) & (dens > 0), resid / dens, 0.0)
    x = np.clip(x - step, 0.0, 1.0)
    return float(x) if x.ndim == 0 else x


def hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric F(a, b; c; x) for x in [0, 1].

    The series is summed until a ratio-test bound certifies an absolute
    tail below HYP2F1_TAIL_TOL; when a or b is a nonpositive integer the
    exact terminating polynomial is returned.  At x = 1 (requires
    c > a + b) the Gauss summation formula is used instead.
    """
    if _is_nonpos_int(c):
        raise DomainError("c must not be zero or a negative integer")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"hyp2f1 argument must lie in [0, 1], got {x}")

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

    if x == 1.0:
        if c - a - b <= 0:
            raise DomainError("hyp2f1 at x = 1 requires c > a + b")
        sign = sc.gammasgn(c) * sc.gammasgn(c - a - b)
        sign /= sc.gammasgn(c - a) * sc.gammasgn(c - b)
        return float(
            sign
            * math.exp(
                sc.gammaln(c)
                + sc.gammaln(c - a - b)
                - sc.gammaln(c - a)
                - sc.gammaln(c - b)
            )
        )

    # indices beyond which term ratios are bounded by a quantity < 1
    aa, ab, ac = abs(a), abs(b), abs(c)
    n_safe = int(math.ceil(max(aa, ab, ac))) + 2
    total = term = 1.0
    comp = 0.0  # Kahan compensation
    for n in range(HYP2F1_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term == 0.0:
            return total
        m = n + 1
        if m >= n_safe:
            rho = (m + aa) * (m + ab) / ((m - ac) * (m + 1.0)) * x
            if 0.0 <= rho < 1.0 and abs(term) * rho / (1.0 - rho) <= HYP2F1_TAIL_TOL:
                return total
    raise ConvergenceError(
        f"hyp2f1 series did not converge within {HYP2F1_MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, x={x})"
    )
