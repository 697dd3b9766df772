"""Closed-form positive solutions of the quadratic-gradient boundary value
problems and their verifiers.

The general problem on [0, H],

    (p - q) u' - p q (u')^2 + (p + q) u u'' + 1 = 0,   u(0) = u(H) = 0,

has the single positive solution

    u(x) = (2H / (q pi_{p*,q})) cos_{p*,q}^(p*-1)(w x) sin_{p*,q}(w x),

with w = pi_{p*,q} / (2H).  The nonlocal variant replaces the constant
forcing by (2/H) int (phi')^2 and is solved by rescaling the general
solution with p* = q = r(m); the p = q case on [0, 1] collapses, through
the multiple-angle formula, to a mirrored sin_{2,p} profile.

Residual verifiers use central finite differences (one Richardson step),
so they stay independent of the closed forms they check.  They take a point
or an array of points and evaluate the whole 5-point stencil x, x +- h,
x +- h/2 of every point in one fused sin/cos call (gtf.sincos_pq).  All
powers on that path go through the C library's pow one element at a time,
the way scalar evaluation computes them, so each residual equals the one
computed point by point bit for bit: numpy's vectorized power differs in the
last ulp on a few percent of inputs, and the second difference divides that
ulp by h^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quadrature
from .errors import DomainError, check_pq
from .gtf import _libm_pow, conjugate, extend_sin_symmetric, pi_pq, sincos_pq


@dataclass(frozen=True)
class BvpSpec:
    """Instance (H, p, q) of the general boundary value problem."""

    H: float
    p: float
    q: float

    def __post_init__(self):
        if not self.H > 0:
            raise DomainError("need H > 0")
        check_pq(self.p, self.q)


@dataclass(frozen=True)
class NonlocalSpec:
    """Instance (H, m) of the nonlocal problem; m > 0 is the free amplitude."""

    H: float
    m: float

    def __post_init__(self):
        if not self.H > 0:
            raise DomainError("need H > 0")
        if not self.m > 0:
            raise DomainError("need m > 0")

    @property
    def r(self) -> float:
        """Induced exponent in (1, 2): both p* and q of the local problem."""
        return 1.0 / (0.5 + 0.25 / math.sqrt(self.m**2 + 0.25))


@dataclass(frozen=True)
class BvpSolution:
    """Immutable positive solution; evaluate with sol(x), vectorized in x.

    ``_eval(x, pointwise=False)`` evaluates the profile at points already in
    [0, H]; pointwise=True takes every power through the C library's pow
    element by element, so that an array gives the scalar values bit for bit.
    """

    spec: object
    _eval: Callable = field(repr=False)

    def __call__(self, x):
        xx = np.asarray(x, dtype=float)
        H = self.spec.H
        # written so that NaN fails the test
        if not ((xx >= -1e-12 * H) & (xx <= H * (1.0 + 1e-12))).all():
            raise DomainError("x must lie in [0, H]")
        out = self._eval(np.clip(xx, 0.0, H))
        return float(out) if np.ndim(x) == 0 else out


def solve_general(spec: BvpSpec) -> BvpSolution:
    """Positive solution of (p-q)u' - pq(u')^2 + (p+q)uu'' + 1 = 0 on [0, H]."""
    H, p, q = spec.H, spec.p, spec.q
    P = conjugate(p)
    pi_val = pi_pq(P, q)
    omega = pi_val / (2.0 * H)
    amp = 2.0 * H / (q * pi_val)

    def u(x, pointwise=False):
        s, c = sincos_pq(P, q, omega * x, pointwise=pointwise)
        return amp * (_libm_pow(c, P - 1.0) if pointwise else c ** (P - 1.0)) * s

    return BvpSolution(spec=spec, _eval=u)


def solve_nonlocal(spec: NonlocalSpec) -> BvpSolution:
    """Positive solution of phi' - (phi')^2 + phi phi'' + (2/H) int (phi')^2 = 0.

    The solution is 2 sqrt(m^2 + 1/4) times the general solution with
    p* = q = r(m); the integral term then evaluates to exactly m^2.
    """
    r = spec.r
    inner = solve_general(BvpSpec(H=spec.H, p=conjugate(r), q=r))
    scale = 2.0 * math.sqrt(spec.m**2 + 0.25)

    def phi(x, pointwise=False):
        return scale * inner._eval(x, pointwise)

    return BvpSolution(spec=spec, _eval=phi)


def solve_pq_equal(p: float) -> BvpSolution:
    """Positive solution of -p^2(u')^2 + 2p u u'' + 1 = 0 on [0, 1].

    Equals sin_{2,p}(pi_{2,p} x) / (p pi_{2,p}) with the mirror extension on
    [1/2, 1]; symmetric about x = 1/2.
    """
    check_pq(2.0, p)
    pi_val = pi_pq(2.0, p)
    amp = 1.0 / (p * pi_val)

    def u(x, pointwise=False):
        if pointwise:  # the mirrored profile has no fused form: point by point
            return np.array([u(v) for v in x.ravel()]).reshape(x.shape)
        return amp * extend_sin_symmetric(p, pi_val * x)

    return BvpSolution(spec=BvpSpec(H=1.0, p=p, q=p), _eval=u)


def _interior(spec, x):
    xx = np.asarray(x, dtype=float)
    if not ((xx > 0.0) & (xx < spec.H)).all():
        raise DomainError("x must be interior to (0, H)")
    return xx


def _stencil(sol: BvpSolution, x):
    """sol, sol' and sol'' at interior points x by central differences with
    one Richardson extrapolation each, from one evaluation of the stencil
    x, x +- h, x +- h/2 of every point."""
    H = sol.spec.H
    xx = _interior(sol.spec, x)
    h = np.minimum(1e-4 * H, np.minimum(0.5 * xx, 0.5 * (H - xx)))
    f0, fp, fm, fph, fmh = sol._eval(
        np.stack((xx, xx + h, xx - h, xx + h / 2, xx - h / 2)), pointwise=True
    )
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fph - fmh) / h
    e1 = (fp - 2.0 * f0 + fm) / _libm_pow(h, 2)
    e2 = (fph - 2.0 * f0 + fmh) / _libm_pow(h / 2, 2)
    return f0, (4.0 * d2 - d1) / 3.0, (4.0 * e2 - e1) / 3.0


def residual_general(sol: BvpSolution, x):
    """|(p-q)u' - pq(u')^2 + (p+q)uu'' + 1| via finite differences, at one
    interior point or elementwise on an array of them."""
    spec = sol.spec
    if not isinstance(spec, BvpSpec):
        raise DomainError("residual_general needs a solution of the general problem")
    p, q = spec.p, spec.q
    u0, u1, u2 = _stencil(sol, x)
    r = np.abs((p - q) * u1 - p * q * _libm_pow(u1, 2) + (p + q) * u0 * u2 + 1.0)
    return float(r) if np.ndim(x) == 0 else r


def residual_nonlocal(sol: BvpSolution, x):
    """|phi' - (phi')^2 + phi phi'' + m^2| for the local surrogate equation,
    at one interior point or elementwise on an array of them."""
    spec = sol.spec
    if not isinstance(spec, NonlocalSpec):
        raise DomainError("residual_nonlocal needs a nonlocal solution")
    f0, f1, f2 = _stencil(sol, x)
    r = np.abs(f1 - _libm_pow(f1, 2) + f0 * f2 + spec.m**2)
    return float(r) if np.ndim(x) == 0 else r


def nonlocal_mean_square_slope(sol: BvpSolution) -> float:
    """(2/H) int_0^H (phi')^2 dt with phi' by central differences.

    For a nonlocal solution this reproduces m^2.  Stencil centres are
    clamped a step away from the boundary; the slope is bounded there
    (u' = 1/q at 0, -1/p at H, scaled by the amplitude), so the strips
    contribute only O(h) of a bounded integrand to the quadrature.
    """
    H = sol.spec.H
    h = 1e-5 * H

    def g(x):
        xc = np.clip(x, h, H - h)
        d = (sol(xc + h) - sol(xc - h)) / (2.0 * h)
        return d * d

    res = quadrature.integrate(g, 0.0, H, tol=1e-9)
    return 2.0 / H * res.value


def phase_curve_residual(sol: BvpSolution, x):
    """Residual of the first integral u = C |v + 1/p|^(1/p) |v - 1/q|^(1/q).

    v is evaluated in closed form, v = -1/p + (1/p + 1/q) cos_{p*,q}^{p*}(w x),
    and C = 2H / (p (1/p + 1/q)^(1/p+1/q) pi_{q*,p}); no differentiation
    enters, so this checks the solution against the phase-plane curve of
    its derivation.  Takes one interior point or an array of them.
    """
    spec = sol.spec
    if not isinstance(spec, BvpSpec):
        raise DomainError("phase_curve_residual needs a general-problem solution")
    H, p, q = spec.H, spec.p, spec.q
    xx = _interior(spec, x)
    P = conjugate(p)
    omega = pi_pq(P, q) / (2.0 * H)
    _, c = sincos_pq(P, q, omega * xx, pointwise=True)
    v = -1.0 / p + (1.0 / p + 1.0 / q) * _libm_pow(c, P)
    ssum = 1.0 / p + 1.0 / q
    C = 2.0 * H / (p * ssum**ssum * pi_pq(conjugate(q), p))
    rhs = (C * _libm_pow(np.abs(v + 1.0 / p), 1.0 / p)
           * _libm_pow(np.abs(v - 1.0 / q), 1.0 / q))
    r = np.abs(sol._eval(xx, pointwise=True) - rhs)
    return float(r) if np.ndim(x) == 0 else r
