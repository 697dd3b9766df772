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
x +- h/2 of every point in one fused sin/cos call (gtf.sincos_pq), in the
gtf lane the stencil's size picks.  A residual agrees with one computed
point by point from scalar sol(x) calls to 8 (p + q) eps |u| / h^2 (the ODE
residual's second difference divides a last-ulp difference of u by h^2),
and bit for bit with itself on one-element arrays.

general_checks verifies the general problem at one (p, q) and several H in
one such call: the stencils of every H and the ends 0 and H are inverted
together, the phase-curve check reuses the stencil's centre row, and the
residuals equal residual_general's and phase_curve_residual's on arrays bit
for bit while their stencils take the same lane.  Every verifier shares the
stencil, Richardson, ODE, phase-curve and profile formulas below.

Where cos_{p*,q} underflows (p above ~100 near x = H, above ~300 on much
of (0, H); the nonlocal problem at m below ~0.1), the profile's factor
cos^(p*-1) = cos^(1/(p-1)) is not formed from the underflowed cosine but
from its leading term, b B(b, a) yc (gtf._cos_power); everywhere else the
profile is amp cos^(p*-1) sin as written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quadrature
from .errors import DomainError, check_pq
from .gtf import (
    _as_unit, _cos_power, _maybe_scalar, _sincos_tail, conjugate,
    extend_sin_symmetric, pi_pq,
)


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

    A float x gives a float from gtf's float lane, an array an array from
    the lane its size selects; both are within 2e-15 of the profile at 50
    digits, relative.  ``_eval(x)`` evaluates the profile at points already
    in [0, H].
    """

    spec: object
    _eval: Callable = field(repr=False)

    def __call__(self, x):
        # gtf's validator: the same slack, and a float x takes its float lane
        return _maybe_scalar(self._eval(_as_unit(x, self.spec.H, "sol(x)")))


def _profile_scales(H: float, P: float, q: float):
    """(omega, amp) of the general profile amp cos^(P-1)(omega x) sin(omega x)
    on [0, H], with P = p*: omega = pi_{P,q} / (2H), amp = 2H / (q pi_{P,q})."""
    pi_val = pi_pq(P, q)
    return pi_val / (2.0 * H), 2.0 * H / (q * pi_val)


def _profile(P: float, q: float, amp, s, c, yc):
    """amp cos^(P-1) sin from _sincos_tail's (s, c, yc) at (P, q)."""
    return amp * _cos_power(P, q, c, yc) * s


def solve_general(spec: BvpSpec) -> BvpSolution:
    """Positive solution of (p-q)u' - pq(u')^2 + (p+q)uu'' + 1 = 0 on [0, H]."""
    H, p, q = spec.H, spec.p, spec.q
    P = conjugate(p)
    omega, amp = _profile_scales(H, P, q)

    def u(x):
        return _profile(P, q, amp, *_sincos_tail(P, q, omega * x))

    return BvpSolution(spec=spec, _eval=u)


def solve_nonlocal(spec: NonlocalSpec) -> BvpSolution:
    """Positive solution of phi' - (phi')^2 + phi phi'' + (2/H) int (phi')^2 = 0.

    The solution is 2 sqrt(m^2 + 1/4) times the general solution with
    p* = q = r(m); the integral term then evaluates to exactly m^2.
    """
    r = spec.r
    inner = solve_general(BvpSpec(H=spec.H, p=conjugate(r), q=r))
    scale = 2.0 * math.sqrt(spec.m**2 + 0.25)

    def phi(x):
        return scale * inner._eval(x)

    return BvpSolution(spec=spec, _eval=phi)


def solve_pq_equal(p: float) -> BvpSolution:
    """Positive solution of -p^2(u')^2 + 2p u u'' + 1 = 0 on [0, 1].

    Equals sin_{2,p}(pi_{2,p} x) / (p pi_{2,p}) with the mirror extension on
    [1/2, 1]; symmetric about x = 1/2.
    """
    check_pq(2.0, p)
    pi_val = pi_pq(2.0, p)
    amp = 1.0 / (p * pi_val)

    def u(x):
        return amp * extend_sin_symmetric(p, pi_val * x)

    return BvpSolution(spec=BvpSpec(H=1.0, p=p, q=p), _eval=u)


def _interior(spec, x):
    xx = np.asarray(x, dtype=float)
    if not ((xx > 0.0) & (xx < spec.H)).all():
        raise DomainError("x must be interior to (0, H)")
    return xx


def _stencil_rows(H, xx):
    """The step h and the stencil rows x, x + h, x - h, x + h/2, x - h/2
    (stacked on a new first axis) of interior points xx of [0, H]; H may be
    an array that broadcasts against xx."""
    h = np.minimum(1e-4 * H, np.minimum(0.5 * xx, 0.5 * (H - xx)))
    return h, np.stack((xx, xx + h, xx - h, xx + h / 2, xx - h / 2))


def _richardson(h, rows):
    """f, f' and f'' at the centre from values f on the stencil rows: central
    differences with one Richardson extrapolation each."""
    f0, fp, fm, fph, fmh = rows
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fph - fmh) / h
    e1 = (fp - 2.0 * f0 + fm) / h**2
    e2 = (fph - 2.0 * f0 + fmh) / (h / 2) ** 2
    return f0, (4.0 * d2 - d1) / 3.0, (4.0 * e2 - e1) / 3.0


def _stencil(sol: BvpSolution, x):
    """sol, sol' and sol'' at interior points x, from one evaluation of the
    stencil of every point."""
    h, rows = _stencil_rows(sol.spec.H, _interior(sol.spec, x))
    return _richardson(h, sol._eval(rows))


def _ode_general(p: float, q: float, u0, u1, u2):
    """|(p-q)u' - pq(u')^2 + (p+q)uu'' + 1|."""
    return np.abs((p - q) * u1 - p * q * u1**2 + (p + q) * u0 * u2 + 1.0)


def _phase_curve(H: float, p: float, q: float, P: float, c):
    """C |v + 1/p|^(1/p) |v - 1/q|^(1/q), the phase-plane value of u, with
    v = -1/p + (1/p + 1/q) c^P from the cosine c = cos_{P,q}(w x), P = p*."""
    v = -1.0 / p + (1.0 / p + 1.0 / q) * c**P
    ssum = 1.0 / p + 1.0 / q
    C = 2.0 * H / (p * ssum**ssum * pi_pq(conjugate(q), p))
    return C * np.abs(v + 1.0 / p) ** (1.0 / p) * np.abs(v - 1.0 / q) ** (1.0 / q)


def residual_general(sol: BvpSolution, x):
    """|(p-q)u' - pq(u')^2 + (p+q)uu'' + 1| via finite differences, at one
    interior point or elementwise on an array of them."""
    spec = sol.spec
    if not isinstance(spec, BvpSpec):
        raise DomainError("residual_general needs a solution of the general problem")
    r = _ode_general(spec.p, spec.q, *_stencil(sol, x))
    return float(r) if np.ndim(x) == 0 else r


def residual_nonlocal(sol: BvpSolution, x):
    """|phi' - (phi')^2 + phi phi'' + m^2| for the local surrogate equation,
    at one interior point or elementwise on an array of them."""
    spec = sol.spec
    if not isinstance(spec, NonlocalSpec):
        raise DomainError("residual_nonlocal needs a nonlocal solution")
    f0, f1, f2 = _stencil(sol, x)
    r = np.abs(f1 - f1**2 + f0 * f2 + spec.m**2)
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

    Near the ends it false-fails: as x -> 0, v -> 1/q and |v - 1/q| =
    A = (1/p + 1/q) sin^q(w x) cancels down to the rounding d ~ 2 (p* + 1)
    eps of v, which moves the curve by |u| ((1 + d/A)^(1/q) - 1), about eps
    |u| / (q sin^q(w x)); likewise |v + 1/p| with c^{p*} and 1/p as x -> H.
    At (1.5, 4, H = 1) that is 4.5e-9 at x = 1e-3 and u itself at 3e-5.
    Substituting -(1/p + 1/q) sin^q for v - 1/q would reduce the check to
    q pi_{p*,q} = p pi_{q*,p}.  verify samples x/H in [0.1, 0.9].
    """
    spec = sol.spec
    if not isinstance(spec, BvpSpec):
        raise DomainError("phase_curve_residual needs a general-problem solution")
    H, p, q = spec.H, spec.p, spec.q
    xx = _interior(spec, x)
    P = conjugate(p)
    omega, _ = _profile_scales(H, P, q)
    _, c, _ = _sincos_tail(P, q, omega * xx)
    r = np.abs(sol._eval(xx) - _phase_curve(H, p, q, P, c))
    return float(r) if np.ndim(x) == 0 else r


def general_checks(p: float, q: float, Hs, fractions):
    """Verify the general problem at (p, q) on [0, H] for each H in Hs, at
    the interior points x = H * fractions.

    Returns one (ode, phase, boundary) per H: the arrays
    residual_general(sol, x) and phase_curve_residual(sol, x), equal bit for
    bit to those calls on sol = solve_general(BvpSpec(H, p, q)) while their
    stencils take the same gtf lane as the fused array (fewer than
    specfun.INV_FIT_MIN points in all, as in verify), and the float
    max(|sol(0)|, |sol(H)|) from that array.  Every H's stencil and both
    ends are inverted in one gtf call, and the phase-curve check takes its
    cosine from the stencil's centre row instead of inverting again.
    """
    specs = [BvpSpec(H=H, p=p, q=q) for H in Hs]
    frac = np.asarray(fractions, dtype=float)
    P = conjugate(p)
    H = np.array([spec.H for spec in specs])[:, None]
    xx = H * frac
    for spec, row in zip(specs, xx):
        _interior(spec, row)
    omega, amp = _profile_scales(H, P, q)
    h, rows = _stencil_rows(H, xx)  # rows: (5, len(Hs), len(fractions))
    ends = H * np.array([0.0, 1.0])
    cut = rows.size
    args = np.concatenate(((omega * rows).ravel(), (omega * ends).ravel()))
    sincos = _sincos_tail(P, q, args)  # (s, c, yc)
    at_rows = [v[:cut].reshape(rows.shape) for v in sincos]
    at_ends = [v[cut:].reshape(ends.shape) for v in sincos]
    u0, u1, u2 = _richardson(h, _profile(P, q, amp, *at_rows))
    ode = _ode_general(p, q, u0, u1, u2)
    phase = np.abs(u0 - _phase_curve(H, p, q, P, at_rows[1][0]))
    bc = np.abs(_profile(P, q, amp, *at_ends)).max(axis=1)
    return [(ode[i], phase[i], float(bc[i])) for i in range(len(specs))]
