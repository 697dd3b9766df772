"""Closed-form positive solutions of the quadratic-gradient boundary value
problems and their verifiers.

The general problem on [0, H],

    (p - q) u' - p q (u')^2 + (p + q) u u'' + 1 = 0,   u(0) = u(H) = 0,

has the single positive solution

    u(x) = (2H / (q pi_{p*,q})) cos_{p*,q}^(p*-1)(w x) sin_{p*,q}(w x),

with w = pi_{p*,q} / (2H).  The nonlocal variant replaces the constant
forcing by (2/H) int (phi')^2 and is solved by rescaling the general
solution with p* = q = r(m) (nonlocal_exponent); the p = q case on [0, 1]
collapses, through the multiple-angle formula, to a mirrored sin_{2,p}
profile.  Every function takes the problem's numbers, H > 0, p, q in
(1, inf) and m > 0, and rejects the rest with DomainError.

Residual verifiers use central finite differences (one Richardson step),
so they stay independent of the closed forms they check.  They take a point
or an array of points; a point is evaluated as a one-element array, so it
gives the same bits as one.  The general problem has one evaluator, behind
residual_general, phase_curve_residual and general_checks: it inverts the
5-point stencils x, x +- h, x +- h/2 of every point and the ends 0 and H in
one fused sin/cos call (gtf._sincos_tail), in the gtf lane the array's size
picks: one inversion gives a point's sine and cosine, two in the band
between I_{1/2}(1/q, 1/p) and 1/2.  The phase curve's cosine comes from the
stencil's centre row.  general_checks also takes numpy arrays p and q, and
then makes that one call for every pair (gtf's lane for several pairs).
A residual agrees with one computed point by point from scalar sol(x) calls
to 8 (p + q) eps |u| / h^2 (the ODE residual's second difference divides a
last-ulp difference of u by h^2).

The profile's factor cos^(p*-1) = cos^(1/(p-1)) and the phase curve's
|v + 1/p|^(1/p) = (1/p + 1/q)^(1/p) cos^(p*-1) come from gtf._cos_power,
gtf's one rule for that power (its appendix, multiple-angle and
derivative-identity residuals take it too): where cos_{p*,q} underflows (p
above ~100 near x = H, above ~300 on much of (0, H); the nonlocal problem
at m below ~0.1) it is the leading term's base b B(b, a) yc, not a power of
the underflowed cosine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quadrature
from .errors import DomainError, check_pq
from .gtf import (
    _as_unit, _cos_power, _pair, _per_pair, _power, _several, _sincos_tail,
    conjugate, extend_sin_symmetric, pi_pq,
)


@dataclass(frozen=True)
class BvpSolution:
    """Immutable positive solution on [0, H]; evaluate with sol(x),
    vectorized in x.

    A float x gives a float from gtf's float lane, an array an array from
    the lane its size selects; both are within 2e-15 of the profile at 50
    digits, relative.  ``_eval(x)`` evaluates the profile at points already
    in [0, H].
    """

    H: float
    _eval: Callable = field(repr=False)

    def __call__(self, x):
        # gtf's validator: the same slack, and a float x takes its float lane
        return self._eval(_as_unit(x, self.H, "sol(x)"))


def _profile_scales(H: float, P: float, q: float):
    """(omega, amp) of the general profile amp cos^(P-1)(omega x) sin(omega x)
    on [0, H], with P = p*: omega = pi_{P,q} / (2H), amp = 2H / (q pi_{P,q}).
    The validator of H: both must be finite and nonzero, which rejects H <= 0,
    NaN, inf, and H so large or so small that either overflows."""
    pi_val = 2.0 * _pair(P, q)[0]  # pi_pq(P, q) bit for bit, and the profile's record
    if H > 0.0:  # written so that NaN fails the test, and before dividing
        omega, amp = pi_val / (2.0 * H), 2.0 * H / (q * pi_val)
        if 0.0 < omega < math.inf and 0.0 < amp < math.inf:
            return omega, amp
    raise DomainError(f"need H > 0 with finite nonzero profile scales, got H = {H}")


def _profile(P: float, q: float, amp, s, c, yc):
    """amp cos^(P-1) sin from _sincos_tail's (s, c, yc) at (P, q)."""
    return amp * _cos_power(P, q, c, yc) * s


def solve_general(H: float, p: float, q: float) -> BvpSolution:
    """Positive solution of (p-q)u' - pq(u')^2 + (p+q)uu'' + 1 = 0 on [0, H]."""
    check_pq(p, q)
    P = conjugate(p)
    omega, amp = _profile_scales(H, P, q)

    def u(x):
        return _profile(P, q, amp, *_sincos_tail(P, q, omega * x))

    return BvpSolution(H=H, _eval=u)


def nonlocal_exponent(m: float) -> float:
    """r(m) = 1 / (1/2 + 1 / (4 sqrt(m^2 + 1/4))) in (1, 2): both p* and q of
    the general problem that the nonlocal one rescales.  Needs m in (0, inf)
    large enough that r(m) > 1 in floating point (m above ~1e-8)."""
    r = 1.0 / (0.5 + 0.25 / math.hypot(m, 0.5))
    # written so that NaN fails the test
    if not (0.0 < m < math.inf and r > 1.0):
        raise DomainError(f"need m > 0 with r(m) > 1, got m = {m}")
    return r


def solve_nonlocal(H: float, m: float) -> BvpSolution:
    """Positive solution of phi' - (phi')^2 + phi phi'' + (2/H) int (phi')^2 = 0.

    The solution is 2 sqrt(m^2 + 1/4) times the general solution with
    p* = q = r(m); the integral term then evaluates to exactly m^2.  The
    general profile stays below H, so the solution is finite wherever the
    product of its scale and H is.
    """
    r = nonlocal_exponent(m)
    inner = solve_general(H, conjugate(r), r)
    scale = 2.0 * math.hypot(m, 0.5)  # m^2 would overflow from m ~ 1e154
    if not scale * H < math.inf:
        raise DomainError(f"the nonlocal profile overflows at m = {m}, H = {H}")

    def phi(x):
        return scale * inner._eval(x)

    return BvpSolution(H=H, _eval=phi)


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

    return BvpSolution(H=1.0, _eval=u)


def _stencil_rows(H, xx):
    """The step h and the stencil rows x, x + h, x - h, x + h/2, x - h/2
    (stacked on a new first axis) of points xx interior to (0, H), else
    DomainError; H may be an array that broadcasts against xx."""
    if not ((xx > 0.0) & (xx < H)).all():
        raise DomainError("x must be interior to (0, H)")
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


def _general_scalars(p: float, q: float, Hs):
    """The Python floats of the general problem at one pair that _general
    needs, after check_pq(p, q): P = p*; then the phase curve's 1/p + 1/q,
    the denominator p (1/p + 1/q)^(1/p + 1/q) pi_{q*,p} of its constant and
    its factor (1/p + 1/q)^(1/p); then omega and amp at each H in Hs
    (_profile_scales)."""
    check_pq(p, q)
    P = conjugate(p)
    ssum = 1.0 / p + 1.0 / q
    den = p * ssum**ssum * pi_pq(conjugate(q), p)
    return (P, ssum, den, ssum ** (1.0 / p),
            *[v for H in Hs for v in _profile_scales(H, P, q)])


def _phase_curve(H, p, q, P, ssum, den, root, c, yc):
    """C |v + 1/p|^(1/p) |v - 1/q|^(1/q), the phase-plane value of u, with
    v = -1/p + (1/p + 1/q) c^P from the cosine c = cos_{P,q}(w x), P = p*,
    and C = 2H / den; the first factor is root c^(P-1), root = (1/p +
    1/q)^(1/p) and P/p = P - 1, from c and the argument yc of its inversion
    (gtf._cos_power).  The per-pair values are floats, or arrays that
    broadcast against c."""
    v = -1.0 / p + ssum * _power(c, P)
    C = 2.0 * H / den
    return C * root * _cos_power(P, q, c, yc) * _power(np.abs(v - 1.0 / q), 1.0 / q)


def _general(p, q, Hs, xs):
    """(ode, phase, boundary) of the general problem at (p, q) on [0, H] for
    each H in Hs, at the interior points xs[i] of [0, Hs[i]]: the ODE and
    phase-curve residuals, shaped like xs, and max(|u(0)|, |u(H)|) per H.
    Arrays p and q put the shape S of their broadcast in front of those,
    and each pair's floats (_general_scalars) come from one call a pair.
    One _sincos_tail call inverts every stencil row and both ends of every
    pair."""
    H = np.array(Hs, dtype=float)
    xx = np.asarray(xs, dtype=float)
    h, rows = _stencil_rows(H[:, None], xx.reshape(len(H), -1))  # rows: (5, len(H), n)
    ends = H[:, None] * np.array([0.0, 1.0])
    fn = functools.partial(_general_scalars, Hs=H.tolist())
    several = _several(p, q)
    if several:
        P, ssum, den, root, *scales = _per_pair(fn, p, q)
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    else:
        P, ssum, den, root, *scales = fn(p, q)
    omega, amp = np.stack(scales[::2], -1), np.stack(scales[1::2], -1)  # S + (len(H),)
    lead = omega.shape[:-1]  # S

    def lifted(k, *vals):
        """The per-pair vals with k trailing axes, against the points."""
        return [v.reshape(v.shape + (1,) * k) if several else v for v in vals]

    args = np.concatenate(((omega[..., None, :, None] * rows).reshape(lead + (-1,)),
                           (omega[..., None] * ends).reshape(lead + (-1,))), axis=-1)
    sincos = _sincos_tail(*lifted(1, P, q), args)  # (s, c, yc)
    cut = rows.size
    at_rows = [v[..., :cut].reshape(lead + rows.shape) for v in sincos]
    at_ends = [v[..., cut:].reshape(lead + ends.shape) for v in sincos]
    profile = _profile(*lifted(3, P, q), amp[..., None, :, None], *at_rows)
    u0, u1, u2 = _richardson(h, np.moveaxis(profile, -3, 0))
    p, q, P, ssum, den, root = lifted(2, p, q, P, ssum, den, root)
    ode = np.abs((p - q) * u1 - p * q * u1**2 + (p + q) * u0 * u2 + 1.0)
    c0, yc0 = at_rows[1][..., 0, :, :], at_rows[2][..., 0, :, :]
    phase = np.abs(u0 - _phase_curve(H[:, None], p, q, P, ssum, den, root, c0, yc0))
    bc = np.abs(_profile(P, q, amp[..., None], *at_ends)).max(axis=-1)
    return ode.reshape(lead + xx.shape), phase.reshape(lead + xx.shape), bc


def _at_points(which: int, H: float, p: float, q: float, x):
    """Residual `which` (0 ode, 1 phase) of _general at x, a float for a
    point."""
    r = _general(p, q, [H], np.atleast_1d(np.asarray(x, dtype=float))[None])[which][0]
    return float(r[0]) if np.ndim(x) == 0 else r


def residual_general(H: float, p: float, q: float, x):
    """|(p-q)u' - pq(u')^2 + (p+q)uu'' + 1| of solve_general(H, p, q) via
    finite differences, at one interior point or elementwise on an array."""
    return _at_points(0, H, p, q, x)


def phase_curve_residual(H: float, p: float, q: float, x):
    """Residual of the first integral u = C |v + 1/p|^(1/p) |v - 1/q|^(1/q).

    v is evaluated in closed form, v = -1/p + (1/p + 1/q) cos_{p*,q}^{p*}(w x),
    and C = 2H / (p (1/p + 1/q)^(1/p+1/q) pi_{q*,p}); no differentiation
    enters, so this checks solve_general(H, p, q) against the phase-plane
    curve of its derivation.  Takes one interior point or an array of them.

    Near x = 0 it false-fails: v -> 1/q and |v - 1/q| = A = (1/p + 1/q)
    sin^q(w x) cancels down to the rounding d ~ 2 (p* + 1) eps of v, which
    moves the curve by about eps |u| / (q sin^q(w x)): 4.5e-9 at x = 1e-3 and
    u itself at 3e-5 for (1.5, 4, H = 1).  Substituting -(1/p + 1/q) sin^q for
    v - 1/q would reduce the check to q pi_{p*,q} = p pi_{q*,p}; |v + 1/p|^(1/p)
    is (1/p + 1/q)^(1/p) cos^(p*-1) by v's own definition (gtf._cos_power), so
    it neither cancels near H nor underflows.  verify samples x/H in [0.1, 0.9].
    """
    return _at_points(1, H, p, q, x)


def general_checks(p: float, q: float, Hs, fractions):
    """Verify the general problem at (p, q) on [0, H] for each H in Hs, at
    the interior points x = H * fractions, from one gtf call.

    At numbers p and q, returns one (ode, phase, boundary) per H: the
    arrays that residual_general and phase_curve_residual return for those
    points (the same evaluator, so equal bit for bit while the arrays take
    the same gtf lane) and the float max(|u(0)|, |u(H)|).  At arrays p and
    q, which broadcast to a shape S, every pair takes that one gtf call
    (gtf's lane for several pairs), and it returns (ode, phase, boundary)
    stacked, of shapes S + (len(Hs), len(fractions)) twice and S +
    (len(Hs),): each pair's values equal its own call's bit for bit where
    that call takes scipy's ufuncs (fewer than specfun.INV_FIT_MIN points).
    """
    H = np.array(Hs, dtype=float)
    ode, phase, bc = _general(p, q, H, H[:, None] * np.asarray(fractions, dtype=float))
    if _several(p, q):
        return ode, phase, bc
    return [(ode[i], phase[i], float(bc[i])) for i in range(len(H))]


def _nonlocal_checked(H: float, m: float) -> BvpSolution:
    """solve_nonlocal(H, m) for the two nonlocal checks, which square the
    slope scale 2 sqrt(m^2 + 1/4) (as m^2 and as (phi')^2): DomainError
    naming m where that square overflows (m above ~6.7e153)."""
    sol = solve_nonlocal(H, m)
    scale = 2.0 * math.hypot(m, 0.5)
    if not scale * scale < math.inf:
        raise DomainError(f"the nonlocal checks overflow at m = {m}: m^2 is not finite")
    return sol


def residual_nonlocal(H: float, m: float, x):
    """|phi' - (phi')^2 + phi phi'' + m^2| of solve_nonlocal(H, m), the local
    surrogate equation, at one interior point or elementwise on an array."""
    sol = _nonlocal_checked(H, m)
    h, rows = _stencil_rows(H, np.atleast_1d(np.asarray(x, dtype=float)))
    f0, f1, f2 = _richardson(h, sol._eval(rows))
    r = np.abs(f1 - f1**2 + f0 * f2 + m**2)
    return float(r[0]) if np.ndim(x) == 0 else r


def nonlocal_mean_square_slope(H: float, m: float) -> float:
    """(2/H) int_0^H (phi')^2 dt of solve_nonlocal(H, m), with phi' by
    central differences.

    This reproduces m^2.  Stencil centres are clamped a step away from the
    boundary; the slope is bounded there (u' = 1/q at 0, -1/p at H, scaled by
    the amplitude), so the strips contribute only O(h) of a bounded
    integrand to the quadrature.  One profile call per node set serves both
    sides of every stencil.
    """
    sol = _nonlocal_checked(H, m)
    h = 1e-5 * H

    def g(x):
        xc = np.clip(x, h, H - h)
        hi, lo = sol(np.concatenate((xc + h, xc - h))).reshape(2, -1)
        d = (hi - lo) / (2.0 * h)
        return d * d

    res = quadrature.integrate(g, 0.0, H, tol=1e-9)
    return 2.0 / H * res.value
