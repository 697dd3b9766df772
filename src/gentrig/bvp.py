"""Closed-form positive solutions of the quadratic-gradient boundary value
problems and their verifiers.

The general problem on [0, H],

    (p - q) u' - p q (u')^2 + (p + q) u u'' + 1 = 0,   u(0) = u(H) = 0,

has the single positive solution

    u(x) = (2H / (q pi_{p*,q})) cos_{p*,q}^(p*-1)(w x) sin_{p*,q}(w x),

with w = pi_{p*,q} / (2H).  With a = 1/q, b = 1/p, B = B(a, b) and t =
sin^q(w x), that is u = (H/B) t^a (1 - t)^b, where t solves I_t(a, b) =
x/H: every solver and verifier evaluates it on gtf's record of the
problem's own shapes (a, b) (gtf._shapes), with the exponents 1/p* =
(p - 1)/p and 1/(p* - 1) = p - 1, and never forms p* itself.  It hands
gtf the fraction x/H of the half period and its complement (H - x)/H
(H - x is exact from x = H/2 up), which gtf inverts as they are; w x is
never formed, since dividing it back by pi_{p*,q}/2 magnifies its
rounding by x/(H - x) near x = H.  The nonlocal variant replaces the
constant forcing by (2/H) int (phi')^2 and is solved by rescaling the
general solution with p* = q = r(m) (nonlocal_exponent), at the shapes 1/r
and (r - 1)/r; the p = q case on [0, 1] collapses, through the
multiple-angle formula, to a mirrored sin_{2,p} profile.  Every function
takes the problem's numbers, H > 0, p, q in (1, inf) and m > 0, and
rejects the rest with DomainError.

The general problem has one public verifier, general_checks, for the ODE,
the phase-plane first integral and the boundary values.  The ODE is checked
as the paper solves it, in the travel-time variable t = sin^q(w x), sin =
sin_{p*,q}: with a = 1/q, b = 1/p and B = B(a, b), u' = v = a - (a + b) t
and dx = (H/B) t^(a-1) (1-t)^(b-1) dt, so the travel time is x / H =
I_t(a, b), and the first integral u = U(v) is the integral of v,

    U = (H/B) [(a + b) B_t(a, b + 1) - b B_t(a, b)]           (t <= 1/2),
    U = (H/B) [(a + b) B_{1-t}(b, a + 1) - a B_{1-t}(b, a)]   (t > 1/2),

the second integrated back from u(H) = 0.  The tanh-sinh oracle evaluates
both in the point's smaller tail (quadrature.beta_integrals); the two
relations together imply the ODE, and no difference step enters.  U's two
terms cancel by a factor F of at most (1 + q/p) 2^(1/p) below t = 1/2 and
(1 + p/q) 2^(1/q) above (its limits are 1 + q/p as t -> 0 and 1 + p/q as
t -> 1): 6.6e-14 of u, relative, at (p, q) = (1.01, 1000), where F is
near 1970.
general_checks inverts every fraction x/H and the ends 0 and 1 once, for
every H, in one fused sin/cos call (gtf._sincos, in gtf's lane for several
pairs): one inversion gives a point's sine and cosine, two in the band
between I_{1/2}(1/q, 1/p) and 1/2.  Every fraction's travel time and U,
and one complete beta integral a pair, are one oracle batch; the travel
time does not depend on H, and u, U and the ends scale by H/B.  Numpy
arrays p and q take that one gtf call and that one batch for every pair,
and a single pair is their one-pair case.  The nonlocal closure,
nonlocal_mean_square_slope, integrates the square of the closed form's own
slope, S v with v = u' the phase variable of the derivation, by the
tanh-sinh oracle on [0, 1] in u = x/H, its nodes u and 1 - u the
fractions, so the integrand holds no H, every m of an array one row of one
batch that makes one gtf call a level.  solve_pq_equal takes an array p,
and its sol(x) makes one gtf call for every p.

The profile's factor cos^(p*-1) = (1 - t)^b is the third output of
gtf._sincos, gtf's one rule for that power (its appendix residuals take
it too): tc^b of the swapped-tail inverse tc = 1 - t = cos^(p*), taken
before the cosine tc^(1/p*) is, so no rounding of the cosine is
magnified; where tc falls below DBL_MIN (p above ~100 near x = H, above
~300 on much of (0, H); the nonlocal problem at m below ~0.1) it is the
leading term's base b B(b, a) yc, which does not underflow.  U depends on
the point through that root alone, so the phase case sees the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quadrature
from .errors import DomainError, as_float, as_floats, check_pq
from .gtf import (
    _as_unit, _per_pair, _power, _records, _several, _shapes, _sincos, extend_sin_symmetric,
)


@dataclass(frozen=True)
class BvpSolution:
    """Immutable positive solution on [0, H]; evaluate with sol(x),
    vectorized in x.

    A float x gives a float from gtf's float lane, an array an array from
    the lane its size selects; both are within 2e-15, relative, of the
    profile at 50 digits taken at the code's own fractions x/H and (H -
    x)/H and amplitude.  Against the exact profile at the doubles' shapes
    1/q and 1/p, with x alone rounded, they read within 1.2e-15 up to x/H
    = 0.9 at p from 1 + 1.25e-9 to 1e9 (tests/test_bvp.py,
    TestProblemShapes), and within 6.1e-16 up to x/H = 0.999 at (2.5, 3)
    and (1.5, 4) (TestNearTheRightEnd).  ``_eval(x)`` evaluates the
    profile at points already in [0, H].
    """

    H: float
    _eval: Callable = field(repr=False)

    def __call__(self, x):
        # gtf's validator: the same slack, and a float x takes its float lane
        return self._eval(_as_unit(x, self.H, "sol(x)"))


def _general_record(p: float, q: float):
    """gtf's record of the general problem at (p, q), after check_pq: the
    shapes a = 1/q and b = 1/p of its travel time (gtf._shapes), with the
    exponents 1/p* = (p - 1)/p and 1/(p* - 1) = p - 1 of sin_{p*,q}'s
    cosine."""
    p, q = check_pq(p, q)
    return _shapes(1.0 / q, 1.0 / p, (p - 1.0) / p, p - 1.0)


def _amplitude(H: float, rec) -> float:
    """amp = H / B = 2H / (q pi_{p*,q}) of the general profile amp t^a (1 -
    t)^b on [0, H] at its record rec, B = B(1/q, 1/p) = rec[-1].  The
    validator of H: DomainError for H <= 0, NaN and inf, for H so large
    that 2H overflows or so small that pi_{p*,q} / (2H) = rec[0] / H does,
    and for H whose amp underflows to 0."""
    if H > 0.0:  # written so that NaN fails the test, and before dividing
        amp = H / rec[-1]
        if 2.0 * H < math.inf and rec[0] / H < math.inf and amp > 0.0:
            return amp
    raise DomainError(f"need H > 0 with finite nonzero profile scales, got H = {H}")


def _solution(H: float, rec) -> BvpSolution:
    """The general profile on [0, H] at its record rec (_general_record),
    evaluated at the fraction x/H of the travel time and its complement
    (H - x)/H."""
    amp = _amplitude(H, rec)

    def u(x):
        s, _, cp = _sincos(rec, x / H, yc=(H - x) / H)
        return amp * cp * s

    return BvpSolution(H=H, _eval=u)


def solve_general(H: float, p: float, q: float) -> BvpSolution:
    """Positive solution of (p-q)u' - pq(u')^2 + (p+q)uu'' + 1 = 0 on [0, H].
    A 0-d H, p or q is taken as its float, as gtf's entry points take it."""
    return _solution(as_float(H, "H"), _general_record(p, q))


def nonlocal_exponent(m: float) -> float:
    """r(m) = 1 / (1/2 + 1 / (4 sqrt(m^2 + 1/4))) in (1, 2): both p* and q of
    the general problem that the nonlocal one rescales.  Needs m in (0, inf)
    large enough that r(m) > 1 in floating point (m above ~1e-8)."""
    r = 1.0 / (0.5 + 0.25 / math.hypot(as_float(m, "m"), 0.5))
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
    # the record (_general_record) of p* = q = r from r itself: the shapes
    # 1/q = 1/r and 1/p = (r - 1)/r, and the exponents 1/p* = 1/r and
    # 1/(p* - 1)
    inner = _solution(H, _shapes(1.0 / r, (r - 1.0) / r, 1.0 / r, 1.0 / (r - 1.0)))
    scale = 2.0 * math.hypot(m, 0.5)  # m^2 would overflow from m ~ 1e154
    if not scale * H < math.inf:
        raise DomainError(f"the nonlocal profile overflows at m = {m}, H = {H}")

    def phi(x):
        return scale * inner._eval(x)

    return BvpSolution(H=H, _eval=phi)


def solve_pq_equal(p: float) -> BvpSolution:
    """Positive solution of -p^2(u')^2 + 2p u u'' + 1 = 0 on [0, 1].

    Equals sin_{2,p}(pi_{2,p} x) / (p pi_{2,p}) with the mirror extension on
    [1/2, 1]; symmetric about x = 1/2.  A numpy array p gives the solutions
    of all its p at once: sol(x) broadcasts p against x and makes one gtf
    call (gtf's lane for several pairs), each value equal bit for bit to its
    own p's solution in scipy's ufunc lane.
    """
    try:
        pi_val = 2.0 * _records(2.0, p)[0]  # pi_pq(2, p) bit for bit, after check_pq(2, p)
    except TypeError:  # a 0-d p: no cache hashes an array
        return solve_pq_equal(float(p))
    amp = 1.0 / (p * pi_val)

    def u(x):
        return amp * extend_sin_symmetric(p, pi_val * x)

    return BvpSolution(H=1.0, _eval=u)


def _general_scalars(p: float, q: float, Hs):
    """The Python floats of the general problem at one pair that
    general_checks needs: amp at each H in Hs (_amplitude), then the pair's
    record (_general_record)."""
    rec = _general_record(p, q)
    return (*[_amplitude(H, rec) for H in Hs], *rec)


def general_checks(p: float, q: float, Hs, fractions):
    """Verify the general problem at (p, q) on [0, H] for each H in Hs, at
    the interior points x/H = fractions, from one gtf call and one oracle
    batch.

    Returns (ode, phase, boundary), the first two of shape (len(Hs),
    len(fractions)) and the last of shape (len(Hs),), with a = 1/q, b = 1/p,
    B = B(a, b) and t = sin^q(w x), sin = sin_{p*,q}:
    - ode, the travel-time residual |x/H - I_t(a, b)|.  The incomplete beta
      function is the tanh-sinh oracle's (quadrature.beta_integrals at tol
      1e-13), each point's in its smaller tail: B_t(a, b) / B, or one minus
      B_{1-t}(b, a) / B, each given by its root, sin or cos^(p*-1) = (1 -
      t)^b (gtf._sincos's third output), so nothing underflows.  Bound:
      the oracle stops once two levels agree to 1e-13 of its substituted
      integrals, which are at least 1 (every exponent b - 1 = 1/p - 1 or
      1/q - 1 is negative), so the error estimate of each beta value is
      below 1e-13 of the value.
      The point's row and its pair's complete row then move I by at most
      1e-13 each, and the residual is within 2e-13 plus a few roundings of
      the inversion (it reads at most 4.4e-16 on verify's full grid, 5.6e-16
      on its extreme grid and 5.6e-16 over p - 1 in [1e-10, 1e-3]).  The
      travel time does not depend on H, so every H's row is the same, bit
      for bit;
    - phase, |u - U| with U = (H/B) [(a + b) B_t(a, b + 1) - b B_t(a, b)]
      where t <= 1/2, else (H/B) [(a + b) B_{1-t}(b, a + 1) - a B_{1-t}(b,
      a)]: the point's travel-time row and that row with its second shape
      raised by 1, at the same root.  With the travel time it implies the
      ODE (p-q)u' - pq(u')^2 + (p+q)uu'' + 1 = 0 of solve_general(H, p, q):
      dx/dt = (H/B) t^(a-1) (1-t)^(b-1) and dU/dt = (a - (a + b) t) dx/dt
      give u' = a - (a + b) t = v, and u = U(v) = (H/B) t^a (1-t)^b (by
      parts) = C |v - 1/q|^(1/q) |v + 1/p|^(1/p), the phase-plane curve of
      the derivation, along which u'' = v / U'(v) = (v - 1/q) (v + 1/p) /
      ((1/p + 1/q) u), the ODE.  Bound: U's terms cancel by F = (a + b)
      B_t(a, b + 1) / (t^a (1-t)^b) <= (1 + q/p) 2^(1/p) below t = 1/2, and
      (1 + p/q) 2^(1/q) above, with b and a swapped; the raised row's
      substituted integrand lies in [2^-b, 1], so its estimate is below
      2e-13 of it, and |u - U| is within 3 F 1e-13 |u| plus F times a few
      roundings.  |u| <= H a below t = 1/2 (B >= 2^-a / a) and H b above,
      so that is at most 1.2e-12 H, verify's tolerance 4H (3e-13 + 4 eps).
      It reads at most 2.5e-16 H on verify's full grid, 3.1e-16 H on its
      extreme grid and 4.9e-16 H on 60 random two-value
      grids (p - 1 and q - 1 log-uniform in [1e-6, 1e6]);
    - boundary, max(|u(0)|, |u(H)|).
    One gtf._sincos call on the pairs' records (_general_record) inverts
    every fraction and both ends, 0 and 1, of every pair once, at the
    fraction and its complement 1 - fraction, and one beta_integrals batch
    takes every fraction's two rows, with one complete B(a, b) a pair: the
    travel time does not depend on H, and u, U and the ends scale by amp =
    H/B (_general_scalars gives each pair's floats).
    Arrays p and q, which broadcast to a shape S, put S in front of those
    shapes; a pair is the one-pair case of that lane (gtf's lane for
    several pairs, scipy's ufuncs at any size), so each pair's values equal
    its own call's bit for bit.  A 0-d p or q is taken as its float.
    Hs or fractions that are not 1-D sequences raise DomainError, and so
    do fractions not interior to (0, 1); an empty one gives empty arrays of
    those shapes, after p, q and every H are checked.
    """
    H, fractions = as_floats(Hs, "Hs"), as_floats(fractions, "fractions")
    if H.ndim != 1 or fractions.ndim != 1:
        raise DomainError(f"general_checks needs 1-D Hs and fractions, got shapes "
                          f"{H.shape} and {fractions.shape}")
    if not ((fractions > 0.0) & (fractions < 1.0)).all():
        raise DomainError("x/H must be interior to (0, 1)")
    fields = _per_pair(_general_scalars, p, q, H.tolist())  # Python floats for _amplitude
    amp = np.moveaxis(fields[:H.size], 0, -1)[..., None]  # S + (len(H), 1)
    # every pair's record with a trailing axis against the points
    rec = [v[..., None] for v in fields[H.size:]]  # a = 1/q and b = 1/p are rec[1] and rec[2]
    a, b = rec[1:3]
    y = np.concatenate((fractions, [0.0, 1.0]))  # both ends last
    s, _, cp = _sincos(rec, y, yc=1.0 - y)
    u = amp * (cp * s)[..., None, :]  # S + (len(H), len(fractions) + 2)
    bc = np.abs(u[..., -2:]).max(axis=-1)
    s, cp, u = s[..., :-2], cp[..., :-2], u[..., :-2]
    # each point's rows in its smaller tail, t = sin^q or 1 - t = cos^(p*),
    # both at its root: B_t(a, b) and B_t(a, b + 1) at sin where t <= 1/2,
    # else B_{1-t}(b, a) and B_{1-t}(b, a + 1) at (1 - t)^b = cos^(p*-1) =
    # cp, taken from the inverse, which stays exact where cos^(p*) underflows
    low = s <= np.exp2(-a)
    first, second = (np.where(low, *ab) for ab in ((a, b), (b, a)))
    # every point's two rows, then each pair's complete B(a, b)
    rows = [np.concatenate((first.ravel(), first.ravel(), a.ravel())),
            np.concatenate((second.ravel(), (second + 1.0).ravel(), b.ravel()))]
    root = np.where(low, s, cp).ravel()
    upper = np.concatenate((root, root, np.ones(a.size)))
    # the oracle at tol 1e-13: verify's bvp ode tolerance derives from it
    beta = quadrature.beta_integrals(*rows, tol=1e-13, upper=upper).value
    tail, raised = beta[:2 * s.size].reshape((2,) + s.shape)
    complete = beta[2 * s.size:].reshape(a.shape)
    ratio = tail / complete
    ode = np.abs(fractions - np.where(low, ratio, 1.0 - ratio))[..., None, :]
    U = ((a + b) * raised - second * tail)[..., None, :]
    phase = np.abs(u - H[:, None] / complete[..., None] * U)
    return np.broadcast_to(ode, phase.shape).copy(), phase, bc


def _closure_scalars(H: float, m: float):
    """The Python floats of the closure at one m, after solve_nonlocal(H,
    m) validates both: the record of the general problem it rescales
    (solve_nonlocal's, with b = 1/p = (r - 1)/r and a + b = 1/p + 1/q), r =
    r(m) = p* and the slope scale S = 2 sqrt(m^2 + 1/4).

    DomainError naming m and H where the oracle would overflow.  It
    integrates (phi')^2 at x/H = u over u in [0, 1], an integrand that does
    not depend on H, so its estimate is m^2 / 2 at every H, and at level L
    its running sum of weighted (phi')^2 is about 2^(L+1) times that,
    2^L m^2.  It stops at level 4 for every m from 0.5 up, so 16 m^2 must
    be finite: m below ~3.35e153, at every H.  That also keeps the
    integrand, at most S^2 ~ 4 m^2, finite.
    """
    solve_nonlocal(H, m)
    if not 16.0 * m * m < math.inf:
        raise DomainError(f"the nonlocal closure overflows at m = {m}, H = {H}: "
                          f"16 m^2 is not finite")
    r = nonlocal_exponent(m)
    rec = _shapes(1.0 / r, (r - 1.0) / r, 1.0 / r, 1.0 / (r - 1.0))  # as solve_nonlocal's
    return (*rec, r, 2.0 * math.hypot(m, 0.5))


def nonlocal_mean_square_slope(H: float, m):
    """(2/H) int_0^H (phi')^2 dt of solve_nonlocal(H, m), which reproduces
    m^2, by the tanh-sinh oracle (Takahasi and Mori 1974) at tol 1e-13 from
    the closed form's own slope: phi' = S v with S = 2 sqrt(m^2 + 1/4) and
    v = -1/p + (1/p + 1/q) cos_{r,r}^r(w x), p = r(m)*, q = p* = r = r(m),
    on the record of the shapes 1/q = 1/r and 1/p = (r - 1)/r.  No
    difference step enters.

    The oracle integrates (phi')^2 at x = H u over u in [0, 1], and the
    value is twice its integral.  m is a number (a float is returned) or a
    numpy array (an array of its shape): every m is one row of a single
    quadrature.integrate batch, each level makes one gtf call at the rows
    still refining (gtf's lane for several pairs, also for one m), and each
    row equals its own call bit for bit; an empty array gives an empty
    array.  DomainError as solve_nonlocal for an invalid H (at m = 1 where
    m is empty) or any invalid m: NaN, m <= 0 or inf; and as
    _closure_scalars where the oracle's sums overflow, 16 m^2 not finite (m
    above ~3.35e153, at every H).

    Bound: the oracle stops once two levels agree to tol = 1e-13 relative to
    the integral m^2 / 2 where that is at least 1, and absolutely below, so
    |value - m^2| <= 1e-13 max(m^2, 2) plus a few roundings of m^2.  The
    stop test is pessimistic: at H in {1, 2, 2.5} the value reads within
    6.1e-14 of m^2, relative, at m = 0.05 and within 3.3e-16 from m = 0.5
    to 1e100.  At small m the absolute bound rules: the value reads 1.9e-10
    off, relative, at m = 1e-3 and up to 2.8e-2 at m = 1e-6, at most 2.8e-14
    absolute.
    """
    ms = as_floats(m, "m")
    if not ms.size:  # nothing to integrate; H is checked as at m = 1
        solve_nonlocal(H, 1.0)
        return np.empty(ms.shape)
    *rec, r, S = np.array([_closure_scalars(H, v) for v in ms.ravel().tolist()]).T[..., None]

    def f(u, rows):  # (phi')^2 at x/H = u, with a = rec[1] = 1/q and b = rec[2] = 1/p
        _, c, _ = _sincos([v[rows] for v in rec], u, (False, True, False), yc=1.0 - u)
        slope = S[rows] * (-rec[2][rows] + (rec[1] + rec[2])[rows] * _power(c, r[rows]))
        return slope * slope

    value = 2.0 * quadrature.integrate(f, ms.size, tol=1e-13).value
    return float(value[0]) if ms.ndim == 0 else value.reshape(ms.shape)
