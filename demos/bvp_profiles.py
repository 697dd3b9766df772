"""Closed-form solutions of a quasilinear boundary value problem.

The ODE (p-q) u' - pq (u')^2 + (p+q) u u'' + 1 = 0 with u(0) = u(H) = 0 is
solved exactly by a product of generalized sine and cosine powers.  A
related nonlocal problem, whose coefficient involves int (phi')^2 over the
whole interval, is solved by rescaling the same profile; the closure
relation m^2 = (2/H) int (phi')^2 then holds to roundoff.  The ODE is
checked as the paper solves it, by the travel time x/H = I_{sin^q(w x)}(1/q,
1/p), an incomplete beta function from the tanh-sinh oracle.
"""

import math

import numpy as np

from gentrig import bvp

print("general problem, travel-time residuals |x/H - I_{sin^q(w x)}(1/q, 1/p)| at midpoints:")
for p, q in ((1.5, 3.0), (2.0, 2.0), (4.0, 1.5)):
    sol = bvp.solve_general(1.0, p, q)
    xs = np.linspace(0.0, 1.0, 9)[1:-1]
    worst = bvp.general_checks(p, q, [1.0], xs)[0][0].max()
    print(f"  (p,q)=({p},{q}): max |residual| = {worst:.2e},"
          f"  u(1/2) = {sol(0.5):.12f}")

print("\np = q = 2 reduces to the classical eigenfunction sin(pi x)/(2 pi):")
sol = bvp.solve_general(1.0, 2.0, 2.0)
xs = np.linspace(0.0, 1.0, 11)
gap = np.max(np.abs(sol(xs) - np.sin(math.pi * xs) / (2.0 * math.pi)))
print(f"  max deviation on [0,1]: {gap:.2e}")

print("\nphase-plane first integral |u - U(v)|, U the integral of v = u' in t = sin^q(w x),")
print("from the same oracle batch as the travel time:")
phase = bvp.general_checks(3.0, 1.5, [2.5], [0.2, 0.5, 0.8])[1][0]
for x, r in zip((0.5, 1.25, 2.0), phase):
    print(f"  x={x}: residual = {r:.2e}")

print("\nnonlocal problem: the exponent pair depends on m through")
print("r(m) = 1/(1/2 + 1/(4 sqrt(m^2+1/4))), and the closure must return m^2:")
for m in (0.5, 1.0, 2.0, 10.0):
    got = bvp.nonlocal_mean_square_slope(1.0, m)
    print(f"  m={m:>4}: r = {bvp.nonlocal_exponent(m):.6f},  (2/H) int (phi')^2 = {got:.10f}"
          f"  (m^2 = {m * m})")

print("\nprofile table for m = 1 (peak at the midpoint):")
phi = bvp.solve_nonlocal(1.0, 1.0)
for x in np.linspace(0.0, 1.0, 11):
    bar = "#" * int(round(60 * phi(x) / phi(0.5)))
    print(f"  x={x:.1f}  phi={phi(x):.6f}  {bar}")
