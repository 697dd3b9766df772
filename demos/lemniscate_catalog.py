"""The lemniscate sine and its Wallis-style integral catalog.

The lemniscate sine sl = sin_{2,4} plays the role of the circular sine for
the arc length of Bernoulli's lemniscate, with the lemniscate constant
varpi = pi_{2,4} standing in for pi.  Every moment int_0^{varpi/2} sl^k dt
has a closed form: a rational product times one of four constants chosen by
k mod 4.  This script prints the catalog and confirms each entry against
tanh-sinh quadrature.
"""

from gentrig import gtf, integrals, quadrature

varpi = gtf.pi_pq(2.0, 4.0)
print(f"lemniscate constant varpi = {varpi:.15f}")
print(f"check: 2 * int_0^1 (1-t^4)^(-1/2) dt")


labels = {0: "varpi/2", 1: "pi/4", 2: "pi/(2 varpi)", 3: "1/2"}
print(f"\n{'k':>3} {'closed form':>20} {'quadrature':>20} {'diff':>9}  constant")
for n in range(4):
    for residue in range(4):
        k = 4 * n + residue
        closed = integrals.lemniscate_wallis(n, residue)
        # int_0^{varpi/2} sl^k dt, via the substitution s = sl
        oracle = quadrature.power_moment(2.0, 4.0, float(k), "sin", tol=1e-12)
        print(
            f"{k:>3} {closed:>20.15f} {oracle:>20.15f} "
            f"{abs(closed - oracle):>9.1e}  {labels[residue]}"
        )

print("\nall residue classes follow the step-down recurrence")
print("I_k = (k - 3)/(k - 1) * I_{k-4}:")
for k in (5, 9, 13):
    n, residue = divmod(k, 4)
    lhs = integrals.lemniscate_wallis(n, residue)
    rhs = (k - 3.0) / (k - 1.0) * integrals.lemniscate_wallis(n - 1, residue)
    print(f"  k={k:>2}: {lhs:.15f} vs {rhs:.15f}")
