"""Acceptance suite: ten end-to-end checks, each printing one PASS line.

Every expected value is either a classical constant, derived from an
independent quadrature oracle at run time, or an exact rational product.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import time

import numpy as np
import pytest

from gentrig import bvp, gtf, integrals, quadrature
from gentrig.bvp import BvpSpec, NonlocalSpec
from gentrig.gtf import ParamPair
from gentrig.integrals import EllipticQuery, WallisQuery


def report(name, max_residual, tol, extra=""):
    assert max_residual <= tol, f"{name}: {max_residual:.3e} > {tol:.0e}"
    suffix = f" {extra}" if extra else ""
    print(f"PASS {name} max_residual={max_residual:.3e} tol={tol:.0e}{suffix}")


def test_01_lemniscate_constant():
    start = time.perf_counter()
    varpi = gtf.pi_pq(2.0, 4.0)
    assert f"{varpi:.4f}" == "2.6221"

    def f(t, da, db):
        with np.errstate(divide="ignore"):
            return (-np.expm1(4.0 * np.log1p(-db))) ** -0.5

    oracle = 2.0 * quadrature.integrate(f, 0.0, 1.0, tol=1e-12, dist=True).value
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("lemniscate_constant", abs(varpi - oracle), 1e-10,
           extra=f"runtime={elapsed:.2f}s")


def test_02_constant_relations():
    start = time.perf_counter()
    varpi = gtf.pi_pq(2.0, 4.0)
    r1 = abs(gtf.pi_pq(4.0, 2.0) / (2.0 * math.pi / varpi) - 1.0)
    r2 = abs(gtf.pi_pq(2.0, 4.0 / 3.0) / (3.0 * math.pi / varpi) - 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("constant_relations", max(r1, r2), 1e-10)


def test_03_classical_wallis():
    worst = 0.0
    for n in range(1, 9):
        even = 1.0
        odd = 1.0
        for k in range(1, n + 1):
            even *= (2 * k - 1) / (2 * k)
            odd *= (2 * k) / (2 * k + 1)
        pair = ParamPair(2.0, 2.0)
        for fn in (integrals.wallis_sin, integrals.wallis_cos):
            worst = max(
                worst,
                abs(fn(WallisQuery(pair, n=n, r=0.0)) - even * math.pi / 2.0),
                abs(fn(WallisQuery(pair, n=n, r=1.0)) - odd),
            )
    report("classical_wallis", worst, 1e-13)


def test_04_lemniscate_wallis():
    start = time.perf_counter()
    worst = 0.0
    # the two classical residue classes at (2,2) ...
    for n in range(6):
        for r, flavor in ((0.0, "even"), (1.0, "odd")):
            if n == 0 and r == 0.0:
                closed = math.pi / 2.0
            else:
                closed = integrals.wallis_sin(
                    WallisQuery(ParamPair(2.0, 2.0), n=n, r=r)
                )
            oracle = quadrature.power_moment(2.0, 2.0, 2.0 * n + r, "sin", tol=1e-9)
            worst = max(worst, abs(closed - oracle))
    # ... and the four lemniscate classes at (2,4)
    for n in range(6):
        for residue in range(4):
            closed = integrals.lemniscate_wallis(n, residue)
            oracle = quadrature.power_moment(
                2.0, 4.0, 4.0 * n + residue, "sin", tol=1e-9)
            worst = max(worst, abs(closed - oracle))
    varpi = gtf.pi_pq(2.0, 4.0)
    assert abs(integrals.lemniscate_wallis(0, 1) - math.pi / 4.0) <= 1e-14
    assert abs(integrals.lemniscate_wallis(1, 0) - varpi / 6.0) <= 1e-14
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("lemniscate_wallis", worst, 1e-8, extra=f"runtime={elapsed:.2f}s")


def test_05_general_wallis_grid():
    start = time.perf_counter()
    grid = (1.5, 2.0, 2.5, 3.0, 4.0)
    worst = 0.0
    for p in grid:
        for q in grid:
            pair = ParamPair(p, q)
            for n in range(5):
                for r in (q - 1.0, (q - 1.0) / 2.0, -0.5):
                    closed = integrals.wallis_sin(WallisQuery(pair, n=n, r=r))
                    oracle = quadrature.power_moment(p, q, q * n + r, "sin", tol=1e-9)
                    worst = max(worst, abs(closed - oracle))
                for r in (1.0, (3.0 - p) / 2.0, 1.0 - 0.75 * (p - 1.0)):
                    closed = integrals.wallis_cos(WallisQuery(pair, n=n, r=r))
                    oracle = quadrature.power_moment(p, q, p * n + r, "cos", tol=1e-9)
                    worst = max(worst, abs(closed - oracle))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("general_wallis_grid", worst, 1e-7, extra=f"runtime={elapsed:.1f}s")


def test_06_primitive_formula():
    rng = np.random.default_rng(20260826)
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(1.2, 4.0)
        q = rng.uniform(1.2, 4.0)
        k = rng.uniform(0.0, 3.0)
        l = rng.uniform(1.0 - p + 0.2, 3.0)
        half = gtf.pi_pq(p, q) / 2.0
        x = rng.uniform(0.1, 0.9) * half
        closed = integrals.primitive_sin_cos(p, q, k, l, x)

        def f(t, da, db):
            t = np.minimum(t, x)
            s = gtf.sin_pq(p, q, t)
            small = da < 1e-280
            if np.any(small):
                s = np.where(small, da, s)
            return s**k * gtf.cos_pq(p, q, t) ** l

        oracle = quadrature.integrate(f, 0.0, x, tol=1e-10, dist=True).value
        worst = max(worst, abs(closed - oracle))

    worst_sum = 0.0
    for _ in range(10):
        p = rng.uniform(1.2, 3.0)
        q = rng.uniform(1.2, 3.0)
        k = rng.uniform(0.0, 2.0)
        n = int(rng.integers(0, 3))
        x = rng.uniform(0.1, 0.9) * gtf.pi_pq(p, q) / 2.0
        a = integrals.primitive_sin_cos(p, q, k, p * n + 1.0, x)
        b = integrals.primitive_finite_sum(p, q, k, n, x)
        worst_sum = max(worst_sum, abs(a - b))
    assert worst_sum <= 1e-11
    report("primitive_formula", worst, 1e-8,
           extra=f"finite_sum_residual={worst_sum:.2e}")


def test_07_infinite_product():
    start = time.perf_counter()
    worst = 0.0
    for p, q in ((2.0, 2.0), (2.0, 4.0), (3.0, 1.5)):
        partials = np.cumprod(integrals.product_factors(p, q, 100000))
        assert np.all(np.diff(partials) > 0.0)
        worst = max(worst, abs(partials[-1] - gtf.pi_pq(p, q) / 2.0))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("infinite_product", worst, 1e-3, extra=f"runtime={elapsed:.2f}s")


def test_08_elliott_identity():
    classical = abs(integrals.elliott_residual(2.0, 2.0, 2.0, 0.5))
    assert classical <= 1e-9
    cases = [
        (1.5, 2.0, 2.0, 0.3),
        (1.5, 2.0, 3.0, 0.7),
        (2.0, 3.0, 2.0, 0.5),
        (2.0, 3.0, 2.5, 0.8),
        (2.0, 4.0, 2.0, 0.4),
        (1.5, 3.0, 4.0, 0.6),
        (2.5, 2.5, 1.5, 0.5),
        (3.0, 4.0, 2.0, 0.2),
        (1.2, 2.4, 3.0, 0.9),
        (2.0, 2.0, 1.5, 0.6),
    ]
    worst = max(abs(integrals.elliott_residual(p, q, r, k)) for p, q, r, k in cases)
    report("elliott_identity", worst, 1e-7,
           extra=f"classical_residual={classical:.2e}")


def test_09_bvp_residuals():
    worst_ode = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        for q in (1.5, 2.0, 3.0, 4.0):
            for H in (1.0, 2.5):
                sol = bvp.solve_general(BvpSpec(H=H, p=p, q=q))
                xs = np.linspace(0.0, H, 35)[1:-1]
                worst_ode = max(
                    worst_ode,
                    max(abs(bvp.residual_general(sol, x)) for x in xs),
                )
    assert worst_ode <= 1e-6

    worst_closure = 0.0
    for m in (0.5, 1.0, 2.0, 10.0):
        phi = bvp.solve_nonlocal(NonlocalSpec(H=1.0, m=m))
        got = bvp.nonlocal_mean_square_slope(phi)
        worst_closure = max(worst_closure, abs(got / (m * m) - 1.0))
    assert worst_closure <= 1e-6

    worst_phase = 0.0
    for p, q, H in ((1.5, 3.0, 1.0), (4.0, 2.0, 2.5), (2.0, 2.0, 1.0)):
        sol = bvp.solve_general(BvpSpec(H=H, p=p, q=q))
        for x in np.linspace(0.0, H, 21)[1:-1]:
            worst_phase = max(worst_phase, abs(bvp.phase_curve_residual(sol, x)))
    assert worst_phase <= 1e-9

    sol = bvp.solve_general(BvpSpec(H=1.0, p=2.0, q=2.0))
    xs = np.linspace(0.0, 1.0, 33)
    classical = float(np.max(np.abs(sol(xs) - np.sin(math.pi * xs) / (2 * math.pi))))
    assert classical <= 1e-11
    report(
        "bvp_residuals",
        worst_ode,
        1e-6,
        extra=(
            f"closure={worst_closure:.2e} phase={worst_phase:.2e} "
            f"classical={classical:.2e}"
        ),
    )


def test_10_identity_residuals():
    grid = (1.5, 2.0, 2.5, 3.0, 4.0)
    worst_sym = 0.0
    for p in grid:
        for q in grid:
            for x01 in (0.0, 0.25, 0.5, 0.75, 1.0):
                r1, r2 = gtf.sin_symmetry_appendix(p, q, x01)
                worst_sym = max(worst_sym, abs(r1), abs(r2))
    for p in grid:
        half = gtf.pi_pq(gtf.conjugate(p), p) / 2.0
        for x in (0.2 * half, 0.5 * half, 0.8 * half):
            worst_sym = max(worst_sym, gtf.multiple_angle_residual(p, x))
    assert worst_sym <= 1e-10

    worst_pyth = 0.0
    worst_trip = 0.0
    for p in grid:
        for q in grid:
            xs = np.linspace(0.0, 1.0, 33) * (gtf.pi_pq(p, q) / 2.0)
            s = gtf.sin_pq(p, q, xs)
            c = gtf.cos_pq(p, q, xs)
            worst_pyth = max(worst_pyth, float(np.max(np.abs(c**p + s**q - 1.0))))
            ts = np.linspace(0.01, 0.99, 25)
            back = gtf.sin_pq(p, q, gtf.asin_pq(p, q, ts))
            worst_trip = max(worst_trip, float(np.max(np.abs(back - ts))))
    assert worst_pyth <= 1e-11
    assert worst_trip <= 1e-11
    report(
        "identity_residuals",
        worst_sym,
        1e-10,
        extra=f"pythagorean={worst_pyth:.2e} roundtrip={worst_trip:.2e}",
    )
