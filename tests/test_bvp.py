import math

import mpmath as mp
import numpy as np
import pytest
from test_gtf import mp_sincos

from gentrig import bvp, cli, gtf
from gentrig.bvp import BvpSpec, NonlocalSpec
from gentrig.errors import DomainError


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Point-by-point verifiers built on scalar sol(x) and cos_pq calls: the
# reference that the fused array verifiers must reproduce bit for bit.


def ref_stencil(sol, x):
    H = sol.spec.H
    h = min(1e-4 * H, 0.5 * x, 0.5 * (H - x))
    f0 = sol(x)
    d1 = (sol(x + h) - sol(x - h)) / (2.0 * h)
    d2 = (sol(x + h / 2) - sol(x - h / 2)) / h
    e1 = (sol(x + h) - 2.0 * f0 + sol(x - h)) / h**2
    e2 = (sol(x + h / 2) - 2.0 * f0 + sol(x - h / 2)) / (h / 2) ** 2
    return f0, (4.0 * d2 - d1) / 3.0, (4.0 * e2 - e1) / 3.0


def ref_residual_general(sol, x):
    p, q = sol.spec.p, sol.spec.q
    u0, u1, u2 = ref_stencil(sol, x)
    return abs((p - q) * u1 - p * q * u1**2 + (p + q) * u0 * u2 + 1.0)


def ref_residual_nonlocal(sol, x):
    f0, f1, f2 = ref_stencil(sol, x)
    return abs(f1 - f1**2 + f0 * f2 + sol.spec.m**2)


def ref_phase_curve_residual(sol, x):
    H, p, q = sol.spec.H, sol.spec.p, sol.spec.q
    P = gtf.conjugate(p)
    omega = gtf.pi_pq(P, q) / (2.0 * H)
    v = -1.0 / p + (1.0 / p + 1.0 / q) * gtf.cos_pq(P, q, omega * x) ** P
    ssum = 1.0 / p + 1.0 / q
    C = 2.0 * H / (p * ssum**ssum * gtf.pi_pq(gtf.conjugate(q), p))
    rhs = C * abs(v + 1.0 / p) ** (1.0 / p) * abs(v - 1.0 / q) ** (1.0 / q)
    return abs(sol(x) - rhs)


def interior_points(H):
    # an even grid plus points so close to the ends that the step shrinks
    return np.concatenate(
        [H * np.array([1e-6, 3e-5]), np.linspace(0.0, H, 35)[1:-1],
         H * np.array([1.0 - 3e-5])]
    )


class TestSpecs:
    def test_bvp_spec_validation(self):
        with pytest.raises(DomainError):
            BvpSpec(H=-1.0, p=2.0, q=2.0)
        with pytest.raises(DomainError):
            BvpSpec(H=1.0, p=1.0, q=2.0)

    def test_nonlocal_spec_validation(self):
        with pytest.raises(DomainError):
            NonlocalSpec(H=1.0, m=0.0)

    def test_nonlocal_exponent_map(self):
        # m = sqrt(3)/2 gives sqrt(m^2 + 1/4) = 1 and hence r = 4/3
        spec = NonlocalSpec(H=1.0, m=math.sqrt(3.0) / 2.0)
        assert spec.r == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert 1.0 < NonlocalSpec(H=1.0, m=10.0).r < 2.0


class TestGeneralSolution:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_ode_residual(self, p, q, H):
        sol = bvp.solve_general(BvpSpec(H=H, p=p, q=q))
        xs = np.linspace(0.0, H, 35)[1:-1]
        res = np.array([bvp.residual_general(sol, x) for x in xs])
        assert np.max(np.abs(res)) <= 1e-6

    def test_boundary_values(self):
        sol = bvp.solve_general(BvpSpec(H=2.5, p=3.0, q=1.5))
        assert sol(0.0) == pytest.approx(0.0, abs=1e-12)
        assert sol(2.5) == pytest.approx(0.0, abs=1e-12)

    def test_positive_inside(self):
        sol = bvp.solve_general(BvpSpec(H=1.0, p=2.0, q=3.0))
        xs = np.linspace(0.0, 1.0, 33)[1:-1]
        assert np.all(sol(xs) > 0.0)

    @pytest.mark.parametrize("p,q,H", [(1.5, 3.0, 1.0), (4.0, 2.0, 2.5)])
    def test_phase_curve(self, p, q, H):
        sol = bvp.solve_general(BvpSpec(H=H, p=p, q=q))
        xs = np.linspace(0.0, H, 21)[1:-1]
        res = np.array([bvp.phase_curve_residual(sol, x) for x in xs])
        assert np.max(np.abs(res)) <= 1e-9

    def test_classical_case(self):
        # p = q = 2, H = 1: u(x) = sin(pi x)/(2 pi)
        sol = bvp.solve_general(BvpSpec(H=1.0, p=2.0, q=2.0))
        xs = np.linspace(0.0, 1.0, 33)
        expected = np.sin(math.pi * xs) / (2.0 * math.pi)
        assert np.max(np.abs(sol(xs) - expected)) <= 1e-11

    def test_domain(self):
        sol = bvp.solve_general(BvpSpec(H=1.0, p=2.0, q=2.0))
        with pytest.raises(DomainError):
            sol(1.5)
        with pytest.raises(DomainError):
            sol(math.nan)
        with pytest.raises(DomainError):
            sol(np.array([0.25, math.nan, 0.75]))

    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_bounds_to_the_ulp(self, H):
        # the accepted set is gtf's: [-1e-12 H, H + 1e-12 H], in both lanes
        sol = bvp.solve_general(BvpSpec(H=H, p=3.0, q=1.5))
        low, high = -1e-12 * H, H + 1e-12 * H
        for x in (0.0, H, low, high):
            value = sol(x)
            assert type(value) is float
            assert same_bits(value, sol._eval(np.array([min(max(x, 0.0), H)]),
                                              pointwise=True)[0])
            assert same_bits(sol(np.array([x])), sol(np.array([min(max(x, 0.0), H)])))
        for x in (np.nextafter(low, -math.inf), np.nextafter(high, math.inf)):
            with pytest.raises(DomainError):
                sol(float(x))
            with pytest.raises(DomainError):
                sol(np.array([0.5 * H, x]))


class TestFusedVerifiers:
    @pytest.mark.parametrize("p,q", [(1.5, 4.0), (4.0, 1.5), (2.0, 2.0), (3.0, 2.5)])
    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_general_equals_reference(self, p, q, H):
        sol = bvp.solve_general(BvpSpec(H=H, p=p, q=q))
        xs = interior_points(H)
        for fused, ref in (
            (bvp.residual_general, ref_residual_general),
            (bvp.phase_curve_residual, ref_phase_curve_residual),
        ):
            got = fused(sol, xs)
            assert same_bits(got, [ref(sol, x) for x in xs.tolist()])
            assert same_bits(got, [fused(sol, x) for x in xs])
            assert same_bits(fused(sol, xs.reshape(3, -1)), got.reshape(3, -1))

    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_nonlocal_equals_reference(self, m):
        sol = bvp.solve_nonlocal(NonlocalSpec(H=1.0, m=m))
        xs = interior_points(1.0)
        got = bvp.residual_nonlocal(sol, xs)
        assert same_bits(got, [ref_residual_nonlocal(sol, x) for x in xs.tolist()])
        assert same_bits(got, [bvp.residual_nonlocal(sol, x) for x in xs])

    def test_mirrored_profile_equals_reference(self):
        sol = bvp.solve_pq_equal(1.5)
        xs = interior_points(1.0)
        got = bvp.residual_general(sol, xs)
        assert same_bits(got, [ref_residual_general(sol, x) for x in xs.tolist()])

    def test_scalar_result_is_float(self):
        sol = bvp.solve_general(BvpSpec(H=1.0, p=1.5, q=4.0))
        assert type(bvp.residual_general(sol, 0.3)) is float
        assert type(bvp.phase_curve_residual(sol, 0.3)) is float

    def test_rejects_points_off_the_interior(self):
        sol = bvp.solve_general(BvpSpec(H=1.0, p=2.0, q=3.0))
        for x in (0.0, 1.0, math.nan, np.array([0.5, math.nan]), np.array([0.5, 1.0])):
            with pytest.raises(DomainError):
                bvp.residual_general(sol, x)
            with pytest.raises(DomainError):
                bvp.phase_curve_residual(sol, x)


class TestGeneralChecks:
    """bvp.general_checks: every H at one (p, q) from one gtf call."""

    FRACTIONS = np.arange(1, 10) / 10.0  # the verify suite's points

    @pytest.mark.parametrize("p", cli.GRIDS["full"])
    @pytest.mark.parametrize("q", cli.GRIDS["full"])
    def test_equals_point_by_point_reference(self, p, q):
        lengths = (1.0, 2.5)
        checks = bvp.general_checks(p, q, lengths, self.FRACTIONS)
        assert len(checks) == len(lengths)
        for H, (ode, phase, bc) in zip(lengths, checks):
            sol = bvp.solve_general(BvpSpec(H=H, p=p, q=q))
            xs = (H * self.FRACTIONS).tolist()
            assert same_bits(ode, [ref_residual_general(sol, x) for x in xs])
            assert same_bits(phase, [ref_phase_curve_residual(sol, x) for x in xs])
            assert type(bc) is float
            assert same_bits(bc, max(abs(sol(0.0)), abs(sol(H))))

    def test_one_gtf_call_per_pair(self, monkeypatch):
        calls = []
        real = bvp._sincos_tail
        monkeypatch.setattr(bvp, "_sincos_tail",
                            lambda p, q, x, pointwise=False:
                            calls.append((p, q)) or real(p, q, x, pointwise))
        for name in ("residual_general", "phase_curve_residual"):
            monkeypatch.setattr(bvp, name, None)  # the suite must not need them
        grid = cli.GRIDS["full"]
        cli._suite_bvp(grid)
        general = [(p, q) for p in grid for q in grid]
        # the general cases call gtf at (p*, q); the nonlocal ones at
        # q = r(m), which is off the grid
        assert [c for c in calls if c[1] in grid] == [
            (gtf.conjugate(p), q) for p, q in general]

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            bvp.general_checks(1.0, 2.0, (1.0,), [0.5])
        with pytest.raises(DomainError):
            bvp.general_checks(2.0, 2.0, (1.0, -1.0), [0.5])
        for fractions in ([0.0, 0.5], [0.5, 1.0], [math.nan]):
            with pytest.raises(DomainError):
                bvp.general_checks(2.0, 2.0, (1.0,), fractions)


def mp_general(H, p, q, x):
    """u(x) of the general problem at 50 digits, with cos^(p*-1) taken as
    tc^((p*-1)/p*) from the swapped-tail inverse tc = cos^(p*), which stays
    representable where cos_{p*,q} itself underflows.  Scale and argument
    are rounded as the code rounds them."""
    P = gtf.conjugate(p)
    pi_val = gtf.pi_pq(P, q)
    amp, arg = 2.0 * H / (q * pi_val), pi_val / (2.0 * H) * x
    s, _, tc, _, _ = mp_sincos(P, q, arg)
    with mp.workdps(50):
        Pm = mp.mpf(P)
        return amp * tc ** ((Pm - 1) / Pm) * s


class TestCosineUnderflow:
    """Where cos_{p*,q} underflows (large p), the profile's factor
    cos^(p*-1) comes from the leading term of the inversion; raised from
    the underflowed cosine it gave u = 0 and residuals of 1."""

    CASES = [(300.0, 2.0), (400.0, 400.0 / 399.0), (1000.0, 3.0)]

    @pytest.mark.parametrize("p,q", CASES)
    def test_solution_against_mpmath(self, p, q):
        H = 1.0
        sol = bvp.solve_general(BvpSpec(H=H, p=p, q=q))
        xs = [0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999]
        arrays = (sol(np.array(xs)), sol._eval(np.array(xs), pointwise=True))
        for i, x in enumerate(xs):
            ref = mp_general(H, p, q, x)
            for value in (sol(x), arrays[0][i], arrays[1][i]):
                assert abs(value - ref) <= 2e-15 * ref, (x, value, ref)

    def test_reported_point(self):
        # u(0.9) at (400, 1.0025) read 0.0; the solution is about 2.5e-4
        sol = bvp.solve_general(BvpSpec(1.0, 400.0, 1.0025))
        assert sol(0.9) == pytest.approx(2.5e-4, rel=1e-3)

    @pytest.mark.parametrize("p,q", CASES)
    def test_ode_residual(self, p, q):
        sol = bvp.solve_general(BvpSpec(H=1.0, p=p, q=q))
        xs = np.concatenate([np.linspace(0.0, 1.0, 41)[1:-1], [0.95, 0.99, 0.999]])
        assert bvp.residual_general(sol, xs).max() <= 1e-6

    @pytest.mark.parametrize("H", [1.0, 2.0, 2.5])
    def test_nonlocal_closure_small_m(self, H):
        # r(0.1) = 1.01 makes p* = r* about 100: the closure read 1.5e-5 off
        # at H = 1 and raised ToleranceError at H = 2 and 2.5
        m = 0.1
        phi = bvp.solve_nonlocal(NonlocalSpec(H=H, m=m))
        assert bvp.nonlocal_mean_square_slope(phi) == pytest.approx(m * m, rel=1e-5)


class TestEqualParameters:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_general_on_half_interval(self, p):
        eq = bvp.solve_pq_equal(p)
        gen = bvp.solve_general(BvpSpec(H=1.0, p=p, q=p))
        xs = np.linspace(0.0, 0.5, 17)
        assert np.max(np.abs(eq(xs) - gen(xs))) <= 1e-13

    def test_symmetry(self):
        eq = bvp.solve_pq_equal(3.0)
        xs = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(eq(xs) - eq(1.0 - xs))) <= 1e-13

    def test_classical(self):
        eq = bvp.solve_pq_equal(2.0)
        xs = np.linspace(0.0, 1.0, 33)
        assert np.max(
            np.abs(eq(xs) - np.sin(math.pi * xs) / (2.0 * math.pi))
        ) <= 1e-11


class TestNonlocal:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0])
    def test_closure_relation(self, m):
        # the squared-slope integral must reproduce m^2
        spec = NonlocalSpec(H=1.0, m=m)
        phi = bvp.solve_nonlocal(spec)
        got = bvp.nonlocal_mean_square_slope(phi)
        assert got == pytest.approx(m * m, rel=1e-6)

    def test_closure_other_length(self):
        spec = NonlocalSpec(H=2.5, m=1.0)
        phi = bvp.solve_nonlocal(spec)
        assert bvp.nonlocal_mean_square_slope(phi) == pytest.approx(1.0, rel=1e-6)

    def test_boundary(self):
        phi = bvp.solve_nonlocal(NonlocalSpec(H=1.0, m=1.0))
        assert phi(0.0) == pytest.approx(0.0, abs=1e-12)
        assert phi(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_scaling_vs_general(self):
        # the profile is 2 sqrt(m^2 + 1/4) times the general solution
        # with p = r* and q = r
        spec = NonlocalSpec(H=1.0, m=2.0)
        phi = bvp.solve_nonlocal(spec)
        base = bvp.solve_general(BvpSpec(H=1.0, p=gtf.conjugate(spec.r), q=spec.r))
        scale = 2.0 * math.sqrt(spec.m**2 + 0.25)
        xs = np.linspace(0.0, 1.0, 17)
        assert np.max(np.abs(phi(xs) - scale * base(xs))) <= 1e-13

    def test_residual(self):
        phi = bvp.solve_nonlocal(NonlocalSpec(H=1.0, m=1.0))
        xs = np.linspace(0.0, 1.0, 11)[1:-1]
        res = np.array([bvp.residual_nonlocal(phi, x) for x in xs])
        assert np.max(np.abs(res)) <= 1e-5
