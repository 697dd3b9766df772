import math

import mpmath as mp
import numpy as np
import pytest
from test_gtf import N0, mp_sincos

from gentrig import bvp, cli, gtf
from gentrig.errors import DomainError


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Point-by-point verifiers built on scalar sol(x) and cos_pq calls, gtf's
# float lane: the reference that the fused array verifiers must reproduce to
# within the rounding of u.

EPS = np.finfo(float).eps
FRACTIONS = np.arange(1, 10) / 10.0  # the verify suite's points


def ode_bound(sol, xs, coeff):
    """8 coeff eps |u| / h^2 at interior points xs, coeff being the factor of
    u u'' in the residual: how far the fused ODE residual may be from the
    reference.  The two profiles differ in the last ulp at some stencil
    points (numpy's power against the C library's pow), and the second
    difference divides that by h^2."""
    H = sol.H
    h = np.minimum(1e-4 * H, np.minimum(0.5 * xs, 0.5 * (H - xs)))
    return 8.0 * coeff * EPS * np.abs(sol(xs)) / h**2


def ref_stencil(sol, x):
    H = sol.H
    h = min(1e-4 * H, 0.5 * x, 0.5 * (H - x))
    f0 = sol(x)
    d1 = (sol(x + h) - sol(x - h)) / (2.0 * h)
    d2 = (sol(x + h / 2) - sol(x - h / 2)) / h
    e1 = (sol(x + h) - 2.0 * f0 + sol(x - h)) / h**2
    e2 = (sol(x + h / 2) - 2.0 * f0 + sol(x - h / 2)) / (h / 2) ** 2
    return f0, (4.0 * d2 - d1) / 3.0, (4.0 * e2 - e1) / 3.0


def ref_residual_general(sol, p, q, x):
    u0, u1, u2 = ref_stencil(sol, x)
    return abs((p - q) * u1 - p * q * u1**2 + (p + q) * u0 * u2 + 1.0)


def ref_residual_nonlocal(sol, m, x):
    f0, f1, f2 = ref_stencil(sol, x)
    return abs(f1 - f1**2 + f0 * f2 + m**2)


def ref_phase_curve_residual(sol, p, q, x):
    H = sol.H
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
    """The solvers take the problem's numbers and reject, with DomainError
    naming the culprit, every H, p, q or m off the documented domain, and
    every one whose profile would not be finite."""

    def test_bvp_spec_validation(self):
        for H in (-1.0, 0.0, math.nan):
            with pytest.raises(DomainError, match="H ="):
                bvp.solve_general(H, 2.0, 2.0)
        for p, q in ((1.0, 2.0), (2.0, 1.0), (math.nan, 2.0)):
            with pytest.raises(DomainError):
                bvp.solve_general(1.0, p, q)
        with pytest.raises(DomainError, match="H ="):
            bvp.solve_nonlocal(-1.0, 1.0)

    def test_nonlocal_spec_validation(self):
        for m in (0.0, -1.0, math.nan):
            for call in (bvp.nonlocal_exponent, lambda m: bvp.solve_nonlocal(1.0, m)):
                with pytest.raises(DomainError, match="m ="):
                    call(m)

    def test_nonlocal_exponent_map(self):
        # m = sqrt(3)/2 gives sqrt(m^2 + 1/4) = 1 and hence r = 4/3
        assert bvp.nonlocal_exponent(math.sqrt(3.0) / 2.0) == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert 1.0 < bvp.nonlocal_exponent(10.0) < 2.0

    def test_hypot_keeps_the_bits_of_verify(self):
        # verify, the demo and the table use these m: hypot(m, 1/2) gives the
        # bits of sqrt(m^2 + 1/4) in both the exponent and the scale
        for m in (0.5, 1.0, 2.0, 10.0):
            root = math.sqrt(m**2 + 0.25)
            assert same_bits(math.hypot(m, 0.5), root)
            assert same_bits(bvp.nonlocal_exponent(m), 1.0 / (0.5 + 0.25 / root))

    def test_infinite_length_rejected(self):
        # omega = 0: sol(1.0) read NaN
        with pytest.raises(DomainError, match="H = inf"):
            bvp.solve_general(math.inf, 2.0, 3.0)

    def test_huge_length_rejected(self):
        # amp overflows: sol(H/2) read NaN at H = 1e308
        with pytest.raises(DomainError, match="H = 1e"):
            bvp.solve_general(1e308, 2.0, 3.0)
        sol = bvp.solve_general(1e300, 2.0, 3.0)
        assert math.isfinite(sol(5e299)) and sol(5e299) > 0.0

    def test_tiny_length_rejected(self):
        # omega overflows: the DomainError named sincos_pq, not H
        with pytest.raises(DomainError, match="H = 1e-320"):
            bvp.solve_general(1e-320, 2.0, 3.0)
        sol = bvp.solve_general(1e-300, 2.0, 3.0)
        assert math.isfinite(sol(5e-301)) and sol(5e-301) > 0.0

    def test_infinite_amplitude_rejected(self):
        # sol(0.5) read inf
        for call in (bvp.nonlocal_exponent, lambda m: bvp.solve_nonlocal(1.0, m)):
            with pytest.raises(DomainError, match="m = inf"):
                call(math.inf)

    def test_huge_amplitude_is_finite(self):
        # sqrt(m^2 + 1/4) raised OverflowError; at p* = q = 2 the profile is
        # 2 m sin(pi x) / (2 pi) to the last bits of r(m) = 2
        phi = bvp.solve_nonlocal(1.0, 1e200)
        assert phi(0.5) == pytest.approx(1e200 / math.pi, rel=1e-14)
        with pytest.raises(DomainError, match="m = 1e"):
            bvp.solve_nonlocal(10.0, 1e308)

    def test_checks_reject_overflowing_square(self):
        # m^2 overflows: the residual raised OverflowError and the closure
        # ToleranceError, from (phi')^2 = inf
        with pytest.raises(DomainError, match="m = 1e"):
            bvp.residual_nonlocal(1.0, 1e200, 0.5)
        with pytest.raises(DomainError, match="m = 1e"):
            bvp.nonlocal_mean_square_slope(1.0, 1e200)
        m = 1e100
        assert bvp.nonlocal_mean_square_slope(1.0, m) == pytest.approx(m * m, rel=1e-9)
        assert bvp.residual_nonlocal(1.0, m, 0.5) <= 1e-6 * m * m

    def test_tiny_amplitude_rejected(self):
        # r(m) rounds to 1, whose conjugate is inf
        with pytest.raises(DomainError, match="m = 1e-09"):
            bvp.solve_nonlocal(1.0, 1e-9)


class TestGeneralSolution:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_ode_residual(self, p, q, H):
        xs = np.linspace(0.0, H, 35)[1:-1]
        res = np.array([bvp.residual_general(H, p, q, x) for x in xs])
        assert np.max(np.abs(res)) <= 1e-6

    def test_boundary_values(self):
        sol = bvp.solve_general(2.5, 3.0, 1.5)
        assert sol(0.0) == pytest.approx(0.0, abs=1e-12)
        assert sol(2.5) == pytest.approx(0.0, abs=1e-12)

    def test_positive_inside(self):
        sol = bvp.solve_general(1.0, 2.0, 3.0)
        xs = np.linspace(0.0, 1.0, 33)[1:-1]
        assert np.all(sol(xs) > 0.0)

    @pytest.mark.parametrize("p,q,H", [(1.5, 3.0, 1.0), (4.0, 2.0, 2.5)])
    def test_phase_curve(self, p, q, H):
        xs = np.linspace(0.0, H, 21)[1:-1]
        res = np.array([bvp.phase_curve_residual(H, p, q, x) for x in xs])
        assert np.max(np.abs(res)) <= 1e-9

    def test_classical_case(self):
        # p = q = 2, H = 1: u(x) = sin(pi x)/(2 pi)
        sol = bvp.solve_general(1.0, 2.0, 2.0)
        xs = np.linspace(0.0, 1.0, 33)
        expected = np.sin(math.pi * xs) / (2.0 * math.pi)
        assert np.max(np.abs(sol(xs) - expected)) <= 1e-11

    def test_domain(self):
        sol = bvp.solve_general(1.0, 2.0, 2.0)
        with pytest.raises(DomainError):
            sol(1.5)
        with pytest.raises(DomainError):
            sol(math.nan)
        with pytest.raises(DomainError):
            sol(np.array([0.25, math.nan, 0.75]))

    @pytest.mark.parametrize(
        "x", [np.array(0.3), np.float32(0.3), np.int64(0)],
        ids=["0-d", "float32", "int64"])
    def test_scalar_input_returns_float(self, x):
        # a numpy scalar or a 0-d array takes gtf's float lane, as a float
        # does, in every solver
        for sol in (bvp.solve_general(1.0, 2.5, 3.0), bvp.solve_nonlocal(1.0, 1.0),
                    bvp.solve_pq_equal(3.0)):
            value = sol(x)
            assert type(value) is float
            assert same_bits(value, sol(float(x)))

    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_bounds_to_the_ulp(self, H):
        # the accepted set is gtf's: [-1e-12 H, H + 1e-12 H], in both lanes
        sol = bvp.solve_general(H, 3.0, 1.5)
        low, high = -1e-12 * H, H + 1e-12 * H
        for x in (0.0, H, low, high):
            value = sol(x)
            assert type(value) is float
            assert same_bits(value, sol(min(max(x, 0.0), H)))
            assert same_bits(sol(np.array([x])), sol(np.array([min(max(x, 0.0), H)])))
        for x in (np.nextafter(low, -math.inf), np.nextafter(high, math.inf)):
            with pytest.raises(DomainError):
                sol(float(x))
            with pytest.raises(DomainError):
                sol(np.array([0.5 * H, x]))


class TestFusedVerifiers:
    """The fused array verifiers against the point-by-point reference: the
    ODE residual within ode_bound, the phase residual within 1e-14 at the
    verify fractions (near the ends it false-fails: TestPhaseCurveNearEnds);
    bit for bit against themselves on one-element arrays, on points and
    reshaped."""

    @staticmethod
    def assert_pointwise_same_bits(fused, xs):
        """fused(x) of an array equals its one-element-array calls and its
        float-point calls bit for bit; a point gives a Python float."""
        got = fused(xs)
        assert same_bits(got, [fused(np.array([x]))[0] for x in xs])
        points = [fused(x) for x in xs.tolist()]
        assert all(type(r) is float for r in points)
        assert same_bits(got, points)
        return got

    @pytest.mark.parametrize("p,q", [(1.5, 4.0), (4.0, 1.5), (2.0, 2.0), (3.0, 2.5)])
    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_general_equals_reference(self, p, q, H):
        sol = bvp.solve_general(H, p, q)
        xs = interior_points(H)
        got = bvp.residual_general(H, p, q, xs)
        ref = [ref_residual_general(sol, p, q, x) for x in xs.tolist()]
        assert np.all(np.abs(got - ref) <= ode_bound(sol, xs, p + q))
        at = H * FRACTIONS
        assert bvp.phase_curve_residual(H, p, q, at).max() <= 1e-14
        assert max(ref_phase_curve_residual(sol, p, q, x) for x in at.tolist()) <= 1e-14
        for fused in (bvp.residual_general, bvp.phase_curve_residual):
            got = self.assert_pointwise_same_bits(lambda x: fused(H, p, q, x), xs)
            assert same_bits(fused(H, p, q, xs.reshape(3, -1)), got.reshape(3, -1))
        # the profile itself, in the float and both array lanes
        arrays = (sol(xs), sol(np.resize(xs, N0)))
        for i in range(0, xs.size, 9):
            ref = mp_general(H, p, q, xs[i])
            for value in (sol(float(xs[i])), arrays[0][i], arrays[1][i]):
                assert abs(value - ref) <= 2e-15 * ref, (xs[i], value, ref)

    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_nonlocal_equals_reference(self, m):
        # phi = s u with s = 2 sqrt(m^2 + 1/4), and its residual is s^2/(p q)
        # times u's general one, p q = p + q: the general bound times s
        sol = bvp.solve_nonlocal(1.0, m)
        xs = interior_points(1.0)
        got = self.assert_pointwise_same_bits(
            lambda x: bvp.residual_nonlocal(1.0, m, x), xs)
        ref = [ref_residual_nonlocal(sol, m, x) for x in xs.tolist()]
        s = 2.0 * math.sqrt(m**2 + 0.25)
        assert np.all(np.abs(got - ref) <= ode_bound(sol, xs, s))

    def test_mirrored_profile_equals_reference(self):
        # the residuals check solve_general's profile only; the mirrored
        # profile's point-by-point ODE residual meets verify's 1e-6
        sol = bvp.solve_pq_equal(1.5)
        xs = interior_points(1.0)
        assert max(ref_residual_general(sol, 1.5, 1.5, x) for x in xs.tolist()) <= 1e-6

    def test_scalar_result_is_float(self):
        assert type(bvp.residual_general(1.0, 1.5, 4.0, 0.3)) is float
        assert type(bvp.phase_curve_residual(1.0, 1.5, 4.0, 0.3)) is float
        assert type(bvp.residual_nonlocal(1.0, 1.0, 0.3)) is float

    def test_rejects_points_off_the_interior(self):
        for x in (0.0, 1.0, math.nan, np.array([0.5, math.nan]), np.array([0.5, 1.0])):
            with pytest.raises(DomainError):
                bvp.residual_general(1.0, 2.0, 3.0, x)
            with pytest.raises(DomainError):
                bvp.phase_curve_residual(1.0, 2.0, 3.0, x)
            with pytest.raises(DomainError):
                bvp.residual_nonlocal(1.0, 1.0, x)


class TestGeneralChecks:
    """bvp.general_checks: every H at one (p, q) from one gtf call."""

    @pytest.mark.parametrize("p", cli.GRIDS["full"])
    @pytest.mark.parametrize("q", cli.GRIDS["full"])
    def test_equals_point_by_point_reference(self, p, q):
        """Bit for bit residual_general, phase_curve_residual and the ends
        (all in the same lane); the point-by-point reference within
        ode_bound, and both phase residuals within 1e-14."""
        lengths = (1.0, 2.5)
        checks = bvp.general_checks(p, q, lengths, FRACTIONS)
        assert len(checks) == len(lengths)
        for H, (ode, phase, bc) in zip(lengths, checks):
            sol = bvp.solve_general(H, p, q)
            xs = H * FRACTIONS
            assert same_bits(ode, bvp.residual_general(H, p, q, xs))
            assert same_bits(phase, bvp.phase_curve_residual(H, p, q, xs))
            assert type(bc) is float
            assert same_bits(bc, max(abs(sol(0.0)), abs(sol(H))))
            ref = [ref_residual_general(sol, p, q, x) for x in xs.tolist()]
            assert np.all(np.abs(ode - ref) <= ode_bound(sol, xs, p + q))
            ref_phase = [ref_phase_curve_residual(sol, p, q, x) for x in xs.tolist()]
            assert phase.max() <= 1e-14 and max(ref_phase) <= 1e-14

    def test_one_gtf_call_for_the_grids_general_cases(self, monkeypatch):
        calls = []
        real = bvp._sincos_tail
        monkeypatch.setattr(bvp, "_sincos_tail",
                            lambda p, q, x: calls.append((p, q)) or real(p, q, x))
        for name in ("residual_general", "phase_curve_residual"):
            monkeypatch.setattr(bvp, name, None)  # the suite must not need them
        grid = cli.GRIDS["full"]
        cli._suite_bvp(grid)
        # the general cases take one call at every (p*, q) of the grid; the
        # nonlocal ones call at the single pair (r(m)*, r(m)), off the grid
        several = [c for c in calls if np.ndim(c[0])]
        assert len(several) == 1
        P, Q = (v.reshape(-1).tolist() for v in np.broadcast_arrays(*several[0]))
        assert list(zip(P, Q)) == [(gtf.conjugate(p), q) for p in grid for q in grid]
        assert not [c for c in calls if not np.ndim(c[0]) and c[1] in grid]

    def test_grid_equals_single_pair_calls(self):
        """Arrays p and q: every pair's residuals and ends equal its own
        call's bit for bit (both in scipy's ufunc lane), stacked in the
        shape of the pairs."""
        grid = cli.GRIDS["full"]
        lengths = (1.0, 2.5)
        p, q = np.array(grid)[:, None], np.array(grid)[None, :]
        ode, phase, bc = bvp.general_checks(p, q, lengths, FRACTIONS)
        assert ode.shape == phase.shape == (len(grid), len(grid), len(lengths), FRACTIONS.size)
        assert bc.shape == (len(grid), len(grid), len(lengths))
        for i, pi in enumerate(grid):
            for j, qj in enumerate(grid):
                for k, (o, f, b) in enumerate(bvp.general_checks(pi, qj, lengths, FRACTIONS)):
                    assert same_bits(ode[i, j, k], o) and same_bits(phase[i, j, k], f)
                    assert same_bits(bc[i, j, k], b), (pi, qj)

    @pytest.mark.parametrize("bad", [math.nan, 1.0, 0.5, math.inf, -math.inf])
    def test_grid_rejects_an_invalid_pair_anywhere(self, bad):
        for k in (0, 2):
            for which in (0, 1):
                pq = [np.array([2.0, 3.0, 1.5]), np.array([2.5, 2.0, 4.0])]
                pq[which][k] = bad
                with pytest.raises(DomainError):
                    bvp.general_checks(*pq, (1.0, 2.5), FRACTIONS)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            bvp.general_checks(1.0, 2.0, (1.0,), [0.5])
        with pytest.raises(DomainError):
            bvp.general_checks(2.0, 2.0, (1.0, -1.0), [0.5])
        for fractions in ([0.0, 0.5], [0.5, 1.0], [math.nan]):
            with pytest.raises(DomainError):
                bvp.general_checks(2.0, 2.0, (1.0,), fractions)


def phase_bound(sol, p, q, xs):
    """phase_curve_residual's stated bound: |u| ((1 + d/A)^(1/q) - 1) with
    A = (1/p + 1/q) sin^q(w x) and d = 2 (p* + 1) eps the rounding of v, the
    like term in (1/p + 1/q) c^{p*} and 1/p, and 4 eps |u| of rounding."""
    H, P = sol.H, gtf.conjugate(p)
    s, c = gtf.sincos_pq(P, q, gtf.pi_pq(P, q) / (2.0 * H) * xs)
    ssum, d = 1.0 / p + 1.0 / q, 2.0 * (P + 1.0) * EPS
    near_0 = (1.0 + d / (ssum * s**q)) ** (1.0 / q) - 1.0
    near_h = (1.0 + d / (ssum * c**P)) ** (1.0 / p) - 1.0
    return np.abs(sol(xs)) * (near_0 + near_h + 4.0 * EPS)


class TestPhaseCurveNearEnds:
    """Near x = 0 and x = H the phase-curve check loses accuracy (v - 1/q
    and v + 1/p cancel) and false-fails; its docstring states the bound."""

    def test_measured_false_fails(self):
        sol = bvp.solve_general(1.0, 1.5, 4.0)
        # v - 1/q is 0, so the residual is u itself (as a one-element array)
        assert bvp.phase_curve_residual(1.0, 1.5, 4.0, 3e-5) == sol(np.array([3e-5]))[0]
        assert bvp.phase_curve_residual(1.0, 1.5, 4.0, 1e-3) > 1e-9  # verify's tolerance
        assert bvp.phase_curve_residual(1.0, 2.5, 3.0, 1e-6) > 1e-7

    @pytest.mark.parametrize("p", cli.GRIDS["full"])
    @pytest.mark.parametrize("q", cli.GRIDS["full"])
    def test_stated_bound(self, p, q):
        ends = np.geomspace(1e-14, 1e-3, 40)
        fractions = np.concatenate([ends, np.random.default_rng(1).random(30), 1.0 - ends])
        for H in (1.0, 2.5):
            sol = bvp.solve_general(H, p, q)
            xs = H * fractions
            assert np.all(bvp.phase_curve_residual(H, p, q, xs) <= phase_bound(sol, p, q, xs))


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
        sol = bvp.solve_general(H, p, q)
        xs = [0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999]
        arrays = (sol(np.array(xs)), sol(np.resize(xs, N0)))
        for i, x in enumerate(xs):
            ref = mp_general(H, p, q, x)
            for value in (sol(x), arrays[0][i], arrays[1][i]):
                assert abs(value - ref) <= 2e-15 * ref, (x, value, ref)

    def test_reported_point(self):
        # u(0.9) at (400, 1.0025) read 0.0; the solution is about 2.5e-4
        sol = bvp.solve_general(1.0, 400.0, 1.0025)
        assert sol(0.9) == pytest.approx(2.5e-4, rel=1e-3)

    @pytest.mark.parametrize("p,q", CASES)
    def test_ode_residual(self, p, q):
        xs = np.concatenate([np.linspace(0.0, 1.0, 41)[1:-1], [0.95, 0.99, 0.999]])
        assert bvp.residual_general(1.0, p, q, xs).max() <= 1e-6

    @pytest.mark.parametrize("H", [1.0, 2.0, 2.5])
    def test_nonlocal_closure_small_m(self, H):
        # r(0.1) = 1.01 makes p* = r* about 100: the closure read 1.5e-5 off
        # at H = 1 and raised ToleranceError at H = 2 and 2.5
        m = 0.1
        assert bvp.nonlocal_mean_square_slope(H, m) == pytest.approx(m * m, rel=1e-5)


class TestPhaseCurveUnderflow:
    """The phase curve's |v + 1/p|^(1/p) is (1/p + 1/q)^(1/p) cos^(p*-1),
    from gtf._cos_power: where cos^{p*} underflows, v + 1/p no longer
    collapses to 0, so the residual no longer reads u itself."""

    @pytest.mark.parametrize("p,q", TestCosineUnderflow.CASES + [(400.0, 1.0025)])
    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_underflowed_cosine(self, p, q, H):
        xs = H * np.array([0.3, 0.5, 0.9, 0.99])
        sol = bvp.solve_general(H, p, q)
        assert np.all(sol(xs) > 1e-6)  # the residuals read u here before
        for r in (bvp.phase_curve_residual(H, p, q, xs),
                  [bvp.phase_curve_residual(H, p, q, float(x)) for x in xs]):
            assert np.max(r) <= 1e-14

    def test_near_the_right_end(self):
        # |v + 1/p| cancelled as x -> H: 9.7e-8 here, against u = 6.2e-5
        H = 2.5
        assert bvp.phase_curve_residual(H, 4.0, 1.5, H * (1.0 - 1e-4)) <= 1e-14

    @pytest.mark.parametrize("p,q", [(400.0, 1.0025), (1.5, 4.0)])
    def test_point_and_array_lanes_agree(self, p, q):
        # solve_general's point lane is gtf._cos_power's float code, its
        # array lane the array code: both within 2e-15 of 50 digits
        sol = bvp.solve_general(1.0, p, q)
        xs = [0.1, 0.5, 0.9, 0.999]
        arr = sol(np.array(xs))
        for i, x in enumerate(xs):
            value, ref = sol(x), mp_general(1.0, p, q, x)
            assert type(value) is float
            assert abs(value - ref) <= 2e-15 * ref and abs(arr[i] - ref) <= 2e-15 * ref


class TestEqualParameters:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_general_on_half_interval(self, p):
        eq = bvp.solve_pq_equal(p)
        gen = bvp.solve_general(1.0, p, p)
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
        got = bvp.nonlocal_mean_square_slope(1.0, m)
        assert got == pytest.approx(m * m, rel=1e-6)

    def test_closure_other_length(self):
        assert bvp.nonlocal_mean_square_slope(2.5, 1.0) == pytest.approx(1.0, rel=1e-6)

    def test_boundary(self):
        phi = bvp.solve_nonlocal(1.0, 1.0)
        assert phi(0.0) == pytest.approx(0.0, abs=1e-12)
        assert phi(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_scaling_vs_general(self):
        # the profile is 2 sqrt(m^2 + 1/4) times the general solution
        # with p = r* and q = r
        m = 2.0
        phi = bvp.solve_nonlocal(1.0, m)
        r = bvp.nonlocal_exponent(m)
        base = bvp.solve_general(1.0, gtf.conjugate(r), r)
        scale = 2.0 * math.sqrt(m**2 + 0.25)
        xs = np.linspace(0.0, 1.0, 17)
        assert np.max(np.abs(phi(xs) - scale * base(xs))) <= 1e-13

    def test_residual(self):
        xs = np.linspace(0.0, 1.0, 11)[1:-1]
        res = np.array([bvp.residual_nonlocal(1.0, 1.0, x) for x in xs])
        assert np.max(np.abs(res)) <= 1e-5
