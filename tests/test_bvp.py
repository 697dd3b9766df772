import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from test_gtf import N0, _mp_inverse

from gentrig import bvp, gtf, verify
from gentrig.errors import DomainError


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Point-by-point verifiers built on scalar sol(x), sin_pq and cos_pq calls,
# gtf's float lane: a check of the ODE by finite differences, independent of
# general_checks' travel time, the closed-form phase-plane curve, an
# independent check of the first integral that general_checks takes from
# the oracle, the travel time at 30 digits and the nonlocal problem's
# surrogate-ODE residual.

EPS = np.finfo(float).eps
FRACTIONS = np.arange(1, 10) / 10.0  # the verify suite's points


def ode_bound(sol, xs, coeff):
    """8 coeff eps |u| / h^2 at interior points xs, coeff being the factor of
    u u'' in the residual: how far two stencil residuals of profiles that
    differ in the last ulp may be apart, since the second difference
    divides that ulp by h^2."""
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


def profile_sincos(H, p, q, x):
    """(sin, cos, cos^(p*-1)) of sin_{p*,q} at w x on [0, H], from gtf's
    evaluator on the record of the problem's own shapes a = 1/q and b = 1/p
    (bvp._general_record), at the fraction x/H and its complement (H - x)/H,
    as solve_general takes them."""
    rec = bvp._general_record(p, q)
    return gtf._sincos(rec, x / H, (True, True, True), "sol(x)", (H - x) / H)


def mp_travel_time(H, p, q, x):
    """|x/H - I_{s^q}(1/q, 1/p)| at 30 digits, s = sin_{p*,q}(w x) from
    gtf's float lane at the shapes the doubles 1/q and 1/p: the residual
    general_checks reports, with an exact incomplete beta function."""
    s = profile_sincos(H, p, q, x)[0]
    with mp.workdps(30):
        travel = mp.betainc(mp.mpf(1.0 / q), mp.mpf(1.0 / p), 0, mp.mpf(s) ** q,
                            regularized=True)
        return float(abs(mp.mpf(x) / H - travel))


# general_checks' travel-time bound (verify's bvp ode tolerance is 1e-12):
# the oracle's 1e-13 on each beta value, relative, plus rounding
TRAVEL_BOUND = 2e-13 + 16 * EPS


def ref_phase_curve_residual(sol, p, q, x):
    """|u - C |v + 1/p|^(1/p) |v - 1/q|^(1/q)|, the closed-form phase curve,
    with v = -1/p + (1/p + 1/q) cos^(p*) from the problem's own record and
    C = 2H / (p s^s pi_{q*,p}) = H / (s^s B(1/q, 1/p)), s = 1/p + 1/q."""
    H = sol.H
    ssum = 1.0 / p + 1.0 / q
    v = -1.0 / p + ssum * profile_sincos(H, p, q, x)[1] ** (p / (p - 1.0))
    C = H / (ssum**ssum * bvp._general_record(p, q)[-1])
    rhs = C * abs(v + 1.0 / p) ** (1.0 / p) * abs(v - 1.0 / q) ** (1.0 / q)
    return abs(sol(x) - rhs)


# an even grid plus points so close to the ends that the step shrinks
INTERIOR = np.concatenate([[1e-6, 3e-5], np.linspace(0.0, 1.0, 35)[1:-1], [1.0 - 3e-5]])


def interior_points(H):
    return H * INTERIOR


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
        # m^2 overflows: the closure raised ToleranceError, from (phi')^2 = inf
        with pytest.raises(DomainError, match="m = 1e"):
            bvp.nonlocal_mean_square_slope(1.0, 1e200)
        m = 1e100
        assert bvp.nonlocal_mean_square_slope(1.0, m) == pytest.approx(m * m, rel=1e-9)
        assert ref_residual_nonlocal(bvp.solve_nonlocal(1.0, m), m, 0.5) <= 1e-6 * m * m

    def test_tiny_amplitude_rejected(self):
        # r(m) rounds to 1, whose conjugate is inf
        with pytest.raises(DomainError, match="m = 1e-09"):
            bvp.solve_nonlocal(1.0, 1e-9)


class TestGeneralSolution:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_ode_residual(self, p, q, H):
        # the travel time, which the stencil check read at 5.7e-8 against 1e-6
        ode = bvp.general_checks(p, q, [H], np.linspace(0.0, 1.0, 35)[1:-1])[0]
        assert np.max(ode) <= 1e-12

    @pytest.mark.parametrize("p,q,H", [(1.5, 1.5, 1.0), (1.5, 4.0, 2.5), (4.0, 1.5, 1.0),
                                       (2.0, 3.0, 2.5)])
    def test_ode_by_differences(self, p, q, H):
        # the ODE itself, independently of the travel time: central
        # differences of scalar sol(x) calls, whose rounding eps |u| / h^2
        # limits them; these read 2.8e-8 to 4.3e-8
        sol = bvp.solve_general(H, p, q)
        xs = H * np.linspace(0.0, 1.0, 35)[1:-1]
        assert max(ref_residual_general(sol, p, q, x) for x in xs.tolist()) <= 1e-6

    @pytest.mark.parametrize("which", ["H", "p", "q"])
    def test_0d_inputs(self, which):
        """A 0-d H, p or q is its float: solve_general raised TypeError
        (unhashable type) from gtf's cache at a 0-d q, and returned
        numpy.float64 at a 0-d p or H; general_checks raised the same
        TypeError at 0-d p and q."""
        args = {"H": 1.0, "p": 2.5, "q": 3.0}
        zero_d = dict(args, **{which: np.array(args[which])})
        value, ref = bvp.solve_general(**zero_d)(0.3), bvp.solve_general(**args)(0.3)
        assert type(value) is float and same_bits(value, ref)
        got = bvp.general_checks(zero_d["p"], zero_d["q"], [zero_d["H"]], FRACTIONS)
        for g, r in zip(got, bvp.general_checks(2.5, 3.0, [1.0], FRACTIONS)):
            assert same_bits(g, r)

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
        phase = bvp.general_checks(p, q, [H], np.linspace(0.0, 1.0, 21)[1:-1])[1]
        assert np.max(phase) <= 1e-9

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
    """general_checks: the travel time within its bound, near the ends too;
    the phase residual, and the closed-form phase curve point by point,
    within 1e-14 at the verify fractions (near the ends the closed form
    cancels, the oracle's U does not: TestPhaseCurveNearEnds); bit for bit
    against itself one point at a time.  The nonlocal
    surrogate ODE, point by point, against the general problem's."""

    @pytest.mark.parametrize("p,q", [(1.5, 4.0), (4.0, 1.5), (2.0, 2.0), (3.0, 2.5)])
    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_general_equals_reference(self, p, q, H):
        sol = bvp.solve_general(H, p, q)
        xs = interior_points(H)
        ode, phase, _ = bvp.general_checks(p, q, [H], INTERIOR)
        assert ode.max() <= TRAVEL_BOUND
        at = H * FRACTIONS
        assert bvp.general_checks(p, q, [H], FRACTIONS)[1].max() <= 1e-14
        assert max(ref_phase_curve_residual(sol, p, q, x) for x in at.tolist()) <= 1e-14
        alone = [bvp.general_checks(p, q, [H], [f]) for f in INTERIOR.tolist()]
        assert same_bits(ode[0], [r[0][0][0] for r in alone])
        assert same_bits(phase[0], [r[1][0][0] for r in alone])
        # the profile itself, in the float and both array lanes
        arrays = (sol(xs), sol(np.resize(xs, N0)))
        for i in range(0, xs.size, 9):
            ref = mp_general(H, p, q, xs[i])
            for value in (sol(float(xs[i])), arrays[0][i], arrays[1][i]):
                assert abs(value - ref) <= 2e-15 * ref, (xs[i], value, ref)

    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_nonlocal_equals_reference(self, m):
        # phi = s u with s = 2 sqrt(m^2 + 1/4) and u the general solution at
        # (p, q) = (r*, r), and its residual is s^2/(p q) = m^2 times u's
        # general one: the two bounds, phi's with the factor s of phi phi''
        sol = bvp.solve_nonlocal(1.0, m)
        r = bvp.nonlocal_exponent(m)
        p, q = gtf.conjugate(r), r
        xs = interior_points(1.0)
        got = [ref_residual_nonlocal(sol, m, x) for x in xs.tolist()]
        s = 2.0 * math.sqrt(m**2 + 0.25)
        c = s * s / (p * q)
        base = bvp.solve_general(1.0, p, q)
        general = [ref_residual_general(base, p, q, x) for x in xs.tolist()]
        bound = ode_bound(sol, xs, s) + c * ode_bound(base, xs, p + q)
        assert np.all(np.abs(np.subtract(got, c * np.array(general))) <= bound)

    def test_mirrored_profile_equals_reference(self):
        # the residuals check solve_general's profile only; the mirrored
        # profile's point-by-point ODE residual meets verify's 1e-6
        sol = bvp.solve_pq_equal(1.5)
        xs = interior_points(1.0)
        assert max(ref_residual_general(sol, 1.5, 1.5, x) for x in xs.tolist()) <= 1e-6


class TestGeneralChecks:
    """bvp.general_checks: every H at one (p, q) from one gtf call."""

    @pytest.mark.parametrize("p", verify.GRIDS["full"])
    @pytest.mark.parametrize("q", verify.GRIDS["full"])
    def test_equals_point_by_point_reference(self, p, q):
        """The ends bit for bit (in the same lane); the travel time within
        its bound of the same residual at 30 digits, and both phase
        residuals within 1e-14."""
        lengths = (1.0, 2.5)
        odes, phases, bcs = bvp.general_checks(p, q, lengths, FRACTIONS)
        assert odes.shape == phases.shape == (len(lengths), FRACTIONS.size)
        assert bcs.shape == (len(lengths),)
        for H, ode, phase, bc in zip(lengths, odes, phases, bcs.tolist()):
            sol = bvp.solve_general(H, p, q)
            xs = H * FRACTIONS
            assert type(bc) is float
            assert same_bits(bc, max(abs(sol(0.0)), abs(sol(H))))
            ref = [mp_travel_time(H, p, q, x) for x in xs.tolist()]
            assert np.all(np.abs(ode - ref) <= TRAVEL_BOUND)
            ref_phase = [ref_phase_curve_residual(sol, p, q, x) for x in xs.tolist()]
            assert phase.max() <= 1e-14 and max(ref_phase) <= 1e-14

    @staticmethod
    def _suite_calls(monkeypatch):
        """The shapes (a, b) of the records of every bvp._sincos call of
        the full grid's bvp suite, flattened, in call order."""
        calls = []
        real = bvp._sincos

        def spy(rec, x, *rest, **kwargs):
            a, b = (v.reshape(-1).tolist() for v in np.broadcast_arrays(*rec[1:3]))
            calls.append(list(zip(a, b)))
            return real(rec, x, *rest, **kwargs)

        monkeypatch.setattr(bvp, "_sincos", spy)
        verify.run("bvp", verify.GRIDS["full"])
        return calls

    def test_one_gtf_call_for_the_grids_general_cases(self, monkeypatch):
        # the general cases take one call at the shapes (1/q, 1/p) of every
        # pair of the grid, the first, with no conjugate rounded in between;
        # no other call is at the grid's shapes
        grid = verify.GRIDS["full"]
        general, *rest = self._suite_calls(monkeypatch)
        assert general == [(1.0 / q, 1.0 / p) for p in grid for q in grid]
        assert not set(general) & {shapes for call in rest for shapes in call}

    def test_closure_calls_apart_from_the_grids(self, monkeypatch):
        # every later call is the closure's: one an oracle level, at the
        # shapes (1/r, (r - 1)/r) of p* = q = r(m) of the m still refining,
        # all three at first
        rest = self._suite_calls(monkeypatch)[1:]
        shapes = [(1.0 / r, (r - 1.0) / r) for r in map(bvp.nonlocal_exponent, (0.5, 1.0, 2.0))]
        assert len(rest) >= 3 and rest[0] == shapes
        assert all(call and set(call) <= set(shapes) for call in rest)

    def test_symmetry_is_one_sin_call(self, monkeypatch):
        calls = []
        real = gtf.sin_pq
        monkeypatch.setattr(gtf, "sin_pq", lambda p, q, x: calls.append(np.shape(x)) or real(p, q, x))
        verify.run("bvp", verify.GRIDS["full"])
        assert calls == [(5, 42)]  # the five p, at 21 points and their mirrors

    def test_grid_equals_single_pair_calls(self):
        """Arrays p and q: every pair's residuals and ends equal its own
        call's bit for bit (both in scipy's ufunc lane), stacked in the
        shape of the pairs."""
        grid = verify.GRIDS["full"]
        lengths = (1.0, 2.5)
        p, q = np.array(grid)[:, None], np.array(grid)[None, :]
        ode, phase, bc = bvp.general_checks(p, q, lengths, FRACTIONS)
        assert ode.shape == phase.shape == (len(grid), len(grid), len(lengths), FRACTIONS.size)
        assert bc.shape == (len(grid), len(grid), len(lengths))
        for i, pi in enumerate(grid):
            for j, qj in enumerate(grid):
                o, f, b = bvp.general_checks(pi, qj, lengths, FRACTIONS)
                assert same_bits(ode[i, j], o) and same_bits(phase[i, j], f)
                assert same_bits(bc[i, j], b), (pi, qj)

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

    def test_rejects_shapes_other_than_1d(self, monkeypatch):
        """Hs and fractions are 1-D sequences.  A 2-D fractions raised
        numpy's broadcast ValueError with two Hs and gave an ode of shape
        (3, 4), not (1, 3, 4), with one; both now raise DomainError before
        any gtf call, as a scalar Hs does."""
        calls = []
        monkeypatch.setattr(bvp, "_sincos", lambda *args, **kwargs: calls.append(args))
        for Hs in ([1.0, 2.0], [1.0]):
            with pytest.raises(DomainError, match="1-D Hs and fractions"):
                bvp.general_checks(2.0, 2.0, Hs, np.full((3, 4), 0.5))
        with pytest.raises(DomainError, match="1-D Hs and fractions"):
            bvp.general_checks(2.0, 2.0, 1.0, [0.5])
        assert calls == []


    def test_empty_inputs(self):
        """An empty Hs or fractions gives (ode, phase, boundary) of the
        documented shapes (an empty Hs raised numpy's reshape error before),
        for numbers and for arrays p and q; an invalid H, p or q is still
        rejected."""
        p, q = np.array([2.0, 3.0])[:, None], np.array([2.0, 2.5, 4.0])
        for pq, lead in (((2.0, 2.0), ()), ((p, q), (2, 3))):
            for Hs, fractions in (([], [0.5]), ([], []), ([1.0, 2.5], [])):
                ode, phase, bc = bvp.general_checks(*pq, Hs, np.array(fractions))
                assert ode.shape == phase.shape == lead + (len(Hs), len(fractions))
                assert bc.shape == lead + (len(Hs),)
        with pytest.raises(DomainError, match="H = -1"):
            bvp.general_checks(2.0, 2.0, [-1.0], [])
        for pq in ((1.0, 2.0), (np.array([2.0, 1.0]), 2.0), (2.0, np.array([math.nan]))):
            with pytest.raises(DomainError, match="need p, q"):
                bvp.general_checks(*pq, [], [0.5])


class TestProblemShapes:
    """The general problem solved at its own shapes a = 1/q and b = 1/p,
    with cos^(p*-1) taken as (1 - t)^b from the inverse: gtf's pair
    record at P = conjugate(p) rounded p* twice and raised the rounded
    cosine to P - 1, which read ode 1.3e-7 and phase 2.2e-7 near p = 1,
    and a solution 8.2e-8 off at p = 1e9."""

    def test_near_one_sweep(self):
        """p - 1 in [1e-10, 1e-3] against q in {1 + 1e-6, 1.5, 5.62, 1e3},
        one call for every pair: the travel time within its bound and U
        within the phase case's stated bound 4H (3e-13 + 4 eps)."""
        p = 1.0 + np.geomspace(1e-10, 1e-3, 8)[:, None]
        q = np.array([1.0 + 1e-6, 1.5, 5.62, 1e3])
        lengths = np.array([1.0, 2.5])
        ode, phase, bc = bvp.general_checks(p, q, lengths, FRACTIONS)
        assert ode.max() <= TRAVEL_BOUND
        assert np.all(phase <= 4.0 * lengths[:, None] * (3e-13 + 4.0 * EPS))
        assert bc.max() <= 1e-10

    def test_random_grids(self):
        """Every bvp case passes on 20 seeded random two-value grids, p - 1
        and q - 1 log-uniform in [1e-6, 1e6]; 24 cases failed on 9 of
        them."""
        rng = np.random.default_rng(7)
        for grid in (1.0 + 10.0 ** rng.uniform(-6.0, 6.0, (20, 2))).tolist():
            failed = [c for c in verify.run("bvp", grid) if not c[1] <= c[2]]
            assert not failed, (grid, failed)

    def test_equal_shapes_at_a_conjugate_pair(self):
        """p = q = 5.2454 gives the shapes a = b exactly, and x/H = 1/2 the
        inverse's argument 1/2: the ode case read 3.1e-11 at H = 2.5, where
        P = conjugate(p) made the shapes differ a few ulps from 1/2 and
        Boost's inverse was wrong."""
        p = 5.245392535864569
        rec = bvp._general_record(p, p)
        assert rec[1] == rec[2] and rec[3] == rec[4] == 0.5
        ode = bvp.general_checks(p, p, (1.0, 2.5), [0.5])[0]
        assert ode.max() <= TRAVEL_BOUND

    @pytest.mark.parametrize("p,q", [(1e9, 2.0), (1.0 + 1.25e-9, 5.62), (4.1e5, 1.001),
                                     (1e5, 1.5), (300.0, 2.0), (400.0, 400.0 / 399.0),
                                     (1000.0, 3.0)])
    def test_solution_against_the_exact_profile(self, p, q):
        """sol(x) within 2e-15 of the profile at 60 digits at the doubles'
        shapes, x alone the code's, in the float lane and both array lanes
        (they read at most 1.2e-15 here)."""
        xs = [0.1, 0.5, 0.9]
        for H in (1.0, 2.5):
            sol = bvp.solve_general(H, p, q)
            at = [f * H for f in xs]
            arrays = (sol(np.array(at)), sol(np.resize(at, N0)))
            for i, x in enumerate(at):
                ref = mp_exact(H, p, q, x)
                for value in (sol(x), arrays[0][i], arrays[1][i]):
                    assert abs(value - ref) <= 2e-15 * ref, (H, x, value, ref)


class TestTravelTime:
    """verify's bvp ode cases, the travel time x/H = I_{sin^q(w x)}(1/q, 1/p)
    by the oracle: they pass at the edges of the domain, where the stencil
    read 8.4e-6 (p = 1.001) and 1.11e-6 (p = q = 1000) against 1e-6, and
    they see a sine 1e-10 off, which the stencil's 1e-6 let pass.  The
    phase cases, U from the same batch, pass there too and see an amplitude
    1e-8 off."""

    EXTREME = verify.GRIDS["extreme"]

    def test_extreme_grid(self):
        # every case, the phase cases included: 18 of them read up to 1.6e-2
        # from the closed-form phase curve, which cancels where sin^q is small
        cases = verify.run("bvp", self.EXTREME)
        for kind in ("ode", "phase", "boundary"):
            assert sum(c[0].startswith(f"bvp {kind} ") for c in cases) == 2 * len(self.EXTREME) ** 2
        assert all(resid <= tol for _, resid, tol in cases), max(cases, key=lambda c: c[1] / c[2])

    def test_perturbed_amplitude_fails(self, monkeypatch):
        """A profile amplitude 1e-8 too large, relative, fails full-grid
        phase cases and no other case: U checks u itself, not only an
        identity among beta integrals."""
        real = bvp._amplitude
        monkeypatch.setattr(bvp, "_amplitude", lambda H, rec: real(H, rec) * (1.0 + 1e-8))
        failed = [c[0] for c in verify.run("bvp", verify.GRIDS["full"]) if not c[1] <= c[2]]
        assert failed and all(name.startswith("bvp phase ") for name in failed)

    def test_perturbed_amplitude_fails_the_stated_phase_bound(self, monkeypatch):
        """A profile amplitude 1e-10 too large, relative, fails every
        full-grid phase case at its stated bound 4H (3e-13 + 4 eps), and no
        other case, while each of them reads below the former tolerance
        1e-9, which let it pass."""
        real = bvp._amplitude
        monkeypatch.setattr(bvp, "_amplitude", lambda H, rec: real(H, rec) * (1.0 + 1e-10))
        cases = verify.run("bvp", verify.GRIDS["full"])
        phase = [c for c in cases if c[0].startswith("bvp phase ")]
        assert len(phase) == 2 * len(verify.GRIDS["full"]) ** 2
        assert all(tol < resid <= 1e-9 for _, resid, tol in phase)
        assert all(resid <= tol for name, resid, tol in cases if not name.startswith("bvp phase "))

    def test_perturbed_sine_fails(self, monkeypatch):
        real = bvp._sincos

        def perturbed(*args, **kwargs):
            s, c, cp = real(*args, **kwargs)
            return (None if s is None else s * (1.0 + 1e-10)), c, cp

        monkeypatch.setattr(bvp, "_sincos", perturbed)
        ode = [c for c in verify.run("bvp", verify.GRIDS["small"]) if c[0].startswith("bvp ode")]
        assert len(ode) == 2 * len(verify.GRIDS["small"]) ** 2
        assert all(tol <= 1e-12 < resid <= 1e-6 for _, resid, tol in ode)
        # the stencil, from the same perturbed sine, stays below its 1e-6
        for p, q in ((1.5, 1.5), (3.0, 2.0)):
            sol = bvp.solve_general(1.0, p, q)
            assert max(ref_residual_general(sol, p, q, x) for x in FRACTIONS.tolist()) <= 1e-6


def phase_bound(sol, p, q, xs):
    """general_checks' stated phase bound: 3 F 1e-13 |u| for the oracle's
    estimates, plus F times 4 eps |u| of rounding, where F = (1 + q/p)
    2^(1/p) bounds the cancellation of U's two terms below t = sin^q = 1/2
    and (1 + p/q) 2^(1/q) above.  Also checks F |u| <= 4 H, which makes
    the bound at most about 1.2e-12 H."""
    H = sol.H
    s = profile_sincos(H, p, q, xs)[0]
    F = np.where(s**q <= 0.5, (1.0 + q / p) * 2.0 ** (1.0 / p), (1.0 + p / q) * 2.0 ** (1.0 / q))
    u = np.abs(sol(xs))
    assert np.all(F * u <= 4.0 * H)
    return F * u * (3e-13 + 4.0 * EPS)


class TestPhaseCurveNearEnds:
    """Near x = 0 and x = H the closed-form phase curve cancels (v - 1/q
    and v + 1/p) and read up to u itself; U from the oracle takes each
    point in its smaller tail and keeps a few eps of u there."""

    def test_measured_near_the_ends(self):
        # the closed form read 1.0 and 1.8e-5 of u at (1.5, 4), and 1.7 of
        # u, 5.6e-7 absolute, at (2.5, 3)
        for (p, q), fractions in (((1.5, 4.0), [3e-5, 1e-3]), ((2.5, 3.0), [1e-6])):
            phase = bvp.general_checks(p, q, [1.0], fractions)[1][0]
            u = bvp.solve_general(1.0, p, q)(np.array(fractions))
            assert np.all(phase <= 4.0 * EPS * u), (p, q, phase / u)

    @pytest.mark.parametrize("p", verify.GRIDS["full"])
    @pytest.mark.parametrize("q", verify.GRIDS["full"])
    def test_stated_bound(self, p, q):
        ends = np.geomspace(1e-14, 1e-3, 40)
        fractions = np.concatenate([ends, np.random.default_rng(1).random(30), 1.0 - ends])
        for H, phase in zip((1.0, 2.5), bvp.general_checks(p, q, (1.0, 2.5), fractions)[1]):
            sol = bvp.solve_general(H, p, q)
            assert np.all(phase <= phase_bound(sol, p, q, H * fractions))


def mp_general(H, p, q, x):
    """u(x) = (H/B) t^a (1 - t)^b of the general problem at 50 digits, at
    the problem's own shapes a = 1/q and b = 1/p (the doubles the code
    forms), B = B(a, b): t from I_t(a, b) = y and 1 - t from the swapped
    tail I_{1-t}(b, a) = yc, which stays representable where cos_{p*,q}
    itself underflows (its power b is cos^(p*-1)).  The scale and both
    arguments, y = x/H and yc = (H - x)/H, are rounded as the code rounds
    them."""
    rec = bvp._general_record(p, q)
    amp = bvp._amplitude(H, rec)
    y, y_cos = x / H, (H - x) / H
    with mp.workdps(50):
        a, b = mp.mpf(rec[1]), mp.mpf(rec[2])
        t = _mp_inverse(a, b, mp.mpf(y))
        return amp * t**a * _mp_inverse(b, a, mp.mpf(y_cos)) ** b


def mp_exact(H, p, q, x):
    """u(x) of the general problem at 60 digits: (H/B) t^a (1 - t)^b at a =
    1/q and b = 1/p of the doubles p and q, B = B(a, b), with t from I_t(a,
    b) = x/H and 1 - t from I_{1-t}(b, a) = 1 - x/H, x alone as the code
    has it."""
    with mp.workdps(60):
        a, b = 1 / mp.mpf(q), 1 / mp.mpf(p)
        y = mp.mpf(x) / mp.mpf(H)
        t, tc = _mp_inverse(a, b, y), _mp_inverse(b, a, 1 - y)
        return float(H / mp.beta(a, b) * t**a * tc**b)


class TestNearTheRightEnd:
    """The profile is evaluated at the fraction x/H and its complement
    (H - x)/H, which is exact for x >= H/2: sol(x) at w x read up to 1.3e-14
    off the exact profile at x/H = 0.99 and 6.3e-14 at 0.999, where the
    rounding of w x is magnified by x/(H - x)."""

    @pytest.mark.parametrize("p,q", [(2.5, 3.0), (1.5, 4.0)])
    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_solution_against_the_exact_profile(self, p, q, H):
        sol = bvp.solve_general(H, p, q)
        at = [f * H for f in (0.99, 0.999)]
        arrays = (sol(np.array(at)), sol(np.resize(at, N0)))
        for i, x in enumerate(at):
            ref = mp_exact(H, p, q, x)
            for value in (sol(x), arrays[0][i], arrays[1][i]):
                assert abs(value - ref) <= 2e-15 * ref, (x, value, ref)

    def test_ode_rows_equal_across_lengths(self):
        """The travel time does not depend on H: general_checks inverts each
        fraction once, and every H's ode row is the same, bit for bit."""
        grid = verify.GRIDS["full"]
        p, q = np.array(grid)[:, None], np.array(grid)
        ode = bvp.general_checks(p, q, (1.0, 2.5, 1e-3, 7.0), FRACTIONS)[0]
        for k in range(1, 4):
            assert same_bits(ode[..., k, :], ode[..., 0, :])

    def test_closure_is_the_same_at_every_length(self):
        """The closure integrates over the fraction u = x/H, so its value
        does not depend on H, bit for bit (at m = 0.7 it read one ulp apart
        at H = 2.5, through w (H u))."""
        ms = np.array(VERIFY_M + (0.05, 0.1, 0.7, 10.0))
        at_one = bvp.nonlocal_mean_square_slope(1.0, ms)
        for H in (2.0, 2.5):
            assert same_bits(bvp.nonlocal_mean_square_slope(H, ms), at_one)


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
        assert bvp.general_checks(p, q, [1.0], xs)[0].max() <= TRAVEL_BOUND

    @pytest.mark.parametrize("H", [1.0, 2.0, 2.5])
    def test_nonlocal_closure_small_m(self, H):
        # r(0.1) = 1.01 makes p* = r* about 100: the closure read 1.5e-5 off
        # at H = 1 and raised ToleranceError at H = 2 and 2.5
        m = 0.1
        assert bvp.nonlocal_mean_square_slope(H, m) == pytest.approx(m * m, rel=1e-12)


class TestPhaseCurveUnderflow:
    """U's rows at a point with sin^q > 1/2 take the root cos^(p*-1), the
    third output of gtf._sincos, which does not underflow where
    cos^{p*} does: U does not collapse to 0 there, so the residual does not
    read u itself, as the closed-form curve's |v + 1/p| made it."""

    @pytest.mark.parametrize("p,q", TestCosineUnderflow.CASES + [(400.0, 1.0025)])
    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_underflowed_cosine(self, p, q, H):
        fractions = [0.3, 0.5, 0.9, 0.99]
        sol = bvp.solve_general(H, p, q)
        assert np.all(sol(H * np.array(fractions)) > 1e-6)  # the residuals read u here before
        assert bvp.general_checks(p, q, [H], fractions)[1].max() <= 1e-14

    def test_near_the_right_end(self):
        # |v + 1/p| cancelled as x -> H: 9.7e-8 here, against u = 6.2e-5
        H = 2.5
        assert bvp.general_checks(4.0, 1.5, [H], [1.0 - 1e-4])[1][0][0] <= 1e-14

    @pytest.mark.parametrize("p,q", [(400.0, 1.0025), (1.5, 4.0)])
    def test_point_and_array_lanes_agree(self, p, q):
        # solve_general's point lane takes the power from gtf's float
        # lane, its array lane from the block: both within 2e-15 of 50 digits
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
        assert got == pytest.approx(m * m, rel=1e-12)

    def test_closure_other_length(self):
        assert bvp.nonlocal_mean_square_slope(2.5, 1.0) == pytest.approx(1.0, rel=1e-12)

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
        phi = bvp.solve_nonlocal(1.0, 1.0)
        assert max(ref_residual_nonlocal(phi, 1.0, x) for x in xs.tolist()) <= 1e-5


VERIFY_M = (0.5, 1.0, 2.0)  # the verify suite's closure cases


class TestClosure:
    """nonlocal_mean_square_slope from the closed form's own slope, by the
    oracle at tol 1e-13, every m of an array in one batch."""

    @pytest.mark.parametrize("H", [1.0, 2.0, 2.5])
    @pytest.mark.parametrize("m", [0.05, 0.1, 0.5, 2.0, 10.0, 1e3, 1e100])
    def test_relative_accuracy(self, m, H):
        # the central-difference slope missed m^2 by 2.7e-5 at m = 0.05
        assert abs(bvp.nonlocal_mean_square_slope(H, m) / (m * m) - 1.0) <= 1e-12

    @pytest.mark.parametrize("H", [1.0, 2.5])
    @pytest.mark.parametrize("m", [1e-3, 1e-6])
    def test_stated_bound_at_small_m(self, m, H):
        # the oracle's stop test is absolute while the integral m^2 / 2 is
        # below 1, and the stated bound is 1e-13 max(m^2, 2); this holds the
        # value to its bound before the oracle took [0, H] onto [0, 1], 2/H
        # in place of 2: the stencil read 0.95 off, relative, at m = 1e-3
        err = abs(bvp.nonlocal_mean_square_slope(H, m) - m * m)
        assert err <= 1e-13 * max(m * m, 2.0 / H) + 8.0 * EPS * m * m

    @pytest.mark.parametrize("H", [1.0, 2.5])
    def test_array_equals_scalar_calls(self, H):
        ms = np.array(VERIFY_M + (0.05, 10.0))
        got = bvp.nonlocal_mean_square_slope(H, ms)
        assert same_bits(got, [bvp.nonlocal_mean_square_slope(H, m) for m in ms.tolist()])
        grid = bvp.nonlocal_mean_square_slope(H, ms[::-1].reshape(1, 5))
        assert same_bits(grid, got[::-1].reshape(1, 5))  # any shape, any order

    def test_float_for_a_number(self):
        for m in (1.0, 1, np.float64(1.0)):
            assert type(bvp.nonlocal_mean_square_slope(1.0, m)) is float

    def test_empty_array(self):
        """An empty m is an empty array of its shape (numpy's unpacking
        error before), and an invalid H is still rejected."""
        for shape in ((0,), (2, 0)):
            got = bvp.nonlocal_mean_square_slope(1.0, np.empty(shape))
            assert got.shape == shape and got.dtype == float
        for H in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="H = "):
                bvp.nonlocal_mean_square_slope(H, np.array([]))

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf, 1e200])
    @pytest.mark.parametrize("at", [0, 2])
    def test_invalid_m_anywhere_rejected(self, bad, at):
        ms = np.array(VERIFY_M)
        ms[at] = bad
        with pytest.raises(DomainError, match="m = ") as scalar:
            bvp.nonlocal_mean_square_slope(1.0, bad)
        with pytest.raises(DomainError) as array:
            bvp.nonlocal_mean_square_slope(1.0, ms)
        assert str(array.value) == str(scalar.value)

    def test_value_up_to_the_overflow_bound(self):
        # the oracle's level sums reach 16 m^2 = 1.44e308 here
        assert abs(bvp.nonlocal_mean_square_slope(1.0, 3e153) / 9e306 - 1.0) <= 1e-12

    @pytest.mark.parametrize("H,m", [(1.0, 4e153), (1.0, 6e153), (2.5, 3.4e153),
                                     (100.0, 3.4e153)])
    def test_overflow_rejected(self, H, m):
        """The oracle's sums overflowed to inf and its estimates to NaN, so
        these m raised ToleranceError; 16 m^2 is not finite."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(f"m = {m},")):
                bvp.nonlocal_mean_square_slope(H, m)
            ms = np.array(VERIFY_M + (m,))
            with pytest.raises(DomainError, match=re.escape(f"m = {m},")):
                bvp.nonlocal_mean_square_slope(H, ms)

    @pytest.mark.parametrize("H", [0.01, 100.0, 1e6])
    def test_bound_is_the_same_at_every_H(self, H):
        # the oracle integrates over [0, 1] at every H, so m up to the bound
        # is integrated at any H, within the stated bound; at H = 100 m
        # above ~1.9e153 was rejected while the estimate was H m^2 / 2
        m = 3.35e153
        assert abs(bvp.nonlocal_mean_square_slope(H, m) - m * m) <= 1e-13 * m * m + 8.0 * EPS * m * m

    def test_residual_keeps_its_own_bound(self):
        # the stencil check squares no oracle sum: it still runs at 6e153
        m = 6e153
        assert ref_residual_nonlocal(bvp.solve_nonlocal(1.0, m), m, 0.3) <= 1e-6 * m**2

    def test_verify_sees_a_perturbed_slope(self, monkeypatch):
        """A slope 1e-10 too large, relative, fails verify's closure cases,
        which the old tolerance 1e-6 let pass."""
        real = bvp._closure_scalars

        def perturbed(H, m):
            *head, S = real(H, m)
            return (*head, S * (1.0 + 1e-10))

        monkeypatch.setattr(bvp, "_closure_scalars", perturbed)
        cases = [c for c in verify.run("bvp", verify.GRIDS["small"]) if "closure" in c[0]]
        assert len(cases) == len(VERIFY_M)
        for _, resid, tol in cases:
            assert tol <= 1e-12 < resid <= 1e-6


class TestSymmetryGrid:
    def test_equals_per_p_calls(self):
        """solve_pq_equal at an array p: each row equals its own p's
        solution bit for bit (both in scipy's ufunc lane)."""
        grid = verify.GRIDS["full"]
        xs = np.linspace(0.0, 1.0, 21)
        rows = bvp.solve_pq_equal(np.array(grid)[:, None])(np.concatenate((xs, 1.0 - xs)))
        assert rows.shape == (len(grid), 2 * xs.size)
        for p, row in zip(grid, rows):
            sol = bvp.solve_pq_equal(p)
            assert same_bits(row, np.concatenate((sol(xs), sol(1.0 - xs))))

    @pytest.mark.parametrize("bad", [math.nan, 1.0, 0.5, math.inf])
    def test_invalid_p_anywhere_rejected(self, bad):
        with pytest.raises(DomainError):
            bvp.solve_pq_equal(np.array([[2.0], [bad]]))
