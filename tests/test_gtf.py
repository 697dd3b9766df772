import math
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import cython_special

from gentrig import bvp, gtf, integrals, quadrature, specfun
from gentrig.errors import DomainError
from gentrig.gtf import ParamPair

GRID = [1.5, 2.0, 2.5, 3.0, 4.0]


class TestParamPair:
    def test_conjugate_involution(self):
        for p in GRID:
            assert gtf.conjugate(gtf.conjugate(p)) == pytest.approx(p, rel=1e-15)

    def test_conjugate_degenerate(self):
        assert gtf.conjugate(1.0) == math.inf
        assert gtf.conjugate(math.inf) == 1.0

    @pytest.mark.parametrize("p", [0.5, 0.0, -2.0, math.nan, -math.inf])
    def test_conjugate_outside_domain(self, p):
        with pytest.raises(DomainError):
            gtf.conjugate(p)

    def test_constructor_rejects_bad_pairs(self):
        with pytest.raises(DomainError):
            ParamPair(1.0, 2.0)
        with pytest.raises(DomainError):
            ParamPair(2.0, math.inf)


class TestPi:
    def test_circular(self):
        assert gtf.pi_pq(2.0, 2.0) == pytest.approx(math.pi, rel=1e-14)

    def test_lemniscate_constant(self):
        varpi = gtf.pi_pq(2.0, 4.0)
        assert f"{varpi:.4f}" == "2.6221"
        assert varpi == pytest.approx(2.622057554292119, rel=1e-14)

    def test_constant_relations(self):
        varpi = gtf.pi_pq(2.0, 4.0)
        assert gtf.pi_pq(4.0, 2.0) == pytest.approx(2.0 * math.pi / varpi, rel=1e-12)
        assert gtf.pi_pq(2.0, 4.0 / 3.0) == pytest.approx(
            3.0 * math.pi / varpi, rel=1e-12
        )

    def test_degenerate_conventions(self):
        assert gtf.pi_pq(3.0, 1.0) == pytest.approx(2.0 * 1.5)
        assert gtf.pi_pq(math.inf, 2.0) == 2.0

    def test_scaling_relation(self):
        # p pi_{q*,p} = q pi_{p*,q}
        for p in GRID:
            for q in GRID:
                lhs = p * gtf.pi_pq(gtf.conjugate(q), p)
                rhs = q * gtf.pi_pq(gtf.conjugate(p), q)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_against_defining_integral(self):
        for p, q in ((2.0, 3.0), (3.0, 1.5), (1.5, 4.0)):

            def f(t, da, db, q=q, p=p):
                # 1 - t**q evaluated through the distance to the endpoint
                with np.errstate(divide="ignore"):
                    return (-np.expm1(q * np.log1p(-db))) ** (-1.0 / p)

            oracle = quadrature.integrate(f, 0.0, 1.0, tol=1e-11, dist=True).value
            assert gtf.pi_pq(p, q) == pytest.approx(2.0 * oracle, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            gtf.pi_pq(0.5, 2.0)

    @pytest.mark.parametrize("p", [1.0, 0.5, math.nan])
    def test_degenerate_convention_domain(self, p):
        with pytest.raises(DomainError, match="q = 1 requires p > 1"):
            gtf.pi_pq(p, 1.0)


class TestAsin:
    def test_endpoints(self):
        assert gtf.asin_pq(3.0, 1.5, 0.0) == 0.0
        assert gtf.asin_pq(3.0, 1.5, 1.0) == pytest.approx(
            gtf.pi_pq(3.0, 1.5) / 2.0, rel=1e-14
        )

    def test_circular_value(self):
        assert gtf.asin_pq(2.0, 2.0, 0.5) == pytest.approx(math.pi / 6, rel=1e-14)

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 1.0, 64)
        vals = gtf.asin_pq(2.5, 1.7, xs)
        assert np.all(np.diff(vals) > 0.0)

    def test_incomplete_beta_form_against_oracle(self):
        # (1/q) int_0^(x^q) s^(1/q-1)(1-s)^(1/p*-1) ds
        p, q, x = 2.0, 4.0, 0.7
        res = quadrature.integrate_singular_beta(1.0 / q, 1.0 / gtf.conjugate(p), x**q)
        assert gtf.asin_pq(p, q, x) == pytest.approx(res.value / q, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gtf.asin_pq(2.0, 2.0, 1.5)


class TestSinCos:
    def test_endpoints(self):
        half = gtf.pi_pq(3.0, 2.0) / 2.0
        assert gtf.sin_pq(3.0, 2.0, 0.0) == 0.0
        assert gtf.sin_pq(3.0, 2.0, half) == pytest.approx(1.0, abs=1e-14)
        assert gtf.cos_pq(3.0, 2.0, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert gtf.cos_pq(3.0, 2.0, half) == 0.0

    def test_circular(self):
        assert gtf.cos_pq(2.0, 2.0, math.pi / 3) == pytest.approx(0.5, abs=1e-14)

    def test_sin_against_defining_integral(self):
        # root of asin(3,2,.) = 0.7 by bisection on the quadrature of the
        # defining integral; frozen oracle value
        assert gtf.sin_pq(3.0, 2.0, 0.7) == pytest.approx(
            0.6604845584380594, abs=1e-11
        )

    @pytest.mark.parametrize("p", GRID)
    @pytest.mark.parametrize("q", GRID)
    def test_pythagorean(self, p, q):
        xs = np.linspace(0.0, 1.0, 64) * (gtf.pi_pq(p, q) / 2.0)
        s = gtf.sin_pq(p, q, xs)
        c = gtf.cos_pq(p, q, xs)
        assert np.max(np.abs(c**p + s**q - 1.0)) <= 1e-11

    @pytest.mark.parametrize("p", GRID)
    @pytest.mark.parametrize("q", GRID)
    def test_round_trip(self, p, q):
        for t in np.arange(0.05, 0.96, 0.05):
            assert gtf.sin_pq(p, q, gtf.asin_pq(p, q, t)) == pytest.approx(
                t, abs=1e-11
            )

    def test_monotonicity(self):
        for p, q in ((1.5, 3.0), (4.0, 1.5), (2.5, 2.5)):
            xs = np.linspace(0.0, 1.0, 64) * (gtf.pi_pq(p, q) / 2.0)
            assert np.all(np.diff(gtf.sin_pq(p, q, xs)) >= 0.0)
            assert np.all(np.diff(gtf.cos_pq(p, q, xs)) <= 0.0)

    def test_cos_is_derivative_of_sin(self):
        p, q, x, h = 2.5, 1.8, 0.6, 1e-6
        fd = (gtf.sin_pq(p, q, x + h) - gtf.sin_pq(p, q, x - h)) / (2.0 * h)
        assert gtf.cos_pq(p, q, x) == pytest.approx(fd, abs=1e-9)

    def test_principal_domain_enforced(self):
        half = gtf.pi_pq(2.0, 3.0) / 2.0
        with pytest.raises(DomainError):
            gtf.sin_pq(2.0, 3.0, 1.5 * half)
        with pytest.raises(DomainError):
            gtf.cos_pq(2.0, 3.0, -0.5)

    def test_classical_values_at_pi_over_6(self):
        s, c = gtf.sincos_pq(2.0, 2.0, math.pi / 6)
        assert s == pytest.approx(0.5, abs=1e-14)
        assert c == pytest.approx(math.sqrt(3) / 2, abs=1e-14)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def within_ulps(a, b, n):
    """a and b of one shape, elementwise at most n ulps apart."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    gap = np.abs(a - b) <= n * np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return a.shape == b.shape and bool(gap.all())


FUSED_PAIRS = [(1.5, 4.0), (4.0, 1.5), (2.0, 2.0), (3.0, 2.5), (1.5, 1.5)]


class TestSinCosFused:
    @pytest.mark.parametrize("p,q", FUSED_PAIRS)
    def test_equals_separate_calls(self, p, q):
        xs = np.linspace(0.0, 1.0, 257) * (gtf.pi_pq(p, q) / 2.0)
        s, c = gtf.sincos_pq(p, q, xs)
        assert same_bits(s, gtf.sin_pq(p, q, xs))
        assert same_bits(c, gtf.cos_pq(p, q, xs))
        for x in xs[::8]:
            s, c = gtf.sincos_pq(p, q, x)
            assert type(s) is float and type(c) is float
            assert same_bits(s, gtf.sin_pq(p, q, x))
            assert same_bits(c, gtf.cos_pq(p, q, x))

    @pytest.mark.parametrize("p,q", FUSED_PAIRS)
    def test_pointwise_equals_scalar_calls(self, p, q):
        """Point by point, an array of fewer than INV_FIT_MIN points (numpy's
        power) is within 1 ulp of the float lane (the C library's pow), and
        a point's value does not depend on the array's shape or on where the
        point sits in it."""
        xs = np.linspace(0.0, 1.0, 257) * (gtf.pi_pq(p, q) / 2.0)
        s, c = gtf.sincos_pq(p, q, xs.reshape(-1, 1))
        assert s.shape == c.shape == (257, 1)
        assert within_ulps(s.ravel(), [gtf.sin_pq(p, q, x) for x in xs.tolist()], 1)
        assert within_ulps(c.ravel(), [gtf.cos_pq(p, q, x) for x in xs.tolist()], 1)
        assert same_bits(s.ravel(), gtf.sin_pq(p, q, xs))
        x = xs[100:101]
        assert same_bits(gtf.sincos_pq(p, q, x), (s[100], c[100]))

    def test_domain(self):
        with pytest.raises(DomainError):
            gtf.sincos_pq(2.0, 3.0, gtf.pi_pq(2.0, 3.0))
        with pytest.raises(DomainError):
            gtf.sincos_pq(1.0, 3.0, 0.1)


class TestNaNRejected:
    @pytest.mark.parametrize(
        "fn", [gtf.sin_pq, gtf.cos_pq, gtf.asin_pq, gtf.sincos_pq],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize(
        "x", [math.nan, np.array([0.1, math.nan, 0.3])], ids=["scalar", "array"]
    )
    def test_gtf(self, fn, x):
        with pytest.raises(DomainError):
            fn(2.0, 2.0, x)

    def test_extension(self):
        with pytest.raises(DomainError):
            gtf.extend_sin_symmetric(2.0, np.array([0.5, math.nan]))


class TestDerivativeIdentity:
    @pytest.mark.parametrize(
        "p,q,x,tol",
        [(2.0, 2.0, math.pi / 4, 1e-8), (3.0, 2.0, 0.5, 1e-7), (1.5, 4.0, 0.3, 1e-7)],
    )
    def test_residual(self, p, q, x, tol):
        assert gtf.dcos_power_identity_residual(p, q, x) <= tol

    def test_interiority(self):
        with pytest.raises(DomainError):
            gtf.dcos_power_identity_residual(2.0, 2.0, 0.0)


class TestAppendixSymmetry:
    def test_circular_reduction(self):
        r1, r2 = gtf.sin_symmetry_appendix(2.0, 2.0, 0.3)
        assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12

    @pytest.mark.parametrize("p,q", [(2.0, 4.0), (3.0, 1.5), (1.5, 1.5), (4.0, 2.5)])
    @pytest.mark.parametrize("x01", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_residuals_on_grid(self, p, q, x01):
        r1, r2 = gtf.sin_symmetry_appendix(p, q, x01)
        assert abs(r1) <= 1e-10 and abs(r2) <= 1e-10

    @pytest.mark.parametrize("p", GRID)
    @pytest.mark.parametrize("q", GRID)
    def test_array_equals_scalar_calls(self, p, q):
        """The array and the float lanes agree to within gtf's contract, not
        bit for bit: at the same points the residuals as floats, in a small
        array and in an array of INV_FIT_MIN points are within 2e-15 of each
        other and of 0.  At 1 - 1e-12 the rounding of pi_pq/2 - x in the
        cosine sets the residual, up to 3.8e-9 at (4, 3), in every lane
        alike."""
        xs = np.array([0.0, 1e-12, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0 - 1e-12, 1.0,
                       0.123456789, 0.987654321])
        scalar = [gtf.sin_symmetry_appendix(p, q, float(x)) for x in xs]
        assert all(type(a) is float and type(b) is float for a, b in scalar)
        lanes = [np.array(scalar).T, gtf.sin_symmetry_appendix(p, q, xs),
                 [r[:xs.size] for r in gtf.sin_symmetry_appendix(p, q, np.resize(xs, N0))]]
        near_top = xs == 1.0 - 1e-12
        for r in lanes:
            assert np.abs(np.asarray(r)[:, ~near_top]).max() <= 2e-15
            assert np.abs(np.asarray(r) - lanes[0]).max() <= 2e-15

    @pytest.mark.parametrize(
        "x01", [math.nan, -1e-300, 1.0 + 1e-15, np.array([0.5, math.nan]),
                np.array([0.0, 1.5])])
    def test_domain(self, x01):
        with pytest.raises(DomainError):
            gtf.sin_symmetry_appendix(2.0, 3.0, x01)

    def test_exponent_relation_at_points(self):
        # sin_{p*,p}(t) = cos_{p*,p}^(p*-1)(pi_{p*,p}/2 - t)
        for p in GRID:
            ps = gtf.conjugate(p)
            half = gtf.pi_pq(ps, p) / 2.0
            for t in np.linspace(0.0, 1.0, 9) * half:
                lhs = gtf.sin_pq(ps, p, t)
                rhs = gtf.cos_pq(ps, p, half - t) ** (ps - 1.0)
                assert abs(lhs - rhs) <= 1e-10

    def test_exponent_relation_integral(self):
        # int sin_{p*,p}^k = int cos_{p*,p}^((p*-1) k)
        p, k = 3.0, 1.7
        ps = gtf.conjugate(p)
        half = gtf.pi_pq(ps, p) / 2.0
        lhs = quadrature.integrate(
            lambda t: gtf.sin_pq(ps, p, t) ** k, 0.0, half, tol=1e-9
        ).value
        rhs = quadrature.integrate(
            lambda t: gtf.cos_pq(ps, p, t) ** ((ps - 1.0) * k), 0.0, half, tol=1e-9
        ).value
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestSeveralPairs:
    """Arrays p and q broadcast against x: one gtf call for every pair (the
    verify suites' lane), each point equal bit for bit to its own pair's
    call in scipy's ufunc lane.  The full grid holds every exponent that
    numpy powers by a special case: a = 1/2 at q = 2, 1/p = 1/2 at p = 2,
    and P - 1 = 2 at P = p* = 3 (p = 1.5); (2, 2), (1.5, 3) and (3, 1.5)
    are symmetric shapes, where y = 1/2 (x01 = 1/2) gives 1/2 exactly."""

    P, Q = np.array(GRID)[:, None, None], np.array(GRID)[None, :, None]
    X01 = np.concatenate((np.linspace(0.0, 1.0, 33), [1e-300, 1e-12, 1.0 - 1e-12]))

    def halves(self):
        return np.array([[gtf._pair(p, q)[0] for q in GRID] for p in GRID])[..., None]

    def test_sincos_equals_single_pair_calls(self):
        xs = self.halves() * self.X01
        tails = gtf._sincos_tail(self.P, self.Q, xs)
        got = {"sincos_pq": gtf.sincos_pq(self.P, self.Q, xs),
               "sin_pq": gtf.sin_pq(self.P, self.Q, xs),
               "cos_pq": gtf.cos_pq(self.P, self.Q, xs)}
        assert tails[0].shape == (len(GRID), len(GRID), self.X01.size)
        s, c = got["sincos_pq"]
        power, cos_power = gtf._power(c, self.P), gtf._cos_power(self.P, self.Q, c, tails[2])
        for i, p in enumerate(GRID):
            for j, q in enumerate(GRID):
                one = gtf._sincos_tail(p, q, xs[i, j])
                assert all(same_bits(v[i, j], w) for v, w in zip(tails, one)), (p, q)
                assert same_bits(s[i, j], one[0]) and same_bits(c[i, j], one[1])
                assert same_bits(got["sin_pq"][i, j], one[0])
                assert same_bits(got["cos_pq"][i, j], one[1])
                assert same_bits(power[i, j], one[1] ** p)
                assert same_bits(cos_power[i, j], gtf._cos_power(p, q, one[1], one[2]))

    def test_appendix_equals_single_pair_calls(self):
        x01 = np.linspace(0.0, 1.0, 41)
        r1, r2 = gtf.sin_symmetry_appendix(self.P, self.Q, x01)
        for i, p in enumerate(GRID):
            for j, q in enumerate(GRID):
                o1, o2 = gtf.sin_symmetry_appendix(p, q, x01)
                assert same_bits(r1[i, j], o1) and same_bits(r2[i, j], o2), (p, q)

    def test_a_pair_a_point(self):
        """Flat arrays p, q and x of one length: each point at its own pair,
        repeated pairs among them, as its own one-point array call."""
        p = np.array([2.5, 3.0, 2.5, 1.5, 2.0])
        q = np.array([3.0, 1.5, 3.0, 3.0, 2.0])
        x = np.array([0.1, 0.9, 1.3, 0.5, 0.7]) * [gtf._pair(*k)[0] for k in zip(p, q)] / 1.5
        s, c = gtf.sincos_pq(p, q, x)
        for k in range(p.size):
            one = gtf.sincos_pq(p[k], q[k], x[k:k + 1])
            assert same_bits(s[k:k + 1], one[0]) and same_bits(c[k:k + 1], one[1])
        # a number q and a point x broadcast against an array p
        s = gtf.sin_pq(p, 2.0, 0.25)
        assert same_bits(s, [gtf.sin_pq(v, 2.0, np.array([0.25]))[0] for v in p])

    @pytest.mark.parametrize("bad", [math.nan, 1.0, 0.5, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["p", "q"])
    @pytest.mark.parametrize("name", ["sin_pq", "cos_pq", "sincos_pq", "appendix"])
    def test_invalid_pair_anywhere_raises(self, name, where, bad):
        fn = {"sin_pq": gtf.sin_pq, "cos_pq": gtf.cos_pq, "sincos_pq": gtf.sincos_pq,
              "appendix": gtf.sin_symmetry_appendix}[name]
        size = gtf._pair.cache_info().currsize
        for k in (0, 3, 5):
            p, q = np.full(6, 2.5), np.full(6, 3.0)
            (p if where == "p" else q)[k] = bad
            with pytest.raises(DomainError):
                fn(p, q, np.full(6, 0.5))
        assert gtf._pair.cache_info().currsize <= size + 1  # the valid pair only

    def test_argument_beyond_its_own_pair_raises(self):
        """x is checked against the half period of its own pair: 1.5 is
        inside pi_{2,2}/2 but not inside pi_{4,4}/2 = 1.11."""
        p = q = np.array([2.0, 4.0])
        gtf.sin_pq(p[:1], q[:1], 1.5)
        for x in (1.5, math.nan):
            with pytest.raises(DomainError):
                gtf.sin_pq(p, q, x)

    def test_inverse_tails_at_shapes_a_point(self):
        """specfun._inverse_tails at arrays of shapes equals its calls at
        each point's floats, bit for bit: the a = b fix at y = 1/2 and the
        band lo < y <= hi per point."""
        pairs = [(2.0, 2.0), (2.5, 3.0), (1.5, 3.0), (4.0, 1.5)]
        y = np.array([0.5, 0.3, 0.5, 0.45, 0.499, 0.7, 1e-20, 1.0])
        fields = np.array([gtf._pair(p, q) for p, q in pairs])[:, 1:5].T  # a, b, lo, hi
        for tails in [(True, True), (True, False), (False, True)]:
            for i, (a, b, lo, hi) in enumerate(fields.T.tolist()):
                got = specfun._inverse_tails(*(v[i][None] for v in fields), y[None], 1.0 - y[None], tails)
                one = specfun._inverse_tails(a, b, lo, hi, y, 1.0 - y, tails)
                for g, o in zip(got, one):
                    assert (g is None) == (o is None)
                    assert g is None or same_bits(g[0], o)


class TestMultipleAngle:
    def test_classical_double_angle(self):
        assert gtf.multiple_angle_residual(2.0, math.pi / 6) <= 1e-13

    @pytest.mark.parametrize("p,x", [(3.0, 0.3), (1.5, None)])
    def test_generalized(self, p, x):
        if x is None:
            x = gtf.pi_pq(gtf.conjugate(p), p) / 4.0
        assert gtf.multiple_angle_residual(p, x) <= 1e-10


class TestCosinePowerRule:
    """Every cos_pq^(p-1) goes through gtf._cos_power, whose leading-term
    rule holds where cos_pq underflows; the residuals below raised the
    underflowed cosine to p - 1 and read 0.40, 0.40 and 3.0e-3 there."""

    @pytest.mark.parametrize("p", [1.001, 100.0, 1000.0])
    def test_appendix_at_large_q(self, p):
        # cos_{q*,p*} at q* = 1.001 underflows for x01 up to 0.2-0.45; the
        # first reflection's c^(q*-1) must still equal the sine there
        xs = np.linspace(0.0, 1.0, 21)
        scalar = [gtf.sin_symmetry_appendix(p, 1000.0, float(x))[0] for x in xs]
        for r1 in (scalar, gtf.sin_symmetry_appendix(p, 1000.0, xs)[0],
                   gtf.sin_symmetry_appendix(p, 1000.0, np.resize(xs, N0))[0]):
            assert np.abs(r1).max() <= 1e-13

    @pytest.mark.parametrize("p", [300.0, 1000.0])
    def test_multiple_angle_at_large_p(self, p):
        half = gtf.pi_pq(gtf.conjugate(p), p) / 2.0
        # at p = 300 the cosine underflows only in the top ~5% of the half period
        for f in np.linspace(0.0, 1.0, 201):
            assert gtf.multiple_angle_residual(p, f * half) <= 1e-12, f

    @pytest.mark.parametrize("p,q", [(1.001, 3.0), (1.0025, 2.0)])
    def test_derivative_identity_near_p_one(self, p, q):
        half = gtf.pi_pq(p, q) / 2.0
        for f in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert gtf.dcos_power_identity_residual(p, q, f * half) <= 1e-10, f

    @pytest.mark.parametrize("p,q", [(1.001, 3.0), (2.5, 3.0)])
    def test_point_is_float_code_and_matches_arrays(self, p, q):
        half = gtf.pi_pq(p, q) / 2.0
        xs = half * np.array([0.0, 0.3, 0.9, 1.0 - 1e-9, 1.0])
        _, c, yc = gtf._sincos_tail(p, q, xs)
        arr = gtf._cos_power(p, q, c, yc)
        for i, x in enumerate(xs.tolist()):
            _, ci, yci = gtf._sincos_tail(p, q, x)
            point = gtf._cos_power(p, q, ci, yci)
            assert type(point) is float
            assert abs(point - arr[i]) <= 4e-16 * arr[i]
        if p < 2.0:  # the leading term's base, reached in both lanes
            assert (c < sys.float_info.min).any()


class TestSymmetricExtension:
    def test_midpoint_continuity(self):
        for p in (1.5, 2.0, 4.0):
            full = gtf.pi_pq(2.0, p)
            eps = 1e-9
            left = gtf.extend_sin_symmetric(p, full / 2.0 - eps)
            right = gtf.extend_sin_symmetric(p, full / 2.0 + eps)
            assert left == pytest.approx(1.0, abs=1e-8)
            assert right == pytest.approx(1.0, abs=1e-8)

    def test_classical(self):
        assert gtf.extend_sin_symmetric(2.0, 3.0 * math.pi / 4.0) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-14
        )

    def test_mirror(self):
        full = gtf.pi_pq(2.0, 4.0)
        assert gtf.extend_sin_symmetric(4.0, 0.9 * full) == pytest.approx(
            gtf.sin_pq(2.0, 4.0, 0.1 * full), abs=1e-13
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            gtf.extend_sin_symmetric(2.0, 1.1 * gtf.pi_pq(2.0, 2.0))


# ---------------------------------------------------------------- float lane


def ufunc_tails(a, b, y, yc):
    """(t, s) of I_t(a, b) = y, s = 1 - t, as the two-tailed formula states
    them with scipy's ufuncs: y_half = I_{1/2}(a, b) (1/2 at a = b); t from
    y up to max(y_half, 1/2) and 1 - s above, s from yc above min(y_half,
    1/2) and 1 - t below; at a = b a tail's argument 1/2 gives 1/2."""
    y_half = 0.5 if a == b else sc.betainc(a, b, 0.5)

    def inverse(a, b, v):
        return np.float64(0.5) if a == b and v == 0.5 else sc.betaincinv(a, b, v)

    t = inverse(a, b, y) if y <= max(y_half, 0.5) else 1.0 - inverse(b, a, yc)
    s = inverse(b, a, yc) if y > min(y_half, 0.5) else 1.0 - inverse(a, b, y)
    return t, s


def ufunc_formula(name, p, q, x):
    """A scalar value as the formulas state it: x as a 0-d array,
    range-checked and clipped, the scipy ufuncs, numpy scalar powers and
    asin_pq's (1/q) B(1/q, 1/p*) factor; the inverse is ufunc_tails at y =
    x/top and yc = (top - x)/top; sin is x itself where x > 0 and x <
    DBL_MIN^(1/q), asin its two-term series x + x x^q / (p (q + 1)) where x
    > 0 and x^q < 2^-27, and cos is the leading term (b B(b, a)
    yc)^(1/(p-1)) where the inverse tc = cos^p is below DBL_MIN."""
    a, b = 1.0 / q, 1.0 / gtf.conjugate(p)
    top = 1.0 if name == "asin" else 0.5 * gtf.pi_pq(p, q)
    xx = np.asarray(x, dtype=float)
    slack = 1e-12 * top
    if not ((xx >= -slack) & (xx <= top + slack)).all():
        raise DomainError("outside")
    xx = np.clip(xx, 0.0, top)
    if name == "asin":
        xq = xx**q
        if 0.0 < xx and xq < 2.0**-27:
            return float(xx + xx * xq / (p * (q + 1.0)))
        return float((1.0 / q) * specfun.beta(a, b) * sc.betainc(a, b, xq))
    yc = (top - xx) / top
    t, tc = ufunc_tails(a, b, xx / top, yc)
    if name == "cos":
        if tc < sys.float_info.min:
            return float((b * specfun.beta(b, a) * yc) ** (1.0 / (p - 1.0)))
        return float(tc ** (1.0 / p))
    if 0.0 < xx < sys.float_info.min ** (1.0 / q):
        return float(xx)
    return float(t ** (1.0 / q))


def same_float(a, b):
    return type(a) is float and type(b) is float and same_bits(a, b)


_exponent = st.one_of(
    st.floats(1.0, 50.0, exclude_min=True),
    st.floats(1e-9, 1e-2).map(lambda e: 1.0 + e),  # near 1
)
_pairs = st.one_of(
    st.tuples(_exponent, _exponent),
    # symmetric shapes 1/q = 1/p*, i.e. q = p*, with p in [50/49, 50]
    st.floats(50.0 / 49.0, 50.0).map(lambda p: (p, gtf.conjugate(p))),
)
# (how, u): the point is built from u and the half period below
_points = st.one_of(
    st.tuples(st.just("uniform"), st.floats(0.0, 1.0)),
    st.tuples(st.just("near 0"), st.floats(0.0, 1e-15)),
    st.tuples(st.just("near top"), st.floats(0.0, 1e-15)),
    st.tuples(st.sampled_from(["zero", "-zero", "top", "middle"]), st.just(0.0)),
    st.tuples(st.just("slack below"), st.floats(0.0, 0.999e-12)),
    st.tuples(st.just("slack above"), st.floats(0.0, 0.999e-12)),
)


def _point(how, u, top):
    return {
        "uniform": u * top, "near 0": u * top, "near top": (1.0 - u) * top,
        "zero": 0.0, "-zero": -0.0, "top": top, "middle": 0.5 * top,
        "slack below": -u * top, "slack above": top + u * top,
    }[how]


class TestFloatLane:
    """The float lane is the formulas on scalars bit for bit (numpy's scalar
    power is the C library's pow); the sines and cosines of arrays of fewer
    than INV_FIT_MIN points take numpy's array power and stay within 1 ulp
    of it.  (asin_pq's array lane is not held to 1 ulp: near x = 1 an ulp of
    x^q moves it by up to its condition number.)"""

    @given(pq=_pairs, pt=_points)
    @settings(max_examples=300, deadline=None)
    def test_scalar_equals_array_and_ufunc_formula(self, pq, pt):
        p, q = pq
        half = 0.5 * gtf.pi_pq(p, q)
        x = _point(*pt, half)
        s, c = gtf.sin_pq(p, q, x), gtf.cos_pq(p, q, x)
        assert same_float(s, ufunc_formula("sin", p, q, x))
        assert same_float(c, ufunc_formula("cos", p, q, x))
        assert same_bits(gtf.sincos_pq(p, q, x), (s, c))
        arr = np.array([0.25 * half, x, half])
        s_arr, c_arr = gtf.sincos_pq(p, q, arr)
        assert within_ulps(s_arr[1], s, 1) and within_ulps(c_arr[1], c, 1)
        t = _point(*pt, 1.0)
        assert same_float(gtf.asin_pq(p, q, t), ufunc_formula("asin", p, q, t))

    @given(p=_exponent, pt=_points)
    @settings(max_examples=100, deadline=None)
    def test_extension_equals_ufunc_formula(self, p, pt):
        full = gtf.pi_pq(2.0, p)
        x = _point(*pt, full)
        clipped = np.clip(np.asarray(x), 0.0, full)
        folded = np.minimum(clipped, full - clipped)
        value = gtf.extend_sin_symmetric(p, x)
        assert same_float(value, ufunc_formula("sin", 2.0, p, folded))
        assert same_bits(value, gtf.extend_sin_symmetric(p, np.float64(x)))

    def test_seeded_sweep_equals_ufunc_formula(self):
        rng = np.random.default_rng(20261018)
        pairs = [(2.0, 2.0), (30.0, 30.0 / 29.0), (1.001, 7.0), (7.0, 1.001)]
        pairs += [tuple(1.0 + 49.0 * rng.random(2)) for _ in range(8)]
        for p, q in pairs:
            half = 0.5 * gtf.pi_pq(p, q)
            xs = np.concatenate([rng.random(40), 1.0 - 10.0 ** -rng.uniform(1, 15, 20)])
            for u in xs.tolist():
                x = u * half
                assert same_float(gtf.sin_pq(p, q, x), ufunc_formula("sin", p, q, x))
                assert same_float(gtf.cos_pq(p, q, x), ufunc_formula("cos", p, q, x))
                assert same_float(gtf.asin_pq(p, q, u), ufunc_formula("asin", p, q, u))
    @pytest.mark.parametrize(
        "x", [0.3, np.float64(0.3), 1, 0, np.array(0.3), np.float32(0.3), np.int64(0)],
        ids=["float", "float64", "int", "int0", "0-d", "float32", "int64"])
    def test_scalar_input_returns_float(self, x):
        p, q = 2.5, 3.0
        outs = [gtf.sin_pq(p, q, x), gtf.cos_pq(p, q, x), gtf.asin_pq(p, q, x),
                gtf.extend_sin_symmetric(q, x), *gtf.sincos_pq(p, q, x)]
        assert all(type(v) is float for v in outs)
        assert same_bits(outs[0], gtf.sin_pq(p, q, float(x)))
        assert type(gtf.pi_pq(p, q)) is float

    @pytest.mark.parametrize(
        "fn", [gtf.sin_pq, gtf.cos_pq, gtf.asin_pq, gtf.sincos_pq],
        ids=lambda f: f.__name__)
    @pytest.mark.parametrize("x", [math.inf, -math.inf, -3e-12, 1.0 + 3e-12])
    @pytest.mark.parametrize("lane", ["float", "array"])
    def test_out_of_domain_rejected(self, fn, x, lane):
        # NaN in both lanes: TestNaNRejected
        p, q = 2.0, 2.0  # the top of sin/cos is pi/2 > 1: scale onto it
        if fn is not gtf.asin_pq and math.isfinite(x):
            x = x * 0.5 * gtf.pi_pq(p, q)
        with pytest.raises(DomainError):
            fn(p, q, x if lane == "float" else np.array([0.5, x]))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -1e-11])
    def test_extension_out_of_domain_rejected(self, x):
        for arg in (x, np.array([x])):
            with pytest.raises(DomainError):
                gtf.extend_sin_symmetric(3.0, arg)


class TestNoZeroDimArrays:
    """The float lane must not build arrays: a cost guard that needs no timer."""

    def test_float_lane_makes_no_arrays(self, monkeypatch):
        sols = [bvp.solve_general(2.5, 3.0, 1.5),
                bvp.solve_nonlocal(1.5, 0.7),
                bvp.solve_pq_equal(3.0)]

        def no_arrays(*args, **kwargs):
            raise AssertionError("a scalar call built an array")

        monkeypatch.setattr(gtf.np, "asarray", no_arrays)
        monkeypatch.setattr(gtf.np, "clip", no_arrays)
        p, q = 2.5, 1.7
        for x in (0.4, np.float64(0.4), 1, 0.0):
            gtf.pi_pq(p, q)
            gtf.sin_pq(p, q, x)
            gtf.cos_pq(p, q, x)
            gtf.sincos_pq(p, q, x)
            gtf.asin_pq(p, q, x)
            gtf.extend_sin_symmetric(q, x)
            gtf.sin_symmetry_appendix(p, q, x)
            for sol in sols:
                sol(x)


SCALAR_FNS = {"sin_pq": gtf.sin_pq, "cos_pq": gtf.cos_pq,
              "sincos_pq": gtf.sincos_pq, "asin_pq": gtf.asin_pq}


class TestPairRecord:
    """The per-pair record gtf._pair: built and validated on a miss only,
    one entry for equal keys, and all that a scalar call needs at a pair
    met before."""

    @pytest.mark.parametrize("bad", [math.nan, 1.0, math.inf, 0.5, -2])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("name", SCALAR_FNS)
    def test_invalid_pair_is_rejected_and_never_kept(self, name, warm, bad):
        fn = SCALAR_FNS[name]
        gtf._pair.cache_clear()
        if warm:
            fn(2.5, 3.0, 0.3)
        size = gtf._pair.cache_info().currsize
        for p, q in ((bad, 3.0), (2.5, bad), (bad, bad)):
            for _ in range(2):
                with pytest.raises(DomainError):
                    fn(p, q, 0.3)
        assert gtf._pair.cache_info().currsize == size

    @pytest.mark.parametrize("name", SCALAR_FNS)
    def test_equal_keys_give_the_same_bits(self, name):
        fn = SCALAR_FNS[name]
        keys = [2, 2.0, np.float64(2.0)]
        xs = [0.0, 0.3, 0.7, 1.0]
        values = []
        for first in keys:  # whichever key builds the record
            gtf._pair.cache_clear()
            values.append([fn(k, k, x) for k in [first, *keys] for x in xs])
        ref = values[0][: len(xs)]
        for row in values:
            for i, v in enumerate(row):
                assert same_bits(v, ref[i % len(xs)]), (name, i)
                parts = v if isinstance(v, tuple) else (v,)
                assert all(type(w) is float for w in parts), (name, i)

    def test_warm_scalar_calls_recompute_nothing(self, monkeypatch):
        """A cost guard with no timer: after one call at a pair, scalar
        calls there and the bvp profile take every constant from the
        record."""
        p, q = 2.5, 1.7
        sol = bvp.solve_general(2.0, 3.0, 1.5)
        gtf.sin_pq(p, q, 0.1)
        half = 0.5 * gtf.pi_pq(p, q)

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm scalar call recomputed a constant")

        monkeypatch.setattr(specfun, "beta", forbidden)
        monkeypatch.setattr(specfun, "_half_mass", forbidden)
        monkeypatch.setattr(gtf, "pi_pq", forbidden)
        for u in (0.0, 0.2, 0.5, 0.9, 1.0):
            for name, fn in SCALAR_FNS.items():
                fn(p, q, u if name == "asin_pq" else u * half)
            sol(2.0 * u)


def test_scalar_kernels_equal_ufuncs():
    """gtf's float lane calls scipy's Cython kernels (specfun binds their
    double specializations), its array lane the ufuncs; both must be the
    same Boost code, bit for bit."""
    rng = np.random.default_rng(7)
    n = 10_000
    p = 1.0 + 10.0 ** rng.uniform(-6, np.log10(49.0), n)
    q = 1.0 + 10.0 ** rng.uniform(-6, np.log10(49.0), n)
    a, b = 1.0 / q, 1.0 - 1.0 / p  # 1/q and 1/p*, the shapes gtf uses
    y = rng.random(n)
    y[: n // 10] = 10.0 ** -rng.uniform(1, 300, n // 10)
    y[n // 10: n // 5] = 1.0 - 10.0 ** -rng.uniform(1, 16, n // 10)
    inv = sc.betaincinv(a, b, y)
    inv_swapped = sc.betaincinv(b, a, y)
    fwd = sc.betainc(a, b, y)
    args = zip(a.tolist(), b.tolist(), y.tolist())
    scalar = np.array([(cython_special.betaincinv(ai, bi, yi),
                        cython_special.betaincinv(bi, ai, yi),
                        cython_special.betainc(ai, bi, yi)) for ai, bi, yi in args])
    assert same_bits(scalar[:, 0], inv)
    assert same_bits(scalar[:, 1], inv_swapped)
    assert same_bits(scalar[:, 2], fwd)
    bound = np.array([(specfun._betaincinv(ai, bi, yi), specfun._betainc(ai, bi, yi))
                      for ai, bi, yi in zip(a.tolist(), b.tolist(), y.tolist())])
    assert same_bits(bound[:, 0], inv) and same_bits(bound[:, 1], fwd)
    # specfun's scalar Gamma calls, over [-50, 50] with the poles, the
    # half-integers and both zeros
    z = np.concatenate([rng.uniform(-50.0, 50.0, n), np.arange(-50.0, 51.0),
                        np.arange(-50.0, 50.0) + 0.5, [0.0, -0.0, 1e-300, -1e-300]])
    for name in ("gammaln", "gamma", "rgamma", "gammasgn"):
        kernel = getattr(cython_special, name)
        assert same_bits([kernel(v) for v in z.tolist()], getattr(sc, name)(z)), name


# ---------------------------------------------------------------- one validator


@pytest.mark.parametrize("which", ["primitive_sin_cos", "multiple_angle_residual"])
def test_accepts_exactly_what_sin_pq_accepts(which):
    """Both validate x with gtf's validator: at -1e-300, at the slack below
    0 and at the top slack they accept and reject the points sin_pq does on
    the same half period."""
    if which == "primitive_sin_cos":
        p, q = 2.5, 3.0

        def fn(x):
            return integrals.primitive_sin_cos(p, q, 1.0, 1.0, x)
    else:
        p, q = gtf.conjugate(3.0), 3.0

        def fn(x):
            return gtf.multiple_angle_residual(3.0, x)
    top = 0.5 * gtf.pi_pq(p, q)
    slack = 1e-12 * top

    def accepts(f, x):
        try:
            f(x)
        except DomainError:
            return False
        return True

    inside = [-1e-300, -slack, top + slack]
    outside = [math.nextafter(-slack, -1.0), math.nextafter(top + slack, 4.0)]
    for x in inside + outside:
        assert accepts(fn, x) == accepts(lambda v: gtf.sin_pq(p, q, v), x) == (x in inside)
    assert fn(-1e-300) == fn(0.0)


class TestValidatorEdges:
    """The array validator, gtf._as_unit, tests the range with one min()
    and one max(): empty arrays, 0-d arrays, NaN at
    any position, infinities, -0.0 and the slack behave as the elementwise
    masks did, and the caller's array is left alone."""

    P, Q = 2.5, 3.0
    GTF = {"sin_pq": gtf.sin_pq, "cos_pq": gtf.cos_pq, "asin_pq": gtf.asin_pq}
    SIZES = [5, specfun.INV_FIT_MIN]  # both array lanes

    @classmethod
    def functions(cls):
        """{name: (f of the argument alone, top of its domain, its slack)}"""
        half = 0.5 * gtf.pi_pq(cls.P, cls.Q)
        out = {}
        for name, fn in cls.GTF.items():
            top = 1.0 if name == "asin_pq" else half
            out[name] = (lambda x, fn=fn: fn(cls.P, cls.Q, x)), top, 1e-12 * top
        return out

    @pytest.mark.parametrize("name", GTF)
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty(self, name, shape):
        f, _, _ = self.functions()[name]
        v = f(np.zeros(shape))
        assert isinstance(v, np.ndarray) and v.shape == shape and v.dtype == float

    @pytest.mark.parametrize("name", GTF)
    def test_zero_dim_is_the_float_lane(self, name):
        f, top, _ = self.functions()[name]
        for x in (0.0, 0.3 * top, top):
            v = f(np.array(x))
            assert type(v) is float and same_bits(v, f(x)), x

    @pytest.mark.parametrize("name", GTF)
    @pytest.mark.parametrize("size", SIZES)
    def test_nan_and_inf_anywhere(self, name, size):
        f, top, _ = self.functions()[name]
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                f(bad)
            for where in (0, size // 2, size - 1):
                x = np.linspace(0.0, top, size)
                x[where] = bad
                with pytest.raises(DomainError):
                    f(x)
                with pytest.raises(DomainError):
                    f(x.reshape(-1, 1))

    @pytest.mark.parametrize("name", GTF)
    @pytest.mark.parametrize("size", SIZES)
    def test_negative_zero_and_slack(self, name, size):
        """-0.0 is accepted and valued as 0.0; a point within the slack
        beyond either end is clipped to that end, and the next float beyond
        the slack is rejected."""
        f, top, slack = self.functions()[name]
        x = np.linspace(0.0, top, size)
        below = [-0.0, -0.5 * slack, -slack]
        above = [top + 0.5 * slack, top + slack]
        for end, inside, edge, out in ((0, below, -slack, -math.inf),
                                       (-1, above, top + slack, math.inf)):
            for point in inside:
                y = x.copy()
                y[end] = point
                assert same_bits(f(y), f(x)), point
                assert same_bits(f(point), f(x[end])), point
            y = x.copy()
            y[end] = math.nextafter(edge, out)
            with pytest.raises(DomainError):
                f(y)
            with pytest.raises(DomainError):
                f(float(y[end]))

    @pytest.mark.parametrize("size", SIZES)
    def test_as_unit_keeps_negative_zero(self, size):
        for x in (-0.0, np.full(size, -0.0), np.array(-0.0)):
            assert np.all(np.signbit(gtf._as_unit(x, 2.0, "test")))

    @pytest.mark.parametrize("name", GTF)
    @pytest.mark.parametrize("size", SIZES)
    def test_caller_array_untouched(self, name, size):
        f, top, slack = self.functions()[name]
        x = np.linspace(0.0, top, size)
        x[0], x[-1] = -0.5 * slack, top + 0.5 * slack
        for arg in (x, x.reshape(-1, 1), x[::-1]):
            kept = arg.copy()
            f(arg)
            assert same_bits(arg, kept)


# ---------------------------------------------------------------- underflow


def mp_sin(p, q, x):
    """sin_pq(x) at 50 digits from x = s F(1/p, 1/q; 1 + 1/q; s^q)."""
    with mp.workdps(50):
        p, q, x = mp.mpf(p), mp.mpf(q), mp.mpf(x)
        return mp.findroot(lambda s: s * mp.hyp2f1(1 / p, 1 / q, 1 + 1 / q, s**q) - x, x)


def mp_asin(p, q, x):
    with mp.workdps(50):
        p, q, x = mp.mpf(p), mp.mpf(q), mp.mpf(x)
        return x * mp.hyp2f1(1 / p, 1 / q, 1 + 1 / q, x**q)


def _lanes(fn, p, q, x):
    """fn at x as a float, in a 2-point array and in an array of
    INV_FIT_MIN points, and (sin_pq and cos_pq) through sincos_pq in each."""
    if fn is gtf.asin_pq:
        return [fn(p, q, x), fn(p, q, np.array([x, x]))[1], fn(p, q, np.full(N0, x))[7]]
    j = 0 if fn is gtf.sin_pq else 1
    return [v[j][0] for v in _sincos_lanes(p, q, np.array([x])).values()]


class TestUnderflow:
    """Where x^q underflows, sin_pq(x) = asin_pq(x) = x to double precision;
    the incomplete-beta forms gave 0.4924 for sin_pq(2, 1000, 0.1001...) and
    0.0 for asin_pq(2, 1000, 0.1).  Where cos_pq^p underflows, cos_pq is the
    leading term of its inversion."""

    @pytest.mark.parametrize("p,q,frac", [(1.01, 3.0, 1.0 - 1e-4),
                                          (1.05, 2.0, 1.0 - 1e-15)])
    def test_cos(self, p, q, frac):
        # the inverse clamps cos^p near DBL_MIN, and its (1/p)-th power gave
        # 2.47e-305 and 9.94e-294 here; the values are 1.2e-399 (0.0 in
        # doubles) and 1.35e-300
        x = frac * (0.5 * gtf.pi_pq(p, q))
        ref = float(mp_sincos(p, q, x)[1])
        for value in _lanes(gtf.cos_pq, p, q, x):
            assert abs(value - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("p,q,x", [(2.0, 1000.0, 0.10013856109003356),
                                       (2.0, 200.0, 0.01006914441748482),
                                       (2.0, 6.0, 1.2143253239437903e-52)])
    def test_sin(self, p, q, x):
        ref = mp_sin(p, q, x)
        for value in _lanes(gtf.sin_pq, p, q, x):
            assert abs(value - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("p,q,x", [(2.0, 1000.0, 0.1), (2.0, 6.0, 1e-60)])
    def test_asin(self, p, q, x):
        ref = mp_asin(p, q, x)
        for value in _lanes(gtf.asin_pq, p, q, x):
            assert abs(value - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("p,q", [(5.0, 2.5), (1.2, 1.1), (2.0, 2.0), (1.001, 40.0),
                                     (30.0, 1.01), (3.0, 7.0)])
    def test_asin_series_range(self, p, q):
        # x^q from DBL_MIN to 2^-27, where Boost's incomplete beta lost up to
        # 1.6e-14 (5, 2.5) and 3.0e-14 (1.2, 1.1) below 2^-53, and still
        # 1.2e-15 (1.2, 1.1) at 1.1e-15: the two-term series is within one ulp
        xqs = np.concatenate([np.geomspace(sys.float_info.min, 2.0**-53, 9)[:-1],
                              np.geomspace(2.0**-53, 2.0**-27, 9)[:-1], [0.999 * 2.0**-27]])
        for xq in xqs.tolist():
            x = xq ** (1.0 / q)
            ref = mp_asin(p, q, x)
            for value in _lanes(gtf.asin_pq, p, q, x):
                assert abs(value - ref) <= 2.3e-16 * ref, (xq, value)


# ---------------------------------------------------------------- fitted inverse


N0 = specfun.INV_FIT_MIN


def _mp_small_inverse(a, b, w):
    """u with I_u(a, b) = w for u up to about 1/2: Newton on ln I in ln u."""
    ln_beta = mp.log(mp.beta(a, b))
    s = min(mp.log(a * mp.beta(a, b) * w) / a, mp.log(mp.mpf(0.5)))
    for _ in range(60):
        u = mp.exp(s)
        i = mp.betainc(a, b, 0, u, regularized=True)
        density = mp.exp((a - 1) * s + (b - 1) * mp.log1p(-u) - ln_beta)
        step = (mp.log(i) - mp.log(w)) / (u * density / i)
        s = min(s - step, mp.log(mp.mpf(0.75)))
        if abs(step) < mp.mpf(10) ** -40:
            return mp.exp(s)
    raise AssertionError("reference inversion did not converge")


def _mp_inverse(a, b, y):
    if y == 0 or y == 1:
        return mp.mpf(y)
    lead = (a * mp.beta(a, b) * y) ** (1 / a)
    if lead < 1e-300:  # far below DBL_MIN: the leading term will do
        return lead
    if y <= mp.betainc(a, b, 0, 0.5, regularized=True):
        return _mp_small_inverse(a, b, y)
    return 1 - _mp_small_inverse(b, a, 1 - y)


def _mp_condition(a, b, y, t, power):
    """|d ln(t^power) / d ln y| at I_t(a, b) = y, at least 1."""
    if t == 0 or t == 1:
        return 1.0
    density = mp.exp((a - 1) * mp.log(t) + (b - 1) * mp.log1p(-t) - mp.log(mp.beta(a, b)))
    return max(1.0, float(power * y / (t * density)))


def mp_sincos(p, q, x):
    """sin_pq(x), cos_pq(x) and cos_pq(x)^p at 50 digits, with the condition
    numbers of sin and cos against a relative change of the argument of
    their inversion.  The cosine is taken at the argument (half - x) / half
    as the code rounds it, so that it measures the inversion and not the
    rounding of half - x near the top (an open loss of its own)."""
    half_f = 0.5 * gtf.pi_pq(p, q)
    y_cos = (half_f - x) / half_f
    with mp.workdps(50):
        p, q, x = mp.mpf(p), mp.mpf(q), mp.mpf(x)
        a, b = 1 / q, 1 - 1 / p
        y = x / mp.beta(b, a) * q
        t = _mp_inverse(a, b, y)
        tc = _mp_inverse(b, a, mp.mpf(y_cos))
        return (t ** (1 / q), tc ** (1 / p), tc, _mp_condition(a, b, y, t, 1 / q),
                _mp_condition(b, a, mp.mpf(y_cos), tc, 1 / p))


FITTED_PAIRS = [(2.5, 3.0), (4.5, 1.7), (1.3, 5.5), (5.9, 5.9), (1.01, 3.0),
                (3.0, 1.01), (1.002, 1.003)]
SYMMETRIC_PAIRS = [(p, gtf.conjugate(p)) for p in (1.5, 30.0, 99.55)]  # q = p*
EXTREME_PAIRS = [(p, q) for p in (1.001, 3.0, 1000.0) for q in (1.001, 3.0, 1000.0)]
BIG = "INV_FIT_MIN points"


def _sincos_lanes(p, q, xs):
    """{lane: (sines, cosines)} at the points xs, from sin_pq and cos_pq and
    from sincos_pq: each point as a float and in a 2-point array, and all of
    xs at the head of one array of INV_FIT_MIN points."""
    n, floats, big = len(xs), xs.tolist(), np.resize(xs, N0)
    fused = [gtf.sincos_pq(p, q, x) for x in floats]
    fused2 = [gtf.sincos_pq(p, q, np.array([x, x])) for x in floats]
    s_big, c_big = gtf.sincos_pq(p, q, big)
    return {
        "float": ([gtf.sin_pq(p, q, x) for x in floats],
                  [gtf.cos_pq(p, q, x) for x in floats]),
        "float sincos_pq": ([s for s, _ in fused], [c for _, c in fused]),
        "2 points": ([gtf.sin_pq(p, q, np.array([x, x]))[1] for x in floats],
                     [gtf.cos_pq(p, q, np.array([x, x]))[1] for x in floats]),
        "2 points sincos_pq": ([s[1] for s, _ in fused2], [c[1] for _, c in fused2]),
        BIG: (gtf.sin_pq(p, q, big)[:n], gtf.cos_pq(p, q, big)[:n]),
        BIG + " sincos_pq": (s_big[:n], c_big[:n]),
    }


def _raw_scipy(p, q, xs):
    """sin_pq and cos_pq at the points xs from scipy's raw inverse, without
    gtf's rules for underflow or for I_{1/2}(a, a)."""
    a, b = 1.0 / q, 1.0 / gtf.conjugate(p)
    half = 0.5 * gtf.pi_pq(p, q)
    return (sc.betaincinv(a, b, xs / half) ** (1.0 / q),
            sc.betaincinv(b, a, (half - xs) / half) ** (1.0 / p))


class TestFittedInverse:
    """gtf's accuracy contract, the same in every lane, and the fitted,
    Newton-polished lane (specfun._fitted_tails) that specfun._inverse_tails
    takes on arrays of at least specfun.INV_FIT_MIN points."""

    def test_against_mpmath(self):
        """Every lane at the same points: floats, 2-point arrays and arrays
        of N0 points, through sin_pq, cos_pq and sincos_pq in each, at
        FITTED_PAIRS, at symmetric pairs and at EXTREME_PAIRS (exponents
        near 1 and at 1000, whose fits keep up to 13 coefficients).  The
        points are fractions of the half period: uniform, near 0, near the
        top, 1e-200, 0 and the middle.  Errors are relative and divided by
        the condition number (it reaches ~1/(p - 1) in the cosine at p near
        1).  At every point each
        lane is within 2e-15 of mpmath or no further than scipy's raw
        inverse (near the top all carry the ~2e-15 error of Boost's
        incomplete beta at small arguments; the float and small lanes read
        4.3e-15 at one point at p near 1), and no lane is more than 5e-15
        off, which the raw inverse breaks at 1/q = 1/p*, y = 1/2.  The
        fitted lane's worst error is no larger than the ufunc lane's."""
        rng = np.random.default_rng(20261018)
        worst = {}
        for p, q in FITTED_PAIRS + SYMMETRIC_PAIRS + EXTREME_PAIRS:
            u = np.concatenate([rng.random(6), 10.0 ** -rng.uniform(1, 15, 3),
                                1.0 - 10.0 ** -rng.uniform(1, 15, 3), [1e-200, 0.0, 0.5]])
            xs = u * (0.5 * gtf.pi_pq(p, q))
            lanes = _sincos_lanes(p, q, xs)
            raw = _raw_scipy(p, q, xs)
            for i, x in enumerate(xs.tolist()):
                ref_s, ref_c, _, cond_s, cond_c = mp_sincos(p, q, x)
                for j, ref, cond in ((0, ref_s, cond_s), (1, ref_c, cond_c)):
                    # 0, or a cosine below DBL_MIN: no full precision in doubles
                    if ref < sys.float_info.min:
                        assert all(v[j][i] < sys.float_info.min for v in lanes.values())
                        continue
                    err_raw = float(abs(raw[j][i] - ref) / ref) / cond
                    for name, v in lanes.items():
                        err = float(abs(v[j][i] - ref) / ref) / cond
                        assert err <= max(2e-15, err_raw) and err <= 5e-15, (p, q, x, name, j)
                        worst[name] = max(worst.get(name, 0.0), err)
        assert worst[BIG] <= worst["2 points"]

    @pytest.mark.parametrize("p,q", [(1.028, 1.031), (1.003, 1.05), (1.01, 1.2),
                                     (1.05, 1.1), (5.0, 50.0), (1.1, 100.0)])
    def test_band_between_median_and_half(self, p, q):
        """Between y_half = I_{1/2}(a, b) and 1/2 one inversion cannot serve
        both tails: there the tail solved (t <= 1/2 from y, or s <= 1/2 from
        yc) has the larger argument, and 1 minus it carries that argument's
        rounding into the other.  Solved each from its own argument, every
        lane keeps the contract of test_against_mpmath; a sine taken from
        the cosine's inversion just above a small y_half is off by up to
        9.3e-15 at (1.028, 1.031).  The first four pairs have the band on
        the sine's side, the last two on the cosine's."""
        a, b = 1.0 / q, 1.0 / gtf.conjugate(p)
        y_half = float(sc.betainc(a, b, 0.5))
        half = 0.5 * gtf.pi_pq(p, q)
        xs = (y_half + (0.5 - y_half) * np.array([0.01, 0.05, 0.3])) * half
        lanes = _sincos_lanes(p, q, xs)
        raw = _raw_scipy(p, q, xs)
        for i, x in enumerate(xs.tolist()):
            ref_s, ref_c, _, cond_s, cond_c = mp_sincos(p, q, x)
            for j, ref, cond in ((0, ref_s, cond_s), (1, ref_c, cond_c)):
                err_raw = float(abs(raw[j][i] - ref) / ref) / cond
                for name, v in lanes.items():
                    err = float(abs(v[j][i] - ref) / ref) / cond
                    assert err <= max(2e-15, err_raw), (x, name, j, err)

    def test_symmetric_shape_at_quarter_period(self):
        """sin_pq(p, p*, pi_pq/4) = 2^(-1/q) and cos_pq there 2^(-1/p), since
        I_{1/2}(a, a) = 1/2 (DLMF 8.17.4): within 1 ulp in every lane over a
        seeded scan of p in (1, 100) and at p = 30, where Boost's inverse
        misses 1/2 by 1.25e-8 (and at 2 of the 60 random p)."""
        a = 1.0 / gtf.conjugate(30.0)
        assert abs(sc.betaincinv(a, a, 0.5) - 0.5) > 1e-8
        rng = np.random.default_rng(8174)
        for p in [30.0, *(1.0 + 99.0 * rng.random(60)).tolist()]:
            q = gtf.conjugate(p)
            lanes = _sincos_lanes(p, q, np.array([0.25 * gtf.pi_pq(p, q)]))
            for j, ref in ((0, 0.5 ** (1.0 / q)), (1, 0.5 ** (1.0 / p))):
                for name, v in lanes.items():
                    assert abs(v[j][0] - ref) <= np.spacing(ref), (p, name, j)

    @pytest.mark.parametrize("p,q", [(1.5, 4.0), (3.0, 2.5)])
    def test_pointwise_equals_scalar_calls(self, p, q):
        """Point by point, the fitted lane (N0 + 1 points) and the float
        lane agree to the contract's 2e-15, relative and divided by the
        condition number of the inversion (in doubles, as in _mp_condition).
        The measured worst is 9.4e-16, in the cosine at (1.5, 4)."""
        half = 0.5 * gtf.pi_pq(p, q)
        xs = np.linspace(0.0, 1.0, N0 + 1) * half
        fitted = gtf.sincos_pq(p, q, xs)
        floats = ([gtf.sin_pq(p, q, x) for x in xs.tolist()],
                  [gtf.cos_pq(p, q, x) for x in xs.tolist()])
        a, b = 1.0 / q, 1.0 / gtf.conjugate(p)
        shapes = ((a, b, xs / half, q), (b, a, (half - xs) / half, p))
        for j, (a_, b_, y, power) in enumerate(shapes):
            v, ref = fitted[j], np.array(floats[j])
            t = ref**power
            inner = (t > 0.0) & (t < 1.0)
            ti, yi = t[inner], y[inner]
            density = np.exp((a_ - 1.0) * np.log(ti) + (b_ - 1.0) * np.log1p(-ti)
                             - sc.betaln(a_, b_))
            cond = np.ones_like(t)
            cond[inner] = np.maximum(1.0, yi / (power * ti * density))
            err = np.abs(v - ref) / np.where(ref > 0.0, ref, 1.0) / cond
            assert err.max() <= 2e-15, (j, xs[np.argmax(err)])

    @pytest.mark.parametrize("p,q", [(1.5, 4.0), (3.0, 2.5), (1.01, 1.02)])
    def test_below_fit_min_equals_ufunc(self, p, q, monkeypatch):
        half = 0.5 * gtf.pi_pq(p, q)
        xs = np.random.default_rng(5).random(N0 - 1) * half
        a, b = 1.0 / q, 1.0 / gtf.conjugate(p)

        def setup(*args):
            raise AssertionError("an array below INV_FIT_MIN built the fitted lane's setup")

        monkeypatch.setattr(specfun, "_inverse_setup", setup)
        s, c = gtf.sincos_pq(p, q, xs)
        # the two-tailed formula of ufunc_tails, on whole arrays
        y, yc = xs / half, (half - xs) / half
        lo, hi = sorted((sc.betainc(a, b, 0.5), 0.5))
        t_y, s_yc = sc.betaincinv(a, b, y), sc.betaincinv(b, a, yc)
        assert np.any((y > lo) & (y <= hi))  # the band, where both are solved
        assert same_bits(s, np.where(y <= hi, t_y, 1.0 - s_yc) ** (1.0 / q))
        tc = np.where(y > lo, s_yc, 1.0 - t_y)
        cos = tc ** (1.0 / p)
        # where cos^p underflows (some points at p = 1.01), the leading term
        under = tc < sys.float_info.min
        cos[under] = (b * specfun.beta(b, a) * yc[under]) ** (1.0 / (p - 1.0))
        assert same_bits(c, cos)
        assert same_bits(gtf.sin_pq(p, q, xs), s) and same_bits(gtf.cos_pq(p, q, xs), c)

    def test_asin_against_mpmath(self):
        """The same contract for asin_pq, whose arrays of N0 points sum
        specfun._inc_beta's series: floats, 2-point arrays and arrays of
        N0 points at x^q uniform, near 0 and near 1, within 2e-15 of mpmath
        or no further than scipy's raw incomplete beta at every point, and
        the fitted lane's worst error no larger than the ufunc lane's.
        Errors are relative and divided by the condition number against a
        relative change of x^q, which the rounding of x^q makes in every
        lane."""
        rng = np.random.default_rng(20261018)
        worst = {}
        for p, q in FITTED_PAIRS + SYMMETRIC_PAIRS:
            z = np.concatenate([rng.random(6), 10.0 ** -rng.uniform(1, 15, 3),
                                1.0 - 10.0 ** -rng.uniform(1, 15, 3)])
            xs = z ** (1.0 / q)
            a, b = 1.0 / q, 1.0 / gtf.conjugate(p)
            raw = (1.0 / q) * sc.beta(a, b) * sc.betainc(a, b, z)
            lanes = {"float": [gtf.asin_pq(p, q, x) for x in xs.tolist()],
                     "2 points": [gtf.asin_pq(p, q, np.array([x, x]))[1] for x in xs],
                     BIG: gtf.asin_pq(p, q, np.resize(xs, N0))}
            for i, x in enumerate(xs.tolist()):
                ref = mp_asin(p, q, x)
                with mp.workdps(50):
                    slope = x * (1 - mp.mpf(x) ** q) ** (-1 / mp.mpf(p)) / q
                cond = max(1.0, float(slope / ref))
                err_raw = float(abs(raw[i] - ref) / ref) / cond
                for name, v in lanes.items():
                    err = float(abs(v[i] - ref) / ref) / cond
                    assert err <= max(2e-15, err_raw), (p, q, x, name)
                    worst[name] = max(worst.get(name, 0.0), err)
        assert worst[BIG] <= worst["2 points"]

    @pytest.mark.parametrize("p,q", [(1.5, 4.0), (3.0, 2.5), (1.01, 1.02)])
    def test_asin_below_fit_min_equals_ufunc(self, p, q, monkeypatch):
        xs = np.random.default_rng(5).random(N0 - 1)
        xs[:3] = [0.0, 1e-12, 1.0]  # the series and both ends
        a, b = 1.0 / q, 1.0 / gtf.conjugate(p)

        def series(*args):
            raise AssertionError("an array below INV_FIT_MIN built the series")

        monkeypatch.setattr(specfun, "_forward", series)
        xq = xs**q
        expected = (1.0 / q) * specfun.beta(a, b) * sc.betainc(a, b, xq)
        small = (xs > 0.0) & (xq < 2.0**-27)
        expected[small] = (xs + xs * xq / (p * (q + 1.0)))[small]
        assert same_bits(gtf.asin_pq(p, q, xs), expected)

    def test_fit_min_makes_no_array_betainc_call(self, monkeypatch):
        """At certified shapes an array of N0 points takes the series for
        every forward evaluation: the node polish of the fits, the Newton
        step and asin_pq.  Scalar calls (I_{1/2} at the split) remain."""
        arrays = []
        real = sc.betainc

        def spy(a, b, t):
            if np.ndim(t) > 0:
                arrays.append(np.size(t))
            return real(a, b, t)

        monkeypatch.setattr(sc, "betainc", spy)
        for p, q in FITTED_PAIRS:
            xs = np.linspace(0.0, 1.0, N0)
            gtf.sincos_pq(p, q, xs * (0.5 * gtf.pi_pq(p, q)))
            gtf.asin_pq(p, q, xs)
        assert arrays == []
        gtf.asin_pq(2.5, 3.0, xs[1:])  # the spy sees the ufunc lane
        assert arrays == [N0 - 1]

    def test_fit_min_takes_the_polished_inverse(self, monkeypatch):
        # one call each: sincos_pq takes both tails from one call
        calls = []
        real = specfun._fitted_tails
        monkeypatch.setattr(specfun, "_fitted_tails",
                            lambda *args: calls.append(args[5].size) or real(*args))
        xs = np.linspace(0.0, 1.0, N0)
        gtf.sincos_pq(2.5, 3.0, xs)
        gtf.sin_pq(2.5, 3.0, xs)
        gtf.cos_pq(2.5, 3.0, xs)
        assert calls == [N0] * 3

    def test_uncertifiable_fit_falls_back(self):
        # q = 1e9: the sine's shape a = 1e-9 puts z = (a B w)^(1/a) beyond
        # what doubles resolve, so its fit is refused, and an array of N0
        # points takes the ufunc of the small arrays, bit for bit
        p, q = 2.0, 1e9
        a, b = 1.0 / q, 0.5
        lnb = float(sc.betaln(a, b))
        w_half, lower = float(sc.betainc(a, b, 0.5)), specfun._forward(a, b)[0]
        assert specfun._inv_fit(a, b, lnb, w_half, lower) is None
        assert specfun._inverse_setup(a, b)[2] is None
        half = 0.5 * gtf.pi_pq(p, q)
        xs = np.linspace(0.0, half, N0)
        s = gtf.sin_pq(p, q, xs)
        chunks = [gtf.sin_pq(p, q, xs[i:i + 100]) for i in range(0, N0, 100)]
        assert same_bits(s, np.concatenate(chunks))
        ref = [gtf.sin_pq(p, q, x) for x in xs[::37].tolist()]
        assert np.allclose(s[::37], ref, rtol=1e-14, atol=0.0)


class TestOneInversionPerPoint:
    """sin_pq and cos_pq invert each point once, in every lane: the float
    lane's scalar kernel, the small arrays' ufunc and the fitted lane's start
    (specfun._inv_fit_eval, one call a branch) together see n points for a
    call of n points, on both sides of the split.  sincos_pq does too, but
    for the points of the band between y_half = I_{1/2}(a, b) and 1/2,
    whose sine and cosine each need their own; at a symmetric shape there
    is no band."""

    PAIRS = [(2.5, 3.0), (1.5, 3.0)]  # the second symmetric: 1/q = 1/p*
    FNS = {"sincos_pq": gtf.sincos_pq, "sin_pq": gtf.sin_pq, "cos_pq": gtf.cos_pq}

    @pytest.fixture
    def points(self, monkeypatch):
        """The list that every inversion appends its number of points to,
        once the large-array setups (whose fits invert nodes) are built."""
        for p, q in self.PAIRS:
            gtf.sincos_pq(p, q, np.linspace(0.0, 0.5 * gtf.pi_pq(p, q), N0))
        seen = []

        def count(module, name):
            real = getattr(module, name)

            def counted(*args):
                seen.append(np.size(args[-1]))  # the points are the last argument
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        count(specfun, "_betaincinv")
        count(sc, "betaincinv")
        count(specfun, "_inv_fit_eval")
        return seen

    @pytest.mark.parametrize("pq", PAIRS, ids=["asymmetric", "symmetric"])
    @pytest.mark.parametrize("name", FNS)
    @pytest.mark.parametrize("n", [1, 7, 94, N0])
    def test_each_point_inverted_once(self, points, pq, name, n):
        p, q = pq
        fn = self.FNS[name]
        half = 0.5 * gtf.pi_pq(p, q)
        lo, hi = gtf._pair(p, q)[3:5]  # min and max of y_half and 1/2
        u = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.3, 0.9, 0.58])
        band = (u > lo) & (u <= hi)
        if n == 1:  # the floats: one below the band, one above, one in it
            assert band.tolist() == [False, False, (p, q) != (1.5, 3.0)]
            for x in (u * half).tolist():
                fn(p, q, x)
        else:
            fn(p, q, u * half)
        assert sum(points) == u.size + (band.sum() if name == "sincos_pq" else 0), points

    def test_one_setup_per_fresh_pair(self):
        """A sine and then a cosine call at a fresh pair build one setup
        and one set of forward sums, of the shapes (1/q, 1/p*), and the
        cosine takes the sine's."""
        p, q = 2.0 + math.e / 10.0, 3.0 + math.pi / 10.0
        xs = np.linspace(0.0, 0.5 * gtf.pi_pq(p, q), N0)
        for cache in (specfun._forward, specfun._inverse_setup):
            cache.cache_clear()
        gtf.sin_pq(p, q, xs)
        gtf.cos_pq(p, q, xs)
        setup = specfun._inverse_setup.cache_info()
        assert (setup.currsize, setup.misses, setup.hits) == (1, 1, 1)
        assert specfun._forward.cache_info().currsize == 1
