import math

import numpy as np
import pytest

from gentrig import gtf, quadrature
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

    def test_star_properties(self):
        pair = ParamPair(3.0, 1.5)
        assert pair.p_star == pytest.approx(1.5)
        assert pair.q_star == pytest.approx(3.0)


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
        xs = np.linspace(0.0, 1.0, 257) * (gtf.pi_pq(p, q) / 2.0)
        s, c = gtf.sincos_pq(p, q, xs.reshape(-1, 1), pointwise=True)
        assert s.shape == c.shape == (257, 1)
        assert same_bits(s.ravel(), [gtf.sin_pq(p, q, x) for x in xs])
        assert same_bits(c.ravel(), [gtf.cos_pq(p, q, x) for x in xs])
        x = float(xs[100])
        assert same_bits(gtf.sincos_pq(p, q, x, pointwise=True), gtf.sincos_pq(p, q, x))

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

    def test_exponent_relation_pointwise(self):
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


class TestMultipleAngle:
    def test_classical_double_angle(self):
        assert gtf.multiple_angle_residual(2.0, math.pi / 6) <= 1e-13

    @pytest.mark.parametrize("p,x", [(3.0, 0.3), (1.5, None)])
    def test_generalized(self, p, x):
        if x is None:
            x = gtf.pi_pq(gtf.conjugate(p), p) / 4.0
        assert gtf.multiple_angle_residual(p, x) <= 1e-10


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
