import math

import numpy as np
import pytest

from gentrig import gtf, integrals, quadrature, specfun
from gentrig.errors import DomainError
from gentrig.gtf import ParamPair
from gentrig.integrals import EllipticQuery, WallisQuery

VARPI = 2.622057554292119


def quad_sin_power(p, q, exponent, tol=1e-10):
    """Quadrature oracle for the half-period integral of sin_pq**exponent."""
    half = gtf.pi_pq(p, q) / 2.0

    def f(x, da, db):
        s = gtf.sin_pq(p, q, np.minimum(x, half))
        # near the left endpoint the integrand behaves like x**exponent
        small = da < 1e-280
        if np.any(small):
            s = np.where(small, da, s)
        return s**exponent

    return quadrature.integrate(f, 0.0, half, tol=tol, dist=True).value


def quad_cos_power(p, q, exponent, tol=1e-10):
    half = gtf.pi_pq(p, q) / 2.0

    def f(x):
        return gtf.cos_pq(p, q, x) ** exponent

    return quadrature.integrate(f, 0.0, half, tol=tol).value


class TestWallisQuery:
    def test_validation(self):
        with pytest.raises(DomainError):
            WallisQuery(ParamPair(2.0, 3.0), n=-1, r=0.5)
        with pytest.raises(DomainError):
            integrals.wallis_sin(WallisQuery(ParamPair(2.0, 3.0), n=0, r=-1.0))
        with pytest.raises(DomainError):
            integrals.wallis_cos(WallisQuery(ParamPair(2.0, 3.0), n=0, r=1.5))


class TestClassicalWallis:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_even_powers(self, n):
        # int_0^(pi/2) sin^(2n) = (2n-1)!!/(2n)!! * pi/2
        double_fact = 1.0
        for k in range(1, n + 1):
            double_fact *= (2 * k - 1) / (2 * k)
        got = integrals.wallis_sin(WallisQuery(ParamPair(2.0, 2.0), n=n, r=0.0))
        assert abs(got - double_fact * math.pi / 2.0) <= 1e-13

    @pytest.mark.parametrize("n", range(1, 9))
    def test_odd_powers(self, n):
        # int_0^(pi/2) sin^(2n+1) = (2n)!!/(2n+1)!!
        double_fact = 1.0
        for k in range(1, n + 1):
            double_fact *= (2 * k) / (2 * k + 1)
        got = integrals.wallis_sin(WallisQuery(ParamPair(2.0, 2.0), n=n, r=1.0))
        assert abs(got - double_fact) <= 1e-13

    def test_cos_matches_sin_classically(self):
        qy = WallisQuery(ParamPair(2.0, 2.0), n=2, r=0.0)
        assert integrals.wallis_cos(qy) == pytest.approx(
            integrals.wallis_sin(qy), rel=1e-14
        )


class TestGeneralWallis:
    @pytest.mark.parametrize("p,q", [(1.5, 3.0), (2.5, 2.0), (4.0, 1.5)])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_sin_against_quadrature(self, p, q, n):
        for r in (q - 1.0, (q - 1.0) / 2.0, -0.5):
            qy = WallisQuery(ParamPair(p, q), n=n, r=r)
            oracle = quad_sin_power(p, q, q * n + r, tol=1e-9)
            assert integrals.wallis_sin(qy) == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("p,q", [(1.5, 3.0), (2.5, 2.0), (4.0, 1.5)])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_cos_against_quadrature(self, p, q, n):
        for r in (1.0, (3.0 - p) / 2.0):
            qy = WallisQuery(ParamPair(p, q), n=n, r=r)
            oracle = quad_cos_power(p, q, p * n + r, tol=1e-9)
            assert integrals.wallis_cos(qy) == pytest.approx(oracle, abs=1e-7)

    def test_degenerate_sine_endpoint(self):
        # r = q-1 makes the whole formula rational times pi_{p,1} = 2p*,
        # so at n = 0 the value is p*/q; cross-check with the beta form
        p, q = 3.0, 2.0
        qy = WallisQuery(ParamPair(p, q), n=0, r=q - 1.0)
        got = integrals.wallis_sin(qy)
        assert got == pytest.approx(gtf.conjugate(p) / q, rel=1e-14)
        assert got == pytest.approx(
            integrals.definite_sin_cos(p, q, q - 1.0, 0.0), rel=1e-13
        )

    def test_degenerate_cos_endpoint(self):
        # r = 1 pins the constant to pi_{inf,q} = 2
        p, q = 2.5, 3.0
        qy = WallisQuery(ParamPair(p, q), n=0, r=1.0)
        oracle = quad_cos_power(p, q, 1.0)
        assert integrals.wallis_cos(qy) == pytest.approx(oracle, abs=1e-9)

    def test_sine_recurrence(self):
        # I_k = (k - q + 1)/(q/p* + k - q + 1) * I_{k-q}
        p, q = 2.5, 1.8
        pair = ParamPair(p, q)
        r = 0.4
        for n in range(1, 5):
            upper = integrals.wallis_sin(WallisQuery(pair, n=n, r=r))
            lower = integrals.wallis_sin(WallisQuery(pair, n=n - 1, r=r))
            k = q * n + r
            factor = (k - q + 1.0) / (q / pair.p_star + k - q + 1.0)
            assert upper == pytest.approx(factor * lower, rel=1e-13)


class TestSpecialCaseTables:
    def test_kinds_cover_module_constant(self):
        assert set(integrals.WALLIS_SPECIAL_KINDS) == {
            "sin_qn",
            "sin_qn_qm2",
            "sin_qn_qm1",
            "cos_pn",
            "cos_pn_2mp",
            "cos_pn_1",
        }

    @pytest.mark.parametrize("kind", integrals.WALLIS_SPECIAL_KINDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_special_cases_match_general(self, kind, n):
        p, q = 2.5, 3.0
        got = integrals.wallis_special_cases(p, q, n, kind)
        if kind.startswith("sin"):
            r = {"sin_qn": 0.0, "sin_qn_qm2": q - 2.0, "sin_qn_qm1": q - 1.0}[kind]
            expected = integrals.wallis_sin(WallisQuery(ParamPair(p, q), n=n, r=r))
        else:
            r = {"cos_pn": 0.0, "cos_pn_2mp": 2.0 - p, "cos_pn_1": 1.0}[kind]
            expected = integrals.wallis_cos(WallisQuery(ParamPair(p, q), n=n, r=r))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_classical_cos_squared(self):
        # kind cos_pn_2mp at p=q=2, n=1 is the classical int cos^2 = pi/4
        got = integrals.wallis_special_cases(2.0, 2.0, 1, "cos_pn_2mp")
        assert got == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            integrals.wallis_special_cases(2.0, 2.0, 1, "nope")


class TestLemniscate:
    @pytest.mark.parametrize("residue", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", range(6))
    def test_against_quadrature(self, residue, n):
        exponent = 4 * n + residue
        got = integrals.lemniscate_wallis(n, residue)
        oracle = quad_sin_power(2.0, 4.0, float(exponent), tol=1e-9)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_leading_constants(self):
        assert integrals.lemniscate_wallis(0, 0) == pytest.approx(VARPI / 2, rel=1e-14)
        assert integrals.lemniscate_wallis(0, 2) == pytest.approx(
            math.pi / (2 * VARPI), rel=1e-14
        )
        assert integrals.lemniscate_wallis(0, 3) == pytest.approx(0.5, rel=1e-14)

    def test_rationality_of_ratio(self):
        # successive terms within a residue class differ by a rational factor
        n = 2
        ratio = integrals.lemniscate_wallis(n, 1) / integrals.lemniscate_wallis(
            n - 1, 1
        )
        k = 4 * n + 1
        assert ratio == pytest.approx((k - 3.0) / (k - 1.0), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrals.lemniscate_wallis(1, 4)
        with pytest.raises(DomainError):
            integrals.lemniscate_wallis(-1, 0)


def lemniscate_wallis_loops(n, residue):
    """The catalog as four hand-written products, kept as the reference the
    Pochhammer-ratio form must reproduce bit for bit."""
    varpi = gtf.pi_pq(2.0, 4.0)
    prod = 1.0
    if residue == 0:
        for j in range(1, n + 1):
            prod *= (4.0 * j - 3.0) / (4.0 * j - 1.0)
        return prod * varpi / 2.0
    if residue == 1:
        for j in range(1, n + 1):
            prod *= (2.0 * j - 1.0) / (2.0 * j)
        return prod * math.pi / 4.0
    if residue == 2:
        for j in range(1, n + 1):
            prod *= (4.0 * j - 1.0) / (4.0 * j + 1.0)
        return prod * math.pi / (2.0 * varpi)
    for j in range(1, n + 1):
        prod *= (4.0 * j) / (4.0 * j + 2.0)
    return prod * 0.5


class TestLemniscateRatioForm:
    @pytest.mark.parametrize("residue", [0, 1, 2, 3])
    def test_bit_equal_to_loops(self, residue):
        for n in [*range(200), 1000, 99_999]:
            got = integrals.lemniscate_wallis(n, residue)
            assert got == lemniscate_wallis_loops(n, residue), (n, residue)


# callables that take an integer order n (or N), at in-domain (p, q)
ORDER_CALLS = {
    "WallisQuery": lambda n: integrals.wallis_sin(
        WallisQuery(ParamPair(2.0, 3.0), n, 0.5)),
    "lemniscate_wallis": lambda n: integrals.lemniscate_wallis(n, 1),
    "wallis_special_cases": lambda n: integrals.wallis_special_cases(
        2.0, 3.0, n, "cos_pn"),
    "primitive_finite_sum": lambda n: integrals.primitive_finite_sum(
        2.0, 3.0, 0.5, n, 0.4),
    "product_factors": lambda n: integrals.product_factors(2.0, 3.0, n),
    "poch_ratio": lambda n: specfun.poch_ratio(0.25, 0.75, n),
}

BAD_INPUTS = [
    pytest.param(ORDER_CALLS[name], n, id=f"{name}-n={n}")
    for name in ORDER_CALLS
    for n in (math.nan, math.inf, 2.5, -1, -1.0)
] + [
    pytest.param(lambda _: integrals.wallis_special_cases(
        math.inf, 0.5, 3, "sin_qn_qm1"), None, id="wallis_special_cases-p=inf"),
    pytest.param(lambda _: integrals.product_factors(math.inf, 2.0, 3), None,
                 id="product_factors-p=inf"),
    pytest.param(lambda _: integrals.product_factors(2.0, 3.0, 0), None,
                 id="product_factors-N=0"),
]


class TestOrderAndPairValidation:
    @pytest.mark.parametrize("call,n", BAD_INPUTS)
    def test_rejected_with_domain_error(self, call, n):
        with pytest.raises(DomainError):
            call(n)

    @pytest.mark.parametrize("name", ORDER_CALLS)
    def test_integral_float_order_accepted(self, name):
        assert np.array_equal(ORDER_CALLS[name](3.0), ORDER_CALLS[name](3))


class TestPrimitives:
    RNG_CASES = [
        (1.5, 2.0, 0.0, 0.0),
        (2.0, 3.0, 1.3, 0.7),
        (3.0, 1.5, 2.0, 1.0),
        (2.5, 2.5, 0.5, 2.2),
        (4.0, 2.0, 3.0, 0.0),
    ]

    @pytest.mark.parametrize("p,q,k,l", RNG_CASES)
    def test_primitive_against_quadrature(self, p, q, k, l):
        half = gtf.pi_pq(p, q) / 2.0
        x = 0.6 * half

        def f(t):
            return gtf.sin_pq(p, q, t) ** k * gtf.cos_pq(p, q, t) ** l

        oracle = quadrature.integrate(f, 0.0, x, tol=1e-10).value
        got = integrals.primitive_sin_cos(p, q, k, l, x)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_definite_value(self):
        # full half-period reduces to a beta function value
        p, q, k, l = 2.0, 2.0, 2.0, 0.0
        assert integrals.definite_sin_cos(p, q, k, l) == pytest.approx(
            math.pi / 4.0, rel=1e-14
        )

    def test_primitive_at_half_period_matches_definite(self):
        p, q, k, l = 2.5, 1.5, 1.2, 0.8
        half = gtf.pi_pq(p, q) / 2.0
        assert integrals.primitive_sin_cos(p, q, k, l, half) == pytest.approx(
            integrals.definite_sin_cos(p, q, k, l), rel=1e-12
        )

    def test_finite_sum_matches_hypergeometric(self):
        # for l = pn + 1 the hypergeometric series terminates and the
        # explicit binomial sum must agree to near machine precision
        p, q, k = 2.0, 3.0, 1.4
        half = gtf.pi_pq(p, q) / 2.0
        for n in (0, 1, 2):
            l = p * n + 1.0
            for x in (0.3 * half, 0.8 * half):
                a = integrals.primitive_sin_cos(p, q, k, l, x)
                b = integrals.primitive_finite_sum(p, q, k, n, x)
                assert a == pytest.approx(b, abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrals.primitive_sin_cos(2.0, 2.0, -1.5, 0.0, 0.5)


class TestInfiniteProduct:
    def test_factors_exceed_one(self):
        f = integrals.product_factors(2.0, 3.0, 1000)
        assert np.all(f > 1.0)

    def test_partials_increase(self):
        p, q = 1.5, 2.5
        parts = np.cumprod(integrals.product_factors(p, q, 2000))
        assert np.all(np.diff(parts) > 0.0)

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (2.0, 4.0), (3.0, 1.5)])
    def test_converges_to_half_pi(self, p, q):
        got = integrals.pi_product_partial(p, q, 100000)
        assert got == pytest.approx(gtf.pi_pq(p, q) / 2.0, rel=1e-3)

    def test_classical_wallis_product(self):
        # p = q = 2 recovers the Wallis product for pi/2
        assert integrals.pi_product_partial(2.0, 2.0, 4) == pytest.approx(
            (2 * 2 * 4 * 4 * 6 * 6 * 8 * 8)
            / (1 * 3 * 3 * 5 * 5 * 7 * 7 * 9),
            rel=1e-13,
        )


class TestElliptic:
    def test_classical_limits(self):
        # p = q = r = 2 recovers the classical complete elliptic integrals
        from scipy.special import ellipe, ellipk

        for k in (0.1, 0.5, 0.9):
            qy = EllipticQuery(ParamPair(2.0, 2.0), r=2.0, k=k)
            assert integrals.elliptic_K(qy) == pytest.approx(ellipk(k * k), rel=1e-12)
            assert integrals.elliptic_E(qy) == pytest.approx(ellipe(k * k), rel=1e-12)

    def test_K_at_zero(self):
        qy = EllipticQuery(ParamPair(2.0, 3.0), r=2.5, k=0.0)
        assert integrals.elliptic_K(qy) == pytest.approx(
            gtf.pi_pq(2.0, 3.0) / 2.0, rel=1e-14
        )

    def test_K_against_quadrature(self):
        p, q, r, k = 2.0, 3.0, 2.5, 0.6
        half = gtf.pi_pq(p, q) / 2.0

        def f(t):
            s = gtf.sin_pq(p, q, t)
            return (1.0 - (k * s) ** q) ** (-1.0 / r)

        oracle = quadrature.integrate(f, 0.0, half, tol=1e-11).value
        got = integrals.elliptic_K(EllipticQuery(ParamPair(p, q), r=r, k=k))
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_E_against_quadrature(self):
        p, q, r, k = 1.5, 2.0, 3.0, 0.4
        half = gtf.pi_pq(p, q) / 2.0

        def f(t):
            s = gtf.sin_pq(p, q, t)
            return (1.0 - (k * s) ** q) ** (1.0 / gtf.conjugate(r))

        oracle = quadrature.integrate(f, 0.0, half, tol=1e-11).value
        got = integrals.elliptic_E(EllipticQuery(ParamPair(p, q), r=r, k=k))
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            EllipticQuery(ParamPair(2.0, 2.0), r=2.0, k=1.5)


class TestElliott:
    def test_classical_legendre_relation(self):
        assert abs(integrals.elliott_residual(2.0, 2.0, 2.0, 0.6)) <= 1e-9

    @pytest.mark.parametrize(
        "p,q,r",
        [(1.5, 2.0, 2.0), (2.0, 3.0, 2.5), (1.5, 3.0, 4.0), (2.5, 2.5, 1.5)],
    )
    @pytest.mark.parametrize("k", [0.2, 0.55, 0.85])
    def test_residual_grid(self, p, q, r, k):
        assert abs(integrals.elliott_residual(p, q, r, k)) <= 1e-7

    def test_requires_p_le_q(self):
        with pytest.raises(DomainError):
            integrals.elliott_residual(3.0, 2.0, 2.0, 0.5)
