import math
import sys

import mpmath
import numpy as np
import pytest
from test_quadrature import integrate_over

from gentrig import gtf, integrals, specfun
from gentrig.errors import DomainError
from gentrig.gtf import ParamPair
from gentrig.integrals import EllipticQuery, WallisQuery

VARPI = 2.622057554292119


def quad_sin_power(p, q, exponent, tol=1e-10):
    """Quadrature oracle for the half-period integral of sin_pq**exponent."""
    half = gtf.pi_pq(p, q) / 2.0

    def f(x):
        s = gtf.sin_pq(p, q, np.minimum(x, half))
        # near the left endpoint, where the nodes are exact, the integrand
        # behaves like x**exponent
        small = x < 1e-280
        if np.any(small):
            s = np.where(small, x, s)
        return s**exponent

    return integrate_over(f, 0.0, half, tol).value[0]


def quad_cos_power(p, q, exponent, tol=1e-10):
    half = gtf.pi_pq(p, q) / 2.0

    def f(x):
        return gtf.cos_pq(p, q, x) ** exponent

    return integrate_over(f, 0.0, half, tol).value[0]


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
            integrals.primitive_sin_cos(p, q, q - 1.0, 0.0, gtf.pi_pq(p, q) / 2.0), rel=1e-13
        )

    def test_degenerate_cos_endpoint(self):
        # r = 1 pins the constant to pi_{inf,q} = 2
        p, q = 2.5, 3.0
        qy = WallisQuery(ParamPair(p, q), n=0, r=1.0)
        oracle = quad_cos_power(p, q, 1.0)
        assert integrals.wallis_cos(qy) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("p,q", [(4.5, 2.5), (2.0, 2.0), (1.5, 3.0), (3.0, 1.2)])
    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 0.0])
    def test_cos_near_the_lower_end_of_r(self, p, q, gap):
        # r within gap of 1 - p makes v = p / (r + p - 1) ~ p / gap: 1/v
        # formed by way of v* would cost ~v ulps, and divide by zero once v*
        # rounds to 1 (gap 0: the next float above 1 - p).  The bound is a
        # few ulps plus those of B(1/v, 1/q), whose exp(ln Gamma(1/v)) has
        # an exponent ~ln(v); the scan reads at most 11.3 eps for gap >= 1e-8
        # and 15.6 eps at gap 0, where ln(v) ~ 37
        r = 1.0 - p + gap if gap else math.nextafter(1.0 - p, 1.0)
        for n in (0, 3, 1000, 10**6):
            got = integrals.wallis_cos(WallisQuery(ParamPair(p, q), n, r))
            with mpmath.workdps(50):
                p_, q_, r_ = map(mpmath.mpf, (p, q, r))
                exact = mpmath.beta(1 / q_, 1 + (p_ * n + r_ - 1) / p_) / q_
                err = float(abs(got - exact) / exact)
            assert err <= 24 * 2.0**-52, (p, q, r, n)

    def test_sine_recurrence(self):
        # I_k = (k - q + 1)/(q/p* + k - q + 1) * I_{k-q}
        p, q = 2.5, 1.8
        pair = ParamPair(p, q)
        r = 0.4
        for n in range(1, 5):
            upper = integrals.wallis_sin(WallisQuery(pair, n=n, r=r))
            lower = integrals.wallis_sin(WallisQuery(pair, n=n - 1, r=r))
            k = q * n + r
            factor = (k - q + 1.0) / (q / gtf.conjugate(p) + k - q + 1.0)
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

    @pytest.mark.parametrize("p", [2.0**53 + 2.0, 3e16, 1e17])
    def test_cos_pn_2mp_above_two_to_53(self, p):
        """Above 2^53, r = 2 - p rounds onto 1 - p, which wallis_cos
        rejects; the special case takes 1/v = 1/p exactly and stays within
        1e-13 of 50-digit mpmath, (1/p)_n / (1/p + 1/q)_n (1/q) B(1/p, 1/q)."""
        q, n = 3.0, 5
        with pytest.raises(DomainError):
            integrals.wallis_cos(WallisQuery(ParamPair(p, q), n=n, r=2.0 - p))
        got = integrals.wallis_special_cases(p, q, n, "cos_pn_2mp")
        with mpmath.workdps(50):
            a, b = 1 / mpmath.mpf(p), 1 / mpmath.mpf(q)
            ref = mpmath.rf(a, n) / mpmath.rf(a + b, n) * b * mpmath.beta(a, b)
        assert abs(got - ref) <= 1e-13 * ref, (p, got, ref)

    def test_cos_pn_2mp_keeps_its_bits_up_to_six(self):
        """For p up to 6 (every closed_forms query) 1/p is the 1/v that the
        general cosine formula forms from r = 2 - p, so the value is its
        value bit for bit."""
        rng = np.random.default_rng(2053)
        ps = np.concatenate([1.0 + 5.0 * rng.random(300), [1.0 + 2.0**-52, 1.5, 2.0, 4.0, 6.0]])
        for p, q, n in zip(ps.tolist(), (1.0 + 5.0 * rng.random(ps.size)).tolist(),
                           rng.integers(0, 200, ps.size).tolist()):
            got = integrals.wallis_special_cases(p, q, n, "cos_pn_2mp")
            general = integrals.wallis_cos(WallisQuery(ParamPair(p, q), n=n, r=2.0 - p))
            assert got == general or math.isnan(got) and math.isnan(general), (p, q, n)


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
        # below the switch-over poch_ratio is the same running product
        for n in range(specfun.POCH_SWITCH):
            got = integrals.lemniscate_wallis(n, residue)
            assert got == lemniscate_wallis_loops(n, residue), (n, residue)

    @pytest.mark.parametrize("residue", [0, 1, 2, 3])
    def test_large_n_against_mpmath(self, residue):
        # int_0^{varpi/2} sl^k dt = (1/4) B((k+1)/4, 1/2), k = 4n + residue
        for n in (specfun.POCH_SWITCH, 200, 1000, 99_999, 10**6):
            with mpmath.workdps(40):
                exact = mpmath.beta(mpmath.mpf(4 * n + residue + 1) / 4, 0.5) / 4
            got = integrals.lemniscate_wallis(n, residue)
            assert abs(got - exact) <= 1e-14 * exact, (n, residue)


# callables that take an integer order n (or N), at in-domain (p, q)
ORDER_CALLS = {
    "WallisQuery": lambda n: integrals.wallis_sin(
        WallisQuery(ParamPair(2.0, 3.0), n, 0.5)),
    "lemniscate_wallis": lambda n: integrals.lemniscate_wallis(n, 1),
    "wallis_special_cases": lambda n: integrals.wallis_special_cases(
        2.0, 3.0, n, "cos_pn"),
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


class TestExponentAndModulusChecks:
    """Each domain check below rejects its boundary, a point past it, NaN
    and, where the boundary is finite, inf: EllipticQuery rejects r = inf as
    elliott_residual does."""

    @pytest.mark.parametrize("r", [1.0, 0.5, math.nan, math.inf])
    def test_elliptic_query_r(self, r):
        with pytest.raises(DomainError, match="need r > 1"):
            EllipticQuery(ParamPair(2.0, 3.0), r=r, k=0.5)

    @pytest.mark.parametrize("l", [-1.0, -2.0, math.nan, math.inf])  # 1 - p = -1
    def test_primitive_l(self, l):
        with pytest.raises(DomainError, match="need exponent l > 1 - p"):
            integrals.primitive_sin_cos(2.0, 3.0, 0.5, l, 0.3)

    @pytest.mark.parametrize("k", [-1.0, -1.5, math.nan, math.inf])
    def test_finite_sum_k(self, k):
        # the primitive's k on the terminating family l = pn + 1 that
        # primitive_finite_sum, now deleted, summed
        with pytest.raises(DomainError, match="need exponent k > -1"):
            integrals.primitive_sin_cos(2.0, 3.0, k, 2.0 * 2 + 1.0, 0.3)

    @pytest.mark.parametrize("r", [1.0, 0.5, math.nan, math.inf])
    def test_elliott_r(self, r):
        with pytest.raises(DomainError, match="need r > 1"):
            integrals.elliott_residual(2.0, 3.0, r, 0.5)

    @pytest.mark.parametrize("k", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_elliott_k(self, k):
        with pytest.raises(DomainError, match=r"need modulus k in \(0, 1\)"):
            integrals.elliott_residual(2.0, 3.0, 2.0, k)


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

        oracle = integrate_over(f, 0.0, x, 1e-10).value[0]
        got = integrals.primitive_sin_cos(p, q, k, l, x)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_definite_value(self):
        # full half-period reduces to a beta function value
        p, q, k, l = 2.0, 2.0, 2.0, 0.0
        assert integrals.primitive_sin_cos(p, q, k, l, math.pi / 2.0) == pytest.approx(
            math.pi / 4.0, rel=1e-14
        )

    @pytest.mark.parametrize("k", [1e3, 1e6])
    def test_definite_value_at_large_k(self, k):
        # (1/3) B((k + 1)/3, 1) = 1/(k + 1); the three-term ln Gamma form of
        # B was 1.4e-13 and 3.5e-11 off here, now within 8 (1 + |ln B|) eps
        bound = 8.0 * (1.0 + math.log((k + 1.0) / 3.0)) * np.finfo(float).eps
        got = integrals.primitive_sin_cos(2.0, 3.0, k, 1.0, gtf.pi_pq(2.0, 3.0) / 2.0)
        assert abs(got * (k + 1.0) - 1.0) <= bound

    def test_definite_value_underflows_to_zero(self):
        # (1/2) B(3e305 + 1/2, 3e305 + 1/2), far below the least subnormal:
        # ln B was inf - inf, and the value NaN
        assert integrals.primitive_sin_cos(2.0, 2.0, 6e305, 6e305, math.pi / 2.0) == 0.0

    def test_primitive_at_half_period_matches_definite(self):
        # the definite integral (1/q) B((k+1)/q, 1 + (l-1)/p), at 40 digits
        p, q, k, l = 2.5, 1.5, 1.2, 0.8
        half = gtf.pi_pq(p, q) / 2.0
        with mpmath.workdps(40):
            P, Q, K, L = map(mpmath.mpf, (p, q, k, l))
            definite = float(mpmath.beta((K + 1) / Q, 1 + (L - 1) / P) / Q)
        assert integrals.primitive_sin_cos(p, q, k, l, half) == pytest.approx(
            definite, rel=1e-12
        )

    def test_finite_sum_matches_hypergeometric(self):
        # for l = pn + 1 the hypergeometric form terminates in the binomial
        # sum of (-1)^m C(n, m) s^(k+1+qm) / (k+1+qm) at s = sin_pq(x), here
        # at 40 digits, and the incomplete beta route must agree to near
        # machine precision
        p, q, k = 2.0, 3.0, 1.4
        half = gtf.pi_pq(p, q) / 2.0
        for n in (0, 1, 2):
            l = p * n + 1.0
            for x in (0.3 * half, 0.8 * half):
                a = integrals.primitive_sin_cos(p, q, k, l, x)
                assert a == pytest.approx(finite_sum(p, q, k, n, x), abs=1e-11)

    def test_where_the_sine_rounds_to_one(self):
        # p near 1: sin_pq is 1.0 in double precision on much of the interval,
        # so the argument's complement 1 - sin^q must come from cos_pq^p.
        # Reference from the defining integral: y = 1 - sin_pq(x)^q solves
        # (1/q) B_y(1/p*, 1/q) = pi_pq/2 - x, and the primitive is
        # (1/q) [B(a, b) - B_y(b, a)] with a = (k+1)/q, b = 1 + (l-1)/p
        p, q, k, l = 1.05, 2.0, 0.5, 0.5
        half = gtf.pi_pq(p, q) / 2.0
        x = half - 1.0
        assert gtf.sin_pq(p, q, x) == 1.0
        with mpmath.workdps(40):
            P, Q, X = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(x)
            sa, sb = 1 / Q, 1 - 1 / P
            target = mpmath.beta(sa, sb) - Q * X
            u = mpmath.findroot(
                lambda u: mpmath.betainc(sb, sa, 0, mpmath.exp(u)) - target,
                mpmath.log(sb * target) / sb)
            a, b = (k + 1) / Q, 1 + (l - 1) / P
            exact = (mpmath.beta(a, b) - mpmath.betainc(b, a, 0, mpmath.exp(u))) / Q
        got = integrals.primitive_sin_cos(p, q, k, l, x)
        assert abs(got - exact) <= 1e-13 * exact

    def test_domain(self):
        with pytest.raises(DomainError):
            integrals.primitive_sin_cos(2.0, 2.0, -1.5, 0.0, 0.5)

    def test_incomplete_beta_grid(self):
        # six pairs, k in {-0.5, 0, 1, 3}, l from 1 - p/2 to 301 and six x up
        # to (1 - 1e-6) pi_pq/2: 1008 points, each within 1e-13 of (1/q)
        # B_z(a, b') at 40 digits, z = sin_pq^q and 1 - z = cos_pq^p from
        # gtf's inversion of x.  The hypergeometric route read 204 of them
        # worse than 1e-13 (up to 2.2e56 relative at l >= 61) and raised at 4
        worst = 0.0
        for p, q in ((1.05, 1.05), (1.05, 2.0), (1.5, 3.0), (2.0, 2.0), (3.0, 1.5), (2.0, 30.0)):
            halfpi, ia, ib, lo, hi, _, _, _, _ = gtf._pair(p, q)
            for f in (0.05, 0.3, 0.6, 0.9, 0.999, 1.0 - 1e-6):
                x = f * halfpi
                z, zc = specfun._point_tails(ia, ib, lo, hi, x / halfpi, (halfpi - x) / halfpi)
                for k in (-0.5, 0.0, 1.0, 3.0):
                    for l in (1.0 - p / 2.0, 1.0, 2.0, 5.0, 61.0, 151.0, 301.0):
                        a, b = (k + 1.0) / q, 1.0 + (l - 1.0) / p
                        with mpmath.workdps(40):
                            u = mpmath.mpf(z) if z <= 0.5 else 1 - mpmath.mpf(zc)
                            exact = mpmath.betainc(a, b, 0, u) / q
                        got = integrals.primitive_sin_cos(p, q, k, l, x)
                        err = float(abs(got - exact) / exact)
                        assert err <= 1e-13, (p, q, k, l, f, err)
                        worst = max(worst, err)
        assert worst > 0.0  # the grid ran

    @pytest.mark.parametrize("p,q,k,l,x,want", [
        (2.0, 2.0, 0.0, 1.0, 1e-200, 1e-200),  # z = x^2 underflows: 0.0 without the rule
        (2.0, 2.0, -0.5, 1.0, 1e-170, 2e-85),
        (1.5, 3.0, 1.0, 2.0, 1e-120, 5e-241),  # 3.96e-206 from z at DBL_MIN
        (3.0, 1.5, 0.0, 1.0, 1e-300, 1e-300),
        (2.0, 2.0, 0.0, 1.0, 5e-324, 5e-324),
        (2.0, 3.0, 1.0, 1.0, 5e-324, 0.0),  # x^2 / 2 underflows
    ])
    def test_below_the_sines_underflow(self, p, q, k, l, x, want):
        # below x = DBL_MIN^(1/q) sin_pq(x) is x, and the primitive is
        # x^(k+1) / (k+1), where z = sin_pq^q underflows
        assert integrals.primitive_sin_cos(p, q, k, l, x) == pytest.approx(want, rel=1e-15)


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

    @pytest.mark.parametrize(
        "p,q,N",
        [(2.0, 2.0, 1), (2.0, 3.0, 63), (2.0, 3.0, 64), (4.5, 3.5, 128_445),
         (1.01, 5.9, 10**6), (3.0, 1.5, 10**9), (1e9, 1e9, 3), (1e9, 1e9, 10**5)],
    )
    def test_partial_against_mpmath(self, p, q, N):
        with mpmath.workdps(40):
            P, Q = mpmath.mpf(p), mpmath.mpf(q)
            exact = (mpmath.rf(1, N) * mpmath.rf(1 + 1 / Q - 1 / P, N)
                     / (mpmath.rf(1 - 1 / P, N) * mpmath.rf(1 + 1 / Q, N)))
        got = integrals.pi_product_partial(p, q, N)
        assert abs(got - exact) <= 1e-14 * exact

    def test_huge_exponents(self):
        # each factor exceeds 1 by about 1/(pq n^2): below half an ulp at
        # p = q = 1e9, where 1.0 is the faithfully rounded factor
        f = integrals.product_factors(1e9, 1e9, 3)
        assert np.all(f >= 1.0)
        assert integrals.pi_product_partial(1e9, 1e9, 3) >= 1.0

    def test_partial_matches_factors(self):
        for p, q in ((2.0, 3.0), (1.5, 2.5), (5.0, 1.2)):
            for N in (1, 10, 100, 5000):
                assert integrals.pi_product_partial(p, q, N) == pytest.approx(
                    float(np.prod(integrals.product_factors(p, q, N))), rel=1e-12)

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

        oracle = integrate_over(f, 0.0, half, 1e-11).value[0]
        got = integrals.elliptic_K(EllipticQuery(ParamPair(p, q), r=r, k=k))
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_E_against_quadrature(self):
        p, q, r, k = 1.5, 2.0, 3.0, 0.4
        half = gtf.pi_pq(p, q) / 2.0

        def f(t):
            s = gtf.sin_pq(p, q, t)
            return (1.0 - (k * s) ** q) ** (1.0 / gtf.conjugate(r))

        oracle = integrate_over(f, 0.0, half, 1e-11).value[0]
        got = integrals.elliptic_E(EllipticQuery(ParamPair(p, q), r=r, k=k))
        assert got == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("k", [0.5, 0.9, 0.99, 0.9999, 1 - 1e-6, 1 - 1e-8])
    def test_classical_near_one_against_mpmath(self, k):
        qy = EllipticQuery(ParamPair(2.0, 2.0), r=2.0, k=k)
        with mpmath.workdps(40):
            m = mpmath.mpf(k) ** 2
            K, E = mpmath.ellipk(m), mpmath.ellipe(m)
        assert abs(integrals.elliptic_K(qy) - K) <= 1e-14 * K
        assert abs(integrals.elliptic_E(qy) - E) <= 1e-14 * E

    @pytest.mark.parametrize("p,q,r", [(1.5, 2.0, 3.0), (3.0, 5.5, 1.2), (5.0, 1.5, 2.0)])
    @pytest.mark.parametrize("k", [0.3, 0.9, 1 - 1e-6, 1 - 1e-8])
    def test_general_near_one_against_mpmath(self, p, q, r, k):
        # (pi_pq/2) F(1/q, b; 1/p* + 1/q; k^q), b = 1/r (K) or -1/r* (E)
        qy = EllipticQuery(ParamPair(p, q), r=r, k=k)
        with mpmath.workdps(40):
            P, Q, R = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(r)
            half = mpmath.beta(1 - 1 / P, 1 / Q) / Q
            c, x = 1 - 1 / P + 1 / Q, mpmath.mpf(k) ** Q
            K = half * mpmath.hyp2f1(1 / Q, 1 / R, c, x)
            E = half * mpmath.hyp2f1(1 / Q, -(1 - 1 / R), c, x)
        assert abs(integrals.elliptic_K(qy) - K) <= 1e-13 * K
        assert abs(integrals.elliptic_E(qy) - E) <= 1e-13 * E

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

    @pytest.mark.parametrize(
        "p,q,r",
        [(2.0, 2.0, 2.0), (1.5, 2.0, 2.0), (2.0, 3.0, 2.5), (1.5, 3.0, 4.0),
         (2.5, 2.5, 1.5), (1.2, 5.5, 1.1), (3.0, 5.0, 6.0)],
    )
    @pytest.mark.parametrize("k", [1e-6, 1e-3, 1 - 1e-6])
    def test_residual_near_both_ends(self, p, q, r, k):
        # K' (small k) or K (k near 1) grows without bound; q > 2 at
        # k = 1e-6 makes 1 - k^q round to 1
        assert abs(integrals.elliott_residual(p, q, r, k)) <= 1e-12

    @pytest.mark.parametrize(
        "p,q,r",
        [(2.0, 2.0, 2.0), (1.5, 2.0, 2.0), (2.5, 2.5, 1.5), (1.2, 5.5, 1.1),
         (3.0, 5.0, 6.0), (1.05, 1.1, 30.0), (4.0, 4.0, 1.01)],
    )
    def test_sweep_toward_both_ends(self, p, q, r):
        # k -> 0 sums the small side's pair of series at k^q (one loop), k ->
        # 1 at k'^r = 1 - k^q, with the sides swapped; (1.05, 1.1, 30) reads
        # 1.4e-14, its right side pi_pq pi_sr / 4 being ~200
        for d in (1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            for k in (d, 1.0 - d):
                assert integrals.elliott_residual(p, q, r, k) <= 1e-13, (p, q, r, k)

    def test_where_k_to_the_q_underflows(self):
        # 1 - k^q rounded to 1 and hyp2f1 at x = 1 raised "requires c > a +
        # b" for K'; the limit K E' with E' from Gauss's sum reads 2.2e-16
        assert integrals.elliott_residual(2.0, 400.0, 2.0, 0.1) <= 4.4e-16

    def test_grid_where_k_to_the_q_underflows(self):
        # p <= q and r from ten exponents, ten k: 5500 points, 556 of which
        # raised; nothing raises now, and where k^q < DBL_MIN the limit's
        # residual is rounding, within 1e-13 of pi_pq pi_{s,r} / 4 (3.9e-14
        # at worst), although (E - K) K' alone reaches ~90 there (p = 1.001,
        # q = 1000): it cancels against E' - E'(1)
        exps = (1.001, 1.01, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1000.0)
        for p in exps:
            for q in (v for v in exps if v >= p):
                for r in exps:
                    for k in (1e-8, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-8):
                        value = integrals.elliott_residual(p, q, r, k)
                        if q * math.log(k) < math.log(sys.float_info.min):
                            rhs = (gtf.pi_pq(p, q) / 2) * gtf.pi_pq(
                                math.inf if p == q else p * q / (q - p), r) / 2
                            assert value <= 1e-13 * rhs, (p, q, r, k)
                        else:
                            assert math.isfinite(value), (p, q, r, k)

    @pytest.mark.parametrize("log10_kq", [-300.0, -310.0, -400.0])
    def test_limit_meets_the_full_form(self, log10_kq):
        # at p = 1.001, q = 1000, r = 1.2, where (E - K) K' is largest: the
        # full form at k^q = 1e-300 and the limit below DBL_MIN read the
        # same rounding-level residual
        p, q, r = 1.001, 1000.0, 1.2
        k = 10.0 ** (log10_kq / q)
        rhs = (gtf.pi_pq(p, q) / 2) * gtf.pi_pq(p * q / (q - p), r) / 2
        assert integrals.elliott_residual(p, q, r, k) <= 1e-13 * rhs

    def test_requires_p_le_q(self):
        with pytest.raises(DomainError):
            integrals.elliott_residual(3.0, 2.0, 2.0, 0.5)

    @pytest.mark.parametrize("name", ["q", "r"])
    def test_rejects_r_or_q_whose_conjugate_rounds_to_one(self, name):
        # above ~2^53, 1/r* or 1/q* rounds to 1, outside hyp2f1's box (b < 1)
        # on the large side: (2, 3, 1e17, 0.5) returned 8.9e-16 while (2, 3,
        # 1e17, 0.9) and (2, 1e17, 3, 1 - 2^-53) raised hyp2f1's message
        messages = set()
        for k in (0.5, 0.9, 1.0 - 2.0**-53):
            args = (2.0, 1e17, 3.0, k) if name == "q" else (2.0, 3.0, 1e17, k)
            with pytest.raises(DomainError, match=f"got {name} = 1e") as info:
                integrals.elliott_residual(*args)
            messages.add(str(info.value))
        assert len(messages) == 1


def finite_sum(p, q, k, n, x):
    """int_0^x sin_pq^k cos_pq^(pn+1) dt as its terminating binomial sum in
    s = sin_pq(x), at 40 digits, where its alternating terms cancel without
    loss."""
    s = gtf.sin_pq(p, q, x)
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        return float(sum((-1) ** m * mpmath.binomial(n, m) * s ** (k + 1 + q * m) / (k + 1 + q * m)
                         for m in range(n + 1)))


def _integrals_calls():
    """(id, call, args) for every public integrals entry, each float given
    once as a Python float; the query dataclasses carry theirs as fields."""
    def wallis(fn):
        return lambda p, q, r: fn(WallisQuery(ParamPair(p, q), 700, r))

    def elliptic(fn):
        return lambda p, q, r, k: fn(EllipticQuery(ParamPair(p, q), r, k))

    calls = [
        ("primitive_sin_cos", integrals.primitive_sin_cos, (2.5, 3.0, 0.5, 0.7, 0.9)),
        ("primitive_sin_cos_at_half_period", integrals.primitive_sin_cos,
         (2.5, 3.0, 0.5, 0.7, gtf.pi_pq(2.5, 3.0) / 2.0)),
        ("wallis_sin", wallis(integrals.wallis_sin), (2.5, 3.0, 0.7)),
        ("wallis_sin_r=q-1", wallis(integrals.wallis_sin), (2.5, 3.0, 2.0)),
        ("wallis_cos", wallis(integrals.wallis_cos), (2.5, 3.0, -1.2)),
        ("wallis_cos_r=1", wallis(integrals.wallis_cos), (2.5, 3.0, 1.0)),
        ("pi_product_partial", lambda p, q: integrals.pi_product_partial(p, q, 1000),
         (2.5, 3.0)),
        ("product_factors", lambda p, q: integrals.product_factors(p, q, 5), (2.5, 3.0)),
        ("elliptic_K", elliptic(integrals.elliptic_K), (2.5, 3.0, 2.2, 0.95)),
        ("elliptic_E", elliptic(integrals.elliptic_E), (2.5, 3.0, 2.2, 0.3)),
        ("elliott_residual_small_k", integrals.elliott_residual, (2.5, 3.0, 2.2, 0.3)),
        ("elliott_residual_k_near_1", integrals.elliott_residual, (2.5, 3.0, 2.2, 0.97)),
    ]
    calls += [(f"wallis_special_cases-{kind}", lambda p, q, kind=kind:
               integrals.wallis_special_cases(p, q, 700, kind), (2.5, 3.0))
              for kind in integrals.WALLIS_SPECIAL_KINDS]
    return [pytest.param(call, args, id=name) for name, call, args in calls]


class TestNumpyScalarArguments:
    """np.float64 arguments, and np.float64 fields of WallisQuery,
    EllipticQuery and ParamPair, give the same bits as Python floats and a
    Python float back: every entry converts them once, so no arithmetic of
    its own runs on numpy scalars (product_factors returns an array)."""

    @pytest.mark.parametrize("call,args", _integrals_calls())
    def test_same_bits_and_type(self, call, args):
        want = call(*args)
        got = call(*map(np.float64, args))
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))
        assert type(got) is type(want)
        if not isinstance(want, np.ndarray):
            assert type(got) is float

    def test_lemniscate_with_numpy_integers(self):
        got = integrals.lemniscate_wallis(np.int64(700), np.int64(2))
        want = integrals.lemniscate_wallis(700, 2)
        assert type(got) is float and got == want
