import math

import mpmath
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from gentrig import quadrature, specfun
from gentrig.errors import ConvergenceError, DomainError


class TestLnGamma:
    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, 0.0), (2.0, 0.0), (0.5, math.log(math.sqrt(math.pi)))],
    )
    def test_known_values(self, x, expected):
        assert specfun.ln_gamma(x) == pytest.approx(expected, abs=1e-14)

    def test_relative_accuracy_against_factorials(self):
        for n in range(3, 100, 7):
            exact = math.lgamma(n)
            assert abs(specfun.ln_gamma(float(n)) - exact) <= 1e-13 * abs(exact)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.ln_gamma(0.0)
        with pytest.raises(DomainError):
            specfun.ln_gamma(-1.5)


class TestPochhammer:
    """The Pochhammer ratio (a)_n / (b)_n."""

    def test_empty_product(self):
        assert specfun.poch_ratio(3.0, 5.0, 0) == 1.0

    def test_factorial(self):
        # (1)_4 / (2)_4 = 4! / (5!/1!) = 1/5
        assert specfun.poch_ratio(1.0, 2.0, 4) == 0.2

    def test_vanishing_factor(self):
        assert specfun.poch_ratio(-2.0, 0.5, 3) == 0.0

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(0.1, 5, allow_nan=False),
        n=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_recurrence(self, a, b, n):
        lhs = specfun.poch_ratio(a, b, n + 1)
        rhs = specfun.poch_ratio(a, b, n) * (a + n) / (b + n)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    # the classes at the call sites: a = (r+1)/q or (r+p-1)/p in (0, 1],
    # b = a + 1/p* or a + 1/q, and the lemniscate's b = a + 1/2
    @pytest.mark.parametrize("a", [0.05, 0.25, 0.4, 0.5, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("d", [0.05, 1.0 / 3.0, 0.5, 0.6, 0.95])
    def test_against_mpmath(self, a, d):
        # the running product's worst relative error on this grid is
        # 4.6e-13, at a = 0.4, d = 0.95, n = 1e4
        b = a + d
        for n in (0, 1, 2, 7, 10, 100, 1000, 10_000):
            with mpmath.workdps(40):
                exact = mpmath.rf(a, n) / mpmath.rf(b, n)
            got = specfun.poch_ratio(a, b, n)
            assert abs(got - exact) <= 1e-12 * exact


class TestBeta:
    def test_known_values(self):
        assert specfun.beta(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert specfun.beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_lemniscate_value_against_oracle(self):
        # B(5/4, 1/2) = 2*varpi/3, oracle-quadrature value 1.74803836952808
        assert specfun.beta(1.25, 0.5) == pytest.approx(1.74803836952808, abs=1e-12)

    @given(
        x=st.floats(0.1, 10.0, allow_nan=False),
        y=st.floats(0.1, 10.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x, y):
        assert specfun.beta(x, y) == pytest.approx(specfun.beta(y, x), rel=1e-14)

    @pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("y", [0.25, 0.5, 1.0, 2.0])
    def test_contiguous_relation(self, x, y):
        lhs = (x + y) * specfun.beta(1.0 + x, y)
        rhs = x * specfun.beta(x, y)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("y", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("z", [0.5, 2.0])
    def test_three_term_relation(self, x, y, z):
        lhs = specfun.beta(x, y) * specfun.beta(x + y, z)
        rhs = specfun.beta(y, z) * specfun.beta(y + z, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.beta(0.0, 1.0)
        with pytest.raises(DomainError):
            specfun.beta(1.0, -1.0)


class TestIncBeta:
    """The regularized incomplete beta function I_x(a, b), scipy's betainc as
    gtf calls it, and the polished inverse specfun.inc_beta_reg_inv."""

    def test_endpoints(self):
        assert sc.betainc(0.7, 1.3, 0.0) == 0.0
        assert sc.betainc(0.7, 1.3, 1.0) == 1.0

    def test_against_oracle(self):
        # frozen: quadrature of t^(-1/2) (1-t)^(-1/4) over [0, 1/2], regularized
        assert sc.betainc(0.5, 0.75, 0.5) == pytest.approx(
            0.6212153287087858, abs=1e-12
        )

    def test_monotone(self):
        xs = np.linspace(0.0, 1.0, 101)
        vals = sc.betainc(0.4, 2.2, xs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_inverse_endpoints(self):
        assert specfun.inc_beta_reg_inv(0.7, 1.3, 0.0) == 0.0
        assert specfun.inc_beta_reg_inv(0.7, 1.3, 1.0) == 1.0

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
    def test_round_trip(self, a, b):
        for x in np.arange(0.1, 0.95, 0.1):
            y = sc.betainc(a, b, x)
            assert specfun.inc_beta_reg_inv(a, b, y) == pytest.approx(x, abs=1e-12)

    @pytest.mark.parametrize("a", [0.9666666666666666, 1.75])
    def test_symmetric_median(self, a):
        # I_x(a, a) = 1/2 at x = 1/2; scipy's betaincinv alone is off by
        # 1.3e-8 and 1.0e-12 here, the polished inverse by at most 8.3e-16
        assert abs(specfun.inc_beta_reg_inv(a, a, 0.5) - 0.5) <= 2e-15

    @given(
        a=st.floats(0.2, 5.0),
        b=st.floats(0.2, 5.0),
        y=st.floats(0.001, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_inverse_defect(self, a, b, y):
        x = specfun.inc_beta_reg_inv(a, b, y)
        assert 0.0 <= x <= 1.0
        # one ulp of x moves y by density * ulp, which can exceed any fixed
        # budget where the density blows up; scale the bound accordingly
        if 0.0 < x < 1.0:
            density = x ** (a - 1.0) * (1.0 - x) ** (b - 1.0) / specfun.beta(a, b)
            bound = max(1e-14, 8.0 * abs(x) * np.finfo(float).eps * density)
        else:
            bound = 1e-14
        assert abs(sc.betainc(a, b, x) - y) <= bound


class TestHyp2F1:
    def test_at_zero(self):
        assert specfun.hyp2f1(0.3, 1.7, 2.4, 0.0) == 1.0

    def test_arcsin_series(self):
        z = 0.6
        assert specfun.hyp2f1(0.5, 0.5, 1.5, z * z) == pytest.approx(
            math.asin(z) / z, abs=1e-13
        )

    def test_gauss_summation(self):
        expected = math.exp(
            specfun.ln_gamma(1.0)
            + specfun.ln_gamma(0.5)
            - 2.0 * specfun.ln_gamma(0.75)
        )
        assert specfun.hyp2f1(0.25, 0.25, 1.0, 1.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_terminating_polynomial(self):
        # F(-2, b; c; x) = 1 - 2bx/c + b(b+1)x^2/(c(c+1)), exact
        b, c, x = 1.3, 2.1, 0.8
        expected = 1.0 - 2 * b * x / c + b * (b + 1) * x**2 / (c * (c + 1))
        assert specfun.hyp2f1(-2.0, b, c, x) == pytest.approx(expected, rel=1e-15)

    def test_log_series(self):
        # F(1, 1; 2; x) = -ln(1-x)/x
        x = 0.37
        assert specfun.hyp2f1(1.0, 1.0, 2.0, x) == pytest.approx(
            -math.log1p(-x) / x, abs=1e-13
        )

    def test_euler_integral_cross_check(self):
        # F(a,b;c;x) = (1/B(b, c-b)) int_0^1 t^(b-1)(1-t)^(c-b-1)(1-xt)^(-a)
        a, b, c, x = 0.4, 0.9, 2.3, 0.65

        def f(t, da, db):
            return da ** (b - 1.0) * db ** (c - b - 1.0) * (1.0 - x * t) ** (-a)

        oracle = quadrature.integrate(f, 0.0, 1.0, tol=1e-12, dist=True).value
        oracle /= specfun.beta(b, c - b)
        assert specfun.hyp2f1(a, b, c, x) == pytest.approx(oracle, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.hyp2f1(0.5, 0.5, -1.0, 0.5)
        with pytest.raises(DomainError):
            specfun.hyp2f1(0.5, 0.5, 1.5, 1.2)
        with pytest.raises(DomainError):
            specfun.hyp2f1(1.0, 1.0, 1.5, 1.0)  # c <= a + b at x = 1
        with pytest.raises(DomainError):
            specfun.hyp2f1(0.5, 0.5, -2.0, 0.5)

    def test_convergence_failure_is_reported(self):
        # extremely close to 1 with tiny c-a-b: tail cannot certify in cap
        with pytest.raises(ConvergenceError):
            specfun.hyp2f1(0.5, 0.5, 1.001, 1.0 - 1e-14)
