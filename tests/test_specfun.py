import ast
import contextlib
import inspect
import math
import pathlib
import re
import shutil
import sys
import time
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_quadrature import integrate_over

from gentrig import gtf, integrals, specfun
from gentrig.errors import DomainError

NEXT_10 = math.nextafter(10.0, math.inf)  # just past the Gamma quotient's range
# bounds on |error| / max(1, |value|) of the ln Gamma differences in
# TestLgammaDiff, whose scans read 1.12e-15 (shifted, the pole at 0 included)
# and 3.19e-16 (large arguments); other seeds of the first read up to 1.3e-15
LGAMMA_DIFF_TOL = 1.5e-15
STIRLING_DIFF_TOL = 6e-16


def poch_outside_the_box(a, b, n):
    """poch_ratio raises DomainError at (a, b, n): its box is a, b > 0 and
    finite with |a - b| <= 1, for every n."""
    with pytest.raises(DomainError, match="poch_ratio requires"):
        specfun.poch_ratio(a, b, n)


class TestPochhammer:
    """The Pochhammer ratio (a)_n / (b)_n on its box, a, b > 0 and finite
    with |a - b| <= 1: the points of earlier tests outside it raise
    DomainError."""

    def test_empty_product(self):
        assert specfun.poch_ratio(3.0, 3.5, 0) == 1.0
        poch_outside_the_box(3.0, 5.0, 0)  # the box is tested before n

    def test_pole_of_the_denominator(self):
        # (b)_n = 0 once b + m = 0 for some m < n: every such b <= 0 lies
        # outside the box, as do the b < 0 with no zero factor
        for a, b, n in ((1.0, -2.0, 5), (1.0, -2.0, 2), (1.0, -2.5, 5), (1.0, 0.0, 1)):
            poch_outside_the_box(a, b, n)

    def test_factorial(self):
        # (1)_4 / (2)_4 = 4! / (5!/1!) = 1/5
        assert specfun.poch_ratio(1.0, 2.0, 4) == 0.2

    def test_vanishing_factor(self):
        # (a)_n vanishes only at an a <= 0, outside the box
        poch_outside_the_box(-2.0, 0.5, 3)
        poch_outside_the_box(0.0, 0.5, 3)

    @given(
        b=st.floats(0.1, 5, allow_nan=False),
        d=st.floats(-1, 1, allow_nan=False),
        n=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_recurrence(self, b, d, n):
        a = b + d
        assume(a > 0.0 and abs(a - b) <= 1.0)
        lhs = specfun.poch_ratio(a, b, n + 1)
        rhs = specfun.poch_ratio(a, b, n) * (a + n) / (b + n)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    # the classes at the call sites: a = (r+1)/q or (r+p-1)/p in (0, 1],
    # b = a + 1/p* or a + 1/q, and the lemniscate's b = a + 1/2; the
    # product's (1, 1 - 1/p) and (1 + 1/q - 1/p, 1 + 1/q) are below
    ORDERS = (0, 1, 2, 7, 10, specfun.POCH_SWITCH - 1, specfun.POCH_SWITCH,
              100, 1000, 10_000, 99_999, 10**6, 12_345_678, 10**9)

    @staticmethod
    def assert_matches_rf(a, b):
        for n in TestPochhammer.ORDERS:
            with mpmath.workdps(40):
                exact = mpmath.rf(a, n) / mpmath.rf(b, n)
            got = specfun.poch_ratio(a, b, n)
            assert abs(got - exact) <= 1e-14 * exact, (a, b, n)

    @pytest.mark.parametrize("a", [0.05, 0.25, 0.4, 0.5, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("d", [0.05, 1.0 / 3.0, 0.5, 0.6, 0.95])
    def test_against_mpmath(self, a, d):
        self.assert_matches_rf(a, a + d)

    @pytest.mark.parametrize("p,q", [(1.01, 5.9), (2.0, 2.0), (4.5, 3.5), (6.0, 1.2)])
    def test_product_classes_against_mpmath(self, p, q):
        self.assert_matches_rf(1.0, 1.0 - 1.0 / p)
        self.assert_matches_rf(1.0 + (1.0 / q - 1.0 / p), 1.0 + 1.0 / q)

    def test_cost_does_not_grow_with_n(self):
        # the running product would take minutes at n = 1e9
        t0 = time.perf_counter()
        specfun.poch_ratio(0.3, 0.8, 10**9)
        assert time.perf_counter() - t0 < 0.05

    @pytest.mark.parametrize("a", [1e-6, 0.3, 1.0, 10.0, NEXT_10, 150.0])
    def test_equal_parameters_give_one(self, a):
        for n in TestPochhammer.ORDERS:
            assert specfun.poch_ratio(a, a, n) == 1.0, (a, n)

    # the Gamma quotient's range [DBL_MIN, _STIRLING_MIN] at its lower edge,
    # at and just past its upper one, and far outside it
    @pytest.mark.parametrize("a,b", [
        (1e-6, 0.5), (0.5, 1e-6), (1e-6, 2e-6), (2e-6, 1e-6), (10.0, 9.5),
        (9.5, 10.0), (NEXT_10, 9.5), (9.5, NEXT_10), (10.0, NEXT_10),
        (NEXT_10, 10.0), (150.0, 150.5), (150.5, 150.0), (200.0, 199.25),
        (199.25, 200.0)])
    def test_quotient_range_edges(self, a, b):
        for n in (64, 10**4, 10**9):
            with mpmath.workdps(40):
                exact = mpmath.rf(a, n) / mpmath.rf(b, n)
            got = specfun.poch_ratio(a, b, n)
            assert abs(got - exact) <= 1e-14 * exact, (a, b, n)

    @pytest.mark.parametrize("a,b", [
        (10.0, 1e-6), (1e-6, 10.0), (NEXT_10, 1e-6), (1e-6, NEXT_10),
        (150.0, 1e-6), (1e-6, 150.0), (200.0, 1e-6), (1e-6, 200.0)])
    def test_far_apart_parameters(self, a, b):
        # |a - b| near 10, 150 and 200: outside the box at every n
        for n in (64, 10**4, 10**9):
            poch_outside_the_box(a, b, n)

    @pytest.mark.parametrize("a,b,n", [
        (0.5, 1e6, 64), (1e-300, 1e10, 64), (0.5, 1e17, 100), (1e20, 0.5, 64),
        (1.0, 1e20, 64), (3.0, 1e6, 64), (1e17, 1e15, 65), (1e-300, 1e10, 10**9),
        (3e-308, 1e20, 10**6), (1e10, 1e-300, 1000), (100.0, 1e3, 100)])
    def test_parameters_further_apart_than_n(self, a, b, n):
        # |a - b| > n, where the two ln Gamma differences would cancel: no
        # caller comes near, and the box rejects it
        poch_outside_the_box(a, b, n)

    @pytest.mark.parametrize("a,b", [(0.25, 0.75), (1e-6, 0.5), (0.9, 0.4),
                                     (3.0, 9.99), (1.0, 0.5), (12.0, 150.0),
                                     (8.99, 9.99), (149.0, 150.0)])
    def test_continuous_across_the_switch(self, a, b):
        n = specfun.POCH_SWITCH
        if abs(a - b) > 1.0:  # outside the box on both sides of the switch
            poch_outside_the_box(a, b, n - 1)
            poch_outside_the_box(a, b, n)
            return
        below = specfun.poch_ratio(a, b, n - 1)
        above = specfun.poch_ratio(a, b, n)
        assert above == pytest.approx(below * (a + n - 1) / (b + n - 1), rel=1e-14)

    @pytest.mark.parametrize("a,b,n", [
        (1e-310, 0.5, 100), (5e-324, 1.0, 100), (0.5, 1e-310, 100),
        (1e-310, 2e-310, 100), (2e-310, 1e-310, 64), (1e-320, 1e-10, 1000),
        (1e-10, 1e-310, 100), (0.3, 5e-324, 10**6), (5e-324, 0.3, 10**9)])
    def test_subnormal_parameters(self, a, b, n):
        # the Gamma quotient and the shifted difference read NaN or 0 here
        assert_poch_rounds_as_mpmath(a, b, n)

    @pytest.mark.parametrize("a,b,n", [
        (1e-307, 50.0, 64), (3e-308, 60.0, 64), (5e-308, 10.5, 64), (3e-308, 12.0, 70),
        (1e-307, 11.0, 64), (2.5e-308, 20.0, 100), (12.0, 3e-308, 64)])
    def test_tiny_parameter_whose_shift_overflows(self, a, b, n):
        # |a - b| / min(a, b) would overflow in the first shift of the ln
        # Gamma difference; within the box it is at most 1 / DBL_MIN, and
        # these points, with |a - b| >= 10, lie outside it
        poch_outside_the_box(a, b, n)

    def test_quotient_range_takes_no_shifted_difference(self, monkeypatch):
        # a cost guard without a timer: in the quotient's range the large-n
        # branch must not fall back on the shifted difference
        want = {(a, b, n): specfun.poch_ratio(a, b, n)
                for a, b in ((0.4, 0.9), (1e-6, 1.0), (10.0, 9.0), (1.0, 0.75))
                for n in (64, 10**4, 10**9)}
        for a, b in ((1e-6, 10.0), (10.0, 0.3)):  # once in that range, now outside the box
            poch_outside_the_box(a, b, 64)

        def shifted(z, e):
            raise AssertionError("poch_ratio took the shifted difference")

        monkeypatch.setattr(specfun, "_lgamma_diff", shifted)
        for (a, b, n), value in want.items():
            assert specfun.poch_ratio(a, b, n) == value

    @pytest.mark.parametrize("face,a,b", [
        ("a = 0", 0.0, 0.5), ("b = 0", 0.5, 0.0), ("a < 0", -5e-324, 0.5),
        ("b < 0", 0.5, -5e-324), ("a = inf", math.inf, 0.5), ("b = inf", 0.5, math.inf),
        ("a = NaN", math.nan, 0.5), ("b = NaN", 0.5, math.nan),
        ("a - b one ulp above 1", math.nextafter(1.5, 2.0), 0.5),
        ("b - a one ulp above 1", 0.5, math.nextafter(1.5, 2.0))])
    def test_just_outside_each_face(self, face, a, b):
        for n in (0, 10, specfun.POCH_SWITCH, 10**9):
            poch_outside_the_box(a, b, n)

    @pytest.mark.parametrize("a,b", [
        (0.5, 1.5), (1.5, 0.5), (1.0, 2.0), (149.0, 150.0), (150.0, 149.0),
        (5e-324, 0.5), (0.5, 5e-324), (5e-324, 1.0), (sys.float_info.min, 1.0),
        (1.0, sys.float_info.min), (sys.float_info.max, sys.float_info.max)])
    def test_just_inside_each_face(self, a, b):
        # |a - b| = 1 exactly, the least subnormal and normal a or b, and
        # the largest double
        for n in (64, 10**6, 10**9):
            assert_poch_rounds_as_mpmath(a, b, n)

    def test_every_caller_stays_in_the_box(self, monkeypatch):
        """Every poch_ratio call that seeded Wallis, special-case,
        lemniscate and product queries make, at p and q from 1 + 3e-16 to
        1e17 and n up to 1e9, lies in the box, and |a - b| reaches 1: 1/p*
        rounds to 1 once p passes ~1e16.  A query its own caller rejects
        (the cosine flavor's r at the end of its range) makes no call."""
        calls, real = [], specfun.poch_ratio

        def spy(a, b, n):
            calls.append((a, b))
            return real(a, b, n)

        monkeypatch.setattr(specfun, "poch_ratio", spy)
        rng = np.random.default_rng(35)
        for k in range(300):
            p, q = 1.0 + 10.0 ** rng.uniform(-15.5, 17.0, 2)
            n = int(10.0 ** rng.uniform(0.0, 9.0))
            pair = gtf.ParamPair(p, q)
            queries = [
                (integrals.wallis_sin, integrals.WallisQuery(pair, n, q - 1.0 - q * rng.random())),
                (integrals.wallis_cos, integrals.WallisQuery(pair, n, 1.0 - p * rng.random())),
                (integrals.wallis_special_cases, p, q, n, sorted(integrals.WALLIS_SPECIAL_KINDS)[k % 6]),
                (integrals.lemniscate_wallis, n, k % 4),
                (integrals.pi_product_partial, p, q, max(n, 1))]
            for fn, *args in queries:
                try:
                    fn(*args)
                except DomainError:
                    pass
        assert len(calls) > 1000
        outside = [(a, b) for a, b in calls
                   if not (0.0 < a < math.inf and 0.0 < b < math.inf and abs(a - b) <= 1.0)]
        assert outside == []
        assert max(abs(a - b) for a, b in calls) == 1.0


def assert_poch_rounds_as_mpmath(a, b, n):
    """poch_ratio(a, b, n) within 1e-14 of 50-digit mpmath, or a least
    subnormal where the ratio is one; inf beyond the doubles and 0 below
    half the least subnormal."""
    with mpmath.workdps(50):
        exact = mpmath.rf(a, n) / mpmath.rf(b, n)
    got = specfun.poch_ratio(a, b, n)
    if exact > sys.float_info.max:
        assert got == math.inf, (a, b, n)
    elif exact < mpmath.mpf(2) ** -1075:  # below half the least subnormal
        assert got == 0.0, (a, b, n)
    else:
        assert abs(got - exact) <= 1e-14 * exact + 2.0**-1074, (a, b, n)


class TestIntegerParameters:
    """A Python int, an np.int64 and a float of the same value give the same
    bits at every public entry; scipy's Cython gamma and rgamma have no
    integer signature, which raised TypeError before."""

    CALLS = [
        (specfun.poch_ratio, (1, 2, 100)), (specfun.poch_ratio, (3, 4, 10)),
        (specfun.hyp2f1, (0.5, 0.5, 1, 0.9)), (specfun.hyp2f1, (0.25, 0.25, 1, 1)),
        (specfun.hyp2f1, (0.5, 0, 1, 0)), (specfun.beta, (3, 20)),  # the Stirling form
        (specfun.beta, (3, 7)),
        # the Stirling form's w * w wrapped an np.int64 from w = 2**32 on
        (specfun.beta, (2**40, 0.5)), (specfun.beta, (2**62, 0.5)),
        (specfun.beta, (2**32 + 5, 0.5)),
    ]

    @pytest.mark.parametrize("kind", [int, np.int64])
    @pytest.mark.parametrize("fn,args", CALLS)
    def test_scalar(self, fn, args, kind):
        want = fn(*(float(v) for v in args))
        got = fn(*(kind(v) if isinstance(v, int) else v for v in args))
        assert type(got) is float and same_bits(got, want), (fn.__name__, args)

    def test_comp(self):
        assert same_bits(specfun.hyp2f1(0.5, 0.5, 1.25, 1.0, comp=0),
                         specfun.hyp2f1(0.5, 0.5, 1.25, 1.0, comp=0.0))


def _lgamma_diff_points(count, seed):
    """Seeded (z, e): z log-uniform in [1e-3, 1e6], |e| log-uniform in
    [1e-12, 3] with either sign and z + e > 0, one point in 20 with e = 0
    (psi(z)) and one in 20 within 1e-3 of psi's zero near 1.4616."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        z = 10.0 ** rng.uniform(-3.0, 6.0)
        if rng.random() < 0.05:
            z = 1.4616321449683622 + rng.uniform(-1e-3, 1e-3)
        if rng.random() < 0.05:
            e = 0.0
        else:
            e = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, math.log10(3.0))
        if z + e > 0.0:
            points.append((float(z), float(e)))
    return points


def _lgamma_diff_exact(z, e):
    """(ln Gamma(z + e) - ln Gamma(z)) / e with z + e exact, psi(z) at e = 0."""
    with mpmath.workdps(50):
        mz, me = mpmath.mpf(z), mpmath.mpf(e)
        if e == 0.0:
            return mpmath.digamma(mz)
        return (mpmath.loggamma(mz + me) - mpmath.loggamma(mz)) / me


class TestLgammaDiff:
    """(ln Gamma(z + e) - ln Gamma(z)) / e against 50-digit mpmath,
    |error| / max(1, |value|): the shifted form and the Stirling difference
    of large arguments."""

    def test_scan_against_mpmath(self):
        worst = 0.0
        for z, e in _lgamma_diff_points(2900, 19):
            if e < -0.5 * z:  # beyond the domain, t = e / z >= -1/2
                continue
            exact = _lgamma_diff_exact(z, e)
            err = abs(specfun._lgamma_diff(z, e) - exact) / max(1, abs(exact))
            worst = max(worst, float(err))
        assert worst <= LGAMMA_DIFF_TOL

    def test_stirling_difference_of_large_arguments(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(400):
            w = 10.0 ** rng.uniform(1.0, 9.0)
            e = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 3.0)
            if rng.random() < 0.05:
                e = 0.0
            if w + e < specfun._STIRLING_MIN:
                continue
            exact = _lgamma_diff_exact(w, e)
            err = abs(specfun._stirling_diff(w, e) - exact) / max(1, abs(exact))
            worst = max(worst, float(err))
        assert worst <= STIRLING_DIFF_TOL


class TestBeta:
    def test_known_values(self):
        assert specfun.beta(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert specfun.beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_lemniscate_value_against_oracle(self):
        # B(5/4, 1/2) = 2*varpi/3, oracle-quadrature value 1.74803836952808
        assert specfun.beta(1.25, 0.5) == pytest.approx(1.74803836952808, abs=1e-12)

    @given(x=st.floats(1e-300, 1e300), y=st.floats(1e-300, 1e300))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x, y):
        # bit for bit, on both sides of _STIRLING_MIN: gtf._pair takes
        # B(1/p*, 1/q) as B(b, a) for pi_pq's B(a, b)
        assert same_bits(specfun.beta(x, y), specfun.beta(y, x))

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

    @pytest.mark.parametrize("x", [1e-310, 0.5, 3.0, 20.0])
    def test_infinite_argument(self, x):
        # B(x, inf) = 0 in both orders: the NaN of ln B once gave inf by x
        # alone, at beta(x, inf) for x < 1
        assert specfun.beta(x, math.inf) == specfun.beta(math.inf, x) == 0.0

    @staticmethod
    def exact(x, y):
        """B(x, y) at 40 + log10(max) + |log10(min)| digits: at 50 digits
        mpmath itself returns B(1.9e152, 1.0) ~ 1."""
        digits = 40 + math.log10(max(x, y)) + abs(math.log10(min(x, y)))
        with mpmath.workdps(math.ceil(digits)):
            return mpmath.beta(mpmath.mpf(x), mpmath.mpf(y))

    def assert_beta_matches_mpmath(self, x, y):
        """Within 8 (1 + |ln B|) eps of mpmath, relative; 0 where B is below
        half the least subnormal, and inf from 2^1024 on."""
        exact, got = self.exact(x, y), specfun.beta(x, y)
        if exact < mpmath.mpf(2) ** -1075:
            assert got == 0.0, (x, y)
            return
        if exact >= mpmath.mpf(2) ** 1024:
            assert got == math.inf, (x, y)
            return
        bound = 8.0 * (1.0 + abs(float(mpmath.log(exact)))) * EPS
        assert abs(got - exact) <= bound * exact + 2.0**-1074, (x, y, got)

    @pytest.mark.parametrize("x,y", [(100.0, 0.5), (1e4, 1.0 / 3.0), (1e8, 0.5), (1e16, 1.0),
                                     (1.9e152, 1.0), (10.0, 1e-300), (10.0, 10.0)])
    def test_large_argument_against_mpmath(self, x, y):
        # exp(ln Gamma(x) + ln Gamma(y) - ln Gamma(x + y)) was 256, 1.0e4
        # and 9.5e8 eps off at the first three and read ~1 at the fourth
        self.assert_beta_matches_mpmath(x, y)
        self.assert_beta_matches_mpmath(y, x)

    @pytest.mark.parametrize("x,y", [(1e-310, 1e-310), (5e-324, 5e-324), (1e-308, 1e-308),
                                     (6e-309, 6e-309), (1e-320, 0.5), (1e308, 1e308),
                                     (3e305, 3e305), (1e308, 0.5)])
    def test_beyond_the_doubles(self, x, y):
        # B overflows at the first five and underflows at the next two: ln B
        # was inf - inf and B read NaN at the first two and at the sixth and
        # seventh, and exp(ln B) raised OverflowError at the third and fourth
        self.assert_beta_matches_mpmath(x, y)
        self.assert_beta_matches_mpmath(y, x)

    @pytest.mark.parametrize("x,y", [(1.0, 1e-310), (2.0, 1e-310), (20.0, 1e-310),
                                     (1e300, 5e-309), (0.5, 5e-324)])
    def test_one_subnormal_argument_is_inf(self, x, y):
        # B ~ 1/y is beyond the doubles whatever x
        assert specfun.beta(x, y) == specfun.beta(y, x) == math.inf

    @pytest.mark.parametrize("x,y", [(1.0, 1e-310), (2.0, 1e-310), (20.0, 1e-310),
                                     (1e300, 5e-309)])
    def test_exp_overflow_is_inf_whatever_the_larger_argument(self, monkeypatch, x, y):
        # scipy's gammaln is inf at a subnormal, so exp(ln B) does not
        # overflow there; a log-gamma that stays finite (math.lgamma: 713.8
        # at 1e-310) takes exp's OverflowError, which is B beyond the doubles
        # at any larger argument, not a domain error
        class FiniteLogGamma:
            gammaln = staticmethod(math.lgamma)

        monkeypatch.setattr(specfun, "_cs", FiniteLogGamma)
        assert specfun.beta(x, y) == specfun.beta(y, x) == math.inf

    @pytest.mark.parametrize("x,y", [(2**1023, 1.0), (10**308, 0.5), (3, 10**308),
                                     (2**1023, 1e-310), (10**300, 2**1000)],
                             ids=["2^1023-1.0", "1e308-0.5", "3-1e308", "2^1023-1e-310",
                                  "1e300-2^1000"])
    def test_int_arguments_within_the_doubles_are_their_floats(self, x, y):
        # g * g of an int g overflowed the float conversion in _stirling_diff
        # (OverflowError) from g ~ 1.3e154 on
        expected = specfun.beta(float(x), float(y))
        assert specfun.beta(x, y) == specfun.beta(y, x) == expected

    @pytest.mark.parametrize("x,y", [(10**400, 1.0), (10**400, 1e-310), (10**400, math.inf),
                                     (10**400, 10**400)],
                             ids=["1e400-1.0", "1e400-1e-310", "1e400-inf", "1e400-1e400"])
    def test_int_arguments_beyond_the_doubles_raise(self, x, y):
        for args in ((x, y), (y, x)):
            with pytest.raises(DomainError):
                specfun.beta(*args)

    def test_large_argument_scan(self):
        # max(x, y) log-uniform in [10, 1e300]; min(x, y) log-uniform below
        # 1 or in [1, 700 / ln max], where B is mostly within the doubles
        rng = np.random.default_rng(2216)
        for _ in range(200):
            g = 10.0 ** rng.uniform(1.0, 300.0)
            if rng.random() < 0.5:
                s = 10.0 ** rng.uniform(-300.0, 0.0)
            else:
                s = 10.0 ** rng.uniform(0.0, math.log10(min(g, 700.0 / math.log(g))))
            self.assert_beta_matches_mpmath(s, g)

    @given(x=st.floats(1e-300, 10.0, exclude_max=True),
           y=st.floats(1e-300, 10.0, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_small_arguments_keep_the_gamma_form(self, x, y):
        # below _STIRLING_MIN, every shape gtf builds and every Wallis half
        # period: the three ln Gamma of before, bit for bit
        want = math.exp(sc.gammaln(x) + sc.gammaln(y) - sc.gammaln(x + y))
        assert same_bits(specfun.beta(x, y), want)


def split_points(a, b):
    """lo and hi of gtf._pair: the smaller and the larger of 1/2 and
    I_{1/2}(a, b)."""
    y_half = specfun._half_mass(a, b)
    return min(y_half, 0.5), max(y_half, 0.5)


def inverse_tails(a, b, lo, hi, y, yc, tails):
    """(t, s) of specfun._tails_block at arrays y and yc = 1 - y of any
    shape, new arrays (None for a tail that tails = (want_t, want_s) does
    not ask for), block by block (specfun._blockwise) in the lane of
    specfun._inverse_lane, as gtf runs it.  a, b, lo and hi are floats, or
    arrays that broadcast against a single block y."""
    out = [np.empty(y.shape) if want else None for want in tails]
    flat = [None if v is None else v.reshape(-1) for v in out]
    specfun._blockwise(specfun._tails_block, y.size, a, b, lo, hi, y.reshape(-1),
                       yc.reshape(-1), *flat, specfun._inverse_lane(a, b, y.size))
    return tuple(out)


def inc_beta(a, b, t):
    """I_t(a, b) at an array t of any shape, a new array: specfun's
    _inc_beta_block block by block (specfun._blockwise) in the lane of
    specfun._series_lane, as asin_pq runs it."""
    out = np.empty(t.shape)
    specfun._blockwise(specfun._inc_beta_block, t.size, a, b, t.reshape(-1), out.reshape(-1),
                       specfun._series_lane(a, b, t.size))
    return out


def inverse_t(a, b, y):
    """t with I_t(a, b) = y at an array y of at least INV_FIT_MIN points,
    from the fitted lane of gtf's inversions, at a shape whose fits are
    certified."""
    assert y.size >= specfun.INV_FIT_MIN and specfun._inverse_setup(a, b)[2] is not None
    return inverse_tails(a, b, *split_points(a, b), y, 1.0 - y, (True, False))[0]


def series(a, b, t):
    """inc_beta's series at an array t of any size: t tiled to
    INV_FIT_MIN points, where the size rule picks the series, and cut back
    (every point gets the same bits wherever it sits; TestBlockSplit)."""
    n = max(t.size, specfun.INV_FIT_MIN)
    return inc_beta(a, b, np.resize(t, n))[:t.size].reshape(t.shape)


class TestIncBeta:
    """The regularized incomplete beta function I_x(a, b): scipy's betainc
    as gtf's float lane and small arrays call it, and gtf's kernels for
    shapes a, b <= 1, the sum specfun._inc_beta_block and the inverse
    specfun._tails_block in their fitted lanes."""

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
        y = np.resize([0.0, 1.0], specfun.INV_FIT_MIN)
        lo, hi = split_points(0.7, 0.3)
        t, s = inverse_tails(0.7, 0.3, lo, hi, y, 1.0 - y, (True, True))
        assert np.array_equal(t, y) and np.array_equal(s, 1.0 - y)

    @pytest.mark.parametrize("a", [0.3, 1.0])
    @pytest.mark.parametrize("b", [0.3, 1.0])
    def test_round_trip(self, a, b):
        xs = np.resize(np.arange(0.1, 0.95, 0.1), specfun.INV_FIT_MIN)
        got = inverse_t(a, b, sc.betainc(a, b, xs))
        assert np.allclose(got, xs, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("p", [1.01, 1.002])
    @pytest.mark.parametrize("q", [3.0, 1.003])
    def test_series_where_one_minus_tail_cancels(self, p, q):
        # gtf's shapes a = 1/q, b = 1/p* at p near 1: I_t(a, b) < 1/2 on
        # (1/2, median), where 1 - I_{1-t}(b, a) would lose a factor
        # I_{1-t}(b, a) / I_t(a, b) (up to ~600 here) and the series is
        # anchored at t = 1/2 instead
        a, b = 1.0 / q, 1.0 - 1.0 / p
        ts = np.concatenate([0.5 + 0.5 * np.geomspace(1e-15, 1.0, 40)[:-1], [0.5]])
        got = series(a, b, ts)
        with mpmath.workdps(50):
            ref = [mpmath.betainc(a, b, 0, t, regularized=True) for t in ts.tolist()]
        lower = [t for t, r in zip(ts.tolist(), ref) if r < 0.5 and t > 0.5]
        assert len(lower) >= 20
        for t, value, r in zip(ts.tolist(), got.tolist(), ref):
            assert abs(value - r) <= 8e-16 * r, t

    def test_series_endpoints_and_lanes(self):
        # six rows of the same 101 points, enough for the series
        ts = np.resize(np.linspace(0.0, 1.0, 101), (6, 101))
        got = inc_beta(0.7, 0.3, ts)
        assert got.shape == (6, 101) and np.all(np.diff(got) > 0.0)
        assert np.all(got[:, 0] == 0.0) and np.all(got[:, -1] == 1.0)
        assert got.base is None  # owns its memory
        # below INV_FIT_MIN points, scipy's ufunc: the float lane's bits
        small = inc_beta(0.7, 0.3, ts[0])
        assert same_bits(small, [specfun._betainc(0.7, 0.3, t) for t in ts[0].tolist()])

    @given(
        a=st.floats(0.2, 1.0),
        b=st.floats(0.2, 1.0),
        y=st.floats(0.001, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_inverse_defect(self, a, b, y):
        x = float(inverse_t(a, b, np.full(specfun.INV_FIT_MIN, y))[0])
        assert 0.0 <= x <= 1.0
        # one ulp of x moves y by density * ulp, which can exceed any fixed
        # budget where the density blows up; scale the bound accordingly
        if 0.0 < x < 1.0:
            density = x ** (a - 1.0) * (1.0 - x) ** (b - 1.0) / specfun.beta(a, b)
            bound = max(1e-14, 8.0 * abs(x) * np.finfo(float).eps * density)
        else:
            bound = 1e-14
        assert abs(sc.betainc(a, b, x) - y) <= bound


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


BLOCK = specfun.INV_FIT_BLOCK


class TestBlockSplit:
    """Arrays of at least INV_FIT_MIN points are inverted (and summed) a
    block of INV_FIT_BLOCK points at a time, each block split once at y =
    I_{1/2}(a, b) (at t = 1/2 for the series): every point gets the same
    bits wherever it sits, across block edges, in blocks that take one
    branch only, and at the split and the ends themselves."""

    # gtf's shapes, the second with the anchored sum (small b)
    SHAPES = [(1.0 / 3.0, 0.6), (0.5, 0.01)]

    @staticmethod
    def cases(split, rng):
        """{name: array of points of [0, 1]} about a split point."""
        edge = np.concatenate([[0.0, 1.0, split], rng.random(BLOCK - 2)])
        below = split * rng.random(BLOCK)
        above = rng.uniform(np.nextafter(split, 1.0), 1.0, BLOCK)
        return {
            "one block + 1": edge,
            "two blocks": np.concatenate([edge, rng.random(BLOCK - 1)]),
            "block below, block above": np.concatenate([below, above]),
            "2-d": np.concatenate([edge, rng.random(BLOCK // 2 - 1)]).reshape(3, -1),
        }

    @staticmethod
    def assert_position_free(f, y, rng):
        """f(y) and f of a shuffled copy of y agree bit for bit point by
        point, with no RuntimeWarning."""
        perm = rng.permutation(y.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = f(y)
            shuffled = f(y.ravel()[perm].reshape(y.shape))
        assert got.shape == y.shape
        assert same_bits(got.ravel()[perm], shuffled.ravel())
        return got

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_inverse(self, a, b):
        rng = np.random.default_rng(1517)
        y_half = float(sc.betainc(a, b, 0.5))
        for name, y in self.cases(y_half, rng).items():
            x = self.assert_position_free(lambda v: inverse_t(a, b, v), y, rng)
            flat, xf = y.ravel(), x.ravel()
            assert np.all(xf[flat == 0.0] == 0.0) and np.all(xf[flat == 1.0] == 1.0), name
            assert np.all(np.abs(xf[flat == y_half] - 0.5) <= 1e-15), name

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_series(self, a, b):
        rng = np.random.default_rng(1518)
        for name, t in self.cases(0.5, rng).items():
            v = self.assert_position_free(lambda u: inc_beta(a, b, u), t, rng)
            assert np.allclose(v, sc.betainc(a, b, t), rtol=1e-14, atol=0.0), name


def _closure_arrays(fn):
    """Every numpy array that fn holds in its closure, recursively through
    the functions held there."""
    out = []
    for cell in fn.__closure__ or ():
        v = cell.cell_contents
        if isinstance(v, np.ndarray):
            out.append(v)
        elif callable(v) and hasattr(v, "__closure__"):
            out += _closure_arrays(v)
    return out


class TestShapeCache:
    """The large-array lane builds each shape's setup once: _forward (the
    series' polynomials) and _inverse_setup (y_half and both fits) are
    bounded caches keyed by (a, b), and a cached setup gives the bits of a
    fresh one.  gtf repeats its shapes from call to call."""

    P, Q = 2.317, 4.528
    CACHES = (specfun._forward, specfun._inverse_setup)

    def calls(self):
        """sin_pq, cos_pq and asin_pq on arrays of INV_FIT_MIN points."""
        half = 0.5 * gtf.pi_pq(self.P, self.Q)
        u = np.random.default_rng(16).random(specfun.INV_FIT_MIN)
        return (gtf.sin_pq(self.P, self.Q, u * half), gtf.cos_pq(self.P, self.Q, u * half),
                gtf.asin_pq(self.P, self.Q, u))

    def test_cache_repeats_results(self):
        first = self.calls()
        hits = specfun._inverse_setup.cache_info().hits
        again = self.calls()
        assert specfun._inverse_setup.cache_info().hits == hits + 2  # sin and cos
        for cache in self.CACHES:
            cache.cache_clear()
        fresh = self.calls()
        for v, w, u in zip(first, again, fresh):
            assert same_bits(v, w) and same_bits(v, u)

    @pytest.mark.parametrize("a,b", [(1.0 / 3.0, 0.6), (0.5, 0.01), (0.6, 1.0 / 3.0)])
    def test_cache_is_read_only(self, a, b):
        lnb, y_half, fits = specfun._inverse_setup(a, b)
        assert specfun._inverse_setup(a, b)[2] is fits
        assert specfun._forward(a, b) is specfun._forward(a, b)
        fresh = specfun._inverse_setup.__wrapped__(a, b)
        assert (lnb, y_half) == fresh[:2]
        arrays = [fit[3] for fit in fits]
        for cached, new in zip(fits, fresh[2]):
            assert cached[:3] == new[:3] and same_bits(cached[3], new[3])
        for fn in specfun._forward(a, b):
            arrays += _closure_arrays(fn)
        assert len(arrays) >= 4  # two fits, and the polynomials of both tails
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_bounded_and_evicted_shape_rebuilds_the_same_bits(self):
        """After maxsize other shapes the first one is evicted from both
        caches; rebuilt, it gives the same bits."""
        a, b = 1.0 / self.Q, 1.0 - 1.0 / self.P
        for cache in self.CACHES:
            assert 0 < cache.cache_info().maxsize <= 1024
        rng = np.random.default_rng(17)
        y = rng.random(specfun.INV_FIT_MIN)
        before = inverse_t(a, b, y), inc_beta(a, b, y)
        size = max(cache.cache_info().maxsize for cache in self.CACHES)
        for s in np.linspace(0.1, 0.9, size).tolist():
            specfun._inverse_setup(s, 0.7)
        misses = [cache.cache_info().misses for cache in self.CACHES]
        after = inverse_t(a, b, y), inc_beta(a, b, y)
        assert [cache.cache_info().misses for cache in self.CACHES] == [m + 1 for m in misses]
        assert same_bits(before[0], after[0]) and same_bits(before[1], after[1])


class TestFitTruncation:
    """A certified fit of the inverse is cut to the coefficients that one
    Newton step needs: its start is within 2^-30 of the polished inverse,
    relative, and the step squares that."""

    def test_start_within_two_to_minus_thirty(self):
        rng = np.random.default_rng(2030)
        for p, q in (1.0 + 99.0 * rng.random((30, 2))).tolist():
            a, b = 1.0 / q, 1.0 - 1.0 / p
            lnb = float(sc.betaln(a, b))
            for s, t in ((a, b), (b, a)):
                w_half = float(sc.betainc(s, t, 0.5))
                fit = specfun._inv_fit(s, t, lnb, w_half, specfun._forward(s, t)[0])
                assert fit is not None, (p, q)
                assert 2 <= len(fit[3]) < specfun.INV_FIT_DEGREE + 1, (p, q)
                # both ends of the interpolation interval, where every
                # Chebyshev polynomial is +-1, and points between
                w = w_half * np.concatenate([[1.0, 1e-300], rng.random(specfun.INV_FIT_MIN)])
                start = specfun._inv_fit_eval(fit, w)
                polished = inverse_t(s, t, w)
                assert np.all(np.abs(start - polished) <= 2.0**-30 * polished), (p, q)

    @pytest.mark.parametrize("a,b", [(1e-9, 0.5), (0.5, 1e-9)])
    def test_uncertified_shapes_take_scipys_start(self, a, b):
        # a = 1e-9 puts z = (a B w)^(1/a) beyond what doubles resolve; the
        # setup declines the shape, and arrays of any size then take the
        # ufunc of the small arrays
        lnb = float(sc.betaln(a, b))
        y = np.random.default_rng(9).random(specfun.INV_FIT_MIN)
        fits = [specfun._inv_fit(s, t, lnb, float(sc.betainc(s, t, 0.5)), specfun._forward(s, t)[0])
                for s, t in ((a, b), (b, a))]
        assert None in fits
        assert specfun._inverse_setup(a, b)[2] is None
        lo, hi = sorted((float(sc.betainc(a, b, 0.5)), 0.5))
        whole = inverse_tails(a, b, lo, hi, y, 1.0 - y, (True, True))
        parts = [inverse_tails(a, b, lo, hi, v, 1.0 - v, (True, True))
                 for v in np.split(y, range(100, y.size, 100))]
        for j in (0, 1):
            assert same_bits(whole[j], np.concatenate([v[j] for v in parts]))


EPS = np.finfo(float).eps


class TestForwardPolynomial:
    """For shapes a, b <= 1 _inc_beta_block sums a polynomial of about 20 terms
    in x = 4u - 1, economized from the _INC_TERMS-term series."""

    def test_against_mpmath(self):
        # the docstring's 9.4e-16 on shapes a, b in [1e-6, 1], at random
        # points of both branches and near t = 0, 1/2 and 1; small b puts
        # points above 1/2 in the anchored sum
        rng = np.random.default_rng(1594)
        shapes = np.exp(rng.uniform(math.log(1e-6), 0.0, (20, 2))).tolist()
        edges = [1e-300, 1e-9, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 1.0 - 1e-9, 1.0 - 1e-15]
        anchored = 0
        with mpmath.workdps(50):
            for a, b in shapes + [(1.0 / 3.0, 0.01), (0.99, 1e-6)]:
                ts = np.concatenate([edges, 0.5 * rng.random(8), 0.5 + 0.5 * rng.random(8)])
                for t, value in zip(ts.tolist(), series(a, b, ts).tolist()):
                    ref = mpmath.betainc(a, b, 0, t, regularized=True)
                    anchored += t > 0.5 and ref < 0.5
                    assert abs(value - ref) <= 9.4e-16 * ref, (a, b, t)
        assert anchored >= 50

    # gtf's shapes a = 1/q, b = 1 - 1/p and their swaps
    @pytest.mark.parametrize("p,q", [(2.317, 4.528), (1.001, 1000.0), (1000.0, 1.001),
                                     (100.0, 100.0), (1.18, 3.123), (1.5, 1.01)])
    def test_certified_size_and_sum(self, p, q):
        u = np.linspace(0.0, 0.5, 201)
        for a, b in ((1.0 / q, 1.0 - 1.0 / p), (1.0 - 1.0 / p, 1.0 / q)):
            kappa = specfun._inc_beta_terms(a, b)
            mono = specfun._economize(kappa)
            assert 19 <= len(mono) <= 22, (a, b)
            assert np.abs(mono).sum() <= 1.55 * kappa[0], (a, b)
            series = specfun._horner(kappa, u)
            x = 4.0 * u - 1.0
            assert np.all(np.abs(specfun._horner(mono, x) - series) <= 4 * EPS * series), (a, b)

    # the corners of a, b in (0, 1]: a = 1, b -> 0 is where the monomial
    # coefficients sum to most, 8 (ln 2 - 1/2) kappa[0]; b = 1 leaves k = 0
    @pytest.mark.parametrize("a,b", [(1.0, 1e-12), (1e-12, 1e-12), (1e-12, 1.0), (1.0, 1.0),
                                     (1.0, 0.5), (0.5, 1e-12)])
    def test_bounds_hold_at_the_corners(self, a, b):
        kappa = specfun._inc_beta_terms(a, b)
        mono = specfun._economize(kappa)
        assert len(mono) <= specfun._POLY_TERMS
        assert np.abs(mono).sum() <= 8.0 * (math.log(2.0) - 0.5) * kappa[0] * (1.0 + 1e-12)


def box_points(count, seed):
    """Seeded (a, b, c, x, comp) inside hyp2f1's box, faces included: each
    of a, c - a and |b| uniform, within 10^-U(0, 16) of 1 or at 10^-U(0,
    300) (a down to its face 2^-511), b also near c - a (c - a - b near 0),
    near c - a - 1 (near -1, Euler's transformation) and near c (c - b near
    0), and x at 0, at 1 (where c > a + b), uniform, tiny, or 1 - 10^-U(0,
    20) and 1 - 10^-U(0, 324) with and without its complement."""
    rng = np.random.default_rng(seed)

    def unit(floor):
        u = rng.random()
        if u < 0.4:
            v = rng.random()
        elif u < 0.7:
            v = 10.0 ** rng.uniform(-300.0, 0.0)
        else:
            v = 1.0 - 10.0 ** rng.uniform(-16.0, 0.0)
        return min(max(v, floor), math.nextafter(1.0, 0.0))

    points = []
    while len(points) < count:
        a, d = unit(2.0**-511), unit(5e-324)
        c = a + d
        delta = 10.0 ** rng.uniform(-300.0, 0.0) * rng.choice((-1.0, 1.0))
        u = rng.random()
        if u < 0.05:
            b = 0.0
        elif u < 0.1:
            b = (c - a) + delta
        elif u < 0.15:
            b = (c - a) - 1.0 + abs(delta)
        elif u < 0.2:
            b = c + delta
        else:
            b = unit(5e-324) * rng.choice((-1.0, 1.0))
        if not (0.0 < c - a < 1.0 and -1.0 < b < 1.0):
            continue
        u, comp = rng.random(), None
        if u < 0.05:
            x = 0.0
        elif u < 0.1:
            if math.fsum((c, -a, -b)) <= 0.0:
                continue
            x, comp = 1.0, 0.0
        elif u < 0.4:
            x = rng.random()
        elif u < 0.55:
            x = 10.0 ** rng.uniform(-300.0, 0.0)
        else:
            comp = max(10.0 ** rng.uniform(-324.0 if u < 0.7 else -20.0, 0.0), 5e-324)
            x = 1.0 - comp
            if rng.random() < 0.5:
                comp = None
            if x == 1.0 and comp is None and math.fsum((c, -a, -b)) <= 0.0:
                continue
        points.append((a, b, c, x, comp))
    return points


class TestHyp2F1:
    def test_at_zero(self):
        assert specfun.hyp2f1(0.3, 0.7, 1.2, 0.0) == 1.0

    def test_arcsin_series(self):
        # F(1/2, 1/2; 3/2; z^2) = asin(z) / z has c - a = 1, on the face of
        # the box and outside it
        with pytest.raises(DomainError, match="0 < c - a < 1"):
            specfun.hyp2f1(0.5, 0.5, 1.5, 0.36)

    def test_gauss_summation(self):
        expected = math.exp(math.lgamma(1.0) + math.lgamma(0.5) - 2.0 * math.lgamma(0.75))
        assert specfun.hyp2f1(0.25, 0.25, 1.0, 1.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_terminating_polynomial(self):
        # in the box only b = 0 terminates, at F = 1 exactly, x = 1 included;
        # a = -2, whose polynomial F(-2, b; c; x) is, lies outside it
        for x in (0.0, 0.3, 0.8, 1.0 - 1e-300, 1.0):
            assert specfun.hyp2f1(0.4, 0.0, 1.1, x) == 1.0
        with pytest.raises(DomainError):
            specfun.hyp2f1(-2.0, 1.3, 2.1, 0.8)

    @pytest.mark.parametrize("b", [1e-310, -1e-310, 5e-324, 2.0**-65, -(2.0**-65)])
    def test_tiny_b_is_one(self, b):
        # |F - 1| <= |b| ln(1 / (1 - x)) <= 745 |b|: F rounds to 1; a
        # subnormal b spent the logarithmic series' budget before
        for a, c, x, comp in ((0.5, 0.6, 0.9, None), (0.3, math.nextafter(0.3, 1.0), 1.0, 5e-324),
                              (0.9, 1.8, 0.2, None)):
            assert specfun.hyp2f1(a, b, c, x, comp=comp) == 1.0

    @pytest.mark.parametrize("a,c", [(0.3, 0.9), (0.9, 1.0 - 1e-12), (1e-150, 0.5)])
    def test_b_minus_one_is_a_polynomial(self, a, c):
        # elliptic_E's b = -1/r* rounds to -1 for r above 2^53: F = 1 - a x
        # / c, here against 40-digit mpmath, x = 1 included
        for y in (0.0, 1e-300, 1e-8, 0.3, 0.9, 1.0):
            with mpmath.workdps(40):
                exact = 1 - mpmath.mpf(a) * (1 - mpmath.mpf(y)) / c
            got = specfun.hyp2f1(a, -1.0, c, 1.0 - y, comp=y)
            assert abs(got - exact) <= 4.5e-16 * exact, (a, c, y)  # two ulps

    def test_log_series(self):
        # F(1, 1; 2; x) = -ln(1-x)/x has a = 1 and c - a = 1: outside the box
        with pytest.raises(DomainError, match="2\\^-511 <= a < 1"):
            specfun.hyp2f1(1.0, 1.0, 2.0, 0.37)

    def test_euler_integral_cross_check(self):
        # F(a,b;c;x) = (1/B(b, c-b)) int_0^1 t^(b-1)(1-t)^(c-b-1)(1-xt)^(-a),
        # split at 1/2 and the upper half reflected, u = 1 - t, so that each
        # half is singular only at 0, where the oracle's nodes are exact
        a, b, c, x = 0.4, 0.9, 1.3, 0.65

        def lower(t):
            return t ** (b - 1.0) * (1.0 - t) ** (c - b - 1.0) * (1.0 - x * t) ** (-a)

        def upper(u):
            return u ** (c - b - 1.0) * (1.0 - u) ** (b - 1.0) * (1.0 - x * (1.0 - u)) ** (-a)

        oracle = sum(integrate_over(f, 0.0, 0.5, 1e-12).value[0] for f in (lower, upper))
        oracle /= specfun.beta(b, c - b)
        assert specfun.hyp2f1(a, b, c, x) == pytest.approx(oracle, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.hyp2f1(0.5, 0.5, -1.0, 0.5)
        with pytest.raises(DomainError):
            specfun.hyp2f1(0.5, 0.5, 1.25, 1.2)
        with pytest.raises(DomainError):
            specfun.hyp2f1(1.0, 1.0, 1.5, 1.0)
        with pytest.raises(DomainError, match="requires c > a \\+ b"):
            specfun.hyp2f1(0.5, 0.9, 1.2, 1.0)  # c - a - b = -0.2 at x = 1
        with pytest.raises(DomainError):
            specfun.hyp2f1(0.5, 0.5, -2.0, 0.5)

    @pytest.mark.parametrize("face,args", [
        ("a below 2^-511", (math.nextafter(2.0**-511, 0.0), 0.5, 0.5, 0.7)),
        ("a = 0", (0.0, 0.5, 0.5, 0.7)),
        ("a = 1", (1.0, 0.5, 1.5, 0.7)),
        ("c - a = 0", (0.5, 0.5, 0.5, 0.7)),
        ("c - a < 0", (0.5, 0.5, math.nextafter(0.5, 0.0), 0.7)),
        ("c - a = 1", (0.5, 0.5, 1.5, 0.7)),
        ("b = 1", (0.5, 1.0, 1.25, 0.7)),
        ("b < -1", (0.5, math.nextafter(-1.0, -2.0), 1.25, 0.7)),
        ("x < 0", (0.5, 0.5, 1.25, -5e-324)),
        ("x > 1", (0.5, 0.5, 1.25, math.nextafter(1.0, 2.0))),
        ("c = a + b at x = 1", (0.5, 0.25, 0.75, 1.0)),
        # where the series' terms would grow for ~700 steps before they decay
        ("a, b and c far above 1", (300.5, 300.5, 1.5, 0.49)),
    ])
    def test_just_outside_each_face(self, face, args):
        with pytest.raises(DomainError):
            specfun.hyp2f1(*args)

    @pytest.mark.parametrize("args", [
        (2.0**-511, 0.5, 0.5 + 2.0**-511, 0.7), (math.nextafter(1.0, 0.0), 0.5, 1.5, 0.7),
        (0.5, 0.5, math.nextafter(0.5, 1.0), 0.7), (0.5, 0.5, math.nextafter(1.5, 0.0), 0.7),
        (0.5, math.nextafter(1.0, 0.0), 1.25, 0.7), (0.5, math.nextafter(-1.0, 0.0), 1.25, 0.7),
        (0.5, -1.0, 1.25, 0.7),
        (0.5, 0.5, 1.25, 0.0), (0.5, 0.5, 1.25, 1.0), (0.5, 0.25, math.nextafter(0.75, 1.0), 1.0)])
    def test_just_inside_each_face(self, args):
        value = specfun.hyp2f1(*args)
        assert math.isfinite(value) and value > 0.0

    def test_in_box_scan_raises_nothing(self):
        # no ConvergenceError, DomainError or NaN anywhere in the box, and
        # inf only where F lies beyond the doubles: 1 - x subnormal and c - a
        # - b near -1, where F ~ Gamma(c) Gamma(a + b - c) / (Gamma(a)
        # Gamma(b)) (1 - x)^(c-a-b) (one point of 60 000 on other seeds)
        for a, b, c, x, comp in box_points(50_000, 31):
            value = specfun.hyp2f1(a, b, c, x, comp=comp)
            if value == math.inf:
                y, s = 1.0 - x if comp is None else comp, math.fsum((c, -a, -b))
                lead = (math.lgamma(c) + math.lgamma(-s) - math.lgamma(a) - math.lgamma(b)
                        + s * math.log(y))
                assert lead > math.log(sys.float_info.max), (a, b, c, x, comp)
            else:
                assert math.isfinite(value), (a, b, c, x, comp)

    def test_cancelling_corner(self):
        # a and c - a near 1, b near 0.87, x near 1/2: the two parts of the
        # connection formula cancel by up to ~28 (8.7e-15 at worst in a scan
        # of 20 000 points), the most anywhere in the box
        rng = np.random.default_rng(7)
        for _ in range(40):
            a, d = 1.0 - 10.0 ** rng.uniform(-16.0, -2.0), 1.0 - 10.0 ** rng.uniform(-16.0, -2.0)
            b, x = rng.uniform(0.84, 0.9), rng.uniform(0.5, 0.66)
            c = a + d
            with mpmath.workdps(40):
                exact = mpmath.hyp2f1(a, b, c, x)
            assert abs(specfun.hyp2f1(a, b, c, x) - exact) <= 1e-13 * abs(exact), (a, b, c, x)

    def test_near_one_with_tiny_excess(self):
        # x = 1 - 1e-14 and c - a - b = 0.001: once beyond the series' reach
        a, b, c, x = 0.5, 0.5, 1.001, 1.0 - 1e-14
        with mpmath.workdps(40):
            exact = mpmath.hyp2f1(a, b, c, x)
        assert abs(specfun.hyp2f1(a, b, c, x) - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("a,b", [(6.0, 0.8), (10.0, 0.5), (3.0, 0.8)])
    @pytest.mark.parametrize("x", [0.55, 0.7, 0.9])
    def test_large_parameters_past_one_half(self, a, b, x):
        # a > 1 (and c - a = 1): outside the box, where the two parts of the
        # connection formula cancelled by up to 3e3 near x = 1/2
        with pytest.raises(DomainError):
            specfun.hyp2f1(a, b, 1.0 + a, x)

    def test_overflowing_coefficients(self):
        # a Gamma factor of the connection formula beyond the doubles needs
        # parameters outside the box
        for a, b, c in ((1.0, 1.0, 177.5), (200.5, -1.5, 0.5)):
            with pytest.raises(DomainError):
                specfun.hyp2f1(a, b, c, 0.9)

    @pytest.mark.parametrize("a,b,c", [(0.2, 0.5, -11.3), (0.2, 0.2, -11.65)])
    def test_cancelling_head_polynomial(self, a, b, c):
        # c - a - b near -12, a head polynomial whose terms cancel: c < a,
        # outside the box
        with pytest.raises(DomainError, match="0 < c - a < 1"):
            specfun.hyp2f1(a, b, c, 0.55)

    @pytest.mark.parametrize("comp", [-1e-3, 1.5, math.nan])
    def test_complement_outside_unit_interval(self, comp):
        with pytest.raises(DomainError, match="complement"):
            specfun.hyp2f1(0.5, 0.5, 1.25, 0.9, comp=comp)

    @pytest.mark.parametrize("comp", [0.5, 0.1 + 2e-9, 0.1 - 2e-9])
    def test_complement_disagreeing_with_x(self, comp):
        """A comp more than 1e-9 from 1 - x is rejected; (1, 1, 2, 0.9) with
        comp = 0.5 spent the 300-term budget before the check."""
        with pytest.raises(DomainError, match="within 1e-9 of 1 - x"):
            specfun.hyp2f1(0.5, 0.5, 1.25, 0.9, comp=comp)

    def test_complement_within_its_bound(self):
        # F(a, b; b; x) = (1 - x)^(-a), whose slope in 1 - x is about 16 here
        for comp in (0.1 - 5e-10, 0.1 + 5e-10):
            got = specfun.hyp2f1(0.5, 0.75, 0.75, 0.9, comp=comp)
            assert got == pytest.approx(0.1**-0.5, rel=1e-8)

    def test_complement_is_used_near_one(self):
        # 1 - 1e-20 rounds to 1, where c <= a + b has no value; the exact
        # complement still gives F(1/2, 1/2; 1; 1 - y) = (2/pi) K
        y = 1e-20
        with mpmath.workdps(40):
            exact = mpmath.hyp2f1(0.5, 0.5, 1, 1 - mpmath.mpf(y))
        got = specfun.hyp2f1(0.5, 0.5, 1.0, 1.0 - y, comp=y)
        assert abs(got - exact) <= 1e-13 * exact

    def test_cost_is_bounded_near_one(self):
        t0 = time.perf_counter()
        for y in (1e-3, 1e-8, 1e-15):
            specfun.hyp2f1(0.5, 0.5, 1.0, 1.0 - y, comp=y)
            specfun.hyp2f1(0.3, 0.4, 1.2, 1.0 - y, comp=y)
        assert time.perf_counter() - t0 < 0.05


class TestHyp2F1BeyondTheDoubles:
    """c - a - b beyond +-170, where m! leaves the doubles, the factor
    y^(c-a-b) of Euler's transformation beyond them, and Gamma factors
    beyond them: every such point has a parameter outside hyp2f1's box, so
    it raises DomainError where it once gave a value, inf or a raw
    OverflowError."""

    @pytest.mark.parametrize("a,b,c,x", [
        (172.0, 1.0, 2.0, 0.6), (200.0, 1.0, 2.0, 0.9), (300.0, 1.0, 2.0, 0.9),
        (172.25, 1.25, 2.5, 0.6), (200.5, 0.5, 3.0, 0.9), (1.0, 172.25, 2.25, 0.6),
        (-170.5, 1.5, 2.0, 0.99), (0.5, 0.5, 175.0, 0.9), (2.5, 1.5, 180.0, 0.75)])
    def test_value_where_m_factorial_overflows(self, a, b, c, x):
        with pytest.raises(DomainError):
            specfun.hyp2f1(a, b, c, x)

    @pytest.mark.parametrize("a,b,c,x", [
        (170.0, 1.0, 2.0, 0.99), (169.0, 1.0, 2.0, 0.99), (200.0, 1.0, 2.0, 0.99),
        (63.5, 1.0, 2.0, 1.0 - 1e-5)])
    def test_inf_beyond_the_doubles(self, a, b, c, x):
        # the true values are about 6e335, 6e333, 5e395 and 1.6e310
        with pytest.raises(DomainError):
            specfun.hyp2f1(a, b, c, x)

    @pytest.mark.parametrize("a,b,c", [(1000.0, 0.5, 970.5), (300.0, 1.5, 271.5)])
    def test_value_where_only_y_to_the_s_overflows(self, a, b, c):
        with pytest.raises(DomainError):
            specfun.hyp2f1(a, b, c, 1.0 - 1e-11)

    @pytest.mark.parametrize("a,b,c,x,what", [
        (1e5, 1.0, 2.0, 0.7, "Gamma"), (0.5, 0.5, -170.05, 0.6, "cancels")])
    def test_stated_bounds(self, a, b, c, x, what):
        # what names the old reason, a Gamma factor beyond the doubles at an
        # argument beyond 1024 and parts that cancel; the box's test is now
        # the one that rejects them
        with pytest.raises(DomainError, match="hyp2f1 requires"):
            specfun.hyp2f1(a, b, c, x)

    @pytest.mark.parametrize("f", [0.1, 0.5, 0.8, 0.95, 0.99, 0.999, 0.99999])
    def test_prefactor_below_the_doubles(self, f):
        # primitive_sin_cos(1.05, 1.05, 40, 150, x), where hyp2f1's route
        # met F(39.05, -141.9; 40.05; .) near x = 1 with m = 143, and
        # (-y)^143 underflowed (the value read 0, or a wrong sign at f =
        # 0.1); the incomplete beta route reads 4.0e-14 at worst, mostly
        # specfun.beta's; the integral is 3.5096e-42
        p = q = 1.05
        k, l = 40.0, 150.0
        x = f * gtf.pi_pq(p, q) / 2
        s, c = gtf.sincos_pq(p, q, x)
        a = (k + 1.0) / q
        with mpmath.workdps(40):
            exact = (mpmath.mpf(s) ** (k + 1) / (k + 1)
                     * mpmath.hyp2f1(a, (1.0 - l) / p, 1 + a, 1 - mpmath.mpf(c) ** p))
        got = integrals.primitive_sin_cos(p, q, k, l, x)
        assert abs(got - exact) <= 1e-13 * exact


def assert_within_stated_accuracy(a, b, c, x, comp=None):
    """hyp2f1 against 40-digit mpmath at x, or at 1 - comp where comp is
    given, within the ~9e-15 its docstring states for the box."""
    with mpmath.workdps(40):
        exact = mpmath.hyp2f1(a, b, c, mpmath.mpf(x) if comp is None else 1 - mpmath.mpf(comp))
    got = specfun.hyp2f1(a, b, c, x, comp=comp)
    assert abs(got - exact) <= 9e-15 * abs(exact), (a, b, c, x, comp)


class TestHyp2F1GammaProducts:
    """hyp2f1 at each plain Gamma product of its connection formulas, which
    the family tests reach rarely or not at all: _gamma_ratio_m1's far
    branch, the m = 2 head and prefactor where (-y)^2 underflows, and
    Euler's transformation."""

    def test_far_branch_of_the_gamma_ratio(self, monkeypatch):
        # c - a - b = 0.05 and a = 0.001: 2|e| exceeds the gap from a to the
        # pole at 0, so Gamma(a) / Gamma(c - b) is two Gamma calls
        far, ratio_m1 = [], specfun._gamma_ratio_m1

        def spy(z, e, ze):
            far.append(2.0 * abs(e) > (z if z >= 0.5 else abs(z - round(z))))
            return ratio_m1(z, e, ze)

        monkeypatch.setattr(specfun, "_gamma_ratio_m1", spy)
        assert_within_stated_accuracy(0.001, 0.45, 0.501, 0.9)
        assert any(far)

    @pytest.mark.parametrize("y", [1e-200, 1e-160, 1e-100])
    def test_head_and_prefactor_at_order_two(self, y, monkeypatch):
        # c - a - b = 2.01: the head polynomial's two terms, and (-y)^2,
        # which underflows (to 0 or a subnormal) at the first two y
        orders, near_integer = [], specfun._connection_near_integer

        def spy(*args):
            orders.append(args[6])
            return near_integer(*args)

        monkeypatch.setattr(specfun, "_connection_near_integer", spy)
        assert_within_stated_accuracy(0.5, -0.98, 1.49, 1.0 - y, comp=y)
        assert orders == [2]

    @pytest.mark.parametrize("x", [0.55, 0.8, 0.99])
    def test_euler_transformation(self, x, monkeypatch):
        # c - a - b = -0.94, near -1: F = y^(c-a-b) F(c - a, c - b; c; x),
        # whose own c - a - b is near 1
        orders, near_integer = [], specfun._connection_near_integer

        def spy(*args):
            orders.append(args[6])
            return near_integer(*args)

        monkeypatch.setattr(specfun, "_connection_near_integer", spy)
        assert_within_stated_accuracy(0.3, 0.99, 0.35, x)
        assert orders == [1]


class TestHyp2F1m1:
    """F - 1 for x <= 1/2 as elliott_residual sums it, _series at head = 0:
    without the leading 1, so it keeps its relative accuracy however small
    x is."""

    @pytest.mark.parametrize("x", [0.0, 1e-300, 1e-30, 1e-8, 0.1, 0.5])
    @pytest.mark.parametrize("a,b,c", [(0.5, -0.5, 1.0), (1 / 3, 0.8, 1.1), (2.0, 1.0, 3.0)])
    def test_against_mpmath(self, a, b, c, x):
        with mpmath.workdps(340):  # F - 1 is as small as 1e-300
            exact = mpmath.hyp2f1(a, b, c, x) - 1
        value = specfun._series(a, b, c, x, head=0.0)
        assert abs(value - exact) <= 1e-15 * abs(exact)


# c - a - b lands on, or this close to, an integer m
OFFSETS = (0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4, 1e-2, -1e-2)


def elliptic_triple(ca, a, m, offset):
    """(a, b, c) of K (m = 0) and E (m = 1), and of the two sides of
    Elliott's identity: a = 1/q, c = 1/p* + 1/q with ca = 1/p*, and b = 1/r
    or -1/r* chosen so that c - a - b = m + offset."""
    return a, ca - (m + offset), a + ca


def primitive_shapes(a, m, offset):
    """(a, b') of primitive_sin_cos's B_z(a, b'): a = (k+1)/q and b' = 1 +
    (l-1)/p = m + offset, the c - a - b of the F(a, 1 - b'; 1 + a; z) that
    it summed before."""
    return a, m + offset


def assert_beta_integral_matches_mpmath(a, b, y):
    """specfun._beta_integral(a, b, z, y) at z = 1 - y, the complement
    given, against 40-digit mpmath's B_z(a, b) within 1e-13 relative."""
    with mpmath.workdps(40):
        exact = mpmath.betainc(a, b, 0, 1 - mpmath.mpf(y))
    got = specfun._beta_integral(a, b, 1.0 - y, y)
    assert abs(got - exact) <= 1e-13 * abs(exact), (a, b, y)


def assert_hyp2f1_matches_mpmath(a, b, c, y):
    """hyp2f1 at x = 1 - y, with the complement given and, where 1 - y is
    below 1, without, against 40-digit mpmath within 1e-13 relative."""
    with mpmath.workdps(40):
        exact = mpmath.hyp2f1(a, b, c, 1 - mpmath.mpf(y))
    got = specfun.hyp2f1(a, b, c, 1.0 - y, comp=y)
    assert abs(got - exact) <= 1e-13 * abs(exact), (a, b, c, y)
    x = 1.0 - y
    if x < 1.0:
        with mpmath.workdps(40):
            exact = mpmath.hyp2f1(a, b, c, x)
        got = specfun.hyp2f1(a, b, c, x)
        assert abs(got - exact) <= 1e-13 * abs(exact), (a, b, c, x)


YS = (1e-15, 1e-12, 1e-8, 1e-4, 0.01, 0.2, 0.3, 0.49, 0.5, 0.7)


class TestHyp2F1AgainstMpmath:
    """The parameter families integrals builds, up to 1 - x = 1e-15 and with
    c - a - b at and near the integers m = 0, 1, 2 (the logarithmic cases):
    hyp2f1 for K, E and Elliott's identity, and for the primitives, which no
    longer reach it, their incomplete beta integral at the same points."""

    @pytest.mark.parametrize("m", [-1, -2, -3])
    @pytest.mark.parametrize("e", [0.0, 1e-12, -1e-8, 1e-4, -0.05, 0.09])
    def test_euler_transformation_branch(self, m, e, monkeypatch):
        # c - a - b near a negative integer m: Euler's transformation turns
        # it into the logarithmic connection formula at -m.  In the box c -
        # a - b = (c - a) - b > -1, so only m = -1 with e > 0 lies inside (b
        # near 1, c - a = e / 2); every other (m, e) raises DomainError, here
        # at the a = 0.8, b = 1.45 these points once had
        if m + e <= -1.0:
            with pytest.raises(DomainError):
                specfun.hyp2f1(0.8, 1.45, 0.8 + 1.45 + m + e, 0.6)
            return
        orders = []
        near_integer = specfun._connection_near_integer

        def spy(*args):
            orders.append(args[6])
            return near_integer(*args)

        monkeypatch.setattr(specfun, "_connection_near_integer", spy)
        a, b = 0.8, 1.0 - e / 2.0
        for y in (0.4, 0.1, 0.01, 1e-6):
            assert_hyp2f1_matches_mpmath(a, b, a + e / 2.0, y)
        assert orders and set(orders) == {-m}

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("m", [0, 1])
    def test_elliptic_grid(self, m, offset):
        a, b, c = elliptic_triple(0.6, 1.0 / 3.0, m, offset)
        for y in YS:
            assert_hyp2f1_matches_mpmath(a, b, c, y)

    # l > 1 - p makes c - a - b positive
    @pytest.mark.parametrize(
        "m,offset", [(m, d) for m in (0, 1, 2) for d in OFFSETS if m + d > 0])
    def test_primitive_grid(self, m, offset):
        a, b = primitive_shapes(0.75, m, offset)
        for y in YS:
            assert_beta_integral_matches_mpmath(a, b, y)

    @given(
        ca=st.floats(0.01, 0.99),
        a=st.floats(0.01, 0.99),
        m=st.sampled_from((0, 1)),
        offset=st.sampled_from(OFFSETS) | st.floats(-0.5, 0.5),
        log_y=st.floats(-15.0, 0.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_elliptic_family(self, ca, a, m, offset, log_y):
        a, b, c = elliptic_triple(ca, a, m, offset)
        assume(-0.99 <= b <= 0.99 and b != 0.0)
        assert_hyp2f1_matches_mpmath(a, b, c, 10.0**log_y)

    @given(
        a=st.floats(0.01, 4.0),
        m=st.sampled_from((0, 1, 2)),
        offset=st.sampled_from(OFFSETS) | st.floats(-0.5, 0.5),
        log_y=st.floats(-15.0, 0.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_primitive_family(self, a, m, offset, log_y):
        assume(m + offset > 0)
        assert_beta_integral_matches_mpmath(*primitive_shapes(a, m, offset), 10.0**log_y)

    def test_subnormal_b(self):
        """b' subnormal, where B(a, b') overflows but B_z is finite: the
        family's example at z = 0, which read NaN, and two points inside,
        which read inf and NaN."""
        assert specfun._beta_integral(1.0, 2.2250738585e-313, 0.0, 1.0) == 0.0
        for a, b, y in ((1.0, 2.2e-313, 0.9), (2.0, 1e-310, 0.7)):
            assert_beta_integral_matches_mpmath(a, b, y)


def _unit_ratio_points():
    """e for the e-only Gamma ratios: 0, signed powers of ten down to 1e-15,
    the ends +-HYP2F1_REG_EPS and seeded uniform points in between."""
    eps = specfun.HYP2F1_REG_EPS
    points = [0.0, eps, -eps] + [s * 10.0**-j for j in (1, 2, 4, 8, 12, 15) for s in (1, -1)]
    return points + list(np.random.default_rng(21).uniform(-eps, eps, 40))


class TestUnitGammaRatios:
    """R(e) = (1 / Gamma(1 + e) - 1) / e and the two ratios of the
    logarithmic connection formula that depend on e alone, g1 = (1 /
    Gamma(1 - e) - 1) / e and q1 = (m! / Gamma(m + 1 + e) - 1) / e, against
    50-digit mpmath for |e| <= HYP2F1_REG_EPS, relative to max(1, |value|).
    The scans read 0.52, 0.49 and 2.45 eps."""

    @staticmethod
    def exact(m, e):
        """(R(e), g1, q1) at 50 digits; at e = 0 their limits gamma, -gamma
        and -psi(m + 1)."""
        with mpmath.workdps(50):
            if e == 0.0:
                return mpmath.euler, -mpmath.euler, -mpmath.digamma(m + 1)
            e = mpmath.mpf(e)
            return ((mpmath.rgamma(1 + e) - 1) / e, (mpmath.rgamma(1 - e) - 1) / e,
                    (mpmath.factorial(m) * mpmath.rgamma(m + 1 + e) - 1) / e)

    @staticmethod
    def err(got, exact):
        return float(abs(got - exact) / max(1, abs(exact))) / 2.0**-52

    def test_rgamma_polynomial(self):
        worst = max(self.err(specfun._rgamma_m1(e), self.exact(0, e)[0])
                    for e in _unit_ratio_points())
        assert worst <= 1.0

    @pytest.mark.parametrize("m", range(6))
    def test_ratios(self, m):
        for e in _unit_ratio_points():
            g1, q1 = specfun._unit_gamma_ratios(m, e)
            _, g1_exact, q1_exact = self.exact(m, e)
            assert self.err(g1, g1_exact) <= 1.0, (m, e)
            assert self.err(q1, q1_exact) <= 4.0, (m, e)

    @pytest.mark.parametrize("a,b,c,x", [
        (0.5, 0.5, 1.0, 0.9),  # K at p = q = r = 2: m = 0, e = 0
        (1 / 3, -0.25, 1.0833333333333333 + 1e-4, 0.99),  # m = 1
        (0.75, -1.0 - 1e-8, 1.75, 0.7),  # m = 2
        (0.8, 1.45, 0.8 + 1.45 - 1.0 + 1e-12, 0.9),  # m = -1, Euler's transformation
    ])
    def test_two_lgamma_diff_calls(self, a, b, c, x, monkeypatch):
        # only qa and qb depend on a and b; the e-only ratios take no
        # ln Gamma difference.  The formula is called with the arguments
        # hyp2f1 gives it, after Euler's transformation where m < 0, so the
        # last two points, outside hyp2f1's box, still reach it
        calls = []
        lgamma_diff = specfun._lgamma_diff

        def spy(z, e):
            calls.append((z, e))
            return lgamma_diff(z, e)

        monkeypatch.setattr(specfun, "_lgamma_diff", spy)
        s = math.fsum((c, -a, -b))
        m = round(s)
        args = (a, b, c, c - a, c - b) if m >= 0 else (c - a, c - b, c, a, b)
        specfun._connection_near_integer(*args, 1.0 - x, abs(m), (s - m) if m >= 0 else m - s)
        assert len(calls) == 2


# pairs of (a, b, c) whose series in x converge at very different rates:
# the first is certified after a few terms, the second only after dozens
PAIR_TRIPLES = [
    ((0.1, 0.2, 5.0), (2.5, 3.5, 0.7)),
    ((1 / 3, 0.8, 1.1), (0.5, -0.5, 1.0)),
    ((2.0, 1.0, 3.0), (1 / 3, -0.6, 0.9)),
    ((-2.5, 1.5, 0.3), (0.25, 0.75, 1.25)),
]


class TestSeriesPair:
    """_series, the one loop of every power series of F, on the pairs that
    the connection formula and elliott_residual sum one after the other:
    under the gates of TestHyp2F1AgainstMpmath (1e-13, with the leading 1)
    and TestHyp2F1m1 (1e-15, without it)."""

    @pytest.mark.parametrize("first,second", PAIR_TRIPLES + [p[::-1] for p in PAIR_TRIPLES])
    @pytest.mark.parametrize("x", [1e-30, 1e-8, 0.1, 0.3, 0.5])
    def test_against_mpmath(self, first, second, x):
        for a, b, c in (first, second):
            f = specfun._series(a, b, c, x)
            g = specfun._series(a, b, c, x, head=0.0)
            with mpmath.workdps(60):  # F - 1 is as small as 1e-30
                exact = mpmath.hyp2f1(a, b, c, x)
                exact_m1 = exact - 1
            assert abs(f - exact) <= 1e-13 * abs(exact), (a, b, c, x)
            assert abs(g - exact_m1) <= 1e-15 * abs(exact_m1), (a, b, c, x)


# hyp2f1's two loops, by the function each runs in and the first statement
# of its body: every power series (_series) and the logarithmic sum in y
LOOPS = {"series": (specfun._series, "term *= (a + n)"),
         "log": (specfun._connection_near_integer, "t = yk * ek")}
# the most terms each loop took in a scan of 80 000 box points, the x = 1/2
# face and Elliott's small side before its count was proved
SCANNED_MAX = {"series": 54, "log": 54}


def stated_terms(fn):
    """The term count N that fn's docstring proves for the loop."""
    return int(re.search(r"stops\s+after\s+at\s+most\s+(\d+)\s+terms", fn.__doc__).group(1))


def loop_line(fn, statement):
    """The line number of the first line of fn holding statement."""
    lines, start = inspect.getsourcelines(fn)
    return start + next(i for i, line in enumerate(lines) if statement in line)


@contextlib.contextmanager
def counted_terms():
    """A spy on hyp2f1's loops: while it is active, counts[name] gets one
    entry a run of loop name, the number of terms it summed (the times its
    body's first statement ran), by a line tracer on the two functions."""
    where = {fn.__code__: (name, loop_line(fn, statement))
             for name, (fn, statement) in LOOPS.items()}
    counts = {name: [] for name in LOOPS}

    def tracer(frame, event, arg):
        if frame.f_code not in where:
            return None
        name, line = where[frame.f_code]
        runs = counts[name]
        runs.append(0)

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == line:
                runs[-1] += 1
            return local
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield counts
    finally:
        sys.settrace(previous)


def face_points():
    """(a, b, c, x) on the faces of hyp2f1's box: a and c - a within 1e-16
    .. 0.9 of 1, b near +-1, and c - a - b near -1, 0, 1 and 2 and on both
    sides of each +-HYP2F1_REG_EPS around them; x = 1/2, y = 1 - x just
    below 1/2, and one point inside each branch."""
    near_one = (1e-16, 1e-8, 1e-4, 1e-2, 0.3, 0.9)
    eps = specfun.HYP2F1_REG_EPS
    excess = [m + off + d for m in (-1.0, 0.0, 1.0, 2.0)
              for off, ds in ((0.0, (-1e-9, -1e-15, 0.0, 1e-15, 1e-9)),
                              (-eps, (-1e-3, -1e-12, 1e-12, 1e-3)),
                              (eps, (-1e-3, -1e-12, 1e-12, 1e-3)))
              for d in ds]
    xs = (0.5, math.nextafter(0.5, 1.0), 0.3, 0.7)
    for da in near_one:
        for dd in near_one:
            a, d = 1.0 - da, 1.0 - dd
            bs = [d - s for s in excess] + [sign * (1.0 - db) for sign in (1.0, -1.0)
                                            for db in near_one]
            for b in bs:
                if -1.0 < b < 1.0:
                    for x in xs:
                        yield a, b, a + d, x


class TestTermCounts:
    """Each hyp2f1 loop stops within the term count N its docstring proves
    (_series, _connection_near_integer), counted by a spy on each face of
    the box, on Elliott's small side and on box_points: no budget is
    needed."""

    def assert_within_stated(self, counts):
        for name, (fn, _) in LOOPS.items():
            assert counts[name], name  # the loop ran
            assert max(counts[name]) <= stated_terms(fn), name

    def test_stated_counts_cover_the_scans(self):
        for name, (fn, _) in LOOPS.items():
            assert stated_terms(fn) >= SCANNED_MAX[name], name

    def test_faces(self):
        with counted_terms() as counts:
            for a, b, c, x in face_points():
                specfun.hyp2f1(a, b, c, x)
        self.assert_within_stated(counts)
        # the faces reach the slow corners, within a few terms of N
        assert min(max(runs) for runs in counts.values()) >= 50

    def test_elliott_small_side(self):
        exponents = (1.0 + 1e-9, 1.001, 1.5, 2.0, 5.0, 1e3, 1e8)
        with counted_terms() as counts:
            for p in exponents:
                for q in (v for v in exponents if v >= p):
                    for r in exponents:
                        for kq in (math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)):
                            integrals.elliott_residual(p, q, r, kq ** (1.0 / q))
        self.assert_within_stated(counts)
        assert max(counts["series"]) >= 50

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_box_points(self, seed):
        points = box_points(5_000, seed)
        with counted_terms() as counts:
            for a, b, c, x, comp in points:
                specfun.hyp2f1(a, b, c, x, comp=comp)
        self.assert_within_stated(counts)

    def test_derivations_reach_the_stated_counts(self):
        """The bounds of the two docstrings, evaluated: the first term count
        at which each passes the loop's test is the stated N."""
        tol = specfun.HYP2F1_TAIL_TOL

        def series_passes(m, scale, aa, ab, ac, x=0.5):
            # term m <= scale x^m (mag >= 1), or <= t_1 x^(m - 1) with mag >= t_1
            if m < ac + 2:
                return False
            rho = (m + aa) * (m + ab) / ((m - ac) * (m + 1.0)) * x
            return rho < 1.0 and scale * x**m * rho / (1.0 - rho) <= tol

        def log_passes(k, m, y=0.5, ae=specfun.HYP2F1_REG_EPS):
            # k >= k1 = 2 - m; |a + m - 1|, |b + m - 1| <= 2, |a + b + m - 2| <= 3
            K, C, z = k + 1.0, k + 1.0 + m, k + m - 1.2
            rm = (1.0 + 2.1 / K) ** 2 / (1.0 - ae / K)
            rho = y * rm
            if k < 2 - m or rho >= 1.0:
                return False
            g, ly, dk = rho / (1.0 - rho), -math.log(y), 2.0 * (1.0 / z + 1.0 / z**2)
            delta = (3.0 * K * K + 8.0 * K + 4.0 * m + C * ae * (K + 4.0 + ae)) / (
                (K - ae) ** 2 * K * K)
            shift = (math.exp(dk) / y) ** ae
            bound = y ** (k - 2 + m) * shift * (
                (1.0 + dk / ly) * g + delta * shift * g / (rm * (1.0 - rho) * ly))
            return bound <= tol

        def first(passes):
            return next(n for n in range(1, 200) if passes(n))

        # hyp2f1's, _connection's and Elliott's (t_1 x^(m - 1) = 2 t_1 x^m)
        series_counts = tuple(first(lambda m: series_passes(m, *args)) for args in (
            (1.0, 1.0, 1.0, 2.0), (10.0, 1.0, 3.0, 3.0), (2.0, 1.0, 1.0, 2.0)))
        assert series_counts == (54, 57, 55)
        assert max(series_counts) == stated_terms(specfun._series)
        log_counts = tuple(first(lambda k: log_passes(k, m)) + 1 for m in (0, 1, 2))
        assert log_counts == (57, 56, 55)
        assert max(log_counts) == stated_terms(specfun._connection_near_integer)


REPO = pathlib.Path(__file__).parent.parent
GUARDED = ("gtf", "integrals", "bvp", "quadrature", "specfun", "errors", "verify")
# public functions allowed without a caller in another module, with the reason
ALLOWED_UNCALLED = set()


def public_functions(tree):
    """The public functions that a module's ast defines at top level."""
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def names_taken_from(tree, module):
    """The names that an ast takes from module, as module.name or by `from
    .module import name` (or `from gentrig.module import name`)."""
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == module):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            used.update(alias.name for alias in node.names)
    return used


def uncalled_public_functions(package, demos, workloads):
    """module.name for every public function of the GUARDED modules of
    package that has no caller in another module.  Callers are the
    package's other modules (cli included, __init__'s re-exports not) and
    the demos/*.py scripts, both by ast, and the benchmark workloads file by
    name: every identifier and string there counts, since it binds the
    integrals functions by string."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py")) if path.stem != "__init__"}
    demo_trees = [ast.parse(path.read_text(), filename=str(path))
                  for path in sorted(demos.glob("*.py"))]
    bench = ast.parse(workloads.read_text(), filename=str(workloads))
    by_name = set()
    for node in ast.walk(bench):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            by_name.add(node.value)
        elif isinstance(node, ast.Attribute):
            by_name.add(node.attr)
        elif isinstance(node, ast.Name):
            by_name.add(node.id)
    uncalled = set()
    for module in GUARDED:
        used = set(by_name)
        for tree in [t for stem, t in trees.items() if stem != module] + demo_trees:
            used |= names_taken_from(tree, module)
        uncalled |= {f"{module}.{name}" for name in public_functions(trees[module]) - used}
    return uncalled


# defaulted parameters allowed without a non-test caller that passes them,
# "module.function(parameter)" to the reason
ALLOWED_UNPASSED = {}


def defaulted_parameters(tree):
    """{name: (positional parameters, defaulted parameters)} for every public
    function that a module's ast defines at top level and that has a
    parameter with a default."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            if defaulted:
                found[node.name] = (positional, defaulted)
    return found


def unpassed_parameters(package, demos, workloads):
    """module.function(parameter) for every defaulted parameter of a public
    function of the GUARDED modules and cli (whose main takes argv) that no
    call in a non-test caller passes, by keyword or by position.  Callers
    are the package's modules, the defining one included, the demos/*.py
    scripts and the benchmark workloads file, all by ast; a call counts by
    the function's name, bare or as an attribute (self.cli.main(argv)), so
    a name that two modules define counts a call for both, and positions
    after a *args count for none."""
    sources = [path for path in sorted(package.glob("*.py")) if path.stem != "__init__"]
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sources + sorted(demos.glob("*.py")) + [workloads]]
    defined = {}  # name -> [(module, positional, defaulted)]
    for path, tree in zip(sources, trees):
        if path.stem in GUARDED + ("cli",):
            for name, (positional, defaulted) in defaulted_parameters(tree).items():
                defined.setdefault(name, []).append((path.stem, positional, defaulted))
    passed = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        keywords = {kw.arg for kw in node.keywords if kw.arg}
        count = next((i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)),
                     len(node.args))
        for module, positional, _ in defined.get(name, ()):
            passed |= {(module, name, param) for param in keywords | set(positional[:count])}
    return {f"{module}.{name}({param})" for name, entries in defined.items()
            for module, _, defaulted in entries for param in defaulted
            if (module, name, param) not in passed}


class TestPublicSurface:
    """Every library module exports only what is called from outside it: a
    public function with no caller in another module, a demo or the
    benchmark workloads is a wrapper to delete (classes are not scanned)."""

    PACKAGE = pathlib.Path(specfun.__file__).parent

    def test_every_public_function_has_a_caller(self):
        uncalled = uncalled_public_functions(
            self.PACKAGE, REPO / "demos", REPO / "benchmarks" / "workloads.py")
        assert sorted(uncalled) == sorted(ALLOWED_UNCALLED)

    def test_scan_flags_a_planted_function(self, tmp_path):
        """On a copy of the package with one public gtf function that
        nothing calls, the scan flags that function and only it."""
        copy = tmp_path / "gentrig"
        shutil.copytree(self.PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        gtf_py = copy / "gtf.py"
        gtf_py.write_text(gtf_py.read_text() + "\n\ndef planted_uncalled(x):\n    return x\n")
        uncalled = uncalled_public_functions(
            copy, REPO / "demos", REPO / "benchmarks" / "workloads.py")
        assert sorted(uncalled - ALLOWED_UNCALLED) == ["gtf.planted_uncalled"]

    def test_every_defaulted_parameter_is_passed(self):
        unpassed = unpassed_parameters(
            self.PACKAGE, REPO / "demos", REPO / "benchmarks" / "workloads.py")
        assert sorted(unpassed) == sorted(ALLOWED_UNPASSED)

    def test_scan_flags_a_planted_keyword(self, tmp_path):
        """On a copy of the package where beta_integrals takes one more
        keyword that no caller passes, the scan flags that keyword and only
        it."""
        copy = tmp_path / "gentrig"
        shutil.copytree(self.PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        quadrature_py = copy / "quadrature.py"
        source = quadrature_py.read_text()
        signature = "def beta_integrals(a, b, tol: float = DEFAULT_TOL, upper=None)"
        assert source.count(signature) == 1
        quadrature_py.write_text(source.replace(
            signature, signature[:-1] + ", planted: bool = False)"))
        unpassed = unpassed_parameters(
            copy, REPO / "demos", REPO / "benchmarks" / "workloads.py")
        assert sorted(unpassed - set(ALLOWED_UNPASSED)) == ["quadrature.beta_integrals(planted)"]

    def test_exports_no_convergence_error(self):
        """hyp2f1's loops stop within proved term counts, so no budget error
        exists: every name gentrig exports is defined, and ConvergenceError
        is none of them."""
        import gentrig

        assert "ConvergenceError" not in gentrig.__all__
        assert all(hasattr(gentrig, name) for name in gentrig.__all__)
        with pytest.raises(AttributeError):
            gentrig.ConvergenceError

    def test_readme_names_only_existing_functions(self):
        """Every `name(` in README.md but the solution call `sol(` is a
        public function of a gentrig module."""
        public = set()
        for path in self.PACKAGE.glob("*.py"):
            public |= public_functions(ast.parse(path.read_text(), filename=str(path)))
        named = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)\(", (REPO / "README.md").read_text()))
        named = {name.rpartition(".")[2] for name in named} - {"sol"}
        assert named  # the scan sees the README's calls
        assert sorted(named - public) == []


def modules_that(package, test):
    """The stems of the package's modules with an ast node for which test
    is true."""
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(test(node) for node in ast.walk(tree)):
            found.add(path.stem)
    return found


def imports_scipy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"


def names_inv_fit_min(node):
    return ((isinstance(node, ast.Name) and node.id == "INV_FIT_MIN")
            or (isinstance(node, ast.Attribute) and node.attr == "INV_FIT_MIN")
            or (isinstance(node, ast.alias) and node.name == "INV_FIT_MIN"))


def names_convergence_error(node):
    """A definition, import, raise, use or export (a string in __all__) of
    ConvergenceError."""
    name = "ConvergenceError"
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, (ast.alias, ast.ClassDef)) and node.name == name)
            or (isinstance(node, ast.Constant) and node.value == name))


def cli_breaches(cli_py):
    """What the CLI at cli_py takes from the package that it must not: the
    quadrature module, whose oracle only verify's suites call, and any
    _-prefixed name of another package module, as module._name or by `from
    .module import _name`."""
    modules = {path.stem for path in TestModuleBoundaries.PACKAGE.glob("*.py")}
    breaches = set()
    for node in ast.walk(ast.parse(cli_py.read_text(), filename=str(cli_py))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "gentrig"):
            source = (node.module or "").rpartition(".")[2]
            if source in ("", "gentrig"):  # from . import module
                taken = [(alias.name, None) for alias in node.names]
            else:
                taken = [(source, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            taken = [(alias.name.rpartition(".")[2], None) for alias in node.names
                     if alias.name.startswith("gentrig.")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            taken = [(node.value.id, node.attr)]
        else:
            continue
        for module, name in taken:
            if module == "quadrature":
                breaches.add("quadrature")
            if name and name.startswith("_"):
                breaches.add(f"{module}.{name}")
    return breaches


class TestModuleBoundaries:
    """specfun owns every incomplete-beta evaluation: it alone imports scipy,
    and it alone decides which lane an array takes.  The CLI parses, calls
    the public surface and prints: no oracle, no private name of another
    module."""

    PACKAGE = pathlib.Path(specfun.__file__).parent

    def test_cli_takes_only_public_names(self):
        assert cli_breaches(self.PACKAGE / "cli.py") == set()

    @pytest.mark.parametrize("planted,breach", [
        ("def planted(c, p):\n    return gtf._power(c, p)\n", "gtf._power"),
        ("from .gtf import _power\n", "gtf._power"),
        ("from . import quadrature\n", "quadrature"),
    ])
    def test_scan_flags_a_planted_breach(self, tmp_path, planted, breach):
        """On a copy of cli.py with one planted private use or oracle
        import, the scan flags that one."""
        cli_py = tmp_path / "cli.py"
        cli_py.write_text((self.PACKAGE / "cli.py").read_text() + "\n\n" + planted)
        assert cli_breaches(cli_py) == {breach}

    def test_only_specfun_imports_scipy(self):
        assert modules_that(self.PACKAGE, imports_scipy) == {"specfun"}

    def test_only_specfun_names_inv_fit_min(self):
        assert modules_that(self.PACKAGE, names_inv_fit_min) == {"specfun"}

    def test_no_module_names_convergence_error(self):
        assert modules_that(self.PACKAGE, names_convergence_error) == set()

    @pytest.mark.parametrize("planted", [
        "class ConvergenceError(RuntimeError):\n    pass\n",
        "from .errors import ConvergenceError\n",
        "def planted():\n    raise errors.ConvergenceError('budget spent')\n",
        "__all__ = ['ConvergenceError']\n",
    ])
    def test_scan_flags_a_planted_convergence_error(self, tmp_path, planted):
        """On a copy of the package with ConvergenceError defined, imported,
        raised or exported in one module, the scan flags that module."""
        copy = tmp_path / "gentrig"
        shutil.copytree(self.PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        specfun_py = copy / "specfun.py"
        specfun_py.write_text(specfun_py.read_text() + "\n\n" + planted)
        assert modules_that(copy, names_convergence_error) == {"specfun"}
