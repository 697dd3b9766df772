import ast
import math
import pathlib
import sys
import time
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gentrig import gtf, quadrature, specfun
from gentrig.errors import ConvergenceError, DomainError

NEXT_10 = math.nextafter(10.0, math.inf)  # just past the Gamma quotient's range
# bounds on |error| / max(1, |value|) of the ln Gamma differences in
# TestLgammaDiff, whose scans read 1.12e-15 (shifted, the pole at 0 included)
# and 3.19e-16 (large arguments); other seeds of the first read up to 1.3e-15
LGAMMA_DIFF_TOL = 1.5e-15
STIRLING_DIFF_TOL = 6e-16


class TestPochhammer:
    """The Pochhammer ratio (a)_n / (b)_n."""

    def test_empty_product(self):
        assert specfun.poch_ratio(3.0, 5.0, 0) == 1.0

    def test_pole_of_the_denominator(self):
        # (b)_n = 0 once b + m = 0 for some m < n
        with pytest.raises(DomainError, match="b = -2.0, n = 5"):
            specfun.poch_ratio(1.0, -2.0, 5)
        assert specfun.poch_ratio(1.0, -2.0, 2) == 1.0  # (1)_2 / (-2)_2 = 2 / 2
        assert specfun.poch_ratio(1.0, -2.5, 5) == pytest.approx(
            math.prod((1.0 + m) / (-2.5 + m) for m in range(5)), rel=1e-15)

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
        # exp turns the rounding of its argument L = ln((a)_n / (b)_n) into
        # a relative error of a few eps |L|; past the float range, inf or 0
        for n in (64, 10**4, 10**9):
            with mpmath.workdps(40):
                exact = mpmath.rf(a, n) / mpmath.rf(b, n)
            got = specfun.poch_ratio(a, b, n)
            if exact > sys.float_info.max:
                assert got == math.inf, (a, b, n)
            elif exact < mpmath.mpf(2) ** -1075:  # below half the least subnormal
                assert got == 0.0, (a, b, n)
            else:
                scale = max(1.0, abs(float(mpmath.log(exact))))
                assert abs(got - exact) <= 4 * sys.float_info.epsilon * scale * exact, (a, b, n)

    @pytest.mark.parametrize("a,b", [(0.25, 0.75), (1e-6, 0.5), (0.9, 0.4),
                                     (3.0, 9.99), (1.0, 0.5), (12.0, 150.0)])
    def test_continuous_across_the_switch(self, a, b):
        n = specfun.POCH_SWITCH
        below = specfun.poch_ratio(a, b, n - 1)
        above = specfun.poch_ratio(a, b, n)
        assert above == pytest.approx(below * (a + n - 1) / (b + n - 1), rel=1e-14)

    @pytest.mark.parametrize("a,b,n", [
        (1e-310, 0.5, 100), (5e-324, 1.0, 100), (0.5, 1e-310, 100),
        (1e-310, 2e-310, 100), (2e-310, 1e-310, 64), (1e-320, 1e-10, 1000),
        (1e-10, 1e-310, 100), (0.3, 5e-324, 10**6), (5e-324, 0.3, 10**9)])
    def test_subnormal_parameters(self, a, b, n):
        # the Gamma quotient and the shifted difference read NaN or 0 here
        with mpmath.workdps(50):
            exact = mpmath.rf(a, n) / mpmath.rf(b, n)
        got = specfun.poch_ratio(a, b, n)
        if exact > sys.float_info.max:
            assert got == math.inf, (a, b, n)
        elif exact < mpmath.mpf(2) ** -1075:  # below half the least subnormal
            assert got == 0.0, (a, b, n)
        else:  # within 1e-14, or a least subnormal where the ratio is one
            assert abs(got - exact) <= 1e-14 * exact + 2.0**-1074, (a, b, n)

    def test_quotient_range_takes_no_shifted_difference(self, monkeypatch):
        # a cost guard without a timer: in the quotient's range the large-n
        # branch must not fall back on the shifted difference
        want = {(a, b, n): specfun.poch_ratio(a, b, n)
                for a, b in ((0.4, 0.9), (1e-6, 10.0), (10.0, 0.3), (1.0, 0.75))
                for n in (64, 10**4, 10**9)}

        def shifted(z, e):
            raise AssertionError("poch_ratio took the shifted difference")

        monkeypatch.setattr(specfun, "_lgamma_diff", shifted)
        for (a, b, n), value in want.items():
            assert specfun.poch_ratio(a, b, n) == value


class TestIntegerParameters:
    """A Python int, an np.int64 and a float of the same value give the same
    bits at every public entry; scipy's Cython gamma and rgamma have no
    integer signature, which raised TypeError before."""

    CALLS = [
        (specfun.poch_ratio, (1, 2, 100)), (specfun.poch_ratio, (3, 5, 10)),
        (specfun.hyp2f1, (1, 1, 2, 0.9)), (specfun.hyp2f1, (1, 1, 3, 1)),
        (specfun.hyp2f1, (1, 1, 2, 0)), (specfun.beta, (3, 20)),  # the Stirling form
        (specfun.beta, (3, 7)),
    ]

    @pytest.mark.parametrize("kind", [int, np.int64])
    @pytest.mark.parametrize("fn,args", CALLS)
    def test_scalar(self, fn, args, kind):
        want = fn(*(float(v) for v in args))
        got = fn(*(kind(v) if isinstance(v, int) else v for v in args))
        assert type(got) is float and same_bits(got, want), (fn.__name__, args)

    def test_comp(self):
        assert same_bits(specfun.hyp2f1(0.5, 0.5, 2.0, 1.0, comp=0),
                         specfun.hyp2f1(0.5, 0.5, 2.0, 1.0, comp=0.0))


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
            exact = _lgamma_diff_exact(z, e)
            err = abs(specfun._lgamma_diff(z, e) - exact) / max(1, abs(exact))
            worst = max(worst, float(err))
        assert worst <= LGAMMA_DIFF_TOL

    @pytest.mark.parametrize("z", [1e-3, 0.06698553225821334, 0.5, 3.0, 9.9])
    @pytest.mark.parametrize("gap", [1e-5, 1e-3, 0.1])
    def test_near_the_pole_at_zero(self, z, gap):
        # z + e -> 0: the first shift must not take log1p of a rounded e / z
        e = -z * (1.0 - gap)
        exact = _lgamma_diff_exact(z, e)
        err = abs(specfun._lgamma_diff(z, e) - exact) / max(1, abs(exact))
        assert err <= LGAMMA_DIFF_TOL, (z, e)

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


def inverse_t(a, b, y):
    """t with I_t(a, b) = y at an array y of at least INV_FIT_MIN points,
    from the fitted lane of gtf's inversions, at a shape whose fits are
    certified."""
    assert y.size >= specfun.INV_FIT_MIN and specfun._inverse_setup(a, b)[2] is not None
    return specfun._inverse_tails(a, b, *split_points(a, b), y, 1.0 - y, (True, False))[0]


def series(a, b, t):
    """_inc_beta's series at an array t of any size: t tiled to
    INV_FIT_MIN points, where the size rule picks the series, and cut back
    (every point gets the same bits wherever it sits; TestBlockSplit)."""
    n = max(t.size, specfun.INV_FIT_MIN)
    return specfun._inc_beta(a, b, np.resize(t, n))[:t.size].reshape(t.shape)


class TestIncBeta:
    """The regularized incomplete beta function I_x(a, b): scipy's betainc
    as gtf's float lane and small arrays call it, and gtf's kernels for
    shapes a, b <= 1, the sum specfun._inc_beta and the inverse
    specfun._inverse_tails in their fitted lanes."""

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
        t, s = specfun._inverse_tails(0.7, 0.3, lo, hi, y, 1.0 - y, (True, True))
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
        got = specfun._inc_beta(0.7, 0.3, ts)
        assert got.shape == (6, 101) and np.all(np.diff(got) > 0.0)
        assert np.all(got[:, 0] == 0.0) and np.all(got[:, -1] == 1.0)
        assert got.base is None  # owns its memory
        # below INV_FIT_MIN points, scipy's ufunc: the float lane's bits
        small = specfun._inc_beta(0.7, 0.3, ts[0])
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
            v = self.assert_position_free(lambda u: specfun._inc_beta(a, b, u), t, rng)
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
        before = inverse_t(a, b, y), specfun._inc_beta(a, b, y)
        size = max(cache.cache_info().maxsize for cache in self.CACHES)
        for s in np.linspace(0.1, 0.9, size).tolist():
            specfun._inverse_setup(s, 0.7)
        misses = [cache.cache_info().misses for cache in self.CACHES]
        after = inverse_t(a, b, y), specfun._inc_beta(a, b, y)
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
        whole = specfun._inverse_tails(a, b, lo, hi, y, 1.0 - y, (True, True))
        parts = [specfun._inverse_tails(a, b, lo, hi, v, 1.0 - v, (True, True))
                 for v in np.split(y, range(100, y.size, 100))]
        for j in (0, 1):
            assert same_bits(whole[j], np.concatenate([v[j] for v in parts]))


EPS = np.finfo(float).eps


class TestForwardPolynomial:
    """For shapes a, b <= 1 _inc_beta sums a polynomial of about 20 terms
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


class TestHyp2F1:
    def test_at_zero(self):
        assert specfun.hyp2f1(0.3, 1.7, 2.4, 0.0) == 1.0

    def test_arcsin_series(self):
        z = 0.6
        assert specfun.hyp2f1(0.5, 0.5, 1.5, z * z) == pytest.approx(
            math.asin(z) / z, abs=1e-13
        )

    def test_gauss_summation(self):
        expected = math.exp(math.lgamma(1.0) + math.lgamma(0.5) - 2.0 * math.lgamma(0.75))
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

    def test_near_one_with_tiny_excess(self):
        # x = 1 - 1e-14 and c - a - b = 0.001: once beyond the series' reach
        a, b, c, x = 0.5, 0.5, 1.001, 1.0 - 1e-14
        with mpmath.workdps(40):
            exact = mpmath.hyp2f1(a, b, c, x)
        assert abs(specfun.hyp2f1(a, b, c, x) - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("a,b", [(6.0, 0.8), (10.0, 0.5), (3.0, 0.8)])
    @pytest.mark.parametrize("x", [0.55, 0.7, 0.9])
    def test_large_parameters_past_one_half(self, a, b, x):
        # the two parts of the connection formula cancel by up to 3e3 here
        # near x = 1/2; there the series in x takes over
        with mpmath.workdps(40):
            exact = mpmath.hyp2f1(a, b, 1 + a, x)
        assert abs(specfun.hyp2f1(a, b, 1.0 + a, x) - exact) <= 1e-13 * exact

    def test_convergence_failure_is_reported(self):
        # parameters far beyond any the package builds: the terms grow for
        # about 700 steps before they decay, past the term budget
        with pytest.raises(ConvergenceError) as info:
            specfun.hyp2f1(300.5, 300.5, 1.5, 0.49)
        err = info.value
        assert err.layer == "specfun.hyp2f1"
        assert err.terms == err.budget == specfun.HYP2F1_MAX_TERMS
        assert f"budget of {specfun.HYP2F1_MAX_TERMS} terms" in str(err)

    def test_overflowing_coefficients_are_reported(self):
        # Gamma factors of the connection formula overflow: an error, not NaN
        with pytest.raises(ConvergenceError):
            specfun.hyp2f1(200.5, -1.5, 0.5, 0.9)

    @pytest.mark.parametrize("comp", [-1e-3, 1.5, math.nan])
    def test_complement_outside_unit_interval(self, comp):
        with pytest.raises(DomainError):
            specfun.hyp2f1(0.5, 0.5, 1.5, 0.9, comp=comp)

    @pytest.mark.parametrize("comp", [0.5, 0.1 + 2e-9, 0.1 - 2e-9])
    def test_complement_disagreeing_with_x(self, comp):
        """A comp more than 1e-9 from 1 - x is rejected; (1, 1, 2, 0.9) with
        comp = 0.5 spent the 300-term budget before the check."""
        with pytest.raises(DomainError, match="within 1e-9 of 1 - x"):
            specfun.hyp2f1(1, 1, 2, 0.9, comp=comp)

    def test_complement_within_its_bound(self):
        # F(1, 1; 2; x) = -ln(1 - x) / x, whose slope in 1 - x is about 11
        for comp in (0.1 - 5e-10, 0.1 + 5e-10):
            got = specfun.hyp2f1(1, 1, 2, 0.9, comp=comp)
            assert got == pytest.approx(-math.log(0.1) / 0.9, rel=1e-8)

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


def primitive_triple(a, m, offset):
    """(a, b, c) of primitive_sin_cos: a = (k+1)/q, b = (1-l)/p, c = 1 + a,
    so c - a - b = 1 - b = m + offset."""
    return a, 1.0 - (m + offset), 1.0 + a


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
    c - a - b at and near the integers m = 0, 1, 2 (the logarithmic cases)."""

    @pytest.mark.parametrize("m", [-1, -2, -3])
    @pytest.mark.parametrize("e", [0.0, 1e-12, -1e-8, 1e-4, -0.05, 0.09])
    def test_euler_transformation_branch(self, m, e, monkeypatch):
        # c - a - b near a negative integer m: Euler's transformation turns
        # it into the logarithmic connection formula at -m
        orders = []
        near_integer = specfun._connection_near_integer

        def spy(*args):
            orders.append(args[6])
            return near_integer(*args)

        monkeypatch.setattr(specfun, "_connection_near_integer", spy)
        a, b = 0.8, 1.45
        for y in (0.4, 0.1, 0.01, 1e-6):
            assert_hyp2f1_matches_mpmath(a, b, a + b + m + e, y)
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
        a, b, c = primitive_triple(0.75, m, offset)
        for y in YS:
            assert_hyp2f1_matches_mpmath(a, b, c, y)

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
        assert_hyp2f1_matches_mpmath(*primitive_triple(a, m, offset), 10.0**log_y)


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
        # ln Gamma difference
        calls = []
        lgamma_diff = specfun._lgamma_diff

        def spy(z, e):
            calls.append((z, e))
            return lgamma_diff(z, e)

        monkeypatch.setattr(specfun, "_lgamma_diff", spy)
        near_integer = specfun._connection_near_integer
        runs = []

        def count(*args):
            runs.append(len(calls))
            out = near_integer(*args)
            runs[-1] = len(calls) - runs[-1]
            return out

        monkeypatch.setattr(specfun, "_connection_near_integer", count)
        specfun.hyp2f1(a, b, c, x)
        assert runs == [2]


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

    @pytest.mark.parametrize("leading_one", [True, False])
    def test_budget_failure_names_its_series(self, leading_one):
        with pytest.raises(ConvergenceError) as info:
            specfun._series(300.5, 300.5, 1.5, 0.49, head=1.0 if leading_one else 0.0)
        assert "a=300.5, b=300.5, c=1.5" in str(info.value)
        assert info.value.terms == info.value.budget == specfun.HYP2F1_MAX_TERMS


def referenced_names(package, module):
    """The public functions that package/module.py defines at top level,
    and the names that the package's other modules take from it, as
    module.name or by `from .module import name`, found with ast."""
    defined, used = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.stem == module:
            defined = {node.name for node in tree.body
                       if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == module):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
                used.update(alias.name for alias in node.names)
    return defined, used


class TestPublicSurface:
    """specfun exports only what the rest of the package calls: a public
    function with no caller in another module is a wrapper to delete."""

    def test_every_public_function_has_a_caller(self):
        package = pathlib.Path(specfun.__file__).parent
        defined, used = referenced_names(package, "specfun")
        assert {"beta", "poch_ratio", "hyp2f1"} <= defined  # the scan sees them
        assert sorted(defined - used) == []


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


class TestModuleBoundaries:
    """specfun owns every incomplete-beta evaluation: it alone imports scipy,
    and it alone decides which lane an array takes."""

    PACKAGE = pathlib.Path(specfun.__file__).parent

    def test_only_specfun_imports_scipy(self):
        assert modules_that(self.PACKAGE, imports_scipy) == {"specfun"}

    def test_only_specfun_names_inv_fit_min(self):
        assert modules_that(self.PACKAGE, names_inv_fit_min) == {"specfun"}
