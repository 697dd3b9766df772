import ast
import math

import mpmath as mp
import numpy as np
import pytest

from gentrig import bvp, quadrature, verify
from gentrig.errors import DomainError, ToleranceError

EPS = np.finfo(float).eps


def integrate_over(f, a, b, tol):
    """quadrature.integrate of the lone integrand f over [a, b], as a batch
    of one row mapped onto [0, 1]: (b - a) f(a + (b - a) u), whose integral
    and stopping test are those of f on [a, b]."""
    width = b - a
    return quadrature.integrate(lambda u, rows: width * f(a + width * u)[None], 1, tol)


def test_constant_exact():
    res = quadrature.integrate(lambda x, rows: np.ones((len(rows), len(x))), 1, tol=1e-14)
    assert abs(res.value[0] - 1.0) <= 1e-15
    assert res.err_estimate[0] <= 1e-14


def test_arcsin_integral():
    # int_0^1 (1 - t^2)^(-1/2) = B(1/2, 1/2)/2 = pi/2; as a beta row, with
    # its endpoint singularity substituted away, it reaches 1e-12
    res = quadrature.beta_integrals([0.5], [0.5], tol=1e-12)
    assert abs(res.value[0] / 2.0 - math.pi / 2) <= 1e-12


def test_arcsin_integral_plain_mode():
    res = integrate_over(lambda t: 1.0 / np.sqrt(1.0 - t * t), 0.0, 1.0, tol=1e-7)
    assert abs(res.value[0] - math.pi / 2) <= 1e-7


def test_lemniscate_integral():
    # int_0^1 (1 - t^4)^(-1/2) = B(1/4, 1/2)/4 = varpi/2 = 1.31102877714605...
    res = quadrature.beta_integrals([0.25], [0.5], tol=1e-12)
    assert abs(res.value[0] / 4.0 - 1.3110287771460598) <= 1e-12


def test_sin_squared():
    res = integrate_over(lambda t: np.sin(t) ** 2, 0.0, math.pi / 2, tol=1e-12)
    assert abs(res.value[0] - math.pi / 4) <= 1e-12


def test_additivity():
    # int_0^2 f = int_0^0.7 f + int_0.7^2 f, the three mapped onto [0, 1]
    # as the rows of one batch, within their own estimates
    f = lambda t: np.exp(-t) * np.cos(3 * t)
    parts = [(0.0, 2.0), (0.0, 0.7), (0.7, 2.0)]

    def g(u, rows):
        return np.array([(b - a) * f(a + (b - a) * u) for a, b in (parts[i] for i in rows)])

    res = quadrature.integrate(g, 3, tol=1e-12)
    whole, left, right = res.value
    assert abs(left + right - whole) <= res.err_estimate.sum()


def test_refinement_stability():
    # value changes by less than 2 * err_estimate under one extra refinement
    f = lambda t: 1.0 / (1.0 + t * t)
    loose = integrate_over(f, 0.0, 1.0, tol=1e-6)
    tight = integrate_over(f, 0.0, 1.0, tol=1e-12)
    assert abs(loose.value[0] - tight.value[0]) <= 2.0 * loose.err_estimate[0] + 1e-15


def test_node_cache_repeats_results():
    f = lambda t: np.sqrt(1.0 - t * t)
    first = integrate_over(f, -1.0, 1.0, tol=1e-12)
    for _ in range(2):
        again = integrate_over(f, -1.0, 1.0, tol=1e-12)
        assert again.value.tobytes() == first.value.tobytes()
        assert again.err_estimate.tobytes() == first.err_estimate.tobytes()
        assert again.evaluations == first.evaluations


def test_node_cache_is_read_only():
    for level in (0, 1, 5):
        x, w, n = quadrature._level_nodes(level)
        assert quadrature._level_nodes(level)[0] is x
        fresh_x, fresh_w, fresh_n = quadrature._level_nodes.__wrapped__(level)
        assert np.array_equal(x, fresh_x) and np.array_equal(w, fresh_w) and n == fresh_n
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0


def test_node_table():
    """The facts of the node table that the verify batches' bits and
    evaluation counts rest on, read from _level_nodes itself."""
    upper = dropped = 0  # the table's upper nodes, and those that round onto 1
    least = math.inf
    for level in range(quadrature._MAX_LEVEL + 1):
        x, w, n = quadrature._level_nodes(level)
        assert len(x) == len(w)
        assert not x.flags.writeable and not w.flags.writeable
        centre = level == 0
        if centre:  # t = 0 heads level 0, at 1/2
            assert x[0] == 0.5 and w[0] == 0.5 * math.pi
        # the upper nodes that are kept, then every lower node, ascending in t
        # (upper nodes next to 1 may round onto one double)
        assert np.all(np.diff(x[centre:n]) >= 0.0) and np.all(np.diff(x[n:]) < 0.0)
        assert 0.5 < x[centre:n].min() and x[:n].max() < 1.0
        # every lower node is kept: as many as the table has upper nodes
        table, kept = len(x) - n, n - centre
        if centre:
            assert (table, table - kept) == (6, 3)
        upper += table
        dropped += table - kept
        least = min(least, x[n:].min())
    # no lower node's distance from 0 underflows: the least is level 0's
    # last, at t = 6
    assert least == quadrature._level_nodes(0)[0][-1]
    assert 6.1e-276 <= least < 6.2e-276
    assert (upper, dropped) == (24_576, 11_581)


def test_domain_errors():
    with pytest.raises(DomainError):
        quadrature.integrate(lambda x, rows: x[None], 1, tol=0.0)


def test_eval_cap(monkeypatch):
    # four levels, under 100 evaluations, cannot certify tol 1e-13 at an
    # endpoint singularity; the error names that budget
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", 3)
    with pytest.raises(ToleranceError) as err:
        integrate_over(lambda t: 1.0 / np.sqrt(1.0 - t * t), 0.0, 1.0, tol=1e-13)
    exc = err.value
    assert exc.result is not None
    assert exc.budget == 4 and exc.evaluations <= 100
    # the budget is named once: every level ran before the error
    assert "after its budget of 4 levels" in str(exc)
    assert str(exc).count("levels") == 1


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-10])
def test_bad_tolerances_rejected(tol):
    calls = []
    with pytest.raises(DomainError):
        quadrature.integrate(lambda x, rows: calls.append(rows) or x[None], 1, tol=tol)
    assert not calls


@pytest.mark.parametrize("m", [-1, 10**400, 2.5, math.nan], ids=["-1", "10**400", "2.5", "nan"])
def test_bad_row_counts_rejected(m):
    # numpy's ValueError at -1 and 10**400, a TypeError at 2.5 and NaN before
    calls = []
    with pytest.raises(DomainError, match="row count m"):
        quadrature.integrate(lambda x, rows: calls.append(rows) or x[None], m)
    assert not calls


def test_integral_float_row_count():
    def f(x, rows):
        return np.sqrt(x) * (1.0 + rows[:, None])

    got, want = quadrature.integrate(f, 2.0), quadrature.integrate(f, 2)
    assert np.array_equal(got.value, want.value) and got.evaluations == want.evaluations


def test_tolerance_error_is_structured():
    calls = []
    with pytest.raises(ToleranceError) as err:
        integrate_over(_count_calls(lambda t: 1.0 / t, calls), 0.0, 1.0, tol=1e-10)
    exc = err.value
    assert exc.layer == "quadrature" and exc.rows == (0,)
    assert exc.budget == quadrature._MAX_LEVEL + 1
    assert exc.evaluations == exc.result.evaluations > 0
    assert str(exc).startswith("quadrature: ")
    assert "not met in rows [0] of 1 " in str(exc)
    assert f"{exc.evaluations} evaluations" in str(exc)
    # every level ran, on the node table's 49 153 nodes but the 11 581
    # upper ones that round onto 1
    assert len(calls) == quadrature._MAX_LEVEL + 1
    table = sum(len(quadrature._level_nodes(level)[0]) for level in range(len(calls)))
    assert exc.evaluations == sum(calls) == table == 49_153 - 11_581 == 37_572


def _batch(funcs):
    """One batched integrand from single-integrand callables, recording the
    rows each call asks for."""
    asked = []

    def f(x, rows):
        asked.append(list(rows))
        return np.array([funcs[i](x) for i in rows])

    return f, asked


class TestBatch:
    # rows that converge at different levels: smooth, oscillating and
    # endpoint-singular integrands
    PLAIN = [lambda t: t * t, lambda t: np.exp(-t) * np.cos(3 * t),
             lambda t: 1.0 / np.sqrt(t), lambda t: t ** -0.9]

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
    def test_rows_equal_single_calls(self, tol):
        funcs = self.PLAIN
        f, asked = _batch(funcs)
        res = quadrature.integrate(f, len(funcs), tol=tol)
        alone = [integrate_over(g, 0.0, 1.0, tol) for g in funcs]
        assert res.value.shape == res.err_estimate.shape == (len(funcs),)
        assert res.value.tobytes() == np.concatenate([r.value for r in alone]).tobytes()
        assert res.err_estimate.tobytes() == np.concatenate(
            [r.err_estimate for r in alone]).tobytes()
        assert type(res.evaluations) is int
        assert res.evaluations == sum(r.evaluations for r in alone)
        # rows stop at different levels, and a stopped row is not evaluated again
        assert len({r.evaluations for r in alone}) > 1
        assert asked[0] == asked[1] == list(range(len(funcs)))
        assert all(set(later) <= set(earlier)
                   for earlier, later in zip(asked, asked[1:]))
        assert asked[-1] != asked[0]

    def test_one_diverging_row(self):
        funcs = [self.PLAIN[0], lambda t: 1.0 / t, self.PLAIN[1]]
        f, _ = _batch(funcs)
        with pytest.raises(ToleranceError) as err:
            quadrature.integrate(f, len(funcs), tol=1e-10)
        exc = err.value
        assert exc.layer == "quadrature"
        assert exc.rows == (1,)
        assert exc.budget == quadrature._MAX_LEVEL + 1
        assert "rows [1] of 3" in str(exc)
        for i in (0, 2):
            assert exc.result.value[i] == integrate_over(funcs[i], 0.0, 1.0, 1e-10).value[0]
        assert exc.result.evaluations > exc.evaluations

    def test_empty_batch(self):
        """m = 0 returns empty float arrays at once, without calling f; an
        empty beta_integrals batch too (its sums were integers before)."""
        def f(x, rows):
            raise AssertionError("f called")

        for res in (quadrature.integrate(f, 0), quadrature.beta_integrals([], [])):
            assert res.value.shape == res.err_estimate.shape == (0,)
            assert res.value.dtype == res.err_estimate.dtype == float
            assert res.evaluations == 0


def beta(a, b, tol=1e-10):
    """B(a, b) from a lone beta_integrals row."""
    return quadrature.beta_integrals([a], [b], tol).value[0]


def mp_beta(a, b):
    """B(a, b) at the given doubles, to 40 digits."""
    with mp.workdps(40):
        return mp.beta(mp.mpf(float(a)), mp.mpf(float(b)))


class TestSingularBeta:
    """beta_integrals where an endpoint factor of t^(a-1) (1-t)^(b-1) is
    singular, against closed forms."""

    def test_full_uniform(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_arcsine_density(self):
        assert abs(beta(0.5, 0.5) - math.pi) <= 4e-15

    def test_lemniscate_beta(self):
        # B(5/4, 1/2) = 2*varpi/3
        assert abs(beta(1.25, 0.5) - 2.0 * 2.622057554292119 / 3.0) <= 4e-15

    def test_domain(self):
        for bad in (0.0, -5e-324, -1.0, -math.inf):
            for a, b in (([bad, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, bad])):
                with pytest.raises(DomainError):
                    quadrature.beta_integrals(a, b)
        with pytest.raises(DomainError):  # arrays of two lengths
            quadrature.beta_integrals([1.0, 2.0], [1.0])
        with pytest.raises(DomainError):  # not 1-D
            quadrature.beta_integrals(1.0, 1.0)

    def test_upper_domain(self):
        # upper is a root Y^a in (0, 1], one entry a row
        for bad in (0.0, -0.5, 1.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="upper in"):
                quadrature.beta_integrals([1.0, 2.0], [1.0, 1.0], upper=[0.5, bad])
        for shape in ((), (1,), (3,), (2, 1)):
            with pytest.raises(DomainError, match="shapes"):
                quadrature.beta_integrals([1.0, 2.0], [1.0, 1.0], upper=np.full(shape, 0.5))

    @pytest.mark.parametrize(
        "a0,b0,a1",
        [(math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.nan),
         (math.inf, 0.5, 0.5), (0.5, math.inf, 1.0)],
    )
    def test_nan_and_inf_rejected(self, a0, b0, a1):
        # in either row of a batch of two: (a0, b0) and (a1, 1/2)
        with pytest.raises(DomainError):
            quadrature.beta_integrals([a0, a1], [b0, 0.5])


def wallis_rows(p, q, flavor, exponents):
    """beta_integrals' rows (a, b) for the half-period moments
    int_0^{pi_pq/2} sin_pq^e dt ("sin") or cos_pq^e dt ("cos"), one row an
    exponent, given as a number or a sequence; each moment is its row's
    B(a, b) / q.  With u = s^q these are B((e + 1)/q, 1/p*) and B(1/q,
    (e - 1)/p + 1), the rows verify's wallis suite takes."""
    e = np.atleast_1d(np.asarray(exponents, dtype=float))
    if flavor == "sin":
        return (e + 1.0) / q, np.full(e.shape, (p - 1.0) / p)
    assert flavor == "cos"
    return np.full(e.shape, 1.0 / q), (e - 1.0) / p + 1.0


def one_spec(p, q, flavor, exponents, tol=1e-10):
    """The moments of one spec (p, q, flavor, exponents): an array, one row
    an exponent."""
    return quadrature.beta_integrals(*wallis_rows(p, q, flavor, exponents), tol).value / q


def spec_batch(specs, tol=1e-10):
    """The rows of every spec, spec after spec, in one beta_integrals call:
    its QuadResult, whose values are beta integrals, not yet moments."""
    rows = [wallis_rows(*spec) for spec in specs]
    a, b = (np.concatenate([np.empty(0)] + [row[k] for row in rows]) for k in (0, 1))
    return quadrature.beta_integrals(a, b, tol)


class TestPowerMoment:
    """The Wallis moments of one (p, q, flavor) as beta_integrals rows."""

    def test_classical_moments(self):
        # int_0^(pi/2) sin^2 = pi/4 and int_0^(pi/2) cos^3 = 2/3
        assert one_spec(2.0, 2.0, "sin", 2.0)[0] == pytest.approx(
            math.pi / 4.0, abs=1e-15)
        assert one_spec(2.0, 2.0, "cos", 3.0)[0] == pytest.approx(
            2.0 / 3.0, abs=1e-15)

    def test_half_period_length(self):
        # the zeroth moment is pi_pq/2 = (1/q) B(1/p*, 1/q); p = 3, q = 1.5
        expected = math.gamma(2.0 / 3.0) ** 2 / math.gamma(4.0 / 3.0) / 1.5
        for flavor in ("sin", "cos"):
            got = one_spec(3.0, 1.5, flavor, 0.0)[0]
            assert got == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "p,q,exponent,flavor",
        [(0.5, 2.0, 1.0, "sin"), (math.nan, 2.0, 1.0, "sin"),
         (2.0, math.nan, 1.0, "cos"), (2.0, -1.0, 1.0, "sin"),
         (2.0, 2.0, -1.0, "sin"), (2.0, 2.0, math.nan, "sin"),
         (2.0, 2.0, math.inf, "sin"), (3.0, 2.0, -2.0, "cos"),
         (3.0, 2.0, math.nan, "cos"), (2.0, 2.0, [1.0, -1.5, 2.0], "sin"),
         (2.0, 2.0, [1.0, math.nan], "cos"), (2.0, 2.0, [[1.0, 2.0]], "sin")],
    )
    def test_outside_convergence_range(self, p, q, exponent, flavor):
        # a row with a or b outside (0, inf), or rows that are not 1-D
        with pytest.raises(DomainError):
            one_spec(p, q, flavor, exponent)

    def test_just_inside_convergence_range(self):
        # int_0^(pi/2) sin^e and cos^e both equal B((e+1)/2, 1/2)/2
        for flavor in ("sin", "cos"):
            got = one_spec(2.0, 2.0, flavor, -0.5)[0]
            expected = math.gamma(0.25) * math.gamma(0.5) / math.gamma(0.75) / 2.0
            assert got == pytest.approx(expected, rel=1e-14)

    def test_scalar_and_batch_types(self):
        # an exponent given as a number is one row, as in a sequence
        scalar = one_spec(2.0, 3.0, "sin", 1.5)
        batch = one_spec(2.0, 3.0, "sin", (1.5,))
        assert isinstance(batch, np.ndarray) and scalar.shape == batch.shape == (1,)
        assert scalar.tolist() == batch.tolist()
        assert one_spec(2.0, 3.0, "cos", []).shape == (0,)

    @pytest.mark.parametrize("flavor", ["sin", "cos"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("q", [1.5, 2.0, 2.5, 3.0, 4.0])
    def test_batch_equals_scalar_calls(self, p, q, flavor):
        # the exponents of the CLI wallis suite and the acceptance grid
        if flavor == "sin":
            exps = [q * n + r for n in range(5)
                    for r in (q - 1.0, 0.5 * (q - 1.0), (q - 1.0) / 2.0, -0.5)]
        else:
            exps = [p * n + r for n in range(5)
                    for r in (1.0, 0.5 * (3.0 - p), (3.0 - p) / 2.0,
                              1.0 - 0.75 * (p - 1.0))]
        for tol in (1e-10, 1e-9):
            batch = one_spec(p, q, flavor, exps, tol=tol)
            scalar = [one_spec(p, q, flavor, e, tol=tol)[0] for e in exps]
            assert batch.tolist() == scalar

    def test_batch_with_fast_power_exponents(self, monkeypatch):
        # exponents whose a or b numpy's power would special-case (1/a = 2,
        # 1/2 or 1), next to rows that converge at other levels
        exps = [2.0, 0.5, 1.0, 0.0, -0.5, 7.25, 3.0, 15.0]
        results = []
        integrate = quadrature.integrate

        def spy(*args, **kwargs):
            results.append(integrate(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(quadrature, "integrate", spy)
        for p, q, flavor in ((2.0, 2.0, "sin"), (1.5, 4.0, "sin"), (3.0, 2.5, "cos")):
            results.clear()
            batch = one_spec(p, q, flavor, exps, tol=1e-12)
            scalar = [one_spec(p, q, flavor, e, tol=1e-12)[0] for e in exps]
            assert batch.tolist() == scalar
            evals = [r.evaluations for r in results[1:]]
            assert len(set(evals)) > 1
            assert results[0].evaluations == sum(evals)


def _count_calls(f, calls):
    def counted(x, *args):
        calls.append(len(x))
        return f(x, *args)
    return counted


def _count_levels(monkeypatch):
    levels = []
    nodes = quadrature._level_nodes
    monkeypatch.setattr(quadrature, "_level_nodes",
                        lambda level: levels.append(level) or nodes(level))
    return levels


class TestOneCallPerLevel:
    @pytest.mark.parametrize("batch", [False, True])
    def test_integrand_called_once_per_level(self, batch, monkeypatch):
        # one row, or the four of TestBatch
        f, _ = _batch(TestBatch.PLAIN if batch else TestBatch.PLAIN[1:2])
        calls = []
        levels = _count_levels(monkeypatch)
        res = quadrature.integrate(_count_calls(f, calls), 4 if batch else 1, tol=1e-12)
        assert len(calls) == len(levels) == max(levels) + 1 >= 3
        # level 0's call holds the centre and both half-axes' 6 nodes, but
        # the 3 upper ones that round onto 1
        assert calls[0] == 10
        if not batch:
            # the count is the nodes passed to f, the dropped ones not
            assert sum(calls) == res.evaluations

    def test_rows_on_every_call(self):
        """f gets rows on every call, np.arange(m) at level 0 and the
        ascending live rows after, one call a level."""
        funcs = TestBatch.PLAIN
        f, asked = _batch(funcs)
        seen = []

        def g(x, rows):
            seen.append((len(x), rows.copy()))
            return f(x, rows)

        quadrature.integrate(g, len(funcs), tol=1e-10)
        assert np.array_equal(seen[0][1], np.arange(len(funcs)))
        assert all(rows.dtype.kind == "i" and np.all(np.diff(rows) > 0) for _, rows in seen)
        # one call a level: level L's 6 2^(L-1) upper and lower nodes, but
        # the upper ones that round onto 1
        assert [n for n, _ in seen] == [len(quadrature._level_nodes(level)[0])
                                        for level in range(len(seen))]

    @pytest.mark.parametrize("H,m", [(1.0, 0.5), (2.5, 1.0)])
    def test_nonlocal_closure_is_one_profile_call_per_level(self, H, m,
                                                            monkeypatch):
        # the closure at m, 2m and 4m (at m = 0.5 verify's three) is one
        # batch: each oracle level makes one gtf call, n nodes a live row
        sincos, shapes = bvp._sincos, []

        def spy(rec, x, *args, **kwargs):
            out = sincos(rec, x, *args, **kwargs)
            shapes.append(out[1].shape)
            return out

        monkeypatch.setattr(bvp, "_sincos", spy)
        calls, live = [], []
        integrate = quadrature.integrate

        ms = m * np.array([1.0, 2.0, 4.0])

        def counted(f, *args, **kwargs):
            def g(x, rows):
                live.append(len(rows))
                return f(x, rows)
            return integrate(_count_calls(g, calls), *args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", counted)
        levels = _count_levels(monkeypatch)
        got = bvp.nonlocal_mean_square_slope(H, ms)
        assert np.all(np.abs(got / ms**2 - 1.0) <= 1e-12)
        assert len(shapes) == len(calls) == len(levels) >= 3
        assert shapes == list(zip(live, calls)) and live[0] == 3

    def test_wallis_suite_is_one_integrate_call(self, monkeypatch):
        integrate, outer, inner = quadrature.integrate, [], []

        def spy(f, *args, **kwargs):
            outer.append(kwargs)
            return integrate(_count_calls(f, inner), *args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", spy)
        levels = _count_levels(monkeypatch)
        cases = verify.run("wallis", verify.GRIDS["small"])
        assert len(cases) == 135
        assert len(outer) == 1
        assert len(inner) == len(levels)


def _grid_specs(grid, extra):
    """The verify suite's Wallis specs on a grid (n = 0, 1, 3), each with
    the exponents of ``extra`` that lie in its convergence range, the
    pairs taking them in rotated order."""
    specs = []
    for k, (p, q) in enumerate((p, q) for p in grid for q in grid):
        k %= max(len(extra), 1)
        mixed = extra[k:] + extra[:k]
        specs.append((p, q, "sin", [q * n + r for n in (0, 1, 3)
                                    for r in (q - 1.0, 0.5 * (q - 1.0), -0.5)]
                      + [e for e in mixed if e > -1.0]))
        specs.append((p, q, "cos", [p * n + r for n in (0, 1, 3)
                                    for r in (1.0, 0.5 * (3.0 - p))]
                      + [e for e in mixed if e > 1.0 - p]))
    return specs


class TestPowerMoments:
    """The Wallis moments of many (p, q, flavor) specs in one batch."""

    def test_grid_equals_pair_and_scalar_calls(self):
        specs = _grid_specs(verify.GRIDS["full"], [2.0, 0.5, -1.0, 1.0, 0.0, -0.5])
        res = spec_batch(specs)
        moments = res.value / np.concatenate([np.full(len(exps), q) for _, q, _, exps in specs])
        pairs = [one_spec(p, q, flavor, exps)
                 for p, q, flavor, exps in specs]
        assert moments.tolist() == np.concatenate(pairs).tolist()
        assert res.value.shape == res.err_estimate.shape
        scalar = [one_spec(p, q, flavor, e)[0]
                  for p, q, flavor, exps in specs for e in exps]
        assert moments.tolist() == scalar
        # rows whose a or b is one of numpy's special-cased exponents
        rows = np.concatenate([wallis_rows(*spec) for spec in specs], axis=1)
        assert {0.5, 1.0, 2.0} <= set(rows.reshape(-1).tolist())

    def test_verify_grid_has_375_rows(self):
        specs = _grid_specs(verify.GRIDS["full"], [])
        assert spec_batch(specs).value.shape == (375,)

    def test_empty_and_scalar_specs(self):
        res = spec_batch([(2.0, 3.0, "sin", []), (2.0, 3.0, "cos", 1.5)])
        assert (res.value / 3.0).tolist() == one_spec(2.0, 3.0, "cos", 1.5).tolist()
        empty = spec_batch([])
        assert empty.value.shape == empty.err_estimate.shape == (0,)
        assert empty.evaluations == 0

    @pytest.mark.parametrize("spec", [(2.0, 2.0, "cos", [-1.0]),
                                      (0.5, 2.0, "sin", [1.0]),
                                      (2.0, 2.0, "sin", [1.0, -1.0]),
                                      (3.0, 2.0, "cos", [math.inf])])
    def test_any_bad_spec_rejected(self, spec):
        with pytest.raises(DomainError):
            spec_batch([(2.0, 2.0, "sin", [1.0]), spec])

    def test_failure_names_the_callers_rows(self, monkeypatch):
        # two levels certify nothing: every row fails, named among the
        # caller's five rows, not integrate's ten half-rows
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 1)
        specs = [(2.0, 2.0, "sin", [1.0, 2.0]), (3.0, 1.5, "cos", [1.0, 2.0, 4.0])]
        with pytest.raises(ToleranceError) as err:
            spec_batch(specs)
        exc = err.value
        assert exc.rows == (0, 1, 2, 3, 4)
        assert exc.budget == 2 and exc.layer == "quadrature"
        assert "not met in rows [0, 1, 2, 3, 4] of 5 after its budget of 2 levels" in str(exc)
        assert exc.result.value.shape == exc.result.err_estimate.shape == (5,)


def _assert_distinct_work(res, a, b, alone, tol, upper=None):
    """A batch of the rows a, b (and upper) integrates each distinct
    half-row once: its evaluations are those of a batch of its distinct
    rows, which hold the same half-rows, and at most the sum of the lone
    calls' (below it where half-rows repeat)."""
    rows = np.stack([a, b] + ([] if upper is None else [upper]))
    distinct = np.unique(rows, axis=1)
    again = quadrature.beta_integrals(*distinct[:2], tol,
                                      upper=None if upper is None else distinct[2])
    assert res.evaluations == again.evaluations
    assert res.evaluations <= sum(r.evaluations for r in alone)


def _assert_rows_equal_spec_calls(specs, tol=1e-10):
    """The rows of specs in one batch equal each spec's own call bit for
    bit, values and error estimates, at the evaluations of its distinct
    rows."""
    res = spec_batch(specs, tol)
    alone = [spec_batch([spec], tol) for spec in specs]
    assert res.value.tobytes() == np.concatenate([r.value for r in alone]).tobytes()
    assert res.err_estimate.tobytes() == np.concatenate(
        [r.err_estimate for r in alone]).tobytes()
    rows = [wallis_rows(*spec) for spec in specs]
    a, b = (np.concatenate([row[k] for row in rows]) for k in (0, 1))
    _assert_distinct_work(res, a, b, alone, tol)


class TestPerBatchTables:
    """beta_integrals groups its half-rows by their distinct a once per
    level, and integrates each distinct half-row once; no row's value may
    depend on what it shares."""

    def test_repeated_spec(self):
        _assert_rows_equal_spec_calls([(2.0, 3.0, "sin", [1.5, 2.0, -0.5, 7.25])] * 4)

    def test_shared_powers_across_p(self):
        # the cosine rows share a = 1/3, the sine rows a = 2.5/3 and
        # 8.25/3, each at every p; their b differ, but for the cosine row
        # at 1 + 0.75 p, (1/3, 1.75) at every p
        specs = [(p, 3.0, "cos", [1.0 + 0.75 * p, 2.0]) for p in (1.5, 2.0, 4.0)]
        specs += [(p, 3.0, "sin", [1.5, 7.25]) for p in (1.5, 2.5, 4.0)]
        _assert_rows_equal_spec_calls(specs)
        _assert_rows_equal_spec_calls(specs[::-1], tol=1e-12)

    def test_fast_powers_across_q(self):
        # a or b = 2, 1/2 and 1 among rows that converge at other levels
        specs = []
        for q in (1.5, 2.0, 4.0):
            for p in (2.0, 3.0):
                specs.append((p, q, "sin", [2.0, 0.5, 3.0, -0.5, 2.0, q - 1.0]))
                specs.append((p, q, "cos", [1.0 + 2.0 * p, 1.0 + 0.5 * p, 1.0, 5.5]))
        _assert_rows_equal_spec_calls(specs)
        _assert_rows_equal_spec_calls(specs, tol=1e-13)

    def test_starved_batch(self, monkeypatch):
        # no tol starves these integrands (two levels agree exactly before
        # the node table runs out), so the levels are cut instead
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 3)
        specs = _grid_specs(verify.GRIDS["small"], [2.0, 0.5])
        with pytest.raises(ToleranceError) as err:
            spec_batch(specs)
        exc = err.value
        total = sum(len(exps) for *_, exps in specs)
        assert f"in rows {list(exc.rows)} of {total} " in str(exc)
        assert 0 < len(exc.rows) < total
        # every row's best estimate, failed or not, is its own call's
        best = []
        for spec in specs:
            try:
                best.append(spec_batch([spec]).value)
            except ToleranceError as alone:
                best.append(alone.result.value)
        assert exc.result.value.tobytes() == np.concatenate(best).tobytes()


class TestEndpointMass:
    """The substitution t = tau^(1/a)/2 leaves no mass of a singular endpoint
    factor beyond the outermost node (about 1e-275 from the endpoint on
    [0, 1]): the exponents the untransformed integrand had to refuse, a
    or b near 0, are as accurate as any other."""

    @staticmethod
    def rel_error(p, q, flavor, e):
        a, b = wallis_rows(p, q, flavor, e)
        exact = mp_beta(a[0], b[0]) / q
        return float(abs(one_spec(p, q, flavor, e)[0] - exact) / exact)

    def test_near_the_edge_accepted(self):
        assert self.rel_error(2.0, 2.0, "sin", -0.95) <= 1e-14

    @pytest.mark.parametrize("p,e,flavor", [(2.0, -0.97, "sin"), (2.0, -0.94, "cos"),
                                            (1.03, 1.0, "sin")])
    def test_beyond_the_old_edge_accepted(self, p, e, flavor):
        # each was refused; at -0.97 the untransformed integrand read 5.3e-9
        # low (relative) with no error
        assert self.rel_error(p, 2.0, flavor, e) <= 1e-14

    def test_verify_exponents_untouched(self):
        # the verify suite's least exponents are -0.5 (sin) and, at p = 4,
        # (1 - p)/2 (cos)
        for p in verify.GRIDS["full"]:
            assert self.rel_error(p, 2.0, "sin", -0.5) <= 1e-14
            assert self.rel_error(p, 2.0, "cos", 0.5 * (3.0 - p)) <= 1e-14


class TestBetaIntegrals:
    @pytest.mark.parametrize("a,b", [(1e-3, 1e-3), (1e-3, 1.0), (1e-3, 50.0),
                                     (1e-6, 0.5), (30.0, 0.01), (0.5, 1000.0)])
    def test_against_mpmath(self, a, b):
        exact = mp_beta(a, b)
        assert float(abs(beta(a, b) - exact) / exact) <= 1e-14

    def test_rows_equal_lone_calls(self):
        # 1/a in {2, 1/2, 1} among random rows, as a and as b; numpy's power
        # would make the row (1/2, 3.7) differ from its lone call
        rng = np.random.default_rng(7)
        fixed = [(0.5, 2.0), (2.0, 0.5), (1.0, 0.5), (0.5, 0.5), (2.0, 2.0), (0.5, 3.7),
                 (3.7, 0.5), (2.0, 0.3)]
        a, b = (np.concatenate((row, 10.0 ** rng.uniform(-3.0, 2.0, 40))) for row in zip(*fixed))
        for tol in (1e-10, 1e-13):
            res = quadrature.beta_integrals(a, b, tol)
            alone = [quadrature.beta_integrals([x], [y], tol) for x, y in zip(a, b)]
            assert res.value.tobytes() == np.concatenate([r.value for r in alone]).tobytes()
            assert res.err_estimate.tobytes() == np.concatenate(
                [r.err_estimate for r in alone]).tobytes()
            # (0.5, 2) and (2, 0.5) share both halves
            _assert_distinct_work(res, a, b, alone, tol)
            assert res.evaluations < sum(r.evaluations for r in alone)

    @pytest.mark.parametrize("a,b,root", [
        (1e-3, 1.0, 0.5),  # Y = 2^-1000
        (1e-3, 1e-3, 0.1),  # Y = 1e-1000 underflows; its root does not
        (0.5, 0.5, 0.5**0.5),  # Y = 1/2, one half-row
        (1.0 / 3.0, 2.0 / 3.0, 0.2),
        (2.0, 0.3, 0.6),
        (30.0, 0.01, 0.9),  # Y > 1/2: B(a, b) less the tail beyond Y
        (0.7, 1e-3, 0.95),
        (0.5, 4.0, 0.99),
    ])
    def test_incomplete_against_mpmath(self, a, b, root):
        """B_Y(a, b) with Y = root^(1/a), within its own estimate plus a few
        roundings; above Y = 1/2 the rounding of 1 - Y, which cancels
        against B(a, b), is part of it."""
        res = quadrature.beta_integrals([a], [b], 1e-13, upper=[root])
        with mp.workdps(40):
            limit = mp.mpf(root) ** (1 / mp.mpf(a))
            exact = mp.betainc(mp.mpf(a), mp.mpf(b), 0, limit)
            err = float(abs(res.value[0] - exact))
            # d B_Y / dY = Y^(a-1) (1-Y)^(b-1) times 1 - Y's rounding
            carried = float(limit ** (a - 1) * (1 - limit) ** (b - 1)) * EPS if limit > 0.5 else 0.0
        assert err <= res.err_estimate[0] + carried + 4 * EPS * res.value[0]
        assert err <= 1e-13 * res.value[0] + carried

    def test_estimate_covers_the_error(self):
        """On 1500 seeded rows, every other one incomplete, each row's value
        is within its own estimate of 30-digit mpmath (or within 4 eps), at
        the limit Y = upper^(1/a) that the row is given by.  Without the
        estimate's rounding terms 21 rows failed, by up to 1.9x: rows with Y
        > 1/2 whose terms cancel, and rows whose integrand's exponent (b -
        1) log1p(-Y) amplifies a rounding, (a, b, Y) = (6.13, 39.4, 0.35)
        5.9 eps off with an estimate of 0.9 eps (2.9 eps with 2 eps for the
        sum's rounding alone)."""
        n = 1500
        rng = np.random.default_rng(7)
        a, b = 10.0 ** rng.uniform(-3.0, 2.0, (2, n))
        y = rng.uniform(0.0, 1.0, n)
        upper = np.where(np.arange(n) % 2 == 0, y ** a, 1.0)
        res = quadrature.beta_integrals(a, b, 1e-13, upper=upper)
        with mp.workdps(30):
            ref = np.array([float(mp.betainc(x, z, 0, mp.mpf(r) ** (1 / mp.mpf(x))))
                            for x, z, r in zip(a.tolist(), b.tolist(), upper.tolist())])
        err = np.abs(res.value - ref)
        assert np.all(err <= np.maximum(res.err_estimate, 4 * EPS * np.abs(ref)))

    @pytest.mark.parametrize("a,b", [(10.0, 1000.0), (2.0, 1e6), (30.0, 30.0)])
    def test_small_values_are_certified_absolutely(self, a, b):
        """Below 1 a row is certified to tol absolutely, not relatively, and
        its estimate covers the error against 40-digit mpmath: B(10, 1000)
        reads 4.19e-25 for 3.47e-25, 21% high, with an estimate of 4.0e-25;
        B(2, 1e6) is 1.0e-11 off, relative, and B(30, 30) 2.3e-11."""
        res = quadrature.beta_integrals([a], [b], 1e-13)
        with mp.workdps(40):
            err = float(abs(res.value[0] - mp_beta(a, b)))
        assert err <= res.err_estimate[0] <= 1e-13

    def test_incomplete_rows_equal_lone_calls(self):
        # limits below 1/2, above it, at 1 and underflowing, in one batch
        rng = np.random.default_rng(11)
        a, b = 10.0 ** rng.uniform(-3.0, 1.0, (2, 40))
        limits = np.concatenate((rng.uniform(0.0, 0.5, 14), rng.uniform(0.5, 1.0, 14),
                                 np.ones(10), [0.5, 1e-310]))
        root = limits ** a
        root[-1] = 1e-3  # Y = 1e-3^(1/a), zero in doubles at a below ~0.0043
        a[-1] = 1e-3
        for tol in (1e-10, 1e-13):
            res = quadrature.beta_integrals(a, b, tol, upper=root)
            alone = [quadrature.beta_integrals([x], [y], tol, upper=[r])
                     for x, y, r in zip(a, b, root)]
            assert res.value.tobytes() == np.concatenate([r.value for r in alone]).tobytes()
            assert res.err_estimate.tobytes() == np.concatenate(
                [r.err_estimate for r in alone]).tobytes()
            assert res.evaluations == sum(r.evaluations for r in alone)

    def test_starved_rows_are_the_callers(self, monkeypatch):
        """ToleranceError.rows and its message name the caller's rows, of
        one, two or three half-rows each: the half-row -> row index maps
        them back (r % m named row 0 here, whose lone call passes)."""
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 3)
        rows = [(1.0, 1.0, 0.3), (0.3, 0.05, 0.9**0.3), (1e-3, 0.5, 0.1),
                (0.5, 1e-3, 0.4**0.5), (2.0, 3.0, 1.0), (5.0, 5.0, 0.99**5)]
        a, b, root = (np.array(v) for v in zip(*rows))
        with pytest.raises(ToleranceError) as err:
            quadrature.beta_integrals(a, b, 1e-13, upper=root)
        exc = err.value
        failing, best = [], []
        for i, row in enumerate(rows):
            try:
                best.append(quadrature.beta_integrals(*([v] for v in row[:2]), 1e-13,
                                                      upper=[row[2]]).value)
            except ToleranceError as alone:
                failing.append(i)
                best.append(alone.result.value)
        assert failing == [1, 3, 4]
        assert exc.rows == tuple(failing)
        assert f"in rows {failing} of {len(rows)} " in str(exc)
        assert exc.result.value.tobytes() == np.concatenate(best).tobytes()

    def test_wallis_suite_on_the_extreme_grid(self, monkeypatch):
        results = []
        beta_integrals = quadrature.beta_integrals

        def spy(*args, **kwargs):
            results.append(beta_integrals(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(quadrature, "beta_integrals", spy)
        cases = verify.run("wallis", [1.01, 1.5, 30.0, 1000.0])
        assert len(cases) == 240
        assert all(residual <= tol for _, residual, tol in cases)
        # the estimates of B(a, b), at least q times those of the moments
        (res,) = results
        assert res.err_estimate.max() <= min(tol for *_, tol in cases)


def _level_zero_rows(monkeypatch):
    """A spy on beta_integrals' integrate: the rows of each batch's level-0
    integrand values, one array per integrate call."""
    integrate, seen = quadrature.integrate, []

    def spy(f, *args, **kwargs):
        levels = []

        def g(x, rows):
            y = f(x, rows)
            if not levels:  # level 0's call
                seen.append(y)
            levels.append(len(x))
            return y
        return integrate(g, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", spy)
    return seen


class TestDistinctHalfRows:
    """Each distinct half-row (a, Z, b) is integrated once per batch; rows
    that repeat, or that share halves, read its value."""

    # B(0.5, 2) and B(2, 0.5) share both halves, B(1, 1) and B(3, 3) are
    # each one half twice, and B_{1/4}(0.5, 2) is the tail of B_{3/4}(2, 0.5)
    # (both limits exact from their roots)
    ROWS = [(0.5, 2.0, 1.0), (2.0, 0.5, 1.0), (0.5, 2.0, 1.0), (1.0, 1.0, 1.0),
            (3.0, 3.0, 1.0), (2.0, 0.5, 0.75**2), (0.5, 2.0, 0.5), (1.0, 1.0, 1.0)]

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_rows_equal_lone_calls(self, tol):
        a, b, root = (np.array(v) for v in zip(*self.ROWS))
        res = quadrature.beta_integrals(a, b, tol, upper=root)
        alone = [quadrature.beta_integrals([x], [y], tol, upper=[r]) for x, y, r in self.ROWS]
        assert res.value.tobytes() == np.concatenate([r.value for r in alone]).tobytes()
        assert res.err_estimate.tobytes() == np.concatenate(
            [r.err_estimate for r in alone]).tobytes()
        _assert_distinct_work(res, a, b, alone, tol, upper=root)
        assert res.evaluations < sum(r.evaluations for r in alone)

    def test_integrate_gets_the_distinct_half_rows(self, monkeypatch):
        seen = _level_zero_rows(monkeypatch)
        a, b, root = (np.array(v) for v in zip(*self.ROWS))
        quadrature.beta_integrals(a, b, upper=root)
        # of 16 half-rows (a, Z, b), 5 distinct: (0.5, 1/2, 2), (2, 1/2,
        # 0.5), (1, 1/2, 1), (3, 1/2, 3) and (0.5, 1/4, 2), the tail of the
        # sixth row and the seventh row's one half-row
        (y,) = seen
        assert len(y) == 5
        assert len({row.tobytes() for row in y}) == 5
        # a lone row of two equal halves passes one
        seen.clear()
        quadrature.beta_integrals([3.0], [3.0])
        assert [len(y) for y in seen] == [1]

    def test_starved_batch_names_every_caller_row(self, monkeypatch):
        # rows 1, 3 and 4 of TestBetaIntegrals' starved batch fail alone;
        # their repeats, and (3, 2), whose halves are row 4's, fail with them
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 3)
        rows = [(1.0, 1.0, 0.3), (0.3, 0.05, 0.9**0.3), (1e-3, 0.5, 0.1),
                (0.5, 1e-3, 0.4**0.5), (2.0, 3.0, 1.0), (5.0, 5.0, 0.99**5),
                (0.3, 0.05, 0.9**0.3), (3.0, 2.0, 1.0), (1.0, 1.0, 0.3), (2.0, 3.0, 1.0)]
        a, b, root = (np.array(v) for v in zip(*rows))
        with pytest.raises(ToleranceError) as err:
            quadrature.beta_integrals(a, b, 1e-13, upper=root)
        exc = err.value
        failing, best = [], []
        for i, row in enumerate(rows):
            try:
                best.append(quadrature.beta_integrals([row[0]], [row[1]], 1e-13,
                                                      upper=[row[2]]).value)
            except ToleranceError as alone:
                failing.append(i)
                best.append(alone.result.value)
        assert failing == [1, 3, 4, 6, 7, 9]
        assert exc.rows == tuple(failing)
        assert f"in rows {failing} of {len(rows)} " in str(exc)
        assert exc.result.value.tobytes() == np.concatenate(best).tobytes()


class TestVerifyOracleWork:
    """The full grid's two oracle batches integrate their distinct
    half-rows once: 409 of the wallis suite's 750 (B(a, b) and B(b, a)
    share both halves) and 376 of the bvp suite's 508 (its 475 rows are a
    travel-time row and a U row a fraction, the same for every H, and a
    complete row a pair).  A batch that lost the deduplication would pass
    every half-row and more evaluations."""

    @pytest.mark.parametrize("suite,half_rows,evaluations",
                             [("wallis", 409, 35_011), ("bvp", 376, 51_622)])
    def test_full_grid(self, suite, half_rows, evaluations, monkeypatch):
        beta_integrals, results = quadrature.beta_integrals, []

        def spy(*args, **kwargs):
            results.append(beta_integrals(*args, **kwargs))
            return results[-1]

        seen = _level_zero_rows(monkeypatch)
        monkeypatch.setattr(quadrature, "beta_integrals", spy)
        verify.run(suite, verify.GRIDS["full"])
        # the batch's integrate call comes first; the bvp suite's nonlocal
        # closures then call integrate on their own
        (res,) = results
        assert [len(y) for y in seen][:1] == [half_rows]
        assert res.evaluations == evaluations


def test_oracle_independence():
    # the oracle must not import the modules it is used to check, nor
    # specfun or scipy, whose Gamma and Beta functions those modules use
    import gentrig.quadrature as q

    tree = ast.parse(open(q.__file__).read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
            imported.add(node.module or "")
    for name in imported:
        parts = set(name.split("."))
        assert not parts & {"gtf", "integrals", "bvp", "specfun", "verify", "cli", "scipy"}, name
    assert {"numpy", "errors"} <= {part for name in imported for part in name.split(".")}
