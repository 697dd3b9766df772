import math

import numpy as np
import pytest

from gentrig import quadrature
from gentrig.errors import DomainError, ToleranceError


def test_constant_exact():
    res = quadrature.integrate(lambda t: np.ones_like(t), 0.0, 1.0, tol=1e-14)
    assert abs(res.value - 1.0) <= 1e-15
    assert res.err_estimate <= 1e-14


def test_arcsin_integral():
    # int_0^1 (1 - t^2)^(-1/2) = pi/2; distance form reaches 1e-12
    res = quadrature.integrate(
        lambda x, da, db: 1.0 / np.sqrt(db * (1.0 + x)), 0.0, 1.0,
        tol=1e-12, dist=True,
    )
    assert abs(res.value - math.pi / 2) <= 1e-12


def test_arcsin_integral_plain_mode():
    res = quadrature.integrate(lambda t: 1.0 / np.sqrt(1.0 - t * t), 0.0, 1.0, tol=1e-7)
    assert abs(res.value - math.pi / 2) <= 1e-7


def test_lemniscate_integral():
    # int_0^1 (1 - t^4)^(-1/2) = varpi/2 = 1.31102877714605...
    res = quadrature.integrate(
        lambda x, da, db: 1.0 / np.sqrt(db * (1.0 + x) * (1.0 + x * x)),
        0.0, 1.0, tol=1e-12, dist=True,
    )
    assert abs(res.value - 1.3110287771460598) <= 1e-12


def test_sin_squared():
    res = quadrature.integrate(lambda t: np.sin(t) ** 2, 0.0, math.pi / 2, tol=1e-12)
    assert abs(res.value - math.pi / 4) <= 1e-12


def test_additivity():
    f = lambda t: np.exp(-t) * np.cos(3 * t)
    whole = quadrature.integrate(f, 0.0, 2.0, tol=1e-12)
    left = quadrature.integrate(f, 0.0, 0.7, tol=1e-12)
    right = quadrature.integrate(f, 0.7, 2.0, tol=1e-12)
    gap = abs(left.value + right.value - whole.value)
    assert gap <= left.err_estimate + right.err_estimate + whole.err_estimate


def test_empty_interval():
    res = quadrature.integrate(lambda t: t, 1.0, 1.0)
    assert res.value == 0.0 and res.evaluations == 0


def test_refinement_stability():
    # value changes by less than 2 * err_estimate under one extra refinement
    f = lambda t: 1.0 / (1.0 + t * t)
    loose = quadrature.integrate(f, 0.0, 1.0, tol=1e-6)
    tight = quadrature.integrate(f, 0.0, 1.0, tol=1e-12)
    assert abs(loose.value - tight.value) <= 2.0 * loose.err_estimate + 1e-15


def test_node_cache_repeats_results():
    f = lambda t: np.sqrt(1.0 - t * t)
    first = quadrature.integrate(f, -1.0, 1.0, tol=1e-12)
    assert quadrature.integrate(f, -1.0, 1.0, tol=1e-12) == first
    assert quadrature.integrate(f, -1.0, 1.0, tol=1e-12) == first


def test_node_cache_is_read_only():
    for level in (0, 1, 5):
        w, delta = quadrature._level_nodes(level)
        assert quadrature._level_nodes(level)[0] is w
        fresh_w, fresh_delta = quadrature._level_nodes.__wrapped__(level)
        assert np.array_equal(w, fresh_w) and np.array_equal(delta, fresh_delta)
        assert not w.flags.writeable and not delta.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        quadrature.integrate(lambda t: t, 1.0, 0.0)
    with pytest.raises(DomainError):
        quadrature.integrate(lambda t: t, 0.0, 1.0, tol=0.0)


def test_eval_cap():
    with pytest.raises(ToleranceError) as err:
        quadrature.integrate(
            lambda t: 1.0 / np.sqrt(1.0 - t * t), 0.0, 1.0,
            tol=1e-13, max_evals=100,
        )
    assert err.value.result is not None


class TestSingularBeta:
    def test_full_uniform(self):
        assert quadrature.integrate_singular_beta(1.0, 1.0, 1.0).value == pytest.approx(
            1.0, abs=1e-13
        )

    def test_arcsine_density(self):
        res = quadrature.integrate_singular_beta(0.5, 0.5, 1.0)
        assert abs(res.value - math.pi) <= 1e-11

    def test_lemniscate_beta(self):
        # B(5/4, 1/2) = 2*varpi/3
        res = quadrature.integrate_singular_beta(1.25, 0.5, 1.0)
        assert abs(res.value - 2.0 * 2.622057554292119 / 3.0) <= 1e-12

    def test_partial_upper(self):
        # t^0 integrand: plain length
        res = quadrature.integrate_singular_beta(1.0, 1.0, 0.3)
        assert abs(res.value - 0.3) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            quadrature.integrate_singular_beta(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            quadrature.integrate_singular_beta(1.0, 1.0, 1.5)


class TestPowerMoment:
    def test_classical_moments(self):
        # int_0^(pi/2) sin^2 = pi/4 and int_0^(pi/2) cos^3 = 2/3
        assert quadrature.power_moment(2.0, 2.0, 2.0, "sin") == pytest.approx(
            math.pi / 4.0, abs=1e-12)
        assert quadrature.power_moment(2.0, 2.0, 3.0, "cos") == pytest.approx(
            2.0 / 3.0, abs=1e-12)

    def test_half_period_length(self):
        # the zeroth moment is pi_pq/2 = (1/q) B(1/p*, 1/q); p = 3, q = 1.5
        expected = math.gamma(2.0 / 3.0) ** 2 / math.gamma(4.0 / 3.0) / 1.5
        for flavor in ("sin", "cos"):
            got = quadrature.power_moment(3.0, 1.5, 0.0, flavor)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_unknown_flavor(self):
        with pytest.raises(DomainError):
            quadrature.power_moment(2.0, 2.0, 1.0, "tan")


def test_oracle_independence():
    # the oracle must not import the modules it is used to check
    import gentrig.quadrature as q

    src = open(q.__file__).read()
    for banned in ("from .gtf", "from .integrals", "from .bvp",
                   "from . import gtf", "from . import integrals",
                   "from . import bvp", "import gentrig.gtf",
                   "import gentrig.integrals", "import gentrig.bvp"):
        assert banned not in src
