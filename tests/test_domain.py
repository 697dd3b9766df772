"""The domain edges of every public entry of specfun and integrals, the
query dataclasses included: NaN, +inf and -inf in any scalar argument raise
DomainError, and nothing else (no other exception, no silent NaN or inf),
except at the infinite ends that an entry documents (DOCUMENTED).  And
verify.run's bad suites and grids, rejected before any suite runs."""

import math
import re

import numpy as np
import pytest

from gentrig import bvp, gtf, integrals, quadrature, specfun, verify
from gentrig.errors import DomainError
from gentrig.gtf import ParamPair
from gentrig.integrals import EllipticQuery, WallisQuery

NON_FINITE = (math.nan, math.inf, -math.inf)


def _wallis(flavor):
    """A Wallis flavor on its query: a WallisQuery's r is checked by the
    flavor it is passed to, since its range depends on the flavor."""
    return lambda p, q, n, r: flavor(WallisQuery(ParamPair(p, q), n, r))


def _elliptic(kind):
    return lambda p, q, r, k: kind(EllipticQuery(ParamPair(p, q), r, k))


# entry: (call on keyword arguments, in-domain arguments); each scalar
# argument is replaced in turn by each non-finite value
ENTRIES = {
    "beta": (specfun.beta, dict(x=0.5, y=3.0)),
    "poch_ratio": (specfun.poch_ratio, dict(a=0.25, b=0.75, n=100)),
    "hyp2f1": (specfun.hyp2f1, dict(a=0.5, b=0.5, c=1.0, x=0.7, comp=0.3)),
    "primitive_sin_cos": (integrals.primitive_sin_cos, dict(p=2.0, q=3.0, k=0.5, l=1.5, x=0.4)),
    "wallis_sin": (_wallis(integrals.wallis_sin), dict(p=2.0, q=3.0, n=5, r=0.5)),
    "wallis_cos": (_wallis(integrals.wallis_cos), dict(p=2.0, q=3.0, n=5, r=0.5)),
    "wallis_special_cases": (
        lambda p, q, n: integrals.wallis_special_cases(p, q, n, "cos_pn_2mp"),
        dict(p=2.0, q=3.0, n=5)),
    "lemniscate_wallis": (integrals.lemniscate_wallis, dict(n=5, residue=1)),
    "product_factors": (integrals.product_factors, dict(p=2.0, q=3.0, N=5)),
    "pi_product_partial": (integrals.pi_product_partial, dict(p=2.0, q=3.0, N=100)),
    "EllipticQuery": (lambda p, q, r, k: EllipticQuery(ParamPair(p, q), r, k),
                      dict(p=2.0, q=3.0, r=2.5, k=0.5)),
    "elliptic_K": (_elliptic(integrals.elliptic_K), dict(p=2.0, q=3.0, r=2.5, k=0.5)),
    "elliptic_E": (_elliptic(integrals.elliptic_E), dict(p=2.0, q=3.0, r=2.5, k=0.5)),
    "elliott_residual": (integrals.elliott_residual, dict(p=2.0, q=3.0, r=2.5, k=0.5)),
}

# the infinite ends an entry documents, with the value it returns there.
# EllipticQuery's r = inf is not one: the query rejects it, as
# elliott_residual does
DOCUMENTED = {
    ("beta", "x", math.inf): "0.0",  # B(inf, y) = 0
    ("beta", "y", math.inf): "0.0",  # B(x, inf) = 0
}


def outcome(call, kwargs):
    """'DomainError', the name of any other exception, or the repr of the
    value returned."""
    try:
        value = call(**kwargs)
    except DomainError:
        return "DomainError"
    except Exception as exc:  # any other: reported by name
        return type(exc).__name__
    return repr(value)


@pytest.mark.parametrize("name", ENTRIES)
def test_non_finite_arguments(name):
    call, base = ENTRIES[name]
    call(**base)  # in the domain
    wrong = []
    for arg in base:
        for bad in NON_FINITE:
            got = outcome(call, {**base, arg: bad})
            want = DOCUMENTED.get((name, arg, bad), "DomainError")
            if got != want:
                wrong.append((arg, bad, got))
    assert wrong == []


# inputs that once returned a wrong value or raised another exception
LISTED = [
    (specfun.poch_ratio, (math.nan, 1.0, 100)),  # NaN
    (specfun.poch_ratio, (1.0, math.inf, 100)),  # NaN
    (specfun.poch_ratio, (1.0, math.inf, 3)),  # 0.0
    (specfun.poch_ratio, (1.0, -2.0, 5)),  # ZeroDivisionError at the pole of (b)_n
    (specfun.hyp2f1, (math.nan, 1.0, 2.0, 0.5)),  # ValueError
    (specfun.hyp2f1, (math.inf, 1.0, 2.0, 0.5)),  # OverflowError
    (specfun.hyp2f1, (1.0, 1.0, math.inf, 0.5)),  # OverflowError
    (specfun.hyp2f1, (1.0, 1.0, math.nan, 0.5)),  # a spent term budget; a = 1 is outside the box
    (integrals.primitive_sin_cos, (2.0, 2.0, 0.0, math.inf, 0.5)),  # OverflowError
]


@pytest.mark.parametrize("call,args", LISTED,
                         ids=[f"{call.__name__}{args}" for call, args in LISTED])
def test_listed_inputs_raise_domain_error(call, args):
    with pytest.raises(DomainError):
        call(*args)


# a Python int beyond the doubles as a parameter: each call once raised
# OverflowError, from float() or from math.isfinite, where the range test
# came after the conversion or passed the int (10**400 < inf holds)
HUGE = 10**400
BEYOND_THE_DOUBLES = {
    "sin_pq p": lambda: gtf.sin_pq(HUGE, 2, 0.5),
    "pi_pq q": lambda: gtf.pi_pq(2, HUGE),
    "wallis_special_cases n": lambda: integrals.wallis_special_cases(2.5, 3, HUGE, "sin_qn"),
    "wallis_special_cases p": lambda: integrals.wallis_special_cases(HUGE, 3, 5, "sin_qn"),
    "solve_general H": lambda: bvp.solve_general(HUGE, 2, 3),
    "solve_general p": lambda: bvp.solve_general(2, -HUGE, 3),
    "primitive_sin_cos k": lambda: integrals.primitive_sin_cos(2.5, 3, HUGE, 1.5, 0.5),
    "primitive_sin_cos l": lambda: integrals.primitive_sin_cos(2.5, 3, 0.5, -HUGE, 0.5),
    "ParamPair q": lambda: ParamPair(2, HUGE),
    "nonlocal_exponent m": lambda: bvp.nonlocal_exponent(HUGE),
    "solve_nonlocal m": lambda: bvp.solve_nonlocal(1.0, -HUGE),
    "nonlocal_mean_square_slope m": lambda: bvp.nonlocal_mean_square_slope(1.0, [HUGE]),
    "beta_integrals a": lambda: quadrature.beta_integrals([HUGE], [2.0]),
    "beta_integrals b": lambda: quadrature.beta_integrals([2.0], [-HUGE]),
    "beta_integrals upper": lambda: quadrature.beta_integrals([2.0], [2.0], upper=[HUGE]),
    "integrate tol": lambda: quadrature.integrate(lambda x, rows: x + 0.0 * rows[:, None], 1,
                                                  tol=HUGE),
    "general_checks p": lambda: bvp.general_checks(HUGE, 3.0, [1.0], [0.5]),
    "general_checks Hs": lambda: bvp.general_checks(2.0, 3.0, [HUGE], [0.5]),
    "general_checks fractions": lambda: bvp.general_checks(2.0, 3.0, [1.0], [-HUGE]),
}
# the same int in an array slot, an x or an object array of pairs, which
# raised OverflowError from numpy's float conversion
XS, PS = [0.1, HUGE], np.array([2.0, HUGE], dtype=object)
BEYOND_THE_DOUBLES.update({
    "sin_pq x array": lambda: gtf.sin_pq(2.0, 3.0, XS),
    "cos_pq x array": lambda: gtf.cos_pq(2.0, 3.0, XS),
    "sincos_pq x array": lambda: gtf.sincos_pq(2.0, 3.0, XS),
    "asin_pq x array": lambda: gtf.asin_pq(2.0, 3.0, XS),
    "sincos_pq p array": lambda: gtf.sincos_pq(PS, 3.0, 0.5),
    "cos_pq q array": lambda: gtf.cos_pq(2.0, PS, 0.5),
    "sin_symmetry_appendix p array": lambda: gtf.sin_symmetry_appendix(PS, 3.0, 0.5),
    "sin_symmetry_appendix q array": lambda: gtf.sin_symmetry_appendix(2.0, PS, 0.5),
    "sin_symmetry_appendix x01 array": lambda: gtf.sin_symmetry_appendix(2.0, 3.0, [0.5, HUGE]),
    "extend_sin_symmetric p array": lambda: gtf.extend_sin_symmetric(PS, 0.5),
    "extend_sin_symmetric x array": lambda: gtf.extend_sin_symmetric(3.0, [0.5, HUGE]),
    "general_checks p array": lambda: bvp.general_checks(PS, 3.0, [1.0], [0.5]),
    "general_checks q array": lambda: bvp.general_checks(2.0, PS, [1.0], [0.5]),
    "solve_general sol(x) array": lambda: bvp.solve_general(1.0, 2.0, 3.0)([0.5, HUGE]),
})


@pytest.mark.parametrize("name", BEYOND_THE_DOUBLES)
def test_int_beyond_the_doubles_raises_domain_error(name):
    with pytest.raises(DomainError):
        BEYOND_THE_DOUBLES[name]()


@pytest.mark.parametrize("name", ENTRIES)
def test_every_slot_rejects_ints_beyond_the_doubles(name):
    """+-10**400 in each scalar argument of an entry raises DomainError:
    every range test comes after a conversion that turns the OverflowError
    of float() into DomainError, or rejects the int itself."""
    call, base = ENTRIES[name]
    wrong = [(arg, sign, got) for arg in base for sign in (1, -1)
             if (got := outcome(call, {**base, arg: sign * HUGE})) != "DomainError"]
    assert wrong == []


def test_conjugate_of_an_int_beyond_the_doubles():
    """p* = p / (p - 1) rounds to 1 there, and pi_{p,1} = 2 p* to 2: the
    division of two ints is exact, where float() would overflow."""
    assert gtf.conjugate(HUGE) == 1.0 and gtf.pi_pq(HUGE, 1) == 2.0


# verify.run's bad input: (suite, grid, what the message names).  Each once
# raised another exception from inside a suite: KeyError for the unknown
# suite, ValueError from a reshape for the empty grid, pi_pq's "q = 1"
# message for the grid value 1.0
VERIFY_INPUTS = [
    ("bogus", [2.0], "'bogus'"),
    ("pythagorean", [], "at least one value"),
    ("pythagorean", [1.5, 1.0], "value 1.0 "),
    ("appendix", [2.0, math.nan], "value nan "),
    ("wallis", [math.inf], "value inf "),
    ("product", [0.5], "value 0.5 "),
    ("bvp", [3.0, -2.0], "value -2.0 "),
]


@pytest.mark.parametrize("name,grid,named", VERIFY_INPUTS,
                         ids=[f"{name}{grid}" for name, grid, _ in VERIFY_INPUTS])
def test_verify_rejects_bad_input_before_any_suite(monkeypatch, name, grid, named):
    with pytest.raises(DomainError, match=re.escape(named)):
        verify.run(name, grid)
    ran = []
    monkeypatch.setattr(verify, "_SUITES", {
        suite: (lambda g, suite=suite: ran.append(suite)) for suite in verify.SUITES})
    with pytest.raises(DomainError):
        verify.run(name, grid)
    assert ran == []
