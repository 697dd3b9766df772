"""The identity-verification suites of ``gentrig verify``: the paper's
identities and closed forms at the pairs (p, q) of a grid, each case a (case
name, residual, tolerance) triple that passes where residual <= tolerance.
Two suites compare against the tanh-sinh oracle, in one beta_integrals
batch each: wallis its moments, against the closed forms of the plain
cores integrals._wallis_sin and _wallis_cos, and bvp its ODE and phase
cases, the travel time x/H = I_{sin^q(w x)}(1/q, 1/p) of the general
problem within 1e-12, the oracle's 2e-13 plus rounding, and its first
integral u = U(v) within its stated bound 4H (3e-13 + 4 eps), about
1.2e-12 H: the oracle's 3 F 1e-13 |u| plus F times 4 eps |u| of
rounding, with F |u| <= 4H (bvp.general_checks)."""

from __future__ import annotations

import numpy as np

from . import bvp, gtf, integrals, quadrature
from .errors import DomainError, check_pq

GRIDS = {
    "small": [1.5, 2.0, 3.0],
    "full": [1.5, 2.0, 2.5, 3.0, 4.0],
    # the documented domain's edges: p or q near 1, and large
    "extreme": [1.001, 1.01, 1.5, 30.0, 1000.0],
}


def _pairs(grid):
    """p and q of every pair of the grid as arrays that broadcast to
    (len(grid), len(grid), 1), p first as the suites list the pairs, with a
    last axis for points: each suite makes one gtf call for all pairs."""
    g = np.asarray(grid, dtype=float)
    return g[:, None, None], g[None, :, None]


def _named(grid):
    """(p, q, "p=... q=...") of every pair of the grid, in the order the
    suites list the pairs: the head of each of a pair's case names."""
    return [(p, q, f"p={p} q={q}") for p in grid for q in grid]


def _suite_pythagorean(grid):
    xs01 = np.linspace(0.0, 1.0, 33)
    p, q = _pairs(grid)
    half = gtf._records(p, q)[0]  # pi_pq/2 of each pair, bit for bit 0.5 * pi_pq
    s, c = gtf.sincos_pq(p, q, half * xs01)
    # each pair's powers as at a float exponent: numpy squares at 2.0, where
    # pow differs (gtf._power)
    worst = np.abs(gtf._power(c, p) + gtf._power(s, q) - 1.0).max(axis=-1).ravel().tolist()
    return [(f"pythagorean {pq}", w, 1e-11) for (_, _, pq), w in zip(_named(grid), worst)]


def _suite_appendix(grid):
    xs01 = np.array([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0])
    r1, r2 = gtf.sin_symmetry_appendix(*_pairs(grid), xs01)
    worst = np.maximum(np.abs(r1).max(axis=-1), np.abs(r2).max(axis=-1)).ravel().tolist()
    return [(f"appendix {pq}", w, 1e-10) for (_, _, pq), w in zip(_named(grid), worst)]


def _suite_wallis(grid):
    """Every moment of the grid from one oracle pass.  With u = s^q, the
    sine moment int_0^{pi_pq/2} sin_pq^e is (1/q) B((e + 1)/q, 1/p*) and
    the cosine moment (1/q) B(1/q, (e - 1)/p + 1); the closed forms take
    Pochhammer ratios, the oracle no Gamma or Beta function.  The closed
    forms come from wallis_sin's and wallis_cos's plain cores at (p, q, n,
    r), as wallis_special_cases takes them, with no query record a case."""
    # each r with its name: the sine's depend on q only, the cosine's on p
    sin_r = {q: [(r, f"{r:g}") for r in (q - 1.0, 0.5 * (q - 1.0), -0.5)] for q in grid}
    cos_r = {p: [(r, f"{r:g}") for r in (1.0, 0.5 * (3.0 - p))] for p in grid}
    cases, rows = [], []
    for p, q, pq in _named(grid):
        for n in (0, 1, 3):
            for r, rs in sin_r[q]:
                cases.append((f"wallis_sin {pq} n={n} r={rs}",
                              integrals._wallis_sin(p, q, n, r)))
                rows.append(((q * n + r + 1.0) / q, (p - 1.0) / p, q))
            for r, rs in cos_r[p]:
                cases.append((f"wallis_cos {pq} n={n} r={rs}",
                              integrals._wallis_cos(p, q, n, r)))
                rows.append((1.0 / q, (p * n + r - 1.0) / p + 1.0, q))
    a, b, qs = np.array(rows).T
    moments = (quadrature.beta_integrals(a, b).value / qs).tolist()
    return [(case, abs(value - moment), 1e-7)
            for (case, value), moment in zip(cases, moments)]


def _suite_product(_grid):
    cases = []
    for p, q in ((2.0, 2.0), (2.0, 4.0), (3.0, 1.5)):
        target = 0.5 * gtf.pi_pq(p, q)
        partial = integrals.pi_product_partial(p, q, 100_000)
        cases.append((f"product p={p} q={q} N=1e5", abs(partial - target), 1e-3))
    return cases


def _suite_elliott(_grid):
    cases = [("elliott classical p=q=r=2 k=0.5",
              integrals.elliott_residual(2.0, 2.0, 2.0, 0.5), 1e-9)]
    for p, q in ((1.5, 2.0), (2.0, 3.0), (2.0, 2.0), (2.5, 4.0), (1.5, 1.5)):
        for r, k in ((2.0, 0.3), (3.0, 0.7)):
            resid = integrals.elliott_residual(p, q, r, k)
            cases.append((f"elliott p={p} q={q} r={r} k={k}", resid, 1e-7))
    return cases


def _suite_bvp(grid):
    cases = []
    lengths, fractions = (1.0, 2.5), np.arange(1, 10) / 10.0
    ode, phase, bc = bvp.general_checks(*(v[..., 0] for v in _pairs(grid)), lengths, fractions)
    ode, phase, bc = (v.reshape(-1, len(lengths)).tolist()
                      for v in (ode.max(axis=-1), phase.max(axis=-1), bc))
    # the bounds of general_checks: the travel time's, the oracle's tol
    # 1e-13 on each beta value, relative, is at most 2e-13 of x/H, plus a
    # few roundings of x/H and of the inversion; U's, 3 F 1e-13 |u| for the
    # oracle plus F times 4 eps |u| of rounding (eps = 2^-52), with F |u| <= 4 H
    for (_, _, pq), o, f, b in zip(_named(grid), ode, phase, bc):
        for k, H in enumerate(lengths):
            cases.append((f"bvp ode {pq} H={H}", o[k], 1e-12))
            cases.append((f"bvp phase {pq} H={H}", f[k], 4.0 * H * (3e-13 + 4.0 * 2.0**-52)))
            cases.append((f"bvp boundary {pq} H={H}", b[k], 1e-10))
    # the closure's bound (nonlocal_mean_square_slope): the oracle's tol
    # 1e-13 relative to m^2 / 2, absolute where that is below 1, is at
    # most 8e-13 of m^2 here (m = 0.5, H = 1), plus a few roundings of m^2
    ms = np.array([0.5, 1.0, 2.0])
    closure = np.abs(bvp.nonlocal_mean_square_slope(1.0, ms) - ms**2) / ms**2
    cases += [(f"bvp nonlocal closure m={m}", c, 1e-12)
              for m, c in zip(ms.tolist(), closure.tolist())]
    xs = np.linspace(0.0, 1.0, 21)
    u = bvp.solve_pq_equal(np.array(grid)[:, None])(np.concatenate((xs, 1.0 - xs)))
    sym = np.abs(u[:, :xs.size] - u[:, xs.size:]).max(axis=1)
    cases += [(f"bvp pq-equal symmetry p={p}", s, 1e-11) for p, s in zip(grid, sym.tolist())]
    return cases


_SUITES = {
    "pythagorean": _suite_pythagorean,
    "appendix": _suite_appendix,
    "wallis": _suite_wallis,
    "product": _suite_product,
    "elliott": _suite_elliott,
    "bvp": _suite_bvp,
}
SUITES = tuple(_SUITES)


def run(name: str, grid) -> list:
    """The cases of suite `name` (one of SUITES, in the order ``--suite all``
    runs them) at the pairs of grid, the values p and q each take (a GRIDS
    entry), in the order ``gentrig verify`` prints them.  DomainError, before
    any suite runs, for an unknown suite, or a grid that is not a nonempty
    sequence of numbers in (1, inf), naming the suite or the value."""
    if not isinstance(name, str) or name not in _SUITES:  # hashes no list
        raise DomainError(f"unknown verify suite {name!r}; the suites are {', '.join(SUITES)}")
    if not len(grid):
        raise DomainError("a verify grid needs at least one value")
    for v in grid:
        try:
            check_pq(v, v)  # a number, and NaN fails
        except DomainError:
            raise DomainError(f"verify grid value {v} is not in (1, inf)") from None
    return _SUITES[name](grid)
