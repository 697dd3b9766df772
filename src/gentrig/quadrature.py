"""Independent integration oracle: tanh-sinh (double-exponential) quadrature.

The substitution x = tanh((pi/2) sinh t) maps (-1, 1) to the real line and
turns algebraic endpoint singularities with exponent > -1 into a transformed
integrand that decays double-exponentially, so the trapezoidal rule in t
converges geometrically.  Interval halving of the step gives an a-posteriori
error estimate for free.

The integrand is called once per refinement level, on the nodes of both
half-axes together (level 0's call also holds the centre), and the level
is summed by one reduction per half-axis, so the Python overhead is paid a
handful of times per integral; f must act elementwise on its array of nodes.

One call can integrate a batch of integrands that share the nodes: each
is refined until it alone meets the tolerance, and the others stop being
evaluated once they have.  A lone integrand is a batch of one row, and the
reduction sums each row alone, the same way for any number of rows, so a
batch gives every integrand the same value, bit for bit, as a call of its
own.  power_moments uses this to take the Wallis moments of any number of
(p, q, flavor) specs, the whole verify grid included, in one pass with one
integrand, one spec being a batch like any other.  It checks its specs and
groups their rows into distinct (base, exponent) powers once per batch, so
its integrand's cost per level grows with those powers, not with its rows
or specs.  It refuses exponents whose endpoint mass lies beyond the
outermost node (see _edge_share), as integrate_singular_beta does.

This module must not import gtf, integrals or bvp: it is the independent side
of every closed-form-versus-quadrature check in the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceError, check_pq

# Truncation of the transformed axis.  At t = 6 the node weight is below
# 1e-17 even against an endpoint singularity as strong as t^(-0.9).
_T_MAX = 6.0
_MAX_LEVEL = 12
_MIN_OFFSET = 5e-300  # skip nodes whose endpoint distance underflows
# distance of the outermost node, at t = _T_MAX, from an end of [-1, 1]
_EDGE = 2.0 / (1.0 + math.exp(math.pi * math.sinh(_T_MAX)))

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class QuadResult:
    """value and err_estimate are floats for one integrand and arrays of
    shape (m,) for a batch of m; evaluations counts the nodes passed to
    the integrand, summed over the rows of a batch."""

    value: float | np.ndarray
    err_estimate: float | np.ndarray
    evaluations: int


@functools.lru_cache(maxsize=None)
def _level_nodes(level: int):
    """Weights and endpoint distances of the nodes added at ``level``.

    The trapezoidal step is h = 2**-level; level 0 contributes all integer
    t >= 0, later levels the odd multiples of h.  Returns (w, delta) for the
    positive half-axis, where delta = 1 - tanh((pi/2) sinh t) is the node's
    distance from the endpoint of the reference interval [-1, 1].

    Cached on first use (all levels together hold about 0.4 MB); the arrays
    are shared by every call and therefore read-only.
    """
    h = 2.0 ** (-level)
    if level == 0:
        t = np.arange(0, int(_T_MAX / h) + 1) * h
    else:
        t = np.arange(1, int(_T_MAX / h) + 1, 2) * h
    u = 0.5 * np.pi * np.sinh(t)
    w = 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    with np.errstate(over="ignore"):
        delta = 2.0 / (1.0 + np.exp(2.0 * u))
    w.flags.writeable = False
    delta.flags.writeable = False
    return w, delta


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    dist: bool = False,
) -> QuadResult:
    """Integrate f over [a, b] with a certified interval-halving estimate.

    f is called with a numpy array of abscissas and must return an array of
    the same shape.  With dist=True it is instead called as f(x, da, db)
    where da = x - a and db = b - x are endpoint distances computed without
    cancellation; use this for integrands singular at an endpoint that need
    the distance to far better than machine epsilon of the interval length.
    In plain mode, nodes closer to a nonzero endpoint than one ulp round
    onto it and are dropped, neither evaluated nor counted, which caps the
    achievable accuracy near 1e-8 for an inverse-square-root singularity
    at such an endpoint (singularities at an endpoint equal to 0 are
    unaffected).  f is called once per refinement level, with the nodes of
    both half-axes in one array (level 0's call starts with the centre of
    [a, b]); it must act elementwise, so that a node's value does not
    depend on its neighbours.

    A batch of m integrands on the same nodes is one f that returns shape
    (m, len(x)).  Its first call asks for every row; that shape fixes m.
    Every later call passes the keyword ``rows``, the ascending indices of
    the integrands still refining, and wants shape (len(rows), len(x)).
    Each row stops at the level where it would stop alone, with the same
    arithmetic, so its value and error estimate equal those of a
    single-integrand call bit for bit; ``value`` and ``err_estimate`` are
    then arrays of shape (m,) and ``evaluations`` the total over the rows.
    An empty interval returns 0.0 whatever f is.

    Raises DomainError unless a <= b are finite and 0 < tol < inf, if
    [a, b] is too narrow for the node table (width below
    2 _MIN_OFFSET / min(tol, 1), 1e-289 at the default tolerance), both
    before f is called; and ToleranceError (carrying the best estimates)
    if the halving disagreement of some integrand does not fall below tol
    within the budget of _MAX_LEVEL + 1 levels, 49 153 evaluations per
    integrand where no node is skipped or dropped.  The width rule checks
    the share of the rule's weight on the nodes skipped near the endpoints,
    not the error: an integrand singular at an endpoint has more of its
    mass there (power_moments and integrate_singular_beta check that
    mass).
    """
    # written so that NaN fails each test
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if not -math.inf < a <= b < math.inf:
        raise DomainError(f"need finite limits a <= b, got [{a}, {b}]")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    halfw = 0.5 * (b - a)
    width = b - a
    # the nodes skipped for lying within _MIN_OFFSET of an endpoint carry the
    # share _MIN_OFFSET / halfw of the rule's weight; more than tol of it (or
    # all of it, the centre node included) cannot be certified.  A share of
    # the weight, not an error bound: t^(e-1) leaves (_MIN_OFFSET/halfw)^e of
    # its mass there, and being relative the rule also rejects widths whose
    # result met the stopping test, which is absolute while |est| < 1
    if _MIN_OFFSET > min(tol, 1.0) * halfw:
        raise DomainError(
            f"interval width {width:g} is too narrow for tolerance {tol:g}: "
            f"the nodes skipped within {_MIN_OFFSET:g} of an endpoint carry "
            f"more than that share of the rule's weight")

    nev = 0  # integrand values per row so far
    for level in range(_MAX_LEVEL + 1):
        w, delta = _level_nodes(level)
        off = delta * halfw
        keep = off >= _MIN_OFFSET
        w, off = w[keep], off[keep]
        cols = []
        if level == 0:
            # t = 0 sits at the interval centre, shared by both half-axes; it
            # heads level 0's call, whose shape fixes the number of rows
            xc = b - off[:1]
            cols.append((xc, xc - a, off[:1]) if dist else (xc,))
            wc, w, off = w[0], w[1:], off[1:]
        x_hi, x_lo = b - off, a + off
        if dist:
            rest = width - off
            cols += [(x_hi, rest, off), (x_lo, off, rest)]
            w_hi = w_lo = w
        else:
            # without exact endpoint distances, drop nodes that round onto
            # an endpoint: f may be singular exactly there
            m_hi = x_hi != b
            m_lo = x_lo != a
            cols += [(x_hi[m_hi],), (x_lo[m_lo],)]
            w_hi, w_lo = w[m_hi], w[m_lo]
        # the level's nodes in one call, split back by position below
        x, *args = (np.concatenate(c) for c in zip(*cols))
        if level == 0:
            y = np.asarray(f(x, *args), dtype=float)
            batch = y.ndim == 2
            m = len(y) if batch else 1
            # results of every row, filled in as rows stop
            value = np.full(m, np.nan)
            err = np.full(m, np.inf)
            evals = np.zeros(m, dtype=int)
            # the rows still refining: their indices, sums of w_j * f(x_j)
            # over all nodes seen so far, latest estimates and disagreements
            live = np.arange(m)
            est, diff = value, err  # rebound, never written through
        else:
            y = np.asarray(f(x, *args, rows=live) if batch else f(x, *args),
                           dtype=float)
        shape = (len(live), len(x))
        y = y if y.shape == shape else np.broadcast_to(y, shape)
        if level == 0:
            raw = wc * y[:, 0] + 0.0  # as a sum from 0.0: -0.0 becomes 0.0
            y = y[:, 1:]
        # one reduction a half-axis sums each row as a lone call would
        n_hi = len(w_hi)
        raw += (y[:, :n_hi] * w_hi).sum(axis=1) + (y[:, n_hi:] * w_lo).sum(axis=1)
        nev += len(x)

        h = 2.0 ** (-level)
        est, prev = h * halfw * raw, est
        if level < 2:
            continue
        diff = np.abs(est - prev)
        done = np.isfinite(est) & (diff <= tol * np.maximum(1.0, np.abs(est)))
        if done.any():
            stop = live[done]
            value[stop] = est[done]
            err[stop] = np.maximum(diff[done], np.abs(est[done]) * 1e-16)
            evals[stop] = nev
            go = ~done
            live, raw, est, diff = live[go], raw[go], est[go], diff[go]
        if not len(live):
            return _result(batch, value, err, evals)

    # every level ran: the rows in live failed with their latest estimates
    value[live], err[live], evals[live] = est, diff, nev
    where = _rows_where(live.tolist(), len(value)) if batch else ""
    levels = _MAX_LEVEL + 1
    raise ToleranceError(
        f"quadrature: tolerance {tol:g} not met{where} after {levels} levels, "
        f"{nev} evaluations per integrand, of a budget of {levels} levels",
        _result(batch, value, err, evals), layer="quadrature", levels=levels,
        evaluations=nev, budget=levels, rows=tuple(live.tolist()) if batch else None)


def _result(batch, value, err, evals):
    if batch:
        return QuadResult(value, err, int(evals.sum()))
    return QuadResult(value[0], err[0], int(evals[0]))


def _rows_where(rows, m):
    return f" in rows {rows} of {m}"


def _edge_share(k: float, width: float) -> float:
    """The share of the mass of the endpoint factor u^k (u the distance
    from that endpoint, k > -1) that lies, on an interval of this width,
    nearer the endpoint than the outermost node.

    The nodes stop at the offset c = max(_MIN_OFFSET, _EDGE width/2) from
    each endpoint, about 7e-276 on [0, 1]; the factor's mass within c of
    the endpoint is c^(k+1)/(k+1) of width^(k+1)/(k+1), and no refinement
    sees it, so the stopping test can pass with that much missing.
    """
    edge = max(_MIN_OFFSET, _EDGE * 0.5 * width)
    return (edge / width) ** (k + 1.0)


def _check_edge_mass(k: float, width: float, tol: float, what: str):
    """DomainError if the endpoint factor u^k has more than the share tol
    of its mass beyond the outermost node (see _edge_share)."""
    share = _edge_share(k, width)
    if share > tol:
        raise DomainError(
            f"{what}: the endpoint factor u^{k:g} has the share {share:.2g} "
            f"of its mass beyond the outermost node, more than tol {tol:g}")


def integrate_singular_beta(a_exp: float, b_exp: float, upper: float) -> QuadResult:
    """Oracle for beta-type integrals: int_0^upper t^(a-1) (1-t)^(b-1) dt.

    Evaluates the integrand from exact endpoint distances, so both exponents
    may sit close to 0 without precision loss near t = 0 or 1.  Raises
    DomainError for exponents outside (0, inf) or upper outside [0, 1], and
    where an endpoint factor has more than 1e-12 of its mass beyond the
    outermost node (an exponent near 0, or a tiny upper limit).
    """
    # written so that NaN fails the test
    if not (0.0 < a_exp < math.inf and 0.0 < b_exp < math.inf):
        raise DomainError(
            f"beta exponents must be positive and finite, got ({a_exp}, {b_exp})")
    if not 0.0 <= upper <= 1.0:
        raise DomainError("upper limit must lie in [0, 1]")
    if upper == 0.0:
        return QuadResult(0.0, 0.0, 0)

    gap = 1.0 - upper
    tol = 1e-12
    _check_edge_mass(a_exp - 1.0, upper, tol, "integrate_singular_beta")
    if gap == 0.0:
        _check_edge_mass(b_exp - 1.0, upper, tol, "integrate_singular_beta")

    def f(x, da, db):
        return da ** (a_exp - 1.0) * (gap + db) ** (b_exp - 1.0)

    return integrate(f, 0.0, upper, tol=tol, dist=True)


# exponents that numpy's power takes by a special case (reciprocal, sqrt,
# square) when given as a scalar or a one-element array, and by pow when
# given in an array of several rows: the two differ in the last ulp on a
# few percent of points
_FAST_POWERS = (-1.0, 0.5, 2.0)


def power_moments(specs, tol: float = 1e-10) -> QuadResult:
    """Oracle for the half-period moments int_0^{pi_pq/2} sin_pq^e dt
    (flavor "sin") and int_0^{pi_pq/2} cos_pq^e dt (flavor "cos"): every
    moment of a list of specs (p, q, flavor, exponents) in one batched
    integration.  The QuadResult has one row per exponent, spec after spec,
    each equal bit for bit to a call of its own spec with that exponent
    alone.

    The substitution s = sin_pq turns the moments into
    int_0^1 s^e (1-s^q)^(-1/p) ds ("sin") and int_0^1 (1-s^q)^((e-1)/p) ds
    ("cos"), whose endpoint factors are exact in distance form; the floors
    keep negative powers finite at zero-weight nodes.  Each row is a power
    of its base (s, or the tail 1 - s^q of its q) times a factor, another
    such power: tail^(-1/p) for a sine row, s^0 = 1.0 exactly for a cosine
    row.  Per batch the rows' powers and factors are grouped once into the
    distinct (base, exponent) powers, 132 for verify's 375 rows on the full
    grid, with each row's index into them; the grouping is redone only
    when rows stop.  Per node set the integrand then takes one log1p, one
    expm1 for the tails of the live rows' q, one broadcast power for all
    their distinct powers, each power whose exponent is in _FAST_POWERS
    again with a Python float (numpy's special cases, so that no moment
    depends on its batch), and two row gathers and a product.

    Needs each flavor "sin" or "cos", p, q in (1, inf) and every exponent
    finite with e > -1 ("sin") or e > 1 - p ("cos"), where the integral
    converges, given as a number or a 1-D sequence; DomainError otherwise,
    NaN included, and also where an endpoint factor has more than the share
    tol of its mass beyond the outermost node (e near -1, or p near 1).
    The checks run over all specs as arrays; the error names the first
    failing spec and its first failing check, as _check_spec does.  A
    ToleranceError names the first failing spec and its own failing rows;
    its ``rows`` are indices into the whole batch.
    """
    # one row an exponent; a spec of more dimensions gets a NaN row, which fails
    flat = [x.reshape(-1) if x.ndim < 2 else np.full(1, np.nan)
            for x in (np.asarray(s[3], dtype=float) for s in specs)]
    sizes = [len(x) for x in flat]
    spec = np.repeat(np.arange(len(flat)), np.array(sizes, dtype=int))
    e = np.concatenate([np.empty(0)] + flat)
    p, q = pq = np.array([s[:2] for s in specs], dtype=float).reshape(-1, 2).T
    sin, cos = (np.array([s[2] == f for s in specs], dtype=bool)
                for f in ("sin", "cos"))
    # written so that NaN fails the test
    if not ((sin | cos) & (pq.min(axis=0) > 1.0) & (pq.max(axis=0) < math.inf)).all():
        for s in specs:
            _check_spec(*s, tol)

    # row i is bases[b] ** k * bases[b2] ** k2, where bases[0] = s and
    # bases[1 + j] is the tail of qs[j]: its power (b, k) is (0, e) ("sin")
    # or (1 + j, (e-1)/p) ("cos"), its factor (b2, k2) is (1 + j, -1/p)
    # ("sin") or (0, 0), exactly 1.0 ("cos")
    qs, spec_q = np.unique(q, return_inverse=True)
    rsin, tail, rp = sin[spec], 1 + spec_q[spec], p[spec]
    power = np.where(rsin, e, (e - 1.0) / rp)
    factor = np.where(rsin, -1.0 / rp, 0.0)
    # rows out of range or with too much endpoint mass, give or take a
    # rounding error: _check_spec decides, spec by spec
    kmin = np.maximum(np.minimum(power, factor), -1.0)
    least = np.where(sin, -1.0, 1.0 - p)[spec]
    bad = ~((e > least) & (e < math.inf)) | (_edge_share(kmin, 1.0) > tol * (1 - 1e-9))
    for j in np.unique(spec[bad]).tolist():
        _check_spec(*specs[j], tol)
    # the distinct powers, as b + 1j k sorted by base, then exponent
    keys, at = np.unique(np.concatenate([np.where(rsin, 0, tail), np.where(rsin, tail, 0)])
                         + 1j * np.concatenate([power, factor]), return_inverse=True)
    kb, kp, row_keys = keys.real.astype(int), keys.imag, at.reshape(2, -1)
    fast = np.any(kp[:, None] == _FAST_POWERS, axis=1)

    def group(rows):
        """The bases and powers that these rows use, and the index of each
        row's power and factor among those powers."""
        used, index = np.unique(row_keys[:, rows].reshape(-1), return_inverse=True)
        tails = np.unique(kb[used])
        again = [(i, kb[u], kp[u]) for i, u in enumerate(used.tolist()) if fast[u]]
        return tails[tails > 0], kb[used], kp[used, None], again, index.reshape(2, -1)

    groups = {}  # by the number of live rows, which only ever shrinks

    def f(s, da, db, rows=np.arange(len(e))):
        tails, b, k, again, (pw, fc) = (
            groups.get(len(rows)) or groups.setdefault(len(rows), group(rows)))
        bases = np.empty((len(qs) + 1, len(s)))
        bases[0] = np.maximum(s, 5e-324)
        bases[tails] = np.maximum(-np.expm1(qs[tails - 1, None] * np.log1p(-db)), 5e-324)
        table = bases[b] ** k
        for i, bi, ki in again:  # a fast power, taken again with a Python float
            table[i] = bases[bi] ** ki
        y = table.take(pw, axis=0)
        y *= table.take(fc, axis=0)
        return y

    with np.errstate(divide="ignore"):
        try:
            return integrate(f, 0.0, 1.0, tol=tol, dist=True)
        except ToleranceError as exc:
            raise _name_spec(exc, specs, sizes) from None


def _check_spec(p, q, flavor, exponent, tol):
    """DomainError for the first fault of one power_moments spec: its
    flavor, p and q, its exponents' shape and range, then the mass of each
    singular endpoint factor beyond the outermost node."""
    if flavor not in ("sin", "cos"):
        raise DomainError(f"flavor must be 'sin' or 'cos', got {flavor!r}")
    check_pq(p, q)
    exps = np.asarray(exponent, dtype=float)
    least = -1.0 if flavor == "sin" else 1.0 - p
    # written so that NaN fails the test
    if exps.ndim > 1 or not ((exps > least) & (exps < math.inf)).all():
        raise DomainError(
            f"{flavor} moment exponents must be finite and > {least:g}, "
            f"given as a number or a 1-D sequence; got {exponent!r}")
    # s^e at s = 0 and tail^(-1/p) at s = 1 ("sin"), or tail^((e-1)/p) at
    # s = 1 ("cos"); none for a spec without exponents
    lo = min(exps.reshape(-1).tolist(), default=math.inf)
    edge = [lo, -1.0 / p] if flavor == "sin" else [(lo - 1.0) / p]
    for k in edge if lo < math.inf else []:
        _check_edge_mass(k, 1.0, tol,
                         f"power_moments p={p:g} q={q:g} flavor={flavor}")


def _name_spec(exc, specs, sizes):
    """exc, a ToleranceError of power_moments, naming the first failing
    spec and that spec's failing rows counted within the spec."""
    starts = np.cumsum([0] + sizes)
    k = int(np.searchsorted(starts, exc.rows[0], side="right")) - 1
    p, q, flavor, _ = specs[k]
    own = [r - int(starts[k]) for r in exc.rows if starts[k] <= r < starts[k + 1]]
    where = f" for p={p:g} q={q:g} flavor={flavor}" + _rows_where(own, sizes[k])
    message = str(exc).replace(_rows_where(list(exc.rows), int(starts[-1])),
                               where)
    return ToleranceError(message, exc.result, layer=exc.layer,
                          levels=exc.levels, evaluations=exc.evaluations,
                          budget=exc.budget, rows=exc.rows)
