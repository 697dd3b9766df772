"""Seeded inputs, timed rounds and output checks for the three workloads.

Every workload is a closed loop from one process: the next call starts when
the previous one has returned.  A run repeats *rounds*, a fixed number of
them sized from ``--seconds`` by the workload's nominal round time
``round_s`` (the wall time of one round, checks included, at the machine's
usual speed; see worker.py).  On gtf_eval and closed_forms each round draws
fresh inputs from ``(seed, round)``, so the same seed gives the same inputs
and no round repeats the arguments of another (a memo of whole results would
otherwise pass for a speed-up); verify_full has no inputs.  Input generation
and output checks happen between timed calls.

Workloads, and why each was chosen:

- ``verify_full``: ``gentrig verify --suite all --grid full`` in-process, the
  paper-reproduction run.  Its cost is bvp (FD residuals making scalar
  sin/cos calls), the quadrature oracle and cli formatting.
- ``gtf_eval``: the plain library user, calling sin_pq, cos_pq, asin_pq and
  pi_pq at seeded (p, q) pairs, scalar calls next to 1e3- and 1e6-point array
  calls.  Never touches bvp, quadrature or hyp2f1.
- ``closed_forms``: an even-spread mix of calls into ``integrals`` whose cost
  grows with n and with 1/(1-x); specfun and integrals do the work.  Inputs
  inside the documented domain on which the program raises or returns a
  wrong value stay in the mix and count as failed operations.

All comparisons against references use one relative tolerance, REL_TOL,
chosen before measuring: 1e-9 is about 4.5e6 double-precision ulps, room for
the rounding of O(n) products at n = 1e6 (~n*eps = 2e-10) and nothing more.
The Elliott residual is held to its verify-suite tolerance, ELLIOTT_TOL.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import time

import numpy as np

from calibrate import calibration_seconds, scale

REL_TOL = 1e-9
STRETCH_SAMPLES = 500  # latencies per stretch for per-stretch figures
SCALAR_TAIL_PCT = 95.0
ELLIOTT_TOL = 1e-7

VERIFY_ARGV = ["verify", "--suite", "all", "--grid", "full"]
VERIFY_CASES = 597

_now = time.perf_counter_ns


class Tally:
    """Operation counts, timings and check results of one phase of a run.

    Timings are collected raw for a stretch of work and scaled to reference
    machine speed when the stretch ends (``checkpoint``), from calibration
    runs at both of its ends (see calibrate.py).
    """

    def __init__(self, calibrated=True):
        self.attempted = 0
        self.failed = 0  # raised, non-finite, or outside tolerance
        self.wrong = 0  # the verify run reported a failure
        self.work = 0  # throughput numerator (cases, points or queries)
        self.busy_s = 0.0  # scaled time spent on that work
        self.latency_s = []  # scaled, one entry per timed operation
        self.worst = 0.0  # max error / tolerance over outputs that passed
        self.errors = {}  # failure kind -> count
        self.pending = []  # results whose check runs after the timed loop
        self.scales = []  # calibration factor of each stretch
        self.stretch_ends = []  # len(latency_s) at the end of each stretch
        self._stretch = ([], [0])  # raw latencies and busy time, in ns
        self._cal = calibration_seconds() if calibrated else None

    def note(self, kind):
        self.errors[kind] = self.errors.get(kind, 0) + 1

    def call(self, fn, *args):
        """Time fn(*args); return (value or None on exception, elapsed ns)."""
        t0 = _now()
        try:
            value = fn(*args)
        except Exception as exc:  # any program failure is a failed operation
            elapsed = _now() - t0
            self.note(type(exc).__name__)
            return None, elapsed
        return value, _now() - t0

    def record(self, elapsed_ns, latency=True, busy=True):
        """Count one timed operation as a latency sample and/or busy time."""
        if latency:
            self._stretch[0].append(elapsed_ns)
        if busy:
            self._stretch[1][0] += elapsed_ns

    def checkpoint(self):
        """End the current stretch: scale its timings to reference speed."""
        lat, busy = self._stretch
        if self._cal is None:
            factor = 1.0
        else:
            cal = calibration_seconds()
            factor = scale(self._cal, cal)
            self._cal = cal
        self.scales.append(factor)
        self.latency_s.extend(v * factor / 1e9 for v in lat)
        if lat:
            self.stretch_ends.append(len(self.latency_s))
        self.busy_s += busy[0] * factor / 1e9
        self._stretch = ([], [0])

    def judge(self, ratio, ops=1):
        """Record one output check covering ``ops`` operations.

        ratio is error / tolerance.  A non-finite ratio (a NaN or infinite
        result) or a ratio above 1 fails the operations; the worst ratio is
        taken over outputs that passed.
        """
        ratio = float(ratio)
        if not math.isfinite(ratio):
            self.failed += ops
            self.note("non-finite result")
        elif ratio > 1.0:
            self.failed += ops
            self.note("outside tolerance")
        else:
            self.worst = max(self.worst, ratio)

    def metrics(self):
        lat_us = np.asarray(self.latency_s) * 1e6
        parts = np.split(lat_us, self.stretch_ends[:-1])
        if min(part.size for part in parts) >= STRETCH_SAMPLES:
            # gtf_eval's scalar calls, in stretches that are each the same
            # mix of inputs: each latency figure is the lower quartile over
            # stretches of the stretch's figure.  A shared machine switches
            # within fractions of a second between a fast state and one
            # about 1.65x slower that the calibration does not fully undo;
            # the lower quartile is the figure of the fast state whenever a
            # quarter of the stretches ran in it, while a program change
            # moves every stretch alike.  The tail is p95: a scalar call
            # costs 15-20 us whatever its inputs, and beyond p95 its latency
            # is that of the other tenants (in three runs of one seed the
            # p99 read 28, 33 and 36 us, the p95 22, 22.5 and 23.5 us)
            mean = [np.exp(np.mean(np.log(part))) for part in parts]
            tail = [np.percentile(part, SCALAR_TAIL_PCT) for part in parts]
        else:  # one figure over the whole run
            mean = [np.exp(np.mean(np.log(lat_us)))]
            tail = [_tail(lat_us)]
        return {
            "ok_frac": 1.0 - self.failed / self.attempted,
            "throughput_per_s": self.work / self.busy_s,
            # the typical latency is the geometric mean, not the median: on
            # closed_forms the median sits where query costs are sparse
            # (about 3% apart per rank), and moved 11-30% between seeds
            "latency_us_gmean": float(np.percentile(mean, 25.0)),
            "latency_us_tail": float(np.percentile(tail, 25.0)),
        }


def _tail(lat):
    """The highest percentile with ten samples beyond it, at most the 99th:
    about p98 for the 648 queries and p74 for the 38 verify runs of a run at
    --seconds 25."""
    return np.percentile(lat, max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / lat.size))))


def _halfpi(p, q):
    """pi_pq / 2 = (1/q) B(1/p*, 1/q), computed without gentrig."""
    a, b = 1.0 - 1.0 / p, 1.0 / q
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)) / q


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _even(start, r, m):
    """Terms r*m .. r*m + m - 1 of the sequence start + k*golden (mod 1).

    Any number of rounds together cover [0, 1) evenly (a low-discrepancy
    sequence), so quantiles of a run's inputs, and of their costs, hardly
    depend on the seed or on how many rounds fit in the run.
    """
    return (start + np.arange(r * m, (r + 1) * m) * _GOLDEN) % 1.0


def _exponent(rng):
    """An exponent drawn uniformly from (1, 6]."""
    return 6.0 - 5.0 * rng.random()


def _pairs(rng, n):
    """n (p, q) pairs on (1, 6]^2, one in each row and in each column of an
    n x n grid (a Latin hypercube), so every seed spreads its pairs evenly."""
    p = 6.0 - 5.0 * (rng.permutation(n) + rng.random(n)) / n
    q = 6.0 - 5.0 * (rng.permutation(n) + rng.random(n)) / n
    return list(zip(p.tolist(), q.tolist()))


# ---------------------------------------------------------------- verify_full


_CASE = re.compile(r"  (.*): residual=(\S+) tol=(\S+) (ok|FAIL)$")


class VerifyFull:
    """``cli.main(verify --suite all --grid full)``, once per round.

    Latency is that of a whole verify run; throughput is cases per second;
    the margin is min over cases of tol / residual as printed.
    """

    name = "verify_full"
    round_s = 0.65
    tracer = None  # set for the traced phase; told the case count per round

    def __init__(self, seed, gentrig):
        del seed  # the verify grid is fixed; nothing to draw
        self.cli = gentrig.cli
        self.expected = None  # output of the last correct round
        self.expected_worst = 0.0
        self.cases_last_round = 0

    def run_round(self, tally, r):
        del r
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = _now()
            try:
                rc = self.cli.main(VERIFY_ARGV)
            except Exception as exc:
                rc = type(exc).__name__
            elapsed = _now() - t0
        tally.record(elapsed)
        self._check(tally, rc, buf.getvalue())
        if self.tracer is not None:
            self.tracer.cases = self.cases_last_round

    def _check(self, tally, rc, text):
        if rc == 0 and text == self.expected:
            tally.attempted += self.cases_last_round
            tally.work += self.cases_last_round
            tally.worst = max(tally.worst, self.expected_worst)
            return
        worst_before = tally.worst
        tally.worst = 0.0
        cases = [m for m in map(_CASE.match, text.splitlines()) if m]
        n = max(len(cases), VERIFY_CASES)
        tally.attempted += n
        tally.work += len(cases)
        tally.failed += n - len(cases)
        for m in cases:
            resid, tol = float(m.group(2)), float(m.group(3))
            if m.group(4) != "ok":
                tally.failed += 1
                tally.wrong += 1
                tally.note("verify case FAIL")
            else:
                tally.worst = max(tally.worst, resid / tol)
        self.cases_last_round = len(cases)
        self.expected_worst = tally.worst
        tally.worst = max(tally.worst, worst_before)
        suites_pass = text.count(" PASS max_residual=") == 6
        if rc == 0 and suites_pass and len(cases) == VERIFY_CASES:
            self.expected = text
        else:
            self.expected = None
            tally.wrong += 1
            tally.note(f"verify exit status {rc}")

    def finish(self, tally):
        del tally


# ---------------------------------------------------------------- gtf_eval

GTF_PAIRS = 16  # (2, 2), two with an exponent near 1, 13 spread over (1, 6]^2
BIG_PAIRS = 5  # further pairs, one per round in turn, for the 1e6-point calls
SCALAR_POINTS = 48  # per pair and round: 48 sin, 48 cos, 48 asin calls
# a round's scalar calls are split into this many stretches between
# calibrations, each with an equal share of every pair's points and one
# pi_pq call per pair, so that every stretch is the same mix of inputs: a
# shared machine switches within fractions of a second between a fast state
# and one about 1.65x slower, and a short stretch is more often in one state
SCALAR_STRETCHES = 4
SMALL_POINTS = 1_000
BIG_POINTS = 1_000_000


def _points(rng, n):
    """Fractions of pi_pq/2: half uniform on [0, 1), half log-spaced toward
    the right endpoint, 1 - u in [1e-9, 1)."""
    near = 1.0 - 10.0 ** (-9.0 * rng.random(n - n // 2))
    return rng.permutation(np.concatenate([rng.random(n // 2), near]))


class GtfEval:
    """Scalar and array calls of sin_pq, cos_pq, asin_pq and pi_pq.

    Pairs: the circular (2, 2), one with p near 1, one with q near 1, and 13
    spread over (1, 6]^2.  Each round makes, for every pair, scalar sin/cos
    calls at fresh points x, an asin call at each sine value, a few pi_pq
    calls and a 1e3-point array call of each function; then a 1e6-point call
    of each function at one of BIG_PAIRS further pairs, in turn.  (2, 2) is
    never in a 1e6-point call: scipy is about 30x faster there, and a
    shortcut for it must not pass for a general gain.  Throughput is array
    points per second; latency is that of one scalar call.

    Checks, per point: |cos^p + sin^q - 1| and the relative error of
    asin_pq(sin_pq(x)) against x, divided by the condition number
    max(1, s / (x c)) of the inverse at s = sin_pq(x), c = cos_pq(x).
    """

    name = "gtf_eval"
    round_s = 3.2

    def __init__(self, seed, gentrig):
        self.gtf = gentrig.gtf
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        near1 = 1.0 + 10.0 ** rng.uniform(-2.5, -1.0, size=2)
        self.pairs = [(2.0, 2.0), (float(near1[0]), _exponent(rng)),
                      (_exponent(rng), float(near1[1]))]
        self.pairs += _pairs(rng, GTF_PAIRS - 3)
        self.big = _pairs(rng, BIG_PAIRS)

    def run_round(self, tally, r):
        gtf = self.gtf
        rng = np.random.default_rng([self.seed, 1, r])
        halfpi = [_halfpi(p, q) for p, q in self.pairs]
        inputs = [(h * _points(rng, SCALAR_POINTS), h * _points(rng, SMALL_POINTS))
                  for h in halfpi]
        for part in range(SCALAR_STRETCHES):
            for (p, q), h, (xs, _) in zip(self.pairs, halfpi, inputs):
                for x in xs[part::SCALAR_STRETCHES].tolist():
                    self._triple(tally, p, q, x)
                value = self._scalar(tally, gtf.pi_pq, p, q)
                if value is not None:
                    tally.judge(abs(value / (2.0 * h) - 1.0) / REL_TOL)
            tally.checkpoint()
        for (p, q), (_, small) in zip(self.pairs, inputs):
            self._array(tally, p, q, small)
        p, q = self.big[r % BIG_PAIRS]
        tally.checkpoint()  # keep each 1e6-point call in a stretch of its own
        self._array(tally, p, q, _halfpi(p, q) * _points(rng, BIG_POINTS),
                    checkpoints=True)

    def _triple(self, tally, p, q, x):
        """Scalar sin and cos at x and asin at the sine value, checked."""
        gtf = self.gtf
        s = self._scalar(tally, gtf.sin_pq, p, q, x)
        c = self._scalar(tally, gtf.cos_pq, p, q, x)
        a = math.nan
        if s is not None and math.isfinite(s):
            a = self._scalar(tally, gtf.asin_pq, p, q, s)
        if s is not None and c is not None and a is not None:
            ops = 3 if math.isfinite(s) else 2
            tally.judge(_identity_ratio(p, q, x, s, c, a), ops)

    @staticmethod
    def _scalar(tally, fn, *args):
        """One timed scalar call; None if it raised."""
        value, elapsed = tally.call(fn, *args)
        tally.attempted += 1
        tally.record(elapsed, busy=False)
        tally.failed += value is None
        return value

    def _array(self, tally, p, q, xs, checkpoints=False):
        """sin, cos and asin-of-sin on one array; a bad point fails all three."""
        gtf = self.gtf
        out = []
        for fn in (gtf.sin_pq, gtf.cos_pq, gtf.asin_pq):
            arg = out[0] if fn is gtf.asin_pq else xs
            value, elapsed = tally.call(fn, p, q, arg) if arg is not None else (None, 0)
            out.append(value)
            tally.record(elapsed, latency=False)
            if checkpoints:
                tally.checkpoint()
        s, c, a = out
        tally.attempted += 3
        tally.work += 3 * xs.size
        if s is None or c is None or a is None:
            tally.failed += 3
            return
        tally.judge(float(np.max(_identity_ratio(p, q, xs, s, c, a))), 3)

    def finish(self, tally):
        del tally


def _identity_ratio(p, q, x, s, c, a):
    """max(|c^p + s^q - 1|, relative round-trip error / condition) / REL_TOL.

    The condition number of asin_pq at s is s / (x c): where c has
    underflowed to 0, asin_pq(s) cannot recover x and only the first
    identity is checked.  NaN in any value gives NaN.
    """
    with np.errstate(all="ignore"):
        x, s, c, a = (np.asarray(v, dtype=float) for v in (x, s, c, a))
        pyth = np.abs(c**p + s**q - 1.0)
        cond = np.maximum(1.0, s / (x * c))
        trip = np.where(x > 0, np.abs(a - x) / x, np.abs(a))
        trip = np.where(np.isinf(cond), 0.0, trip / cond)
        bad = np.isnan(s) | np.isnan(c) | np.isnan(a)
        return np.where(bad, np.nan, np.maximum(pyth, trip) / REL_TOL)


# ---------------------------------------------------------------- closed_forms

CF_PER_KIND = 6  # queries of each kind per round
CF_STRETCH = 12  # queries between calibrations
# (p, q) pool, the same for every seed: (2, 2) and the centres of a 5 x 5
# grid on (1, 6]^2.  Which pairs a seed drew moved the cost median by ~17%
# (hyp2f1 convergence near 1 depends on them), so seeds vary the sizes, the
# other parameters and the order, not the pairs.
_GRID = [1.0 + 5.0 * (i + 0.5) / 5 for i in range(5)]
CF_POOL = [(2.0, 2.0)] + [(p, q) for p in _GRID for q in _GRID]
_SPECIAL = ("sin_qn", "sin_qn_qm2", "sin_qn_qm1", "cos_pn", "cos_pn_2mp", "cos_pn_1")


class ClosedForms:
    """A shuffled mix of calls into ``integrals``.

    Per round and kind, CF_PER_KIND queries whose size parameter follows
    ``_even`` over its range: Wallis-type n and product N log-uniform in
    [1, 1e6); elliptic 1 - k^q log-uniform in (1e-6, 1]; the Elliott modulus
    k log-uniform in [1e-6, 0.5] for half the queries and 1 - k log-uniform
    in [1e-6, 0.5] for the other half; primitive 1 - x/(pi_pq/2)
    log-uniform in (1e-6, 1].  (p, q) come in turn from CF_POOL.

    Outputs are compared after the timed loop with mpmath references
    (beta/rf/gamma, hyp2f1, ellipk/ellipe, betainc) at 30 digits; queries
    that raised are failed operations and are not compared.
    """

    name = "closed_forms"
    round_s = 2.1

    def __init__(self, seed, gentrig):
        self.integrals = gentrig.integrals
        self.pair_cls = gentrig.gtf.ParamPair
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.pool = CF_POOL
        self.starts = rng.random((9, 3))  # sequence starts, per input kind

    def queries(self, r):
        m = CF_PER_KIND
        # u[kind][j]: round r's terms of the kind's j-th even sequence; j = 0
        # drives the size parameter, j = 1, 2 the other parameters
        u = [[_even(start, r, m) for start in row] for row in self.starts]
        ks = range(r * m, (r + 1) * m)  # global index of each query of a kind
        out = []
        turn = iter(range(r * 9 * m, (r + 1) * 9 * m))

        def pair():
            """The pool's pairs in turn, so every kind meets each equally."""
            return self.pool[next(turn) % len(self.pool)]

        def log_n(x):
            return int(10.0 ** (6.0 * x))

        for k, x, v in zip(ks, u[0][0], u[0][1]):
            p, q = pair()
            r_ = q - 1.0 if k % 4 == 0 else q - 1.0 - q * v
            out.append(("wallis_sin", (p, q, log_n(x), r_)))
        for k, x, v in zip(ks, u[1][0], u[1][1]):
            p, q = pair()
            r_ = 1.0 if k % 4 == 0 else 1.0 - p * v
            out.append(("wallis_cos", (p, q, log_n(x), r_)))
        for k, x in zip(ks, u[2][0]):
            p, q = pair()
            out.append(("wallis_special_cases", (p, q, log_n(x), _SPECIAL[k % 6])))
        for k, x in zip(ks, u[3][0]):
            out.append(("lemniscate_wallis", (log_n(x), k % 4)))
        for kind, seqs in (("elliptic_K", u[4]), ("elliptic_E", u[5])):
            for x, v in zip(seqs[0], seqs[1]):
                p, q = pair()
                kq = 1.0 - 10.0 ** (-6.0 * x)
                out.append((kind, (p, q, 6.0 - 5.0 * v, kq ** (1.0 / q))))
        for k, x, v in zip(ks, u[6][0], u[6][1]):
            p, q = sorted(pair())
            d = 10.0 ** (-6.0 + x * math.log10(0.5e6))
            kk = d if k % 2 else 1.0 - d  # k or 1 - k log-uniform in [1e-6, 0.5]
            if (k // 2) % 4 == 0:  # a quarter classical, on both sides
                out.append(("elliott_residual", (2.0, 2.0, 2.0, kk)))
            else:
                out.append(("elliott_residual", (p, q, 6.0 - 5.0 * v, kk)))
        for x, v, w in zip(*u[7]):
            p, q = pair()
            xx = _halfpi(p, q) * (1.0 - 10.0 ** (-6.0 * x))
            out.append(("primitive_sin_cos",
                        (p, q, -0.5 + 3.5 * v, 1.0 - 0.5 * p + 3.0 * w, xx)))
        for x in u[8][0]:
            p, q = pair()
            out.append(("pi_product_partial", (p, q, log_n(x))))
        order = np.random.default_rng([self.seed, 1, r]).permutation(len(out))
        return [out[i] for i in order]

    def _bind(self, kind, args):
        """The call a user would write for this query."""
        I = self.integrals
        if kind in ("wallis_sin", "wallis_cos"):
            p, q, n, r = args
            query = I.WallisQuery(self.pair_cls(p, q), n, r)
            return getattr(I, kind), (query,)
        if kind in ("elliptic_K", "elliptic_E"):
            p, q, r, k = args
            query = I.EllipticQuery(self.pair_cls(p, q), r, k)
            return getattr(I, kind), (query,)
        return getattr(I, kind), args

    def run_round(self, tally, r):
        for i, (kind, args) in enumerate(self.queries(r)):
            if i and i % CF_STRETCH == 0:
                tally.checkpoint()
            fn, call_args = self._bind(kind, args)
            value, elapsed = tally.call(fn, *call_args)
            tally.attempted += 1
            tally.work += 1
            tally.record(elapsed)
            if value is None:
                tally.failed += 1
            else:
                tally.pending.append((kind, args, value))

    def finish(self, tally):
        """Compare every returned value with its mpmath reference."""
        import mpmath  # after the timed loop: adds nothing to setup or RSS

        mpmath.mp.dps = 30
        for kind, args, value in tally.pending:
            if not math.isfinite(value):
                tally.judge(math.nan)
            elif kind == "elliott_residual":
                tally.judge(abs(value) / ELLIOTT_TOL)
            else:
                ref = _reference(mpmath, kind, args)
                err = abs(mpmath.mpf(value) - ref) / (abs(ref) or 1)
                tally.judge(err / REL_TOL)
        tally.pending.clear()


def _reference(mp, kind, args):
    """High-precision value of one closed-form query, independent of gentrig."""
    f = mp.mpf

    def beta_over_q(q, a, b):
        return mp.beta(a, b) / q

    if kind == "wallis_sin":
        p, q, n, r = map(f, args)
        return beta_over_q(q, (q * n + r + 1) / q, 1 - 1 / p)
    if kind == "wallis_cos":
        p, q, n, r = map(f, args)
        return beta_over_q(q, 1 / q, 1 + (p * n + r - 1) / p)
    if kind == "wallis_special_cases":
        p, q, n = map(f, args[:3])
        which = args[3]
        r = {"sin_qn": 0, "sin_qn_qm2": q - 2, "sin_qn_qm1": q - 1,
             "cos_pn": 0, "cos_pn_2mp": 2 - p, "cos_pn_1": 1}[which]
        if which.startswith("sin"):
            return beta_over_q(q, (q * n + r + 1) / q, 1 - 1 / p)
        return beta_over_q(q, 1 / q, 1 + (p * n + r - 1) / p)
    if kind == "lemniscate_wallis":
        n, res = args
        return beta_over_q(f(4), (4 * f(n) + res + 1) / 4, f(1) / 2)
    if kind in ("elliptic_K", "elliptic_E"):
        p, q, r, k = map(f, args)
        kq = k**q
        if p == q == r == 2:
            return mp.ellipk(kq) if kind == "elliptic_K" else mp.ellipe(kq)
        half = beta_over_q(q, 1 - 1 / p, 1 / q)
        c = 1 - 1 / p + 1 / q
        b = 1 / r if kind == "elliptic_K" else -(1 - 1 / r)
        return half * mp.hyp2f1(1 / q, b, c, kq)
    if kind == "primitive_sin_cos":
        p, q, k, l_, x = map(f, args)
        a, b = (k + 1) / q, 1 + (l_ - 1) / p
        head, y = _sin_power_q(mp, p, q, x)
        if head:  # y = sin_pq(x)^q
            return mp.betainc(a, b, 0, y) / q
        # y = 1 - sin_pq(x)^q: the complete integral minus its tail
        return (mp.beta(a, b) - mp.betainc(b, a, 0, y)) / q
    if kind == "pi_product_partial":
        p, q = map(f, args[:2])
        n = args[2]
        return (mp.rf(1, n) * mp.rf(1 + 1 / q - 1 / p, n)
                / (mp.rf(1 - 1 / p, n) * mp.rf(1 + 1 / q, n)))
    raise ValueError(f"no reference for {kind}")


def _sin_power_q(mp, p, q, x):
    """sin_pq(x)^q, or its complement, from the defining integral.

    With a = 1/q and b = 1/p*, x = (1/q) B_z(a, b) for z = sin_pq(x)^q, and
    pi_pq/2 - x = (1/q) B_y(b, a) for y = 1 - z.  Returns (True, z) when
    z <= 1/2 and (False, y) otherwise, so the unknown always lies in
    (0, 1/2] and is resolved to full relative precision however close
    sin_pq(x) is to 1.
    """
    a, b = 1 / q, 1 - 1 / p
    if x <= mp.betainc(a, b, 0, mp.mpf(1) / 2) / q:
        return True, _inverse_inc_beta(mp, a, b, q * x)
    return False, _inverse_inc_beta(mp, b, a, q * (mp.beta(a, b) / q - x))


def _inverse_inc_beta(mp, a, b, target):
    """u in [0, 1/2] with B_u(a, b) = target, by Newton's method in log u.

    On (0, 1/2] log B_u(a, b) is close to a log u + const, so the iteration
    starts from u = (a target)^(1/a) and converges in a few steps.
    """
    if target <= 0:
        return mp.mpf(0)
    half = mp.log(mp.mpf(1) / 2)
    t = min(mp.log(a * target) / a, half)
    for _ in range(100):
        u = mp.exp(t)
        value = mp.betainc(a, b, 0, u)
        slope = u**a * (1 - u) ** (b - 1) / value  # d log B_u / d log u
        step = (mp.log(value) - mp.log(target)) / slope
        t = min(t - step, (t + half) / 2 if t - step > half else t - step)
        if abs(step) < mp.mpf(10) ** (5 - mp.mp.dps):
            return mp.exp(t)
    raise ArithmeticError("inverse incomplete beta did not converge")


WORKLOADS = {w.name: w for w in (VerifyFull, GtfEval, ClosedForms)}
