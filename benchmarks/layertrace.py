"""Per-module tracing from outside the program.

``Tracer.install`` wraps every public function of the gentrig modules, in
every module namespace that binds it (``bvp`` holds its own ``sin_pq``, the
package holds another), and ``BvpSolution.__call__`` on its class.  Each call
records a span: name, layer (the defining module), parent span, start and
end, and a few work counts taken from its arguments or result.  Spans stay in
memory until the end of a round, when ``round_metrics`` turns them into the
per-layer figures and clears them.

A span's self time is its duration minus that of its direct children.  The
program is single-threaded and nothing runs concurrently, so no layer waits
on another and no wait times are reported.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

MODULES = ("specfun", "gtf", "integrals", "bvp", "quadrature", "cli")

_GTF_POINT_ARG = {  # gtf functions whose argument at this index is a point
    "sin_pq": 2, "cos_pq": 2, "asin_pq": 2, "extend_sin_symmetric": 1,
}
_RESIDUALS = {"residual_general", "residual_nonlocal"}
_WALLIS = {"wallis_sin", "wallis_cos", "wallis_special_cases", "lemniscate_wallis"}
_ELLIPTIC = {"elliptic_K", "elliptic_E", "elliott_residual"}
_PRIMITIVE = {"primitive_sin_cos", "definite_sin_cos", "primitive_finite_sum"}
_PRODUCT = {"product_factors", "pi_product_partial"}

# span record fields
NAME, LAYER, PARENT, START, END, WORK, FAILED = range(7)

COUNTERS = (
    "bvp.residual.calls", "bvp.solution.calls", "bvp.solution.points",
    "bvp.gtf_calls_per_residual", "gtf.scalar_calls", "gtf.vector_points",
    "gtf.pi_pq.calls", "specfun.hyp2f1.calls", "specfun.hyp2f1.failed",
    "specfun.beta.calls", "integrals.wallis.calls", "integrals.wallis.n_sum",
    "integrals.product.factors", "quadrature.integrate.calls",
    "quadrature.evaluations", "cli.cases",
)


SELF_TIMES = (
    "bvp.self_s", "bvp.residual.self_s", "gtf.self_s", "specfun.self_s",
    "specfun.hyp2f1.self_s", "specfun.beta.self_s", "integrals.self_s",
    "integrals.wallis.self_s", "integrals.elliptic.self_s",
    "integrals.primitive.self_s", "integrals.product.self_s",
    "quadrature.self_s", "cli.self_s", "cli.verify.self_s",
)


def _work(layer, name, args, result):
    """Work count of one call: points, n, N or evaluations; else 0."""
    if layer == "gtf" and name in _GTF_POINT_ARG and len(args) > _GTF_POINT_ARG[name]:
        x = args[_GTF_POINT_ARG[name]]
        return -1 if np.ndim(x) == 0 else int(np.size(x))  # -1 marks a scalar
    if layer == "bvp" and name == "BvpSolution.__call__":
        return int(np.size(args[1]))
    if layer == "integrals" and name in ("wallis_sin", "wallis_cos"):
        return int(args[0].n)
    if layer == "integrals" and name in ("wallis_special_cases",):
        return int(args[2])
    if layer == "integrals" and name == "lemniscate_wallis":
        return int(args[0])
    if layer == "integrals" and name == "product_factors":
        return int(args[2])
    if layer == "quadrature" and name == "integrate" and result is not None:
        return int(result.evaluations)
    return 0


class Tracer:
    """Wraps the program's public functions and collects spans per round."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.wrapped = {}  # id(original) -> wrapper
        self.restore = []  # (owner, attribute, original)
        self.cases = 0  # verify cases seen this round, set by the workload

    def _wrap(self, fn, layer, name):
        key = id(fn)
        if key in self.wrapped:
            return self.wrapped[key]
        spans, stack, now = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, stack[-1] if stack else -1, now(), 0, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = now()
                stack.pop()
                rec[WORK] = _work(layer, name, args, result)

        self.wrapped[key] = traced
        return traced

    def install(self, gentrig):
        """Wrap every public gentrig function wherever a module binds it."""
        modules = {m: getattr(gentrig, m) for m in MODULES}
        owners = [gentrig, *modules.values()]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if home not in modules:
                    continue
                self.restore.append((owner, attr, value))
                setattr(owner, attr, self._wrap(value, home, value.__name__))
        cls = modules["bvp"].BvpSolution
        call = cls.__call__
        self.restore.append((cls, "__call__", call))
        cls.__call__ = self._wrap(call, "bvp", "BvpSolution.__call__")

    def uninstall(self):
        for owner, attr, value in reversed(self.restore):
            setattr(owner, attr, value)
        self.restore.clear()

    def round_metrics(self, factor=1.0):
        """Per-layer figures of the spans recorded since the last call, with
        times multiplied by the calibration ``factor`` (calibrate.py)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        m = dict.fromkeys(COUNTERS, 0)
        times = dict.fromkeys(SELF_TIMES, 0)
        vec_ns = 0
        gtf_in_residual = 0
        residual_ids = set()
        for i, rec in enumerate(spans):
            name, layer, parent, work = rec[NAME], rec[LAYER], rec[PARENT], rec[WORK]
            self_ns = rec[END] - rec[START] - child_ns[i]
            times[f"{layer}.self_s"] += self_ns
            if layer == "bvp":
                if name in _RESIDUALS:
                    m["bvp.residual.calls"] += 1
                    times["bvp.residual.self_s"] += self_ns
                    residual_ids.add(i)
                elif name == "BvpSolution.__call__":
                    m["bvp.solution.calls"] += 1
                    m["bvp.solution.points"] += work
            elif layer == "gtf":
                if name == "pi_pq":
                    m["gtf.pi_pq.calls"] += 1
                if work < 0:
                    m["gtf.scalar_calls"] += 1
                elif work > 0:
                    m["gtf.vector_points"] += work
                    vec_ns += self_ns
                # a gtf call from outside gtf, under a residual span
                if parent >= 0 and spans[parent][LAYER] != "gtf":
                    j = parent
                    while j >= 0 and j not in residual_ids:
                        j = spans[j][PARENT]
                    gtf_in_residual += j >= 0
            elif layer == "specfun" and name in ("hyp2f1", "beta"):
                m[f"specfun.{name}.calls"] += 1
                times[f"specfun.{name}.self_s"] += self_ns
                if name == "hyp2f1":
                    m["specfun.hyp2f1.failed"] += rec[FAILED]
            elif layer == "integrals":
                for group, names in (("wallis", _WALLIS), ("elliptic", _ELLIPTIC),
                                     ("primitive", _PRIMITIVE), ("product", _PRODUCT)):
                    if name in names:
                        times[f"integrals.{group}.self_s"] += self_ns
                if name in _WALLIS:
                    m["integrals.wallis.calls"] += 1
                    m["integrals.wallis.n_sum"] += work
                elif name == "product_factors":
                    m["integrals.product.factors"] += work
            elif layer == "quadrature" and name == "integrate":
                m["quadrature.integrate.calls"] += 1
                m["quadrature.evaluations"] += work
            elif layer == "cli" and name == "cmd_verify":
                times["cli.verify.self_s"] += self_ns
        m["cli.cases"] = self.cases
        if m["bvp.residual.calls"]:
            m["bvp.gtf_calls_per_residual"] = gtf_in_residual / m["bvp.residual.calls"]
        for key, ns in times.items():
            m[key] = ns * factor / 1e9
        m["gtf.ns_per_vector_point"] = (
            vec_ns * factor / m["gtf.vector_points"] if m["gtf.vector_points"] else 0.0
        )
        spans.clear()
        self.cases = 0
        return m

