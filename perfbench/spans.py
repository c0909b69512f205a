"""Span recording around bandkern's public functions, from outside the package.

``Tracer.install`` replaces every public function of the traced modules in
every ``bandkern`` module namespace that holds a reference to it, including
the bindings made by ``from .x import y``.  bandkern calls these functions
through module globals, so the wrappers also see internal calls.  Spans
stay in memory until the benchmark ends.

A span is (name, start, end, parent, run, info); times are perf_counter
nanoseconds, ``parent`` is the index of the enclosing span or -1, ``run``
is the (pass, config) of the ``cli.run`` call the span belongs to, and
``info`` holds the few counts a probe extracts from arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

TRACED_MODULES = ("core", "basis_kernel", "recursion", "multiplier",
                  "decomposition", "cli")


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    run: Optional[tuple] = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


def _union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def busy_ns(spans: list, name: str) -> int:
    """Time inside calls to ``name``; nested calls count once."""
    return _union_length((s.start, s.end) for s in spans if s.name == name)


def self_ns(spans: list, name: str) -> int:
    """Time inside ``name`` not covered by its child spans."""
    children: dict = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    total = 0
    for i, s in enumerate(spans):
        if s.name == name:
            total += s.duration - _union_length(children.get(i, ()))
    return total


def _probe_estimate_norm(args, result):
    info = {"N": int(args[0].shape[0])}
    if result is not None:
        info["iters"] = int(result[0].iterations)
    return info


def _probe_section(args, result):
    info = {"N": int(args[0])}
    if result is not None:
        info["bytes"] = int(result.nbytes)
    return info


def _probe_kernel_eval(args, result):
    z, w, cfg = complex(args[0]), complex(args[1]), args[2]
    on_root = [any(abs(x - r) <= 1e-12 for r in cfg.roots) for x in (z, w)]
    info = {"root_pair": all(on_root)}
    if result is not None:
        info.update(terms=int(result.truncation_n), value=complex(result.value),
                    tail_bound=float(result.tail_bound))
    return info


def _probe_report(args, result):
    return {"N": int(max(args[2]))}


# Probes see the positional arguments and the result (None when the call
# raised); they must not call into bandkern.
PROBES = {
    "recursion.estimate_norm": _probe_estimate_norm,
    "recursion.c_section": _probe_section,
    "multiplier.mz_section": _probe_section,
    "basis_kernel.kernel_eval": _probe_kernel_eval,
    "recursion.containment_report": _probe_report,
    "multiplier.mz_norm_report": _probe_report,
}


class Tracer:
    """Installs and removes the wrappers and collects their spans."""

    def __init__(self):
        self.spans: list = []
        self.run: Optional[tuple] = None
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter_ns(),
                        parent=stack[-1] if stack else -1, run=self.run)
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if probe is not None:
                    span.info.update(probe(args, result))

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "bandkern" or n.startswith("bandkern.")) and m]
        for short in TRACED_MODULES:
            module = sys.modules[f"bandkern.{short}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapper)
                            self._patched.append((ns, key, fn))

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced passes
# ---------------------------------------------------------------------------

# name -> unit.  "X.s" is busy time inside calls to X, "X.self_s" that time
# minus the time covered by child spans, "X.calls" the number of calls and
# "X.bytes" the bytes of the arrays X returned.  Times are seconds per pass
# (median over traced passes); counts are per pass and repeat exactly.
LAYER_METRICS = {
    "recursion.estimate_norm.s": "s",
    "recursion.estimate_norm.calls": "count",
    "recursion.estimate_norm.iters": "count",
    "recursion.estimate_norm.doubling_ratio": "ratio",
    "recursion.c_section.s": "s",
    "recursion.c_section.bytes": "bytes",
    "recursion.containment_report.self_s": "s",
    "recursion.decay_rate_samples.s": "s",
    "recursion.product_norm.calls": "count",
    "recursion.mu_search.s": "s",
    "recursion.c_column.s": "s",
    "multiplier.mz_section.s": "s",
    "multiplier.mz_section.bytes": "bytes",
    "multiplier.mz_norm_report.self_s": "s",
    "multiplier.constant_expansion.s": "s",
    "multiplier.constant_sup_error.s": "s",
    "basis_kernel.kernel_eval.root_pair_s": "s",
    "basis_kernel.kernel_eval.root_pair_calls": "count",
    "basis_kernel.kernel_eval.root_pair_terms": "count",
    "basis_kernel.kernel_eval.interior_s": "s",
    "basis_kernel.kernel_eval.interior_terms": "count",
    "basis_kernel.kernel_eval.failed": "count",
    "basis_kernel.kernel_eval.certified_frac": "ratio",
    "basis_kernel.eval_f_prefix.s": "s",
    "basis_kernel.eval_f_prefix.calls": "count",
    "basis_kernel.h2_coeffs.s": "s",
    "decomposition.bp_apply.s": "s",
    "decomposition.bp_apply.calls": "count",
    "decomposition.taylor_to_basis.s": "s",
    "decomposition.taylor_to_basis.calls": "count",
    "decomposition.decompose.self_s": "s",
    "decomposition.reconstruct.self_s": "s",
    "decomposition.q_polynomial.s": "s",
    "decomposition.partial_gram.s": "s",
    "decomposition.measure_q_bound.s": "s",
    "core.beta_coefficients.calls": "count",
    "core.homogeneous_symmetric.s": "s",
    "core.louck_power_sum.s": "s",
    "cli.parse_config.s": "s",
    "cli.run.self_s": "s",
    "cli.series_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

KERNEL = "basis_kernel.kernel_eval"


def _generic(spans: list, metric: str):
    fn, _, kind = metric.rpartition(".")
    if kind == "s":
        return busy_ns(spans, fn) / 1e9
    if kind == "self_s":
        return self_ns(spans, fn) / 1e9
    if kind == "calls":
        return sum(1 for s in spans if s.name == fn)
    if kind == "bytes":
        return sum(s.info.get("bytes", 0) for s in spans if s.name == fn)
    raise KeyError(metric)


def _doubling_ratio(spans: list):
    """Median over cli.run calls of estimate_norm time at the largest
    truncation over the time at half of it; None when no call has both."""
    by_run: dict = {}
    for s in spans:
        if s.name == "recursion.estimate_norm":
            per_n = by_run.setdefault(s.run, {})
            per_n[s.info["N"]] = per_n.get(s.info["N"], 0) + s.duration
    ratios = [per_n[max(per_n)] / per_n[max(per_n) // 2]
              for per_n in by_run.values()
              if max(per_n) // 2 in per_n and per_n[max(per_n) // 2] > 0]
    return statistics.median(ratios) if ratios else None


def _kernel_calls(spans: list) -> list:
    """kernel_eval spans as (case index, order within its run, span)."""
    order: dict = {}
    out = []
    for s in spans:
        if s.name == KERNEL:
            k = order.get(s.run, 0)
            order[s.run] = k + 1
            out.append((s.run[1], k, s))
    return out


def _certified_frac(spans: list, cases: list, refs: list):
    """Share of kernel_eval calls whose value meets |value - reference| <=
    tail_bound <= tol; the k-th call of a run is the config's k-th pair."""
    calls = _kernel_calls(spans)
    if not calls:
        return None
    good = 0
    for case_idx, k, s in calls:
        if "raised" in s.info or "kernel" not in refs[case_idx]:
            continue
        tol = float(cases[case_idx].config["tolerance"])
        err = abs(s.info["value"] - refs[case_idx]["kernel"][k])
        good += err <= s.info["tail_bound"] <= tol
    return good / len(calls)


def pass_metrics(spans: list, cases: list, refs: list, series_bytes: int) -> dict:
    """Every per-layer metric except the tracing overhead, for one pass;
    None marks a ratio with nothing to divide."""
    kernel = [s for s in spans if s.name == KERNEL]
    roots = [s for s in kernel if s.info.get("root_pair")]
    inner = [s for s in kernel if not s.info.get("root_pair")]
    special = {
        "recursion.estimate_norm.iters":
            sum(s.info.get("iters", 0) for s in spans
                if s.name == "recursion.estimate_norm"),
        "recursion.estimate_norm.doubling_ratio": _doubling_ratio(spans),
        "basis_kernel.kernel_eval.root_pair_s": busy_ns(roots, KERNEL) / 1e9,
        "basis_kernel.kernel_eval.root_pair_calls": len(roots),
        "basis_kernel.kernel_eval.root_pair_terms":
            sum(s.info.get("terms", 0) for s in roots),
        "basis_kernel.kernel_eval.interior_s": busy_ns(inner, KERNEL) / 1e9,
        "basis_kernel.kernel_eval.interior_terms":
            sum(s.info.get("terms", 0) for s in inner),
        "basis_kernel.kernel_eval.failed":
            sum(1 for s in kernel if "raised" in s.info),
        "basis_kernel.kernel_eval.certified_frac":
            _certified_frac(spans, cases, refs),
        "cli.series_bytes": series_bytes,
    }
    out = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_frac":
            continue
        out[name] = special[name] if name in special else _generic(spans, name)
    return out


def per_layer(spans: list, cases: list, refs: list, untraced: list,
              traced: list) -> tuple:
    """(metrics, notes) over all traced passes.  Times are medians over the
    passes; counts come from the first pass and are checked to repeat."""
    by_pass: dict = {}
    for s in spans:
        by_pass.setdefault(s.run[0], []).append(s)
    rows = [pass_metrics(by_pass.get(i, []), cases, refs,
                         sum(len(run[3].encode()) for run in p))
            for i, p in enumerate(traced)]
    notes = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name == "trace.overhead_frac":
            wall = [sum(run[0] for run in p) for p in traced]
            base = [sum(run[0] for run in p) for p in untraced]
            metrics[name] = statistics.median(wall) / statistics.median(base) - 1.0
            continue
        values = [row[name] for row in rows]
        if values[0] is None:
            metrics[name] = 0.0
            notes[name] = "not exercised by this workload; reported as 0"
        elif unit == "s" or unit == "ratio":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                notes[name] = f"count differs between passes: {values}"
    return metrics, notes


def figures_at(spans: list, N: int, cases: list) -> dict:
    """Per-call medians (seconds) of the layers the ROADMAP baseline quotes,
    restricted to calls at truncation N, for a side-by-side comparison."""
    groups: dict = {}
    for s in spans:
        if s.info.get("N") != N and s.name != KERNEL:
            continue
        key = s.name
        if s.name == "recursion.estimate_norm":
            parent = spans[s.parent].name if s.parent >= 0 else "top level"
            key += f" (in {parent})"
        elif s.name == KERNEL:
            if not s.info.get("root_pair") or "raised" in s.info:
                continue
            key += f" (root pair, tol {cases[s.run[1]].config['tolerance']:g})"
        groups.setdefault(key, []).append(s)
    out = {}
    for key, group in sorted(groups.items()):
        entry = {"calls": len(group),
                 "median_s": statistics.median(s.duration for s in group) / 1e9}
        iters = [s.info["iters"] for s in group if "iters" in s.info]
        if iters:
            entry["median_iters"] = statistics.median(iters)
        out[key] = entry
    return out
