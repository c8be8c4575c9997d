"""Call tracing for the benchmark's traced runs; an untraced run never imports it.

The tracer wraps the public functions a rayzeros module calls across a module
boundary, at the binding the caller looks up: ``rayzeros.roots.f_value`` is
``rays.f_value`` as ``roots`` sees it.  Each wrapped call is a span (name,
start, end, parent).  Calls made many times per operation are folded into
totals per (name, parent) as they end; the rest are also kept one by one,
tagged with the operation they belong to.  Everything stays in memory until
the run writes its report.  A span's self time is its duration minus the
time its child spans cover.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

# bindings timed as spans, by the module whose namespace holds them
SPAN_BINDINGS = {
    "rayzeros.roots": (
        "all_zeros", "solve_ray", "bracket", "analyze_ray", "count_at", "degenerate_at",
        "extremum_radius", "f_value", "f_derivative", "evaluate", "unit_direction",
    ),
    "rayzeros.rays": ("thresholds",),
    "rayzeros.predict": ("predict_table", "predict_census", "predict_at", "census", "analyze_ray"),
    "rayzeros.cli": (
        "main", "validate", "analyze_ray", "count_at", "thresholds", "predict_at",
        "predict_table", "predict_census", "all_zeros", "find_zeros_grid", "compare",
    ),
}
# bindings only counted: called too often inside other spans to time cheaply
COUNT_BINDINGS = {
    "rayzeros.rays": ("alpha_from_residue", "classify_ray"),
    "rayzeros.unity": ("classify_ray",),
}
# spans kept one by one; all others only feed the per-(name, parent) totals
KEPT = {
    "all_zeros", "thresholds", "predict_table", "predict_census", "predict_at", "census",
    "main", "validate", "find_zeros_grid", "compare",
}

F_VALUE = "rayzeros.roots.f_value"
ANALYZE = "rayzeros.roots.analyze_ray"
CLASSIFY_RAYS = "rayzeros.rays.classify_ray"
CLASSIFY_UNITY = "rayzeros.unity.classify_ray"


class Tracer:
    def __init__(self):
        self.on = False
        self.op = 0
        self.stack: list[list] = []  # open spans: [name, child_ns, span_id]
        self.totals: dict[tuple[str, str | None], list[int]] = {}  # -> [calls, ns, self ns]
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []  # (id, parent id, op, name, start ns, end ns)
        self._saved: list[tuple] = []
        self._next_id = 0

    # -- operation boundaries, called by the workload around the timed call
    def begin(self):
        self.op += 1
        self.on = True

    def end(self):
        self.on = False

    # -- installing the wrappers
    def install(self):
        for table, make in ((SPAN_BINDINGS, self._span), (COUNT_BINDINGS, self._count)):
            for modname, attrs in table.items():
                mod = sys.modules.get(modname)
                if mod is None:  # rayzeros.cli is loaded only by the cli workload
                    continue
                for attr in attrs:
                    fn = getattr(mod, attr)
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, make(f"{modname}.{attr}", fn, attr in KEPT))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _count(self, name, fn, keep):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn, keep):
        stack, totals, spans, now = self.stack, self.totals, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = 0
            if keep:
                self._next_id += 1
                span_id = self._next_id
            frame = [name, 0, span_id]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                dur = end - start
                key = (name, parent[0] if parent else None)
                tot = totals.get(key)
                if tot is None:
                    tot = totals[key] = [0, 0, 0]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if keep:
                    pid = next((f[2] for f in reversed(stack) if f[2]), 0)
                    spans.append((span_id, pid, self.op, name, start, end))

        return wrapper

    # -- reading the record
    def op_counters(self) -> dict[str, int]:
        """Counts the harness splits per operation."""
        return {
            "f_value": self.calls(F_VALUE),
            "analyze_ray": self.calls(ANALYZE),
            "classify_ray": self.calls(CLASSIFY_RAYS) + self.calls(CLASSIFY_UNITY),
        }

    def calls(self, name: str) -> int:
        return self.counts[name] + sum(t[0] for (n, _), t in self.totals.items() if n == name)

    def ms(self, name: str, parent: str | None = ..., self_only: bool = False) -> float:
        """Total (or self) milliseconds in spans of ``name``, optionally under one parent."""
        i = 2 if self_only else 1
        return sum(
            t[i] for (n, p), t in self.totals.items() if n == name and (parent is ... or p == parent)
        ) / 1e6

    def dump(self) -> dict:
        return {
            "spans": [dict(zip(("id", "parent", "op", "name", "start_ns", "end_ns"), s)) for s in self.spans],
            "totals": [
                {"name": n, "parent": p, "calls": t[0], "ns": t[1], "self_ns": t[2]}
                for (n, p), t in sorted(self.totals.items(), key=lambda kv: -kv[1][1])
            ],
            "counts": dict(self.counts),
        }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_op(samples, counter: str, base) -> float:
    """Calls per unit of ``base``, over the operations that made such calls."""
    used = [s for s in samples if s.counters.get(counter)]
    return _ratio(sum(s.counters[counter] for s in used), sum(base(s) for s in used))


def predict_at_split(tracer: Tracer) -> tuple[float, float]:
    """(mean cold ms, mean warm us) of predict_at: an op's first query is the cold one.

    Every operation of the traced workloads meets a pair new to the process,
    so the first predict_at span of an operation is the one that fills the
    library's per-pair cache.
    """
    first: dict[int, int] = {}
    cold, warm = [], []
    for span_id, _, op, name, start, end in sorted(tracer.spans, key=lambda s: s[4]):
        if not name.endswith(".predict_at"):
            continue
        if op in first:
            warm.append(end - start)
        else:
            first[op] = span_id
            cold.append(end - start)
    mean = statistics.fmean
    return (mean(cold) / 1e6 if cold else 0.0, mean(warm) / 1e3 if warm else 0.0)


def layer_metrics(tracer: Tracer, samples, probes: dict) -> dict[str, float]:
    """Every per-layer metric of a traced pass; 0 where the layer did not run."""
    ok = [s for s in samples if s.ok]
    zeros = sum(s.zeros for s in ok)
    failures = [s.failure for s in samples if s.failure]
    classes = Counter(f["class"] for f in failures)
    types = Counter(f["type"] for f in failures)
    cold_ms, warm_us = predict_at_split(tracer)
    solve_ray = "rayzeros.roots.solve_ray"
    return {
        "rays.f_value.calls": tracer.calls(F_VALUE),
        "roots.f_evals_per_zero": _ratio(sum(s.counters.get("f_value", 0) for s in ok), zeros),
        "roots.refine.ms": tracer.ms(solve_ray, self_only=True)
        + tracer.ms(F_VALUE, solve_ray)
        + tracer.ms("rayzeros.roots.f_derivative", solve_ray),
        "roots.bracket.ms": tracer.ms("rayzeros.roots.bracket"),
        "roots.bracket_evals": sum(
            t[0] for (n, p), t in tracer.totals.items() if n == F_VALUE and p == "rayzeros.roots.bracket"
        ),
        "roots.residual.ms": tracer.ms("rayzeros.roots.evaluate"),
        "rays.analyze_ray.calls_per_group": _per_op(ok, "analyze_ray", lambda s: s.counters["groups"]),
        "family.alpha_from_residue.calls": tracer.calls("rayzeros.rays.alpha_from_residue"),
        "roots.failures.BracketFailure": types["BracketFailure"],
        "roots.failures.OverflowError": types["OverflowError"],
        "failures.endpoint_sign": classes["endpoint_sign"],
        "failures.residual_gate": classes["residual_gate"],
        "failures.overflow": classes["overflow"],
        "failures.other": classes["other"],
        "predict.predict_at.cold_ms": cold_ms,
        "predict.predict_at.warm_us": warm_us,
        "rays.thresholds.ms": tracer.ms("rayzeros.rays.thresholds") + tracer.ms("rayzeros.cli.thresholds"),
        "unity.census.ms": tracer.ms("rayzeros.predict.census"),
        "predict.predict_census.ms": tracer.ms("rayzeros.predict.predict_census")
        + tracer.ms("rayzeros.cli.predict_census"),
        "family.classify_ray.calls_per_ray": _per_op(ok, "classify_ray", lambda s: 2 * s.m),
        "cli.import_ms": probes.get("import_ms", 0.0),
        "cli.numpy_loaded": probes.get("numpy_loaded", 0.0),
        "cli.interp_start_ms": probes.get("interp_start_ms", 0.0),
        "cli.main.self_ms": _ratio(tracer.ms("rayzeros.cli.main", self_only=True), tracer.calls("rayzeros.cli.main")),
        "cli.output_bytes": _ratio(sum(s.output_bytes for s in samples), len(samples)) if probes else 0.0,
        "oracle.find_zeros_grid.ms": tracer.ms("rayzeros.cli.find_zeros_grid"),
        "oracle.compare.ms": tracer.ms("rayzeros.cli.compare"),
        "oracle.too_coarse": classes["too_coarse"],
    }
