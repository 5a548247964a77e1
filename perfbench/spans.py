"""In-memory spans around the benchmark's calls into the library.

A span is ``[name, start_ns, end_ns, parent]``, where ``parent`` is the
index of the enclosing span or -1.  Spans are kept in a list while the
workload runs and written out once at the end.  A span's self time is
its duration minus the durations of its direct children; calls are made
one after another, so children never overlap.

The per-layer metrics are, for every name in ``SPANS``: ``.calls``,
``.self_ms``, ``.p50_us`` (median inclusive duration) and ``.share``
(self time over the traced phase's wall time).
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

# name -> layer; L0 lattice, L1 polygon construction, L2 algorithms,
# L3 JSON/DOT, L4 the CLI process, and the harness's own per-op work
SPANS = {
    "lattice.apply": "L0",
    "polygon.make_polygon": "L1",
    "polygon.apply_map": "L1",
    "polygon.edge_data": "L1",
    "polygon.is_delzant": "L2",
    "polygon.congruent": "L2",
    "hirzebruch.classify_quadrilateral": "L2",
    "hirzebruch.standard_trapezoid": "L2",
    "hirzebruch.manifold_of": "L2",
    "hirzebruch.count_tori": "L2",
    "hirzebruch.enumerate_tori": "L2",
    "hirzebruch.form_automorphisms": "L2",
    "circle_actions.circle_graph": "L2",
    "circle_actions.check_extendable": "L2",
    "circle_actions.betti": "L2",
    "circle_actions.graphs_isomorphic": "L2",
    "jsonio.decode": "L3",
    "jsonio.encode": "L3",
    "jsonio.dot": "L3",
    "cli.interp": "L4",
    "cli.import": "L4",
    "cli.run": "L4",
    "cli.subprocess": "L4",
    "bench.op": "harness",
}

# ratio name -> (counter of useful outcomes, span whose calls are the base)
RATIOS = {
    "polygon.congruent.found_frac": ("polygon.congruent.found", "polygon.congruent"),
    "circle_actions.graphs_isomorphic.true_frac": (
        "circle_actions.graphs_isomorphic.true", "circle_actions.graphs_isomorphic"),
}

SPAN_METRICS = (("calls", "count"), ("self_ms", "ms"), ("p50_us", "us"), ("share", "frac"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{key}": unit for span in SPANS for key, unit in SPAN_METRICS}
    units.update({name: "frac" for name in RATIOS})
    units["trace.overhead_frac"] = "frac"
    return units


class NullTracer:
    """Calls straight through; the untraced run uses the same pipeline code."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def record(self, name, start_ns, end_ns):
        """A span timed elsewhere, such as inside a child process."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent])

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans,
                       "counts": self.counts}, fh, separators=(",", ":"))


def summarize(spans, counts, wall_ns: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced phase."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durations: dict[str, list[int]] = {}
    self_ns: dict[str, int] = {}
    for (name, start, end, _), children in zip(spans, child_ns):
        durations.setdefault(name, []).append(end - start)
        self_ns[name] = self_ns.get(name, 0) + (end - start - children)
    out = {}
    for name in SPANS:
        d = durations.get(name, [])
        out[f"{name}.calls"] = len(d)
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
        out[f"{name}.p50_us"] = statistics.median(d) / 1e3 if d else 0.0
        out[f"{name}.share"] = self_ns.get(name, 0) / wall_ns
    for ratio, (counter, base) in RATIOS.items():
        calls = len(durations.get(base, []))
        out[ratio] = counts.get(counter, 0) / calls if calls else 0.0
    return out
