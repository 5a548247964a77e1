"""Benchmark worker: a fresh interpreter that sets up one workload and runs it.

run.py starts it as

    python3 perfbench/work.py --workload NAME --workdir DIR --mode MODE --seconds S

Set-up imports ``delzant`` and ``delzant.cli`` from the checkout's
``src``, loads the pre-generated inputs from DIR/inputs.json and warms
up; then the worker prints ``ready``.  With ``--mode setup`` it stops
there.  ``measure`` runs the closed loop for S seconds untraced;
``trace`` runs it for S seconds with every round run once untraced and
once traced.  The last line of standard output is ``result <json>``.

Every operation's output is checked against the value known from how
its input was generated; a wrong value, an unexpected exception, a wrong
exit code or a traceback counts the operation as failed.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from delzant import circle_actions, cli, hirzebruch, jsonio, polygon  # noqa: E402
from delzant.errors import NonConvexError, NotDelzantError  # noqa: E402
from delzant.lattice import IntVec2  # noqa: E402

import speed  # noqa: E402
from spans import NullTracer, Tracer, summarize  # noqa: E402

TAIL_BEYOND = 10
TAIL_WINDOWS = 10
TAIL_WINDOW_MIN = 100
MAX_TRACEBACKS = 3
CLI_TIMEOUT_S = 60
FORMS = {"hyperbolic": hirzebruch.HYPERBOLIC_FORM, "blowup": hirzebruch.BLOWUP_FORM}


# ------------------------------------------------------------------ helpers


def decode_points(text: str):
    return [jsonio.point_from_json(v) for v in json.loads(text)["vertices"]]


def build(t, text: str):
    """JSON text -> Polygon, with decoding and construction as separate spans."""
    return t.call("polygon.make_polygon", polygon.make_polygon,
                  t.call("jsonio.decode", decode_points, text))


def edge_lengths(t, poly):
    return sorted(e.lattice_length for e in t.call("polygon.edge_data", polygon.edge_data, poly))


def betti_of_graph(g):
    return circle_actions.betti_numbers(circle_actions.fixed_point_data(g))


def isomorphic(t, g1, g2, expected: bool) -> bool:
    answer = t.call("circle_actions.graphs_isomorphic", circle_actions.graphs_isomorphic, g1, g2)
    t.count("circle_actions.graphs_isomorphic.true", answer is True)
    return answer is expected


def dumps(to_json, value, indent=2) -> str:
    return json.dumps(to_json(value), indent=indent)


def printed(t, to_json, value, indent=2) -> str:
    """What the CLI prints for a JSON result, encoded in a span."""
    return t.call("jsonio.encode", dumps, to_json, value, indent) + "\n"


def classification_json(result) -> dict:
    params, witness = result
    return {"params": jsonio.params_to_json(params), "witness": jsonio.affine_to_json(witness)}


def decode_graph(text: str):
    return jsonio.graph_from_json(json.loads(text))


def rewired_twin(g):
    """``g`` with one Z_k edge moved from a node to its tied twin.

    The twin has the same moment and label, and the two had equal Z_k
    degree, so afterwards their degrees differ by two: the labels are
    unchanged but no label-preserving map matches the edges.
    """
    degree = [0] * len(g.nodes)
    for e in g.edges:
        for j in e.endpoints:
            degree[j] += 1
    for idx, e in enumerate(g.edges):
        for end, node in enumerate(e.endpoints):
            for other, twin in enumerate(g.nodes):
                if other != node and twin == g.nodes[node] and degree[other] == degree[node]:
                    ends = list(e.endpoints)
                    ends[end] = other
                    edges = list(g.edges)
                    edges[idx] = circle_actions.ZkEdge(e.k, tuple(ends), e.moment_interval)
                    return circle_actions.LabeledGraph(g.nodes, tuple(edges))
    raise ValueError("graph has no Z_k edge with a tied endpoint")


# ---------------------------------------------------------------- workloads


class QuadCensus:
    """decode -> is_delzant -> classify -> tori -> congruent -> verify -> encode."""

    round_size = 1

    def __init__(self, inputs, workdir):
        self.items = inputs["items"]
        self.warmup = self.items[:20]

    def run(self, t, item) -> bool:
        try:
            poly = build(t, item["polygon"])
        except NonConvexError:
            return item.get("expect_error") == "non_convex"
        report = t.call("polygon.is_delzant", polygon.is_delzant, poly)
        if not report.is_delzant:
            if item.get("expect_error") != "not_delzant":
                return False
            try:
                t.call("hirzebruch.classify_quadrilateral", hirzebruch.classify_quadrilateral, poly)
            except NotDelzantError:
                return True
            return False
        if "expect_error" in item:
            return False

        params, witness = t.call("hirzebruch.classify_quadrilateral",
                                 hirzebruch.classify_quadrilateral, poly)
        manifold = t.call("hirzebruch.manifold_of", hirzebruch.manifold_of, params)
        count = t.call("hirzebruch.count_tori", hirzebruch.count_tori, manifold)
        tori = t.call("hirzebruch.enumerate_tori", hirzebruch.enumerate_tori, manifold)
        std = t.call("hirzebruch.standard_trapezoid", hirzebruch.standard_trapezoid, params)
        found = t.call("polygon.congruent", polygon.congruent, poly, std)
        t.count("polygon.congruent.found", found is not None)
        checks = [found is not None
                  and t.call("polygon.apply_map", polygon.apply_map, poly, found) == std]
        image = {t.call("lattice.apply", witness.apply, v) for v in poly.vertices}
        checks.append(image == set(std.vertices))
        checks.append(edge_lengths(t, poly) == edge_lengths(t, std))
        checks.append(count == item["tori"] == len(tori) and params in tori)
        text = t.call("jsonio.encode", dumps, classification_json, (params, witness))
        checks.append(json.loads(text)["params"] == item["params"])
        return all(checks)


class NgonScale:
    """Large corner-cut n-gons through every L2 algorithm, worst cases included."""

    round_size = 3

    def __init__(self, inputs, workdir):
        self.items = inputs["items"]
        for item in self.items:
            tied = polygon.make_polygon(decode_points(item["tied"]))
            item["twin"] = rewired_twin(circle_actions.circle_graph(tied, IntVec2(0, 1)))
        # the smallest item of the first round runs every code path, at the
        # same cost for every seed
        self.warmup = [min(self.items[:self.round_size], key=lambda item: item["n"])]

    def run(self, t, item) -> bool:
        n = item["n"]
        p, q = build(t, item["polygon"]), build(t, item["image"])
        sym, moved = build(t, item["symmetric"]), build(t, item["moved"])
        tied = build(t, item["tied"])

        checks = [t.call("polygon.is_delzant", polygon.is_delzant, p).is_delzant]
        lengths = edge_lengths(t, p)
        checks.append(len(lengths) == n and lengths == edge_lengths(t, q))
        witness = t.call("polygon.congruent", polygon.congruent, p, q)
        t.count("polygon.congruent.found", witness is not None)
        checks.append(witness is not None
                      and t.call("polygon.apply_map", polygon.apply_map, p, witness) == q)
        miss = t.call("polygon.congruent", polygon.congruent, sym, moved)
        t.count("polygon.congruent.found", miss is not None)
        checks.append(miss is None)

        graphs = [t.call("circle_actions.circle_graph", circle_actions.circle_graph,
                         p, IntVec2(*xi)) for xi in item["xis"]]
        for g in graphs:
            checks.append(t.call("circle_actions.betti", betti_of_graph, g) == (1, 0, n - 2, 0, 1))
            checks.append(t.call("circle_actions.check_extendable",
                                 circle_actions.check_extendable, g).extendable)
        image_graph = t.call("circle_actions.circle_graph", circle_actions.circle_graph,
                             q, IntVec2(*item["image_xi"]))
        checks.append(isomorphic(t, graphs[0], image_graph, True))
        tied_graph = t.call("circle_actions.circle_graph", circle_actions.circle_graph,
                            tied, IntVec2(0, 1))
        checks.append(isomorphic(t, tied_graph, tied_graph, True))
        checks.append(isomorphic(t, tied_graph, item["twin"], False))

        g = graphs[0]
        text = t.call("jsonio.encode", dumps, jsonio.graph_to_json, g)
        dot = t.call("jsonio.dot", jsonio.graph_to_dot, g)
        checks.append(t.call("jsonio.decode", decode_graph, text) == g)
        checks.append(dot.count(" -- ") == len(g.edges) and dot.count("shape=") == len(g.nodes))
        return all(checks)


class Call:
    """One CLI invocation with its expected outcome."""

    def __init__(self, spec, workdir: Path, golden: Path):
        self.argv = [self._path(a, workdir, golden) for a in spec["argv"]]
        self.stdin = (workdir / spec["stdin"]).read_text() if "stdin" in spec else ""
        self.exit = spec.get("exit", 0)
        self.error = spec.get("error")
        self.texts = [self.stdin if a == "-" else Path(a).read_text()
                      for a in self.argv[1:] if a == "-" or a.endswith(".json")]
        self.opts, flag_args = {}, iter(self.argv[1:])
        for a in flag_args:
            if a.startswith("--"):
                key, sep, value = a.partition("=")
                self.opts[key] = value if sep else (True if key == "--dot" else next(flag_args))
        if "golden" in spec:
            self.expected = (golden / spec["golden"]).read_text()
        else:
            self.expected = run_in_process(self.argv, self.stdin)[1]

    @staticmethod
    def _path(arg: str, workdir: Path, golden: Path) -> str:
        if arg.startswith("@"):
            return str(workdir / arg[1:])
        if arg.startswith("%"):
            return str(golden / arg[1:])
        return arg


def run_in_process(argv, stdin_text: str):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


# stamps around a cold import and, for form-autos, a cold form_automorphisms
IMPORT_PROBE = """
import sys, time
stamps = [time.perf_counter_ns()]
import delzant.cli
stamps.append(time.perf_counter_ns())
if len(sys.argv) > 1:
    from delzant import hirzebruch
    form = {"hyperbolic": hirzebruch.HYPERBOLIC_FORM, "blowup": hirzebruch.BLOWUP_FORM}[sys.argv[1]]
    stamps.append(time.perf_counter_ns())
    hirzebruch.form_automorphisms(form, int(sys.argv[2]))
    stamps.append(time.perf_counter_ns())
print(*stamps)
"""


class CliOneshot:
    """One fresh ``python -m delzant.cli`` process per call, as a shell user runs it."""

    def __init__(self, inputs, workdir):
        self.env = child_env()
        golden = ROOT / "tests" / "golden"
        self.items = [Call(spec, workdir, golden) for spec in inputs["calls"]]
        self.round_size = len(self.items)
        self.warmup = self.items[:1]

    def _spawn(self, args, stdin_text=""):
        return subprocess.run([sys.executable, *args], input=stdin_text.encode(),
                              capture_output=True, env=self.env, cwd=ROOT,
                              timeout=CLI_TIMEOUT_S, check=False)

    def run(self, t, call: Call) -> bool:
        proc = t.call("cli.subprocess", self._spawn, ["-m", "delzant.cli", *call.argv], call.stdin)
        out, err = proc.stdout.decode(), proc.stderr.decode()
        if proc.returncode != call.exit or out != call.expected or "Traceback" in err:
            return False
        if call.exit == 0:
            return err == ""
        try:
            error = json.loads(err)
        except ValueError:
            # usage errors print argparse's text today; a JSON error object is also accepted
            return call.exit == 2 and err.startswith("usage:") and "error:" in err
        return isinstance(error, dict) and (call.error is None or error.get("error") == call.error)

    def breakdown(self, t, call: Call) -> bool:
        """Traced rounds only: split one call into its L4 parts and replay it in-process."""
        t.call("cli.interp", self._spawn, ["-c", "pass"])
        form = [call.opts["--form"], call.opts["--bound"]] if call.argv[0] == "form-autos" else []
        stamps = [int(s) for s in self._spawn(["-c", IMPORT_PROBE, *form]).stdout.split()]
        t.record("cli.import", stamps[0], stamps[1])
        if form:
            t.record("hirzebruch.form_automorphisms", stamps[2], stamps[3])
        code, out, _ = t.call("cli.run", run_in_process, call.argv, call.stdin)
        if code != call.exit or out != call.expected:
            return False
        return call.exit != 0 or self.replay(t, call) == call.expected

    def replay(self, t, call: Call) -> str:
        """The library calls behind one successful CLI call, each in its own span."""
        cmd, opts = call.argv[0], call.opts
        if cmd == "form-autos":  # warm here: lru_cache'd in-process
            autos = hirzebruch.form_automorphisms(FORMS[opts["--form"]], int(opts["--bound"]))
            return printed(t, jsonio.matrices_to_json, autos)
        if cmd == "standard":
            params = hirzebruch.HirzebruchParams(jsonio.rational_from_json(opts["--a"]),
                                                 jsonio.rational_from_json(opts["--b"]),
                                                 int(opts["--m"]))
            std = t.call("hirzebruch.standard_trapezoid", hirzebruch.standard_trapezoid, params)
            return printed(t, jsonio.polygon_to_json, std)
        if cmd in ("count-tori", "enumerate-tori"):
            manifold = t.call("jsonio.decode", jsonio.manifold_from_json,
                              json.loads(opts["--manifold"]))
            if cmd == "count-tori":
                count = t.call("hirzebruch.count_tori", hirzebruch.count_tori, manifold)
                return printed(t, int, count, indent=None)
            tori = t.call("hirzebruch.enumerate_tori", hirzebruch.enumerate_tori, manifold)
            return printed(t, lambda ps: [jsonio.params_to_json(p) for p in ps], tori)
        if cmd == "betti" and "--fixed-data" in opts:
            fixed = t.call("jsonio.decode", jsonio.fixed_data_from_json,
                           json.loads(opts["--fixed-data"]))
            betti = t.call("circle_actions.betti", circle_actions.betti_numbers, fixed)
            return printed(t, list, betti, indent=None)

        polys = [build(t, text) for text in call.texts]
        if cmd == "verify":
            report = t.call("polygon.is_delzant", polygon.is_delzant, polys[0])
            return printed(t, jsonio.delzant_report_to_json, report)
        if cmd == "classify":
            result = t.call("hirzebruch.classify_quadrilateral",
                            hirzebruch.classify_quadrilateral, polys[0])
            return printed(t, classification_json, result)
        if cmd == "congruent":
            witness = t.call("polygon.congruent", polygon.congruent, *polys)
            t.count("polygon.congruent.found", witness is not None)
            if witness is None:
                return printed(t, str, "none", indent=None)
            return printed(t, jsonio.affine_to_json, witness)
        xi = t.call("jsonio.decode", jsonio.xi_from_text, opts["--xi"])
        g = t.call("circle_actions.circle_graph", circle_actions.circle_graph, polys[0], xi)
        if cmd == "graph" and opts.get("--dot"):
            return t.call("jsonio.dot", jsonio.graph_to_dot, g)
        if cmd == "graph":
            return printed(t, jsonio.graph_to_json, g)
        if cmd == "betti":
            return printed(t, list, t.call("circle_actions.betti", betti_of_graph, g), indent=None)
        report = t.call("circle_actions.check_extendable", circle_actions.check_extendable, g)
        return printed(t, jsonio.extendability_to_json, report)


WORKLOADS = {"quad-census": QuadCensus, "ngon-scale": NgonScale, "cli-oneshot": CliOneshot}


# --------------------------------------------------------------------- loop


class Tally:
    """Operations run under one tracer: latencies, speed probes, failures, wall time.

    ``wall_ns`` covers the rounds run under the tracer, breakdowns and
    probes included; it is the base of a traced span's share.
    """

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.probes_ns: list[int] = [speed.probe()]
        self.failed = 0
        self.wall_ns = 0

    def summary(self, children: bool) -> dict:
        """End-to-end metrics, with timings normalised to the reference speed."""
        lat = speed.normalised(self.latencies_ns, self.probes_ns)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
        tail_ms, percentile, windows = tail(lat)
        # throughput counts operation time only: the speed probes between
        # operations are the benchmark's, not the library's
        return {
            "attempted": len(lat),
            "failed": self.failed,
            "throughput_ops_s": len(lat) / (sum(lat) / 1e9),
            "latency_p50_ms": statistics.median(lat) / 1e6,
            "latency_tail_ms": tail_ms,
            "tail_percentile": percentile,
            "tail_windows": windows,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "raw": {"throughput_ops_s": len(lat) / (sum(self.latencies_ns) / 1e9),
                    "latency_p50_ms": statistics.median(self.latencies_ns) / 1e6,
                    "latency_tail_ms": tail(self.latencies_ns)[0]},
            "speed": sum(lat) / sum(self.latencies_ns),
        }


def tail(lat) -> tuple[float, float, int]:
    """Tail latency in ms, its percentile, and the number of windows.

    The run is cut into consecutive windows of at least
    ``TAIL_WINDOW_MIN`` operations (at most ``TAIL_WINDOWS``); in each,
    the tail is the highest percentile with ``TAIL_BEYOND`` samples
    beyond it, and the median over windows is reported, so one burst
    of machine noise moves one window, not the result.
    """
    k = max(1, min(TAIL_WINDOWS, len(lat) // TAIL_WINDOW_MIN))
    bounds = [len(lat) * j // k for j in range(k + 1)]
    tails = []
    for lo, hi in zip(bounds, bounds[1:]):
        window = sorted(lat[lo:hi])
        tails.append(window[max(0, len(window) - TAIL_BEYOND - 1)])
    shortest = min(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    percentile = 100 * max(1, shortest - TAIL_BEYOND) / shortest
    return statistics.median(tails) / 1e6, percentile, k


def run_loop(workload, seconds: float, tracers) -> dict:
    """Closed loop of whole rounds, at least one, until the time is up.

    Every round runs once under each tracer, on the same items, so with
    a NullTracer and a Tracer the traced and untraced operations are the
    same work under the same machine conditions.  A workload's
    ``breakdown`` runs only under a Tracer; speed probes run between
    operations.  Neither counts as an operation or in its latency.
    """
    tallies = {id(t): Tally() for t in tracers}
    items, k = workload.items, len(workload.items)
    errors = [0]

    def guarded(fn, *args) -> bool:
        try:
            return fn(*args)
        except Exception:  # an unexpected exception is a failed operation, never a dropped one
            if errors[0] < MAX_TRACEBACKS:
                traceback.print_exc()
            errors[0] += 1
            return False

    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while i == 0 or perf_counter_ns() < deadline:
        batch = [items[(i + j) % k] for j in range(workload.round_size)]
        i += workload.round_size
        for t in tracers:
            tally = tallies[id(t)]
            round_start = perf_counter_ns()
            for item in batch:
                t0 = perf_counter_ns()
                ok = guarded(t.call, "bench.op", workload.run, t, item)
                tally.latencies_ns.append(perf_counter_ns() - t0)
                tally.probes_ns.append(speed.probe())
                if isinstance(t, Tracer) and hasattr(workload, "breakdown"):
                    ok = guarded(workload.breakdown, t, item) and ok
                tally.failed += not ok
            tally.wall_ns += perf_counter_ns() - round_start
    return tallies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    inputs = json.loads((args.workdir / "inputs.json").read_text())
    workload = WORKLOADS[args.workload](inputs, args.workdir)
    null = NullTracer()
    for item in workload.warmup:
        workload.run(null, item)
    gc.collect()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "measure":
        tally = run_loop(workload, args.seconds, [null])[id(null)]
        result = tally.summary(children=args.workload == "cli-oneshot")
    else:
        tracer = Tracer()
        tallies = run_loop(workload, args.seconds, [null, tracer])
        plain, traced = tallies[id(null)], tallies[id(tracer)]
        if args.trace_out:
            tracer.write(args.trace_out)
        metrics = summarize(tracer.spans, tracer.counts, traced.wall_ns)
        # throughput is operations over operation time; breakdowns are not operations
        metrics["trace.overhead_frac"] = 1 - (
            (len(traced.latencies_ns) / sum(traced.latencies_ns))
            / (len(plain.latencies_ns) / sum(plain.latencies_ns)))
        result = {"attempted": len(plain.latencies_ns) + len(traced.latencies_ns),
                  "failed": plain.failed + traced.failed, "metrics": metrics}
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
