"""Tests of the benchmark itself (standard library unittest).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check that inputs are deterministic, that every generated item's
expected outcome holds on the library, that a wrong expectation or an
exception shows up as a failed operation rather than a dropped one, and
that the reported metrics match BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import work  # noqa: E402
from delzant import circle_actions, polygon  # noqa: E402
from delzant.lattice import IntVec2  # noqa: E402


def run_once(workload):
    """One round of every item, untraced; returns the tally."""
    null = spans.NullTracer()
    workload.round_size = len(workload.items)
    return work.run_loop(workload, 0, [null])[id(null)]


class CliInputs:
    """The cli-oneshot inputs written to a temporary work directory."""

    def __init__(self, seed):
        self.inputs = gen.generate("cli-oneshot", seed)
        self.dir = Path(tempfile.mkdtemp())
        for name, text in self.inputs.pop("files").items():
            (self.dir / name).write_text(text)

    def close(self):
        shutil.rmtree(self.dir)


class GenerationTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in run.WORKLOADS:
            first = json.dumps(gen.generate(workload, 11))
            self.assertEqual(first, json.dumps(gen.generate(workload, 11)), workload)
            self.assertNotEqual(first, json.dumps(gen.generate(workload, 12)), workload)

    def test_sizes_do_not_depend_on_the_seed(self):
        for seed in (1, 2):
            items = gen.generate("ngon-scale", seed)["items"]
            for start in range(0, len(items), 3):
                self.assertEqual(sorted(i["n"] for i in items[start:start + 3]), [16, 64, 256])
            quads = gen.generate("quad-census", seed)["items"]
            self.assertEqual(len(quads), gen.QUAD_POOL)
            rejects = sum("expect_error" in q for q in quads)
            self.assertEqual(rejects, gen.QUAD_POOL // gen.REJECT_EVERY)

    def test_tied_polygons_have_ten_tied_levels(self):
        for item in gen.generate("ngon-scale", 3)["items"][:6]:
            g = circle_actions.circle_graph(polygon.make_polygon(work.decode_points(item["tied"])),
                                            IntVec2(0, 1))
            ties = Counter(g.nodes)
            self.assertEqual(sorted(ties.values()), [1, 1] + [2] * gen.TIED_LEVELS)
            self.assertTrue(g.edges)

    def test_d4_polygon_has_eight_symmetries_and_moved_copy_keeps_normals(self):
        sym, moved = gen.d4_pair(gen.Random(5), 64)
        images = [sorted(gen.apply_linear(g, p) for p in sym) for g in gen.D4]
        self.assertTrue(all(img == sorted(sym) for img in images))
        normals = [e.inward_normal for e in polygon.edge_data(polygon.make_polygon(sym))]
        moved_normals = [e.inward_normal for e in polygon.edge_data(polygon.make_polygon(moved))]
        self.assertEqual(normals, moved_normals)


class ExpectedOutcomeTest(unittest.TestCase):
    def test_quad_census_items_hold(self):
        tally = run_once(work.QuadCensus(gen.generate("quad-census", 1), None))
        self.assertEqual((len(tally.latencies_ns), tally.failed), (gen.QUAD_POOL, 0))

    def test_ngon_scale_items_hold(self):
        tally = run_once(work.NgonScale(gen.generate("ngon-scale", 1), None))
        self.assertEqual((len(tally.latencies_ns), tally.failed), (3 * gen.NGON_ROUNDS, 0))

    def test_cli_calls_hold_and_cover_every_subcommand(self):
        cli_inputs = CliInputs(1)
        try:
            workload = work.CliOneshot(cli_inputs.inputs, cli_inputs.dir)
            self.assertEqual(len({c.argv[0] for c in workload.items}), 10)
            self.assertEqual(Counter(c.exit for c in workload.items)[1], 1)
            self.assertEqual(Counter(c.exit for c in workload.items)[2], 1)
            tracer = spans.Tracer()
            tallies = work.run_loop(workload, 0, [spans.NullTracer(), tracer])
            for tally in tallies.values():
                self.assertEqual((len(tally.latencies_ns), tally.failed), (len(workload.items), 0))
        finally:
            cli_inputs.close()
        calls = Counter(span[0] for span in tracer.spans)
        for name in ("cli.interp", "cli.import", "cli.run", "hirzebruch.form_automorphisms",
                     "hirzebruch.enumerate_tori", "jsonio.dot"):
            self.assertGreater(calls[name], 0, name)


class FailureCountingTest(unittest.TestCase):
    def test_wrong_quad_expectation_is_a_failed_operation(self):
        inputs = gen.generate("quad-census", 2)
        items = [i for i in inputs["items"] if "params" in i][:3]
        bad = copy.deepcopy(items[0])
        bad["tori"] += 1
        rejected = next(i for i in inputs["items"] if i.get("expect_error") == "non_convex")
        wrongly_expected = dict(rejected, expect_error="not_delzant")
        tally = run_once(work.QuadCensus({"items": items + [bad, wrongly_expected]}, None))
        self.assertEqual((len(tally.latencies_ns), tally.failed), (5, 2))

    def test_exception_is_a_failed_operation(self):
        items = [{"polygon": '{"vertices": [["0", "0"], ["1", "0"]]}', "params": {}, "tori": 1}]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            tally = run_once(work.QuadCensus({"items": items}, None))
        self.assertEqual((len(tally.latencies_ns), tally.failed), (1, 1))
        self.assertIn("TooFewVerticesError", err.getvalue())

    def test_wrong_ngon_expectation_is_a_failed_operation(self):
        inputs = gen.generate("ngon-scale", 2)
        inputs["items"] = [i for i in inputs["items"] if i["n"] == 16][:2]
        inputs["items"][1]["n"] = 17
        tally = run_once(work.NgonScale(inputs, None))
        self.assertEqual((len(tally.latencies_ns), tally.failed), (2, 1))

    def test_wrong_cli_expectation_is_a_failed_operation(self):
        cli_inputs = CliInputs(2)
        try:
            workload = work.CliOneshot(cli_inputs.inputs, cli_inputs.dir)
            workload.items = workload.items[:3]
            workload.items[1].expected += " "
            workload.items[2].exit = 1
            tally = run_once(workload)
        finally:
            cli_inputs.close()
        self.assertEqual((len(tally.latencies_ns), tally.failed), (3, 2))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        recorded = [["bench.op", 0, 100, -1], ["polygon.congruent", 10, 50, 0],
                    ["polygon.apply_map", 20, 30, 1], ["jsonio.encode", 60, 70, 0]]
        m = spans.summarize(recorded, {"polygon.congruent.found": 1}, 200)
        self.assertEqual(m["bench.op.self_ms"], 50 / 1e6)
        self.assertEqual(m["polygon.congruent.self_ms"], 30 / 1e6)
        self.assertEqual(m["polygon.apply_map.self_ms"], 10 / 1e6)
        self.assertEqual(m["bench.op.share"], 50 / 200)
        self.assertEqual(m["polygon.congruent.found_frac"], 1.0)
        self.assertEqual(m["circle_actions.graphs_isomorphic.calls"], 0)

    def test_tracer_records_parents(self):
        t = spans.Tracer()
        t.call("bench.op", lambda: t.call("polygon.make_polygon", lambda: None))
        self.assertEqual([(s[0], s[3]) for s in t.spans],
                         [("bench.op", -1), ("polygon.make_polygon", 0)])


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, spans.metric_units())
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in bench["end_to_end"]))

    def test_exits_without_result_when_sources_are_missing(self):
        bare = Path(tempfile.mkdtemp())
        try:
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                                   "quad-census", "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
