"""The delzant benchmark: one command, three seeded closed-loop workloads.

    python3 perfbench/run.py --workload quad-census --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the library from
``src/`` there and writes only under ``.perfbench_work/``.  Steps:

1. generate the workload's inputs from the seed (not timed);
2. start ``SETUP_RUNS`` fresh interpreters running ``work.py``; the
   time from starting each one to its ``ready`` line is one set-up
   sample (interpreter start, imports, loading inputs, warm-up);
3. the last of them measures for ``--seconds``: untraced with
   ``--trace 0``; with ``--trace 1`` every round runs once untraced and
   once traced, and the per-layer metrics come from the traced runs.

End-to-end timings are normalised to a reference machine speed by the
probes in ``speed.py``; the raw values are printed as well.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it print the same numbers for people, with the tail percentile,
the sample count and ``failed_frac``.  Exits 2 without a result when the
checkout has no ``src/delzant``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import speed  # noqa: E402
from spans import metric_units  # noqa: E402

WORKLOADS = ("quad-census", "ngon-scale", "cli-oneshot")
SETUP_RUNS = 5
SPEED_PROBES = 21
WORKER_GRACE_S = 150

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    inputs = gen.generate(workload, seed)
    workdir.mkdir(parents=True)
    for name, text in inputs.pop("files", {}).items():
        (workdir / name).write_text(text)
    (workdir / "inputs.json").write_text(json.dumps(inputs))


class Worker:
    """One fresh interpreter; ``setup_s`` is the time until it reports ready."""

    def __init__(self, workload: str, workdir: Path, mode: str, seconds: float, trace_out=None):
        cmd = [sys.executable, str(HERE / "work.py"), "--workload", workload,
               "--workdir", str(workdir), "--mode", mode, "--seconds", str(seconds)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.timeout = seconds + WORKER_GRACE_S
        start = perf_counter_ns()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            self.setup_s = (perf_counter_ns() - start) / 1e9
            if line.strip() != "ready":
                raise RuntimeError(f"worker did not get ready: {line!r}")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def finish(self):
        try:
            out, _ = self.proc.communicate(timeout=self.timeout)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        lines = [ln for ln in out.splitlines() if ln.startswith("result ")]
        if not lines:
            return None
        return json.loads(lines[-1][len("result "):])


def machine_speed() -> float:
    """Reference kernel time over the kernel time now: below 1 on a slow machine."""
    return speed.REFERENCE_NS / statistics.median(speed.probe() for _ in range(SPEED_PROBES))


def measure(workload: str, seed: int, seconds: float, trace: bool):
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{workload}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    write_inputs(workload, seed, workdir)
    try:
        setups, raw_setups = [], []
        for mode in ["setup"] * (SETUP_RUNS - 1) * (not trace) + ["trace" if trace else "measure"]:
            factor = machine_speed()
            trace_out = work_root / f"trace-{workload}-{seed}.json" if trace else None
            w = Worker(workload, workdir, mode, 0 if mode == "setup" else seconds, trace_out)
            raw_setups.append(w.setup_s)
            setups.append(w.setup_s * factor)
            result = w.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        result["setup_s"] = statistics.median(setups)
        result["raw"]["setup_s"] = statistics.median(raw_setups)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="delzant benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "delzant" / "__init__.py").is_file():
        print(f"no delzant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "cli-oneshot" and not (ROOT / "tests" / "golden").is_dir():
        print(f"no golden files under {ROOT / 'tests' / 'golden'}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = result["attempted"], result["failed"]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    if args.trace:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in metric_units().items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
        windows, percentile = result["tail_windows"], result["tail_percentile"]
        print(f"# latency_tail_ms is the median, over {windows} window(s) of {attempted // windows} "
              f"consecutive operations, of each window's p{percentile:.2f}")
        print(f"# timings are normalised to the reference speed; this machine ran at "
              f"{result['speed']:.3f} of it, and the raw values were:")
        for name, value in result["raw"].items():
            print(f"#   {name:44s} {value:14.6g} {END_TO_END[name]}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_frac':48s} {failed / attempted:14.6g} frac ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
