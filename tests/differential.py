"""A differential of the library's answers between the working tree and a revision.

    python3 tests/differential.py                   # the working tree's hashes
    python3 tests/differential.py --base HEAD~1     # compared with a revision's

Standard library only; run it from anywhere in a checkout.  ``--base REV``
exports the ``src/`` of REV with ``git archive`` into a temporary
directory.  Every corpus runs on each tree in a fresh interpreter that
imports ``delzant`` from that tree's ``src/``; the corpus code, its seeds
and its inputs (``tests/golden``, ``perfbench/gen.py`` and the test
helpers) always come from the working tree, so both trees answer the
same questions.  A corpus is a list of records, written one JSON line
each; the script prints the SHA-256 of those lines per corpus and tree,
and where two trees differ, the first differing record from each.  The
exit status is 1 when a corpus differs, else 0.

The corpora:

* ``cli``: (exit status, stdout, stderr) of an in-process ``cli.run`` on
  the golden calls, on the other ``cli-oneshot`` calls of seeds
  1001-1003, and on 1,500 argv calls drawn as the argv fuzzer draws them;
* ``polygons``: the ``repr`` of every ``quad-census`` and ``ngon-scale``
  input polygon of seeds 1001-1003 once decoded, with its classification,
  its ``congruent`` witnesses and their ``apply_map`` images;
* ``graphs``: ``graphs_isomorphic`` answers, plain and ``up_to_flip``, and
  ``check_extendable`` reports: the 12,000 random graphs and 150 tied
  bipartite pairs of the reference tests, and the circle graphs of every
  ``ngon-scale`` input of seeds 1001-1003;
* ``work``: private work counts that tests pin: the ``Fraction``s built
  and hashed when a 256-gon is decoded, checked and hashed and when
  ``quad-census`` matches witness images, and the ``_refined_colours``
  calls per tied bipartite comparison.  A change may alter these on
  purpose, so they are kept apart from the answers.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ("cli", "polygons", "graphs", "work")
SEEDS = (1001, 1002, 1003)
ARGV_CALLS = 1500
SHOWN = 400  # characters of a differing record shown from each tree


# ------------------------------------------------------------------ the corpora
# These run in the worker interpreter, after ``delzant`` is importable.


def _error(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def _decode(text: str):
    from delzant import jsonio

    return jsonio.polygon_from_json(json.loads(text))


def _draw_argv(rng: Random) -> tuple[list[str], int]:
    """A subcommand with each argument kept or dropped, in any order, as the
    argv fuzzer draws it, and the index of its stdin in ``STDINS``; an
    "@name" argument is the file ``name``."""
    from support import SHAPES, STDINS, VALUES

    command = rng.choice(sorted(SHAPES))
    pieces = []
    for kind, name in SHAPES[command]:
        if rng.randrange(5) == 0:
            continue
        if kind == "flag":
            pieces.append([name])
            continue
        value = rng.choice(rng.choice(VALUES[kind])).removeprefix("@")
        if name is None:
            pieces.append([value])
        else:
            pieces.append([f"{name}={value}"] if rng.random() < 0.5 else [name, value])
    rng.shuffle(pieces)
    return [command, *itertools.chain.from_iterable(pieces)], rng.randrange(len(STDINS))


def cli_corpus():
    """Run in a scratch directory that holds every input file, named by
    relative paths, so that no record shows where a tree lives."""
    import gen
    from delzant.cli import run
    from support import STDINS, write_argv_files

    def call(label, argv, data: bytes):
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, stdout=out, stderr=err, stdin=io.TextIOWrapper(io.BytesIO(data)))
        return [label, argv, code, out.getvalue(), err.getvalue()]

    shutil.copytree(ROOT / "tests" / "golden", "golden")
    write_argv_files(Path("."))

    for seed in SEEDS:
        spec = gen.cli_oneshot(seed)
        folder = Path(f"s{seed}")
        folder.mkdir()
        for name, text in spec["files"].items():
            (folder / name).write_text(text)
        for k, c in enumerate(spec["calls"]):
            if "golden" in c and seed != SEEDS[0]:
                continue  # the golden calls are the same for every seed
            argv = [f"{folder}/{a[1:]}" if a.startswith("@") else
                    f"golden/{a[1:]}" if a.startswith("%") else a for a in c["argv"]]
            data = (folder / c["stdin"]).read_bytes() if "stdin" in c else b""
            yield call(c.get("golden", f"cli-oneshot {seed} {k}"), argv, data)

    rng = Random("differential:argv")
    for k in range(ARGV_CALLS):
        argv, stdin = _draw_argv(rng)
        yield call(f"argv {k} stdin {stdin}", argv, STDINS[stdin])


def _quad_record(text: str) -> list[str]:
    from delzant import hirzebruch, polygon
    from delzant.errors import DelzantError

    try:
        poly = _decode(text)
    except DelzantError as exc:
        return [_error(exc)]
    parts = [repr(poly)]
    try:
        params, witness = hirzebruch.classify_quadrilateral(poly)
    except DelzantError as exc:
        return parts + [_error(exc)]
    found = polygon.congruent(poly, hirzebruch.standard_trapezoid(params))
    return parts + [repr((params, witness)), repr(found),
                    repr(polygon.apply_map(poly, witness)),
                    repr(found and polygon.apply_map(poly, found)),
                    repr([witness.apply(v) for v in poly.vertices])]


def _ngon_record(item: dict) -> list[str]:
    from delzant import polygon

    p, q, sym, moved, tied = (_decode(item[key])
                              for key in ("polygon", "image", "symmetric", "moved", "tied"))
    parts = [repr(poly) for poly in (p, q, sym, moved, tied)]
    for source, target in ((p, q), (q, p), (sym, moved)):
        found = polygon.congruent(source, target)
        parts += [repr(found), repr(found and polygon.apply_map(source, found))]
    return parts


def polygons_corpus():
    import gen

    for seed in SEEDS:
        for k, item in enumerate(gen.quad_census(seed)):
            yield [f"quad-census {seed} {k}", *_quad_record(item["polygon"])]
        for k, item in enumerate(gen.ngon_scale(seed)):
            yield [f"ngon-scale {seed} {k}", *_ngon_record(item)]


def graphs_corpus():
    import gen
    from delzant import IntVec2, check_extendable, circle_graph, graphs_isomorphic
    from reference_graphs import flip_graph
    from support import (
        mixed_denominator_cases,
        permuted,
        random_graph,
        relabelled,
        tied_bipartite_pairs,
    )

    def answers(g, h):
        return [graphs_isomorphic(g, h), graphs_isomorphic(g, h, up_to_flip=True)]

    # the corpus of the random-graph reference test, drawn the same way
    rng, mix = Random(36), Random(37)
    for step in range(12_000):
        g = random_graph(rng, discrete=step >= 10_000)
        record = [f"random {step}", repr(check_extendable(g)), *answers(g, relabelled(rng, g))]
        for kind, h in mixed_denominator_cases(mix, g) if step % 2 == 0 else ():
            record += [kind, *answers(g, h)]
        yield record
    for k, (g, h) in enumerate(tied_bipartite_pairs(Random(40), 150)):
        yield [f"tied bipartite {k}", *answers(g, h)]

    for seed in SEEDS:
        rng = Random(seed)
        for k, item in enumerate(gen.ngon_scale(seed)):
            p, q, tied = (_decode(item[key]) for key in ("polygon", "image", "tied"))
            graphs = [circle_graph(p, IntVec2(*xi)) for xi in item["xis"]]
            image = circle_graph(q, IntVec2(*item["image_xi"]))
            levels = circle_graph(tied, IntVec2(0, 1))
            record = [f"ngon-scale {seed} {k}"]
            record += [repr(check_extendable(g)) for g in (*graphs, image, levels)]
            for g, h in ((graphs[0], image), (graphs[0], flip_graph(image)),
                         (graphs[0], graphs[1]), (graphs[0], graphs[2]), (levels, levels),
                         (levels, permuted(rng, levels)), (levels, flip_graph(levels))):
                record += answers(g, h)
            yield record


def work_corpus():
    import gen
    from delzant import circle_actions, graphs_isomorphic, hirzebruch, jsonio, make_polygon
    from delzant.errors import DelzantError
    from delzant.polygon import congruent, is_delzant
    from support import fraction_counts, tied_bipartite_pairs
    from test_polygon_oracle import cut_corners

    square = make_polygon([(0, 0), (4096, 0), (4096, 4096), (0, 4096)])
    data = jsonio.polygon_to_json(cut_corners(square, Random(256), 252))
    with fraction_counts() as counts:
        poly = jsonio.polygon_from_json(data)
    yield ["decode a 256-gon", counts]
    with fraction_counts() as counts:
        is_delzant(poly), congruent(poly, poly)
    yield ["is_delzant and congruent(p, p) on it", counts]
    with fraction_counts() as counts:
        hash(poly)
    yield ["hash it", counts]

    total = {"new": 0, "hash": 0, "matched": 0}
    for item in gen.quad_census(SEEDS[0], size=200):
        try:
            quad = _decode(item["polygon"])
            params, witness = hirzebruch.classify_quadrilateral(quad)
        except DelzantError:
            continue
        std = hirzebruch.standard_trapezoid(params)
        with fraction_counts() as counts:
            total["matched"] += {witness.apply(v) for v in quad.vertices} == set(std.vertices)
        total["new"] += counts["new"]
        total["hash"] += counts["hash"]
    yield ["quad-census witness images as a set, 200 inputs", total]

    calls, refine = [], circle_actions._refined_colours

    def counted(*args):
        calls.append(None)
        return refine(*args)

    circle_actions._refined_colours = counted
    try:
        refinements = []
        for g, h in tied_bipartite_pairs(Random(40), 150):
            for up_to_flip in (False, True):
                calls.clear()
                graphs_isomorphic(g, h, up_to_flip)
                refinements.append(len(calls))
    finally:
        circle_actions._refined_colours = refine
    yield ["_refined_colours calls per tied bipartite comparison", refinements]


# -------------------------------------------------------------------- driving


def _worker(name: str, src: Path, out: Path) -> None:
    """Write the records of corpus ``name`` on the ``delzant`` in ``src`` to
    ``out``, one JSON line each, and print their SHA-256 and count."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import delzant

    if not Path(delzant.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported delzant from {delzant.__file__}, not from {src}")
    digest, count = hashlib.sha256(), 0
    with open(out, "w", encoding="utf-8") as fh, tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for record in globals()[f"{name}_corpus"]():
            line = json.dumps(record) + "\n"
            digest.update(line.encode())
            fh.write(line)
            count += 1
    print(json.dumps({"sha256": digest.hexdigest(), "records": count}))


def run_corpus(src: Path, name: str, out: Path) -> tuple[str, int]:
    """(SHA-256, record count) of corpus ``name`` on the ``delzant`` in
    ``src``, run in a fresh interpreter; the records go to ``out``."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run([sys.executable, __file__, "--worker", name, str(src), str(out)],
                          env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        raise SystemExit(f"corpus {name} failed on {src} with exit status {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    return result["sha256"], result["records"]


def _export(rev: str, dest: Path) -> Path:
    """The ``src/`` of ``rev``, exported with ``git archive`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter, where the interpreter has it, refuses unsafe members
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest / "src"


def _shown(line: str, other: str) -> str:
    """``line`` around its first character that differs from ``other``."""
    at = next((i for i, (a, b) in enumerate(zip(line, other)) if a != b),
              min(len(line), len(other)))
    start = max(0, at - SHOWN // 4)
    return ("..." if start else "") + line[start:start + SHOWN] + (
        "..." if start + SHOWN < len(line) else "")


def differences(path1: Path, path2: Path) -> tuple[int, int, str, str]:
    """The number of records that differ between two record files, the index
    of the first, and that record from each ("" past the end of a file)."""
    count, first = 0, None
    with open(path1, encoding="utf-8") as f1, open(path2, encoding="utf-8") as f2:
        for index, (a, b) in enumerate(itertools.zip_longest(f1, f2, fillvalue="")):
            if a != b:
                count += 1
                first = first or (index, a.rstrip("\n"), b.rstrip("\n"))
    return (count, *first)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="REV",
                        help="also run every corpus on the src/ of this git revision and compare")
    parser.add_argument("--worker", nargs=3, metavar=("CORPUS", "SRC", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        name, src, out = args.worker
        _worker(name, Path(src), Path(out))
        return 0

    differ = False
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        trees = {"working tree": ROOT / "src"}
        if args.base:
            trees[args.base] = _export(args.base, Path(tmp) / "base")
        for name in CORPORA:
            results = {label: run_corpus(src, name, Path(tmp) / f"{name}.{k}.jsonl")
                       for k, (label, src) in enumerate(trees.items())}
            for label, (digest, count) in results.items():
                print(f"{name:9} {digest}  {count:6} records  {label}")
            if len({digest for digest, _ in results.values()}) > 1:
                differ = True
                files = (Path(tmp) / f"{name}.{k}.jsonl" for k in (0, 1))
                count, index, a, b = differences(*files)
                print(f"{name}: {count} records differ; the first is record {index}")
                for label, line, other in zip(trees, (a, b), (b, a)):
                    print(f"  {label}: {_shown(line, other)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
