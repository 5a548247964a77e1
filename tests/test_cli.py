"""CLI behavior: dispatch, error handling, exit codes, stdin."""

import io
import json
import os
import shlex
import subprocess
import sys
import time

import pytest

from delzant import UnimodularAffine, apply_map, cli
from delzant.cli import run
from delzant.jsonio import polygon_from_json, polygon_to_json

from support import ROOT, child_env

SQUARE = json.dumps({"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]})
TRAPEZOID = json.dumps({"vertices": [["0", "0"], ["5/2", "0"], ["3/2", "1"], ["0", "1"]]})


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_verify(tmp_path):
    code, out, err = invoke(["verify", write(tmp_path, "sq.json", SQUARE)])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["is_delzant"] is True
    assert data["normals"] == [[0, 1], [-1, 0], [0, -1], [1, 0]]


def test_verify_from_stdin():
    code, out, _ = invoke(["verify", "-"], stdin_text=SQUARE)
    assert code == 0
    assert json.loads(out)["is_delzant"] is True


def test_classify(tmp_path):
    code, out, _ = invoke(["classify", write(tmp_path, "t.json", TRAPEZOID)])
    assert code == 0
    data = json.loads(out)
    assert data["params"] == {"a": "2", "b": "1", "m": 1}
    assert data["witness"]["linear"] == [[1, 0], [0, 1]]


def test_standard_pipeline_composes(tmp_path):
    code, out, _ = invoke(["standard", "--a", "5/2", "--b", "1", "--m", "2"])
    assert code == 0
    poly_path = write(tmp_path, "std.json", out)
    code, out, _ = invoke(["classify", poly_path])
    assert code == 0
    assert json.loads(out)["params"] == {"a": "5/2", "b": "1", "m": 2}
    code, out, _ = invoke(["verify", poly_path])
    assert code == 0
    assert json.loads(out)["is_delzant"] is True


def test_count_and_enumerate():
    manifold = '{"type":"s2xs2","a":"5/2","b":"1"}'
    code, out, _ = invoke(["count-tori", "--manifold", manifold])
    assert code == 0 and out == "3\n"
    code, out, _ = invoke(["enumerate-tori", "--manifold", manifold])
    assert code == 0
    assert json.loads(out) == [
        {"a": "5/2", "b": "1", "m": 0},
        {"a": "5/2", "b": "1", "m": 2},
        {"a": "5/2", "b": "1", "m": 4},
    ]


def test_enumerate_tori_is_capped_before_it_starts():
    cap = cli._MAX_ENUMERATED
    code, out, _ = invoke(["enumerate-tori", "--manifold", json.dumps(
        {"type": "s2xs2", "a": str(cap), "b": "1"})])
    assert code == 0 and len(json.loads(out)) == cap
    for a, b in ((str(2 * cap + 1), "2"), ("5", "9999999999")):  # cap + 1, then 2 * 10^9 tori
        start = time.perf_counter()
        code, out, err = invoke(["enumerate-tori", "--manifold", json.dumps(
            {"type": "s2xs2", "a": a, "b": b})])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "domain_error", "detail": (
            f"enumerate-tori lists at most {cap} tori; count-tori gives their number")}


def test_graph_json_and_dot(tmp_path):
    path = write(tmp_path, "t2.json", json.dumps(
        {"vertices": [["0", "0"], ["3", "0"], ["1", "1"], ["0", "1"]]}
    ))
    code, out, _ = invoke(["graph", path, "--xi", "1,0"])
    assert code == 0
    data = json.loads(out)
    assert [n["type"] for n in data["nodes"]] == ["surface", "isolated", "isolated"]
    assert data["edges"][0]["k"] == 2
    code, dot, _ = invoke(["graph", path, "--xi", "1,0", "--dot"])
    assert code == 0
    assert dot.startswith("graph labeled_graph {") and dot.endswith("}\n")


def test_betti_from_polygon_and_fixed_data(tmp_path):
    path = write(tmp_path, "sq.json", SQUARE)
    code, out, _ = invoke(["betti", path, "--xi", "0,1"])
    assert code == 0 and json.loads(out) == [1, 0, 2, 0, 1]
    fixed = json.dumps(
        {
            "components": [
                {"type": "surface", "index": 0, "genus": 1},
                {"type": "surface", "index": 2, "genus": 1},
            ]
        }
    )
    code, out, _ = invoke(["betti", "--fixed-data", fixed])
    assert code == 0 and out == "[1, 2, 2, 2, 1]\n"


def test_congruent(tmp_path):
    sheared = json.dumps({"vertices": [["0", "0"], ["1", "0"], ["2", "1"], ["1", "1"]]})
    p1 = write(tmp_path, "p1.json", SQUARE)
    p2 = write(tmp_path, "p2.json", sheared)
    code, out, _ = invoke(["congruent", p1, p2])
    assert code == 0
    assert json.loads(out)["linear"] == [[1, 1], [0, 1]]
    rect = write(tmp_path, "r.json", json.dumps(
        {"vertices": [["0", "0"], ["2", "0"], ["2", "1"], ["0", "1"]]}
    ))
    code, out, _ = invoke(["congruent", p1, rect])
    assert code == 0 and out == '"none"\n'


def test_extendable(tmp_path):
    path = write(tmp_path, "sq.json", SQUARE)
    code, out, _ = invoke(["extendable", path, "--xi", "1,1"])
    assert code == 0
    data = json.loads(out)
    assert data["extendable"] is True and data["violations"] == []


def test_form_autos():
    code, out, _ = invoke(["form-autos", "--form", "hyperbolic", "--bound", "3"])
    assert code == 0
    assert len(json.loads(out)) == 4
    code, out, _ = invoke(["form-autos", "--form", "blowup", "--bound", "3"])
    assert code == 0
    assert json.loads(out) == [
        [[-1, 0], [0, -1]],
        [[-1, 0], [0, 1]],
        [[1, 0], [0, -1]],
        [[1, 0], [0, 1]],
    ]


def test_form_autos_large_bound_is_fast():
    # both forms have a finite group, so the scan stops short of the bound
    for form in ("hyperbolic", "blowup"):
        start = time.perf_counter()
        code, out, _ = invoke(["form-autos", "--form", form, "--bound", "1000000000000"])
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out == invoke(["form-autos", "--form", form, "--bound", "3"])[1]


def test_domain_error_exit_code_and_error_object(tmp_path):
    bad = write(tmp_path, "bad.json", json.dumps(
        {"vertices": [["0", "0"], ["1", "0"], ["2", "0"], ["2", "1"]]}
    ))
    code, out, err = invoke(["verify", bad])
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "collinear_vertices"
    assert "index 1" in error["detail"]


def test_malformed_json_and_rational_errors(tmp_path):
    bad = write(tmp_path, "bad.json", "{not json")
    code, _, err = invoke(["verify", bad])
    assert code == 1
    assert json.loads(err)["error"] == "domain_error"
    code, _, err = invoke(["standard", "--a", "x", "--b", "1", "--m", "0"])
    assert code == 1
    assert json.loads(err)["error"] == "bad_format"


def test_invalid_params_message_is_unchanged():
    code, out, err = invoke(["standard", "--a", "3", "--b", "2", "--m", "3"])
    assert code == 1 and out == ""
    assert err == ('{"error": "invalid_params", '
                   '"detail": "need average width a > (m/2) b, got a=3, b=2, m=3"}\n')


def test_non_primitive_direction_rejected(tmp_path):
    path = write(tmp_path, "sq.json", SQUARE)
    code, _, err = invoke(["graph", path, "--xi", "0,2"])
    assert code == 1
    assert json.loads(err)["error"] == "non_primitive_direction"


def test_missing_file_is_io_error():
    # a path holding a NUL byte names no file either; only an in-process
    # caller can pass one, as a child process cannot receive it
    for path in ("/nonexistent/poly.json", "a\0b"):
        code, out, err = invoke(["verify", path])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "io_error"


def test_usage_error_exit_code():
    code, _, _ = invoke(["no-such-command"])
    assert code == 2
    code, _, _ = invoke([])
    assert code == 2


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_goes_to_the_given_stdout(argv, capsys):
    code, out, err = invoke(argv)
    assert code == 0 and out.startswith("usage: delzant") and err == ""
    assert capsys.readouterr() == ("", "")


def test_outputs_reparse_to_same_value(tmp_path):
    # round-trip stability: emitted JSON parses back to an equal payload
    path = write(tmp_path, "t.json", TRAPEZOID)
    for argv in (
        ["verify", path],
        ["classify", path],
        ["graph", path, "--xi", "1,0"],
        ["standard", "--a", "2", "--b", "1", "--m", "1"],
    ):
        code, out, _ = invoke(argv)
        assert code == 0
        assert json.loads(out) == json.loads(json.dumps(json.loads(out)))


def test_malformed_fixed_data_is_bad_format():
    for fixed in (
        {"components": 5},
        {"components": "surface"},
        {"components": [5]},
        {"components": [{"type": "isolated", "index": "0"}]},
    ):
        code, out, err = invoke(["betti", "--fixed-data", json.dumps(fixed)])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "bad_format", fixed


@pytest.mark.parametrize(
    "argv",
    [
        ["standard", "--a", "5/2", "--b", "1", "--m", "2"],
        # more output than the pipe and stdout buffers hold
        ["enumerate-tori", "--manifold", '{"type":"s2xs2","a":"2000","b":"1"}'],
    ],
)
def test_closed_stdout_exits_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader ever exists, so every write hits a broken pipe
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "delzant.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(), timeout=60, check=False,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


# the standard modules that the package's own import statements name
CLI_STDLIB = ("__future__", "argparse", "collections", "contextlib", "fractions", "functools",
              "json", "math", "operator", "os", "re", "sys")


def test_cli_import_loads_only_the_modules_the_package_names():
    """Every CLI call pays for every module that ``import delzant.cli``
    loads, so past the standard modules the package names, it may load
    only its own: no ``dataclasses``, no ``inspect``, no ``typing``."""
    probe = (f"import {', '.join(CLI_STDLIB)}; before = set(sys.modules); import delzant.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=child_env(), timeout=60, check=True,
    )
    added = json.loads(proc.stdout)
    assert "delzant.cli" in added
    assert [name for name in added if not name.startswith("delzant")] == []


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    """Every ``delzant`` line of the README's command-line block exits 0 in
    process, and prints the literal result its comment gives, if any."""
    readme = (ROOT / "README.md").read_text()
    block = next(b for b in readme.split("```sh\n")[1:] if b.startswith("delzant standard"))
    lines = [line for line in block.split("```", 1)[0].splitlines() if line.startswith("delzant ")]
    assert len(lines) == 12
    monkeypatch.chdir(tmp_path)
    literal = 0
    for line in lines:
        command, _, comment = line.partition("  #")
        argv = shlex.split(command)[1:]
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[-1]
        code, out, err = invoke(argv)
        assert (code, err) == (0, ""), line
        if target is not None:
            (tmp_path / target).write_text(out)
            # other.json: trap.json under the shear (x, y) -> (x + y, y)
            trap = polygon_from_json(json.loads(out))
            sheared = apply_map(trap, UnimodularAffine(((1, 1), (0, 1))))
            (tmp_path / "other.json").write_text(json.dumps(polygon_to_json(sheared)))
        try:
            json.loads(comment)
        except json.JSONDecodeError:
            continue  # a description, not a result
        assert out == comment.strip() + "\n", line
        literal += 1
    assert literal == 2
