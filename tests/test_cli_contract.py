"""The CLI contract on hostile input: exit 1, one JSON error object on
stderr, and never a traceback, both in-process and in a child process."""

import io
import json
import subprocess
import sys

import pytest

from delzant.cli import run

from support import child_env

SQUARE = json.dumps({"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]})
DEEP = "[" * 100_000
SEVENS = "7" * 4000  # parses, but a + b/2 has too many digits to print

CASES = {
    # rationals outside -?\d+(/\d+)?
    "exponent": (["standard", "--a", "1e5000", "--b", "1", "--m", "0"], "bad_format"),
    "decimal": (["standard", "--a", "2.5", "--b", "1", "--m", "0"], "bad_format"),
    "leading-space": (["standard", "--a", " 5/2", "--b", "1", "--m", "0"], "bad_format"),
    "underscore": (["standard", "--a", "1_0", "--b", "1", "--m", "0"], "bad_format"),
    "digit-limit": (
        ["standard", "--a", SEVENS, "--b", "1/" + SEVENS, "--m", "1"], "internal_error"
    ),
    # a polygon file that is not UTF-8, for every subcommand that reads one
    "verify-not-utf8": (["verify", "@bad"], "bad_format"),
    "classify-not-utf8": (["classify", "@bad"], "bad_format"),
    "graph-not-utf8": (["graph", "@bad", "--xi", "1,0"], "bad_format"),
    "betti-not-utf8": (["betti", "@bad", "--xi", "1,0"], "bad_format"),
    "extendable-not-utf8": (["extendable", "@bad", "--xi", "1,0"], "bad_format"),
    "congruent-first-not-utf8": (["congruent", "@bad", "@square"], "bad_format"),
    "congruent-second-not-utf8": (["congruent", "@square", "@bad"], "bad_format"),
    # JSON nested deeper than the decoder's recursion limit
    "verify-deep": (["verify", "@deep"], "bad_format"),
    "count-tori-deep": (["count-tori", "--manifold", DEEP], "bad_format"),
    "enumerate-tori-deep": (["enumerate-tori", "--manifold", DEEP], "bad_format"),
    "betti-deep": (["betti", "--fixed-data", DEEP], "bad_format"),
}


@pytest.fixture
def files(tmp_path):
    paths = {"bad": tmp_path / "bad.json", "deep": tmp_path / "deep.json",
             "square": tmp_path / "square.json"}
    paths["bad"].write_bytes(b"\xff\xfe{")
    paths["deep"].write_text(DEEP)
    paths["square"].write_text(SQUARE)
    return {"@" + name: str(path) for name, path in paths.items()}


def assert_one_error_object(code, out, err, expected):
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert err.endswith("\n") and err.count("\n") == 1
    error = json.loads(err)
    assert isinstance(error, dict) and error["error"] == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_input_gives_one_json_error(name, files):
    argv, expected = CASES[name]
    argv = [files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(""))
    assert_one_error_object(code, out.getvalue(), err.getvalue(), expected)

    proc = subprocess.run(
        [sys.executable, "-m", "delzant.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=60, check=False,
    )
    assert_one_error_object(proc.returncode, proc.stdout, proc.stderr, expected)
