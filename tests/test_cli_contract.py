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
PENTAGRAM = json.dumps({"vertices": [["0", "0"], ["3", "2"], ["-1", "2"], ["2", "0"], ["1", "3"]]})
SEVENS = "7" * 4000  # parses, but a + b/2 has too many digits to print

CASES = {
    # rationals outside -?\d+(/\d+)?
    "exponent": (["standard", "--a", "1e5000", "--b", "1", "--m", "0"], "bad_format"),
    "decimal": (["standard", "--a", "2.5", "--b", "1", "--m", "0"], "bad_format"),
    "leading-space": (["standard", "--a", " 5/2", "--b", "1", "--m", "0"], "bad_format"),
    "underscore": (["standard", "--a", "1_0", "--b", "1", "--m", "0"], "bad_format"),
    "digit-limit": (
        ["standard", "--a", SEVENS, "--b", "1/" + SEVENS, "--m", "1"], "output_too_large"
    ),
    # a polygon file that is not UTF-8, for every subcommand that reads one
    "verify-not-utf8": (["verify", "@bad"], "bad_format"),
    "classify-not-utf8": (["classify", "@bad"], "bad_format"),
    "graph-not-utf8": (["graph", "@bad", "--xi", "1,0"], "bad_format"),
    "betti-not-utf8": (["betti", "@bad", "--xi", "1,0"], "bad_format"),
    "extendable-not-utf8": (["extendable", "@bad", "--xi", "1,0"], "bad_format"),
    "congruent-first-not-utf8": (["congruent", "@bad", "@square"], "bad_format"),
    "congruent-second-not-utf8": (["congruent", "@square", "@bad"], "bad_format"),
    # --xi entries outside -?\d+: spaces, underscores, non-ASCII digits
    "xi-space-underscore": (["betti", "@square", "--xi", " 1,0_0"], "bad_format"),
    "xi-arabic-indic-digit": (["betti", "@square", "--xi", "\u0661,0"], "bad_format"),
    "xi-too-many-digits": (["betti", "@square", "--xi", "1," + SEVENS + "7" * 400], "bad_format"),
    # JSON nested deeper than the decoder's recursion limit
    "verify-deep": (["verify", "@deep"], "bad_format"),
    "count-tori-deep": (["count-tori", "--manifold", DEEP], "bad_format"),
    "enumerate-tori-deep": (["enumerate-tori", "--manifold", DEEP], "bad_format"),
    "betti-deep": (["betti", "--fixed-data", DEEP], "bad_format"),
    # every turn is a left turn, but the boundary winds twice
    "verify-pentagram": (["verify", "@pentagram"], "non_convex"),
}


@pytest.fixture
def files(tmp_path):
    paths = {"bad": tmp_path / "bad.json", "deep": tmp_path / "deep.json",
             "pentagram": tmp_path / "pentagram.json", "square": tmp_path / "square.json"}
    paths["bad"].write_bytes(b"\xff\xfe{")
    paths["deep"].write_text(DEEP)
    paths["pentagram"].write_text(PENTAGRAM)
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


def child(argv, stdin=b""):
    return subprocess.run(
        [sys.executable, "-m", "delzant.cli", *argv],
        input=stdin, capture_output=True, env=child_env(), timeout=60, check=False,
    )


def test_stdin_is_decoded_strictly_as_utf8():
    proc = child(["verify", "-"], b"\xff\xfe{")
    assert_one_error_object(proc.returncode, proc.stdout.decode(), proc.stderr.decode(),
                            "bad_format")
    # in process, a text stream over bytes is read through its byte buffer too
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8", errors="surrogateescape")
    out, err = io.StringIO(), io.StringIO()
    code = run(["verify", "-"], stdout=out, stderr=err, stdin=stdin)
    assert_one_error_object(code, out.getvalue(), err.getvalue(), "bad_format")


def test_valid_stdin_matches_the_file(files):
    proc = child(["verify", "-"], SQUARE.encode())
    assert proc.returncode == 0 and proc.stdout == child(["verify", files["@square"]]).stdout


USAGE = {
    "m-leading-space": ["standard", "--a", "2", "--b", "1", "--m", " 1"],
    "m-plus-sign": ["standard", "--a", "2", "--b", "1", "--m", "+1"],
    "bound-space-underscore": ["form-autos", "--form", "hyperbolic", "--bound", " 1_0"],
}


@pytest.mark.parametrize("name", sorted(USAGE))
def test_integer_flag_outside_grammar_is_usage_error(name):
    out, err = io.StringIO(), io.StringIO()
    assert run(USAGE[name], stdout=out, stderr=err) == 2
    assert out.getvalue() == "" and "usage:" in err.getvalue()
    proc = child(USAGE[name])
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"usage:" in proc.stderr and b"Traceback" not in proc.stderr


def test_negative_xi_is_accepted(files):
    out = io.StringIO()
    assert run(["betti", files["@square"], "--xi=-1,2"], stdout=out) == 0
    assert out.getvalue() == "[1, 0, 2, 0, 1]\n"
