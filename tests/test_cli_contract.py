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
BIG = "1" + "0" * 4200  # parses, but a/b = 10^8400 has too many digits to print
# the triangle (0, 0), (a/p, 0), (0, b/q): its inward normals have about 8000 digits
A, B, P, Q = 2 * 10**3999 + 1, 3 * 10**3999 + 1, 10**4000 + 3, 10**4000 + 7
TRIANGLE = json.dumps({"vertices": [["0", "0"], [f"{A}/{P}", "0"], ["0", f"{B}/{Q}"]]})
# the same slant on a quadrilateral, for classify
QUAD = json.dumps({"vertices": [["0", "0"], [f"{A}/{P}", "0"], [f"{A}/{P}", "1"],
                                ["0", f"{B}/{Q}"]]})
# an integer literal json.loads will not read; json.dumps cannot write one, so it is
# spliced into the text by hand
LONG = "1" * 5000
PADDED = '{"vertices": [["0", "0"], ["1", "0"], ["0", "1"]], "pad": ' + LONG + "}"
FIXED = json.dumps({"components": [{"type": "surface", "index": 0, "genus": 1},
                                   {"type": "surface", "index": 2, "genus": 1}]})

CASES = {
    # rationals outside -?\d+(/\d+)?
    "exponent": (["standard", "--a", "1e5000", "--b", "1", "--m", "0"], "bad_format"),
    "decimal": (["standard", "--a", "2.5", "--b", "1", "--m", "0"], "bad_format"),
    "leading-space": (["standard", "--a", " 5/2", "--b", "1", "--m", "0"], "bad_format"),
    "underscore": (["standard", "--a", "1_0", "--b", "1", "--m", "0"], "bad_format"),
    "digit-limit": (
        ["standard", "--a", SEVENS, "--b", "1/" + SEVENS, "--m", "1"], "output_too_large"
    ),
    # integers too long to print: a count and normals
    "count-tori-digit-limit": (
        ["count-tori", "--manifold", json.dumps({"type": "s2xs2", "a": BIG, "b": "1/" + BIG})],
        "output_too_large",
    ),
    "verify-digit-limit": (["verify", "@triangle"], "output_too_large"),
    # a not_delzant error names its edges, not its determinants of about 8000 digits
    "graph-digit-limit": (["graph", "@triangle", "--xi", "1,0"], "not_delzant"),
    "betti-digit-limit": (["betti", "@triangle", "--xi", "1,0"], "not_delzant"),
    "extendable-digit-limit": (["extendable", "@triangle", "--xi", "1,0"], "not_delzant"),
    "classify-digit-limit": (["classify", "@quad"], "not_delzant"),
    # integer literals too long to read, in each kind of JSON input
    "verify-long-integer": (["verify", "-"], "bad_format"),
    "count-tori-long-integer": (
        ["count-tori", "--manifold", '{"type": "s2xs2", "a": "2", "b": "1", "pad": ' + LONG + "}"],
        "bad_format",
    ),
    "betti-long-integer": (
        ["betti", "--fixed-data", '{"components": [{"type": "isolated", "index": ' + LONG + "}]}"],
        "bad_format",
    ),
    # areas out of range, reported in the order given
    "count-tori-negative-area": (
        ["count-tori", "--manifold", '{"type": "s2xs2", "a": "-2", "b": "1"}'], "invalid_params"
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
    # betti reads a polygon with --xi, or --fixed-data
    "betti-no-input": (["betti"], "domain_error"),
    "betti-both-inputs": (["betti", "@square", "--xi", "1,0", "--fixed-data", FIXED],
                          "domain_error"),
    # stdin holds one polygon
    "congruent-stdin-twice": (["congruent", "-", "-"], "domain_error"),
}
# the text on stdin, where it is not empty
STDIN = {"verify-long-integer": PADDED}
# the detail of every output_too_large, an integer's or a rational's
DIGIT_LIMIT = "digits, the interpreter's limit for int-to-str conversion"
# a part of the detail, where the code alone does not show the fault
DETAILS = {
    "digit-limit": DIGIT_LIMIT,
    "count-tori-digit-limit": DIGIT_LIMIT,
    "verify-digit-limit": DIGIT_LIMIT,
    "graph-digit-limit": "polygon is not Delzant at edges [0, 1]",
    "classify-digit-limit": "polygon is not Delzant at edges [",
    "verify-long-integer": "has a number too long to read",
    "count-tori-long-integer": "has a number too long to read",
    "betti-long-integer": "has a number too long to read",
    "count-tori-negative-area": "need a, b > 0, got a=-2, b=1",
}


@pytest.fixture
def files(tmp_path):
    paths = {"bad": tmp_path / "bad.json", "deep": tmp_path / "deep.json",
             "pentagram": tmp_path / "pentagram.json", "square": tmp_path / "square.json",
             "triangle": tmp_path / "triangle.json", "quad": tmp_path / "quad.json"}
    paths["bad"].write_bytes(b"\xff\xfe{")
    paths["deep"].write_text(DEEP)
    paths["pentagram"].write_text(PENTAGRAM)
    paths["square"].write_text(SQUARE)
    paths["triangle"].write_text(TRIANGLE)
    paths["quad"].write_text(QUAD)
    return {"@" + name: str(path) for name, path in paths.items()}


def assert_one_error_object(code, out, err, expected, detail=""):
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert err.endswith("\n") and err.count("\n") == 1
    error = json.loads(err)
    assert isinstance(error, dict) and error["error"] == expected
    assert detail in error["detail"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_input_gives_one_json_error(name, files):
    argv, expected = CASES[name]
    argv = [files.get(a, a) for a in argv]
    stdin, detail = STDIN.get(name, ""), DETAILS.get(name, "")
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin))
    assert_one_error_object(code, out.getvalue(), err.getvalue(), expected, detail)

    proc = subprocess.run(
        [sys.executable, "-m", "delzant.cli", *argv], input=stdin,
        capture_output=True, text=True, env=child_env(), timeout=60, check=False,
    )
    assert_one_error_object(proc.returncode, proc.stdout, proc.stderr, expected, detail)


AMBIGUOUS = {
    "betti-both-inputs": (CASES["betti-both-inputs"][0], "a polygon with --xi, or --fixed-data"),
    "congruent-stdin-twice": (CASES["congruent-stdin-twice"][0], "one file and - for stdin"),
}


@pytest.mark.parametrize("name", sorted(AMBIGUOUS))
def test_ambiguous_input_names_the_allowed_forms(name, files):
    # with a valid polygon on stdin, so nothing but the ambiguity can fail
    argv, allowed = AMBIGUOUS[name]
    out, err = io.StringIO(), io.StringIO()
    code = run([files.get(a, a) for a in argv], stdout=out, stderr=err, stdin=io.StringIO(SQUARE))
    assert_one_error_object(code, out.getvalue(), err.getvalue(), "domain_error")
    assert allowed in json.loads(err.getvalue())["detail"]


@pytest.mark.parametrize("exc", [RuntimeError("boom"), ValueError("boom")],
                         ids=["runtime-error", "value-error"])
def test_unexpected_exception_is_internal_error(exc, monkeypatch):
    def fail(manifold):
        raise exc

    monkeypatch.setattr("delzant.hirzebruch.count_tori", fail)
    out, err = io.StringIO(), io.StringIO()
    code = run(["count-tori", "--manifold", '{"type":"s2xs2","a":"2","b":"1"}'],
               stdout=out, stderr=err)
    assert_one_error_object(code, out.getvalue(), err.getvalue(), "internal_error")
    assert json.loads(err.getvalue())["detail"] == f"{type(exc).__name__}: boom"


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
