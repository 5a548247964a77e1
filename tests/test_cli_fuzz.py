"""The CLI contract under fuzzed input, in process.

First, JSON: each JSON text
the command line reads (a polygon on stdin, ``count-tori --manifold``,
``enumerate-tori --manifold`` and ``betti --fixed-data``) is a valid
payload or one with a single edit, and every run exits 0 or 1, with one
JSON error object that is not ``internal_error`` on exit 1 and never a
traceback.

The work of ``enumerate-tori`` grows with the ratio of the two areas,
which a fuzzed payload can make as large as it likes, so it runs only on
the payloads that ``count-tori`` counts at most ``MAX_ENUMERATED`` tori
for, or rejects for a reason other than a count too long to print.

Second, argv: each of the ten subcommands with odd option values and
odd file paths, options dropped or written as ``--opt=value``.  Every
call exits 0, 1 or 2 in under a second, with one JSON error object that
is not ``internal_error`` on exit 1 and never a traceback.
"""

import io
import json
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delzant.cli import run

from support import (
    ARGV_FILES,
    FIXED_DATA,
    HUGE,
    LONG_INT,
    MANIFOLDS,
    POLYGONS,
    SHAPES,
    STDINS,
    VALUES,
    write_argv_files,
)

# an integer literal of more digits than json.loads will read: json.dumps
# cannot write one, so a placeholder string is replaced in the text
PLACEHOLDER = "\x00long"
MAX_ENUMERATED = 64

# other JSON kinds, rationals with 4000-digit parts, and a literal too long to read
REPLACEMENTS = st.sampled_from([
    None, True, False, 0, -3, 2.5, 1e308, "", "x", "1/0", "-", [], [[]], {}, {"a": "1"},
    HUGE, "-" + HUGE, "1/" + HUGE, HUGE + "/" + HUGE[:-1] + "9", PLACEHOLDER,
])


@st.composite
def edited(draw, value):
    """``value`` with at most one edit: a node replaced, or, in an object,
    a key added or removed."""
    if isinstance(value, (list, dict)) and value and draw(st.booleans()):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = draw(st.sampled_from(keys))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = draw(edited(value[key]))
        return copy
    action = draw(st.sampled_from(["keep", "replace", "add", "remove"]))
    if action == "replace" or (action != "keep" and not isinstance(value, dict)):
        return draw(REPLACEMENTS)
    if action == "add":
        return {**value, draw(st.sampled_from(["pad", "type", "index"])): draw(REPLACEMENTS)}
    if action == "remove" and value:
        key = draw(st.sampled_from(sorted(value)))
        return {k: v for k, v in value.items() if k != key}
    return value


def text_of(value) -> str:
    return json.dumps(value).replace(json.dumps(PLACEHOLDER), LONG_INT)


@pytest.fixture(scope="module")
def square_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "square.json"
    path.write_text(json.dumps(POLYGONS[0]))
    return str(path)


POLYGON_COMMANDS = [
    ["verify", "-"], ["classify", "-"], ["graph", "-", "--xi", "1,0"],
    ["graph", "-", "--xi=-1,2", "--dot"], ["betti", "-", "--xi", "0,1"],
    ["extendable", "-", "--xi", "1,1"], ["congruent", "@square", "-"],
]


@st.composite
def calls(draw):
    """An argv and the text on stdin."""
    kind = draw(st.sampled_from(["polygon", "manifold", "fixed-data"]))
    if kind == "polygon":
        argv = draw(st.sampled_from(POLYGON_COMMANDS))
        return argv, text_of(draw(edited(draw(st.sampled_from(POLYGONS)))))
    if kind == "manifold":
        command = draw(st.sampled_from(["count-tori", "enumerate-tori"]))
        return [command, "--manifold", text_of(draw(edited(draw(st.sampled_from(MANIFOLDS)))))], ""
    return ["betti", "--fixed-data", text_of(draw(edited(draw(st.sampled_from(FIXED_DATA)))))], ""


@settings(max_examples=400, deadline=None)
@given(calls())
def test_fuzzed_json_input_keeps_the_cli_contract(square_file, call):
    argv, stdin = call
    argv = [square_file if a == "@square" else a for a in argv]
    if argv[0] == "enumerate-tori":
        out, err = io.StringIO(), io.StringIO()
        if run(["count-tori", *argv[1:]], stdout=out, stderr=err) == 0:
            assume(int(out.getvalue()) <= MAX_ENUMERATED)
        else:
            assume(json.loads(err.getvalue())["error"] != "output_too_large")
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin))
    assert code in (0, 1), (argv, stdin[:200])
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == "" and out.getvalue()
    else:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        error = json.loads(err.getvalue())
        assert error["error"] != "internal_error", (argv, stdin[:200], error)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """The file arguments ``PATHS`` names with an ``@``."""
    folder = tmp_path_factory.mktemp("argv")
    write_argv_files(folder)
    return {"@" + name: str(folder / name) for name in [*ARGV_FILES, "directory", "missing"]}


@st.composite
def argvs(draw):
    """A subcommand, each of its arguments kept or dropped, in any order,
    and the bytes on stdin."""
    command = draw(st.sampled_from(sorted(SHAPES)))
    pieces = []
    for kind, name in SHAPES[command]:
        if draw(st.integers(0, 4)) == 0:
            continue
        if kind == "flag":
            pieces.append([name])
            continue
        value = draw(st.one_of(*map(st.sampled_from, VALUES[kind])))
        if name is None:
            pieces.append([value])
        else:
            pieces.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    argv = [command] + [a for piece in draw(st.permutations(pieces)) for a in piece]
    return argv, draw(st.sampled_from(STDINS))


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_fuzzed_argv_keeps_the_cli_contract(paths, call):
    argv, data = call
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = run(argv, stdout=out, stderr=err, stdin=io.TextIOWrapper(io.BytesIO(data)))
    assert time.perf_counter() - start < 1, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        assert err.getvalue() == "" and out.getvalue(), argv
    elif code == 1:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
        assert json.loads(err.getvalue())["error"] != "internal_error", (argv, err.getvalue())
