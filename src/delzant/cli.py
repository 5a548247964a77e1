"""Command-line interface.

Ten subcommands expose the library over JSON (rationals as strings, see
``jsonio``):

  verify <polygon.json>                 Delzant report
  classify <polygon.json>               trapezoid parameters + witness map
  standard --a A --b B --m M            standard trapezoid polygon
  count-tori --manifold JSON            number of maximal-torus classes
  enumerate-tori --manifold JSON        the classes as parameter triples
  graph <polygon.json> --xi X,Y [--dot] labeled graph (JSON or DOT)
  betti <polygon.json> --xi X,Y         Betti numbers b0..b4
  betti --fixed-data JSON               same, from explicit fixed-point data
  congruent <p1.json> <p2.json>         witness map or "none"
  extendable <polygon.json> --xi X,Y    toric-extension report
  form-autos --form NAME --bound N      automorphisms of an intersection form

``delzant --version`` prints ``delzant <version>`` and exits 0.  Only
``run`` prints a result: ``_result``'s value as JSON indented by 2 and a
newline, ``betti``'s on one line, and ``graph --dot``'s text as it is.

Polygon arguments are file paths, or "-" for stdin.  Exit codes: 0 on
success, 1 on an error (JSON error object on stderr), 2 on a usage
error, such as ``--m`` or ``--bound`` outside ``lattice.as_integer``'s
grammar.  Input that is not UTF-8 (files and stdin alike), JSON nested
too deeply or holding a number too long to read, and rationals or
``--xi`` entries outside their grammars are ``bad_format``; a result
with a number of more digits than the interpreter will print, integer
or rational, is ``output_too_large``, with one detail naming the limit;
``betti`` given anything but a polygon with ``--xi`` or ``--fixed-data``
alone, ``congruent - -`` and ``enumerate-tori`` over more than
``_MAX_ENUMERATED`` tori are ``domain_error``; any exception that
is not a domain or I/O error is reported as ``internal_error``, never
as a traceback.
When the reader closes standard output early, ``main`` exits 1 without
printing anything.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import __version__, circle_actions, hirzebruch, jsonio, polygon
from .errors import DelzantError, FormatError
from .lattice import as_integer


def _decode_json(what: str, read):
    """JSON value of the text ``read()`` returns.

    Undecodable bytes, too deep nesting and too long integer literals are
    ``bad_format`` errors; other malformed JSON keeps the general code.
    """
    try:
        return json.loads(read())
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not valid UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{what} is nested too deeply") from exc
    except json.JSONDecodeError as exc:
        raise DelzantError(f"malformed {what}: {exc}") from exc
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # not the digit limit
            raise
        raise FormatError(f"{what} has a number too long to read") from exc


def _read_text(path: str, stdin) -> str:
    """Text of ``path``, or of stdin for "-", decoded strictly as UTF-8."""
    if path == "-":
        raw = getattr(stdin, "buffer", None)
        return raw.read().decode("utf-8") if raw is not None else stdin.read()
    try:
        fh = open(path, "r", encoding="utf-8")
    except ValueError as exc:  # an embedded NUL byte: no such file can exist
        raise OSError(f"cannot open {path!r}: {exc}") from exc
    with fh:
        return fh.read()


def _load_polygon(path: str, stdin) -> polygon.Polygon:
    data = _decode_json(f"JSON in {path!r}", lambda: _read_text(path, stdin))
    return jsonio.polygon_from_json(data)


def _circle_graph(args, stdin) -> circle_actions.LabeledGraph:
    """Graph of the ``--xi`` circle action on the ``polygon`` argument."""
    return circle_actions.circle_graph(
        _load_polygon(args.polygon, stdin), jsonio.xi_from_text(args.xi)
    )


_FORMS = {
    "hyperbolic": hirzebruch.HYPERBOLIC_FORM,
    "blowup": hirzebruch.BLOWUP_FORM,
}
# enumerate-tori's work grows with the count, which a short --manifold makes huge
_MAX_ENUMERATED = 100_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delzant",
        description="Exact computations with Delzant polygons and Hirzebruch trapezoids.",
    )
    parser.add_argument("--version", action="version", version=f"delzant {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the Delzant condition")
    p.add_argument("polygon", help="polygon JSON file, or - for stdin")

    p = sub.add_parser("classify", help="identify a Delzant quadrilateral")
    p.add_argument("polygon")

    p = sub.add_parser("standard", help="emit a standard trapezoid")
    p.add_argument("--a", required=True, help="average width, e.g. 5/2")
    p.add_argument("--b", required=True, help="height")
    p.add_argument("--m", required=True, type=as_integer, help="nonnegative integer parameter")

    p = sub.add_parser("count-tori", help="count conjugacy classes of maximal tori")
    p.add_argument("--manifold", required=True, help="manifold JSON")

    p = sub.add_parser("enumerate-tori", help="list the classes as parameters")
    p.add_argument("--manifold", required=True)

    p = sub.add_parser("graph", help="labeled graph of a circle subaction")
    p.add_argument("polygon")
    p.add_argument("--xi", required=True, help="primitive direction, e.g. 0,1 (use --xi=-1,2)")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")

    p = sub.add_parser("betti", help="Betti numbers from a circle action")
    p.add_argument("polygon", nargs="?", help="polygon JSON (omit with --fixed-data)")
    p.add_argument("--xi", help="primitive direction")
    p.add_argument("--fixed-data", help="fixed-point data JSON string")

    p = sub.add_parser("congruent", help="find a lattice-affine congruence")
    p.add_argument("polygon1")
    p.add_argument("polygon2")

    p = sub.add_parser("extendable", help="toric-extension criterion for a circle subaction")
    p.add_argument("polygon")
    p.add_argument("--xi", required=True)

    p = sub.add_parser("form-autos", help="automorphisms of an intersection form")
    p.add_argument("--form", required=True, choices=sorted(_FORMS))
    p.add_argument("--bound", type=as_integer, default=3, help="entry bound for the search")

    return parser


def _result(args, stdin):
    """The subcommand's JSON value, or the DOT text for ``graph --dot``."""
    command = args.command
    if command == "verify":
        report = polygon.is_delzant(_load_polygon(args.polygon, stdin))
        return jsonio.delzant_report_to_json(report)
    if command == "classify":
        params, witness = hirzebruch.classify_quadrilateral(_load_polygon(args.polygon, stdin))
        return {"params": jsonio.params_to_json(params), "witness": jsonio.affine_to_json(witness)}
    if command == "standard":
        params = hirzebruch.HirzebruchParams(
            jsonio.rational_from_json(args.a), jsonio.rational_from_json(args.b), args.m
        )
        return jsonio.polygon_to_json(hirzebruch.standard_trapezoid(params))
    if command in ("count-tori", "enumerate-tori"):
        manifold = jsonio.manifold_from_json(_decode_json("manifold JSON", lambda: args.manifold))
        count = hirzebruch.count_tori(manifold)
        if command == "count-tori":
            return count
        if count > _MAX_ENUMERATED:
            raise DelzantError(f"enumerate-tori lists at most {_MAX_ENUMERATED} tori; "
                               "count-tori gives their number")
        return [jsonio.params_to_json(p) for p in hirzebruch.enumerate_tori(manifold)]
    if command == "graph":
        g = _circle_graph(args, stdin)
        return jsonio.graph_to_dot(g) if args.dot else jsonio.graph_to_json(g)
    if command == "betti":
        given = (args.polygon is not None, args.xi is not None, args.fixed_data is not None)
        if given == (False, False, True):
            data = _decode_json("fixed-data JSON", lambda: args.fixed_data)
            fixed = jsonio.fixed_data_from_json(data)
        elif given == (True, True, False):
            fixed = circle_actions.fixed_point_data(_circle_graph(args, stdin))
        else:
            raise DelzantError("betti takes either a polygon with --xi, or --fixed-data alone")
        return list(circle_actions.betti_numbers(fixed))
    if command == "congruent":
        if args.polygon1 == args.polygon2 == "-":
            raise DelzantError("congruent takes two polygon files, or one file and - for stdin")
        p1 = _load_polygon(args.polygon1, stdin)
        witness = polygon.congruent(p1, _load_polygon(args.polygon2, stdin))
        return "none" if witness is None else jsonio.affine_to_json(witness)
    if command == "extendable":
        report = circle_actions.check_extendable(_circle_graph(args, stdin))
        return jsonio.extendability_to_json(report)
    return jsonio.matrices_to_json(hirzebruch.form_automorphisms(_FORMS[args.form], args.bound))


def run(argv, stdout=None, stderr=None, stdin=None) -> int:
    """Entry point suitable for in-process testing."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    stdin = stdin if stdin is not None else sys.stdin
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output = _result(args, stdin)
        if not getattr(args, "dot", False):  # encoding may hit the digit limit
            output = json.dumps(output, indent=None if args.command == "betti" else 2) + "\n"
    except DelzantError as exc:
        code, detail = exc.code, str(exc)
    except OSError as exc:
        code, detail = "io_error", str(exc)
    except Exception as exc:  # a defect, or the interpreter's int-to-str digit limit
        if isinstance(exc, ValueError) and "for integer string conversion;" in str(exc):
            code, detail = "output_too_large", (
                f"result has a number with more than {sys.get_int_max_str_digits()} digits, "
                "the interpreter's limit for int-to-str conversion")
        else:
            code, detail = "internal_error", f"{type(exc).__name__}: {exc}"
    else:
        stdout.write(output)
        return 0
    print(json.dumps({"error": code, "detail": detail}), file=stderr)
    return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``delzant ... | head -1``); point it at
        # devnull so the interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
