"""JSON and DOT serialization.

Conventions shared by every payload:

  * rationals are strings "p/q" or "p" (an optional minus sign, ASCII
    digits, q > 0; see ``lattice.as_rational``), never JSON floats;
  * integer lattice data (normals, weights, matrix entries, m, k, genus)
    are JSON integers;
  * every emitted rational is ``str(q)`` and re-parses to the same
    ``Fraction`` (one too long to print raises ``ValueError``), and the
    payloads the CLI reads decode as the schemas below show.

Schemas:

  polygon        {"vertices": [["0", "0"], ["5/2", "0"], ...]}
  affine map     {"linear": [[1, 1], [0, 1]], "translation": ["1", "0"]}
  parameters     {"a": "5/2", "b": "1", "m": 2}
  manifold       {"type": "s2xs2", "a": "5/2", "b": "1"}
                 {"type": "blowup_cp2", "l": "3", "e": "2"}
  graph          {"nodes": [{"type": "isolated", "moment": "0",
                             "weights": [1, 1]},
                            {"type": "surface", "moment": "1",
                             "area": "3", "genus": 0}],
                  "edges": [{"k": 2, "endpoints": [1, 3],
                             "interval": ["1", "3"]}]}
  fixed data     {"components": [{"type": "isolated", "index": 2},
                                 {"type": "surface", "index": 0,
                                  "genus": 0}]}

Decoding raises ``FormatError`` for a payload of the wrong shape, with
one of two messages:

  "<what> must be an object with 'key', ..."   (a non-object, or a missing key)
  "<what> must be a list" or "... a list of <n> entries"

Decoding a graph builds it through the public constructors of the graph
types, which check every value.  Each moment text is parsed once per
graph, so an edge interval holds its endpoint nodes' own ``Fraction``s,
which the graph's interval check matches by identity.  Two-entry values
(weights, endpoints, intervals) are unpacked and checked entry by entry,
and the constructors compare rationals as int pairs, so decoding makes
no ``Fraction`` order comparison.  A decoded point is built from the
canonical triple of its two parsed texts, so it holds no ``Fraction``
until its ``x`` or ``y`` is read.

DOT output is deterministic: nodes appear in the graph's stored order
(``circle_graph`` orders them by moment, ties by vertex index;
``LabeledGraph`` keeps the order it is given), fixed surfaces are drawn
as boxes, and each isotropy sphere is an undirected edge labeled "Z_k".
"""

from __future__ import annotations

from fractions import Fraction

from .circle_actions import (
    ExtendabilityReport,
    FatVertex,
    FixedComponent,
    FixedPointData,
    GraphNode,
    IsolatedFixed,
    IsolatedPoint,
    LabeledGraph,
    SurfaceFixed,
    ZkEdge,
)
from .errors import FormatError
from .hirzebruch import BlowUp, HirzebruchParams, ManifoldClass, SphereProduct
from .lattice import (
    IntVec2,
    RatVec2,
    UnimodularAffine,
    _point,
    _rational_pair,
    _reduced,
    as_integer,
    as_rational,
    is_int,
)
from .polygon import DelzantReport, Polygon, make_polygon


def rational_from_json(value) -> Fraction:
    if not isinstance(value, str):
        raise FormatError(f"rationals must be strings like '5/2', got {value!r}")
    return as_rational(value)


def _int_from_json(value, what: str) -> int:
    if not is_int(value):
        raise FormatError(f"{what} must be an integer")
    return value


def _object_from_json(data, what: str, *keys: str) -> dict:
    # a plain loop, with no generator or set: this runs once per graph node and edge
    if isinstance(data, dict):
        for key in keys:
            if key not in data:
                break
        else:
            return data
    raise FormatError(f"{what} must be an object with " + ", ".join(map(repr, keys)))


def _list_from_json(value, what: str, length: int | None = None) -> list:
    if not (isinstance(value, list) and (length is None or len(value) == length)):
        raise FormatError(
            f"{what} must be a list" + ("" if length is None else f" of {length} entries")
        )
    return value


def point_to_json(p: RatVec2) -> list[str]:
    return [str(p.x), str(p.y)]


def point_from_json(value) -> RatVec2:
    # _list_from_json's check, inline: this runs once per polygon vertex
    if not (isinstance(value, list) and len(value) == 2):
        raise FormatError("point must be a list of 2 entries")
    x, y = value
    if not (isinstance(x, str) and isinstance(y, str)):
        rational_from_json(x), rational_from_json(y)  # the first bad entry's error
    (a, s), (b, t) = _rational_pair(x), _rational_pair(y)
    return _point(_reduced(a * t, b * s, s * t))


def polygon_to_json(poly: Polygon) -> dict:
    return {"vertices": [point_to_json(p) for p in poly.vertices]}


def polygon_from_json(data) -> Polygon:
    vertices = _list_from_json(_object_from_json(data, "polygon", "vertices")["vertices"],
                               "'vertices'")
    return make_polygon([point_from_json(v) for v in vertices])


def affine_to_json(t: UnimodularAffine) -> dict:
    return {
        "linear": [list(row) for row in t.linear],
        "translation": point_to_json(t.translation),
    }


def params_to_json(p: HirzebruchParams) -> dict:
    return {"a": str(p.a), "b": str(p.b), "m": p.m}


def manifold_from_json(data) -> ManifoldClass:
    kind = _object_from_json(data, "manifold", "type")["type"]
    if kind == "s2xs2":
        _object_from_json(data, "s2xs2 manifold", "a", "b")
        return SphereProduct(rational_from_json(data["a"]), rational_from_json(data["b"]))
    if kind == "blowup_cp2":
        _object_from_json(data, "blowup_cp2 manifold", "l", "e")
        return BlowUp(rational_from_json(data["l"]), rational_from_json(data["e"]))
    raise FormatError(f"unknown manifold type {kind!r}")


def delzant_report_to_json(report: DelzantReport) -> dict:
    return {
        "is_delzant": report.is_delzant,
        "normals": [[u.x, u.y] for u in report.normals],
        "failures": [[i, d] for i, d in report.failures],
        "input_reversed": report.input_reversed,
    }


def graph_to_json(g: LabeledGraph) -> dict:
    nodes = []
    for n in g.nodes:
        if isinstance(n, IsolatedPoint):
            nodes.append({"type": "isolated", "moment": str(n.moment),
                          "weights": list(n.weights)})
        else:
            nodes.append({"type": "surface", "moment": str(n.moment),
                          "area": str(n.area), "genus": n.genus})
    return {
        "nodes": nodes,
        "edges": [
            {
                "k": e.k,
                "endpoints": list(e.endpoints),
                "interval": [str(t) for t in e.moment_interval],
            }
            for e in g.edges
        ],
    }


def graph_from_json(data) -> LabeledGraph:
    """Decode a graph.  Integers are checked here, so that a wrong-typed
    field is ``bad_format``, and again by the constructors, whose checks
    are the library's ``invalid_graph`` contract."""
    _object_from_json(data, "graph", "nodes")
    parsed: dict[str, Fraction] = {}  # each text is parsed once

    def rational(value) -> Fraction:
        q = parsed.get(value) if isinstance(value, str) else None
        if q is None:
            q = parsed[value] = rational_from_json(value)
        return q

    nodes: list[GraphNode] = []
    for n in _list_from_json(data["nodes"], "'nodes'"):
        kind = _object_from_json(n, "graph node", "type", "moment")["type"]
        moment = rational(n["moment"])
        if kind == "isolated":
            a, b = _list_from_json(n.get("weights"), "'weights'", 2)
            nodes.append(IsolatedPoint(moment, (_int_from_json(a, "weight"),
                                                _int_from_json(b, "weight"))))
        elif kind == "surface":
            area = rational(_object_from_json(n, "surface node", "area")["area"])
            nodes.append(FatVertex(moment, area, _int_from_json(n.get("genus", 0), "'genus'")))
        else:
            raise FormatError(f"unknown node type {kind!r}")
    edges = []
    for e in _list_from_json(data.get("edges", []), "'edges'"):
        _object_from_json(e, "graph edge", "k", "endpoints", "interval")
        k = _int_from_json(e["k"], "'k'")
        i, j = _list_from_json(e["endpoints"], "'endpoints'", 2)
        ends = (_int_from_json(i, "endpoint index"), _int_from_json(j, "endpoint index"))
        lo, hi = _list_from_json(e["interval"], "'interval'", 2)
        edges.append(ZkEdge(k, ends, (rational(lo), rational(hi))))
    return LabeledGraph(tuple(nodes), tuple(edges))


def fixed_data_from_json(data) -> FixedPointData:
    _object_from_json(data, "fixed data", "components")
    components: list[FixedComponent] = []
    for c in _list_from_json(data["components"], "'components'"):
        _object_from_json(c, "fixed component", "type", "index")
        index = _int_from_json(c["index"], "'index'")
        if c["type"] == "isolated":
            components.append(IsolatedFixed(index))
        elif c["type"] == "surface":
            components.append(SurfaceFixed(index, _int_from_json(c.get("genus", 0), "'genus'")))
        else:
            raise FormatError(f"unknown fixed component type {c['type']!r}")
    return FixedPointData(tuple(components))


def extendability_to_json(report: ExtendabilityReport) -> dict:
    return {
        "extendable": report.extendable,
        "violations": [
            {
                "kind": v.kind,
                "moment": None if v.moment is None else str(v.moment),
                "detail": v.detail,
            }
            for v in report.violations
        ],
    }


def matrices_to_json(matrices) -> list:
    return [[list(row) for row in m] for m in matrices]


def xi_from_text(text: str) -> IntVec2:
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f"direction must look like '0,1', got {text!r}")
    return IntVec2(as_integer(parts[0]), as_integer(parts[1]))


def graph_to_dot(g: LabeledGraph) -> str:
    """Graphviz rendering with nodes grouped by moment level."""
    lines = ["graph labeled_graph {", "  rankdir=BT;", '  node [fontsize=10];']
    levels: dict[Fraction, list[str]] = {}  # moment -> node names, in first-seen order
    for i, node in enumerate(g.nodes):
        levels.setdefault(node.moment, []).append(f"n{i}")
        if isinstance(node, IsolatedPoint):
            label = f"moment {node.moment!s}\\nweights {node.weights[0]}, {node.weights[1]}"
            shape = "circle"
        else:
            label = f"moment {node.moment!s}\\narea {node.area!s}\\ngenus {node.genus}"
            shape = "box"
        lines.append(f'  n{i} [shape={shape}, label="{label}"];')
    for same in levels.values():
        lines.append("  { rank=same; " + "; ".join(same) + "; }")
    for e in g.edges:
        lines.append(f'  n{e.endpoints[0]} -- n{e.endpoints[1]} [label="Z_{e.k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
