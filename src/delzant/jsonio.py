"""JSON and DOT serialization.

Conventions shared by every payload:

  * rationals are strings "p/q" or "p" (an optional minus sign, ASCII
    digits, q > 0; see ``lattice.as_rational``), never JSON floats;
  * integer lattice data (normals, weights, matrix entries, m, k, genus)
    are JSON integers;
  * the emitted JSON re-parses to the original value exactly.

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

DOT output is deterministic: nodes appear in the graph's stored order
(``circle_graph`` sorts them by moment; ``LabeledGraph`` keeps the order
it is given), fixed surfaces are drawn as boxes, and each
isotropy sphere is an undirected edge labeled "Z_k".
"""

from __future__ import annotations

import sys
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
from .errors import FormatError, OutputTooLargeError
from .hirzebruch import BlowUp, HirzebruchParams, ManifoldClass, SphereProduct
from .lattice import IntVec2, RatVec2, UnimodularAffine, as_integer, as_rational, is_int
from .polygon import DelzantReport, Polygon, make_polygon


def _require(condition: bool, message: str):
    if not condition:
        raise FormatError(message)


def rational_to_json(q: Fraction) -> str:
    """``str(q)``; ``OutputTooLargeError`` when the numerator or the
    denominator has more digits than ``sys.get_int_max_str_digits()``."""
    try:
        return str(q)
    except ValueError as exc:
        raise OutputTooLargeError(
            f"result has a number with more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for int-to-str conversion"
        ) from exc


def rational_from_json(value) -> Fraction:
    _require(isinstance(value, str), f"rationals must be strings like '5/2', got {value!r}")
    return as_rational(value)


def _int_from_json(value, what: str) -> int:
    _require(is_int(value), f"{what} must be an integer")
    return value


def point_to_json(p: RatVec2) -> list[str]:
    return [rational_to_json(p.x), rational_to_json(p.y)]


def point_from_json(value) -> RatVec2:
    _require(isinstance(value, (list, tuple)) and len(value) == 2, f"bad point {value!r}")
    return RatVec2(rational_from_json(value[0]), rational_from_json(value[1]))


def polygon_to_json(poly: Polygon) -> dict:
    return {"vertices": [point_to_json(p) for p in poly.vertices]}


def polygon_from_json(data) -> Polygon:
    _require(isinstance(data, dict) and "vertices" in data, "polygon JSON needs 'vertices'")
    _require(isinstance(data["vertices"], list), "'vertices' must be a list")
    return make_polygon([point_from_json(v) for v in data["vertices"]])


def affine_to_json(t: UnimodularAffine) -> dict:
    return {
        "linear": [list(row) for row in t.linear],
        "translation": point_to_json(t.translation),
    }


def affine_from_json(data) -> UnimodularAffine:
    _require(
        isinstance(data, dict) and "linear" in data and "translation" in data,
        "affine map JSON needs 'linear' and 'translation'",
    )
    lin = data["linear"]
    _require(
        isinstance(lin, list) and len(lin) == 2
        and all(isinstance(r, list) and len(r) == 2 for r in lin),
        "'linear' must be a 2x2 integer matrix",
    )
    rows = tuple(tuple(_int_from_json(e, "matrix entry") for e in r) for r in lin)
    return UnimodularAffine(rows, point_from_json(data["translation"]))


def params_to_json(p: HirzebruchParams) -> dict:
    return {"a": rational_to_json(p.a), "b": rational_to_json(p.b), "m": p.m}


def params_from_json(data) -> HirzebruchParams:
    _require(
        isinstance(data, dict) and set(data) >= {"a", "b", "m"},
        "parameter JSON needs 'a', 'b', 'm'",
    )
    return HirzebruchParams(
        rational_from_json(data["a"]),
        rational_from_json(data["b"]),
        _int_from_json(data["m"], "'m'"),
    )


def manifold_to_json(m: ManifoldClass) -> dict:
    if isinstance(m, SphereProduct):
        return {"type": "s2xs2", "a": rational_to_json(m.a), "b": rational_to_json(m.b)}
    return {"type": "blowup_cp2", "l": rational_to_json(m.l), "e": rational_to_json(m.e)}


def manifold_from_json(data) -> ManifoldClass:
    _require(isinstance(data, dict) and "type" in data, "manifold JSON needs 'type'")
    kind = data["type"]
    if kind == "s2xs2":
        _require(set(data) >= {"a", "b"}, "s2xs2 manifold JSON needs 'a' and 'b'")
        return SphereProduct(rational_from_json(data["a"]), rational_from_json(data["b"]))
    if kind == "blowup_cp2":
        _require(set(data) >= {"l", "e"}, "blowup_cp2 manifold JSON needs 'l' and 'e'")
        return BlowUp(rational_from_json(data["l"]), rational_from_json(data["e"]))
    raise FormatError(f"unknown manifold type {kind!r}")


def delzant_report_to_json(report: DelzantReport) -> dict:
    return {
        "is_delzant": report.is_delzant,
        "normals": [[u.x, u.y] for u in report.normals],
        "failures": [[i, d] for i, d in report.failures],
        "input_reversed": report.input_reversed,
    }


def node_to_json(node: GraphNode) -> dict:
    if isinstance(node, IsolatedPoint):
        return {
            "type": "isolated",
            "moment": rational_to_json(node.moment),
            "weights": list(node.weights),
        }
    return {
        "type": "surface",
        "moment": rational_to_json(node.moment),
        "area": rational_to_json(node.area),
        "genus": node.genus,
    }


def node_from_json(data) -> GraphNode:
    _require(isinstance(data, dict) and "type" in data and "moment" in data, "bad graph node")
    moment = rational_from_json(data["moment"])
    if data["type"] == "isolated":
        w = data.get("weights")
        _require(isinstance(w, list) and len(w) == 2, "isolated node needs two weights")
        return IsolatedPoint(moment, tuple(_int_from_json(x, "weight") for x in w))
    if data["type"] == "surface":
        _require("area" in data, "surface node needs 'area'")
        return FatVertex(
            moment,
            rational_from_json(data["area"]),
            _int_from_json(data.get("genus", 0), "'genus'"),
        )
    raise FormatError(f"unknown node type {data['type']!r}")


def graph_to_json(g: LabeledGraph) -> dict:
    return {
        "nodes": [node_to_json(n) for n in g.nodes],
        "edges": [
            {
                "k": e.k,
                "endpoints": list(e.endpoints),
                "interval": [rational_to_json(t) for t in e.moment_interval],
            }
            for e in g.edges
        ],
    }


def _list_from_json(value, what: str, length: int | None = None) -> list:
    _require(
        isinstance(value, list) and (length is None or len(value) == length),
        f"{what} must be a list" + ("" if length is None else f" of {length} entries"),
    )
    return value


def graph_from_json(data) -> LabeledGraph:
    _require(isinstance(data, dict) and "nodes" in data, "graph JSON needs 'nodes'")
    nodes = tuple(node_from_json(n) for n in _list_from_json(data["nodes"], "'nodes'"))
    edges = []
    for e in _list_from_json(data.get("edges", []), "'edges'"):
        _require(
            isinstance(e, dict) and set(e) >= {"k", "endpoints", "interval"},
            "graph edge JSON needs 'k', 'endpoints', 'interval'",
        )
        edges.append(
            ZkEdge(
                _int_from_json(e["k"], "'k'"),
                tuple(_int_from_json(i, "endpoint index")
                      for i in _list_from_json(e["endpoints"], "'endpoints'", 2)),
                tuple(rational_from_json(t)
                      for t in _list_from_json(e["interval"], "'interval'", 2)),
            )
        )
    return LabeledGraph(nodes, tuple(edges))


def fixed_data_to_json(data: FixedPointData) -> dict:
    out = []
    for c in data.components:
        if isinstance(c, IsolatedFixed):
            out.append({"type": "isolated", "index": c.index})
        else:
            out.append({"type": "surface", "index": c.index, "genus": c.genus})
    return {"components": out}


def fixed_data_from_json(data) -> FixedPointData:
    _require(isinstance(data, dict) and "components" in data, "fixed data JSON needs 'components'")
    components: list[FixedComponent] = []
    for c in _list_from_json(data["components"], "'components'"):
        _require(isinstance(c, dict) and "type" in c and "index" in c, "bad fixed component")
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
                "moment": None if v.moment is None else rational_to_json(v.moment),
                "detail": v.detail,
            }
            for v in report.violations
        ],
    }


def matrices_to_json(matrices) -> list:
    return [[list(row) for row in m] for m in matrices]


def xi_from_text(text: str) -> IntVec2:
    parts = text.split(",")
    _require(len(parts) == 2, f"direction must look like '0,1', got {text!r}")
    return IntVec2(as_integer(parts[0]), as_integer(parts[1]))


def graph_to_dot(g: LabeledGraph) -> str:
    """Graphviz rendering with nodes grouped by moment level."""
    lines = ["graph labeled_graph {", "  rankdir=BT;", '  node [fontsize=10];']
    levels: dict[Fraction, list[str]] = {}  # moment -> node names, in first-seen order
    for i, node in enumerate(g.nodes):
        levels.setdefault(node.moment, []).append(f"n{i}")
        moment = rational_to_json(node.moment)
        if isinstance(node, IsolatedPoint):
            label = f"moment {moment}\\nweights {node.weights[0]}, {node.weights[1]}"
            shape = "circle"
        else:
            label = f"moment {moment}\\narea {rational_to_json(node.area)}\\ngenus {node.genus}"
            shape = "box"
        lines.append(f'  n{i} [shape={shape}, label="{label}"];')
    for same in levels.values():
        lines.append("  { rank=same; " + "; ".join(same) + "; }")
    for e in g.edges:
        lines.append(f'  n{e.endpoints[0]} -- n{e.endpoints[1]} [label="Z_{e.k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
