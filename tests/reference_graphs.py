"""Reference implementations of the graph code, kept as test oracles.

``reference_circle_graph`` is the earlier ``circle_graph``: it tags every
node spec with a string, sorts the specs by Fraction-keyed tuples and
recomputes both weights at every vertex.  The others are the original
exhaustive versions of ``check_extendable`` and of the translated
isomorphism test: every candidate level rescans every edge, and every
label-preserving node permutation is tried with the edges compared only
at the end.  They are slow (quadratic and exponential) but obviously
correct, and the agreement tests compare the library against them on
seeded random polygons and graphs.

``flip_graph`` builds the graph of the reversed circle direction through
the public constructors; the library compares up to that flip from its
node labels, without building the flipped graph.
"""

from itertools import permutations

from delzant import (
    CircleDirection,
    ExtendabilityReport,
    FatVertex,
    IntVec2,
    IsolatedPoint,
    LabeledGraph,
    Polygon,
    Violation,
    ZkEdge,
    edge_data,
    is_delzant,
)
from delzant.circle_actions import GraphNode
from delzant.errors import NotDelzantError


def _dot(u, w):
    return u.x * w.x + u.y * w.y


def reference_circle_graph(poly: Polygon, direction: CircleDirection | IntVec2) -> LabeledGraph:
    """Labeled graph of the circle subaction with primitive direction xi."""
    if not isinstance(direction, CircleDirection):
        direction = CircleDirection(direction)
    xi = direction.xi
    report = is_delzant(poly)
    if not report.is_delzant:
        raise NotDelzantError(report.failures)

    edges = edge_data(poly)
    n = len(edges)
    pts = poly.vertices
    speeds = [_dot(xi, e.direction) for e in edges]
    moments = [_dot(p, xi) for p in pts]

    # vertex i sits between edge i-1 (incoming) and edge i (outgoing)
    level_edge_of_vertex = {}
    for i in range(n):
        if speeds[i] == 0:
            level_edge_of_vertex[i] = i
            level_edge_of_vertex[(i + 1) % n] = i

    node_specs: list[tuple] = []
    for i in range(n):
        if speeds[i] == 0:
            node_specs.append((moments[i], "edge", i))
    for i in range(n):
        if i not in level_edge_of_vertex:
            node_specs.append((moments[i], "vertex", i))
    node_specs.sort(key=lambda spec: (spec[0], spec[1], spec[2]))

    nodes: list[GraphNode] = []
    node_of_vertex: dict[int, int] = {}
    for moment, kind, i in node_specs:
        if kind == "edge":
            nodes.append(FatVertex(moment, edges[i].lattice_length, 0))
            node_of_vertex[i] = len(nodes) - 1
            node_of_vertex[(i + 1) % n] = len(nodes) - 1
        else:
            back = edges[(i - 1) % n].direction
            away = (edges[i].direction, IntVec2(-back.x, -back.y))
            nodes.append(IsolatedPoint(moments[i], (_dot(xi, away[0]), _dot(xi, away[1]))))
            node_of_vertex[i] = len(nodes) - 1

    zk_edges = []
    for i in range(n):
        if abs(speeds[i]) >= 2:
            ends = (i, (i + 1) % n)
            if moments[ends[0]] > moments[ends[1]]:
                ends = (ends[1], ends[0])
            zk_edges.append(
                ZkEdge(
                    abs(speeds[i]),
                    (node_of_vertex[ends[0]], node_of_vertex[ends[1]]),
                    (moments[ends[0]], moments[ends[1]]),
                )
            )
    zk_edges.sort(key=lambda e: (e.moment_interval, e.k, e.endpoints))
    return LabeledGraph(tuple(nodes), tuple(zk_edges))


def reference_check_extendable(g: LabeledGraph) -> ExtendabilityReport:
    violations = []
    for node in g.nodes:
        if isinstance(node, FatVertex) and node.genus > 0:
            violations.append(
                Violation(
                    "genus",
                    node.moment,
                    f"fixed surface of genus {node.genus} at moment {node.moment}",
                )
            )

    lo = min(n.moment for n in g.nodes)
    hi = max(n.moment for n in g.nodes)
    critical = sorted(
        {n.moment for n in g.nodes}
        | {m for e in g.edges for m in e.moment_interval}
    )
    candidates = list(critical)
    for left, right in zip(critical, critical[1:]):
        candidates.append((left + right) / 2)
    isolated_moments = [n.moment for n in g.nodes if isinstance(n, IsolatedPoint)]
    for level in sorted(candidates):
        if not lo < level < hi:
            continue
        count = sum(1 for e in g.edges if e.moment_interval[0] < level < e.moment_interval[1])
        count += sum(1 for m in isolated_moments if m == level)
        if count > 2:
            violations.append(
                Violation("level", level, f"{count} non-free orbits at level {level}")
            )
    return ExtendabilityReport(not violations, tuple(violations))


def _node_label(node, base):
    if isinstance(node, IsolatedPoint):
        return ("isolated", node.moment - base, node.weights)
    return ("surface", node.moment - base, node.area, node.genus)


def reference_isomorphic_translated(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return False
    base1 = min(n.moment for n in g1.nodes)
    base2 = min(n.moment for n in g2.nodes)
    labels1 = [_node_label(n, base1) for n in g1.nodes]
    labels2 = [_node_label(n, base2) for n in g2.nodes]
    if sorted(labels1) != sorted(labels2):
        return False

    by_label = {}
    for i, lab in enumerate(labels1):
        by_label.setdefault(lab, ([], []))[0].append(i)
    for j, lab in enumerate(labels2):
        by_label.setdefault(lab, ([], []))[1].append(j)

    def edge_multiset(g, relabel):
        return sorted(
            (e.k, tuple(sorted((relabel(e.endpoints[0]), relabel(e.endpoints[1])))))
            for e in g.edges
        )

    target = edge_multiset(g2, lambda j: j)
    groups = list(by_label.values())

    def assign(idx, mapping):
        if idx == len(groups):
            return edge_multiset(g1, lambda i: mapping[i]) == target
        ones, twos = groups[idx]
        for perm in permutations(twos):
            for i, j in zip(ones, perm):
                mapping[i] = j
            if assign(idx + 1, mapping):
                return True
        return False

    return assign(0, {})


def flip_graph(g: LabeledGraph) -> LabeledGraph:
    """The graph of the reversed circle direction: negate moments and
    weights, and swap the ends of every edge."""
    nodes = tuple(
        IsolatedPoint(-n.moment, (-n.weights[1], -n.weights[0]))
        if isinstance(n, IsolatedPoint) else FatVertex(-n.moment, n.area, n.genus)
        for n in g.nodes
    )
    edges = tuple(
        ZkEdge(e.k, (e.endpoints[1], e.endpoints[0]),
               (-e.moment_interval[1], -e.moment_interval[0]))
        for e in g.edges
    )
    return LabeledGraph(nodes, edges)


def reference_graphs_isomorphic(g1, g2, up_to_flip=False) -> bool:
    if reference_isomorphic_translated(g1, g2):
        return True
    return up_to_flip and reference_isomorphic_translated(g1, flip_graph(g2))
