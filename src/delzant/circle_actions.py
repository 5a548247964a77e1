"""Labeled graphs of circle subactions of a toric action.

Restricting the torus action over a Delzant polygon to the circle with
primitive direction xi gives a Hamiltonian circle action whose moment
map is the projection x -> <x, xi> of the polygon.  Its fixed-point
structure is encoded in a labeled graph read off the polygon edge by
edge:

  * an edge whose primitive direction v has <xi, v> = 0 lies in a level
    line of the projection and becomes a fixed surface ("fat vertex"),
    labeled with its moment level, its lattice length as area, and
    genus 0;
  * every other polygon vertex becomes an isolated fixed point, labeled
    with its moment value and the pair of isotropy weights <xi, v1>,
    <xi, v2> along the two edge directions leaving the vertex;
  * an edge with |<xi, v>| = k >= 2 is a sphere on which the circle
    rotates with speed k; it becomes an edge of the graph joining the
    nodes containing its endpoints.  Speed-1 spheres carry no isotropy
    and are not recorded.

``circle_graph`` orders the nodes without a sort, by merging the two
chains of vertices along which the moment rises from the minimum, one
each way round the boundary.  Graph values are checked only by the
public constructors of the graph types, which ``jsonio`` decodes and
``flip_graph`` builds through; ``circle_graph`` builds values that are
valid by construction and skips the checks.

Two graphs are isomorphic when they match node-for-node and
edge-for-edge after translating both moment scales to start at 0.

Node moments stay ``Fraction``s, but the graph algorithms compare them
as reduced (numerator, denominator) int pairs, by cross products.  A
common denominator is never formed: on pairwise coprime denominators it
grows with every node, and the cost with it, quadratically in all.

The graph determines the Betti numbers of the 4-manifold through the
indices of the fixed components (twice the number of negative weights
at an isolated point; 0 or 2 for a minimal or maximal surface), and it
decides whether the circle action extends to a toric one: extension is
possible exactly when every fixed surface has genus zero and no level
strictly between the extrema meets more than two non-free orbits.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd

from .errors import (
    GraphError,
    InteriorFixedSurfaceError,
    NonPrimitiveDirectionError,
    NotDelzantError,
)
from .lattice import IntVec2, _as_tuple, _Value, as_rational, is_int, primitive
from .polygon import Polygon, edge_data, is_delzant


class CircleDirection(_Value):
    """Primitive generator of a circle subgroup of the 2-torus.

    Non-primitive input is rejected rather than reduced: a non-primitive
    vector does not generate an embedded circle, so silently dividing by
    the gcd would paper over a caller bug.
    """

    _fields = ("xi",)

    def __init__(self, xi: IntVec2):
        if not isinstance(xi, IntVec2):
            xi = IntVec2(*xi)
        if xi.is_zero() or primitive(xi) != xi:
            raise NonPrimitiveDirectionError(f"direction {(xi.x, xi.y)} is not primitive")
        self.__dict__.update(xi=xi)


class IsolatedPoint(_Value):
    """Isolated fixed point with its two nonzero isotropy weights, sorted."""

    _fields = ("moment", "weights")

    def __init__(self, moment: Fraction, weights: tuple[int, int]):
        moment = as_rational(moment)
        w = _as_tuple(weights, 2)
        if w is None or not all(is_int(x) and x != 0 for x in w):
            raise GraphError(f"weights must be a pair of nonzero integers, got {weights!r}")
        self.__dict__.update(moment=moment, weights=tuple(sorted(w)))


class FatVertex(_Value):
    """Fixed surface: moment level, positive symplectic area, genus."""

    _fields = ("moment", "area", "genus")

    def __init__(self, moment: Fraction, area: Fraction, genus: int = 0):
        moment, area = as_rational(moment), as_rational(area)
        if area <= 0:
            raise GraphError(f"fixed surface area must be positive, got {area}")
        if not is_int(genus) or genus < 0:
            raise GraphError(f"genus must be a nonnegative integer, got {genus!r}")
        self.__dict__.update(moment=moment, area=area, genus=genus)


GraphNode = IsolatedPoint | FatVertex


class ZkEdge(_Value):
    """Sphere rotated with speed k >= 2, joining two nodes of the graph.

    ``endpoints`` are node indices ordered so the first has the lower
    moment; ``moment_interval`` repeats the endpoint moment values.
    """

    _fields = ("k", "endpoints", "moment_interval")

    def __init__(self, k: int, endpoints: tuple[int, int],
                 moment_interval: tuple[Fraction, Fraction]):
        if not is_int(k) or k < 2:
            raise GraphError(f"isotropy order k must be an integer >= 2, got {k!r}")
        interval = _as_tuple(moment_interval, 2)
        if interval is None:
            raise GraphError(
                f"moment interval must be a pair of rationals, got {moment_interval!r}"
            )
        lo, hi = map(as_rational, interval)
        if not lo < hi:
            raise GraphError(f"moment interval must be increasing, got ({lo}, {hi})")
        ends = _as_tuple(endpoints, 2)
        if ends is None or not all(is_int(i) for i in ends):
            raise GraphError(f"endpoints must be a pair of node indices, got {endpoints!r}")
        self.__dict__.update(k=k, endpoints=ends, moment_interval=(lo, hi))


class LabeledGraph(_Value):
    _fields = ("nodes", "edges")

    def __init__(self, nodes: tuple[GraphNode, ...], edges: tuple[ZkEdge, ...] = ()):
        nodes, edges = _as_tuple(nodes), _as_tuple(edges)
        if nodes is None or not all(isinstance(n, GraphNode) for n in nodes):
            raise GraphError("graph nodes must be a sequence of IsolatedPoint or FatVertex values")
        if edges is None or not all(isinstance(e, ZkEdge) for e in edges):
            raise GraphError("graph edges must be a sequence of ZkEdge values")
        if not nodes:
            raise GraphError("graph needs at least one node")
        pairs, lo, hi = _moment_pairs(nodes)
        if pairs.count(lo) != 1 or (lo != hi and pairs.count(hi) != 1):
            raise GraphError("moment extrema must each be attained by exactly one node")
        for e in edges:
            i, j = e.endpoints
            if not (0 <= i < len(nodes) and 0 <= j < len(nodes)):
                raise GraphError(f"edge endpoints {e.endpoints} out of range")
            if (nodes[i].moment, nodes[j].moment) != e.moment_interval:
                raise GraphError(
                    f"edge interval {e.moment_interval} does not match endpoint moments"
                )
        self.__dict__.update(nodes=nodes, edges=edges)


def _moment_pairs(nodes) -> tuple[list[tuple[int, int]], tuple[int, int], tuple[int, int]]:
    """Each node's moment as its reduced (numerator, denominator) pair, and
    the least and the greatest pair, found in one pass by cross products."""
    pairs = [node.moment.as_integer_ratio() for node in nodes]
    lo = hi = pairs[0]
    for a, b in pairs:
        if a * lo[1] < lo[0] * b:
            lo = (a, b)
        elif a * hi[1] > hi[0] * b:
            hi = (a, b)
    return pairs, lo, hi


def circle_graph(poly: Polygon, direction: CircleDirection | IntVec2) -> LabeledGraph:
    """Labeled graph of the circle subaction with primitive direction xi.

    One walk over ``edge_data(poly)``: edge i has speed s_i = <xi, d_i>,
    and the moment rises along it when s_i > 0.  A level edge (s_i = 0)
    is one fixed surface, which its tail vertex stands for; its head
    vertex is skipped.  Any other vertex i is an isolated point whose
    weights are the adjacent speeds (s_i, -s_{i-1}).

    Vertex i, stored as the triple (x, y, d), has the moment
    <xi, (x, y)> / d, and moments are compared as integer cross products.
    On a strictly convex boundary the speeds are positive on one cyclic
    run of edges, which starts at the minimum vertex (the i with
    s_{i-1} <= 0 < s_i, so the head of a bottom level edge).  Walking
    forwards from it along that run, and backwards from the vertex before
    it, gives two chains that rise strictly to the top, so one merge on
    (moment, vertex index) orders the nodes in at most n comparisons.
    The ranks of the distinct moments are read off the merged order, and
    the Z_k edges are sorted by the int tuples (lower rank, upper rank, k,
    lower node, upper node, edge index).

    The values are valid by construction, so they are stored without the
    checks of the public constructors; the property tests rebuild graphs
    through those constructors and compare.
    """
    if not isinstance(direction, CircleDirection):
        direction = CircleDirection(direction)
    xi = direction.xi
    report = is_delzant(poly)
    if not report.is_delzant:
        raise NotDelzantError(report.failures)

    edges = edge_data(poly)
    n = len(edges)
    speeds = [xi.dot(e.direction) for e in edges]
    # vertex i = (x/d, y/d) has moment num[i] / den[i] = <xi, (x, y)> / d, not reduced
    num = [xi.x * x + xi.y * y for x, y, _ in poly._pts]
    den = [d for _, _, d in poly._pts]

    def below(i: int, j: int) -> bool:  # vertex i comes before vertex j
        diff = num[i] * den[j] - num[j] * den[i]
        return diff < 0 or diff == 0 and i < j

    start = next(i for i in range(n) if speeds[i - 1] <= 0 < speeds[i])
    walk = [*range(start, n), *range(start)]
    top = next(k for k, i in enumerate(walk) if speeds[i] <= 0)
    # walk[:top + 1] forwards and walk[top + 1:] backwards, without the
    # heads of level edges
    up = [i for i in walk[:top + 1] if speeds[i - 1]]
    down = [i for i in walk[:top:-1] if speeds[i - 1]]
    order, j = [], 0
    for i in up:
        while j < len(down) and below(down[j], i):
            order.append(down[j])
            j += 1
        order.append(i)
    order += down[j:]

    new = object.__new__
    nodes: list[GraphNode] = []
    rank: list[int] = []  # each node's moment rank among the distinct moments
    node_of_vertex = [0] * n
    r, prev = 0, order[0]
    for i in order:
        r += num[i] * den[prev] != num[prev] * den[i]
        rank.append(r)
        prev = i
        node_of_vertex[i] = len(nodes)
        moment = Fraction(num[i], den[i])
        node = new(FatVertex if speeds[i] == 0 else IsolatedPoint)
        if speeds[i] == 0:
            node_of_vertex[(i + 1) % n] = len(nodes)
            node.__dict__.update(moment=moment, area=edges[i].lattice_length, genus=0)
        else:
            s, t = speeds[i], -speeds[i - 1]
            node.__dict__.update(moment=moment, weights=(s, t) if s < t else (t, s))
        nodes.append(node)

    zk = []
    for i, speed in enumerate(speeds):
        if abs(speed) >= 2:
            lo, hi = node_of_vertex[i], node_of_vertex[(i + 1) % n]
            if speed < 0:
                lo, hi = hi, lo
            zk.append((rank[lo], rank[hi], abs(speed), lo, hi, i))
    zk_edges = []
    for _, _, k, lo, hi, _ in sorted(zk):
        edge = new(ZkEdge)
        edge.__dict__.update(k=k, endpoints=(lo, hi),
                             moment_interval=(nodes[lo].moment, nodes[hi].moment))
        zk_edges.append(edge)
    graph = new(LabeledGraph)
    graph.__dict__.update(nodes=tuple(nodes), edges=tuple(zk_edges))
    return graph


def graphs_isomorphic(g1: LabeledGraph, g2: LabeledGraph, up_to_flip: bool = False) -> bool:
    """Node- and edge-preserving equality after translating moments to 0.

    With ``up_to_flip`` the comparison also tries g2 with the circle
    direction reversed, without building ``flip_graph(g2)``.  g1's labels
    and both graphs' edge orders serve both tries: a flipped node's label
    holds the greatest moment minus its own and the weights (a, b) as
    (-b, -a), and flipping swaps the ends of every edge, which leaves the
    symmetric edge orders unchanged.

    A node's label holds its moment minus the least moment as a reduced
    int pair (one cross product and one gcd per node, with no common
    denominator, which on pairwise coprime denominators grows with n).
    The labels are refined by the multiset of (k, neighbour label) over
    Z_k edges until the partition is stable (1-dimensional
    Weisfeiler-Leman colour refinement), and the graphs are rejected
    when the refined labels differ.  Otherwise a backtracking search
    maps nodes within their refined classes, checking every edge as soon
    as both of its endpoints are mapped.  With n nodes and E edges the
    labels cost O(n), each refinement round O(n + E log E), there are at
    most n rounds, and comparing the refined labels costs O(n log n).
    The search branches only among nodes that refinement leaves tied;
    graphs from ``circle_graph`` hold at most two nodes per moment
    level, so few stay tied there, but on general graphs with many tied
    nodes that refinement cannot tell apart the search can still take
    exponential time.
    """
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return False
    labels1, orders1, orders2 = _node_labels(g1), _edge_orders(g1), _edge_orders(g2)
    if _isomorphic_labelled(labels1, orders1, _node_labels(g2), orders2):
        return True
    return up_to_flip and _isomorphic_labelled(labels1, orders1, _node_labels(g2, True), orders2)


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


def _edge_orders(g: LabeledGraph) -> list[dict[int, list[int]]]:
    """For every node, its neighbours mapped to the sorted orders k of the
    Z_k edges joining them; the edges are sorted by k once."""
    joined: list[dict[int, list[int]]] = [{} for _ in g.nodes]
    for k, i, j in sorted((e.k, *e.endpoints) for e in g.edges):
        joined[i].setdefault(j, []).append(k)
        joined[j].setdefault(i, []).append(k)
    return joined


def _node_labels(g: LabeledGraph, flipped: bool = False) -> list[tuple]:
    """Each node's label, with its moment translated to start at 0 as a
    reduced int pair; ``flipped`` labels the graph of ``flip_graph(g)``."""
    pairs, lo, hi = _moment_pairs(g.nodes)
    (base, base_den), sign = (hi, -1) if flipped else (lo, 1)
    labels = []
    for node, (a, b) in zip(g.nodes, pairs):
        num, den = sign * (a * base_den - base * b), b * base_den
        d = gcd(num, den)
        moment = (num // d, den // d)
        if isinstance(node, IsolatedPoint):
            w = node.weights
            labels.append(("isolated", moment, (-w[1], -w[0]) if flipped else w))
        else:
            labels.append(("surface", moment, node.area, node.genus))
    return labels


def _refined_colours(labels, orders) -> list[list[int]]:
    """Stable colour refinement of the disjoint union of the graphs.

    ``labels`` and ``orders`` hold one entry per graph.  Colours are
    small ints shared by all the graphs, so equal colours in different
    graphs mean the same refined label.
    """
    ids: dict = {}
    colours = [[ids.setdefault(lab, len(ids)) for lab in labs] for labs in labels]
    while True:
        count = len(ids)
        ids = {}
        colours = [
            [
                ids.setdefault(
                    (c[v], tuple(sorted((k, c[u]) for u, ks in nbrs.items() for k in ks))),
                    len(ids),
                )
                for v, nbrs in enumerate(adj)
            ]
            for c, adj in zip(colours, orders)
        ]
        if len(ids) == count:
            return colours


def _isomorphic_labelled(labels1, orders1, labels2, orders2) -> bool:
    """Whether two graphs of equally many nodes and edges, given as their
    node labels and edge orders, match node-for-node and edge-for-edge."""
    colours1, colours2 = _refined_colours((labels1, labels2), (orders1, orders2))
    if sorted(colours1) != sorted(colours2):
        return False

    candidates: dict[int, list[int]] = defaultdict(list)
    for j, c in enumerate(colours2):
        candidates[c].append(j)
    # forced (singleton) classes first, so the branching nodes meet the
    # most already-mapped neighbours
    order = sorted(range(len(labels1)), key=lambda i: (len(candidates[colours1[i]]), i))
    image: list[int | None] = [None] * len(order)
    taken = [False] * len(order)

    # the graphs have equally many edges, so once every edge of g1 is matched
    # with the same multiplicity, no edge of g2 is left over
    def consistent(i: int, j: int) -> bool:
        return all(image[u] is None or orders2[j].get(image[u]) == ks
                   for u, ks in orders1[i].items())

    # iterative backtracking: tried[pos] counts the candidates tried for order[pos]
    tried = [0] * len(order)
    pos = 0
    while 0 <= pos < len(order):
        i = order[pos]
        if image[i] is not None:
            taken[image[i]] = False
            image[i] = None
        options = candidates[colours1[i]]
        while tried[pos] < len(options):
            j = options[tried[pos]]
            tried[pos] += 1
            if not taken[j] and consistent(i, j):
                image[i], taken[j] = j, True
                pos += 1
                break
        else:
            tried[pos] = 0
            pos -= 1
    return pos == len(order)


class IsolatedFixed(_Value):
    """Isolated fixed point of even index 0, 2, or 4."""

    _fields = ("index",)

    def __init__(self, index: int):
        if not is_int(index) or index not in (0, 2, 4):
            raise GraphError(f"isolated fixed point index must be 0, 2, or 4, got {index!r}")
        self.__dict__.update(index=index)


class SurfaceFixed(_Value):
    """Fixed surface of index 0 (minimum) or 2 (maximum)."""

    _fields = ("index", "genus")

    def __init__(self, index: int, genus: int = 0):
        if not is_int(index) or index not in (0, 2):
            raise GraphError(f"fixed surface index must be 0 or 2, got {index!r}")
        if not is_int(genus) or genus < 0:
            raise GraphError(f"genus must be a nonnegative integer, got {genus!r}")
        self.__dict__.update(index=index, genus=genus)


FixedComponent = IsolatedFixed | SurfaceFixed
# the isolated fixed points with 0, 1 and 2 negative weights; values are immutable
_ISOLATED_FIXED = tuple(IsolatedFixed(index) for index in (0, 2, 4))


class FixedPointData(_Value):
    _fields = ("components",)

    def __init__(self, components: tuple[FixedComponent, ...]):
        components = _as_tuple(components)
        if components is None or not all(isinstance(c, FixedComponent) for c in components):
            raise GraphError("fixed components must be IsolatedFixed or SurfaceFixed values")
        if sum(1 for c in components if c.index == 0) != 1:
            raise GraphError("exactly one fixed component must have index 0")
        self.__dict__.update(components=components)


def fixed_point_data(g: LabeledGraph) -> FixedPointData:
    """Index data of the fixed components of a labeled graph.

    Isolated points get index 2 * (number of negative weights); surfaces
    get 0 at the minimum and 2 at the maximum.  A surface at any other
    level cannot occur for a moment-map projection and is an error.
    """
    pairs, lo, hi = _moment_pairs(g.nodes)
    components: list[FixedComponent] = []
    for node, pair in zip(g.nodes, pairs):
        if isinstance(node, FatVertex):
            if pair == lo:
                components.append(SurfaceFixed(0, node.genus))
            elif pair == hi:
                components.append(SurfaceFixed(2, node.genus))
            else:
                raise InteriorFixedSurfaceError(
                    f"interior fixed surface impossible (moment {node.moment})"
                )
        else:
            components.append(_ISOLATED_FIXED[(node.weights[0] < 0) + (node.weights[1] < 0)])
    return FixedPointData(tuple(components))


def betti_numbers(data: FixedPointData) -> tuple[int, int, int, int, int]:
    """Betti numbers b0..b4 from perfect Morse theory on the moment map.

    An isolated point contributes 1 in degree equal to its index; a
    genus-g surface contributes 1, 2g, 1 in degrees index, index+1,
    index+2.
    """
    b = [0, 0, 0, 0, 0]
    for c in data.components:
        if isinstance(c, IsolatedFixed):
            b[c.index] += 1
        else:
            b[c.index] += 1
            b[c.index + 1] += 2 * c.genus
            b[c.index + 2] += 1
    return tuple(b)


class Violation(_Value):
    """One reason a graph fails the toric-extension criterion; ``kind`` is
    "genus" or "level"."""

    _fields = ("kind", "moment", "detail")

    def __init__(self, kind: str, moment: Fraction | None, detail: str):
        self.__dict__.update(kind=kind, moment=moment, detail=detail)


class ExtendabilityReport(_Value):
    _fields = ("extendable", "violations")

    def __init__(self, extendable: bool, violations: tuple[Violation, ...]):
        self.__dict__.update(extendable=extendable, violations=violations)


def check_extendable(g: LabeledGraph) -> ExtendabilityReport:
    """Decide whether the circle action of the graph extends to a toric one.

    Requires genus zero on every fixed surface and at most two non-free
    orbits on every level strictly between the moment extrema.  At such
    a level the non-free orbits are the isolated fixed points sitting on
    it plus one orbit for every isotropy sphere whose open moment
    interval crosses it (a sphere endpoint on the level is one of the
    fixed points and is not counted twice).  The count is constant
    between consecutive critical values, so checking the critical values
    and the midpoints between them decides every level.

    One sweep over the sorted critical values keeps the number of
    spheres crossing the current level, so with n nodes and E edges the
    check costs O(n log n + E).
    """
    violations: list[Violation] = []
    for node in g.nodes:
        if isinstance(node, FatVertex) and node.genus > 0:
            violations.append(
                Violation(
                    "genus",
                    node.moment,
                    f"fixed surface of genus {node.genus} at moment {node.moment}",
                )
            )

    # every edge interval runs between the moments of its endpoint nodes (the
    # LabeledGraph constructor checks it, and circle_graph builds it so), so
    # the node moments are all the critical values
    critical: list[Fraction] = []
    node_rank = [0] * len(g.nodes)
    for i in sorted(range(len(g.nodes)), key=lambda i: g.nodes[i].moment):
        if not critical or critical[-1] != g.nodes[i].moment:
            critical.append(g.nodes[i].moment)
        node_rank[i] = len(critical) - 1
    isolated = Counter(
        node_rank[i] for i, node in enumerate(g.nodes) if isinstance(node, IsolatedPoint)
    )
    opened = Counter(node_rank[e.endpoints[0]] for e in g.edges)
    closed = Counter(node_rank[e.endpoints[1]] for e in g.edges)

    def report(level: Fraction, count: int):
        violations.append(Violation("level", level, f"{count} non-free orbits at level {level}"))

    top = len(critical) - 1
    crossing = 0  # spheres with start < level <= end
    for r, level in enumerate(critical):
        crossing -= closed[r]
        if 0 < r < top and crossing + isolated[r] > 2:
            report(level, crossing + isolated[r])
        crossing += opened[r]  # now the spheres crossing the gap above the level
        if r < top and crossing > 2:
            report((level + critical[r + 1]) / 2, crossing)
    return ExtendabilityReport(not violations, tuple(violations))
