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

Both builders of a graph, ``circle_graph`` and the ``LabeledGraph``
constructor, rank its node moments once, with ``_moment_ranks``, and
keep each node's rank among the distinct moments in the hidden ``_rank``
tuple; the graph algorithms read the extrema and the levels from it.
Graph values are checked only by the public constructors of the graph
types, which ``jsonio`` decodes through; ``circle_graph`` builds values
that are valid by construction and skips the checks.

Two graphs are isomorphic when they match node-for-node and
edge-for-edge after translating both moment scales to start at 0.
Reversing xi gives the same circle subgroup; its graph, the flip,
negates every moment and weight and swaps the ends of every edge, and
``graphs_isomorphic`` compares up to the flip without building it.  It
decides by individualisation-refinement: one colour refinement per step,
none where every node already has its own colour, and one branch per
node of the class it individualises.  That is fast on the graphs
``circle_graph`` builds, but exponential in the worst case, on families
where individualising a node splits little.

Node moments stay ``Fraction``s, but the graph algorithms, and the
constructors' checks, compare them as reduced (numerator, denominator)
int pairs, by cross products.  A common denominator is never formed: on
pairwise coprime denominators it grows with every node, and the cost
with it, quadratically in all.

The graph determines the Betti numbers of the 4-manifold through the
indices of the fixed components (twice the number of negative weights
at an isolated point; 0 or 2 for a minimal or maximal surface), and it
decides whether the circle action extends to a toric one: extension is
possible exactly when every fixed surface has genus zero and no level
strictly between the extrema meets more than two non-free orbits.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from .errors import (
    GraphError,
    InteriorFixedSurfaceError,
    NonPrimitiveDirectionError,
    NotDelzantError,
)
from .lattice import IntVec2, _as_tuple, _Value, as_rational, is_int
from .polygon import Polygon, _delzant_failures


class IsolatedPoint(_Value):
    """Isolated fixed point with its two nonzero isotropy weights, sorted."""

    _fields = ("moment", "weights")

    def __init__(self, moment: Fraction, weights: tuple[int, int]):
        moment = as_rational(moment)
        a, b = _as_tuple(weights, 2) or (0, 0)  # a value that is no pair fails as (0, 0)
        if not (is_int(a) and a != 0 and is_int(b) and b != 0):
            raise GraphError(f"weights must be a pair of nonzero integers, got {weights!r}")
        self.__dict__.update(moment=moment, weights=(a, b) if a <= b else (b, a))


class FatVertex(_Value):
    """Fixed surface: moment level, positive symplectic area, genus."""

    _fields = ("moment", "area", "genus")

    def __init__(self, moment: Fraction, area: Fraction, genus: int = 0):
        moment, area = as_rational(moment), as_rational(area)
        if area.numerator <= 0:  # the denominator is positive
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
        lo, hi = as_rational(interval[0]), as_rational(interval[1])
        (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
        if a * d >= c * b:  # not lo < hi, with positive denominators
            raise GraphError(f"moment interval must be increasing, got ({lo}, {hi})")
        ends = _as_tuple(endpoints, 2)
        if ends is None or not (is_int(ends[0]) and is_int(ends[1])):
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
        order, ranks = _moment_ranks(*zip(*(node.moment.as_integer_ratio() for node in nodes)),
                                     range(len(nodes)))
        if len(nodes) > 1 and (ranks[1] == 0 or ranks[-2] == ranks[-1]):
            raise GraphError("moment extrema must each be attained by exactly one node")
        for e in edges:
            i, j = e.endpoints
            if not (0 <= i < len(nodes) and 0 <= j < len(nodes)):
                raise GraphError(f"edge endpoints {e.endpoints} out of range")
            if (nodes[i].moment, nodes[j].moment) != e.moment_interval:
                raise GraphError(
                    f"edge interval {e.moment_interval} does not match endpoint moments"
                )
        self.__dict__.update(nodes=nodes, edges=edges,
                             _rank=tuple(r for _, r in sorted(zip(order, ranks))))


def _moment_ranks(num, den, indices) -> tuple[list[int], list[int]]:
    """``indices`` sorted by the moment num[i] / den[i] (den[i] > 0), ties
    by index, and the rank of each one's moment among the distinct moments,
    in that order.  Moments are compared by integer cross products, with no
    common denominator."""
    order = sorted(indices, key=cmp_to_key(
        lambda i, j: num[i] * den[j] - num[j] * den[i] or i - j))
    ranks, r, prev = [], 0, order[0]
    for i in order:
        r += num[i] * den[prev] != num[prev] * den[i]
        ranks.append(r)
        prev = i
    return order, ranks


def circle_graph(poly: Polygon, direction: IntVec2 | tuple[int, int]) -> LabeledGraph:
    """Labeled graph of the circle subaction with primitive direction xi.

    xi is an ``IntVec2`` or a pair of ints; anything else raises
    ``NonPrimitiveDirectionError``, as does a non-primitive xi.  That is
    rejected rather than reduced: it generates no embedded circle, so
    silently dividing by the gcd would paper over a caller bug.

    One walk over the polygon's edges: edge i has speed s_i = <xi, d_i>,
    and the moment rises along it when s_i > 0.  A level edge (s_i = 0)
    is one fixed surface, which its tail vertex stands for; its head
    vertex is skipped.  Any other vertex i is an isolated point whose
    weights are the adjacent speeds (s_i, -s_{i-1}).

    Vertex i, stored as the triple (x, y, d), has the moment
    <xi, (x, y)> / d.  ``_moment_ranks`` orders the vertices that stand
    for nodes on (moment, vertex index), by integer cross products, and
    ranks their distinct moments; the moment rises and then falls once
    round a convex boundary, so the sort finds at most three runs and
    makes O(n) comparisons.  The Z_k edges are sorted by the int tuples (lower rank,
    upper rank, k, lower node, upper node, edge index).

    The values are valid by construction, so they are stored without the
    checks of the public constructors; the property tests rebuild graphs
    through those constructors and compare.
    """
    xi = (direction.x, direction.y) if isinstance(direction, IntVec2) else _as_tuple(direction, 2)
    if xi is None or any(type(e) is not int for e in xi):
        raise NonPrimitiveDirectionError(f"direction {direction!r} is not a pair of integers")
    u, v = xi
    if gcd(u, v) != 1:
        raise NonPrimitiveDirectionError(f"direction {(u, v)} is not primitive")
    if failures := _delzant_failures(poly):
        raise NotDelzantError(failures)

    edges = poly._edges
    n = len(edges)
    speeds = [u * dx + v * dy for dx, dy, _ in edges]
    # vertex i = (x/d, y/d) has moment num[i] / den[i] = <xi, (x, y)> / d, not reduced
    num = [u * x + v * y for x, y, _ in poly._pts]
    den = [d for _, _, d in poly._pts]
    # every vertex but the head of a level edge stands for a node
    order, rank = _moment_ranks(num, den, [i for i in range(n) if speeds[i - 1]])

    new = object.__new__
    nodes: list[GraphNode] = []
    node_of_vertex = [0] * n
    for i in order:
        node_of_vertex[i] = len(nodes)
        moment = Fraction(num[i], den[i])
        node = new(FatVertex if speeds[i] == 0 else IsolatedPoint)
        if speeds[i] == 0:
            node_of_vertex[(i + 1) % n] = len(nodes)
            node.__dict__.update(moment=moment, area=edges[i][2], genus=0)
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
    graph.__dict__.update(nodes=tuple(nodes), edges=tuple(zk_edges), _rank=tuple(rank))
    return graph


def graphs_isomorphic(g1: LabeledGraph, g2: LabeledGraph, up_to_flip: bool = False) -> bool:
    """Node- and edge-preserving equality after translating moments to 0.

    With ``up_to_flip`` the comparison also tries g2 with the circle
    direction reversed, without building that flipped graph.  g1's labels
    and both graphs' edge orders serve both tries: a flipped node's label
    holds the greatest moment minus its own and the weights (a, b) as
    (-b, -a), and flipping swaps the ends of every edge, which leaves the
    symmetric edge orders unchanged.

    A node's label holds its moment minus the least moment as a reduced
    int pair (one cross product and one gcd per node, with no common
    denominator, which on pairwise coprime denominators grows with n).
    The labels are refined by the multiset of (k, neighbour label) over
    Z_k edges until the partition is stable (1-dimensional
    Weisfeiler-Leman colour refinement), jointly on both graphs, and the
    graphs are rejected once their label multisets differ.  Otherwise the
    map pairing each class's nodes in index order is checked edge by
    edge, and when it fails the first node of a tied class in g1 is
    individualised against each node of that class in g2, each pair
    refined again (McKay-Piperno individualisation-refinement, without
    automorphism pruning).  A colouring of g1 in which every node has
    its own colour is a leaf of that search: refinement could split
    nothing, so it is skipped, and the one candidate map is checked
    directly.  With n nodes and E edges the labels cost O(n), each
    refinement O(n) rounds of O(n + E log E), and each candidate map
    O(n + E).  A step costs at most one refinement and opens one branch
    per node of the individualised class, and every branch splits a
    class, so no path is deeper than n.  Graphs from ``circle_graph``
    hold at most two nodes per moment level and seldom branch; where
    every node label differs, as on most of them, the comparison runs no
    refinement at all.  No polynomial bound holds in general: on
    families where individualising a node splits little, such as
    Cai-Fuerer-Immerman graphs, the number of branches grows
    exponentially with n.
    """
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return False
    labels1, orders1, orders2 = _node_labels(g1), _edge_orders(g1), _edge_orders(g2)
    if _isomorphic_labelled(labels1, orders1, _node_labels(g2), orders2):
        return True
    return up_to_flip and _isomorphic_labelled(labels1, orders1, _node_labels(g2, True), orders2)


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
    reduced int pair; ``flipped`` labels the flip of g, the graph of the
    reversed direction, whose moments and weights are negated."""
    rank = g._rank
    base, base_den = g.nodes[rank.index(max(rank) if flipped else 0)].moment.as_integer_ratio()
    sign = -1 if flipped else 1
    labels = []
    for node in g.nodes:
        a, b = node.moment.as_integer_ratio()
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
    """Colour refinement of two graphs' disjoint union, to stability or
    until their colour multisets differ, which splitting cannot undo.

    ``labels`` and ``orders`` hold one entry per graph; equal colours
    (small ints) in different graphs mean the same refined label.
    """
    ids: dict = {}
    colours = [[ids.setdefault(lab, len(ids)) for lab in labs] for labs in labels]
    count = 0
    while len(ids) > count and sorted(colours[0]) == sorted(colours[1]):
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
    return colours


def _isomorphic_labelled(labels1, orders1, labels2, orders2) -> bool:
    """Whether two graphs of equally many nodes and edges, given as their
    node labels and edge orders, match node-for-node and edge-for-edge; the
    stack holds colourings and the nodes to individualise (-1 for none).
    A colouring of g1 that is already discrete is not refined: refinement
    cannot split a class of one node, and the one candidate map it leaves
    is checked edge by edge anyway."""
    stack = [(labels1, labels2, -1, -1)]
    while stack:
        c1, c2, v, w = stack.pop()  # siblings share c1, c2; labels are built here
        pair = [(c, i == v) for i, c in enumerate(c1)], [(c, j == w) for j, c in enumerate(c2)]
        ids: dict = {}
        colours1 = [ids.setdefault(lab, len(ids)) for lab in pair[0]]
        if len(ids) < len(colours1):
            colours1, colours2 = _refined_colours(pair, (orders1, orders2))
        else:
            colours2 = [ids.setdefault(lab, len(ids)) for lab in pair[1]]
        if sorted(colours1) != sorted(colours2):
            continue
        cells: dict[int, list[int]] = {}
        for j, c in enumerate(colours2):
            cells.setdefault(c, []).append(j)
        ahead = {c: iter(js) for c, js in cells.items()}
        image = [next(ahead[c]) for c in colours1]
        if all({image[u]: ks for u, ks in nbrs.items()} == orders2[image[i]]
               for i, nbrs in enumerate(orders1)):
            return True
        tied = next((i for i, c in enumerate(colours1) if len(cells[c]) > 1), None)
        if tied is not None:
            stack.extend((colours1, colours2, tied, j) for j in cells[colours1[tied]])
    return False


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
    top = max(g._rank)
    components: list[FixedComponent] = []
    for node, r in zip(g.nodes, g._rank):
        if isinstance(node, FatVertex):
            if r == 0:
                components.append(SurfaceFixed(0, node.genus))
            elif r == top:
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

    The levels are the node ranks the graph keeps, so nothing is sorted
    and no ``Fraction`` is compared.  One sweep over the critical values
    in rank order keeps the number of spheres crossing the current level,
    so with n nodes and E edges the check costs O(n + E) once the graph
    is built.
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
    rank = g._rank
    critical: list = [None] * (max(rank) + 1)
    for node, r in zip(g.nodes, rank):
        critical[r] = node.moment
    isolated = Counter(r for node, r in zip(g.nodes, rank) if isinstance(node, IsolatedPoint))
    opened = Counter(rank[e.endpoints[0]] for e in g.edges)
    closed = Counter(rank[e.endpoints[1]] for e in g.edges)

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
