"""Labeled graphs, Betti numbers, and the toric-extension criterion."""

import json
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from delzant import (
    CircleDirection,
    FatVertex,
    FixedPointData,
    HirzebruchParams,
    IntVec2,
    IsolatedFixed,
    IsolatedPoint,
    LabeledGraph,
    SurfaceFixed,
    UnimodularAffine,
    ZkEdge,
    apply_map,
    betti_numbers,
    check_extendable,
    circle_graph,
    edge_data,
    fixed_point_data,
    graphs_isomorphic,
    make_polygon,
    standard_trapezoid,
)
from delzant import circle_actions, jsonio
from delzant.errors import (
    GraphError,
    InteriorFixedSurfaceError,
    NonPrimitiveDirectionError,
    NotDelzantError,
)

from reference_graphs import (
    flip_graph,
    reference_check_extendable,
    reference_circle_graph,
    reference_graphs_isomorphic,
)
from reference_polygons import mat_inverse_unimodular, mat_transpose, mat_vec
from support import (
    bipartite_graph,
    mixed_denominator_cases,
    permuted,
    primitive_directions,
    rand_affine,
    rand_params,
    rand_rational,
    rand_unimodular_linear,
    random_graph,
    random_matchings,
    relabelled,
    tied_bipartite_pairs,
)
from test_polygon_oracle import cut_corners, d4_pair, outcome, rand_convex

UNIT_SQUARE = make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_direction_must_be_primitive():
    with pytest.raises(NonPrimitiveDirectionError):
        CircleDirection(IntVec2(2, 4))
    with pytest.raises(NonPrimitiveDirectionError):
        CircleDirection(IntVec2(0, 0))
    CircleDirection(IntVec2(-2, 3))


@pytest.mark.parametrize("xi", [(1.0, 0), ("1", "0"), (True, 0)])
def test_direction_pair_with_a_non_int_entry_is_no_direction(xi):
    """A pair whose entries are not exact ints raises the same error as a
    value that is no pair, from the constructor and from ``circle_graph``."""
    for build in (CircleDirection, lambda xi: circle_graph(UNIT_SQUARE, xi)):
        with pytest.raises(NonPrimitiveDirectionError, match="is not a pair of integers"):
            build(xi)


def test_circle_graph_requires_delzant():
    with pytest.raises(NotDelzantError):
        circle_graph(make_polygon([(0, 0), (2, 0), (0, 1)]), IntVec2(0, 1))


def test_square_vertical_direction_two_surfaces():
    g = circle_graph(UNIT_SQUARE, IntVec2(0, 1))
    assert g.nodes == (FatVertex(0, 1, 0), FatVertex(1, 1, 0))
    assert g.edges == ()


def test_trapezoid_horizontal_direction():
    g = circle_graph(standard_trapezoid(HirzebruchParams(2, 1, 2)), IntVec2(1, 0))
    assert g.nodes == (
        FatVertex(0, 1, 0),
        IsolatedPoint(1, (-1, 2)),
        IsolatedPoint(3, (-2, -1)),
    )
    assert g.edges == (ZkEdge(2, (1, 2), (Fraction(1), Fraction(3))),)


def test_trapezoid_vertical_direction():
    g = circle_graph(standard_trapezoid(HirzebruchParams(2, 1, 2)), IntVec2(0, 1))
    assert g.nodes == (FatVertex(0, 3, 0), FatVertex(1, 1, 0))
    assert g.edges == ()


def test_square_diagonal_direction_four_isolated_points():
    g = circle_graph(UNIT_SQUARE, IntVec2(1, 1))
    assert [n.moment for n in g.nodes] == [0, 1, 1, 2]
    assert g.nodes[0].weights == (1, 1)
    assert g.nodes[3].weights == (-1, -1)
    assert g.nodes[1].weights == (-1, 1) and g.nodes[2].weights == (-1, 1)


def test_extremal_nodes_unique_and_weight_signs():
    rng = Random(30)
    for _ in range(25):
        poly = standard_trapezoid(rand_params(rng))
        for xi in primitive_directions(2):
            g = circle_graph(poly, xi)
            moments = [n.moment for n in g.nodes]
            assert moments.count(min(moments)) == 1
            assert moments.count(max(moments)) == 1
            for n in g.nodes:
                if not isinstance(n, IsolatedPoint):
                    continue
                if n.moment == min(moments):
                    assert n.weights[0] > 0
                elif n.moment == max(moments):
                    assert n.weights[1] < 0
                else:
                    assert n.weights[0] < 0 < n.weights[1]


def test_graph_isomorphism_translation_only():
    g = circle_graph(standard_trapezoid(HirzebruchParams(2, 1, 2)), IntVec2(1, 0))
    assert graphs_isomorphic(g, g)
    shift = Fraction(7, 3)
    shifted = LabeledGraph(
        tuple(
            IsolatedPoint(n.moment + shift, n.weights)
            if isinstance(n, IsolatedPoint)
            else FatVertex(n.moment + shift, n.area, n.genus)
            for n in g.nodes
        ),
        tuple(
            ZkEdge(e.k, e.endpoints, (e.moment_interval[0] + shift, e.moment_interval[1] + shift))
            for e in g.edges
        ),
    )
    assert graphs_isomorphic(g, shifted)


def test_graph_isomorphism_distinguishes_labels():
    g1 = circle_graph(standard_trapezoid(HirzebruchParams(2, 1, 2)), IntVec2(1, 0))
    g2 = circle_graph(standard_trapezoid(HirzebruchParams(2, 1, 2)), IntVec2(0, 1))
    assert not graphs_isomorphic(g1, g2)
    g3 = circle_graph(standard_trapezoid(HirzebruchParams(3, 1, 2)), IntVec2(1, 0))
    assert not graphs_isomorphic(g1, g3)


def test_graph_isomorphism_needs_matching_edge_structure():
    # same node multiset, different wiring of the isotropy sphere
    nodes = (
        IsolatedPoint(0, (1, 1)),
        IsolatedPoint(1, (-1, 2)),
        IsolatedPoint(1, (-1, 2)),
        IsolatedPoint(2, (-1, -1)),
    )
    g_a = LabeledGraph(nodes, (ZkEdge(2, (0, 3), (Fraction(0), Fraction(2))),))
    g_b = LabeledGraph(nodes, (ZkEdge(2, (1, 3), (Fraction(1), Fraction(2))),))
    assert not graphs_isomorphic(g_a, g_b)
    assert graphs_isomorphic(g_b, g_b)


def _graph_signature(g: LabeledGraph):
    """Exact content up to node reindexing (moments not translated)."""
    nodes = sorted(repr(n) for n in g.nodes)
    edges = sorted(
        (e.k, e.moment_interval, repr(g.nodes[e.endpoints[0]]), repr(g.nodes[e.endpoints[1]]))
        for e in g.edges
    )
    return nodes, edges


def test_direction_flip_negates_moments_and_weights():
    rng = Random(31)
    for _ in range(20):
        poly = standard_trapezoid(rand_params(rng))
        for xi in (IntVec2(1, 0), IntVec2(1, 2), IntVec2(-1, 3)):
            g = circle_graph(poly, xi)
            h = circle_graph(poly, IntVec2(-xi.x, -xi.y))
            assert _graph_signature(h) == _graph_signature(flip_graph(g))
            assert graphs_isomorphic(g, h, up_to_flip=True)


def test_flip_not_identified_by_default():
    g = circle_graph(standard_trapezoid(HirzebruchParams(2, 1, 2)), IntVec2(1, 0))
    h = circle_graph(standard_trapezoid(HirzebruchParams(2, 1, 2)), IntVec2(-1, 0))
    assert not graphs_isomorphic(g, h)
    assert graphs_isomorphic(g, h, up_to_flip=True)


def test_equivariance_under_orientation_preserving_maps():
    rng = Random(32)
    for _ in range(30):
        poly = standard_trapezoid(rand_params(rng))
        while True:
            linear = rand_unimodular_linear(rng, 6)
            if linear[0][0] * linear[1][1] - linear[0][1] * linear[1][0] == 1:
                break
        t = UnimodularAffine(linear)
        xi_prime = IntVec2(1, 2)
        xi = mat_vec(mat_transpose(linear), xi_prime)
        g = circle_graph(poly, xi)
        h = circle_graph(apply_map(poly, t), xi_prime)
        assert graphs_isomorphic(g, h)


def test_fixed_point_data_square_and_trapezoid():
    square_data = fixed_point_data(circle_graph(UNIT_SQUARE, IntVec2(0, 1)))
    assert square_data.components == (SurfaceFixed(0, 0), SurfaceFixed(2, 0))
    trap_data = fixed_point_data(
        circle_graph(standard_trapezoid(HirzebruchParams(2, 1, 2)), IntVec2(1, 0))
    )
    assert trap_data.components == (SurfaceFixed(0, 0), IsolatedFixed(2), IsolatedFixed(4))


def test_any_trapezoid_vertical_direction_gives_two_surfaces():
    rng = Random(35)
    for _ in range(25):
        g = circle_graph(standard_trapezoid(rand_params(rng)), IntVec2(0, 1))
        data = fixed_point_data(g)
        assert data.components == (SurfaceFixed(0, 0), SurfaceFixed(2, 0))


def test_fixed_point_data_rejects_interior_surface():
    g = LabeledGraph(
        (
            IsolatedPoint(0, (1, 1)),
            FatVertex(1, 1, 0),
            IsolatedPoint(2, (-1, -1)),
        )
    )
    with pytest.raises(InteriorFixedSurfaceError):
        fixed_point_data(g)


@pytest.mark.parametrize(
    "components,expected",
    [
        ((SurfaceFixed(0, 0), SurfaceFixed(2, 0)), (1, 0, 2, 0, 1)),
        ((SurfaceFixed(0, 0), IsolatedFixed(2), IsolatedFixed(4)), (1, 0, 2, 0, 1)),
        ((SurfaceFixed(0, 1), SurfaceFixed(2, 1)), (1, 2, 2, 2, 1)),
    ],
)
def test_betti_numbers_table(components, expected):
    assert betti_numbers(FixedPointData(components)) == expected


def test_betti_numbers_match_edge_count():
    rng = Random(33)
    for _ in range(15):
        poly = standard_trapezoid(rand_params(rng))
        for xi in primitive_directions(2):
            g = circle_graph(poly, xi)
            b = betti_numbers(fixed_point_data(g))
            assert b == (1, 0, 2, 0, 1)
            interior = sum(
                1
                for n in g.nodes
                if isinstance(n, IsolatedPoint) and n.weights[0] < 0 < n.weights[1]
            )
            surfaces = sum(1 for n in g.nodes if isinstance(n, FatVertex))
            assert b[2] == interior + surfaces == len(poly) - 2


def test_extendable_for_trapezoid_graphs():
    rng = Random(34)
    for _ in range(10):
        poly = standard_trapezoid(rand_params(rng))
        for xi in primitive_directions(3):
            report = check_extendable(circle_graph(poly, xi))
            assert report.extendable, report.violations


def test_extendable_fails_on_three_shared_spheres():
    g = LabeledGraph(
        (IsolatedPoint(0, (1, 1)), IsolatedPoint(1, (-1, -1))),
        tuple(ZkEdge(2, (0, 1), (Fraction(0), Fraction(1))) for _ in range(3)),
    )
    report = check_extendable(g)
    assert not report.extendable
    assert [(v.kind, v.moment) for v in report.violations] == [("level", Fraction(1, 2))]
    assert "3 non-free orbits" in report.violations[0].detail
    data = jsonio.extendability_to_json(report)
    assert json.loads(json.dumps(data)) == data == {
        "extendable": False,
        "violations": [{"kind": "level", "moment": "1/2",
                        "detail": "3 non-free orbits at level 1/2"}],
    }


def test_extendable_fails_on_positive_genus():
    g = LabeledGraph((FatVertex(Fraction(-1, 3), 1, 1), FatVertex(1, 1, 0)))
    report = check_extendable(g)
    assert not report.extendable
    assert report.violations[0].kind == "genus"
    data = jsonio.extendability_to_json(report)
    assert json.loads(json.dumps(data)) == data == {
        "extendable": False,
        "violations": [{"kind": "genus", "moment": "-1/3",
                        "detail": "fixed surface of genus 1 at moment -1/3"}],
    }


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        LabeledGraph((IsolatedPoint(0, (1, 1)), IsolatedPoint(0, (1, 1))))
    with pytest.raises(GraphError):
        LabeledGraph(
            (IsolatedPoint(0, (1, 1)), IsolatedPoint(1, (-1, -1))),
            (ZkEdge(2, (0, 1), (Fraction(0), Fraction(2))),),
        )
    with pytest.raises(GraphError):
        ZkEdge(1, (0, 1), (Fraction(0), Fraction(1)))
    with pytest.raises(GraphError):
        IsolatedPoint(0, (0, 1))
    with pytest.raises(GraphError):
        FatVertex(0, 0, 0)
    with pytest.raises(GraphError, match="increasing"):
        ZkEdge(2, (0, 1), (Fraction(1), Fraction(0)))
    with pytest.raises(GraphError, match="at least one node"):
        LabeledGraph(())
    with pytest.raises(GraphError, match="out of range"):
        LabeledGraph(
            (IsolatedPoint(0, (1, 1)), IsolatedPoint(1, (-1, -1))),
            (ZkEdge(2, (0, 2), (Fraction(0), Fraction(1))),),
        )
    with pytest.raises(GraphError, match="exactly one fixed component"):
        FixedPointData((IsolatedFixed(0), SurfaceFixed(0), IsolatedFixed(4)))


@pytest.mark.parametrize(
    "cls,args",
    [
        pytest.param(ZkEdge, (2, (0.9, 1.7), (0, 1)), id="float-endpoints"),
        pytest.param(ZkEdge, (2, ("0", "1"), (0, 1)), id="string-endpoints"),
        pytest.param(ZkEdge, (2, (0, 1, 2), (0, 1)), id="three-endpoints"),
        pytest.param(FatVertex, (0, 1, True), id="bool-surface-genus"),
        pytest.param(SurfaceFixed, (0, True), id="bool-fixed-genus"),
        pytest.param(SurfaceFixed, (False,), id="bool-surface-index"),
        pytest.param(IsolatedPoint, (0, (True, -1)), id="bool-weight"),
        pytest.param(IsolatedFixed, (False,), id="bool-isolated-index"),
        pytest.param(IsolatedFixed, (2.0,), id="float-isolated-index"),
    ],
)
def test_graph_types_reject_non_integers(cls, args):
    # bool passes isinstance(x, int), and int() would truncate floats and parse strings
    with pytest.raises(GraphError):
        cls(*args)


def test_weights_sorted_on_construction():
    assert IsolatedPoint(0, (2, -1)).weights == (-1, 2)


# --- agreement with the exhaustive reference implementations ---------------

def test_agrees_with_reference_on_random_graphs():
    """10,000 random graphs, then 2,000 whose node labels all differ, so
    that no refinement runs; each against a relabelled copy (permuted, and
    sometimes with an edge end moved, a k changed or a weight changed)."""
    rng, mix = Random(36), Random(37)
    seen = {"violations": 0, "isomorphic": 0, "flipped": 0, "different": 0}
    discrete = {"isomorphic": 0, "flipped": 0, "different": 0, "edges-different": 0}
    mixed = {"translate": 0, "flip": 0, "twin": 0, "twin-different": 0}
    for step in range(12_000):
        g = random_graph(rng, discrete=step >= 10_000)
        report = check_extendable(g)
        assert repr(report) == repr(reference_check_extendable(g))
        seen["violations"] += not report.extendable
        h = relabelled(rng, g)
        plain = graphs_isomorphic(g, h)
        flipped = graphs_isomorphic(g, h, up_to_flip=True)
        assert plain == reference_graphs_isomorphic(g, h)
        assert flipped == reference_graphs_isomorphic(g, h, up_to_flip=True)
        answer = "isomorphic" if plain else "flipped" if flipped else "different"
        seen[answer] += 1
        if step >= 10_000:
            labels = circle_actions._node_labels(g)
            assert len(set(labels)) == len(labels)
            discrete[answer] += 1
            # the labels match, so only the check of the one candidate map rejects
            discrete["edges-different"] += (
                not plain and sorted(labels) == sorted(circle_actions._node_labels(h)))
        # moments whose denominators share no prime with g's, on every other graph
        for kind, h in mixed_denominator_cases(mix, g) if step % 2 == 0 else ():
            plain = graphs_isomorphic(g, h)
            assert plain == reference_graphs_isomorphic(g, h)
            assert graphs_isomorphic(g, h, True) == reference_graphs_isomorphic(g, h, True)
            mixed[kind] += 1
            mixed["twin-different"] += kind == "twin" and not plain
    # the corpus exercises every outcome, not just the easy ones
    assert min(seen.values()) >= 500, seen
    assert min(discrete.values()) >= 100, discrete
    assert min(mixed.values()) >= 500, mixed


def test_graph_algorithms_make_no_fraction_order_comparison(monkeypatch):
    """Moments are compared as reduced int pairs: building, comparing (up
    to the flip too), indexing, decoding and checking a graph calls no
    ``Fraction`` order operator, subtraction or negation; ``ZkEdge``
    (lo < hi) and ``FatVertex`` (area <= 0) check their values on the
    pairs too."""
    poly = cut_corners(standard_trapezoid(HirzebruchParams(3, 1, 1)), Random(5), 252)
    g = circle_graph(poly, IntVec2(1, 0))
    assert len(poly) == 256 and len(g.edges) > 200
    text = jsonio.graph_to_json(g)
    fg = flip_graph(g)
    calls = []
    for name in ("__lt__", "__gt__", "__le__", "__ge__", "__sub__", "__neg__"):
        def counted(*args, op=getattr(Fraction, name), name=name):
            calls.append(name)
            return op(*args)
        monkeypatch.setattr(Fraction, name, counted)

    assert LabeledGraph(g.nodes, g.edges) == g
    assert calls == []
    assert graphs_isomorphic(g, g, True)
    assert calls == []
    # the flip is labelled from g's own int pairs, with no flip_graph built
    assert not graphs_isomorphic(g, fg) and graphs_isomorphic(g, fg, True)
    assert calls == []
    assert fixed_point_data(g).components[0] == SurfaceFixed(0, 0)
    assert calls == []
    assert jsonio.graph_from_json(text) == g
    assert calls == []
    assert check_extendable(g).extendable
    assert calls == []


def _mapped(rng: Random, poly, directions) -> tuple:
    """``poly`` under a random lattice map x -> Rx + v, and ``directions``
    carried along by R^{-T}, which keeps their level lines: the image's
    moments under R^{-T} xi are the original's under xi, shifted."""
    transform = rand_affine(rng)
    carry = mat_transpose(mat_inverse_unimodular(transform.linear))
    return apply_map(poly, transform), [mat_vec(carry, xi) for xi in directions]


def _oracle_polygons(rng: Random):
    """Pairs (polygon, extra directions): mapped Delzant triangles, standard
    trapezoids (m = 0..8) and D4-symmetric corner-cut polygons with the
    directions that give them level edges and tied levels; corner-cut
    n-gons up to n = 64 with the direction and the normal of one edge; and
    a few polygons that are not Delzant."""
    for _ in range(80):
        size = rand_rational(rng)
        triangle = make_polygon([(0, 0), (size, 0), (0, size)])
        yield _mapped(rng, triangle, [IntVec2(0, 1), IntVec2(1, 0), IntVec2(1, 1)])
    for m in range(9):
        for _ in range(8):
            params = rand_params(rng, 0)
            params = HirzebruchParams(params.a + Fraction(m, 2) * params.b, params.b, m)
            yield _mapped(rng, standard_trapezoid(params), [IntVec2(0, 1)])
    symmetric = (IntVec2(1, 0), IntVec2(0, 1), IntVec2(1, 1), IntVec2(1, -1))
    for _ in range(40):
        yield _mapped(rng, d4_pair(rng)[0], symmetric)
    for _ in range(15):
        poly = standard_trapezoid(rand_params(rng))
        for cuts in (1, 2, 4, 8, 16, 32, 60):
            poly = cut_corners(poly, rng, cuts - (len(poly) - 4))
            edge = rng.choice(edge_data(poly))
            yield _mapped(rng, poly, [edge.direction, edge.inward_normal])
    for _ in range(10):
        yield rand_convex(rng), []


def test_circle_graph_agrees_with_reference():
    rng = Random(39)
    seen = {"cases": 0, "surfaces": 0, "ties": 0, "zk": 0, "not_delzant": 0}
    for poly, extra in _oracle_polygons(rng):
        for xi in primitive_directions(3) + extra + [IntVec2(-xi.x, -xi.y) for xi in extra]:
            expected = outcome(reference_circle_graph, poly, xi)
            seen["cases"] += 1
            try:
                g = circle_graph(poly, xi)
            except NotDelzantError as exc:
                assert f"NotDelzantError: {exc} {exc.failures}" == expected, (poly, xi)
                seen["not_delzant"] += 1
                continue
            assert repr(g) == expected, (poly, xi)
            seen["surfaces"] += any(isinstance(node, FatVertex) for node in g.nodes)
            seen["ties"] += len({node.moment for node in g.nodes}) < len(g.nodes)
            seen["zk"] += bool(g.edges)
    assert seen["cases"] >= 10_000 and min(seen.values()) >= 100, seen


def test_circle_graph_skips_the_constructor_checks(monkeypatch):
    built = 0

    def counting(construct):
        def init(self, *args, **kwargs):
            nonlocal built
            built += 1
            construct(self, *args, **kwargs)
        return init

    for cls in (IsolatedPoint, FatVertex, ZkEdge, LabeledGraph):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    rng = Random(41)
    polys = [standard_trapezoid(HirzebruchParams(3 + m, 2, m)) for m in range(5)]
    polys += [cut_corners(poly, rng, 6) for poly in polys]
    zk = 0
    for poly in polys:
        for xi in primitive_directions(3):
            zk += len(circle_graph(poly, xi).edges)
    assert built == 0 and zk > 0
    # the patch does count what the public constructors build
    LabeledGraph((IsolatedPoint(0, (1, 1)),))
    assert built == 2


def _tied_levels_graph(levels: int, rewired: bool) -> LabeledGraph:
    """``levels`` levels each holding two identical isolated points, both
    joined to the maximum by a Z_2 edge; ``rewired`` moves the second
    edge of the top level onto its twin, so the labels still agree but
    the twins' edge counts differ."""
    top = Fraction(levels + 1)
    nodes = [IsolatedPoint(0, (1, 1))]
    for level in range(1, levels + 1):
        nodes += [IsolatedPoint(level, (-1, 1)), IsolatedPoint(level, (-1, 1))]
    nodes.append(IsolatedPoint(top, (-1, -1)))
    ends = list(range(1, 2 * levels + 1))
    if rewired:
        ends[-1] = ends[-2]
    edges = [ZkEdge(2, (i, len(nodes) - 1), (nodes[i].moment, top)) for i in ends]
    return LabeledGraph(tuple(nodes), tuple(edges))


def test_isomorphism_tied_levels_without_blowup():
    # the exhaustive search visits 2**30 label-preserving maps on this pair
    g = _tied_levels_graph(30, rewired=False)
    assert not graphs_isomorphic(g, _tied_levels_graph(30, rewired=True))
    assert not graphs_isomorphic(g, _tied_levels_graph(30, rewired=True), up_to_flip=True)
    rng = Random(37)
    for _ in range(5):
        assert graphs_isomorphic(g, permuted(rng, g))


def _three_level_graph(width: int, triangles: int) -> LabeledGraph:
    """Three levels of ``width`` tied points between a minimum and a maximum.

    Every point has one Z_2 edge to each other level.  The first
    ``3 * triangles`` points of the levels form triangles, the rest
    6-cycles through two points per level, so colour refinement cannot
    tell the points apart and only the search separates the shapes.
    """
    nodes = [IsolatedPoint(0, (1, 1))]
    for level in range(3):
        nodes += [IsolatedPoint(level + 1, (-1, 1)) for _ in range(width)]
    at = [[1 + level * width + t for t in range(width)] for level in range(3)]
    pairs = []
    for t in range(triangles):
        pairs += [(at[0][t], at[1][t]), (at[1][t], at[2][t]), (at[0][t], at[2][t])]
    for t in range(triangles, width, 2):
        pairs += [(at[0][t], at[1][t]), (at[1][t], at[2][t]), (at[0][t + 1], at[2][t]),
                  (at[0][t + 1], at[1][t + 1]), (at[1][t + 1], at[2][t + 1]),
                  (at[0][t], at[2][t + 1])]
    nodes.append(IsolatedPoint(4, (-1, -1)))
    return LabeledGraph(tuple(nodes), tuple(
        ZkEdge(2, (i, j), (nodes[i].moment, nodes[j].moment)) for i, j in pairs))


def test_isomorphism_search_separates_refinement_equivalent_graphs():
    cycle, triangles = _three_level_graph(2, 0), _three_level_graph(2, 2)
    assert not reference_graphs_isomorphic(cycle, triangles)
    assert not graphs_isomorphic(cycle, triangles)
    mixed = _three_level_graph(4, 2)
    assert not graphs_isomorphic(mixed, _three_level_graph(4, 0))
    assert not graphs_isomorphic(mixed, _three_level_graph(4, 4))
    # early choices that pass every local check can still be wrong here,
    # so finding the isomorphism needs the search to back up
    rng = Random(38)
    for _ in range(20):
        assert graphs_isomorphic(mixed, permuted(rng, mixed))


def _counted_refinements(monkeypatch) -> list:
    calls = []
    refine = circle_actions._refined_colours

    def counted(*args):
        calls.append(None)
        return refine(*args)
    monkeypatch.setattr(circle_actions, "_refined_colours", counted)
    return calls


def test_isomorphism_search_refines_at_most_once_per_node(monkeypatch):
    """Refinement alone splits none of these tied levels, so every answer
    needs individualisation; each comparison still refines at most once
    per node."""
    rng = Random(39)
    cases = []
    for width in (8, 12):
        mixed = _three_level_graph(width, 2)
        cases += [(mixed, _three_level_graph(width, 0), False), (mixed, permuted(rng, mixed), True)]
    cubic = bipartite_graph(random_matchings(rng, 50, simple=True), (2, 2, 2))
    cases.append((cubic, permuted(rng, cubic), True))
    calls = _counted_refinements(monkeypatch)
    for g, h, expected in cases:
        calls.clear()
        assert graphs_isomorphic(g, h) == expected
        assert 1 < len(calls) <= len(g.nodes)


def test_isomorphism_of_discrete_labels_refines_nothing(monkeypatch):
    """Every node label of a 256-gon's graph differs, so refinement can
    split no class: comparing it with its image under a lattice map, with
    the image's flip and with the image with one k changed checks the one
    label-preserving map, and runs no refinement."""
    rng = Random(42)
    poly = cut_corners(standard_trapezoid(HirzebruchParams(3, 1, 1)), rng, 252)
    image, (eta,) = _mapped(rng, poly, [IntVec2(1, 0)])
    g, h = circle_graph(poly, IntVec2(1, 0)), circle_graph(image, eta)
    flipped = circle_graph(image, IntVec2(-eta.x, -eta.y))
    e = h.edges[0]
    changed = LabeledGraph(h.nodes, (ZkEdge(e.k + 1, e.endpoints, e.moment_interval),
                                     *h.edges[1:]))
    labels = circle_actions._node_labels(g)
    assert len(poly) == 256 and len(set(labels)) == len(labels) and g.edges
    calls = _counted_refinements(monkeypatch)
    for up_to_flip in (False, True):
        assert graphs_isomorphic(g, h, up_to_flip)
        assert graphs_isomorphic(g, flipped, up_to_flip) == up_to_flip
        assert not graphs_isomorphic(g, changed, up_to_flip)
    assert calls == []


def test_isomorphism_search_holds_one_colouring_per_level():
    """Individualising a level of 50 tied nodes pushes 50 branches.  They
    share the one colouring they split, and each builds its own labels
    only when it is popped, so the comparison's peak stays well under
    what 50 pairs of label lists of 102 entries each would take."""
    rng = Random(41)
    cubic = bipartite_graph(random_matchings(rng, 50, simple=True), (2, 2, 2))
    twin = permuted(rng, cubic)
    tracemalloc.start()
    try:
        assert graphs_isomorphic(cubic, twin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_agrees_with_reference_on_tied_bipartite_graphs(monkeypatch):
    """Cubic multigraphs between two levels of four tied points, against a
    permuted copy, a copy with two edge ends swapped (still cubic, so
    refinement still ties every level) or another random graph, each
    sometimes flipped."""
    calls = _counted_refinements(monkeypatch)
    seen, branched = {True: 0, False: 0}, 0
    for g, h in tied_bipartite_pairs(Random(40), 150):
        for up_to_flip in (False, True):
            calls.clear()
            answer = graphs_isomorphic(g, h, up_to_flip)
            assert answer == reference_graphs_isomorphic(g, h, up_to_flip)
            seen[answer] += 1
            branched += len(calls) > 1
    assert min(seen.values()) >= 50, seen
    assert branched >= 50
