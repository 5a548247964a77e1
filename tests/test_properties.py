"""Property tests of the lattice invariants, drawn by the deterministic
``hypothesis`` profile of ``conftest.py``."""

import copy
import math
import pickle
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from delzant import (
    BlowUp,
    FatVertex,
    HirzebruchParams,
    IsolatedPoint,
    LabeledGraph,
    Polygon,
    RatVec2,
    SphereProduct,
    UnimodularAffine,
    ZkEdge,
    apply_map,
    betti_numbers,
    check_extendable,
    circle_graph,
    classify_quadrilateral,
    congruent,
    count_tori,
    edge_data,
    enumerate_tori,
    fixed_point_data,
    flip_graph,
    graphs_isomorphic,
    make_polygon,
    standard_trapezoid,
)
from delzant.errors import DelzantError
from delzant.lattice import mat_det, mat_vec

from support import primitive_directions
from test_polygon_oracle import check_direction_solve, convex_hull, cut_corners

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
# negative values, large random denominators, and the coprime denominators
# of two Mersenne primes and a power of 3
wide_rationals = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20)),
    st.builds(Fraction, st.integers(-10**6, 10**6),
              st.sampled_from((2**61 - 1, 2**89 - 1, 3**40))),
)
positive = st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=30)


@st.composite
def unimodular_affines(draw):
    s, t = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    rows = ((1 + s * t, s), (t, 1))  # ((1, s), (0, 1)) times ((1, 0), (t, 1)): det 1
    if draw(st.booleans()):
        rows = rows[::-1]  # det -1
    return UnimodularAffine(rows, RatVec2(draw(rationals), draw(rationals)))


@st.composite
def hull_polygons(draw):
    """The convex hull of random points, in either orientation: seldom Delzant."""
    points = draw(st.lists(st.tuples(rationals, rationals), min_size=3, max_size=12))
    hull = convex_hull(points)
    assume(len(hull) >= 3)
    if draw(st.booleans()):
        hull = hull[::-1]
    return make_polygon(hull)


@st.composite
def convex_polygons(draw):
    return apply_map(draw(hull_polygons()), draw(unimodular_affines()))


@st.composite
def canonical_params(draw):
    m = draw(st.integers(0, 8))
    b = draw(positive)
    a = Fraction(m, 2) * b + draw(positive)
    if m == 0 and a < b:
        a, b = b, a
    return HirzebruchParams(a, b, m)


@st.composite
def valid_params(draw):
    """Any valid parameters, non-canonical rectangles included."""
    m = draw(st.integers(0, 8))
    b = draw(st.one_of(positive, wide_rationals.filter(lambda q: q > 0)))
    return HirzebruchParams(Fraction(m, 2) * b + draw(positive), b, m)


@st.composite
def corner_cut_polygons(draw, cuts=8):
    """A standard trapezoid with up to ``cuts`` corners cut by toric
    blow-ups, under a random lattice map: a Delzant polygon."""
    poly = standard_trapezoid(draw(canonical_params()))
    poly = cut_corners(poly, draw(st.randoms(use_true_random=False)), draw(st.integers(0, cuts)))
    return apply_map(poly, draw(unimodular_affines()))


DIRECTIONS = primitive_directions(3)


@given(convex_polygons())
def test_edges_walk_the_boundary_in_primitive_steps(poly):
    pts = poly.vertices
    for i, e in enumerate(edge_data(poly)):
        assert e.tail_index == i and e.lattice_length > 0
        assert math.gcd(e.direction.x, e.direction.y) == 1
        assert e.inward_normal == e.direction.rotate_left()
        step = RatVec2(e.direction.x * e.lattice_length, e.direction.y * e.lattice_length)
        assert pts[i] + step == pts[(i + 1) % len(pts)]


manifolds = st.one_of(
    st.builds(SphereProduct, positive, positive),
    st.builds(lambda e, gap: BlowUp(e + gap, e), positive, positive),
)


@given(manifolds)
def test_count_tori_counts_enumerate_tori(manifold):
    assert count_tori(manifold) == len(enumerate_tori(manifold))


@given(canonical_params(), unimodular_affines())
def test_classify_inverts_standard_trapezoid(params, transform):
    standard = standard_trapezoid(params)
    assert classify_quadrilateral(standard)[0] == params
    found, witness = classify_quadrilateral(apply_map(standard, transform))
    assert found == params
    assert apply_map(apply_map(standard, transform), witness) == standard


@given(unimodular_affines(), wide_rationals, wide_rationals, wide_rationals, wide_rationals)
def test_apply_is_the_affine_formula(transform, x, y, tx, ty):
    transform = UnimodularAffine(transform.linear, RatVec2(tx, ty))
    p = RatVec2(x, y)
    assert transform.apply(p) == mat_vec(transform.linear, p) + transform.translation


@given(convex_polygons(), unimodular_affines())
def test_congruent_finds_a_witness_for_every_image(poly, transform):
    image = apply_map(poly, transform)
    witness = congruent(poly, image)
    assert witness is not None
    assert apply_map(poly, witness) == image


@given(corner_cut_polygons(), unimodular_affines())
def test_direction_solve_carries_every_direction(poly, transform):
    # the candidate of the map itself always passes the words and the solve
    assert mat_det(transform.linear) in check_direction_solve(poly, apply_map(poly, transform))


@given(canonical_params(), canonical_params(), st.booleans(), unimodular_affines(),
       unimodular_affines())
def test_congruent_agrees_with_classification(params1, params2, same, t1, t2):
    if same:
        params2 = params1
    quad1 = apply_map(standard_trapezoid(params1), t1)
    quad2 = apply_map(standard_trapezoid(params2), t2)
    assert classify_quadrilateral(quad1)[0] == params1
    assert classify_quadrilateral(quad2)[0] == params2
    assert (congruent(quad1, quad2) is not None) == (params1 == params2)


@given(corner_cut_polygons())
def test_betti_numbers_of_every_circle_action(poly):
    for xi in DIRECTIONS:
        fixed = fixed_point_data(circle_graph(poly, xi))
        assert betti_numbers(fixed) == (1, 0, len(poly) - 2, 0, 1), xi


@given(corner_cut_polygons())
def test_circle_actions_of_delzant_polygons_extend(poly):
    for xi in DIRECTIONS:
        assert check_extendable(circle_graph(poly, xi)).extendable, xi


@given(corner_cut_polygons(), st.sampled_from(DIRECTIONS))
def test_flip_graph_is_an_involution(poly, xi):
    g = circle_graph(poly, xi)
    assert flip_graph(flip_graph(g)) == g


@given(corner_cut_polygons(), st.sampled_from(DIRECTIONS))
def test_reversed_direction_gives_the_flipped_graph(poly, xi):
    assert graphs_isomorphic(circle_graph(poly, -xi), flip_graph(circle_graph(poly, xi)))


def _rebuilt(g: LabeledGraph) -> LabeledGraph:
    """``g`` built again through the public constructors, which run every check."""
    nodes = [
        IsolatedPoint(node.moment, node.weights) if isinstance(node, IsolatedPoint)
        else FatVertex(node.moment, node.area, node.genus)
        for node in g.nodes
    ]
    edges = [ZkEdge(e.k, e.endpoints, e.moment_interval) for e in g.edges]
    return LabeledGraph(nodes, edges)


@given(corner_cut_polygons())
def test_built_graphs_pass_the_constructor_checks(poly):
    # circle_graph stores its values unchecked; flip_graph builds through the checks
    for xi in DIRECTIONS:
        g = circle_graph(poly, xi)
        for h in (g, flip_graph(g)):
            rebuilt = _rebuilt(h)
            assert rebuilt == h and repr(rebuilt) == repr(h), xi


def _assert_constructed(built: Polygon, constructed: Polygon):
    """A polygon built from edge data, unchecked, is the one the public
    constructor makes: the same vertices, start, orientation flag and edge
    data, down to the types (``repr`` tells a Fraction length from an int)."""
    assert repr(built) == repr(constructed)
    assert repr(edge_data(built)) == repr(edge_data(constructed))
    assert built.input_reversed == constructed.input_reversed
    rebuilt = Polygon(built.vertices)
    assert rebuilt.vertices == built.vertices and not rebuilt.input_reversed
    assert repr(edge_data(rebuilt)) == repr(edge_data(built))


@settings(max_examples=300)
@given(st.one_of(hull_polygons(), corner_cut_polygons(cuts=60)),
       unimodular_affines(), unimodular_affines())
def test_apply_map_builds_what_the_constructor_builds(poly, t1, t2):
    """``apply_map`` maps the edge data instead of the vertices' differences.
    Its image is the polygon the constructor makes of the mapped vertices,
    under maps of either determinant sign; the second map acts on an image
    whose ``input_reversed`` is set whenever the first map reversed it.
    The inputs are Delzant corner-cut n-gons with n up to 64 and random
    hulls, which are seldom Delzant."""
    image = apply_map(poly, t1)
    _assert_constructed(image, Polygon(tuple(t1.apply(p) for p in poly.vertices)))
    again = apply_map(image, t2)
    _assert_constructed(again, Polygon(tuple(t2.apply(p) for p in image.vertices)))


@given(valid_params())
def test_standard_trapezoid_builds_what_the_constructor_builds(params):
    std = standard_trapezoid(params)
    _assert_constructed(std, Polygon(std.vertices))


def _assert_canonical_triples(poly: Polygon):
    """Each stored vertex (x, y, d) is the point (x/d, y/d) in lowest terms:
    d > 0, gcd(x, y, d) = 1, and d is the lcm of the point's own two
    coordinate denominators, never a denominator shared across vertices."""
    for x, y, d in poly._pts:
        assert d > 0 and math.gcd(x, y, d) == 1
        assert d == math.lcm(Fraction(x, d).denominator, Fraction(y, d).denominator)


@settings(max_examples=200)
@given(st.one_of(hull_polygons(), corner_cut_polygons(cuts=60)),
       unimodular_affines(), unimodular_affines(), valid_params())
def test_every_builder_output_is_rebuilt_from_its_vertices(poly, t1, t2, params):
    """The vertex triples are a canonical form: whichever builder made a
    polygon (the constructor, ``apply_map`` under maps of either
    determinant sign, chained twice, or ``standard_trapezoid``), the
    constructor given its vertices stores the same triples, and makes a
    polygon with the same points, edge data and hash."""
    once = apply_map(poly, t1)
    for built in (poly, once, apply_map(once, t2), standard_trapezoid(params)):
        _assert_canonical_triples(built)
        rebuilt = Polygon(built.vertices)
        assert rebuilt._pts == built._pts and rebuilt == built
        assert repr(rebuilt.vertices) == repr(built.vertices)
        assert repr(edge_data(rebuilt)) == repr(edge_data(built))
        assert hash(rebuilt) == hash(built)


@st.composite
def polygon_pairs(draw):
    """Two vertex lists and a map for each: one hull under one map, whose
    images are equal, or under two maps, or two hulls that differ in one
    coordinate's denominator alone, under one map."""
    hull = convex_hull(draw(st.lists(st.tuples(rationals, rationals), min_size=3, max_size=8)))
    assume(len(hull) >= 3)
    t = draw(unimodular_affines())
    how = draw(st.sampled_from(("same", "maps", "denominator")))
    if how != "denominator":
        return hull, hull, t, t if how == "same" else draw(unimodular_affines())
    other = [list(p) for p in hull]
    k, c = draw(st.integers(0, len(hull) - 1)), draw(st.integers(0, 1))
    value = Fraction(other[k][c])
    denominator = value.denominator * draw(st.integers(2, 5))
    assume(math.gcd(value.numerator, denominator) == 1)  # so the numerator stays
    other[k][c] = Fraction(value.numerator, denominator)
    return hull, other, t, t


_TRIANGLE = [(0, 0), (1, 0), (Fraction(1, 2), Fraction(1, 2))]
_FLATTER = [(0, 0), (1, 0), (Fraction(1, 3), Fraction(1, 3))]  # triple (1, 1, 2) -> (1, 1, 3)
_SHEAR = UnimodularAffine(((1, 1), (0, 1)), (Fraction(1, 7), 0))


@example((_TRIANGLE, _FLATTER, _SHEAR, _SHEAR))
@example((_TRIANGLE, _TRIANGLE[::-1], _SHEAR, _SHEAR))
@given(polygon_pairs())
def test_equality_of_triples_is_equality_of_vertices(pair):
    """``apply_map`` builds no points, so ``==`` compares the triples alone;
    it agrees with ``==`` on the points read afterwards."""
    hull, other, t, u = pair
    try:
        p, q = apply_map(make_polygon(hull), t), apply_map(make_polygon(other), u)
    except DelzantError:  # the moved vertex broke convexity
        assume(False)
    equal = p == q
    assert "vertices" not in vars(p) and "vertices" not in vars(q)
    assert equal == (p.vertices == q.vertices)
    if equal:
        assert hash(p) == hash(q)


@given(st.one_of(hull_polygons(), corner_cut_polygons(cuts=60)), unimodular_affines(),
       valid_params())
def test_copies_of_polygons_with_unread_vertices_are_equal(poly, t, params):
    for built in (apply_map(poly, t), standard_trapezoid(params)):
        assert "vertices" not in vars(built)
        copies = [pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)]
        for copied in copies:
            assert copied == built and copied.input_reversed == built.input_reversed
            assert repr(copied) == repr(built) and hash(copied) == hash(built)
