"""Property tests of the lattice invariants, drawn by the deterministic
``hypothesis`` profile of ``conftest.py``."""

import math
from fractions import Fraction

from hypothesis import assume, given, strategies as st

from delzant import (
    BlowUp,
    HirzebruchParams,
    RatVec2,
    SphereProduct,
    UnimodularAffine,
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
from delzant.lattice import mat_vec

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
def convex_polygons(draw):
    points = draw(st.lists(st.tuples(rationals, rationals), min_size=3, max_size=12))
    hull = convex_hull(points)
    assume(len(hull) >= 3)
    if draw(st.booleans()):
        hull = hull[::-1]
    return apply_map(make_polygon(hull), draw(unimodular_affines()))


@st.composite
def canonical_params(draw):
    m = draw(st.integers(0, 8))
    b = draw(positive)
    a = Fraction(m, 2) * b + draw(positive)
    if m == 0 and a < b:
        a, b = b, a
    return HirzebruchParams(a, b, m)


@st.composite
def corner_cut_polygons(draw):
    """A standard trapezoid with up to eight corners cut by toric blow-ups,
    under a random lattice map: a Delzant polygon."""
    poly = standard_trapezoid(draw(canonical_params()))
    poly = cut_corners(poly, draw(st.randoms(use_true_random=False)), draw(st.integers(0, 8)))
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
    assert transform.det in check_direction_solve(poly, apply_map(poly, transform))


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
