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
    classify_quadrilateral,
    count_tori,
    edge_data,
    enumerate_tori,
    make_polygon,
    standard_trapezoid,
)

from test_polygon_oracle import convex_hull

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
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
