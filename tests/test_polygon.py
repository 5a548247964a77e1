"""Polygon construction, Delzant verification, and congruence."""

from fractions import Fraction
from random import Random

import pytest

from delzant import (
    HirzebruchParams,
    IntVec2,
    RatVec2,
    UnimodularAffine,
    apply_map,
    congruent,
    edge_data,
    is_delzant,
    make_polygon,
    second_betti_from_edges,
    standard_trapezoid,
)
from delzant.errors import (
    CollinearVerticesError,
    NonConvexError,
    RepeatedVertexError,
    TooFewVerticesError,
)

from support import rand_affine, rand_params

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_clockwise_input_reversed_to_ccw():
    cw = make_polygon([(0, 1), (1, 1), (1, 0), (0, 0)])
    ccw = make_polygon(UNIT_SQUARE)
    assert cw == ccw
    assert cw.input_reversed and not ccw.input_reversed
    assert cw.vertices[0] == RatVec2(0, 0)


def test_canonical_start_is_lexicographic_minimum():
    rotated = make_polygon([(1, 1), (0, 1), (0, 0), (1, 0)])
    assert rotated.vertices[0] == RatVec2(0, 0)
    assert rotated == make_polygon(UNIT_SQUARE)


def test_construction_errors():
    with pytest.raises(TooFewVerticesError):
        make_polygon([(0, 0), (1, 0)])
    with pytest.raises(CollinearVerticesError) as exc:
        make_polygon([(0, 0), (1, 0), (2, 0), (2, 1)])
    assert exc.value.index == 1
    with pytest.raises(RepeatedVertexError):
        make_polygon([(0, 0), (1, 0), (1, 1), (0, 0)])
    with pytest.raises(NonConvexError):
        make_polygon([(0, 0), (2, 0), (2, 2), (1, 1), (0, 2)])


# every turn has one sign, yet the boundary winds twice; the error names the
# same vertex in both orientations, by its index in the input
MULTIPLY_WOUND = {
    "pentagram": ([(0, 0), (3, 2), (-1, 2), (2, 0), (1, 3)], 2),
    "octagon": ([(0, 0), (1, 0), (1, 2), (-2, 2), (-2, -2), (1, -2), (1, 1), (0, 1)], 4),
}


@pytest.mark.parametrize("name", sorted(MULTIPLY_WOUND))
def test_boundary_winding_more_than_once_is_not_convex(name):
    points, index = MULTIPLY_WOUND[name]
    for ordered in (points, points[::-1]):
        with pytest.raises(NonConvexError) as exc:
            make_polygon(ordered)
        assert ordered[exc.value.index] == points[index]


def test_edge_data_unit_square():
    edges = edge_data(make_polygon(UNIT_SQUARE))
    assert [e.inward_normal for e in edges] == [
        IntVec2(0, 1),
        IntVec2(-1, 0),
        IntVec2(0, -1),
        IntVec2(1, 0),
    ]
    assert all(e.lattice_length == 1 for e in edges)


def test_edge_data_trapezoid_slant():
    trap = standard_trapezoid(HirzebruchParams(2, 1, 1))
    slant = edge_data(trap)[1]
    assert slant.direction == IntVec2(-1, 1)
    assert slant.lattice_length == 1


def test_edge_data_triangle_hypotenuse():
    tri = make_polygon([(0, 0), (1, 0), (0, 1)])
    hyp = edge_data(tri)[1]
    assert hyp.direction == IntVec2(-1, 1)
    assert hyp.inward_normal == IntVec2(-1, -1)
    assert hyp.lattice_length == 1


def test_edge_data_rational_vertices():
    edges = edge_data(make_polygon([("0", "0"), ("5/2", "0"), ("3/2", "1"), ("0", "1")]))
    assert edges[0].lattice_length == Fraction(5, 2)
    assert edges[0].direction == IntVec2(1, 0)


def test_edge_vector_decomposition_and_closure():
    rng = Random(10)
    for _ in range(30):
        poly = apply_map(standard_trapezoid(rand_params(rng)), rand_affine(rng))
        pts = poly.vertices
        total = RatVec2(0, 0)
        for e in edge_data(poly):
            delta = pts[(e.tail_index + 1) % len(pts)] - pts[e.tail_index]
            assert delta.x == e.lattice_length * e.direction.x
            assert delta.y == e.lattice_length * e.direction.y
            assert e.lattice_length > 0
            assert e.inward_normal == e.direction.rotate_left()
            total = total + RatVec2(
                e.lattice_length * e.inward_normal.x, e.lattice_length * e.inward_normal.y
            )
        assert total == RatVec2(0, 0)


def test_is_delzant_unit_square():
    assert is_delzant(make_polygon(UNIT_SQUARE)).is_delzant


def test_is_delzant_failure_reports_pair_and_determinant():
    report = is_delzant(make_polygon([(0, 0), (2, 0), (0, 1)]))
    assert not report.is_delzant
    assert report.normals == (IntVec2(0, 1), IntVec2(-1, -2), IntVec2(1, 0))
    assert report.failures == ((1, 2),)


def test_standard_trapezoids_always_delzant():
    rng = Random(11)
    for _ in range(50):
        assert is_delzant(standard_trapezoid(rand_params(rng))).is_delzant


def test_apply_map_identity_and_shear():
    sq = make_polygon(UNIT_SQUARE)
    assert apply_map(sq, UnimodularAffine.identity()) == sq
    sheared = apply_map(sq, UnimodularAffine(((1, 1), (0, 1))))
    assert sheared == make_polygon([(0, 0), (1, 0), (2, 1), (1, 1)])
    assert is_delzant(sheared).is_delzant


def test_apply_map_reflection_renormalizes():
    sq = make_polygon(UNIT_SQUARE)
    reflected = apply_map(sq, UnimodularAffine(((1, 0), (0, -1)), RatVec2(0, 1)))
    assert reflected == sq


def test_delzant_status_invariant_under_maps():
    rng = Random(12)
    square = make_polygon(UNIT_SQUARE)
    bad_triangle = make_polygon([(0, 0), (2, 0), (0, 1)])
    for _ in range(30):
        t = rand_affine(rng)
        assert is_delzant(apply_map(square, t)).is_delzant
        assert not is_delzant(apply_map(bad_triangle, t)).is_delzant


def test_congruent_finds_shear_witness():
    sq = make_polygon(UNIT_SQUARE)
    image = apply_map(sq, UnimodularAffine(((1, 1), (0, 1))))
    witness = congruent(sq, image)
    assert witness is not None
    assert apply_map(sq, witness) == image


def test_congruent_square_vs_rectangle_absent():
    assert congruent(make_polygon(UNIT_SQUARE), make_polygon([(0, 0), (2, 0), (2, 1), (0, 1)])) is None


def test_congruent_different_trapezoids_absent():
    t1 = standard_trapezoid(HirzebruchParams(2, 1, 1))
    t3 = standard_trapezoid(HirzebruchParams(2, 1, 3))
    assert congruent(t1, t3) is None


def test_congruent_self_is_identity():
    trap = standard_trapezoid(HirzebruchParams(Fraction(7, 2), Fraction(3, 2), 2))
    assert congruent(trap, trap) == UnimodularAffine.identity()


def test_congruent_random_round_trip():
    rng = Random(13)
    for _ in range(60):
        poly = standard_trapezoid(rand_params(rng))
        t = rand_affine(rng)
        image = apply_map(poly, t)
        witness = congruent(poly, image)
        assert witness is not None
        assert apply_map(poly, witness) == image
        back = congruent(image, poly)
        assert back is not None
        assert apply_map(image, back) == poly


def test_congruent_handles_triangles_and_non_delzant_inputs():
    rng = Random(15)
    for seed_poly in (
        make_polygon([(0, 0), (1, 0), (0, 1)]),
        make_polygon([(0, 0), (2, 0), (0, 1)]),  # not Delzant
        make_polygon([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)]),  # pentagon
    ):
        for _ in range(20):
            image = apply_map(seed_poly, rand_affine(rng))
            witness = congruent(seed_poly, image)
            assert witness is not None
            assert apply_map(seed_poly, witness) == image
    assert congruent(make_polygon([(0, 0), (1, 0), (0, 1)]), make_polygon([(0, 0), (2, 0), (0, 1)])) is None


def test_congruent_transitive_on_chain():
    rng = Random(14)
    base = standard_trapezoid(HirzebruchParams(3, 1, 2))
    p2 = apply_map(base, rand_affine(rng))
    p3 = apply_map(p2, rand_affine(rng))
    assert congruent(base, p2) is not None
    assert congruent(p2, p3) is not None
    assert congruent(base, p3) is not None


def test_second_betti_from_edges():
    assert second_betti_from_edges(make_polygon(UNIT_SQUARE)) == 2
    assert second_betti_from_edges(make_polygon([(0, 0), (1, 0), (0, 1)])) == 1
    assert second_betti_from_edges(standard_trapezoid(HirzebruchParams(2, 1, 3))) == 2
