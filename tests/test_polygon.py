"""Polygon construction, Delzant verification, and congruence."""

import math
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from delzant import (
    HirzebruchParams,
    IntVec2,
    Polygon,
    RatVec2,
    UnimodularAffine,
    apply_map,
    congruent,
    edge_data,
    is_delzant,
    make_polygon,
    standard_trapezoid,
)
from delzant import jsonio, lattice
from delzant.errors import (
    CollinearVerticesError,
    DelzantError,
    NonConvexError,
    RepeatedVertexError,
    TooFewVerticesError,
)

from support import rand_affine, rand_params
from test_polygon_oracle import convex_hull, cut_corners

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


@pytest.mark.parametrize("points,error,message", [
    ([(0, 0), (1, 0), (1, 1), (1, 1)], RepeatedVertexError, "repeated vertex at index 3"),
    ([(0, 0), (1, 0), (2, 0), (2, 1)], CollinearVerticesError, "collinear vertices at index 1"),
    ([(0, 0), (2, 0), (2, 2), (1, 1), (0, 2)], NonConvexError, "non-convex corner at index 3"),
], ids=["repeated", "collinear", "non-convex"])
def test_indexed_errors_survive_a_pickle_round_trip(points, error, message):
    with pytest.raises(error, match=f"^{message}$") as exc:
        make_polygon(points)
    twin = pickle.loads(pickle.dumps(exc.value))
    assert type(twin) is error and twin.index == exc.value.index and twin.args == (message,)


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


coordinates = st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2)))


@st.composite
def vertex_lists(draw):
    """Vertex lists, valid and invalid: random points, their convex hull,
    the hull wound two or three times or stepped round as a star, either
    way round, and any of these with one vertex listed a second time."""
    points = draw(st.lists(st.tuples(coordinates, coordinates), max_size=9))
    hull = convex_hull(points)
    n = len(hull)
    shape = draw(st.sampled_from(("points", "hull", "wound", "star")))
    if shape == "hull":
        points = hull
    elif shape == "wound":
        points = hull * draw(st.integers(2, 3))
    elif shape == "star" and n >= 5:
        # a step prime to n winds round more than once with every turn one way;
        # any other step lists some vertices twice
        step = draw(st.integers(2, n - 2))
        points = [hull[i * step % n] for i in range(n)]
    if draw(st.booleans()):
        points = points[::-1]
    if points and draw(st.booleans()):
        k = draw(st.integers(0, len(points)))
        points = points[:k] + [draw(st.sampled_from(points))] + points[k:]
    return points


def construction_outcome(points):
    """The vertices and edge data built from ``points``, or the type and
    message of the error raised."""
    try:
        poly = Polygon(tuple(points))
    except DelzantError as exc:
        return type(exc), str(exc)
    return poly.vertices, edge_data(poly)


@settings(max_examples=500)
@given(vertex_lists())
def test_a_repeated_vertex_outranks_every_other_error(points):
    repeats = [i for i, p in enumerate(points) if p in points[:i]]
    if repeats and len(points) >= 3:
        expected = (RepeatedVertexError, f"repeated vertex at index {repeats[0]}")
        assert construction_outcome(points) == expected


SQUARE_TWICE = UNIT_SQUARE * 2
PINNED_OUTCOMES = [
    # mixed turns, so the turn check rejects it
    ([(0, 0), (2, 1), (4, 0), (1, 2), (3, 3)], NonConvexError, 2),
    # the first repeat in input order, though the boundary runs clockwise
    ([(2, -1), (1, 1), (3, 2), (2, -1), (0, -2), (2, 3)], RepeatedVertexError, 3),
    (SQUARE_TWICE, RepeatedVertexError, 4),
    (SQUARE_TWICE[::-1], RepeatedVertexError, 4),
]


@pytest.mark.parametrize("points,error,index", PINNED_OUTCOMES)
def test_pinned_construction_errors(points, error, index):
    with pytest.raises(error) as exc:
        Polygon(tuple(points))
    assert type(exc.value) is error and exc.value.index == index


def test_building_and_decoding_a_256_gon_hashes_no_vertex(monkeypatch):
    """Work counters on the constructor's hot path: building a polygon
    hashes no vertex and no coordinate, and decoding one matches each
    coordinate string once."""
    square = make_polygon([(0, 0), (4096, 0), (4096, 4096), (0, 4096)])
    ngon = cut_corners(square, Random(256), 252)
    pairs = [(p.x, p.y) for p in ngon.vertices]
    data = jsonio.polygon_to_json(ngon)
    counts = {"hash": 0, "parse": 0}

    def counting(name, function):
        def counted(*args):
            counts[name] += 1
            return function(*args)
        return counted

    class CountingPattern:
        fullmatch = staticmethod(counting("parse", lattice._RATIONAL.fullmatch))

    monkeypatch.setattr(RatVec2, "__hash__", counting("hash", RatVec2.__hash__))
    monkeypatch.setattr(Fraction, "__hash__", counting("hash", Fraction.__hash__))
    monkeypatch.setattr(lattice, "_RATIONAL", CountingPattern())
    assert make_polygon(pairs) == ngon and counts == {"hash": 0, "parse": 0}
    assert jsonio.polygon_from_json(data) == ngon
    assert len(ngon) == 256 and counts == {"hash": 0, "parse": 2 * 256}


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
    assert apply_map(sq, UnimodularAffine()) == sq
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
    assert congruent(trap, trap) == UnimodularAffine()


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


@pytest.mark.parametrize("n", [16, 64, 256])
def test_congruent_maps_no_vertex_to_find_a_witness(monkeypatch, n):
    """Work counter on the match path: the words and one integer solve fix
    the witness, so ``congruent`` applies it to no vertex, however large
    the polygon."""
    square = make_polygon([(0, 0), (4096, 0), (4096, 4096), (0, 4096)])
    ngon = cut_corners(square, Random(n), n - 4)
    image = apply_map(ngon, UnimodularAffine(((1, 3), (0, 1)), (5, Fraction(1, 2))))
    applied = 0
    apply = UnimodularAffine.apply

    def counted(self, p):
        nonlocal applied
        applied += 1
        return apply(self, p)

    monkeypatch.setattr(UnimodularAffine, "apply", counted)
    witness = congruent(ngon, image)
    assert len(ngon) == n and applied == 0
    assert apply_map(ngon, witness) == image


def _first_primes(count: int) -> list[int]:
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def test_pairwise_coprime_denominators_stay_per_vertex():
    """256 vertices on the parabola y = x^2 at x = k + 1/p_k, p_k the k-th
    prime: no two vertices share a denominator, so one denominator for the
    whole polygon would have about 4,000 digits.  Each vertex keeps its
    own, the lcm of its two coordinates' denominators, through
    ``apply_map``, ``congruent`` and its witness, and equality."""
    xs = [k + Fraction(1, p) for k, p in enumerate(_first_primes(256))]
    poly = make_polygon([(x, x * x) for x in xs])
    t = UnimodularAffine(((2, 1), (1, 1)), (Fraction(1, 3), Fraction(-2, 5)))
    image = apply_map(poly, t)
    witness = congruent(poly, image)
    assert witness is not None
    mapped = apply_map(poly, witness)
    assert mapped == image == make_polygon([t.apply(p) for p in poly.vertices])
    assert image != apply_map(poly, UnimodularAffine(t.linear, (Fraction(1, 3), 0)))
    for built in (poly, image, mapped):
        for (x, y, d), p in zip(built._pts, built.vertices):
            assert d == math.lcm(p.x.denominator, p.y.denominator)
            assert p == RatVec2(Fraction(x, d), Fraction(y, d))
