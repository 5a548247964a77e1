"""Trapezoid classification, torus counting, and intersection-form checks."""

import math
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from delzant import (
    BLOWUP_FORM,
    HYPERBOLIC_FORM,
    BlowUp,
    EdgeData,
    HirzebruchParams,
    IntersectionForm,
    IntVec2,
    Polygon,
    RatVec2,
    SphereProduct,
    UnimodularAffine,
    apply_map,
    circle_graph,
    classify_quadrilateral,
    congruent,
    count_tori,
    edge_data,
    enumerate_tori,
    form_automorphisms,
    is_delzant,
    make_polygon,
    manifold_of,
    parity_reduce,
    same_symplectic_class,
    standard_trapezoid,
)
from delzant import hirzebruch, jsonio, lattice, polygon
from delzant.errors import EdgeCountError, InvalidParamsError, NotDelzantError

from reference_forms import reference_form_automorphisms
from reference_polygons import mat_vec
from support import fraction_counts, rand_affine, rand_params
from test_polygon_oracle import cut_corners


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        HirzebruchParams(1, 1, -1)
    with pytest.raises(InvalidParamsError):
        HirzebruchParams(1, 1, 2)  # needs a > b exactly, 1 = (2/2)*1
    with pytest.raises(InvalidParamsError):
        HirzebruchParams(0, 1, 0)
    # non-canonical but valid: a < b allowed when m > 0 only if a > (m/2) b
    p = HirzebruchParams(Fraction(2, 3), 1, 1)
    assert not HirzebruchParams(1, 2, 0).is_canonical
    assert HirzebruchParams(1, 2, 0).canonical() == HirzebruchParams(2, 1, 0)
    assert p.canonical() == p


def test_standard_trapezoid_vertices():
    sq = standard_trapezoid(HirzebruchParams(1, 1, 0))
    assert sq == make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    trap = standard_trapezoid(HirzebruchParams(2, 1, 1))
    assert trap == make_polygon([("0", "0"), ("5/2", "0"), ("3/2", "1"), ("0", "1")])
    trap3 = standard_trapezoid(HirzebruchParams(2, 1, 3))
    assert trap3 == make_polygon([("0", "0"), ("7/2", "0"), ("1/2", "1"), ("0", "1")])


def test_classify_unit_square():
    params, witness = classify_quadrilateral(standard_trapezoid(HirzebruchParams(1, 1, 0)))
    assert params == HirzebruchParams(1, 1, 0)
    assert witness == UnimodularAffine()


def test_classify_requires_delzant_quadrilateral():
    with pytest.raises(EdgeCountError):
        classify_quadrilateral(make_polygon([(0, 0), (1, 0), (0, 1)]))
    # the top-right corner pairs normals (-1, 0) and (1, -2), determinant 2
    with pytest.raises(NotDelzantError) as exc:
        classify_quadrilateral(make_polygon([(0, 0), (2, 0), (2, 2), (0, 1)]))
    # the message names the edges only; the determinants stay on the error
    assert exc.value.failures == ((1, 2), (2, 2))
    assert str(exc.value) == "polygon is not Delzant at edges [1, 2]"
    twin = pickle.loads(pickle.dumps(exc.value))
    assert (twin.failures, str(twin)) == (exc.value.failures, str(exc.value))


def test_classify_round_trip_random_maps():
    rng = Random(20)
    for _ in range(100):
        p = rand_params(rng)
        poly = apply_map(standard_trapezoid(p), rand_affine(rng))
        recovered, witness = classify_quadrilateral(poly)
        assert recovered == p.canonical()
        assert apply_map(poly, witness) == standard_trapezoid(recovered)


def test_classify_rectangle_swaps_to_canonical():
    tall = make_polygon([(0, 0), (1, 0), (1, 3), (0, 3)])
    params, witness = classify_quadrilateral(tall)
    assert params == HirzebruchParams(3, 1, 0)
    assert apply_map(tall, witness) == standard_trapezoid(params)


def test_classify_slanted_figure_polygon():
    # realizes the m = 2 family polygon with (a, b) = (3, 1); its parallel
    # vertical edges have lengths a +- (3/2) b, so the parameter is 3
    poly = make_polygon([("0", "0"), ("1", "1"), ("1", "5/2"), ("0", "9/2")])
    params, _ = classify_quadrilateral(poly)
    assert params == HirzebruchParams(3, 1, 3)
    assert congruent(poly, standard_trapezoid(HirzebruchParams(3, 1, 3))) is not None


def test_valid_polygons_are_built_with_no_constructor_call(monkeypatch):
    """Work counter: ``apply_map`` and ``standard_trapezoid`` build from
    edge data, so once the input is built, neither they nor the chain
    classify -> standard_trapezoid -> congruent -> apply_map call
    ``Polygon.__init__``."""
    trapezoid = standard_trapezoid(HirzebruchParams(Fraction(5, 2), 1, 3))
    quad = make_polygon(apply_map(trapezoid, UnimodularAffine(((1, 2), (1, 1)), (3, 0))).vertices)
    ngon = cut_corners(make_polygon([(0, 0), (81, 0), (81, 81), (0, 81)]), Random(5), 60)
    maps = [UnimodularAffine(((2, 1), (1, 1)), (1, Fraction(1, 3))),
            UnimodularAffine(((1, 1), (1, 0)), (0, Fraction(-2, 7)))]
    calls = 0
    init = Polygon.__init__

    def counted(self, vertices):
        nonlocal calls
        calls += 1
        init(self, vertices)

    monkeypatch.setattr(Polygon, "__init__", counted)
    images = [apply_map(poly, t) for poly in (quad, ngon) for t in maps]
    assert calls == 0 and [p.input_reversed for p in images] == [False, True] * 2
    std = standard_trapezoid(HirzebruchParams(Fraction(7, 2), Fraction(1, 3), 5))
    assert calls == 0
    params, witness = classify_quadrilateral(quad)
    std = standard_trapezoid(params)
    found = congruent(quad, std)
    assert apply_map(quad, found) == std == apply_map(quad, witness)
    assert calls == 0
    make_polygon(std.vertices)
    assert calls == 1  # the counter sees the public constructor


def test_builders_make_no_points_until_the_vertices_are_read(monkeypatch):
    """Work counter: polygons keep their vertices as integer triples, so
    ``apply_map`` and ``standard_trapezoid`` build no ``RatVec2`` until
    ``vertices`` is read, and ``classify_quadrilateral`` and ``congruent``
    build exactly one each, the translation of their witness.  Points are
    built by the constructor or from a triple by ``_point``; both count."""
    trapezoid = standard_trapezoid(HirzebruchParams(Fraction(5, 2), 1, 3))
    quad = make_polygon(apply_map(trapezoid, UnimodularAffine(((1, 2), (1, 1)), (3, 0))).vertices)
    ngon = cut_corners(make_polygon([(0, 0), (81, 0), (81, 81), (0, 81)]), Random(5), 60)
    maps = [UnimodularAffine(((2, 1), (1, 1)), (1, Fraction(1, 3))),
            UnimodularAffine(((1, 1), (1, 0)), (0, Fraction(-2, 7)))]
    calls = 0
    init = RatVec2.__init__

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        init(self, x, y)

    def counted_point(xyd):
        nonlocal calls
        calls += 1
        return point(xyd)

    point = lattice._point
    monkeypatch.setattr(RatVec2, "__init__", counted)
    for module in (lattice, polygon, hirzebruch, jsonio):
        if getattr(module, "_point", None) is point:
            monkeypatch.setattr(module, "_point", counted_point)
    images = [apply_map(poly, t) for poly in (quad, ngon) for t in maps]
    std = standard_trapezoid(HirzebruchParams(Fraction(7, 2), Fraction(1, 3), 5))
    assert calls == 0
    params, witness = classify_quadrilateral(quad)
    assert calls == 1
    target = standard_trapezoid(params)
    found = congruent(quad, target)
    assert calls == 2
    assert apply_map(quad, found) == target == apply_map(quad, witness)
    assert images[0] != images[1] and calls == 2  # equality compares the triples
    assert len(std.vertices) == 4 and len(images[2].vertices) == len(ngon)
    assert calls == 2 + 4 + len(ngon)  # built once, on the first read
    assert std.vertices is std.vertices and calls == 2 + 4 + len(ngon)


def test_matching_the_witness_images_builds_no_fraction():
    """Work counter: points hash the triples they compare, so checking a
    classification witness the way the quad-census benchmark does, as a set
    of vertex images against the standard trapezoid's vertices, builds and
    hashes no ``Fraction``."""
    trapezoid = standard_trapezoid(HirzebruchParams(Fraction(5, 2), 1, 3))
    moved = apply_map(trapezoid, UnimodularAffine(((1, 2), (1, 1)), (3, Fraction(1, 2))))
    poly = jsonio.polygon_from_json(jsonio.polygon_to_json(moved))
    params, t = classify_quadrilateral(poly)
    std = standard_trapezoid(params)
    with fraction_counts() as counts:
        matched = {t.apply(v) for v in poly.vertices} == set(std.vertices)
    assert matched and counts == {"new": 0, "hash": 0}


def test_algorithms_build_no_edge_data_until_it_is_read(monkeypatch):
    """Work counter: polygons keep their edges as int tuples, so the
    builders and the algorithms build no ``EdgeData``; the first
    ``edge_data(p)`` builds one per edge, and a second call none."""
    trapezoid = standard_trapezoid(HirzebruchParams(Fraction(5, 2), 1, 3))
    quad = make_polygon(apply_map(trapezoid, UnimodularAffine(((1, 2), (1, 1)), (3, 0))).vertices)
    ngon = cut_corners(make_polygon([(0, 0), (81, 0), (81, 81), (0, 81)]), Random(5), 60)
    calls = 0
    init = EdgeData.__init__

    def counted(self, *args):
        nonlocal calls
        calls += 1
        init(self, *args)

    monkeypatch.setattr(EdgeData, "__init__", counted)
    # one map of each determinant sign on each polygon
    images = [apply_map(poly, UnimodularAffine(linear, (1, Fraction(1, 3))))
              for poly in (quad, ngon) for linear in (((2, 1), (1, 1)), ((1, 1), (1, 0)))]
    params, _ = classify_quadrilateral(images[1])
    assert congruent(quad, standard_trapezoid(params)) is not None
    assert congruent(images[2], images[3]) is not None
    for poly in (quad, ngon, *images):
        circle_graph(poly, (1, 2))
    assert calls == 0
    edges = edge_data(images[3])
    assert calls == len(ngon)
    assert edge_data(images[3]) is edges and calls == len(ngon)
    # the report's normals are the cached records' normals
    assert is_delzant(images[3]).normals == tuple(e.inward_normal for e in edges)
    assert calls == len(ngon)


def test_algorithms_build_no_intvec2(monkeypatch):
    """Work counter: ``apply_map``, ``classify_quadrilateral``,
    ``congruent`` and ``circle_graph`` read and solve on the polygons' int
    tuples, so they build no ``IntVec2``, on a hit or a miss, at n = 4 and
    at n = 64."""
    trapezoid = standard_trapezoid(HirzebruchParams(Fraction(5, 2), 1, 3))
    quad = make_polygon(apply_map(trapezoid, UnimodularAffine(((1, 2), (1, 1)), (3, 0))).vertices)
    other_quad = standard_trapezoid(HirzebruchParams(Fraction(7, 2), 1, 1))
    ngon = cut_corners(make_polygon([(0, 0), (81, 0), (81, 81), (0, 81)]), Random(5), 60)
    other_ngon = cut_corners(make_polygon([(0, 0), (81, 0), (81, 81), (0, 81)]), Random(6), 60)
    xi = IntVec2(1, 2)
    calls = 0
    init = IntVec2.__init__

    def counted(self, *args):
        nonlocal calls
        calls += 1
        init(self, *args)

    monkeypatch.setattr(IntVec2, "__init__", counted)
    images = [apply_map(poly, UnimodularAffine(linear, (1, Fraction(1, 3))))
              for poly in (quad, ngon) for linear in (((2, 1), (1, 1)), ((1, 1), (1, 0)))]
    params, _ = classify_quadrilateral(images[1])
    assert congruent(quad, standard_trapezoid(params)) is not None
    assert congruent(quad, other_quad) is None
    assert congruent(images[2], images[3]) is not None
    assert len(other_ngon) == len(ngon) and congruent(ngon, other_ngon) is None
    for poly in (quad, ngon, *images):
        circle_graph(poly, xi)
    assert calls == 0


def _assert_checked(params: HirzebruchParams):
    """An unchecked value is the one the checked constructor makes."""
    checked = HirzebruchParams(params.a, params.b, params.m)
    assert checked == params and repr(checked) == repr(params) and hash(checked) == hash(params)


_areas = st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=40)


@given(st.one_of(st.builds(SphereProduct, _areas, _areas),
                 st.builds(lambda e, gap: BlowUp(e + gap, e), _areas, _areas)))
def test_unchecked_params_are_the_checked_constructors(manifold):
    """``enumerate_tori``, ``parity_reduce``, ``canonical`` and
    ``classify_quadrilateral`` (its m = 0 swap included) store their
    parameters without coercion or range checks."""
    tori = enumerate_tori(manifold)
    for params in tori:
        _assert_checked(params)
        _assert_checked(parity_reduce(params))
    transform = UnimodularAffine(((1, 3), (1, 2)), (Fraction(1, 3), -2))
    for params in (*tori[:2], *tori[-2:], HirzebruchParams(tori[0].b, tori[0].a, 0)):
        found, _ = classify_quadrilateral(apply_map(standard_trapezoid(params), transform))
        assert found == params.canonical()
        _assert_checked(found)
        _assert_checked(params.canonical())


def test_parity_reduce():
    assert parity_reduce(HirzebruchParams(Fraction(5, 2), 1, 4)) == HirzebruchParams(
        Fraction(5, 2), 1, 0
    )
    assert parity_reduce(HirzebruchParams(2, 1, 3)) == HirzebruchParams(2, 1, 1)
    assert parity_reduce(HirzebruchParams(1, 1, 0)) == HirzebruchParams(1, 1, 0)


def test_manifold_of():
    assert manifold_of(HirzebruchParams(Fraction(5, 2), 1, 4)) == SphereProduct(Fraction(5, 2), 1)
    assert manifold_of(HirzebruchParams(2, 1, 3)) == BlowUp(Fraction(5, 2), Fraction(3, 2))
    assert manifold_of(HirzebruchParams(1, 2, 0)) == SphereProduct(2, 1)


def test_manifold_of_parity_reduce_consistent():
    rng = Random(21)
    for _ in range(50):
        p = rand_params(rng)
        assert manifold_of(parity_reduce(p)) == manifold_of(p)


def test_manifold_validation():
    assert SphereProduct(1, 2) == SphereProduct(2, 1)
    with pytest.raises(InvalidParamsError):
        SphereProduct(1, 0)
    # a rejected pair is reported in the order it was given, not swapped
    with pytest.raises(InvalidParamsError, match=r"^need a, b > 0, got a=-2, b=1$"):
        SphereProduct(-2, 1)
    with pytest.raises(InvalidParamsError):
        BlowUp(1, 1)
    with pytest.raises(InvalidParamsError):
        BlowUp(1, 2)


def test_enumerate_tori_examples():
    assert enumerate_tori(SphereProduct(Fraction(5, 2), 1)) == (
        HirzebruchParams(Fraction(5, 2), 1, 0),
        HirzebruchParams(Fraction(5, 2), 1, 2),
        HirzebruchParams(Fraction(5, 2), 1, 4),
    )
    assert enumerate_tori(SphereProduct(1, 1)) == (HirzebruchParams(1, 1, 0),)
    assert enumerate_tori(BlowUp(3, 2)) == (
        HirzebruchParams(Fraction(5, 2), 1, 1),
        HirzebruchParams(Fraction(5, 2), 1, 3),
    )


def test_count_tori_examples():
    assert count_tori(SphereProduct(1, 1)) == 1
    assert count_tori(SphereProduct(3, 1)) == 3
    assert count_tori(BlowUp(3, 2)) == 2


def test_count_matches_enumeration_and_entries_map_back():
    rng = Random(22)
    manifolds = []
    for _ in range(40):
        a = Fraction(rng.randint(6, 120), 6)
        b = Fraction(rng.randint(6, 120), 6)
        manifolds.append(SphereProduct(a, b))
        l = Fraction(rng.randint(13, 120), 6)
        e = Fraction(rng.randint(6, int(l * 6) - 1), 6)
        manifolds.append(BlowUp(l, e))
    for m in manifolds:
        entries = enumerate_tori(m)
        assert count_tori(m) == len(entries)
        for p in entries:
            assert manifold_of(p) == m


@pytest.mark.parametrize("bound", [0, -1, True, 2.0])
def test_form_automorphisms_bound_must_be_a_positive_integer(bound):
    with pytest.raises(InvalidParamsError):
        form_automorphisms(HYPERBOLIC_FORM, bound)


def test_form_automorphisms_counts_stable_across_bounds():
    for bound in (1, 2, 3, 5):
        assert len(form_automorphisms(HYPERBOLIC_FORM, bound)) == 4
        assert len(form_automorphisms(BLOWUP_FORM, bound)) == 4
        assert len(form_automorphisms(IntersectionForm(((1, 0), (0, 1))), bound)) == 8


def test_form_automorphisms_exact_sets():
    # hand-derived solutions of transpose(M) Q M = Q with det M = +-1
    assert set(form_automorphisms(HYPERBOLIC_FORM, 3)) == {
        ((1, 0), (0, 1)),
        ((-1, 0), (0, -1)),
        ((0, 1), (1, 0)),
        ((0, -1), (-1, 0)),
    }
    assert set(form_automorphisms(BLOWUP_FORM, 3)) == {
        ((1, 0), (0, 1)),
        ((1, 0), (0, -1)),
        ((-1, 0), (0, 1)),
        ((-1, 0), (0, -1)),
    }
    assert set(form_automorphisms(IntersectionForm(((1, 0), (0, 1))), 3)) == {
        ((s, 0), (0, t)) for s in (1, -1) for t in (1, -1)
    } | {((0, s), (t, 0)) for s in (1, -1) for t in (1, -1)}


def test_form_automorphisms_against_independent_filter():
    # independent oracle: re-derive the congruence condition via explicit
    # bilinear-form evaluation on basis vectors
    def preserves(m, q):
        def pair(u, v):
            return sum(u[i] * q[i][j] * v[j] for i in range(2) for j in range(2))

        cols = [(m[0][0], m[1][0]), (m[0][1], m[1][1])]
        basis = [(1, 0), (0, 1)]
        return all(
            pair(cols[i], cols[j]) == pair(basis[i], basis[j])
            for i in range(2)
            for j in range(2)
        )

    for form in (HYPERBOLIC_FORM, BLOWUP_FORM):
        brute = [
            ((a, b), (c, d))
            for a in range(-2, 3)
            for b in range(-2, 3)
            for c in range(-2, 3)
            for d in range(-2, 3)
            if a * d - b * c in (1, -1) and preserves(((a, b), (c, d)), form.matrix)
        ]
        assert sorted(brute) == list(form_automorphisms(form, 2))


def test_form_automorphisms_agree_with_reference_scan():
    rng = Random(606)
    forms = [HYPERBOLIC_FORM.matrix, BLOWUP_FORM.matrix]
    while len(forms) < 26:
        q00, q01, q11 = (rng.randint(-4, 4) for _ in range(3))
        if q00 * q11 != q01 * q01:
            forms.append(((q00, q01), (q01, q11)))
    richer = 0  # cases with more than four automorphisms within the bound
    for q in forms:
        for bound in range(1, 7):
            found = form_automorphisms(q, bound)
            assert found == reference_form_automorphisms(q, bound), (q, bound)
            richer += len(found) > 4
    assert richer > 0


def test_form_automorphisms_with_a_finite_group_match_a_full_column_scan():
    # the scan over a stops at A for these forms; the oracle pairs every
    # primitive column in [-R, R]^2 with Q(v) = q00 and Q(w) = q11
    R = 30

    def columns(q00, q01, q11, value):
        return [(x, y) for x in range(-R, R + 1) for y in range(-R, R + 1)
                if q00 * x * x + 2 * q01 * x * y + q11 * y * y == value and math.gcd(x, y) == 1]

    rng, forms, cases = Random(707), [], set()
    while len(forms) < 60 or len(cases) < 4:  # the docstring's four cases of A
        q00, q01, q11 = (rng.randint(-12, 12) for _ in range(3))
        det = q00 * q11 - q01 * q01
        if det > 0:
            cases.add("definite")
        elif det < 0 and math.isqrt(-det) ** 2 == -det:
            cases.add("q11 = 0" if q11 == 0 else "q00 = 0" if q00 == 0 else "isotropic")
        else:
            continue
        forms.append((q00, q01, q11))
    for q00, q01, q11 in forms:
        firsts, seconds = columns(q00, q01, q11, q00), columns(q00, q01, q11, q11)
        expected = sorted(((a, b), (c, d)) for a, c in firsts for b, d in seconds
                          if a * (q00 * b + q01 * d) + c * (q01 * b + q11 * d) == q01)
        assert list(form_automorphisms(((q00, q01), (q01, q11)), R)) == expected, (q00, q01, q11)


def test_same_symplectic_class():
    assert same_symplectic_class(SphereProduct(2, 1), SphereProduct(2, 1))
    assert not same_symplectic_class(SphereProduct(2, 1), SphereProduct(3, 1))
    assert not same_symplectic_class(SphereProduct(2, 1), BlowUp(Fraction(5, 2), Fraction(3, 2)))
    assert not same_symplectic_class(BlowUp(3, 2), BlowUp(3, 1))
    assert same_symplectic_class(BlowUp(3, 2), BlowUp(3, 2))

    # oracle: an automorphism of the intersection form carries one area
    # vector to the other; bound 1 holds the whole group (see
    # test_form_automorphisms_counts_stable_across_bounds)
    def orbit_meets(m1, m2):
        if type(m1) is not type(m2):
            return False
        if isinstance(m1, SphereProduct):
            form, v1, v2 = HYPERBOLIC_FORM, RatVec2(m1.a, m1.b), RatVec2(m2.a, m2.b)
        else:
            form, v1, v2 = BLOWUP_FORM, RatVec2(m1.l, m1.e), RatVec2(m2.l, m2.e)
        return any(mat_vec(m, v1) == v2 for m in form_automorphisms(form, 1))

    values = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
              Fraction(7, 3), Fraction(3)]
    grid = [SphereProduct(a, b) for a in values for b in values if a >= b]
    grid += [BlowUp(l, e) for l in values for e in values if l > e]
    assert any(m.a == m.b for m in grid if isinstance(m, SphereProduct))
    for m1 in grid:
        for m2 in grid:
            assert same_symplectic_class(m1, m2) == orbit_meets(m1, m2), (m1, m2)


def test_count_is_exact_at_integer_ratios():
    # strict inequality k < a/b means an integer ratio contributes itself
    assert count_tori(SphereProduct(3, 1)) == 3
    assert count_tori(SphereProduct(Fraction(301, 100), 1)) == 4
    assert count_tori(BlowUp(2, 1)) == 1
    assert count_tori(BlowUp(3, 2)) == 2
    assert math.ceil(Fraction(2, 1)) == 2


# numerators of either sign and zero, small and over wide denominators
signed_rationals = st.one_of(
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**15)),
)


def _outcome(build, *args) -> str:
    try:
        return repr(build(*args))
    except InvalidParamsError as exc:
        return f"InvalidParamsError: {exc}"


def _oracle_params(a, b, m) -> str:
    """``HirzebruchParams`` as stated, in Fraction arithmetic."""
    if a <= 0 or b <= 0:
        return f"InvalidParamsError: need a, b > 0, got a={a}, b={b}"
    if not a > Fraction(m, 2) * b:
        return f"InvalidParamsError: need average width a > (m/2) b, got a={a}, b={b}, m={m}"
    return f"HirzebruchParams(a={a!r}, b={b!r}, m={m!r})"


def _oracle_sphere(a, b) -> str:
    if a <= 0 or b <= 0:
        return f"InvalidParamsError: need a, b > 0, got a={a}, b={b}"
    return f"SphereProduct(a={max(a, b)!r}, b={min(a, b)!r})"


def _oracle_blowup(l, e) -> str:
    if not l > e > 0:
        return f"InvalidParamsError: need l > e > 0, got l={l}, e={e}"
    return f"BlowUp(l={l!r}, e={e!r})"


@given(signed_rationals, signed_rationals, st.integers(0, 9), st.integers(0, 3))
@example(Fraction(3), Fraction(2), 3, 0)  # a = (m/2) b, as in `delzant standard`
@example(Fraction(3, 7), Fraction(6, 7), 1, 1)
@example(Fraction(3, 7), Fraction(6, 7), 1, 2)
@example(Fraction(0), Fraction(1), 0, 0)  # zero and negative numerators
@example(Fraction(1), Fraction(0), 0, 0)
@example(Fraction(-1, 3), Fraction(1), 2, 0)
@example(Fraction(1), Fraction(-2, 5), 0, 0)
@example(Fraction(5, 3), Fraction(1), 0, 3)  # l = e
@example(Fraction(7, 3), Fraction(7, 3), 0, 0)  # a = b: no swap
@example(Fraction(3, 2), Fraction(3, 2), 1, 0)  # e/(l - e) = 1/2
def test_int_comparisons_agree_with_fraction_arithmetic(a, b, m, boundary):
    """The constructors compare numerators and denominators as ints; they
    accept, reject, swap and word their errors exactly as the Fraction
    inequalities do, and ``manifold_of``, ``count_tori`` and
    ``enumerate_tori`` return what the Fraction formulas give.  ``boundary``
    moves a onto (m/2) b, or just past it, or sets e = l."""
    if boundary == 1:
        a = Fraction(m, 2) * b
    elif boundary == 2:
        a = Fraction(m, 2) * b + Fraction(1, 10**12)
    assert _outcome(HirzebruchParams, a, b, m) == _oracle_params(a, b, m)
    assert _outcome(SphereProduct, a, b) == _oracle_sphere(a, b)
    e = a if boundary == 3 else b
    assert _outcome(BlowUp, a, e) == _oracle_blowup(a, e)
    if _oracle_params(a, b, m).startswith("InvalidParamsError"):
        return
    params = HirzebruchParams(a, b, m)
    manifold = manifold_of(params)
    if m % 2 == 0:
        assert repr(manifold) == _oracle_sphere(a, b)
        a0, b0, ratio, parity = manifold.a, manifold.b, manifold.a / manifold.b, 0
    else:
        assert repr(manifold) == _oracle_blowup(a + b / 2, a - b / 2)
        l, e = manifold.l, manifold.e
        a0, b0, ratio, parity = (l + e) / 2, l - e, e / (l - e), 1
    count = count_tori(manifold)
    assert type(count) is int and count == math.ceil(ratio)
    if count <= 64:
        assert enumerate_tori(manifold) == tuple(
            HirzebruchParams(a0, b0, 2 * k + parity) for k in range(count))
