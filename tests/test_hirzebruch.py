"""Trapezoid classification, torus counting, and intersection-form checks."""

import math
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

from delzant import (
    BLOWUP_FORM,
    HYPERBOLIC_FORM,
    BlowUp,
    HirzebruchParams,
    IntersectionForm,
    SphereProduct,
    UnimodularAffine,
    apply_map,
    classify_quadrilateral,
    congruent,
    count_tori,
    enumerate_tori,
    form_automorphisms,
    make_polygon,
    manifold_of,
    parity_reduce,
    same_symplectic_class,
    standard_trapezoid,
)
from delzant.errors import EdgeCountError, InvalidParamsError, NotDelzantError

from reference_forms import reference_form_automorphisms
from support import child_env, rand_affine, rand_params


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
    assert witness == UnimodularAffine.identity()


def test_classify_requires_delzant_quadrilateral():
    with pytest.raises(EdgeCountError):
        classify_quadrilateral(make_polygon([(0, 0), (1, 0), (0, 1)]))
    # the top-right corner pairs normals (-1, 0) and (1, -2), determinant 2
    with pytest.raises(NotDelzantError):
        classify_quadrilateral(make_polygon([(0, 0), (2, 0), (2, 2), (0, 1)]))


# classify the unit square in a ``python -O`` child, with the trapezoid's
# corners shifted so that the correct witness misses them
WITNESS_CHECK_UNDER_O = """
import sys
import delzant.hirzebruch as hirzebruch
from delzant import HirzebruchParams, RatVec2, classify_quadrilateral, standard_trapezoid

square = standard_trapezoid(HirzebruchParams(1, 1, 0))
corners = hirzebruch._trapezoid_corners
hirzebruch._trapezoid_corners = lambda params: tuple(c + RatVec2(1, 0) for c in corners(params))
try:
    classify_quadrilateral(square)
except AssertionError:
    print("raised, optimize =", sys.flags.optimize)
"""


def test_classify_witness_check_survives_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WITNESS_CHECK_UNDER_O],
        capture_output=True, text=True, env=child_env(), timeout=60, check=True,
    )
    assert proc.stdout == "raised, optimize = 1\n"


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


def test_same_symplectic_class():
    assert same_symplectic_class(SphereProduct(2, 1), SphereProduct(2, 1))
    assert not same_symplectic_class(SphereProduct(2, 1), SphereProduct(3, 1))
    assert not same_symplectic_class(SphereProduct(2, 1), BlowUp(Fraction(5, 2), Fraction(3, 2)))
    assert not same_symplectic_class(BlowUp(3, 2), BlowUp(3, 1))
    assert same_symplectic_class(BlowUp(3, 2), BlowUp(3, 2))
    # orbit test agrees with canonical parameter equality
    rng = Random(23)
    for _ in range(50):
        m1 = SphereProduct(Fraction(rng.randint(1, 30), 3), Fraction(rng.randint(1, 30), 3))
        m2 = SphereProduct(Fraction(rng.randint(1, 30), 3), Fraction(rng.randint(1, 30), 3))
        assert same_symplectic_class(m1, m2) == (m1 == m2)


def test_count_is_exact_at_integer_ratios():
    # strict inequality k < a/b means an integer ratio contributes itself
    assert count_tori(SphereProduct(3, 1)) == 3
    assert count_tori(SphereProduct(Fraction(301, 100), 1)) == 4
    assert count_tori(BlowUp(2, 1)) == 1
    assert count_tori(BlowUp(3, 2)) == 2
    assert math.ceil(Fraction(2, 1)) == 2
