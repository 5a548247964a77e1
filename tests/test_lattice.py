"""Exact scalar and 2D lattice algebra."""

import math
from fractions import Fraction
from random import Random

import pytest

from delzant import CircleDirection, IntVec2, RatVec2, UnimodularAffine
from delzant.errors import (
    DelzantError,
    NonPrimitiveDirectionError,
    NotRationalError,
    NotUnimodularError,
)
from delzant.lattice import as_rational

from reference_polygons import compose, det2, mat_det, vec_sub
from support import rand_affine


def test_rational_storage_is_reduced():
    q = Fraction(4, -6)
    assert (q.numerator, q.denominator) == (-2, 3)
    assert Fraction("5/2") == Fraction(5, 2)


def test_rational_floor_ceil_exact():
    assert math.ceil(Fraction(5, 2)) == 3
    assert math.ceil(Fraction(3, 1)) == 3
    assert math.floor(Fraction(-5, 2)) == -3


def test_as_rational_rejects_floats():
    """Floats and bools are not numbers here: neither a rational nor a lattice vector
    entry accepts them, and a circle direction rejects them as no pair of integers."""
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    for x, y in ((True, False), (1, False), (True, 0), (0.5, 1), (1, 2.0)):
        with pytest.raises(TypeError):
            IntVec2(x, y)
    with pytest.raises(NonPrimitiveDirectionError, match="is not a pair of integers"):
        CircleDirection((True, False))


@pytest.mark.parametrize("value", [0.5, True, False, None, (1,), [1, 2], b"1", 1j])
def test_as_rational_raises_a_package_error_for_other_types(value):
    """Still a ``TypeError``, and also a ``DelzantError`` with its own code."""
    with pytest.raises(NotRationalError) as exc:
        as_rational(value)
    assert isinstance(exc.value, TypeError) and isinstance(exc.value, DelzantError)
    assert exc.value.code == "not_rational" and repr(value) in str(exc.value)


@pytest.mark.parametrize(
    "vec,expected",
    [
        ((4, -6), (2, -3)),
        ((0, 5), (0, 1)),
        ((-3, 0), (-1, 0)),
    ],
)
def test_primitive(vec, expected):
    """``CircleDirection`` accepts the primitive vector and rejects its multiple."""
    assert CircleDirection(IntVec2(*expected)).xi == IntVec2(*expected)
    with pytest.raises(NonPrimitiveDirectionError):
        CircleDirection(IntVec2(*vec))


def test_primitive_rejects_zero():
    with pytest.raises(NonPrimitiveDirectionError, match=r"^direction \(0, 0\) is not primitive$"):
        CircleDirection(IntVec2(0, 0))


def test_primitive_idempotent():
    """``CircleDirection`` accepts a vector exactly when the gcd of its entries
    is 1, and always accepts it divided by that gcd."""
    rng = Random(1)
    for _ in range(100):
        v = IntVec2(rng.randint(-50, 50), rng.randint(-50, 50))
        g = math.gcd(v.x, v.y)
        if g == 0:
            continue
        if g == 1:
            assert CircleDirection(v).xi == v
        else:
            with pytest.raises(NonPrimitiveDirectionError):
                CircleDirection(v)
        reduced = IntVec2(v.x // g, v.y // g)
        assert CircleDirection(reduced).xi == reduced


@pytest.mark.parametrize(
    "u,w,expected",
    [
        ((1, 0), (0, 1), 1),
        ((0, 1), (-1, -2), 1),
        ((-1, -2), (1, 0), 2),
    ],
)
def test_det2(u, w, expected):
    assert det2(IntVec2(*u), IntVec2(*w)) == expected


def test_det2_antisymmetric():
    rng = Random(2)
    for _ in range(100):
        u = IntVec2(rng.randint(-9, 9), rng.randint(-9, 9))
        w = IntVec2(rng.randint(-9, 9), rng.randint(-9, 9))
        assert det2(u, w) == -det2(w, u)


def test_apply_examples():
    ident = UnimodularAffine()
    assert ident.apply(RatVec2(Fraction(5, 2), 1)) == RatVec2(Fraction(5, 2), 1)
    swap = UnimodularAffine(((0, 1), (1, 0)))
    assert swap.apply(RatVec2(2, 3)) == RatVec2(3, 2)
    shear = UnimodularAffine(((1, 1), (0, 1)), RatVec2(1, 0))
    assert shear.apply(RatVec2(1, 1)) == RatVec2(3, 1)


def test_apply_is_affine():
    rng = Random(3)
    for _ in range(50):
        t = rand_affine(rng)
        p = RatVec2(Fraction(rng.randint(-60, 60), 7), Fraction(rng.randint(-60, 60), 5))
        q = RatVec2(Fraction(rng.randint(-60, 60), 3), Fraction(rng.randint(-60, 60), 11))
        lhs = vec_sub(t.apply(p), t.apply(q))
        diff = vec_sub(p, q)
        r = t.linear
        rhs = RatVec2(r[0][0] * diff.x + r[0][1] * diff.y, r[1][0] * diff.x + r[1][1] * diff.y)
        assert lhs == rhs


def test_compose_identity_and_shear_inverse():
    shear = UnimodularAffine(((1, 1), (0, 1)))
    assert compose(UnimodularAffine(), shear) == shear
    assert compose(shear, UnimodularAffine(((1, -1), (0, 1)))) == UnimodularAffine()


def test_compose_acts_by_substitution_and_multiplies_determinants():
    rng = Random(5)
    for _ in range(50):
        t1, t2 = rand_affine(rng), rand_affine(rng)
        p = RatVec2(Fraction(rng.randint(-30, 30), 4), Fraction(rng.randint(-30, 30), 9))
        assert compose(t1, t2).apply(p) == t1.apply(t2.apply(p))
        assert mat_det(compose(t1, t2).linear) == mat_det(t1.linear) * mat_det(t2.linear)


def test_non_unimodular_rejected():
    with pytest.raises(NotUnimodularError, match="has determinant 2"):
        UnimodularAffine(((2, 0), (0, 1)))
    with pytest.raises(NotUnimodularError, match="has determinant 0"):
        UnimodularAffine(((1, 0), (0, 0)))


def test_values_hashable_and_immutable():
    v = IntVec2(1, 2)
    assert hash(v) == hash(IntVec2(1, 2))
    with pytest.raises(AttributeError):
        v.x = 3
    p = RatVec2(1, 2)
    assert hash(p) == hash(RatVec2(Fraction(1), Fraction(2)))
