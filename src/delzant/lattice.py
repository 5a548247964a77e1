"""Exact scalars and 2D lattice linear algebra.

Points (``RatVec2``) have ``fractions.Fraction`` coordinates (arbitrary
precision, always reduced with positive denominator), which a polygon
keeps as integer triples over one denominator per vertex; all lattice
data is plain Python ``int``.  No floating point enters anywhere: the
geometric dichotomies downstream (determinant exactly 1, strict rational
inequalities) are meaningless under rounding.

A 2x2 integer matrix is a pair of rows ``((a, b), (c, d))``.  The only
matrices that occur are unimodular (determinant +1 or -1), so inverses
stay integral.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter

from .errors import DegenerateDirectionError, FormatError, NotRationalError, NotUnimodularError

Mat2 = tuple[tuple[int, int], tuple[int, int]]

IDENTITY_MAT: Mat2 = ((1, 0), (0, 1))


_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)
_INTEGER = re.compile(r"-?\d+", re.ASCII)


def is_int(value) -> bool:
    """True for a Python ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_integer(text: str) -> int:
    """Parse a string that fully matches ``-?\\d+`` (ASCII digits), else ``FormatError``."""
    if not _INTEGER.fullmatch(text):
        raise FormatError(f"invalid integer {text!r}: expected 'n' or '-n'")
    try:
        return int(text)
    except ValueError as exc:  # too many digits
        raise FormatError(f"invalid integer {text!r}: {exc}") from exc


def _as_tuple(value, length: int | None = None) -> tuple | None:
    """``tuple(value)`` when ``value`` is iterable (with ``length`` items,
    if given), else None, so that a constructor can turn a malformed shape
    into its own error instead of a bare ``TypeError`` or ``ValueError``."""
    try:
        items = tuple(value)
    except TypeError:
        return None
    return items if length is None or len(items) == length else None


def _as_mat2(value) -> Mat2 | None:
    """``value`` as a pair of pairs, or None when it has another shape."""
    try:
        (a, b), (c, d) = value
    except (TypeError, ValueError):
        return None
    return ((a, b), (c, d))


def as_rational(value) -> Fraction:
    """Coerce int / Fraction / string to an exact rational.

    An exact ``Fraction`` is returned as it is, by the first check, so a
    value rebuilt from parsed rationals pays no second coercion.  Strings
    must match ``-?\\d+(/\\d+)?`` in full (ASCII digits, no sign on the
    denominator, no spaces, underscores, decimal points or exponents)
    and have a nonzero denominator, else ``FormatError``; one match
    builds the ``Fraction``.  Floats, bools and other types raise
    ``NotRationalError``: a float in the input is always a bug under the
    exactness contract.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if not match:
            raise FormatError(f"invalid rational {value!r}: expected 'p' or 'p/q'")
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:  # q = 0, or too many digits
            raise FormatError(f"invalid rational {value!r}: {exc}") from exc
    if is_int(value) or isinstance(value, Fraction):  # a Fraction subclass is copied
        return Fraction(value)
    raise NotRationalError(f"cannot interpret {value!r} as a rational (an int, Fraction or str)")


class _Value:
    """Base of the immutable value types.

    A subclass lists its field names, in order, in ``_fields``: ``repr``
    shows them all, and equality and hashing use the field tuple, or the
    narrower ``_compared`` tuple when the class sets one.  Values of
    different classes are never equal.  The subclass's ``__init__``
    validates its arguments and then stores every field at once with
    ``self.__dict__.update``, which is cheaper than one
    ``object.__setattr__`` call per field; after that, assignment and
    deletion raise ``AttributeError``.  A builder whose values are valid by
    construction skips the checks: ``object.__new__(cls)``, then the same
    ``__dict__.update``.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        compared = cls.__dict__.get("_compared", cls._fields)
        get = attrgetter(*compared)
        # always a tuple, so that a value hashes like its field tuple
        cls._key = staticmethod(get if len(compared) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntVec2(_Value):
    """Integer lattice vector (edge directions, normals, circle directions)."""

    _fields = ("x", "y")

    def __init__(self, x: int, y: int):
        # the exact type rejects bool, and is cheaper than an is_int call
        if type(x) is not int or type(y) is not int:
            raise TypeError("IntVec2 entries must be integers")
        self.__dict__.update(x=x, y=y)

    def __neg__(self) -> "IntVec2":
        return IntVec2(-self.x, -self.y)

    def dot(self, other) -> int | Fraction:
        return self.x * other.x + self.y * other.y

    def rotate_left(self) -> "IntVec2":
        """Rotation by +90 degrees: (x, y) -> (-y, x)."""
        return IntVec2(-self.y, self.x)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


class RatVec2(_Value):
    """Point of the rational plane; also used for translations."""

    _fields = ("x", "y")

    def __init__(self, x: Fraction, y: Fraction):
        self.__dict__.update(x=as_rational(x), y=as_rational(y))

    def __add__(self, other) -> "RatVec2":
        return RatVec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other) -> "RatVec2":
        return RatVec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "RatVec2":
        return RatVec2(-self.x, -self.y)

    def dot(self, other) -> Fraction:
        return self.x * other.x + self.y * other.y


def primitive(v: IntVec2) -> IntVec2:
    """Divide out the gcd of the entries; direction is preserved.

    Raises on the zero vector, which points nowhere.
    """
    if v.is_zero():
        raise DegenerateDirectionError("degenerate direction: zero vector has no primitive form")
    g = math.gcd(v.x, v.y)
    return IntVec2(v.x // g, v.y // g)


def det2(u: IntVec2, w: IntVec2) -> int:
    return u.x * w.y - u.y * w.x


def mat_det(m: Mat2) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_mul(m1: Mat2, m2: Mat2) -> Mat2:
    return (
        (m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0], m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
        (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0], m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]),
    )


def mat_transpose(m: Mat2) -> Mat2:
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))


def mat_vec(m: Mat2, v):
    """Apply to an IntVec2 or RatVec2, preserving the vector type."""
    cls = type(v)
    return cls(m[0][0] * v.x + m[0][1] * v.y, m[1][0] * v.x + m[1][1] * v.y)


def mat_inverse_unimodular(m: Mat2) -> Mat2:
    """Integer inverse; valid only when det(m) is +1 or -1."""
    d = mat_det(m)
    if d not in (1, -1):
        raise NotUnimodularError(f"matrix {m} has determinant {d}, expected +1 or -1")
    # adj(m)/det(m); multiplying by det is the same as dividing when det^2 = 1
    return (
        (d * m[1][1], -d * m[0][1]),
        (-d * m[1][0], d * m[0][0]),
    )


def solve_mat2(src: tuple[IntVec2, IntVec2], dst: tuple[IntVec2, IntVec2]) -> Mat2 | None:
    """Unique matrix S with S*src[0] = dst[0] and S*src[1] = dst[1].

    The source pair must be independent: every caller passes two
    consecutive edge directions or normals of a strictly convex polygon.
    Solved over the rationals; returns None when the solution is not an
    integer matrix.
    """
    d = det2(src[0], src[1])
    # S = [dst0 dst1] * [src0 src1]^{-1}, with the column inverse expanded by hand
    a = dst[0].x * src[1].y - dst[1].x * src[0].y
    b = dst[1].x * src[0].x - dst[0].x * src[1].x
    c = dst[0].y * src[1].y - dst[1].y * src[0].y
    e = dst[1].y * src[0].x - dst[0].y * src[1].x
    if any(t % d for t in (a, b, c, e)):
        return None
    return ((a // d, b // d), (c // d, e // d))


class UnimodularAffine(_Value):
    """Affine map x -> R x + v with R an integer matrix of determinant +1 or -1.

    These maps form the group of lattice-preserving affine transformations
    of the plane (with a rational translation part here); moment polygons
    related by such a map describe the same torus action up to
    reparametrization.
    """

    _fields = ("linear", "translation")

    def __init__(self, linear: Mat2 = IDENTITY_MAT, translation: RatVec2 | tuple = (0, 0)):
        lin = _as_mat2(linear)
        if lin is None:
            raise NotUnimodularError("linear part must be a 2x2 integer matrix")
        if not all(is_int(e) for row in lin for e in row):
            raise NotUnimodularError(f"linear part {lin} must have integer entries")
        if mat_det(lin) not in (1, -1):
            raise NotUnimodularError(f"linear part {lin} has determinant {mat_det(lin)}")
        if not isinstance(translation, RatVec2):
            pair = _as_tuple(translation, 2)
            if pair is None:
                raise NotUnimodularError(
                    f"translation must be a pair of rationals, got {translation!r}"
                )
            translation = RatVec2(*pair)
        self.__dict__.update(linear=lin, translation=translation)

    def apply(self, p: RatVec2) -> RatVec2:
        """R p + v, exactly.

        With p = (x/d, y/e) and v = (s/f, t/g) in lowest terms, the first
        image coordinate is ((r00 x e + r01 y d) f + s d e) / (d e f), and
        the second likewise: integer numerators and denominators, so each
        coordinate costs one Fraction reduction (one gcd) instead of eight
        Fraction operations.
        """
        (r00, r01), (r10, r11) = self.linear
        x, d = p.x.numerator, p.x.denominator
        y, e = p.y.numerator, p.y.denominator
        v = self.translation
        s, f = v.x.numerator, v.x.denominator
        t, g = v.y.numerator, v.y.denominator
        de = d * e
        return RatVec2(
            Fraction((r00 * x * e + r01 * y * d) * f + s * de, de * f),
            Fraction((r10 * x * e + r11 * y * d) * g + t * de, de * g),
        )

    def compose(self, other: "UnimodularAffine") -> "UnimodularAffine":
        """The map p -> self(other(p))."""
        return UnimodularAffine(
            mat_mul(self.linear, other.linear),
            mat_vec(self.linear, other.translation) + self.translation,
        )
