"""Exact scalars and 2D lattice linear algebra.

A point (``RatVec2``) is kept as the integer triple (x, y, d) of (x/d,
y/d), with gcd 1 and d > 0, and its ``fractions.Fraction`` coordinates
(arbitrary precision, reduced) are built from it on each read; all
lattice data is plain Python ``int``.  No floating point enters
anywhere: the geometric dichotomies downstream (determinant exactly 1,
strict rational inequalities) are meaningless under rounding.

A 2x2 integer matrix is a pair of rows ``((a, b), (c, d))``.  The only
matrices that occur are unimodular (determinant +1 or -1).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter

from .errors import FormatError, NotRationalError, NotUnimodularError

Mat2 = tuple[tuple[int, int], tuple[int, int]]

IDENTITY_MAT: Mat2 = ((1, 0), (0, 1))


_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)
_INTEGER = re.compile(r"-?\d+", re.ASCII)


def is_int(value) -> bool:
    """True for a Python ``int`` that is not a ``bool``."""
    # the exact type first: it is the common case, and one check
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


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


def _rational_pair(text: str) -> tuple[int, int]:
    """(p, q), not reduced, for a text 'p' or 'p/q' with q nonzero, else ``FormatError``."""
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise FormatError(f"invalid rational {text!r}: expected 'p' or 'p/q'")
    num, den = match.groups()
    try:
        p, q = int(num), int(den or 1)
    except ValueError as exc:  # too many digits
        raise FormatError(f"invalid rational {text!r}: {exc}") from exc
    if q == 0:
        raise FormatError(f"invalid rational {text!r}: Fraction({p}, 0)")
    return p, q


def as_rational(value) -> Fraction:
    """Coerce int / Fraction / string to an exact rational.

    An exact ``Fraction`` is returned as it is, by the first check, so a
    value rebuilt from parsed rationals pays no second coercion.  Strings
    must match ``-?\\d+(/\\d+)?`` in full (ASCII digits, no sign on the
    denominator, no spaces, underscores, decimal points or exponents)
    and have a nonzero denominator, else ``FormatError``; one match
    gives the ``Fraction``'s two integers.  Floats, bools and other types
    raise ``NotRationalError``: a float in the input is always a bug under
    the exactness contract.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return Fraction(*_rational_pair(value))
    if is_int(value) or isinstance(value, Fraction):  # a Fraction subclass is copied
        return Fraction(value)
    raise NotRationalError(f"cannot interpret {value!r} as a rational (an int, Fraction or str)")


def _reduced(x: int, y: int, d: int) -> tuple[int, int, int]:
    """The canonical triple of the point (x/d, y/d), for d > 0."""
    g = math.gcd(x, y, d)
    return x // g, y // g, d // g


class _Value:
    """Base of the immutable value types.

    A subclass lists its field names, in order, in ``_fields``: ``repr``
    shows them all, and equality and hashing use the field tuple, or the
    narrower ``_compared`` tuple when the class sets one.  Values of
    different classes are never equal.  An input type's ``__init__``
    validates its arguments; the result records (``EdgeData``,
    ``DelzantReport``, ``Violation``, ``ExtendabilityReport``) store what
    they are given.  Either way ``__init__`` stores every field at once
    with ``self.__dict__.update``, which is cheaper than one
    ``object.__setattr__`` call per field; after that, assignment and
    deletion raise ``AttributeError``.  A builder whose values are valid by
    construction skips the checks: ``object.__new__(cls)``, then the same
    ``__dict__.update``.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        compared = cls.__dict__.get("_compared", cls._fields)
        get = attrgetter(*compared)
        # always a tuple, so that a value hashes like the tuple of its compared fields
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


class RatVec2(_Value):
    """Point of the rational plane; also used for translations.  It stores
    only its canonical triple ``_xyd``, by which it compares and hashes;
    x and y are built from it on each read."""

    _fields = ("x", "y")
    _compared = ("_xyd",)

    def __init__(self, x: Fraction, y: Fraction):
        (a, s), (b, t) = as_rational(x).as_integer_ratio(), as_rational(y).as_integer_ratio()
        self.__dict__["_xyd"] = _reduced(a * t, b * s, s * t)

    @property
    def x(self) -> Fraction:
        x, _, d = self._xyd
        return Fraction(x, d)

    @property
    def y(self) -> Fraction:
        _, y, d = self._xyd
        return Fraction(y, d)


def _point(xyd: tuple[int, int, int]) -> RatVec2:
    """The point of a canonical triple, unchecked."""
    p = object.__new__(RatVec2)
    p.__dict__["_xyd"] = xyd
    return p


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
        (a, b), (c, d) = lin
        if (det := a * d - b * c) not in (1, -1):
            raise NotUnimodularError(f"linear part {lin} has determinant {det}")
        if not isinstance(translation, RatVec2):
            pair = _as_tuple(translation, 2)
            if pair is None:
                raise NotUnimodularError(
                    f"translation must be a pair of rationals, got {translation!r}"
                )
            translation = RatVec2(*pair)
        self.__dict__.update(linear=lin, translation=translation)

    def apply(self, p: RatVec2) -> RatVec2:
        """R p + v, exactly: with p = (x, y)/d and v = (s, t)/e, the image is
        (R (x, y) e + (s, t) d) / (d e), one gcd from its canonical triple."""
        (r00, r01), (r10, r11) = self.linear
        (x, y, d), (s, t, e) = p._xyd, self.translation._xyd
        return _point(_reduced((r00 * x + r01 * y) * e + s * d,
                               (r10 * x + r11 * y) * e + t * d, d * e))
