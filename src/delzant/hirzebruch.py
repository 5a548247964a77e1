"""Hirzebruch trapezoids and maximal-torus counting.

The standard trapezoid with parameters (a, b, m) — rational a, b > 0,
integer m >= 0, a > (m/2) b — has vertices

    (0, 0), (a + (m/2) b, 0), (a - (m/2) b, b), (0, b),

i.e. height b, average width a, and a right-hand edge of lattice slope
-1/m (vertical when m = 0).  It is always Delzant.  Every Delzant
quadrilateral is congruent
to exactly one standard trapezoid (after the m = 0 swap that identifies
the a x b and b x a rectangles), so (a, b, m) classifies Delzant 4-gons
up to unimodular affine congruence.  The parameters are invariants that
``classify_quadrilateral`` reads straight off the quadrilateral: m from
two determinants of inward normals, and b, a + (m/2) b and
a - (m/2) b from three lattice lengths.

The toric 4-manifold over the trapezoid depends only on (a, b, m mod 2):
even m gives the product of two spheres with areas a and b; odd m gives
the one-point blow-up of the projective plane with line area l = a + b/2
and exceptional area e = a - b/2.  Counting the trapezoids that land on
a fixed manifold counts the conjugacy classes of maximal tori in its
Hamiltonian symplectomorphism group:

    spheres:  ceil(a / b)      (m = 2k, k < a/b)
    blow-up:  ceil(e / (l-e))  (m = 2k + 1, k < e/(l-e))

Two such manifolds are symplectomorphic when an automorphism of the
intersection form carries one area vector to the other.  On the
canonical parameter ranges none moves a canonical vector to another, so
``same_symplectic_class`` is equality; ``form_automorphisms`` lists the
automorphisms, and the tests use it as the oracle for that lemma.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import EdgeCountError, InvalidParamsError, NotDelzantError
from .lattice import Mat2, UnimodularAffine, _Value, _as_mat2, _reduced, as_rational, is_int
from .polygon import Polygon, _delzant_failures, _from_edges, _witness


class HirzebruchParams(_Value):
    """Parameters (a, b, m) of a standard trapezoid.

    Canonical form additionally requires a >= b when m = 0; use
    ``canonical()`` to normalize.
    """

    _fields = ("a", "b", "m")

    def __init__(self, a: Fraction, b: Fraction, m: int):
        a, b = as_rational(a), as_rational(b)
        if not is_int(m) or m < 0:
            raise InvalidParamsError(f"m must be a nonnegative integer, got {m!r}")
        if a.numerator <= 0 or b.numerator <= 0:
            raise InvalidParamsError(f"need a, b > 0, got a={a}, b={b}")
        if 2 * a.numerator * b.denominator <= m * b.numerator * a.denominator:
            raise InvalidParamsError(f"need average width a > (m/2) b, got a={a}, b={b}, m={m}")
        self.__dict__.update(a=a, b=b, m=m)

    @property
    def is_canonical(self) -> bool:
        return self.m != 0 or self.a >= self.b

    def canonical(self) -> "HirzebruchParams":
        if self.m == 0 and self.a < self.b:
            return _params(self.b, self.a, 0)
        return self


def _params(a: Fraction, b: Fraction, m: int) -> HirzebruchParams:
    """``HirzebruchParams(a, b, m)`` for values valid by construction, stored unchecked."""
    params = object.__new__(HirzebruchParams)
    params.__dict__.update(a=a, b=b, m=m)
    return params


class SphereProduct(_Value):
    """Product of two spheres with areas a >= b > 0 (swapped on construction)."""

    _fields = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        a, b = as_rational(a), as_rational(b)
        if a.numerator <= 0 or b.numerator <= 0:
            raise InvalidParamsError(f"need a, b > 0, got a={a}, b={b}")
        if a.numerator * b.denominator < b.numerator * a.denominator:
            a, b = b, a
        self.__dict__.update(a=a, b=b)


class BlowUp(_Value):
    """One-point blow-up of the projective plane, line area l > exceptional area e > 0."""

    _fields = ("l", "e")

    def __init__(self, l: Fraction, e: Fraction):
        l, e = as_rational(l), as_rational(e)
        if not (e.numerator > 0 and l.numerator * e.denominator > e.numerator * l.denominator):
            raise InvalidParamsError(f"need l > e > 0, got l={l}, e={e}")
        self.__dict__.update(l=l, e=e)


ManifoldClass = SphereProduct | BlowUp


class IntersectionForm(_Value):
    """Symmetric nondegenerate 2x2 integer matrix."""

    _fields = ("matrix",)

    def __init__(self, matrix: Mat2):
        m = _as_mat2(matrix)
        if m is None:
            raise InvalidParamsError("intersection form must be 2x2")
        if not all(is_int(e) for r in m for e in r):
            raise InvalidParamsError("intersection form must have integer entries")
        if m[0][1] != m[1][0]:
            raise InvalidParamsError(f"intersection form must be symmetric, got {m}")
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
            raise InvalidParamsError("intersection form must be nondegenerate")
        self.__dict__.update(matrix=m)


HYPERBOLIC_FORM = IntersectionForm(((0, 1), (1, 0)))
BLOWUP_FORM = IntersectionForm(((1, 0), (0, -1)))


def standard_trapezoid(params: HirzebruchParams) -> Polygon:
    (p, q), (r, s), m = params.a.as_integer_ratio(), params.b.as_integer_ratio(), params.m
    # over 2 q s, a + (m/2) b, a - (m/2) b and b have the numerators below
    wide, narrow, height, den = 2 * p * s + m * q * r, 2 * p * s - m * q * r, 2 * q * r, 2 * q * s
    return _from_edges(
        [(0, 0, 1), *(_reduced(x, y, den) for x, y in ((wide, 0), (narrow, height), (0, height)))],
        [(1, 0, Fraction(wide, den)), (-m, 1, params.b), (-1, 0, Fraction(narrow, den)),
         (0, -1, params.b)],
    )


def classify_quadrilateral(poly: Polygon) -> tuple[HirzebruchParams, UnimodularAffine]:
    """Identify a Delzant quadrilateral as a standard trapezoid.

    Everything is read off the inward normals u_0..u_3 and the lattice
    lengths; no intermediate polygon is built.  Adjacent Delzant normals
    are a lattice basis, so the point map with rows u_r and u_{r+1}
    turns the normal cycle into (1, 0), (0, 1), (-1, k), (l, -1) with
    k = det(u_r, u_{r+2}), l = det(u_{r+3}, u_{r+1}) and kl = 0.  The
    relabelling r with l = 0 and k <= 0 is standard position: edge r is
    the vertical left side, edge r+1 the bottom, edge r+2 the slant of
    slope -1/m for m = -k, and edge r+3 the top.  Translating vertex r+1,
    the bottom-left corner, to the origin completes the witness.  Lattice
    lengths are invariant under the map, so edges r, r+1 and r+3 have
    lengths b, a + (m/2) b and a - (m/2) b.

    Returns the canonical parameters and a witness map T with
    apply_map(poly, T) == standard_trapezoid(params), with no check: T
    turns u_r and u_{r+1} into the standard basis and vertex r+1 into the
    origin, so the left side and the bottom run along the axes, and equal
    lattice lengths then put every vertex on its corner.  The m = 0 swap
    reverses the rows of the linear part before the translation is read
    off, which exchanges the axes.  The round-trip and reference tests
    keep this lemma.
    """
    if len(poly) != 4:
        raise EdgeCountError(f"expected a quadrilateral, got {len(poly)} edges")
    if failures := _delzant_failures(poly):
        raise NotDelzantError(failures)
    edges = poly._edges * 2  # doubled, so edges[r + j] needs no wrap-around
    u = [(-dy, dx) for dx, dy, _ in edges]

    def det(i: int, j: int) -> int:
        return u[i][0] * u[j][1] - u[i][1] * u[j][0]

    standard = [r for r in range(4) if det(r + 3, r + 1) == 0 and det(r, r + 2) <= 0]
    # a rectangle admits all four relabelings; prefer the one that keeps
    # an already-standard polygon fixed
    r = next((r for r in standard if (u[r], u[r + 1]) == ((1, 0), (0, 1))), standard[0])

    b, bottom, top = edges[r][2], edges[r + 1][2], edges[r + 3][2]
    params = _params((bottom + top) / 2, b, -det(r, r + 2))
    upright = (u[r], u[r + 1])
    if not params.is_canonical:
        params, upright = params.canonical(), upright[::-1]
    return params, _witness(upright, poly._pts[(r + 1) % 4])


def parity_reduce(params: HirzebruchParams) -> HirzebruchParams:
    """Reduce m by steps of two; the manifold class only sees m mod 2."""
    return _params(params.a, params.b, params.m % 2)


def manifold_of(params: HirzebruchParams) -> ManifoldClass:
    if params.m % 2 == 0:
        return SphereProduct(params.a, params.b)
    (p, q), (r, s) = params.a.as_integer_ratio(), params.b.as_integer_ratio()
    return BlowUp(Fraction(2 * p * s + r * q, 2 * q * s), Fraction(2 * p * s - r * q, 2 * q * s))


def _trapezoid_data(manifold: ManifoldClass) -> tuple[Fraction, Fraction, int, int]:
    """(a, b, count, parity): the trapezoids over the manifold are (a, b, 2k + parity)
    for the integers 0 <= k < count = ceil(a/b - parity/2): ceil(a/b) or ceil(e/(l-e))."""
    if isinstance(manifold, SphereProduct):
        a, b, parity = manifold.a, manifold.b, 0
    else:
        a, b, parity = (manifold.l + manifold.e) / 2, manifold.l - manifold.e, 1
    # count = ceil((2 p s - parity r q) / (2 q r)) for a = p/q and b = r/s
    (p, q), (r, s) = a.as_integer_ratio(), b.as_integer_ratio()
    return a, b, -((parity * r * q - 2 * p * s) // (2 * q * r)), parity


def enumerate_tori(manifold: ManifoldClass) -> tuple[HirzebruchParams, ...]:
    """All trapezoid parameters whose manifold is the given one.

    One entry per conjugacy class of maximal tori: (a, b, 2k) with
    0 <= k < a/b for the sphere product, (a, b, 2k+1) with
    0 <= k < e/(l-e) for the blow-up.  For k >= 0, k < ratio exactly
    when k < ceil(ratio), so there are ``count_tori`` entries.
    """
    a, b, count, parity = _trapezoid_data(manifold)
    return tuple(_params(a, b, 2 * k + parity) for k in range(count))


def count_tori(manifold: ManifoldClass) -> int:
    """Number of conjugacy classes of maximal tori, by the ceiling formula."""
    return _trapezoid_data(manifold)[2]


def form_automorphisms(form: IntersectionForm | Mat2, bound: int = 3) -> tuple[Mat2, ...]:
    """All integer matrices M with entries in [-bound, bound], det +1 or -1,
    and transpose(M) Q M = Q, sorted by entries.

    For the two forms of interest the result is independent of the bound:
    every solution already has entries in {-1, 0, 1}.  The search pairs
    the two columns v = (a, c) and w = (b, d) of M, which must satisfy
    Q(v) = q00, Q(w) = q11 and B(v, w) = q01.  One scan of a over
    [-bound, bound] lists the first columns, each c a root of a
    quadratic.  The second columns are the first columns of the form with
    its axes swapped, and d takes only the values a of a first column:
    the inverse det(M) ((d, -b), (-c, a)) is an automorphism too, so
    +-(d, -c) is a first column.  So the cost is one scan of a plus one
    root computation per first column.  det(M)^2 det Q = det Q gives
    det M = +-1 for free.

    When the group is finite, the scan stops at |a| <= min(bound, A), so
    its length does not grow with the bound.  With s = q11 c + q01 a, a
    first column has s^2 + det(Q) a^2 = q11 Q(a, c) = q00 q11 = N.  For
    det Q > 0, det(Q) a^2 <= N: A = isqrt(N // det Q).  For -det Q = k^2,
    k > 0, and N != 0, (s - k a)(s + k a) = N, and two nonzero integers
    with product N differ by at most |N| + 1: A = (|N| + 1) // (2k).  For
    N = 0, q11 = 0 gives a (q00 a + 2 q01 c) = q00 and q00 = 0 gives
    c (2 q01 a + q11 c) = 0, so a divides the other diagonal entry or the
    column is (+-1, 0) or (0, +-1): A = max(1, |q00|, |q11|).  Any other
    form has -det Q > 0 and not a square, and an infinite group, so the
    scan runs to the bound.
    """
    q = (form if isinstance(form, IntersectionForm) else IntersectionForm(form)).matrix
    if not is_int(bound) or bound < 1:
        raise InvalidParamsError(f"bound must be a positive integer, got {bound!r}")
    (q00, q01), (_, q11) = q
    det, n = q00 * q11 - q01 * q01, q00 * q11
    k = math.isqrt(max(-det, 0))
    if det > 0:
        limit = min(bound, math.isqrt(n // det))
    elif k * k == -det:
        limit = min(bound, (abs(n) + 1) // (2 * k) if n else max(1, abs(q00), abs(q11)))
    else:
        limit = bound
    firsts = [(a, c) for a in range(-limit, limit + 1) for c in _first_column_entries(q, a, bound)]
    swapped = ((q11, q01), (q01, q00))
    seconds = [
        (b, d) for d in {a for a, _ in firsts}
        for b in _first_column_entries(swapped, d, bound)
    ]
    return tuple(sorted(
        ((a, b), (c, d)) for a, c in firsts for b, d in seconds
        if a * (q00 * b + q01 * d) + c * (q01 * b + q11 * d) == q01
    ))


def _first_column_entries(q: Mat2, a: int, bound: int) -> list[int]:
    """The c in [-bound, bound] coprime to a with Q(a, c) = q00, that is,
    the integer roots of q11 c^2 + 2 q01 a c + q00 (a^2 - 1) = 0."""
    (q00, q01), (_, q11) = q
    constant = q00 * (a * a - 1)
    if q11 != 0:
        quarter_disc = (q01 * a) ** 2 - q11 * constant
        root = math.isqrt(max(quarter_disc, 0))
        if root * root != quarter_disc:
            return []
        roots = [t // q11 for t in {-q01 * a + root, -q01 * a - root} if t % q11 == 0]
    elif q01 * a != 0:
        roots = [-constant // (2 * q01 * a)] if constant % (2 * q01 * a) == 0 else []
    else:  # a = 0 (q01 != 0 when q11 = 0): every c solves constant = 0, if any does
        roots = [-1, 1] if constant == 0 else []
    # a column of a unimodular matrix has coprime entries
    return [c for c in roots if -bound <= c <= bound and math.gcd(a, c) == 1]


def same_symplectic_class(m1: ManifoldClass, m2: ManifoldClass) -> bool:
    """Whether two labeled manifolds are symplectomorphic.

    Different union tags are never symplectomorphic (the intersection
    forms differ).  Within a tag, an automorphism of the intersection
    form must carry one area vector to the other.  Those automorphisms
    are {+-I, +-swap} for the hyperbolic form and {diag(+-1, +-1)} for
    the blow-up form, and on the canonical ranges a >= b > 0 and
    l > e > 0 they take a canonical vector to a canonical vector only
    when the two are equal.  So the answer is plain equality.
    """
    return m1 == m2
