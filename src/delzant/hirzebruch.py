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

Distinctness of the underlying symplectic structures reduces to a finite
check on the intersection form: the integer matrices preserving the form
cannot move one admissible area vector to another.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import EdgeCountError, InvalidParamsError, NotDelzantError
from .lattice import (
    IntVec2, Mat2, RatVec2, UnimodularAffine, _Value, as_rational, det2, is_int, mat_det,
    mat_vec,
)
from .polygon import Polygon, edge_data, is_delzant, make_polygon


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
        if a <= 0 or b <= 0:
            raise InvalidParamsError(f"need a, b > 0, got a={a}, b={b}")
        if not a > Fraction(m, 2) * b:
            raise InvalidParamsError(f"need average width a > (m/2) b, got a={a}, b={b}, m={m}")
        self.__dict__.update(a=a, b=b, m=m)

    @property
    def is_canonical(self) -> bool:
        return self.m != 0 or self.a >= self.b

    def canonical(self) -> "HirzebruchParams":
        if self.m == 0 and self.a < self.b:
            return HirzebruchParams(self.b, self.a, 0)
        return self


class SphereProduct(_Value):
    """Product of two spheres with areas a >= b > 0 (swapped on construction)."""

    _fields = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        a, b = as_rational(a), as_rational(b)
        if a < b:
            a, b = b, a
        if b <= 0:
            raise InvalidParamsError(f"need a >= b > 0, got a={a}, b={b}")
        self.__dict__.update(a=a, b=b)


class BlowUp(_Value):
    """One-point blow-up of the projective plane, line area l > exceptional area e > 0."""

    _fields = ("l", "e")

    def __init__(self, l: Fraction, e: Fraction):
        l, e = as_rational(l), as_rational(e)
        if not l > e > 0:
            raise InvalidParamsError(f"need l > e > 0, got l={l}, e={e}")
        self.__dict__.update(l=l, e=e)


ManifoldClass = SphereProduct | BlowUp


class IntersectionForm(_Value):
    """Symmetric nondegenerate 2x2 integer matrix."""

    _fields = ("matrix",)

    def __init__(self, matrix: Mat2):
        m = tuple(tuple(row) for row in matrix)
        if len(m) != 2 or any(len(r) != 2 for r in m):
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


def _trapezoid_corners(params: HirzebruchParams) -> tuple[RatVec2, ...]:
    half = Fraction(params.m, 2) * params.b
    return (
        RatVec2(Fraction(0), Fraction(0)),
        RatVec2(params.a + half, Fraction(0)),
        RatVec2(params.a - half, params.b),
        RatVec2(Fraction(0), params.b),
    )


def standard_trapezoid(params: HirzebruchParams) -> Polygon:
    return make_polygon(_trapezoid_corners(params))


_SWAP_XY = UnimodularAffine(((0, 1), (1, 0)))
_STANDARD_BASIS = (IntVec2(1, 0), IntVec2(0, 1))


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
    apply_map(poly, T) == standard_trapezoid(params).  That equality is
    checked before returning, without building a polygon: an affine
    bijection maps a strictly convex polygon onto the convex polygon with
    the image vertex set, so it suffices that T sends the four vertices
    onto the trapezoid's four corners.
    """
    if len(poly) != 4:
        raise EdgeCountError(f"expected a quadrilateral, got {len(poly)} edges")
    report = is_delzant(poly)
    if not report.is_delzant:
        raise NotDelzantError(f"polygon is not Delzant: failures {report.failures}")
    u = report.normals * 2  # doubled, so u[r + j] needs no wrap-around
    standard = [
        r for r in range(4) if det2(u[r + 3], u[r + 1]) == 0 and det2(u[r], u[r + 2]) <= 0
    ]
    # a rectangle admits all four relabelings; prefer the one that keeps
    # an already-standard polygon fixed
    r = next((r for r in standard if (u[r], u[r + 1]) == _STANDARD_BASIS), standard[0])

    upright = ((u[r].x, u[r].y), (u[r + 1].x, u[r + 1].y))
    witness = UnimodularAffine(upright, -mat_vec(upright, poly.vertices[(r + 1) % 4]))
    lengths = [e.lattice_length for e in edge_data(poly) * 2]
    b, bottom, top = lengths[r], lengths[r + 1], lengths[r + 3]
    params = HirzebruchParams((bottom + top) / 2, b, -det2(u[r], u[r + 2]))

    if not params.is_canonical:
        params = params.canonical()
        witness = _SWAP_XY.compose(witness)
    if {witness.apply(p) for p in poly.vertices} != set(_trapezoid_corners(params)):
        raise AssertionError(f"witness {witness} does not map the polygon onto {params}")
    return params, witness


def parity_reduce(params: HirzebruchParams) -> HirzebruchParams:
    """Reduce m by steps of two; the manifold class only sees m mod 2."""
    return HirzebruchParams(params.a, params.b, params.m % 2)


def manifold_of(params: HirzebruchParams) -> ManifoldClass:
    if params.m % 2 == 0:
        return SphereProduct(params.a, params.b)
    return BlowUp(params.a + params.b / 2, params.a - params.b / 2)


def _trapezoid_data(manifold: ManifoldClass) -> tuple[Fraction, Fraction, Fraction, int]:
    """(a, b, ratio, parity): the trapezoids over the manifold are
    (a, b, 2k + parity) for the integers 0 <= k < ratio."""
    if isinstance(manifold, SphereProduct):
        return manifold.a, manifold.b, manifold.a / manifold.b, 0
    b = manifold.l - manifold.e
    return (manifold.l + manifold.e) / 2, b, manifold.e / b, 1


def enumerate_tori(manifold: ManifoldClass) -> tuple[HirzebruchParams, ...]:
    """All trapezoid parameters whose manifold is the given one.

    One entry per conjugacy class of maximal tori: (a, b, 2k) with
    0 <= k < a/b for the sphere product, (a, b, 2k+1) with
    0 <= k < e/(l-e) for the blow-up.  For k >= 0, k < ratio exactly
    when k < ceil(ratio), so there are ``count_tori`` entries.
    """
    a, b, _, parity = _trapezoid_data(manifold)
    return tuple(HirzebruchParams(a, b, 2 * k + parity) for k in range(count_tori(manifold)))


def count_tori(manifold: ManifoldClass) -> int:
    """Number of conjugacy classes of maximal tori, by the ceiling formula."""
    return math.ceil(_trapezoid_data(manifold)[2])


def form_automorphisms(form: IntersectionForm | Mat2, bound: int = 3) -> tuple[Mat2, ...]:
    """All integer matrices M with entries in [-bound, bound], det +1 or -1,
    and transpose(M) Q M = Q, sorted by entries.

    For the two forms of interest the result is independent of the bound:
    every solution already has entries in {-1, 0, 1}.  The search takes
    O(bound) steps: for each first-column entry a, the entry c is a root
    of a quadratic, and the second column then solves a linear system.
    """
    if isinstance(form, IntersectionForm):
        q = form.matrix
    else:
        q = IntersectionForm(form).matrix
    if not is_int(bound) or bound < 1:
        raise InvalidParamsError(f"bound must be a positive integer, got {bound!r}")
    return _form_automorphisms(q, bound)


@functools.lru_cache(maxsize=None)
def _form_automorphisms(q: Mat2, bound: int) -> tuple[Mat2, ...]:
    # M = ((a, b), (c, d)).  Its first column solves Q(a, c) = q00, a quadratic
    # in c for each a.  Given that column and det M = sign, M^T Q M = Q reads
    # Q M = sign * adj(M)^T Q, four equations linear in (b, d), plus det M =
    # sign.  An automorphism of a nondegenerate form is fixed by one column and
    # its determinant, so any two independent rows fix (b, d), and when no two
    # rows are independent there is no automorphism.
    (q00, q01), (_, q11) = q
    out = []
    for a in range(-bound, bound + 1):
        for c in _first_column_entries(q, a, bound):
            for sign in (1, -1):
                second = _solve_integer((
                    (-c, a, sign),
                    (0, sign * q00, q00 * a + (1 + sign) * q01 * c),
                    (sign * q00, 0, (sign - 1) * q01 * a - q11 * c),
                    (q00, (1 - sign) * q01, -sign * q11 * c),
                    ((1 + sign) * q01, q11, sign * q11 * a),
                ))
                if second is None or max(abs(second[0]), abs(second[1])) > bound:
                    continue
                m = ((a, second[0]), (c, second[1]))
                if mat_det(m) == sign and _congruence_transform(m, q) == q:
                    out.append(m)
    return tuple(sorted(out))


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


def _solve_integer(rows) -> tuple[int, int] | None:
    """The solution (x, y) of the first two independent rows p x + r y = s,
    or None when it is not integral or no two rows are independent."""
    for i, (p1, r1, s1) in enumerate(rows):
        for p2, r2, s2 in rows[i + 1:]:
            det = p1 * r2 - r1 * p2
            if det:
                x, y = s1 * r2 - r1 * s2, p1 * s2 - s1 * p2
                if x % det or y % det:
                    return None
                return x // det, y // det
    return None


def _congruence_transform(m: Mat2, q: Mat2) -> Mat2:
    (a, b), (c, d) = m
    (q00, q01), (q10, q11) = q
    # transpose(M) Q M, expanded
    r00 = a * (q00 * a + q01 * c) + c * (q10 * a + q11 * c)
    r01 = a * (q00 * b + q01 * d) + c * (q10 * b + q11 * d)
    r10 = b * (q00 * a + q01 * c) + d * (q10 * a + q11 * c)
    r11 = b * (q00 * b + q01 * d) + d * (q10 * b + q11 * d)
    return ((r00, r01), (r10, r11))


def same_symplectic_class(m1: ManifoldClass, m2: ManifoldClass) -> bool:
    """Whether two labeled manifolds are symplectomorphic.

    Different union tags are never symplectomorphic (the intersection
    forms differ).  Within a tag, the area vector of one must be carried
    to the other's by an automorphism of the intersection form; given
    the canonical parameter ranges this happens only at equality.
    """
    if type(m1) is not type(m2):
        return False
    if isinstance(m1, SphereProduct):
        form = HYPERBOLIC_FORM
        v1 = RatVec2(m1.a, m1.b)
        v2 = RatVec2(m2.a, m2.b)
    else:
        form = BLOWUP_FORM
        v1 = RatVec2(m1.l, m1.e)
        v2 = RatVec2(m2.l, m2.e)
    return any(mat_vec(m, v1) == v2 for m in form_automorphisms(form, 1))
