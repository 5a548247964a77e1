"""Reference implementations of congruence, trapezoid classification and
polygon construction, kept as test oracles.

These are the original polygon-rebuilding versions: ``congruent`` checks
each candidate map by building the whole image polygon and comparing it
with the target, and ``classify_quadrilateral`` solves a 2x2 system for
every relabelling, then places the polygon by building and scanning
images.  They are slower but follow the geometry step by step, and the
agreement tests compare the library against them on seeded random
polygons, down to the ``repr`` of every witness.

``ReferencePolygon`` and ``reference_edge_data`` are the original
constructor and edge data: convexity from Fraction cross products of the
edge vectors, and every edge derived again, on each call, from the
vertex differences.

The 2x2 helpers at the top (``det2``, ``solve_mat2`` and the ``mat_*``
functions), the point sum and difference ``vec_add`` and ``vec_sub``,
``compose`` and ``rotate_left`` serve these oracles and the tests; the
library itself needs none of them.  ``congruent`` solves its
witness inline on int tuples, so ``check_direction_solve`` checks its
lemma against ``solve_mat2`` here, which the library does not run.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from delzant import (
    HirzebruchParams,
    IntVec2,
    Polygon,
    UnimodularAffine,
    apply_map,
    edge_data,
    is_delzant,
    standard_trapezoid,
)
from delzant.errors import (
    CollinearVerticesError,
    EdgeCountError,
    NonConvexError,
    NotDelzantError,
    NotUnimodularError,
    RepeatedVertexError,
    TooFewVerticesError,
)
from delzant.lattice import Mat2, RatVec2
from delzant.polygon import EdgeData


def det2(u: IntVec2, w: IntVec2) -> int:
    return u.x * w.y - u.y * w.x


def mat_det(m: Mat2) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


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


def mat_vec(m: Mat2, v):
    """Apply to an IntVec2 or RatVec2, preserving the vector type."""
    return type(v)(m[0][0] * v.x + m[0][1] * v.y, m[1][0] * v.x + m[1][1] * v.y)


def vec_add(p: RatVec2, q: RatVec2) -> RatVec2:
    return RatVec2(p.x + q.x, p.y + q.y)


def vec_sub(p: RatVec2, q: RatVec2) -> RatVec2:
    return RatVec2(p.x - q.x, p.y - q.y)


def mat_transpose(m: Mat2) -> Mat2:
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))


def mat_inverse_unimodular(m: Mat2) -> Mat2:
    """Integer inverse; valid only when det(m) is +1 or -1."""
    d = mat_det(m)
    if d not in (1, -1):
        raise NotUnimodularError(f"matrix {m} has determinant {d}, expected +1 or -1")
    # adj(m)/det(m); multiplying by det is the same as dividing when det^2 = 1
    return ((d * m[1][1], -d * m[0][1]), (-d * m[1][0], d * m[0][0]))


def compose(t1: UnimodularAffine, t2: UnimodularAffine) -> UnimodularAffine:
    """The map p -> t1(t2(p))."""
    (a, b), (c, d) = t1.linear
    (e, f), (g, h) = t2.linear
    return UnimodularAffine(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)),
                            vec_add(mat_vec(t1.linear, t2.translation), t1.translation))


def rotate_left(v: IntVec2) -> IntVec2:
    """Rotation by +90 degrees: (x, y) -> (-y, x)."""
    return IntVec2(-v.y, v.x)


def _candidate_transform(
    p1: Polygon,
    p2: Polygon,
    normals1: tuple[IntVec2, ...],
    normals2: tuple[IntVec2, ...],
    offset: int,
    orientation: int,
) -> UnimodularAffine | None:
    """Solve and fully verify one normal-cycle matching.

    ``orientation`` +1 matches normal cycles in order (edge i of p1 to
    edge i+offset of p2), -1 matches against the reversed cycle (edge i
    to edge offset-i), which is how reflections permute edges.  The
    solved matrix acts on normals; the point map is its inverse
    transpose.  The translation comes from one matched vertex and the
    whole map is verified by comparing image and target polygons.
    """
    n = len(normals1)

    def target(i: int) -> int:
        return (offset + orientation * i) % n

    s = solve_mat2(
        (normals1[0], normals1[1]),
        (normals2[target(0)], normals2[target(1)]),
    )
    if s is None or mat_det(s) != orientation:
        return None
    if any(mat_vec(s, normals1[i]) != normals2[target(i)] for i in range(2, n)):
        return None
    linear = mat_transpose(mat_inverse_unimodular(s))
    # tail of edge i maps to the tail (direct) or head (reversed) of its target
    image_of_v0 = p2.vertices[(offset + (1 if orientation < 0 else 0)) % n]
    translation = vec_sub(image_of_v0, mat_vec(linear, p1.vertices[0]))
    transform = UnimodularAffine(linear, translation)
    if apply_map(p1, transform) == p2:
        return transform
    return None


def reference_congruent(p1: Polygon, p2: Polygon) -> UnimodularAffine | None:
    """Witness map T with apply_map(p1, T) == p2, or None.

    Tries every cyclic offset with both orientations; each candidate is
    solved from one adjacent normal pair and verified in full, so a
    returned witness is always exact.
    """
    if len(p1) != len(p2):
        return None
    normals1 = tuple(e.inward_normal for e in edge_data(p1))
    normals2 = tuple(e.inward_normal for e in edge_data(p2))
    for orientation in (1, -1):
        for offset in range(len(p1)):
            found = _candidate_transform(p1, p2, normals1, normals2, offset, orientation)
            if found is not None:
                return found
    return None


_SWAP_XY = UnimodularAffine(((0, 1), (1, 0)))


def reference_classify_quadrilateral(
    poly: Polygon,
) -> tuple[HirzebruchParams, UnimodularAffine]:
    """Identify a Delzant quadrilateral as a standard trapezoid.

    Because adjacent normals form a lattice basis, relabeling the normal
    cycle to start at some edge and sending its first two normals to
    (1, 0) and (0, 1) forces the other two into the shape (-1, k) and
    (l, -1) with kl = 0.  The relabeling with l = 0 and k <= 0 puts the
    polygon in standard position (left edge vertical, bottom horizontal,
    slant leaning left with slope -1/m for m = -k); a translation to the
    origin then reads off the parameters directly.

    Returns the canonical parameters and a witness map T with
    apply_map(poly, T) == standard_trapezoid(params).
    """
    if len(poly) != 4:
        raise EdgeCountError(f"expected a quadrilateral, got {len(poly)} edges")
    report = is_delzant(poly)
    if not report.is_delzant:
        raise NotDelzantError(report.failures)
    normals = report.normals

    e1, e2 = IntVec2(1, 0), IntVec2(0, 1)
    chosen = None
    for r in range(4):
        w = normals[r:] + normals[:r]
        s = solve_mat2((w[0], w[1]), (e1, e2))
        assert s is not None  # adjacent Delzant normals are a lattice basis
        t2 = mat_vec(s, w[2])
        t3 = mat_vec(s, w[3])
        # Delzant determinants force t2 = (-1, k), t3 = (l, -1), kl = 0
        k, l = t2.y, t3.x
        if l == 0 and k <= 0:
            # a rectangle admits all four relabelings; prefer the one that
            # keeps an already-standard polygon fixed
            if s == ((1, 0), (0, 1)):
                chosen = (w, -k)
                break
            if chosen is None:
                chosen = (w, -k)
    if chosen is None:
        raise AssertionError("no standard relabeling found for a Delzant quadrilateral")
    w, m = chosen

    # the point map with normal action s is x -> transpose([w0 w1]) x
    upright = UnimodularAffine(mat_transpose(((w[0].x, w[1].x), (w[0].y, w[1].y))))
    image = apply_map(poly, upright)
    xmin = min(p.x for p in image.vertices)
    ymin = min(p.y for p in image.vertices)
    witness = compose(UnimodularAffine(translation=(-xmin, -ymin)), upright)
    placed = apply_map(poly, witness)

    b = max(p.y for p in placed.vertices)
    bottom = max(p.x for p in placed.vertices if p.y == 0)
    top = max(p.x for p in placed.vertices if p.y == b)
    assert bottom - top == m * b, "slant slope inconsistent with width difference"
    params = HirzebruchParams((bottom + top) / 2, b, m)

    if not params.is_canonical:
        params = params.canonical()
        witness = compose(_SWAP_XY, witness)
    assert apply_map(poly, witness) == standard_trapezoid(params)
    return params, witness


def _cross(u: RatVec2, w: RatVec2) -> Fraction:
    return u.x * w.y - u.y * w.x


@dataclass(frozen=True)
class ReferencePolygon:
    """The original ``Polygon``: same fields, same normalisation."""

    vertices: tuple[RatVec2, ...]
    input_reversed: bool = field(default=False, compare=False)

    def __post_init__(self):
        pts = tuple(
            p if isinstance(p, RatVec2) else RatVec2(p[0], p[1]) for p in self.vertices
        )
        n = len(pts)
        if n < 3:
            raise TooFewVerticesError(f"need at least 3 vertices, got {n}")
        seen: dict[RatVec2, int] = {}
        for i, p in enumerate(pts):
            if p in seen:
                raise RepeatedVertexError(i)
            seen[p] = i

        crosses = []
        for i in range(n):
            a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
            crosses.append(_cross(vec_sub(b, a), vec_sub(c, b)))
        for i, cr in enumerate(crosses):
            if cr == 0:
                raise CollinearVerticesError((i + 1) % n)
        if all(cr < 0 for cr in crosses):
            pts = pts[::-1]
            object.__setattr__(self, "input_reversed", True)
        elif not all(cr > 0 for cr in crosses):
            majority_ccw = sum(1 for cr in crosses if cr > 0) * 2 >= n
            bad = next(i for i, cr in enumerate(crosses) if (cr > 0) != majority_ccw)
            raise NonConvexError((bad + 1) % n)

        start = min(range(n), key=lambda i: (pts[i].x, pts[i].y))
        object.__setattr__(self, "vertices", pts[start:] + pts[:start])

    def __len__(self) -> int:
        return len(self.vertices)


def _primitive_direction(delta: RatVec2) -> IntVec2:
    scale = math.lcm(delta.x.denominator, delta.y.denominator)
    x, y = int(delta.x * scale), int(delta.y * scale)
    g = math.gcd(x, y)
    return IntVec2(x // g, y // g)


def reference_edge_data(poly: ReferencePolygon) -> tuple[EdgeData, ...]:
    """Per-edge lattice data, one record per edge in counterclockwise order."""
    pts = poly.vertices
    n = len(pts)
    out = []
    for i in range(n):
        delta = vec_sub(pts[(i + 1) % n], pts[i])
        direction = _primitive_direction(delta)
        length = delta.x / direction.x if direction.x else delta.y / direction.y
        out.append(EdgeData(i, direction, rotate_left(direction), length))
    return tuple(out)
