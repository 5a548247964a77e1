"""Convex rational polygons, the Delzant condition, and lattice congruence.

A polygon is stored counterclockwise, strictly convex, starting at its
lexicographically smallest vertex, so equal polygons compare equal
structurally.  Each vertex is kept as its point's integer triple
(x, y, d), the point (x/d, y/d) with gcd 1 and d > 0, so equal points
have equal triples; ``vertices`` builds the points on first read.  Each
edge is kept as a plain tuple (dx, dy, length): a primitive
integer direction and a rational lattice length, with

    edge vector = length * (dx, dy).

Its inward normal is the direction rotated left by 90 degrees, (-dy, dx),
which points inward for a counterclockwise boundary; a rotation keeps
determinants, so det(u_i, u_j) = det(d_i, d_j).  ``edge_data`` builds
the ``EdgeData`` records on its first call and caches them, and
``is_delzant`` takes its report's normals from them; the algorithms read
the int tuples.

The constructor computes the edges once, in integers per edge, and
reads convexity and orientation off the signs of det(d_i, d_{i+1}) and
the number of times the directions turn round, which must be one.  Such a
boundary is simple, so no vertex is hashed: a repeated vertex is sought
only on the way to another error, and replaces that error when found.
``apply_map`` and ``standard_trapezoid`` build valid polygons from their
integer triples and edges through the constructor's last step alone.

The polygon is Delzant when consecutive primitive inward normals satisfy
det(u_i, u_{i+1}) = 1 cyclically, i.e. every pair of adjacent normals is
a positively oriented basis of the integer lattice.  These are exactly
the moment polygons of toric 4-manifolds.

Congruence here means equality up to an affine map x -> Rx + v with R an
integer matrix of determinant +1 or -1 (``UnimodularAffine``).
``congruent`` tries every cyclic edge matching in both orientations and
returns an explicit witness map or None.  A matching survives only when
the two polygons' cyclic words of lattice lengths and direction
determinants line up; the words then fix the map, so one integer solve on
two edge directions decides it: by the lemma in ``congruent``, which
``check_direction_solve`` keeps as a test, the witness is exact with no
vertex check.  No polygon is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import (
    CollinearVerticesError,
    FormatError,
    NonConvexError,
    RepeatedVertexError,
    TooFewVerticesError,
)
from .lattice import (
    IntVec2,
    RatVec2,
    UnimodularAffine,
    _as_tuple,
    _point,
    _reduced,
    _Value,
)


class EdgeData(_Value):
    """One polygon edge: primitive direction, inward normal, lattice length."""

    _fields = ("tail_index", "direction", "inward_normal", "lattice_length")

    def __init__(self, tail_index: int, direction: IntVec2, inward_normal: IntVec2,
                 lattice_length: Fraction):
        self.__dict__.update(tail_index=tail_index, direction=direction,
                             inward_normal=inward_normal, lattice_length=lattice_length)


class Polygon(_Value):
    """Strictly convex polygon with rational vertices, counterclockwise.

    Clockwise input is accepted and silently reversed; ``input_reversed``
    records that this happened (it does not participate in equality).
    The boundary must turn one way at every vertex and wind round once, so
    a pentagram raises ``NonConvexError``; then the vertices are distinct, so
    ``RepeatedVertexError`` is sought only when another error is raised.
    """

    _fields = ("vertices", "input_reversed")
    _compared = ("_pts",)

    def __init__(self, vertices: tuple[RatVec2, ...]):
        items = _as_tuple(vertices)
        if items is None:
            raise FormatError(f"bad vertices {vertices!r}")
        pts = [(p if isinstance(p, RatVec2) else _as_point(p))._xyd for p in items]
        n = len(pts)
        if n < 3:
            raise TooFewVerticesError(f"need at least 3 vertices, got {n}")

        # ad bd (b - a) is an integer vector; with g the gcd of its entries, the edge
        # has direction ad bd (b - a) / g and lattice length g / (ad bd)
        edges = []
        for (ax, ay, ad), (bx, by, bd) in zip(pts, pts[1:] + pts[:1]):
            dx, dy = bx * ad - ax * bd, by * ad - ay * bd
            g = math.gcd(dx, dy) or 1  # a zero edge makes zero turns: a repeat, raised below
            edges.append((dx // g, dy // g, Fraction(g, ad * bd)))

        # edge i is a positive multiple of d_i, so det(d_i, d_{i+1}) signs the turn at i + 1
        turns = [a * d - b * c for (a, b, _), (c, d, _) in zip(edges, edges[1:] + edges[:1])]
        if 0 in turns:
            raise _repeat_error(pts) or CollinearVerticesError((turns.index(0) + 1) % n)
        if min(turns) < 0 < max(turns):
            majority_ccw = sum(1 for turn in turns if turn > 0) * 2 >= n
            bad = next(i for i, turn in enumerate(turns) if (turn > 0) != majority_ccw)
            raise _repeat_error(pts) or NonConvexError((bad + 1) % n)
        extra = self._fill(pts, edges, max(turns) < 0)
        if extra is not None:
            raise _repeat_error(pts) or NonConvexError(pts.index(extra))

    def _fill(self, pts, edges, reverse: bool) -> tuple[int, int, int] | None:
        """Store vertex triples and their edges (dx, dy, length), reversed first if
        ``reverse``, from the least vertex: the one entered by a leftward edge,
        (dx, dy) < (0, 0), and left by one that is not.  A boundary that winds more
        than once has further such vertices; return the first, or None."""
        if reverse:
            pts = pts[::-1]
            # reversed edge j runs backwards along input edge n - 2 - j
            edges = [(-dx, -dy, length) for dx, dy, length in edges[-2::-1] + edges[-1:]]
        leftward = [(dx, dy) < (0, 0) for dx, dy, _ in edges]
        start, *others = [i for i in range(len(pts)) if leftward[i - 1] and not leftward[i]]
        self.__dict__.update(_pts=tuple(pts[start:] + pts[:start]), input_reversed=reverse,
                             _edges=tuple(edges[start:] + edges[:start]))
        return pts[others[0]] if others else None

    @cached_property
    def vertices(self) -> tuple[RatVec2, ...]:
        """The points, built from the triples on first read."""
        return tuple(map(_point, self._pts))

    @cached_property
    def _edge_data(self) -> tuple[EdgeData, ...]:
        return tuple(EdgeData(i, IntVec2(dx, dy), IntVec2(-dy, dx), length)
                     for i, (dx, dy, length) in enumerate(self._edges))

    def __len__(self) -> int:
        return len(self._pts)


def _from_edges(pts, edges, reverse: bool = False) -> Polygon:
    """The polygon on vertex triples and their edges (dx, dy, length), unchecked."""
    poly = object.__new__(Polygon)
    poly._fill(pts, edges, reverse)
    return poly


def _witness(linear, src, dst=(0, 0, 1)) -> UnimodularAffine:
    """The map x -> R x + v with R = ``linear`` and R src + v = dst, for vertex
    triples src and dst, unchecked: every caller's lemma makes R unimodular."""
    (r00, r01), (r10, r11) = linear
    (x, y, d), (u, w, e) = src, dst
    witness = object.__new__(UnimodularAffine)
    witness.__dict__.update(linear=linear, translation=_point(_reduced(
        u * d - (r00 * x + r01 * y) * e, w * d - (r10 * x + r11 * y) * e, d * e)))
    return witness


def _as_point(p) -> RatVec2:
    """An (x, y) pair as a point, or ``FormatError`` for any other shape."""
    pair = _as_tuple(p, 2)
    if pair is None:
        raise FormatError(f"bad point {p!r}")
    return RatVec2(*pair)


def _repeat_error(pts) -> RepeatedVertexError | None:
    """The error for the first vertex triple equal to an earlier one, or None."""
    seen = set()
    for i, p in enumerate(pts):
        if p in seen:
            return RepeatedVertexError(i)
        seen.add(p)


def make_polygon(points) -> Polygon:
    """Build a polygon from (x, y) pairs or RatVec2 values.

    Coordinates may be ints, Fractions, or rational strings like "5/2".
    """
    return Polygon(points)


def edge_data(poly: Polygon) -> tuple[EdgeData, ...]:
    """Per-edge lattice data in counterclockwise order: built from the polygon's int
    edges on the first call, and the same tuple on every later one."""
    return poly._edge_data


class DelzantReport(_Value):
    """Outcome of the Delzant test.

    ``failures`` lists pairs (i, d) where the normals of edges i and i+1
    (cyclically) have determinant d != 1.
    """

    _fields = ("is_delzant", "normals", "failures", "input_reversed")

    def __init__(self, is_delzant: bool, normals: tuple[IntVec2, ...],
                 failures: tuple[tuple[int, int], ...], input_reversed: bool = False):
        self.__dict__.update(is_delzant=is_delzant, normals=normals, failures=failures,
                             input_reversed=input_reversed)


def _delzant_failures(poly: Polygon) -> tuple[tuple[int, int], ...]:
    """The pairs (i, d) with d = det(u_i, u_{i+1}) = det(d_i, d_{i+1}) other than 1."""
    edges = poly._edges
    pairs = enumerate(zip(edges, edges[1:] + edges[:1]))
    return tuple((i, d) for i, ((a, b, _), (c, e, _)) in pairs if (d := a * e - b * c) != 1)


def is_delzant(poly: Polygon) -> DelzantReport:
    """Check det(u_i, u_{i+1}) = 1 for all consecutive inward normals."""
    failures = _delzant_failures(poly)
    normals = tuple(e.inward_normal for e in edge_data(poly))
    return DelzantReport(not failures, normals, failures, poly.input_reversed)


def apply_map(poly: Polygon, transform: UnimodularAffine) -> Polygon:
    """Image polygon, renormalized to counterclockwise canonical form, built
    unchecked from the edges R d_i (same lengths; reversed if det R = -1)."""
    (r00, r01), (r10, r11) = transform.linear
    edges = [(r00 * dx + r01 * dy, r10 * dx + r11 * dy, length) for dx, dy, length in poly._edges]
    s, t, e = transform.translation._xyd
    pts = [_reduced((r00 * x + r01 * y) * e + s * d, (r10 * x + r11 * y) * e + t * d, d * e)
           for x, y, d in poly._pts]
    return _from_edges(pts, edges, r00 * r11 - r01 * r10 < 0)


def _invariant_word(poly: Polygon) -> list:
    """The cyclic word (E_0, C_0, E_1, C_1, ...) of the polygon's 2n
    congruence invariants.

    E_i = (numerator, denominator of the lattice length of edge i,
    det(d_{i-1}, d_{i+1})) and C_i = det(d_i, d_{i+1}), in plain ints so
    that words compare at C speed; the normals have the same determinants.
    It is computed per ``congruent`` call, not stored by the constructor,
    so that building a polygon does not pay for it.
    """
    edges = poly._edges
    word = []
    for (px, py, _), (dx, dy, length), (nx, ny, _) in zip(edges[-1:] + edges[:-1], edges,
                                                        edges[1:] + edges[:1]):
        word.append((length.numerator, length.denominator, px * ny - py * nx))
        word.append(dx * ny - dy * nx)
    return word


def congruent(p1: Polygon, p2: Polygon) -> UnimodularAffine | None:
    """Witness map T with apply_map(p1, T) == p2, or None.

    Tries every cyclic offset with both orientations, in that order.
    Orientation +1 matches edge i of p1 to edge offset+i of p2; -1 matches
    it to edge offset-i, which is how reflections permute edges.

    A candidate is skipped unless the words of ``_invariant_word`` line
    up.  A map x -> Rx + v with R in GL2(Z) keeps every lattice length and
    multiplies every determinant of two directions, or of two normals, by
    det R.  With det R = +1 the edges keep their order and p1's word is
    p2's rotated by 2 * offset; with det R = -1 they run backwards, which
    swaps the arguments of both determinants and cancels the sign, so
    p1's word is p2's read backwards from 2 * offset.  So the prefilter
    skips no congruence and leaves the first witness unchanged.

    The words decide the rest.  Let t_i be the direction matched with d_i
    (negated for -1).  Strict convexity makes d_{i+1} the one x with
    det(d_i, x) = C_i and det(d_{i-1}, x) = E_i (the words' determinants),
    and the t_i follow the same recurrence scaled by the orientation.  So
    when the R with R d_0 = t_0 and R d_1 = t_1 is integral, det R is the
    orientation and R d_i = t_i for every i.  The translation sends vertex
    0 to the tail (+1) or head (-1) of its matched edge, and equal lattice
    lengths carry every other vertex onto its target, so the witness is
    exact with no vertex check.  ``check_direction_solve`` in
    ``tests/test_polygon_oracle.py`` keeps this lemma as a test.
    """
    n = len(p1)
    if n != len(p2):
        return None
    word1 = _invariant_word(p1)
    word2 = _invariant_word(p2)
    (x0, y0, _), (x1, y1, _) = p1._edges[:2]
    det = x0 * y1 - y0 * x1  # nonzero: two consecutive edges of a strictly convex polygon
    d2 = p2._edges
    for orientation in (1, -1):
        head = 1 if orientation < 0 else 0
        scale = orientation * det  # dividing by it multiplies by the orientation, +1 or -1
        # entry k of the backwards word is entry -k of p2's word; doubled, so
        # every rotation is one slice
        cycle = (word2 if orientation > 0 else word2[:1] + word2[:0:-1]) * 2
        for offset in range(n):
            start = (orientation * 2 * offset) % (2 * n)
            # the first entry alone rejects most offsets without a slice
            if cycle[start] != word1[0] or cycle[start:start + 2 * n] != word1:
                continue
            (a, b, _), (c, e, _) = d2[offset], d2[(offset + orientation) % n]
            # R = [t_0 t_1] [d_0 d_1]^-1 with the inverse expanded by hand, for
            # t_0 = orientation * (a, b) and t_1 = orientation * (c, e)
            r00, r01 = a * y1 - c * y0, c * x0 - a * x1
            r10, r11 = b * y1 - e * y0, e * x0 - b * x1
            if not (r00 % det or r01 % det or r10 % det or r11 % det):
                return _witness(((r00 // scale, r01 // scale), (r10 // scale, r11 // scale)),
                                p1._pts[0], p2._pts[(offset + head) % n])
    return None
