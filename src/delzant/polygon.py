"""Convex rational polygons, the Delzant condition, and lattice congruence.

A polygon is stored counterclockwise, strictly convex, starting at its
lexicographically smallest vertex, so equal polygons compare equal
structurally.  Each edge carries a primitive integer direction, the
matching inward normal (the direction rotated left by 90 degrees, which
points inward for a counterclockwise boundary), and a rational lattice
length:

    edge vector = lattice_length * direction.

The constructor computes this edge data once, in integers per edge, and
reads convexity and orientation off the signs of det(d_i, d_{i+1}) and
the number of times the directions turn round, which must be one.  Such a
boundary is simple, so no vertex is hashed: a repeated vertex is sought
only on the way to another error, and replaces that error when found.
``apply_map`` and ``standard_trapezoid`` build valid polygons from their
integer edge data through the constructor's last step alone.

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
    _Value,
    det2,
    mat_vec,
    solve_mat2,
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
    _compared = ("vertices",)

    def __init__(self, vertices: tuple[RatVec2, ...]):
        items = _as_tuple(vertices)
        if items is None:
            raise FormatError(f"bad vertices {vertices!r}")
        pts = given = tuple(p if isinstance(p, RatVec2) else _as_point(p) for p in items)
        n = len(pts)
        if n < 3:
            raise TooFewVerticesError(f"need at least 3 vertices, got {n}")

        # s * (b - a) is an integer vector; with g the gcd of its entries,
        # the edge has direction s * (b - a) / g and lattice length g / s
        coords = [(p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator) for p in pts]
        edges = []
        for (ax, ad, ay, ae), (bx, bd, by, be) in zip(coords, coords[1:] + coords[:1]):
            s = math.lcm(ad, ae, bd, be)
            dx = bx * (s // bd) - ax * (s // ad)
            dy = by * (s // be) - ay * (s // ae)
            g = math.gcd(dx, dy) or 1  # a zero edge makes zero turns: a repeat, raised below
            edges.append((dx // g, dy // g, Fraction(g, s)))

        # edge i is a positive multiple of d_i, so det(d_i, d_{i+1}) signs the turn at i + 1
        turns = [a * d - b * c for (a, b, _), (c, d, _) in zip(edges, edges[1:] + edges[:1])]
        if 0 in turns:
            raise _repeat_error(given) or CollinearVerticesError((turns.index(0) + 1) % n)
        if min(turns) < 0 < max(turns):
            majority_ccw = sum(1 for turn in turns if turn > 0) * 2 >= n
            bad = next(i for i, turn in enumerate(turns) if (turn > 0) != majority_ccw)
            raise _repeat_error(given) or NonConvexError((bad + 1) % n)
        extra = self._fill(pts, edges, max(turns) < 0)
        if extra is not None:
            raise _repeat_error(given) or NonConvexError(given.index(extra))

    def _fill(self, pts, edges, reverse: bool) -> RatVec2 | None:
        """Store points and their edges (dx, dy, length), reversed first if
        ``reverse``, from the least vertex: the one entered by a leftward edge,
        (dx, dy) < (0, 0), and left by one that is not.  A boundary that winds
        more than once has further such vertices; return the first, or None."""
        if reverse:
            pts = pts[::-1]
            # reversed edge j runs backwards along input edge n - 2 - j
            edges = [(-dx, -dy, length) for dx, dy, length in edges[-2::-1] + edges[-1:]]
        leftward = [(dx, dy) < (0, 0) for dx, dy, _ in edges]
        start, *others = [i for i in range(len(pts)) if leftward[i - 1] and not leftward[i]]
        edges = edges[start:] + edges[:start]
        self.__dict__.update(
            vertices=pts[start:] + pts[:start],
            input_reversed=reverse,
            _edges=tuple(EdgeData(i, IntVec2(dx, dy), IntVec2(-dy, dx), length)
                         for i, (dx, dy, length) in enumerate(edges)),
        )
        return pts[others[0]] if others else None

    def __len__(self) -> int:
        return len(self.vertices)


def _from_edges(pts, edges, reverse: bool = False) -> Polygon:
    """The polygon on points and their edges (dx, dy, length), valid by construction, unchecked."""
    poly = object.__new__(Polygon)
    poly._fill(pts, edges, reverse)
    return poly


def _as_point(p) -> RatVec2:
    """An (x, y) pair as a point, or ``FormatError`` for any other shape."""
    pair = _as_tuple(p, 2)
    if pair is None:
        raise FormatError(f"bad point {p!r}")
    return RatVec2(*pair)


def _repeat_error(points: tuple[RatVec2, ...]) -> RepeatedVertexError | None:
    """The error for the first vertex equal to an earlier one, or None."""
    seen = set()
    for i, p in enumerate(points):
        if p in seen:
            return RepeatedVertexError(i)
        seen.add(p)


def make_polygon(points) -> Polygon:
    """Build a polygon from (x, y) pairs or RatVec2 values.

    Coordinates may be ints, Fractions, or rational strings like "5/2".
    """
    return Polygon(points)


def edge_data(poly: Polygon) -> tuple[EdgeData, ...]:
    """Per-edge lattice data in counterclockwise order, computed once by the constructor."""
    return poly._edges


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


def is_delzant(poly: Polygon) -> DelzantReport:
    """Check det(u_i, u_{i+1}) = 1 for all consecutive inward normals."""
    normals = tuple(e.inward_normal for e in edge_data(poly))
    n = len(normals)
    failures = tuple(
        (i, d)
        for i in range(n)
        if (d := det2(normals[i], normals[(i + 1) % n])) != 1
    )
    return DelzantReport(not failures, normals, failures, poly.input_reversed)


def apply_map(poly: Polygon, transform: UnimodularAffine) -> Polygon:
    """Image polygon, renormalized to counterclockwise canonical form, built
    unchecked from the edges R d_i (same lengths; reversed if det R = -1)."""
    (r00, r01), (r10, r11) = transform.linear
    edges = [(r00 * e.direction.x + r01 * e.direction.y,
              r10 * e.direction.x + r11 * e.direction.y, e.lattice_length) for e in edge_data(poly)]
    pts = tuple(transform.apply(p) for p in poly.vertices)
    return _from_edges(pts, edges, r00 * r11 - r01 * r10 < 0)


def _invariant_word(poly: Polygon) -> list:
    """The cyclic word (E_0, C_0, E_1, C_1, ...) of the polygon's 2n
    congruence invariants.

    E_i = (numerator, denominator of the lattice length of edge i,
    det(u_{i-1}, u_{i+1})) and C_i = det(u_i, u_{i+1}), in plain ints so
    that words compare at C speed.  It is computed per ``congruent`` call,
    not stored by the constructor, so that building a polygon does not
    pay for it.
    """
    edges = edge_data(poly)
    u = [e.inward_normal for e in edges]
    n = len(u)
    word = []
    for i, e in enumerate(edges):
        length = e.lattice_length
        word.append((length.numerator, length.denominator, det2(u[i - 1], u[(i + 1) % n])))
        word.append(det2(u[i], u[(i + 1) % n]))
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
    d1 = [e.direction for e in edge_data(p1)]
    d2 = [e.direction for e in edge_data(p2)]
    for orientation in (1, -1):
        head = 1 if orientation < 0 else 0
        # entry k of the backwards word is entry -k of p2's word; doubled, so
        # every rotation is one slice
        cycle = (word2 if orientation > 0 else word2[:1] + word2[:0:-1]) * 2
        for offset in range(n):
            start = (orientation * 2 * offset) % (2 * n)
            # the first entry alone rejects most offsets without a slice
            if cycle[start] != word1[0] or cycle[start:start + 2 * n] != word1:
                continue
            t0, t1 = d2[offset], d2[(offset + orientation) % n]
            linear = solve_mat2((d1[0], d1[1]), (t0, t1) if orientation > 0 else (-t0, -t1))
            if linear is not None:
                return UnimodularAffine(
                    linear, p2.vertices[(offset + head) % n] - mat_vec(linear, p1.vertices[0])
                )
    return None
