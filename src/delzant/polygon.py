"""Convex rational polygons, the Delzant condition, and lattice congruence.

A polygon is stored counterclockwise, strictly convex, starting at its
lexicographically smallest vertex, so equal polygons compare equal
structurally.  Each edge carries a primitive integer direction, the
matching inward normal (the direction rotated left by 90 degrees, which
points inward for a counterclockwise boundary), and a rational lattice
length:

    edge vector = lattice_length * direction.

The constructor computes this edge data once, in integers per edge, and
reads convexity and orientation off the signs of det(d_i, d_{i+1}).

The polygon is Delzant when consecutive primitive inward normals satisfy
det(u_i, u_{i+1}) = 1 cyclically, i.e. every pair of adjacent normals is
a positively oriented basis of the integer lattice.  These are exactly
the moment polygons of toric 4-manifolds.

Congruence here means equality up to an affine map x -> Rx + v with R an
integer matrix of determinant +1 or -1 (``UnimodularAffine``).
``congruent`` returns an explicit witness map or None.  It tries all
cyclic offsets in both orientations.  A candidate is skipped at once
unless the two polygons' cyclic words of lattice lengths and normal
determinants line up, which every congruence requires; the survivors
must carry the integer normal cycle, and then the vertex cycle, onto
the target's.  No image polygon is built.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    CollinearVerticesError,
    NonConvexError,
    RepeatedVertexError,
    TooFewVerticesError,
)
from .lattice import (
    IntVec2,
    RatVec2,
    UnimodularAffine,
    _Value,
    det2,
    mat_det,
    mat_inverse_transpose,
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
    The edge data is computed here, once, in integers per edge.
    """

    _fields = ("vertices", "input_reversed")
    _compared = ("vertices",)

    def __init__(self, vertices: tuple[RatVec2, ...], input_reversed: bool = False):
        pts = tuple(p if isinstance(p, RatVec2) else RatVec2(p[0], p[1]) for p in vertices)
        n = len(pts)
        if n < 3:
            raise TooFewVerticesError(f"need at least 3 vertices, got {n}")
        seen: dict[RatVec2, int] = {}
        for i, p in enumerate(pts):
            if p in seen:
                raise RepeatedVertexError(i)
            seen[p] = i

        # s * (b - a) is an integer vector; with g the gcd of its entries,
        # the edge has direction s * (b - a) / g and lattice length g / s
        edges = []
        for a, b in zip(pts, pts[1:] + pts[:1]):
            s = math.lcm(a.x.denominator, a.y.denominator, b.x.denominator, b.y.denominator)
            dx = b.x.numerator * (s // b.x.denominator) - a.x.numerator * (s // a.x.denominator)
            dy = b.y.numerator * (s // b.y.denominator) - a.y.numerator * (s // a.y.denominator)
            g = math.gcd(dx, dy)
            edges.append((IntVec2(dx // g, dy // g), Fraction(g, s)))

        # edge i is a positive multiple of d_i, so det(d_i, d_{i+1}) signs the turn at i + 1
        turns = [det2(edges[i][0], edges[(i + 1) % n][0]) for i in range(n)]
        for i, turn in enumerate(turns):
            if turn == 0:
                raise CollinearVerticesError((i + 1) % n)
        if all(turn < 0 for turn in turns):
            pts = pts[::-1]
            # reversed edge j runs backwards along input edge n - 2 - j
            edges = [(-d, length) for d, length in edges[-2::-1] + edges[-1:]]
            input_reversed = True
        elif not all(turn > 0 for turn in turns):
            majority_ccw = sum(1 for turn in turns if turn > 0) * 2 >= n
            bad = next(i for i, turn in enumerate(turns) if (turn > 0) != majority_ccw)
            raise NonConvexError((bad + 1) % n)

        start = min(range(n), key=lambda i: (pts[i].x, pts[i].y))
        edges = edges[start:] + edges[:start]
        self.__dict__.update(
            vertices=pts[start:] + pts[:start],
            input_reversed=input_reversed,
            _edges=tuple(
                EdgeData(i, d, d.rotate_left(), length) for i, (d, length) in enumerate(edges)
            ),
        )

    def __len__(self) -> int:
        return len(self.vertices)


def make_polygon(points) -> Polygon:
    """Build a polygon from (x, y) pairs or RatVec2 values.

    Coordinates may be ints, Fractions, or rational strings like "5/2".
    """
    return Polygon(tuple(points))


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
    """Image polygon, renormalized to counterclockwise canonical form."""
    return Polygon(tuple(transform.apply(p) for p in poly.vertices))


def second_betti_from_edges(poly: Polygon) -> int:
    """Second Betti number of the toric 4-manifold: edge count minus 2."""
    return len(poly) - 2


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

    Each candidate must first pass the invariant-word prefilter (see
    ``_invariant_word``).  A map x -> Rx + v with R in GL2(Z) keeps every
    lattice length, and sends each inward normal u_i to S u_i with
    S = R^{-T}, so det(S u, S w) = det(R) det(u, w).  With det R = +1 the
    edges keep their order and p1's word is p2's rotated by 2 * offset.
    With det R = -1 the edges run backwards, which swaps the arguments of
    both determinants and cancels the sign, so p1's word is p2's read
    backwards from position 2 * offset.  A candidate whose words differ
    therefore cannot be a witness: the prefilter is a necessary
    condition, skips no congruence and leaves the first witness found
    unchanged.

    A candidate that passes is checked in full.  The matrix s solved
    from the first two normals acts on normals and must carry the whole
    normal cycle (an integer check); the point map is the inverse
    transpose of s, with the translation fixed by vertex 0.  The
    candidate is then verified vertex by vertex: the tail of edge i must
    land on the tail (+1) or head (-1) of its matched edge.  So a
    returned witness is always exact, and no polygon is built.
    """
    n = len(p1)
    if n != len(p2):
        return None
    word1 = _invariant_word(p1)
    word2 = _invariant_word(p2)
    normals1 = tuple(e.inward_normal for e in edge_data(p1))
    normals2 = tuple(e.inward_normal for e in edge_data(p2))
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
            s = solve_mat2(
                (normals1[0], normals1[1]),
                (normals2[offset], normals2[(offset + orientation) % n]),
            )
            if s is None or mat_det(s) != orientation:
                continue
            if any(
                mat_vec(s, normals1[i]) != normals2[(offset + orientation * i) % n]
                for i in range(2, n)
            ):
                continue
            linear = mat_inverse_transpose(s)
            targets = [p2.vertices[(offset + orientation * i + head) % n] for i in range(n)]
            transform = UnimodularAffine(linear, targets[0] - mat_vec(linear, p1.vertices[0]))
            if all(transform.apply(p) == q for p, q in zip(p1.vertices[1:], targets[1:])):
                return transform
    return None
