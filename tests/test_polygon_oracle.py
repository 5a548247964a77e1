"""Agreement of ``congruent``, ``classify_quadrilateral`` and the
``Polygon`` constructor with their reference versions, and the polygons
``congruent`` and ``classify_quadrilateral`` build."""

from fractions import Fraction
from random import Random

from delzant import (
    HirzebruchParams,
    IntVec2,
    Polygon,
    RatVec2,
    UnimodularAffine,
    apply_map,
    classify_quadrilateral,
    congruent,
    edge_data,
    make_polygon,
    standard_trapezoid,
)
from delzant.errors import DelzantError, NotDelzantError

from reference_polygons import (
    ReferencePolygon,
    det2,
    mat_det,
    mat_vec,
    reference_classify_quadrilateral,
    reference_congruent,
    reference_edge_data,
    solve_mat2,
    vec_add,
    vec_sub,
)
from support import rand_affine, rand_params, rand_rational

# the eight lattice symmetries of the unit square, as linear parts
DIHEDRAL = (
    ((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((0, 1), (-1, 0)),
    ((1, 0), (0, -1)), ((-1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, -1), (-1, 0)),
)

REFERENCE = {
    classify_quadrilateral: reference_classify_quadrilateral,
    congruent: reference_congruent,
}


def outcome(fn, *args) -> str:
    """``repr`` of the result, or the type and message of the exception."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the oracle comparison covers errors as well
        text = f"{type(exc).__name__}: {exc}"
        # the message names the failing edges; the determinants are on ``failures``
        return f"{text} {exc.failures}" if isinstance(exc, NotDelzantError) else text


def cut_corner(poly: Polygon, j: int, size) -> Polygon:
    """Toric blow-up of the corner at vertex j, which joins edges j-1 and j."""
    edges = edge_data(poly)
    before, after = edges[j - 1], edges[j]
    v = poly.vertices[j]
    back = RatVec2(-before.direction.x * size, -before.direction.y * size)
    ahead = RatVec2(after.direction.x * size, after.direction.y * size)
    pts = list(poly.vertices)
    pts[j:j + 1] = [vec_add(v, back), vec_add(v, ahead)]
    return make_polygon(pts)


def cut_corners(poly: Polygon, rng: Random, cuts: int) -> Polygon:
    """Toric blow-ups: cut ``cuts`` random corners, each by a third or less
    of its shorter edge, so the result stays Delzant when ``poly`` is."""
    for _ in range(cuts):
        edges = edge_data(poly)
        j = rng.randrange(len(poly))
        size = min(edges[j - 1].lattice_length, edges[j].lattice_length) / rng.randint(3, 6)
        poly = cut_corner(poly, j, size)
    return poly


def cut_orbit(poly: Polygon, vertex: RatVec2, size: int) -> Polygon:
    """Cut the corners at every image of ``vertex`` under the square's
    symmetries by ``size``, so a D4-symmetric polygon stays symmetric."""
    for image in sorted({mat_vec(g, vertex) for g in DIHEDRAL}, key=lambda p: (p.x, p.y)):
        poly = cut_corner(poly, poly.vertices.index(image), size)
    return poly


def d4_pair(rng: Random) -> tuple[Polygon, Polygon]:
    """A D4-symmetric corner-cut polygon, and a transformed copy with one
    edge moved parallel to itself by half a lattice step.

    The two share one normal cycle, which all eight symmetries preserve,
    so eight normal matchings pass the normal check; the copy is never
    congruent, because the two neighbours of the moved edge get lattice
    lengths in Z + 1/2 while every length of the original is an integer.
    """
    side = 60
    poly = make_polygon([(-side, -side), (side, -side), (side, side), (-side, side)])
    poly = cut_orbit(poly, RatVec2(side, side), rng.randint(side // 4, side // 2))
    for _ in range(rng.randint(1, 2)):
        edges = edge_data(poly)

        def room(j):
            return min(edges[j - 1].lattice_length, edges[j].lattice_length)

        # off every mirror line, so the orbit has eight corners; an edge
        # between two of them is cut from both ends
        sector = [j for j, p in enumerate(poly.vertices) if 0 < p.y < p.x and room(j) >= 3]
        if not sector:
            break
        j = rng.choice(sector)
        poly = cut_orbit(poly, poly.vertices[j], rng.randint(1, int(room(j) - 1) // 2))
    edges = edge_data(poly)
    n = len(poly)
    i = rng.randrange(n)
    half = Fraction(1, 2)
    pts = list(poly.vertices)
    before, after = edges[i - 1].direction, edges[(i + 1) % n].direction
    pts[i] = vec_sub(pts[i], RatVec2(half * before.x, half * before.y))
    pts[(i + 1) % n] = vec_add(pts[(i + 1) % n], RatVec2(half * after.x, half * after.y))
    return poly, apply_map(make_polygon(pts), rand_affine(rng))


def same_word_triangles(rng: Random) -> tuple[Polygon, Polygon]:
    """Two lattice triangles (0, 0), (L, 0), (x, d), mapped at random, with
    d prime and x, x - L prime to d.

    Every such triangle has lattice lengths (L, 1, 1) and area L d / 2,
    and for a triangle these fix every determinant of normals, so the
    invariant words of the two agree.  A lattice map between them must
    keep the one edge of length L >= 2, so the triangles are congruent
    only when x' = x or x' = L - x (mod d); otherwise the rational matrix
    that matches their normals is not integral.
    """
    d = rng.choice((5, 7, 11))
    length = rng.randint(2, d - 1)
    apexes = [x for x in range(d) if x % d and (x - length) % d]
    x1, x2 = rng.choice(apexes), rng.choice(apexes)
    scale = Fraction(1, rng.randint(1, 4))
    return tuple(
        apply_map(make_polygon([(0, 0), (length * scale, 0), (x * scale, d * scale)]),
                  rand_affine(rng))
        for x in (x1, x2)
    )


def convex_hull(points) -> list:
    """Monotone-chain hull, counterclockwise, without collinear points."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


def rand_convex(rng: Random) -> Polygon:
    """A convex polygon on random lattice points, usually not Delzant."""
    while True:
        hull = convex_hull([(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(6)])
        if len(hull) >= 3:
            scale = Fraction(1, rng.randint(1, 4))
            return make_polygon([(x * scale, y * scale) for x, y in hull])


def rand_quadrilateral(rng: Random, kind: int) -> Polygon:
    """A transformed Delzant quadrilateral of one of four shapes."""
    if kind == 0:  # rectangle with a < b: classification swaps it
        b = rand_rational(rng, 2, 20)
        params = HirzebruchParams(b * Fraction(rng.randint(1, 9), 10), b, 0)
    elif kind == 1:  # square, with all eight symmetries
        a = rand_rational(rng)
        params = HirzebruchParams(a, a, 0)
    else:
        params = rand_params(rng)
    poly = standard_trapezoid(params)
    if kind == 1:
        poly = apply_map(poly, UnimodularAffine(rng.choice(DIHEDRAL)))
    return apply_map(poly, rand_affine(rng))


def clockwise(poly: Polygon) -> Polygon:
    return make_polygon(poly.vertices[::-1])


def test_agrees_with_reference_on_random_polygons():
    rng, prefilter_rng = Random(404), Random(406)
    cases = 0
    for i in range(1112):
        quad = rand_quadrilateral(rng, i % 4)
        if i % 3 == 0:
            quad = clockwise(quad)
        image = apply_map(quad, rand_affine(rng))
        if i % 5 == 0:
            image = clockwise(image)
        other = rand_quadrilateral(rng, rng.randrange(4))
        convex = rand_convex(rng)
        convex_image = apply_map(convex, rand_affine(rng))
        ngon = cut_corners(quad, rng, rng.randint(1, 3))
        ngon_image = apply_map(ngon, rand_affine(rng))
        checks = [
            (classify_quadrilateral, (quad,)),
            (classify_quadrilateral, (image,)),
            (classify_quadrilateral, (convex,)),
            (congruent, (quad, image)),
            (congruent, (image, other)),
            (congruent, (convex, convex_image)),
            (congruent, (convex, rand_convex(rng))),
            (congruent, (ngon, ngon_image)),
            (congruent, (ngon_image, cut_corners(other, rng, len(ngon) - 4))),
        ]
        # pairs that one congruence prefilter cannot tell apart: the same
        # invariant word (triangles), the same normal cycle (the D4 pair); drawn
        # from a stream of their own so that the cases above stay as they were
        checks.append((congruent, same_word_triangles(prefilter_rng)))
        if i % 4 == 0:
            symmetric, moved = d4_pair(prefilter_rng)
            checks.append((congruent, (symmetric, moved)))
            symmetric_image = apply_map(symmetric, rand_affine(prefilter_rng))
            checks.append((congruent, (symmetric, symmetric_image)))
        for fn, args in checks:
            assert outcome(fn, *args) == outcome(REFERENCE[fn], *args), (fn.__name__, args)
            cases += 1
    assert cases >= 10_000


def check_direction_solve(p1: Polygon, p2: Polygon) -> list[int]:
    """Check the lemma behind ``congruent`` on every candidate it solves,
    and return the orientations of the candidates checked.

    A candidate matches edge i of p1 with edge offset + orientation * i of
    p2, and t_i is that edge's direction, negated for orientation -1.  It
    is solved when the lattice lengths agree, when C_i = det(d_i, d_{i+1})
    and E_i = det(d_{i-1}, d_{i+1}) of p1 times the orientation equal the
    same determinants of the t_i, and when the matrix R with R d_0 = t_0
    and R d_1 = t_1 is integral.  The lemma: det R is the orientation and
    R d_i = t_i for every i.  Its vertex half: with the translation that
    sends vertex 0 to its target, every vertex lands on its target, the
    tail (+1) or head (-1) of the matched edge, because matched edges have
    equal lattice lengths.
    """
    n = len(p1)
    if n != len(p2):
        return []
    e1, e2 = edge_data(p1), edge_data(p2)
    d = [e.direction for e in e1]
    checked = []
    for orientation in (1, -1):
        for offset in range(n):
            match = [(offset + orientation * i) % n for i in range(n)]
            t = [e2[j].direction for j in match]
            if orientation < 0:
                t = [IntVec2(-v.x, -v.y) for v in t]
            if any(
                e1[i].lattice_length != e2[match[i]].lattice_length
                or orientation * det2(d[i], d[(i + 1) % n]) != det2(t[i], t[(i + 1) % n])
                or orientation * det2(d[i - 1], d[(i + 1) % n]) != det2(t[i - 1], t[(i + 1) % n])
                for i in range(n)
            ):
                continue
            linear = solve_mat2((d[0], d[1]), (t[0], t[1]))
            if linear is None:
                continue
            assert mat_det(linear) == orientation, (p1, p2, offset)
            assert [mat_vec(linear, v) for v in d] == t, (p1, p2, offset, orientation)
            head = 1 if orientation < 0 else 0
            targets = [p2.vertices[(j + head) % n] for j in match]
            shift = vec_sub(targets[0], mat_vec(linear, p1.vertices[0]))
            transform = UnimodularAffine(linear, shift)
            assert [transform.apply(v) for v in p1.vertices] == targets, (p1, p2, offset)
            checked.append(orientation)
    return checked


def test_direction_solve_lemma_on_oracle_pairs():
    rng = Random(407)
    checked = []
    for i in range(300):
        quad = rand_quadrilateral(rng, i % 4)
        ngon = cut_corners(quad, rng, rng.randint(1, 3))
        convex = rand_convex(rng)
        pairs = [
            (quad, apply_map(quad, rand_affine(rng))),
            (ngon, apply_map(ngon, rand_affine(rng))),
            (convex, apply_map(convex, rand_affine(rng))),
            (convex, rand_convex(rng)),
            same_word_triangles(rng),
        ]
        if i % 4 == 0:
            symmetric, moved = d4_pair(rng)
            pairs += [(symmetric, moved), (symmetric, apply_map(symmetric, rand_affine(rng)))]
        for p1, p2 in pairs:
            checked += check_direction_solve(p1, p2)
    # both orientations, and the eight symmetries of each D4 pair
    assert checked.count(1) > 1000 and checked.count(-1) > 1000
    print(f"direction solve: {len(checked)} candidates, each carried every direction and vertex")


def test_classify_and_congruent_build_no_throwaway_polygons(monkeypatch):
    rng = Random(405)
    pairs = []
    for i in range(40):
        quad = rand_quadrilateral(rng, i % 4)
        pairs.append((quad, apply_map(quad, rand_affine(rng))))
        pairs.append((quad, rand_quadrilateral(rng, 2)))
        convex = rand_convex(rng)
        pairs.append((convex, apply_map(convex, rand_affine(rng))))
    # polygons built and points mapped; classify's witness is exact by its
    # lemma, so it maps no vertex to check it
    calls = []
    for cls, name in ((Polygon, "__init__"), (UnimodularAffine, "apply")):
        def counting(self, *args, method=getattr(cls, name), name=name, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counting)
    for p1, p2 in pairs:
        congruent(p1, p2)
        assert calls == []
    for quad, _ in pairs[::3]:
        classify_quadrilateral(quad)
        assert calls == []


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)


def construction(points) -> tuple:
    poly = Polygon(tuple(points))
    edges = edge_data(poly)
    assert edges is edge_data(poly), "edge data must be computed once"
    return repr(poly.vertices), poly.input_reversed, repr(edges)


def reference_construction(points) -> tuple:
    poly = ReferencePolygon(tuple(points))
    return repr(poly.vertices), poly.input_reversed, repr(reference_edge_data(poly))


def kind_of(points) -> str:
    try:
        return "clockwise" if Polygon(tuple(points)).input_reversed else "counterclockwise"
    except DelzantError as exc:
        return type(exc).__name__


def encode(points, rng: Random) -> list:
    """The same points as RatVec2 values, Fraction pairs or string pairs."""
    kind = rng.randrange(3)
    if kind == 0:
        return [RatVec2(x, y) for x, y in points]
    if kind == 1:
        return [(Fraction(x), Fraction(y)) for x, y in points]
    return [(str(x), str(y)) for x, y in points]


def coprime_points(rng: Random, count: int) -> list:
    """Points whose coordinates are fractions over distinct primes, so
    their denominators are pairwise coprime."""
    primes = rng.sample(PRIMES, 2 * count)
    return [
        (Fraction(rng.randint(1, 40 * p) * rng.choice((1, -1)), p),
         Fraction(rng.randint(1, 40 * q) * rng.choice((1, -1)), q))
        for p, q in zip(primes[::2], primes[1::2])
    ]


def constructor_inputs(rng: Random, i: int) -> list:
    """One round of raw vertex lists, valid and invalid, as (x, y) pairs."""
    cuts = rng.randint(0, 30 if i % 100 == 0 else 5)  # now and then a 30-odd-gon
    base = cut_corners(rand_quadrilateral(rng, i % 4), rng, cuts)
    transform = rand_affine(rng)  # the image runs clockwise when its det is -1
    pts = [(q.x, q.y) for q in map(transform.apply, base.vertices)]
    n = len(pts)
    out = [pts[r:] + pts[:r] for r in range(n)]  # every start rotation
    out += [pts[::-1][r:] + pts[::-1][:r] for r in range(0, n, 2)]  # clockwise

    j = rng.randrange(n)
    (ax, ay), (bx, by) = pts[j], pts[(j + 1) % n]
    t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
    on_line = (ax + t * (bx - ax), ay + t * (by - ay))
    out.append(pts[:j + 1] + [on_line] + pts[j + 1:])  # collinear with edge j
    out.append(pts[:j + 2] + [on_line] + pts[j + 2:])

    cx = sum(x for x, _ in pts) / n
    cy = sum(y for _, y in pts) / n
    out.append(pts[:j] + [(cx, cy)] + pts[j + 1:])  # a vertex pulled inward
    swapped = list(pts)
    swapped[j], swapped[(j + 1) % n] = swapped[(j + 1) % n], swapped[j]
    out.append(swapped)

    k = rng.randrange(n + 1)
    out.append(pts[:k] + [pts[rng.randrange(n)]] + pts[k:])  # a repeated vertex
    out.append(pts[:rng.randrange(3)])  # fewer than 3 vertices

    scattered = coprime_points(rng, rng.randint(3, 11))
    hull = convex_hull(scattered)
    out += [scattered, hull, hull[::-1]]
    return out


def windings(points) -> int:
    """How many times the reference polygon's edge directions enter the
    upper half-plane y > 0 (with the ray y = 0, x < 0) in one walk round
    the boundary: once for a convex polygon, 0 when the reference rejects
    the points."""
    try:
        poly = ReferencePolygon(tuple(points))
    except DelzantError:
        return 0
    directions = [e.direction for e in reference_edge_data(poly)]
    upper = [(d.y, -d.x) > (0, 0) for d in directions]
    return sum(1 for i in range(len(upper)) if upper[i] and not upper[i - 1])


def test_constructor_agrees_with_reference():
    rng = Random(505)
    results: dict[str, int] = {}
    cases = wound = 0
    for i in range(700):
        for points in constructor_inputs(rng, i):
            points = encode(points, rng)
            new = outcome(construction, points)
            expected = outcome(reference_construction, points)
            # the reference checks only the signs of the turns, so it accepts
            # stars and other boundaries that wind more than once
            if windings(points) > 1:
                assert new.startswith("NonConvexError: "), points
                wound += 1
            else:
                assert new == expected, points
            kind = kind_of(points)
            results[kind] = results.get(kind, 0) + 1
            cases += 1
    assert cases >= 10_000 and wound > 0
    # every path of the constructor is exercised: both orientations and each error
    for kind in ("clockwise", "counterclockwise", "CollinearVerticesError", "NonConvexError",
                 "RepeatedVertexError", "TooFewVerticesError"):
        assert results.get(kind, 0) >= 300, results
