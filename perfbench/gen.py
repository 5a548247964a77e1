"""Seeded input generators for the delzant benchmark.

Standard library only, and independent of the library under test: every
family is built from its defining construction, so the expected outcome
of each item is known from how it was made, not from running the code
being measured.  The same seed gives byte-identical inputs.

Families:

* standard trapezoids with random (a, b, m), m <= 8, under random
  GL2(Z) x Q^2 maps (``quad_census``);
* non-Delzant and non-convex quadrilaterals that must be rejected;
* corner-cut Delzant n-gons: a square with corners blown up one at a
  time, so every result is Delzant;
* D4-symmetric corner-cut n-gons paired with a copy whose one edge is
  moved parallel to itself (same normal cycle, never congruent);
* mirror-symmetric polygons with exactly ``TIED_LEVELS`` tied levels
  under xi = (0, 1), whose graphs have two identically labeled nodes on
  every level (the twin graph with one Z_k edge rewired is built from
  the library's graph at load time, see ``work.rewired_twin``);
* the CLI call mix (``cli_oneshot``).

Sizes are fixed here and never depend on the seed: n = 256 and ten tied
levels keep the quadratic and exponential costs of the isomorphism test
visible.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from random import Random

NGON_SIZES = (16, 64, 256)
TIED_LEVELS = 10
QUAD_POOL = 2000
NGON_ROUNDS = 30
REJECT_EVERY = 10
MAP_BOUND = 4
ENUMERATE_RATIO = 1000
FORM_AUTOS_BOUND = 10

D4 = (((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((0, 1), (-1, 0)),
      ((-1, 0), (0, 1)), ((1, 0), (0, -1)), ((0, 1), (1, 0)), ((0, -1), (-1, 0)))


# ---------------------------------------------------------------- scalars, maps


def rand_rational(rng: Random, lo: int, hi: int, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_unimodular(rng: Random, bound: int = MAP_BOUND):
    while True:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if a * d - b * c in (1, -1):
            return ((a, b), (c, d))


def rand_affine(rng: Random):
    """A random map x -> R x + v with R in GL2(Z) and v in Q^2."""
    lin = rand_unimodular(rng)
    shift = (Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
             Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
    return lin, shift


def apply_linear(lin, p):
    return (lin[0][0] * p[0] + lin[0][1] * p[1], lin[1][0] * p[0] + lin[1][1] * p[1])


def apply_affine(aff, pts):
    lin, (tx, ty) = aff
    out = []
    for p in pts:
        x, y = apply_linear(lin, p)
        out.append((x + tx, y + ty))
    return out


def dual_direction(lin, xi):
    """xi' with <R x, xi'> = <x, xi>, i.e. the inverse transpose of R applied to xi."""
    (a, b), (c, d) = lin
    det = a * d - b * c
    # inverse of R is det * adj(R) since det = +-1; xi' = inverse(R)^T xi
    return (det * (d * xi[0] - c * xi[1]), det * (-b * xi[0] + a * xi[1]))


def polygon_json(pts) -> str:
    return json.dumps({"vertices": [[str(Fraction(x)), str(Fraction(y))] for x, y in pts]})


def rand_primitive(rng: Random, bound: int = 3):
    while True:
        x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1:
            return (x, y)


# ------------------------------------------------------------ reference checks


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - a[1]) - (a[1] - o[1]) * (b[0] - a[0])


def _primitive(v):
    den = math.lcm(Fraction(v[0]).denominator, Fraction(v[1]).denominator)
    x, y = int(v[0] * den), int(v[1] * den)
    g = math.gcd(x, y)
    return (x // g, y // g)


def is_delzant_reference(pts) -> bool:
    """Delzant test of a strictly convex polygon in either orientation."""
    n = len(pts)
    dirs = [_primitive((pts[(i + 1) % n][0] - pts[i][0], pts[(i + 1) % n][1] - pts[i][1]))
            for i in range(n)]
    dets = [dirs[i][0] * dirs[(i + 1) % n][1] - dirs[i][1] * dirs[(i + 1) % n][0]
            for i in range(n)]
    return all(d == 1 for d in dets) or all(d == -1 for d in dets)


# -------------------------------------------------------- edge-list polygons


class EdgePolygon:
    """Convex lattice polygon as a start vertex plus (direction, length) edges.

    Blowing up the corner between edges i-1 and i by ``size`` shortens
    both edges and inserts an edge along the sum of their directions,
    which is how a toric blow-up acts on a Delzant polygon.
    """

    def __init__(self, start, edges):
        self.start = start
        self.edges = [list(e) for e in edges]

    def vertices(self):
        out = []
        x, y = self.start
        for (dx, dy), length in self.edges:
            out.append((x, y))
            x, y = x + length * dx, y + length * dy
        return out

    def corner_room(self, i: int):
        """Shorter of the two edge lengths meeting at vertex i."""
        return min(self.edges[i - 1][1], self.edges[i][1])

    def blow_up(self, i: int, size) -> None:
        prev, nxt = self.edges[i - 1], self.edges[i]
        assert prev[1] > size and nxt[1] > size
        direction = (prev[0][0] + nxt[0][0], prev[0][1] + nxt[0][1])
        if i == 0:
            sx, sy = self.start
            self.start = (sx + size * nxt[0][0], sy + size * nxt[0][1])
        prev[1] -= size
        nxt[1] -= size
        if i == 0:
            self.edges.append([direction, size])
        else:
            self.edges.insert(i, [direction, size])


def _square(side, centred: bool) -> EdgePolygon:
    corner = (-side, -side) if centred else (0, 0)
    length = 2 * side if centred else side
    return EdgePolygon(corner, [((1, 0), length), ((0, 1), length),
                                ((-1, 0), length), ((0, -1), length)])


def _scaled(rng: Random, pts):
    """Divide by a random denominator and translate, keeping the normals."""
    q = rng.randint(2, 12)
    tx = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
    ty = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
    return [(Fraction(x, q) + tx, Fraction(y, q) + ty) for x, y in pts]


def corner_cut_ngon(rng: Random, n: int):
    """A Delzant n-gon: a square with n - 4 random corners blown up."""
    poly = _square(64 * n, centred=False)
    while len(poly.edges) < n:
        # the roomiest of three random corners keeps edge lengths balanced
        corners = [i for i in range(len(poly.edges)) if poly.corner_room(i) >= 2]
        i = max(rng.sample(corners, min(3, len(corners))), key=poly.corner_room)
        room = poly.corner_room(i)
        poly.blow_up(i, rng.randint(max(1, room // 3), room // 2))
    return _scaled(rng, poly.vertices())


def d4_pair(rng: Random, n: int):
    """A D4-symmetric Delzant n-gon and a copy with one edge moved.

    Both share one normal cycle, whose symmetry group is all of D4, so a
    congruence search has eight normal matchings to verify in full; the
    moved edge gives the copy half-integer lattice lengths, so it is
    never congruent to the original.
    """
    side = 64 * n
    poly = _square(side, centred=True)

    def blow_up_orbit(vertex, size):
        for image in sorted({apply_linear(g, vertex) for g in D4}):
            poly.blow_up(poly.vertices().index(image), size)

    blow_up_orbit((side, side), rng.randint(side // 4, side // 2))
    while len(poly.edges) < n:
        pts = poly.vertices()
        # off every mirror line, so the orbit has eight distinct corners;
        # an edge shared by two corners of the orbit is cut from both ends
        sector = [i for i, (x, y) in enumerate(pts) if 0 < y < x and poly.corner_room(i) >= 3]
        i = max(rng.sample(sector, (len(sector) + 1) // 2), key=poly.corner_room)
        room = poly.corner_room(i)
        blow_up_orbit(pts[i], rng.randint(max(1, room // 4), (room - 1) // 2))
    pts = poly.vertices()

    edges = poly.edges
    k = len(edges)
    movable = []
    for i in range(k):
        (pd, _), (d, length), (nd, _) = edges[i - 1], edges[i], edges[(i + 1) % k]
        # for a Delzant polygon d_{i-1} + d_{i+1} = a d_i
        a = (pd[0] + nd[0]) // d[0] if d[0] else (pd[1] + nd[1]) // d[1]
        if 2 * length + a > 0:
            movable.append(i)
    i = rng.choice(movable)
    half = Fraction(1, 2)
    moved = list(pts)
    pd, nd = edges[i - 1][0], edges[(i + 1) % k][0]
    moved[i] = (pts[i][0] - half * pd[0], pts[i][1] - half * pd[1])
    j = (i + 1) % k
    moved[j] = (pts[j][0] + half * nd[0], pts[j][1] + half * nd[1])
    q = rng.randint(2, 12)
    return ([(Fraction(x, q), Fraction(y, q)) for x, y in pts],
            [(Fraction(x, q), Fraction(y, q)) for x, y in moved])


def tied_polygon(rng: Random, levels: int = TIED_LEVELS):
    """Mirror-symmetric Delzant polygon with ``levels`` tied levels under xi = (0, 1).

    Built from its right half: a chain of edges rising from the bottom
    edge to the top edge, mirrored in the vertical axis.  Every chain
    direction has positive height, so each interior chain vertex sits on
    its own level together with its mirror image, and the two carry the
    same label.  The first two blow-ups create a (1, 2) edge, so the
    graph always has a Z_2 edge to rewire.
    """
    width, height = 16 * levels, 16 * levels
    bottom, top = [width], [width]  # half-lengths of the horizontal edges
    chain = [[(0, 1), height]]

    def cut(j, size):
        if j == 0:
            bottom[0] -= size
            chain[0][1] -= size
            d = chain[0][0]
            chain.insert(0, [(1 + d[0], d[1]), size])
        elif j == len(chain):
            top[0] -= size
            chain[-1][1] -= size
            d = chain[-1][0]
            chain.append([(d[0] - 1, d[1]), size])
        else:
            chain[j - 1][1] -= size
            chain[j][1] -= size
            a, b = chain[j - 1][0], chain[j][0]
            chain.insert(j, [(a[0] + b[0], a[1] + b[1]), size])

    def room(j):
        left = bottom[0] if j == 0 else chain[j - 1][1]
        right = top[0] if j == len(chain) else chain[j][1]
        return min(left, right)

    cut(0, rng.randint(height // 4, height // 2))
    cut(1, rng.randint(room(1) // 3, room(1) // 2))
    while len(chain) < levels + 1:
        corners = [j for j in range(len(chain) + 1) if room(j) >= 2]
        j = max(rng.sample(corners, min(3, len(corners))), key=room)
        cut(j, rng.randint(max(1, room(j) // 3), room(j) // 2))

    right = [(bottom[0], 0)]
    for (dx, dy), length in chain:
        x, y = right[-1]
        right.append((x + length * dx, y + length * dy))
    left = [(-x, y) for x, y in reversed(right)]
    return _scaled(rng, right + left)


def trapezoid(a: Fraction, b: Fraction, m: int):
    half = Fraction(m, 2) * b
    return [(Fraction(0), Fraction(0)), (a + half, Fraction(0)), (a - half, b), (Fraction(0), b)]


def rand_params(rng: Random, max_m: int = 8):
    """Random canonical (a, b, m): a > (m/2) b, and a >= b when m = 0."""
    m = rng.randint(0, max_m)
    b = rand_rational(rng, 1, 4, 6)
    a = Fraction(m, 2) * b + rand_rational(rng, 1, 10, 6)
    if m == 0 and a < b:
        a, b = b, a
    return a, b, m


def tori_count(a: Fraction, b: Fraction, m: int) -> int:
    """ceil(a/b) for the sphere product, ceil(e/(l-e)) = ceil(a/b - 1/2) for the blow-up."""
    return math.ceil(a / b) if m % 2 == 0 else math.ceil(a / b - Fraction(1, 2))


def non_delzant_quad(rng: Random):
    """A convex quadrilateral with some adjacent normals not a lattice basis."""
    while True:
        lin = ((rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-3, 3), rng.randint(-3, 3)))
        det = lin[0][0] * lin[1][1] - lin[0][1] * lin[1][0]
        if det in (-3, -2, 2, 3):
            pts = [apply_linear(lin, p) for p in trapezoid(*rand_params(rng))]
            if not is_delzant_reference(pts):
                return pts


def non_convex_quad(rng: Random):
    """A dart: a triangle plus its centroid, one reflex corner."""
    while True:
        tri = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]
        if _cross(*tri) > 0:
            cx = Fraction(sum(p[0] for p in tri), 3)
            cy = Fraction(sum(p[1] for p in tri), 3)
            return tri + [(cx, cy)]


# ------------------------------------------------------------------ workloads


def quad_census(seed: int, size: int = QUAD_POOL) -> list[dict]:
    """Transformed standard trapezoids; every tenth item is a reject."""
    rng = Random(f"quad-census:{seed}")
    items = []
    for k in range(size):
        aff = rand_affine(rng)
        if k % REJECT_EVERY == REJECT_EVERY - 1:
            if rng.random() < 0.5:
                item = {"expect_error": "not_delzant", "polygon": non_delzant_quad(rng)}
            else:
                item = {"expect_error": "non_convex", "polygon": non_convex_quad(rng)}
            item["polygon"] = polygon_json(apply_affine(aff, item["polygon"]))
            items.append(item)
            continue
        a, b, m = rand_params(rng)
        pts = apply_affine(aff, trapezoid(a, b, m))
        items.append({
            "polygon": polygon_json(pts),
            "params": {"a": str(a), "b": str(b), "m": m},
            "tori": tori_count(a, b, m),
        })
    return items


def ngon_scale(seed: int, rounds: int = NGON_ROUNDS) -> list[dict]:
    """Rounds of one item per n in NGON_SIZES, in a seeded order within each round."""
    rng = Random(f"ngon-scale:{seed}")
    items = []
    for _ in range(rounds):
        sizes = list(NGON_SIZES)
        rng.shuffle(sizes)
        for n in sizes:
            pts = corner_cut_ngon(rng, n)
            aff = rand_affine(rng)
            xis = []
            while len(xis) < 3:
                xi = rand_primitive(rng)
                if xi not in xis:
                    xis.append(xi)
            sym, moved = d4_pair(rng, n)
            items.append({
                "n": n,
                "polygon": polygon_json(pts),
                "image": polygon_json(apply_affine(aff, pts)),
                "xis": xis,
                "image_xi": dual_direction(aff[0], xis[0]),
                "symmetric": polygon_json(sym),
                "moved": polygon_json(apply_affine(rand_affine(rng), moved)),
                "tied": polygon_json(tied_polygon(rng)),
            })
    return items


def cli_oneshot(seed: int) -> dict:
    """One cycle of CLI calls: every golden command plus seeded calls.

    ``argv`` entries of the form ``@name`` are input files written to the
    run's work directory and ``%name`` are files under tests/golden;
    ``stdin`` names the work-directory file fed to standard input.
    ``golden`` names the expected stdout under tests/golden; the other
    calls are checked against an in-process ``cli.run`` of the same argv.
    Error calls give the exit code and, for exit 1, the JSON error code.
    """
    rng = Random(f"cli-oneshot:{seed}")
    files = {}

    def quad():
        a, b, m = rand_params(rng)
        return apply_affine(rand_affine(rng), trapezoid(a, b, m))

    manifold = '{"type":"s2xs2","a":"5/2","b":"1"}'
    golden = {
        "verify_square.json": ["verify", "%square.json"],
        "classify_trapezoid.json": ["classify", "%trapezoid.json"],
        "standard_5o2_1_2.json": ["standard", "--a", "5/2", "--b", "1", "--m", "2"],
        "count_tori_s2xs2.txt": ["count-tori", "--manifold", manifold],
        "enumerate_tori_s2xs2.json": ["enumerate-tori", "--manifold", manifold],
        "graph_trapezoid_xi_1_0.json": ["graph", "%trapezoid.json", "--xi", "1,0"],
        "graph_trapezoid_xi_1_0.dot": ["graph", "%trapezoid.json", "--xi", "1,0", "--dot"],
        "betti_trapezoid_xi_1_0.json": ["betti", "%trapezoid.json", "--xi", "1,0"],
        "congruent_square_shear.json": ["congruent", "%square.json", "%sheared_square.json"],
        "extendable_trapezoid_xi_1_0.json": ["extendable", "%trapezoid.json", "--xi", "1,0"],
        "form_autos_hyperbolic_3.json": ["form-autos", "--form", "hyperbolic", "--bound", "3"],
    }
    calls = [{"golden": name, "argv": argv} for name, argv in golden.items()]

    files["quad.json"] = polygon_json(quad())
    files["stdin_quad.json"] = polygon_json(quad())
    ngon = corner_cut_ngon(rng, 16)
    aff = rand_affine(rng)
    files["ngon.json"] = polygon_json(ngon)
    files["ngon_image.json"] = polygon_json(apply_affine(aff, ngon))
    files["stdin_ngon.json"] = polygon_json(ngon)
    files["bad.json"] = polygon_json(non_delzant_quad(rng))
    xi = rand_primitive(rng)
    a, b, m = rand_params(rng)
    small = rand_rational(rng, 1, 4, 6)
    big = small * ENUMERATE_RATIO
    inner = rng.randint(1, 6)
    fixed = {"components": [{"type": "surface", "index": 0, "genus": 0}]
             + [{"type": "isolated", "index": 2}] * inner
             + [{"type": "isolated", "index": 4}]}
    calls += [
        {"argv": ["verify", "-"], "stdin": "stdin_quad.json"},
        {"argv": ["classify", "@quad.json"]},
        {"argv": ["standard", "--a", str(a), "--b", str(b), "--m", str(m)]},
        {"argv": ["count-tori", "--manifold",
                  json.dumps({"type": "blowup_cp2", "l": str(a + b / 2), "e": str(a - b / 2)})
                  if m % 2 else
                  json.dumps({"type": "s2xs2", "a": str(a), "b": str(b)})]},
        {"argv": ["enumerate-tori", "--manifold",
                  json.dumps({"type": "s2xs2", "a": str(big), "b": str(small)})]},
        {"argv": ["graph", "@ngon.json", f"--xi={xi[0]},{xi[1]}", "--dot"]},
        {"argv": ["graph", "-", f"--xi={xi[0]},{xi[1]}"], "stdin": "stdin_ngon.json"},
        {"argv": ["betti", "--fixed-data", json.dumps(fixed)]},
        {"argv": ["congruent", "@ngon.json", "-"], "stdin": "stdin_ngon.json"},
        {"argv": ["congruent", "@ngon.json", "@ngon_image.json"]},
        {"argv": ["extendable", "-", f"--xi={xi[0]},{xi[1]}"], "stdin": "stdin_ngon.json"},
        {"argv": ["form-autos", "--form", "blowup", "--bound", str(FORM_AUTOS_BOUND)]},
        {"argv": ["classify", "@bad.json"], "exit": 1, "error": "not_delzant"},
        {"argv": ["graph", "@ngon.json"], "exit": 2},
    ]
    return {"files": files, "calls": calls}


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs: ``items`` or ``calls``, plus ``files`` to write out."""
    if workload == "quad-census":
        return {"items": quad_census(seed)}
    if workload == "ngon-scale":
        return {"items": ngon_scale(seed)}
    if workload == "cli-oneshot":
        return cli_oneshot(seed)
    raise ValueError(f"unknown workload {workload!r}")
