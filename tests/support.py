"""Shared seeded generators for randomized tests (scalars, maps, labeled
graphs), the CLI fuzzers' inputs, a ``Fraction`` work counter, and the
environment for tests that start a child interpreter.  Standard library
and ``delzant`` only, so that ``tests/differential.py`` can use them.

Every test that samples fixes its own ``random.Random`` seed so runs are
reproducible; these helpers only build values or count, they never assert.
"""

import json
import math
import os
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from random import Random

from delzant import (
    FatVertex,
    HirzebruchParams,
    IntVec2,
    IsolatedPoint,
    LabeledGraph,
    RatVec2,
    UnimodularAffine,
    ZkEdge,
)

from reference_graphs import flip_graph


def rand_rational(rng: Random, lo: int = 1, hi: int = 20, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def rand_unimodular_linear(rng: Random, bound: int = 10):
    while True:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if a * d - b * c in (1, -1):
            return ((a, b), (c, d))


def rand_affine(rng: Random, bound: int = 10) -> UnimodularAffine:
    tx = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    ty = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    return UnimodularAffine(rand_unimodular_linear(rng, bound), RatVec2(tx, ty))


def rand_params(rng: Random, max_m: int = 8) -> HirzebruchParams:
    """Random canonical trapezoid parameters (a >= b enforced at m = 0)."""
    m = rng.randint(0, max_m)
    b = rand_rational(rng, 1, 4, 6)
    slack = rand_rational(rng, 1, 10, 6)
    a = Fraction(m, 2) * b + slack
    if m == 0 and a < b:
        a, b = b, a
    return HirzebruchParams(a, b, m)


def primitive_directions(bound: int = 3) -> list[IntVec2]:
    """All primitive integer vectors with entries in [-bound, bound]."""
    return [IntVec2(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)
            if math.gcd(x, y) == 1]


WEIGHT_POOL = ((1, 1), (-1, 1), (-1, 2), (-2, 1), (-1, -1))


def random_graph(rng: Random, discrete: bool = False) -> LabeledGraph:
    """Small labeled graph with crowded levels, tied labels, positive genus
    and Z_k edges sharing endpoints; nodes are stored in random order.
    With ``discrete``, a node equal to one already on its level is left
    out, so that every node label differs."""
    moments = sorted({Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                      for _ in range(rng.randint(1, 6))})
    nodes = []
    for r, moment in enumerate(moments):
        crowd = 1 if r in (0, len(moments) - 1) else rng.choice((1, 2, 3, 3, 4))
        level = len(nodes)
        for _ in range(crowd):
            if rng.random() < 0.75:
                node = IsolatedPoint(moment, rng.choice(WEIGHT_POOL))
            else:
                node = FatVertex(moment, rng.choice((1, 2, Fraction(1, 2))),
                                 rng.choice((0, 0, 1, 2)))
            if not (discrete and node in nodes[level:]):
                nodes.append(node)
    rng.shuffle(nodes)
    # edges drawn from a few hub nodes, so endpoints are often shared
    hubs = rng.sample(range(len(nodes)), min(len(nodes), rng.randint(2, 5)))
    edges = []
    for _ in range(rng.randint(0, 2 * len(nodes))):
        i, j = rng.choice(hubs), rng.randrange(len(nodes))
        if nodes[i].moment == nodes[j].moment:
            continue
        if nodes[i].moment > nodes[j].moment:
            i, j = j, i
        edges.append(ZkEdge(rng.choice((2, 2, 3)), (i, j), (nodes[i].moment, nodes[j].moment)))
    return LabeledGraph(tuple(nodes), tuple(edges))


def _shifted(node, shift):
    if isinstance(node, IsolatedPoint):
        return IsolatedPoint(node.moment + shift, node.weights)
    return FatVertex(node.moment + shift, node.area, node.genus)


def permuted(rng: Random, g: LabeledGraph, shift: Fraction = Fraction(0)) -> LabeledGraph:
    """``g`` with nodes permuted, moments translated by ``shift`` and edges shuffled."""
    perm = list(range(len(g.nodes)))
    rng.shuffle(perm)
    nodes = [None] * len(g.nodes)
    for i, node in enumerate(g.nodes):
        nodes[perm[i]] = _shifted(node, shift)
    edges = [ZkEdge(e.k, (perm[e.endpoints[0]], perm[e.endpoints[1]]),
                    (e.moment_interval[0] + shift, e.moment_interval[1] + shift))
             for e in g.edges]
    rng.shuffle(edges)
    return LabeledGraph(tuple(nodes), tuple(edges))


def relabelled(rng: Random, g: LabeledGraph) -> LabeledGraph:
    """``g`` permuted and translated, then sometimes perturbed (an edge end
    moved to a tied node, an order k changed, a weight changed) and
    sometimes flipped."""
    h = permuted(rng, g, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    nodes, edges, n = list(h.nodes), list(h.edges), len(h.nodes)
    change = rng.random()
    if edges and change < 0.3:
        idx, end = rng.randrange(len(edges)), rng.randrange(2)
        e = edges[idx]
        ties = [j for j, node in enumerate(nodes)
                if node.moment == nodes[e.endpoints[end]].moment and j != e.endpoints[end]]
        if ties:
            ends = list(e.endpoints)
            ends[end] = rng.choice(ties)
            edges[idx] = ZkEdge(e.k, tuple(ends), e.moment_interval)
    elif edges and change < 0.4:
        idx = rng.randrange(len(edges))
        e = edges[idx]
        edges[idx] = ZkEdge(5 - e.k if e.k in (2, 3) else 2, e.endpoints, e.moment_interval)
    elif change < 0.5:
        i = rng.randrange(n)
        if isinstance(nodes[i], IsolatedPoint):
            nodes[i] = IsolatedPoint(nodes[i].moment, rng.choice(WEIGHT_POOL))
    h = LabeledGraph(tuple(nodes), tuple(edges))
    return flip_graph(h) if rng.random() < 0.3 else h


def mixed_denominator_cases(rng: Random, g: LabeledGraph):
    """``g`` translated by +-k/p, for a prime p dividing no moment
    denominator of ``g``; the flip of that translate; and, when the
    translate has an edge end with a twin (an equal node), the translate
    with that end moved to the twin: its node labels match, its edges may
    not."""
    p = rng.choice([p for p in (5, 7, 11, 13) if all(n.moment.denominator % p for n in g.nodes)])
    h = permuted(rng, g, Fraction(rng.choice((-1, 1)) * rng.randrange(1, p), p))
    yield "translate", h
    yield "flip", flip_graph(h)
    for idx, e in enumerate(h.edges):
        for end, i in enumerate(e.endpoints):
            twins = [j for j, node in enumerate(h.nodes) if node == h.nodes[i] and j != i]
            if twins:
                ends = list(e.endpoints)
                ends[end] = rng.choice(twins)
                edges = list(h.edges)
                edges[idx] = ZkEdge(e.k, tuple(ends), e.moment_interval)
                yield "twin", LabeledGraph(h.nodes, tuple(edges))
                return


def bipartite_graph(matchings, orders) -> LabeledGraph:
    """Two levels of tied points between a minimum and a maximum; for each
    permutation ``m`` in ``matchings``, with its order k from ``orders``,
    a Z_k edge joins lower point t to upper point m[t]."""
    width = len(matchings[0])
    nodes = [IsolatedPoint(0, (1, 1))]
    nodes += [IsolatedPoint(level, (-1, 1)) for level in (1, 2) for _ in range(width)]
    nodes.append(IsolatedPoint(3, (-1, -1)))
    return LabeledGraph(tuple(nodes), tuple(
        ZkEdge(k, (1 + t, 1 + width + m[t]), (1, 2))
        for m, k in zip(matchings, orders) for t in range(width)))


def random_matchings(rng: Random, width: int, simple: bool) -> list[list[int]]:
    """Three random permutations of ``width``; with ``simple``, no two of
    them agree anywhere, so their union is a simple cubic graph."""
    while True:
        matchings = [rng.sample(range(width), width) for _ in range(3)]
        if not simple or all(len(set(ends)) == 3 for ends in zip(*matchings)):
            return matchings


def tied_bipartite_pairs(rng: Random, count: int):
    """``count`` cubic multigraphs between two levels of four tied points,
    each against a permuted copy, a copy with two edge ends swapped (still
    cubic, so refinement still ties every level) or another random graph,
    each sometimes flipped."""
    for _ in range(count):
        matchings, orders = random_matchings(rng, 4, simple=False), rng.choices((2, 3), k=3)
        g = bipartite_graph(matchings, orders)
        change = rng.random()
        if change < 0.4:
            h = permuted(rng, g)
        elif change < 0.7:
            m = rng.choice(matchings)
            s, t = rng.sample(range(4), 2)
            m[s], m[t] = m[t], m[s]
            h = permuted(rng, bipartite_graph(matchings, orders))
        else:
            h = bipartite_graph(random_matchings(rng, 4, simple=False), orders)
        yield g, flip_graph(h) if rng.random() < 0.3 else h


@contextmanager
def fraction_counts():
    """Counts of the ``Fraction``s built ("new") and hashed ("hash") inside the block."""
    counts = {"new": 0, "hash": 0}
    new, hash_ = Fraction.__dict__["__new__"], Fraction.__dict__["__hash__"]

    def counted_new(cls, *args, **kwargs):
        counts["new"] += 1
        return new.__func__(cls, *args, **kwargs)

    def counted_hash(self):
        counts["hash"] += 1
        return hash_(self)

    Fraction.__new__, Fraction.__hash__ = staticmethod(counted_new), counted_hash
    try:
        yield counts
    finally:
        Fraction.__new__, Fraction.__hash__ = new, hash_


# The CLI fuzzers' inputs, which the differential's cli corpus draws from too.

# an integer literal of more digits than json.loads will read
LONG_INT = "1" * 4400
HUGE = "7" * 4000

POLYGONS = [
    {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
    {"vertices": [["0", "0"], ["7/2", "0"], ["3/2", "1"], ["0", "1"]]},
    {"vertices": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "1"]]},  # not Delzant
    {"vertices": [["0", "0"], ["2", "0"], ["0", "2"]]},
    {"vertices": [["0", "0"], ["1", "0"], ["2", "1"], ["2", "2"], ["1", "2"], ["0", "1"]]},
]
MANIFOLDS = [
    {"type": "s2xs2", "a": "5/2", "b": "1"},
    {"type": "blowup_cp2", "l": "3", "e": "2"},
]
FIXED_DATA = [
    {"components": [{"type": "surface", "index": 0, "genus": 1},
                    {"type": "surface", "index": 2, "genus": 1}]},
    {"components": [{"type": "isolated", "index": i} for i in (0, 2, 2, 4)]},
]

# the files that "@name" arguments name, besides "@directory" and "@missing"
ARGV_FILES = {
    "square": json.dumps(POLYGONS[0]).encode(), "trapezoid": json.dumps(POLYGONS[1]).encode(),
    "not-delzant": json.dumps(POLYGONS[2]).encode(),
    "triangle": json.dumps(POLYGONS[3]).encode(), "hexagon": json.dumps(POLYGONS[4]).encode(),
    "bad-utf8": b'{"vertices": "\xff"}', "empty": b"",
}


def write_argv_files(folder: Path) -> None:
    """Write ``ARGV_FILES`` into ``folder``, with an empty "directory"."""
    for name, data in ARGV_FILES.items():
        (folder / name).write_bytes(data)
    (folder / "directory").mkdir()


# per kind of argument: valid values, then odd ones; each is drawn half the time
VALUES = {
    "path": (["@square", "@trapezoid", "@hexagon", "-"],
             ["@not-delzant", "@triangle", "@bad-utf8", "@empty", "@directory", "@missing",
              "a\x00b", ""]),
    "rational": (["1", "5/2", "7/3"],
                 ["0", "-1", "-7/3", "1/0", "0/5", "", "x", " 1", "2.5", "1e3", "0x10", "\u0661",
                  "1_0", HUGE, "-" + HUGE, "1/" + HUGE, LONG_INT]),
    "integer": (["0", "1", "2"],
                ["-1", "", "1.5", "0x10", "+3", " 3", "1_0", "\u0661", "9" * 30, HUGE, LONG_INT]),
    "xi": (["1,0", "0,1", "1,1", "-1,2"],
           ["0,0", "2,0", "1", "1,0,0", "", ",", "a,b", "1/2,1", " 1,0", HUGE + ",1",
            "1," + LONG_INT]),
    "manifold": ([json.dumps(m) for m in MANIFOLDS], [
        "", "{", "null", "[]", "\x00", '{"type": "x"}', '{"type": "s2xs2", "a": "1"}',
        '{"type": "s2xs2", "a": "5", "b": "9999999999"}',  # 2 * 10^9 tori
        '{"type": "s2xs2", "a": "' + HUGE + '", "b": "1"}',
        '{"type": "blowup_cp2", "l": "3", "e": "3"}', '{"type": "blowup_cp2", "l": "2", "e": "3"}',
        '{"type": "s2xs2", "a": "2", "b": ' + LONG_INT + "}",
    ]),
    "fixed": ([json.dumps(f) for f in FIXED_DATA], [
        "", "{}", "[]", '{"components": []}', '{"components": [{"type": "isolated", "index": 3}]}',
        '{"components": [{"type": "surface", "index": 0, "genus": ' + LONG_INT + "}]}",
    ]),
    "form": (["hyperbolic", "blowup"], ["x", ""]),
}
STDINS = [json.dumps(p).encode() for p in POLYGONS] + [b"", b"\xff\xfe{", b"[" * 50_000]
SHAPES = {
    "verify": [("path", None)],
    "classify": [("path", None)],
    "standard": [("rational", "--a"), ("rational", "--b"), ("integer", "--m")],
    "count-tori": [("manifold", "--manifold")],
    "enumerate-tori": [("manifold", "--manifold")],
    "graph": [("path", None), ("xi", "--xi"), ("flag", "--dot")],
    "betti": [("path", None), ("xi", "--xi"), ("fixed", "--fixed-data")],
    "congruent": [("path", None), ("path", None)],
    "extendable": [("path", None), ("xi", "--xi")],
    "form-autos": [("form", "--form"), ("integer", "--bound")],
}


ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """Environment for a child interpreter that imports this checkout's ``delzant``."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
