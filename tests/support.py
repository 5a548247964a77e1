"""Shared seeded generators for randomized tests, and the environment for
tests that start a child interpreter.

Every test that samples fixes its own ``random.Random`` seed so runs are
reproducible; these helpers only build values, they never assert.
"""

import math
import os
from fractions import Fraction
from pathlib import Path
from random import Random

from delzant import HirzebruchParams, IntVec2, RatVec2, UnimodularAffine


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


ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """Environment for a child interpreter that imports this checkout's ``delzant``."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
