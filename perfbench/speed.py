"""Machine-speed probe that the end-to-end timings are normalised by.

CPU speed on a shared machine drifts with the load of other tenants.
On the 2-CPU machine this benchmark was built on, the same pure-Python
loop ran up to 1.8x slower for minutes at a time, with shorter bursts
of 4x lasting about 100 ms, and every timing of the library moved with
it, so raw times from runs minutes apart could not be compared.  The
benchmark therefore runs a fixed kernel, which depends on nothing in
the repository, right after every operation, and scales each
operation's latency to the speed at which the kernel takes
``REFERENCE_NS``:

    normalised = raw * REFERENCE_NS / (median kernel time of the
                 NEIGHBOURS probes on either side of the operation)

A change to the library moves the raw and the normalised times alike.
Measured there over six 12 s quad-census runs, the spread of the median
latency fell from 40% raw to 2% normalised.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = 300_000
NEIGHBOURS = 2


def kernel():
    """Fraction arithmetic, allocation and dict work, like the library's own."""
    total = Fraction(0)
    for i in range(1, 50):
        total += Fraction(i, 7) * Fraction(3, i + 1)
    table = {}
    for i in range(50):
        table[(i, str(i))] = [i] * 3
    return total, len(table)


def probe() -> int:
    """Duration of one kernel run, in ns."""
    start = perf_counter_ns()
    kernel()
    return perf_counter_ns() - start


def normalised(latencies_ns, probes_ns) -> list[float]:
    """Latencies scaled to the reference speed.

    ``probes_ns[0]`` ran before the first operation and ``probes_ns[j + 1]``
    right after operation j.
    """
    out = []
    for j, ns in enumerate(latencies_ns):
        near = probes_ns[max(0, j + 1 - NEIGHBOURS):j + 1 + NEIGHBOURS]
        out.append(ns * REFERENCE_NS / statistics.median(near))
    return out
