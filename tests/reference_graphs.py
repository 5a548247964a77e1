"""Reference implementations of the graph decisions, kept as test oracles.

These are the original exhaustive versions of ``check_extendable`` and of
the translated isomorphism test: every candidate level rescans every
edge, and every label-preserving node permutation is tried with the
edges compared only at the end.  They are slow (quadratic and
exponential) but obviously correct, and the agreement tests compare the
library against them on seeded random graphs.
"""

from itertools import permutations

from delzant import (
    ExtendabilityReport,
    FatVertex,
    IsolatedPoint,
    LabeledGraph,
    Violation,
    flip_graph,
)


def reference_check_extendable(g: LabeledGraph) -> ExtendabilityReport:
    violations = []
    for node in g.nodes:
        if isinstance(node, FatVertex) and node.genus > 0:
            violations.append(
                Violation(
                    "genus",
                    node.moment,
                    f"fixed surface of genus {node.genus} at moment {node.moment}",
                )
            )

    lo, hi = g.min_moment, g.max_moment
    critical = sorted(
        {n.moment for n in g.nodes}
        | {m for e in g.edges for m in e.moment_interval}
    )
    candidates = list(critical)
    for left, right in zip(critical, critical[1:]):
        candidates.append((left + right) / 2)
    isolated_moments = [n.moment for n in g.nodes if isinstance(n, IsolatedPoint)]
    for level in sorted(candidates):
        if not lo < level < hi:
            continue
        count = sum(1 for e in g.edges if e.moment_interval[0] < level < e.moment_interval[1])
        count += sum(1 for m in isolated_moments if m == level)
        if count > 2:
            violations.append(
                Violation("level", level, f"{count} non-free orbits at level {level}")
            )
    return ExtendabilityReport(not violations, tuple(violations))


def _node_label(node, base):
    if isinstance(node, IsolatedPoint):
        return ("isolated", node.moment - base, node.weights)
    return ("surface", node.moment - base, node.area, node.genus)


def reference_isomorphic_translated(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return False
    labels1 = [_node_label(n, g1.min_moment) for n in g1.nodes]
    labels2 = [_node_label(n, g2.min_moment) for n in g2.nodes]
    if sorted(labels1) != sorted(labels2):
        return False

    by_label = {}
    for i, lab in enumerate(labels1):
        by_label.setdefault(lab, ([], []))[0].append(i)
    for j, lab in enumerate(labels2):
        by_label.setdefault(lab, ([], []))[1].append(j)

    def edge_multiset(g, relabel):
        return sorted(
            (e.k, tuple(sorted((relabel(e.endpoints[0]), relabel(e.endpoints[1])))))
            for e in g.edges
        )

    target = edge_multiset(g2, lambda j: j)
    groups = list(by_label.values())

    def assign(idx, mapping):
        if idx == len(groups):
            return edge_multiset(g1, lambda i: mapping[i]) == target
        ones, twos = groups[idx]
        for perm in permutations(twos):
            for i, j in zip(ones, perm):
                mapping[i] = j
            if assign(idx + 1, mapping):
                return True
        return False

    return assign(0, {})


def reference_graphs_isomorphic(g1, g2, up_to_flip=False) -> bool:
    if reference_isomorphic_translated(g1, g2):
        return True
    return up_to_flip and reference_isomorphic_translated(g1, flip_graph(g2))
