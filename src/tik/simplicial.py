"""Exact membership checks for all-k-simplicial and K_{1,t}-free graphs.

A graph is all-k-simplicial when every vertex's neighborhood splits into
at most k cliques; equivalently, for each vertex the complement of the
graph induced on its neighborhood is k-colorable, which is what we decide
(delegating to the exact coloring engine).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import graphs
from .graphs import Graph


@dataclass(frozen=True)
class CliquePartitionWitness:
    """Per vertex: a partition of its neighborhood into at most k cliques."""

    parts: dict[str, tuple[tuple[str, ...], ...]]

    def validates(self, g: Graph, k: int) -> bool:
        if set(self.parts) != set(g.vertices):
            return False
        for v, partition in self.parts.items():
            if len(partition) > k:
                return False
            seen: set[str] = set()
            for part in partition:
                for u in part:
                    if u in seen:
                        return False
                    seen.add(u)
                for a, b in itertools.combinations(part, 2):
                    if not g.has_edge(a, b):
                        return False
            if seen != set(g.neighbors(v)):
                return False
        return True


def all_k_simplicial(g: Graph, k: int) -> CliquePartitionWitness | None:
    if k < 1:
        raise graphs.GraphError("k must be >= 1")
    parts = {}
    for v in sorted(g.vertices):
        nbhd = sorted(g.neighbors(v))
        local = graphs.complement(g.induced(nbhd))
        coloring = graphs.k_colorable(local, k)
        if coloring is None:
            return None
        groups: dict[int, list[str]] = {}
        for u in nbhd:
            groups.setdefault(coloring.assignment[u], []).append(u)
        parts[v] = tuple(tuple(sorted(grp)) for _, grp in sorted(groups.items()))
    return CliquePartitionWitness(parts)


def k1t_free(g: Graph, t: int) -> bool:
    """True iff no vertex has t pairwise non-adjacent neighbors
    (t = 3 is claw-free)."""
    if t < 1:
        raise graphs.GraphError("t must be >= 1")
    vs = sorted(g.vertices)
    index = {v: i for i, v in enumerate(vs)}
    nbrs = [sum(1 << index[w] for w in g.neighbors(v)) for v in vs]
    return all(graphs.independence_number_of_masks(nbrs, mask, t) < t for mask in nbrs)
