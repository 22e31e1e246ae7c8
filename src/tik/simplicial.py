"""Exact membership checks for all-k-simplicial and K_{1,t}-free graphs.

A graph is all-k-simplicial when every vertex's neighborhood splits into
at most k cliques; equivalently, for each vertex the complement of the
graph induced on its neighborhood is k-colorable, which is what we decide
(delegating to the exact coloring engine).
"""

from __future__ import annotations

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
        index = {v: i for i, v in enumerate(g.vertices)}
        nbrs = graphs.neighbour_masks(g, g.vertices)
        for v, partition in self.parts.items():
            if len(partition) > k:
                return False
            seen = 0  # the vertices of the parts so far, as a mask
            for part in partition:
                members = [index.get(u) for u in part]
                if None in members:
                    return False
                mask = 0  # this part's vertices
                for i in members:
                    if (seen | mask) >> i & 1:
                        return False
                    mask |= 1 << i
                seen |= mask
                # a clique: each member misses no other member
                if any(mask & ~nbrs[i] != 1 << i for i in members):
                    return False
            if seen != nbrs[index[v]]:
                return False
        return True


def all_k_simplicial(g: Graph, k: int) -> CliquePartitionWitness | None:
    if k < 1:
        raise graphs.GraphError("k must be >= 1")
    parts = {}
    for v in sorted(g.vertices):
        coloring = graphs.k_colorable(graphs.complement(g.induced(g.neighbors(v))), k)
        if coloring is None:
            return None
        parts[v] = tuple(map(tuple, coloring.classes()))
    return CliquePartitionWitness(parts)


def k1t_free(g: Graph, t: int) -> bool:
    """True iff no vertex has t pairwise non-adjacent neighbors
    (t = 3 is claw-free)."""
    if t < 1:
        raise graphs.GraphError("t must be >= 1")
    nbrs = graphs.neighbour_masks(g, sorted(g.vertices))
    return all(graphs.independence_number_of_masks(nbrs, mask, t) < t for mask in nbrs)
