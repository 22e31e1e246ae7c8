"""Constructive instance builders for the two hardness reductions, with
checkable witnesses.

* Hamiltonian cycle (3-regular triangle-free) -> balanced 2-interval
  recognition: the expanded graph plus, given a Hamiltonian cycle, an
  explicit balanced realization whose left intervals realize the cycle
  and whose right intervals realize the complementary perfect matching.
* Graph k-colorability -> all-k-simplicial recognition: complement plus
  a universal vertex, with witness maps in both directions.
"""

from __future__ import annotations

from fractions import Fraction

from . import graphs
from .gadgets import HamiltonicityInstance, hamiltonicity_expansion, k53_block
from .graphs import Coloring, Graph
from .model import Interval, Representation, q, two_interval
from .simplicial import CliquePartitionWitness

HALF = Fraction(1, 2)


class ReductionError(ValueError):
    pass


def hc_to_balanced_instance(g: Graph) -> HamiltonicityInstance:
    """The balanced-recognition reduction instance for a 3-regular
    triangle-free graph."""
    return hamiltonicity_expansion(g)


def _normalize_cycle(base: Graph, v0: str, cycle) -> list[str]:
    cycle = list(cycle)
    if sorted(cycle) != sorted(base.vertices):
        raise ReductionError("cycle must visit every base vertex exactly once")
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not base.has_edge(a, b):
            raise ReductionError(f"cycle step {a!r} -> {b!r} is not an edge")
    at = cycle.index(v0)
    return cycle[at:] + cycle[:at]


def _cycle_matching(base: Graph, cycle: list[str]) -> list[tuple[str, str]]:
    cycle_edges = {
        tuple(sorted((a, b))) for a, b in zip(cycle, cycle[1:] + cycle[:1])
    }
    rest = [e for e in base.sorted_edges() if e not in cycle_edges]
    seen: dict[str, str] = {}
    for a, b in rest:
        if a in seen or b in seen:
            raise ReductionError("non-cycle edges do not form a perfect matching")
        seen[a] = b
        seen[b] = a
    if set(seen) != set(base.vertices):
        raise ReductionError("non-cycle edges do not form a perfect matching")
    return rest


def ham_cycle_realization(inst: HamiltonicityInstance, cycle) -> Representation:
    """Balanced realization of the expanded graph from a Hamiltonian cycle
    of the base graph.

    Layout, left to right: H2 hooked to the giant dilated H1; z's first
    interval sits inside H1's covered hole; z's second interval starts at
    H1's right extremity and contains the whole M(v_0) block, v_0's first
    interval and the chain of cycle intervals; H3 (mirrored) pokes its end,
    covered by v_0's second interval; then one module per matching pair.
    Interval lengths: cycle vertices 3, v_0 83, every M block spans 79,
    z has length 163 + 2n, H1 is dilated by 165 + 2n.
    """
    base = inst.base
    v0 = inst.roles["v0"]
    n = inst.n
    cyc = _normalize_cycle(base, v0, cycle)
    matching = _cycle_matching(base, cyc)

    d = q(165 + 2 * n)
    # H1 dilated by d, with s-owned extremities on both sides
    items: dict[str, object] = k53_block("H1", 0, scale=d, left_overhang=True)
    # H2 pokes H1's left extremity
    items.update(k53_block("H2", -HALF * d - 78))

    e_end = 79 * d + q(2 * n) + Fraction(325, 2)  # right end of z's interval
    # M(v_0) sits wholly inside z's second interval
    items.update(k53_block(f"M({v0})", 79 * d + HALF))
    # H3 mirrored so its extremal s1 interval pokes z's right end
    items.update(k53_block("H3", e_end - HALF, mirror=True))

    items["z"] = two_interval(
        Interval(11 * d + 1, 12 * d - 1),
        Interval(79 * d - HALF, e_end),
    )

    # v_0: first interval pokes M(v_0):s1 and seeds the cycle chain,
    # second covers all of H3 and closes the cycle at c_n
    items[v0] = two_interval(
        Interval(79 * d + Fraction(157, 2), 79 * d + Fraction(323, 2)),
        Interval(e_end - 1, e_end + 82),
    )

    # cycle chain: length-3 intervals staggered by 2 inside z's interval
    for j, u in enumerate(cyc[1:], start=1):
        lo = 79 * d + Fraction(643, 4) + 2 * (j - 1)
        chain = Interval(lo, lo + 3)
        items[u] = chain  # paired with the matching interval below

    # matching modules: v_0's partner docks right after H3 under v_0's
    # second interval; every other pair gets its own module further right
    rights: dict[str, Interval] = {}
    m0 = next(w for e in matching for w in e if v0 in e and w != v0)
    rights[m0] = Interval(e_end + Fraction(163, 2), e_end + Fraction(169, 2))
    items.update(k53_block(f"M({m0})", e_end + 84, mirror=True))

    pos = e_end + 164
    for a, b in matching:
        if v0 in (a, b):
            continue
        items.update(k53_block(f"M({a})", pos))
        items.update(k53_block(f"M({b})", pos + 83, mirror=True))
        rights[a] = Interval(pos + 78, pos + 81)
        rights[b] = Interval(pos + Fraction(161, 2), pos + Fraction(167, 2))
        pos += 163

    for u in cyc[1:]:
        items[u] = two_interval(items[u], rights[u])

    return Representation(items)


def find_hamiltonian_cycle(g: Graph) -> list[str] | None:
    """Exhaustive search, intended as a test helper for small graphs.

    Paths grow from the least label, each step to the least unused
    neighbour first, on an explicit stack over adjacency masks (bit i is
    the i-th label in sorted order)."""
    vs = sorted(g.vertices)
    if len(vs) < 3:
        return None
    nbrs = graphs.neighbour_masks(g, vs)
    everyone = (1 << len(vs)) - 1
    path, used = [0], 1
    todo = [nbrs[0] & ~used]  # todo[i]: the untried next steps after path[i]
    while todo:
        steps = todo[-1]
        if not steps:
            todo.pop()
            used ^= 1 << path.pop()
            continue
        low = steps & -steps
        todo[-1] = steps ^ low
        w = low.bit_length() - 1
        path.append(w)
        used |= low
        if used == everyone and nbrs[w] & 1:
            return [vs[i] for i in path]
        todo.append(nbrs[w] & ~used)
    return None


# --- coloring <-> all-k-simplicial -------------------------------------------


def coloring_to_simplicial_instance(g: Graph, k: int) -> Graph:
    """Complement of g plus a universal vertex; k-colorability of g is
    equivalent to the result being all-k-simplicial."""
    if k < 1:
        raise ReductionError("k must be >= 1")
    label = graphs.fresh_label(g, "v")
    return graphs.add_universal(graphs.complement(g), label)


def universal_vertex_of(instance: Graph, g: Graph) -> str:
    extra = set(instance.vertices) - set(g.vertices)
    if len(extra) != 1:
        raise ReductionError("instance does not extend the base graph by one vertex")
    return extra.pop()


def coloring_to_partition(g: Graph, k: int, coloring: Coloring) -> CliquePartitionWitness:
    """Turn a k-coloring of g into a clique partition witness for the
    instance graph: color classes of g are cliques in its complement."""
    if not coloring.validates(g, k):
        raise ReductionError("coloring does not validate on the base graph")
    instance = coloring_to_simplicial_instance(g, k)
    u = graphs.fresh_label(g, "v")
    parts: dict[str, tuple[tuple[str, ...], ...]] = {}
    classes = [tuple(c) for c in coloring.classes() if c]
    parts[u] = tuple(classes)
    for v in g.vertices:
        nbhd = set(instance.neighbors(v))
        groups = [tuple(w for w in cls if w in nbhd) for cls in classes]
        groups = [grp for grp in groups if grp]
        # v's class, minus v itself, is still a clique; the universal vertex
        # joins whichever group keeps the count at k
        extra = (u,)
        if len(groups) < k:
            groups.append(extra)
        else:
            groups[0] = groups[0] + extra
        parts[v] = tuple(tuple(sorted(grp)) for grp in groups)
    witness = CliquePartitionWitness(parts)
    if not witness.validates(instance, k):
        raise ReductionError("constructed witness failed validation")
    return witness


def partition_to_coloring(g: Graph, k: int,
                          witness: CliquePartitionWitness) -> Coloring:
    """Read a k-coloring of g off the witness partition at the universal
    vertex: members of one clique of the complement share a color."""
    if k < 1:
        raise ReductionError("k must be >= 1")
    u = graphs.fresh_label(g, "v")  # the instance's universal vertex
    if u not in witness.parts:
        raise ReductionError("witness lacks the universal vertex")
    partition = witness.parts[u]
    if len(partition) > k:
        raise ReductionError("partition at the universal vertex uses too many parts")
    assignment: dict[str, int] = {}
    for color, part in enumerate(partition):
        for w in part:
            if w in assignment:
                raise ReductionError("partition is not a partition of V(g)")
            assignment[w] = color
    # an edge of g inside a part (a part that is no clique of the
    # instance) gives two equal colors, and a label outside V(g) or a
    # vertex of g in no part changes the keys: validates rejects both
    coloring = Coloring(assignment)
    if not coloring.validates(g, k):
        raise ReductionError("derived coloring does not validate")
    return coloring


def witness_roundtrip(g: Graph, k: int, witness):
    """Coloring -> clique partition, or clique partition -> coloring;
    both directions re-validate."""
    if isinstance(witness, Coloring):
        return coloring_to_partition(g, k, witness)
    if isinstance(witness, CliquePartitionWitness):
        return partition_to_coloring(g, k, witness)
    raise ReductionError(f"unsupported witness type {type(witness).__name__}")
