import itertools
import random

import pytest

from conftest import nonisomorphic_graphs, random_graph
from tik import model
from tik.gadgets import hamiltonicity_expansion
from tik.graphs import (
    Coloring,
    Graph,
    complement,
    complete_bipartite,
    cycle,
    k_colorable,
    kneser,
    petersen,
    wheel,
)
from tik.model import BALANCED, intersection_graph
from tik.reductions import (
    ReductionError,
    coloring_to_simplicial_instance,
    find_hamiltonian_cycle,
    ham_cycle_realization,
    hc_to_balanced_instance,
    partition_to_coloring,
    universal_vertex_of,
    witness_roundtrip,
)
from tik.simplicial import CliquePartitionWitness, all_k_simplicial


def cube_graph() -> Graph:
    return Graph.build(
        [f"c{i}" for i in range(8)],
        [("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c0", "c3"),
         ("c4", "c5"), ("c5", "c6"), ("c6", "c7"), ("c4", "c7"),
         ("c0", "c4"), ("c1", "c5"), ("c2", "c6"), ("c3", "c7")],
    )


def prism(k: int) -> Graph:
    """C_k x K_2: cubic, triangle-free for k >= 4 and Hamiltonian."""
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    return Graph.build(a + b, [(x[i], x[(i + 1) % k]) for x in (a, b)
                               for i in range(k)] + list(zip(a, b)))


def test_hc_instance_counts():
    assert hc_to_balanced_instance(complete_bipartite(3, 3)).graph.n == 79
    assert hc_to_balanced_instance(petersen()).graph.n == 115
    with pytest.raises(Exception):
        hc_to_balanced_instance(cycle(5))


def test_find_hamiltonian_cycle():
    k33 = complete_bipartite(3, 3)
    cyc = find_hamiltonian_cycle(k33)
    assert cyc is not None and len(cyc) == 6
    assert find_hamiltonian_cycle(petersen()) is None


def recursive_hamiltonian_cycle(g: Graph) -> list[str] | None:
    """The recursive search that find_hamiltonian_cycle's explicit stack
    replaced, kept as the reference for its branch order."""
    vs = sorted(g.vertices)
    if len(vs) < 3:
        return None

    def extend(path: list[str], used: set[str]):
        if len(path) == len(vs):
            return path if g.has_edge(path[-1], vs[0]) else None
        for w in sorted(g.neighbors(path[-1])):
            if w not in used:
                got = extend(path + [w], used | {w})
                if got:
                    return got
        return None

    return extend([vs[0]], {vs[0]})


def test_find_hamiltonian_cycle_matches_the_recursive_search():
    rng = random.Random(31)
    graphs = [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
    graphs += [random_graph(rng, rng.randint(1, 11), rng.random()) for _ in range(200)]
    graphs += [cube_graph(), petersen(), complete_bipartite(3, 3), prism(5)]
    for g in graphs:
        assert find_hamiltonian_cycle(g) == recursive_hamiltonian_cycle(g), g


def test_find_hamiltonian_cycle_deep_prism():
    # 1200 vertices deep: more than the interpreter's recursion limit
    g = prism(600)
    cyc = find_hamiltonian_cycle(g)
    assert sorted(cyc) == sorted(g.vertices)
    assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))


def test_ham_cycle_realization_k33():
    k33 = complete_bipartite(3, 3)
    inst = hamiltonicity_expansion(k33)
    cyc = find_hamiltonian_cycle(k33)
    rep = ham_cycle_realization(inst, cyc)
    assert model.family_check(rep, BALANCED).ok
    assert intersection_graph(rep) == inst.graph
    assert rep["z"].left.length == 163 + 2 * inst.n == 173
    v0 = inst.roles["v0"]
    assert rep[v0].left.length == 83


def test_ham_cycle_realization_m_block_spans():
    k33 = complete_bipartite(3, 3)
    inst = hamiltonicity_expansion(k33)
    rep = ham_cycle_realization(inst, find_hamiltonian_cycle(k33))
    for u in inst.roles["base_order"]:
        points = [
            e
            for lbl in ("s1", "s2", "s3", "s4", "s5", "t1", "t2", "t3")
            for iv in rep[f"M({u}):{lbl}"].parts()
            for e in (iv.lo, iv.hi)
        ]
        assert max(points) - min(points) == 79


def test_ham_cycle_realization_cube():
    cube = cube_graph()
    inst = hamiltonicity_expansion(cube)
    rep = ham_cycle_realization(inst, find_hamiltonian_cycle(cube))
    assert model.family_check(rep, BALANCED).ok
    assert intersection_graph(rep) == inst.graph
    assert rep["z"].left.length == 163 + 2 * 7


def test_ham_cycle_realization_prism30():
    # 565 vertices: about 160,000 vertex pairs, checked by one sweep
    g = prism(30)
    inst = hamiltonicity_expansion(g)
    rep = ham_cycle_realization(inst, find_hamiltonian_cycle(g))
    assert inst.graph.n == len(rep) == 565
    assert model.family_check(rep, BALANCED).ok
    assert intersection_graph(rep) == inst.graph


def test_ham_cycle_realization_accepts_rotated_cycle():
    k33 = complete_bipartite(3, 3)
    inst = hamiltonicity_expansion(k33)
    cyc = find_hamiltonian_cycle(k33)
    rotated = cyc[2:] + cyc[:2]
    rep = ham_cycle_realization(inst, rotated)
    assert intersection_graph(rep) == inst.graph


def test_ham_cycle_realization_rejects_bad_cycles():
    k33 = complete_bipartite(3, 3)
    inst = hamiltonicity_expansion(k33)
    with pytest.raises(ReductionError):
        ham_cycle_realization(inst, ["s1", "s2", "s3", "t1", "t2", "t3"])
    with pytest.raises(ReductionError):
        ham_cycle_realization(inst, ["s1", "t1", "s2", "t2"])


def test_coloring_instance_shape():
    g = cycle(5)
    inst = coloring_to_simplicial_instance(g, 3)
    assert inst.n == 6
    u = universal_vertex_of(inst, g)
    assert inst.degree(u) == 5


def test_equivalence_examples():
    cases = [
        (cycle(5), 3, True),
        (cycle(5), 2, False),
        (complement(Graph.build(list("abcd"), [])), 3, False),  # K4
        (complement(Graph.build(list("abcd"), [])), 4, True),
    ]
    for g, k, expected in cases:
        colorable = k_colorable(g, k) is not None
        assert colorable == expected
        inst = coloring_to_simplicial_instance(g, k)
        witness = all_k_simplicial(inst, k)
        assert (witness is not None) == expected


def test_equivalence_randomized_desk_scale():
    rng = random.Random(101)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7))
        for k in (2, 3):
            colorable = k_colorable(g, k) is not None
            inst = coloring_to_simplicial_instance(g, k)
            witness = all_k_simplicial(inst, k)
            assert (witness is not None) == colorable


def test_witness_roundtrip_c5():
    g = cycle(5)
    k = 3
    coloring = k_colorable(g, k)
    partition = witness_roundtrip(g, k, coloring)
    inst = coloring_to_simplicial_instance(g, k)
    assert partition.validates(inst, k)
    back = witness_roundtrip(g, k, partition)
    assert back.validates(g, k)
    # same color classes up to renaming
    assert {frozenset(c) for c in back.classes() if c} == {
        frozenset(c) for c in coloring.classes() if c
    }


def test_partition_to_coloring_rejects_bad_parts():
    g = cycle(4)
    k = 2
    inst = coloring_to_simplicial_instance(g, k)
    u = universal_vertex_of(inst, g)
    from tik.simplicial import CliquePartitionWitness

    bad = CliquePartitionWitness({u: (("v1", "v2"), ("v3", "v4"))})
    # v1,v2 adjacent in C4, hence nonadjacent in the complement: not a clique
    with pytest.raises(ReductionError):
        partition_to_coloring(g, k, bad)


def _partition_to_coloring_reference(g, k, witness):
    """`partition_to_coloring` with the label, clique and cover checks it
    made itself before `Coloring.validates` decided them."""
    instance = coloring_to_simplicial_instance(g, k)
    u = universal_vertex_of(instance, g)
    if u not in witness.parts:
        raise ReductionError("witness lacks the universal vertex")
    partition = witness.parts[u]
    if len(partition) > k:
        raise ReductionError("partition at the universal vertex uses too many parts")
    seen = set()
    assignment = {}
    for color, part in enumerate(partition):
        for w in part:
            if w in seen or w not in set(g.vertices):
                raise ReductionError("partition is not a partition of V(g)")
            seen.add(w)
            assignment[w] = color
        for a, b in itertools.combinations(part, 2):
            if not instance.has_edge(a, b):
                raise ReductionError(f"part {part!r} is not a clique in the instance")
    if seen != set(g.vertices):
        raise ReductionError("partition does not cover V(g)")
    coloring = Coloring(assignment)
    if not coloring.validates(g, k):
        raise ReductionError("derived coloring does not validate")
    return coloring


def _random_partition(rng, g, k, u):
    """Parts at u from a proper k-coloring or a random assignment to 0 to
    k + 1 parts, then each fault with chance 1/6: a vertex repeated, an
    unknown label, u itself in a part, a vertex left out, an empty part
    added.  Returns the parts and the faults made."""
    coloring = k_colorable(g, k) if rng.random() < 0.5 else None
    if coloring is not None:
        parts = [[] for _ in range(k)]
        for v, c in coloring.assignment.items():
            parts[c].append(v)
    else:
        parts = [[] for _ in range(rng.randint(0, k + 1))]
        for v in g.vertices:
            if parts:
                rng.choice(parts).append(v)
    faults = set()
    for fault, label in (("repeat", None), ("unknown", "zz"), ("universal", u)):
        if parts and rng.random() < 1 / 6:
            rng.choice(parts).append(label or rng.choice(g.vertices))
            faults.add(fault)
    if any(parts) and rng.random() < 1 / 6:
        rng.choice([p for p in parts if p]).pop()
        faults.add("missing")
    if rng.random() < 1 / 6:
        parts.insert(rng.randint(0, len(parts)), [])
        faults.add("empty")
    for p in parts:
        rng.shuffle(p)
    return tuple(tuple(p) for p in parts), faults


def test_partition_to_coloring_matches_reference():
    # the checks Coloring.validates makes give the same answers and the
    # same coloring as the parent's own label, clique and cover checks
    rng = random.Random(3402)
    accepted = 0
    faults = {f: 0 for f in ("repeat", "unknown", "universal", "missing", "empty")}
    too_many = without_u = 0
    for _ in range(6000):
        g = random_graph(rng, rng.randint(1, 6), rng.choice([0.2, 0.4, 0.6]))
        k = rng.randint(1, 4)
        u = universal_vertex_of(coloring_to_simplicial_instance(g, k), g)
        parts, made = _random_partition(rng, g, k, u)
        for f in made:
            faults[f] += 1
        too_many += len(parts) > k
        at = u if rng.random() < 0.95 else "elsewhere"
        without_u += at != u
        witness = CliquePartitionWitness({at: parts})
        try:
            expected = _partition_to_coloring_reference(g, k, witness)
        except ReductionError:
            with pytest.raises(ReductionError):
                partition_to_coloring(g, k, witness)
            continue
        got = partition_to_coloring(g, k, witness)
        assert got == expected and list(got.assignment) == list(expected.assignment)
        accepted += 1
    assert 1000 < accepted < 5000, accepted
    assert min(faults.values()) > 500 and too_many > 500 and without_u > 100, (
        faults, too_many, without_u)


def test_partition_to_coloring_keeps_its_own_checks():
    # the universal vertex, the part count (an empty part counts) and a
    # repeated vertex are checked first; an edge inside a part, a label
    # outside V(g) and a vertex in no part fail the derived coloring
    g = Graph.build(["a0", "a1", "a2"], [("a0", "a1")])
    k = 2
    u = universal_vertex_of(coloring_to_simplicial_instance(g, k), g)
    cases = [
        ({"a0": (("a1",),)}, "witness lacks the universal vertex"),
        ({u: ((), ("a0",), ())}, "uses too many parts"),
        ({u: (("a0", "a2"), ("a1", "a2"))}, "is not a partition of V"),
        ({u: (("a0", "a1"), ("a2",))}, "derived coloring does not validate"),
        ({u: (("a0", "zz"), ("a1", "a2"))}, "derived coloring does not validate"),
        ({u: (("a0", u), ("a1", "a2"))}, "derived coloring does not validate"),
        ({u: (("a0",), ("a1",))}, "derived coloring does not validate"),
    ]
    for parts, message in cases:
        with pytest.raises(ReductionError, match=message):
            partition_to_coloring(g, k, CliquePartitionWitness(parts))
    assert partition_to_coloring(g, k, CliquePartitionWitness(
        {u: (("a0", "a2"), ("a1",))})) == Coloring({"a0": 0, "a2": 0, "a1": 1})


def test_partition_to_coloring_needs_k_at_least_1():
    # the universal vertex is named as the instance names it (v0 here, as
    # g has a v), and k < 1 still gets the instance's message
    g = Graph.build(["a0", "v"], [("a0", "v")])
    u = universal_vertex_of(coloring_to_simplicial_instance(g, 1), g)
    assert u == "v0"
    witness = CliquePartitionWitness({u: (("a0",), ("v",))})
    for k in (0, -1):
        with pytest.raises(ReductionError, match="k must be >= 1"):
            partition_to_coloring(g, k, witness)
    assert partition_to_coloring(g, 2, witness) == Coloring({"a0": 0, "v": 1})


def test_witness_roundtrip_rejects_unknown():
    with pytest.raises(ReductionError):
        witness_roundtrip(cycle(4), 2, object())


def heawood_graph() -> Graph:
    vs = [f"h{i}" for i in range(14)]
    es = [(f"h{i}", f"h{(i + 1) % 14}") for i in range(14)]
    es += [(f"h{i}", f"h{(i + 5) % 14}") for i in range(0, 14, 2)]
    return Graph.build(vs, es)


def test_ham_cycle_realization_heawood():
    g = heawood_graph()
    inst = hamiltonicity_expansion(g)
    assert inst.graph.n == 9 * 14 + 25  # 14 bases + 14 M blocks + z + 3 H blocks
    rep = ham_cycle_realization(inst, find_hamiltonian_cycle(g))
    assert model.family_check(rep, BALANCED).ok
    assert intersection_graph(rep) == inst.graph
    assert rep["z"].left.length == 163 + 2 * 13
