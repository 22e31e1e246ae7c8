import random

import pytest

from conftest import nonisomorphic_graphs, random_graph
from tik.gadgets import hamiltonicity_expansion
from tik.graphs import (
    Graph,
    GraphError,
    add_universal,
    complement,
    complete_bipartite,
    cycle,
    k_colorable,
    kneser,
    line_graph,
    petersen,
    wheel,
)
from tik.model import intersection_graph
from tik.reductions import find_hamiltonian_cycle, ham_cycle_realization
from tik.simplicial import CliquePartitionWitness, all_k_simplicial, k1t_free


def test_wheel_not_3_simplicial():
    assert all_k_simplicial(wheel(7), 3) is None
    got = all_k_simplicial(wheel(7), 4)
    assert got is not None and got.validates(wheel(7), 4)


def test_line_graph_of_petersen_is_quasi_line():
    g = line_graph(petersen())
    got = all_k_simplicial(g, 2)
    assert got is not None and got.validates(g, 2)


def test_complete_graph_is_all_1_simplicial():
    from tik.graphs import Graph

    kn = Graph.build(list("abcd"), [(a, b) for a in "abcd" for b in "abcd" if a < b])
    got = all_k_simplicial(kn, 1)
    assert got is not None and got.validates(kn, 1)


def test_kneser_complement_universal_not_all4():
    g = add_universal(complement(kneser(7, 2)), "v")
    assert all_k_simplicial(g, 4) is None
    got = all_k_simplicial(g, 5)
    assert got is not None and got.validates(g, 5)


def test_kneser_complement_universal_has_claw():
    # the three pairwise-disjoint pairs {1,2},{3,4},{5,6} form a triangle in
    # KG(7,2), hence an independent triple in the universal vertex's
    # neighborhood of the complement construction
    g = add_universal(complement(kneser(7, 2)), "v")
    assert not k1t_free(g, 3)


def test_k1t_free_examples():
    assert k1t_free(wheel(7), 5)       # W_7 has no K_{1,5}
    assert not k1t_free(wheel(7), 3)   # rim vertices center claws
    claw = complete_bipartite(1, 3)
    assert not k1t_free(claw, 3)
    assert k1t_free(claw, 4)
    with pytest.raises(GraphError):
        k1t_free(claw, 0)


def test_wheel_separation_family():
    for k in (3, 4, 5):
        w = wheel(2 * k + 1)
        assert k1t_free(w, k + 1)
        assert all_k_simplicial(w, k) is None


def test_hierarchy_simplicial_implies_k1t_free():
    rng = random.Random(83)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 10))
        for k in (2, 3, 4):
            witness = all_k_simplicial(g, k)
            if witness is not None:
                assert witness.validates(g, k)
                assert k1t_free(g, k + 1)


def test_line_graphs_are_quasi_line():
    rng = random.Random(89)
    for _ in range(100):
        h = random_graph(rng, rng.randint(1, 8))
        g = line_graph(h)
        if g.n == 0:
            continue
        witness = all_k_simplicial(g, 2)
        assert witness is not None and witness.validates(g, 2)


def test_monotonicity_in_k():
    rng = random.Random(91)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8))
        for k in (1, 2, 3):
            if all_k_simplicial(g, k) is not None:
                assert all_k_simplicial(g, k + 1) is not None


def test_witness_rejects_bad_partition():
    g = cycle(4)
    bad = CliquePartitionWitness({
        v: ((tuple(sorted(g.neighbors(v))),)) for v in g.vertices
    })
    # opposite rim vertices are not adjacent, so a single part is not a clique
    assert not bad.validates(g, 2)


def _all_k_simplicial_regrouping(g: Graph, k: int) -> CliquePartitionWitness | None:
    """all_k_simplicial with each vertex's parts regrouped from the
    coloring's assignment over its sorted neighbourhood, kept as the
    reference for the parts read off `Coloring.classes`."""
    if k < 1:
        raise GraphError("k must be >= 1")
    parts = {}
    for v in sorted(g.vertices):
        nbhd = sorted(g.neighbors(v))
        local = complement(g.induced(nbhd))
        coloring = k_colorable(local, k)
        if coloring is None:
            return None
        groups: dict[int, list[str]] = {}
        for u in nbhd:
            groups.setdefault(coloring.assignment[u], []).append(u)
        parts[v] = tuple(tuple(sorted(grp)) for _, grp in sorted(groups.items()))
    return CliquePartitionWitness(parts)


def _prism30_witness_graph() -> Graph:
    # the intersection graph of the balanced realization of prism(30)'s
    # Hamiltonicity expansion, 565 vertices
    a = [f"a{i}" for i in range(30)]
    b = [f"b{i}" for i in range(30)]
    prism = Graph.build(a + b, [(x[i], x[(i + 1) % 30]) for x in (a, b)
                                for i in range(30)] + list(zip(a, b)))
    rep = ham_cycle_realization(hamiltonicity_expansion(prism), find_hamiltonian_cycle(prism))
    return intersection_graph(rep)


def test_all_k_simplicial_parts_are_the_coloring_classes():
    graphs = [Graph.build([], [])] + [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
    graphs += [wheel(n) for n in range(5, 12)] + [_prism30_witness_graph()]
    found = 0
    for g in graphs:
        for k in range(1, 5):
            got, expected = all_k_simplicial(g, k), _all_k_simplicial_regrouping(g, k)
            assert got == expected, (g, k)
            assert got is None or list(got.parts) == list(expected.parts)
            found += got is not None
    assert 0 < found < 4 * len(graphs)
