import itertools
import math
import random

import pytest

from conftest import brute_force_colorable, nonisomorphic_graphs, random_graph
from tik.graphs import (
    Coloring,
    Graph,
    GraphError,
    add_universal,
    clique_number,
    complement,
    complete_bipartite,
    cycle,
    domino,
    from_edge_list,
    independence_number_of_masks,
    is_triangle_free_3regular,
    k_colorable,
    kneser,
    line_graph,
    neighbour_masks,
    path,
    petersen,
    to_edge_list,
    wheel,
)


def test_from_edge_list_basic():
    g = from_edge_list("a b\nb c")
    assert g.n == 3 and len(g.edges) == 2


def test_from_edge_list_empty():
    g = from_edge_list("")
    assert g.n == 0 and len(g.edges) == 0


def test_from_edge_list_self_loop():
    with pytest.raises(GraphError, match="line 1"):
        from_edge_list("a a")


def test_from_edge_list_isolated_and_comments():
    g = from_edge_list("# header\nx\na b\n\nb c")
    assert g.n == 4
    assert g.degree("x") == 0


def test_from_edge_list_malformed():
    with pytest.raises(GraphError, match="line 2"):
        from_edge_list("a b\na b c")


def test_edge_list_roundtrip():
    g = from_edge_list("a b\nb c\nq")
    assert from_edge_list(to_edge_list(g)) == g


def test_complete_bipartite_counts():
    assert complete_bipartite(5, 3).n == 8
    assert len(complete_bipartite(5, 3).edges) == 15
    assert len(complete_bipartite(2, 3).edges) == 6
    assert len(complete_bipartite(1, 1).edges) == 1
    with pytest.raises(GraphError):
        complete_bipartite(0, 3)


def test_named_graphs():
    d = domino()
    assert d.n == 6 and len(d.edges) == 7
    w = wheel(7)
    assert w.n == 8 and len(w.edges) == 14
    c4 = cycle(4)
    assert c4.n == 4 and len(c4.edges) == 4
    assert all(c4.degree(v) == 2 for v in c4.vertices)
    assert path(1).n == 1
    with pytest.raises(GraphError):
        cycle(2)
    with pytest.raises(GraphError):
        wheel(2)


def test_kneser_counts():
    kg = kneser(7, 2)
    assert kg.n == 21
    assert len(kg.edges) == 105
    p = kneser(5, 2)
    assert p.n == 10 and len(p.edges) == 15
    with pytest.raises(GraphError):
        kneser(3, 2)


def test_kneser_regularity():
    for n, k in [(5, 2), (6, 2), (7, 2), (6, 3)]:
        g = kneser(n, k)
        assert g.n == math.comb(n, k)
        expected_degree = math.comb(n - k, k)
        assert all(g.degree(v) == expected_degree for v in g.vertices)


def test_kneser_7_2_has_triangles():
    # {1,2},{3,4},{5,6} are pairwise disjoint, hence a triangle
    kg = kneser(7, 2)
    assert kg.has_edge("{1,2}", "{3,4}")
    assert kg.has_edge("{1,2}", "{5,6}")
    assert kg.has_edge("{3,4}", "{5,6}")


def test_line_graph_examples():
    lg = line_graph(path(3))
    assert lg.n == 2 and len(lg.edges) == 1
    claw = complete_bipartite(1, 3)
    assert len(line_graph(claw).edges) == 3  # triangle
    lg5 = line_graph(cycle(5))
    assert lg5.n == 5 and len(lg5.edges) == 5
    assert all(lg5.degree(v) == 2 for v in lg5.vertices)


def test_line_graph_edge_count_property():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        lg = line_graph(g)
        expected = sum(
            math.comb(g.degree(v), 2) for v in g.vertices
        )
        assert len(lg.edges) == expected


def test_complement_involution():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 8))
        assert complement(complement(g)) == g
    assert len(complement(cycle(3)).edges) == 0


def test_add_universal():
    assert add_universal(cycle(4), "v") == wheel(4)
    with pytest.raises(GraphError):
        add_universal(cycle(4), "v1")


def test_k_colorable_examples():
    assert k_colorable(cycle(5), 2) is None
    got = k_colorable(cycle(5), 3)
    assert got is not None and got.validates(cycle(5), 3)
    assert k_colorable(kneser(7, 2), 4) is None
    got = k_colorable(kneser(7, 2), 5)
    assert got is not None and got.validates(kneser(7, 2), 5)


def test_k_colorable_edge_cases():
    empty = Graph.build([], [])
    assert k_colorable(empty, 0) is not None
    lone = Graph.build(["a"], [])
    assert k_colorable(lone, 0) is None
    assert k_colorable(lone, 1) is not None


def _k_colorable_with_early_returns(g: Graph, k: int) -> Coloring | None:
    """k_colorable with the empty-graph and k = 0 returns it once made
    before its search loop, kept as the reference for the loop alone."""
    if k < 0:
        raise GraphError("k must be >= 0")
    vs = list(g.vertices)
    if not vs:
        return Coloring({})
    if k == 0:
        return None
    nbrs = neighbour_masks(g, vs)
    classes = [0] * k
    colors: list[int] = []
    used = [0]
    c = 0
    while len(colors) < len(vs):
        i = len(colors)
        limit = min(k, used[i] + 1)
        while c < limit and classes[c] & nbrs[i]:
            c += 1
        if c < limit:
            colors.append(c)
            classes[c] |= 1 << i
            used.append(max(used[i], c + 1))
            c = 0
        elif colors:
            c = colors.pop()
            classes[c] ^= 1 << (i - 1)
            used.pop()
            c += 1
        else:
            return None
    return Coloring(dict(zip(vs, colors)))


def test_k_colorable_needs_no_early_returns():
    graphs = [Graph.build([], [])] + [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
    colored = 0
    for g in graphs:
        for k in range(5):
            got, expected = k_colorable(g, k), _k_colorable_with_early_returns(g, k)
            assert got == expected, (g, k)
            assert got is None or list(got.assignment) == list(expected.assignment)
            colored += got is not None
    assert 0 < colored < 5 * len(graphs)


def test_k_colorable_against_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8))
        for k in (1, 2, 3):
            got = k_colorable(g, k)
            expected = brute_force_colorable(g, k)
            assert (got is not None) == expected
            if got is not None:
                assert got.validates(g, k)


def recursive_k_colorable(g: Graph, k: int) -> Coloring | None:
    """The recursive solver that k_colorable's explicit stack replaced,
    kept as the reference for its branch order."""
    vs = list(g.vertices)
    if not vs:
        return Coloring({})
    if k == 0:
        return None
    index = {v: i for i, v in enumerate(vs)}
    earlier = [[index[w] for w in g.neighbors(v) if index[w] < index[v]] for v in vs]
    colors = [-1] * len(vs)

    def extend(i: int, used: int) -> bool:
        if i == len(vs):
            return True
        forbidden = {colors[j] for j in earlier[i]}
        for c in range(min(k, used + 1)):
            if c not in forbidden:
                colors[i] = c
                if extend(i + 1, max(used, c + 1)):
                    return True
        colors[i] = -1
        return False

    return Coloring(dict(zip(vs, colors))) if extend(0, 0) else None


def test_k_colorable_matches_the_recursive_solver():
    # the same first coloring: vertices in declaration order, colors ascending
    rng = random.Random(29)
    graphs = [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
    graphs += [random_graph(rng, rng.randint(1, 11), rng.random()) for _ in range(200)]
    for g in graphs:
        for k in range(6):
            got, expected = k_colorable(g, k), recursive_k_colorable(g, k)
            assert (got is None) == (expected is None), (g, k)
            assert got is None or got.assignment == expected.assignment, (g, k)


def test_k_colorable_deep_path():
    # 3000 vertices deep: more than the interpreter's recursion limit
    got = k_colorable(path(3000), 2)
    assert got is not None and got.validates(path(3000), 2)
    assert k_colorable(cycle(3001), 2) is None


def test_clique_number_examples():
    assert clique_number(Graph.build([], [])) == 0
    assert clique_number(Graph.build(["a", "b"], [])) == 1
    assert clique_number(complete_bipartite(5, 3)) == 2
    assert clique_number(wheel(5)) == 3
    assert clique_number(kneser(7, 2)) == 3
    assert clique_number(complement(Graph.build([f"v{i}" for i in range(7)], []))) == 7
    assert clique_number(path(600)) == 2


def test_clique_number_against_brute_force():
    from conftest import nonisomorphic_graphs

    graphs = [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
    assert len(graphs) == 208
    for g in graphs:
        expected = max(
            k
            for k in range(1, g.n + 1)
            for vs in itertools.combinations(g.vertices, k)
            if all(g.has_edge(a, b) for a, b in itertools.combinations(vs, 2))
        )
        assert clique_number(g) == expected, g
        # the cliques of g are the independent sets of its complement
        index = {v: i for i, v in enumerate(g.vertices)}
        co = complement(g)
        nbrs = [sum(1 << index[w] for w in co.neighbors(v)) for v in g.vertices]
        assert neighbour_masks(co, g.vertices) == nbrs
        # sorted order, over a copy whose declaration order is not sorted
        rev = Graph.build(g.vertices[::-1], co.edges)
        assert neighbour_masks(rev, sorted(rev.vertices)) == nbrs
        assert neighbour_masks(rev, rev.vertices) == [
            sum(1 << g.n - 1 - index[w] for w in co.neighbors(v)) for v in rev.vertices
        ]
        for cap in range(1, g.n + 2):
            got = independence_number_of_masks(nbrs, (1 << g.n) - 1, cap)
            assert got == min(expected, cap), (g, cap)


def test_is_triangle_free_3regular():
    assert is_triangle_free_3regular(complete_bipartite(3, 3))
    assert is_triangle_free_3regular(petersen())
    k4 = complement(Graph.build(["a", "b", "c", "d"], []))
    assert not is_triangle_free_3regular(k4)
    assert not is_triangle_free_3regular(cycle(5))


@pytest.mark.parametrize("vertices, edges, message", [
    (("a", "b", "a"), [], "duplicate vertex label 'a'"),
    (("a", "b"), [("a", "a")], "self-loop at 'a'"),
    (("a", "b"), [("b", "a")], "edge ('b', 'a') not in canonical order"),
    (("a", "b"), [("a", "c")], "edge ('a', 'c') mentions undeclared vertex"),
], ids=["duplicate", "self-loop", "non-canonical", "undeclared"])
def test_graph_construction_errors(vertices, edges, message):
    # construction validates, although it builds no adjacency
    with pytest.raises(GraphError) as info:
        Graph(vertices, frozenset(edges))
    assert str(info.value) == message


def test_adjacency_on_first_use_matches_eager_reference():
    import copy
    import pickle

    rng = random.Random(3204)
    cases = [Graph((), frozenset()), Graph.build(["x"], [])]
    cases += [random_graph(rng, rng.randint(1, 12), rng.random()) for _ in range(80)]
    for g in cases:
        reference = {v: set() for v in g.vertices}
        for u, v in g.edges:
            reference[u].add(v)
            reference[v].add(u)
        fresh = [g, copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))]
        assert all(twin._adj is None for twin in fresh)  # nothing built yet
        queried = [copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))]
        for twin in fresh + queried:
            assert twin == g and hash(twin) == hash(g)
            for u in g.vertices:
                assert twin.neighbors(u) == frozenset(reference[u])
                assert twin.degree(u) == len(reference[u])
                for v in g.vertices:
                    assert twin.has_edge(u, v) == (v in reference[u])
            with pytest.raises(KeyError):
                twin.neighbors("absent")
            assert twin._adj is not None  # built once, then kept
        assert hash(g) == hash((frozenset(g.vertices), g.edges))
        assert Graph(tuple(reversed(g.vertices)), g.edges) == g
        assert repr(g) == f"Graph(vertices={g.vertices!r}, edges={g.edges!r})"


def test_graph_equality_is_labeled():
    g1 = from_edge_list("a b")
    g2 = from_edge_list("b a")
    g3 = from_edge_list("a c")
    assert g1 == g2
    assert g1 != g3
