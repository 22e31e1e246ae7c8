"""True twins: `recognize` searches the quotient by true twins (u != v
with N[u] = N[v]) and copies its certificate back.  Every family is
hereditary and lets a vertex copy a twin's pieces or arc, so the quotient
is a member iff g is (design notes: "True twins").  These tests compare
that with the search of g itself."""

import random

import pytest

from conftest import assert_member_sound, nonisomorphic_graphs, random_graph
from tik import graphs
from tik.graphs import Graph, complement, domino, path
from tik.model import (
    BALANCED,
    CIRCULAR_ARC,
    INTERVAL_CLASS,
    TWO_INTERVAL,
    UNIT,
    UNIT_INTERVAL,
    XX,
)
from tik.recognize import Budget, _Counter, _engine, _masks, _run, recognize

FAMILIES = (XX(1), XX(2), UNIT, BALANCED, TWO_INTERVAL,
            UNIT_INTERVAL, INTERVAL_CLASS, CIRCULAR_ARC)


def _uncontracted(g, family, budget):
    # the engine on g itself: no contraction and no universal peel
    found, exhausted = _run(_engine(*_masks(g), family, _Counter(budget.max_nodes)))
    if found is not None:
        return "member"
    return "nonmember" if exhausted else "inconclusive"


def _quotient(g):
    # the least label of each class of equal closed neighbourhoods
    closed = {v: g.neighbors(v) | {v} for v in g.vertices}
    return g.induced({min(w for w in closed if closed[w] == closed[v]) for v in closed})


def _blow_up(g, sizes):
    # g with vertex v replaced by a clique of sizes[v] true twins v, v_1, ...
    labels = {v: [v] + [f"{v}_{i}" for i in range(1, sizes.get(v, 1))] for v in g.vertices}
    edges = [(a, b) for u, v in g.edges for a in labels[u] for b in labels[v]]
    edges += [(a, b) for v in g.vertices for i, a in enumerate(labels[v])
              for b in labels[v][i + 1:]]
    return Graph.build([w for v in g.vertices for w in labels[v]], edges)


def _check(g, family, budget):
    # recognize on g against the uncontracted engine, and against
    # recognize on the quotient, which it must equal node for node
    out = recognize(g, family, budget)
    reference = _uncontracted(g, family, budget)
    if "inconclusive" not in (out.kind, reference):
        assert out.kind == reference, (g, family)
    if out.is_member():
        assert_member_sound(out, g, family)
    q = _quotient(g)
    on_q = recognize(q, family, budget)
    assert (out.kind, out.nodes_used) == (on_q.kind, on_q.nodes_used), (g, family)
    assert on_q.route == "search"
    assert out.route == ("search" if q.n == g.n else f"twins contracted to {q.n}")
    return out


def test_contraction_agrees_on_the_census():
    # every graph on at most six vertices, in all eight families
    budget = Budget(10**5)
    twins = 0
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            twins += _quotient(g).n < g.n
            for family in FAMILIES:
                _check(g, family, budget)
    assert twins == 105  # of the 208 graphs


def test_contraction_agrees_on_planted_twin_classes():
    # random graphs on 3..6 vertices with two of them blown up into
    # classes of 2..6 true twins
    rng = random.Random(36)
    budget = Budget(10**5)
    for _ in range(24):
        base = random_graph(rng, rng.randint(3, 6), p=rng.choice((0.3, 0.5, 0.7)))
        g = _blow_up(base, {v: rng.randint(2, 6) for v in rng.sample(base.vertices, 2)})
        for family in FAMILIES:
            _check(g, family, budget)


@pytest.mark.parametrize("family", [INTERVAL_CLASS, UNIT_INTERVAL])
def test_one_slot_twins_get_their_own_padding(family):
    # a path on four vertices with its second vertex three twins and its
    # third four: each copied twin needs a dummy right interval of its own
    g = _blow_up(path(4), {"v2": 3, "v3": 4})
    out = _check(g, family, Budget(10**7))
    assert out.is_member() and out.route == "twins contracted to 4"
    rights = [out.certificate[v].right for v in g.vertices]
    assert len(set(rights)) == g.n
    if family == UNIT_INTERVAL:
        assert all(iv.length == 1 and iv.lo_closed and iv.hi_closed for iv in rights)


def test_circular_arc_with_universal_twins():
    # the universal vertices are one class of twins: C5 with three hubs is
    # a member, domino with two is not
    c5 = graphs.cycle(5)
    member = _blow_up(graphs.add_universal(c5, "hub"), {"hub": 3})
    out = _check(member, CIRCULAR_ARC, Budget(10**7))
    assert out.is_member() and out.route == "twins contracted to 6"
    arcs = out.certificate.arcs
    assert arcs["hub"] == arcs["hub_1"] == arcs["hub_2"]
    nonmember = _blow_up(graphs.add_universal(domino(), "hub"), {"hub": 2})
    assert _check(nonmember, CIRCULAR_ARC, Budget(10**7)).is_nonmember()
    # every vertex universal: nothing is left to search
    k4 = _blow_up(Graph.build(["a"], []), {"a": 4})
    out = recognize(k4, CIRCULAR_ARC, Budget(1))
    assert (out.kind, out.nodes_used, out.route) == ("member", 0, "twins contracted to 1")
    assert_member_sound(out, k4, CIRCULAR_ARC)


def test_circular_arc_route_counts_the_universal_class():
    # route's m counts twin classes, the universal class among them, but
    # circular-arc searches without that class: wheel(5) has no twins and
    # answers "search" after searching its rim alone, in C5's 23 nodes
    out = _check(graphs.wheel(5), CIRCULAR_ARC, Budget(10**7))
    assert (out.kind, out.nodes_used, out.route) == ("member", 23, "search")
    assert recognize(graphs.cycle(5), CIRCULAR_ARC, Budget(10**7)).nodes_used == 23


def _k_minus(n, missing):
    # K_n on v00..v{n-1} minus the edges `missing`, given as index pairs
    labels = [f"v{i:02d}" for i in range(n)]
    return complement(Graph.build(labels, [(labels[a], labels[b]) for a, b in missing]))


# tikbench exhaustive-search's fixed/2interval/n12/0 and n16/0: the searches
# of g itself took 6,098,331,126 nodes and passed 10^12
N12 = _k_minus(12, [(1, 5), (1, 9), (1, 10), (2, 4), (4, 5), (4, 6), (4, 10), (5, 11),
                    (9, 11), (10, 11)])
N16 = _k_minus(16, [(1, 2), (3, 9), (6, 9), (6, 11)])


@pytest.mark.parametrize("g, m, nodes", [(N12, 6, 56), (N16, 7, 239)], ids=["n12", "n16"])
def test_near_complete_graphs_pinned(g, m, nodes):
    out = recognize(g, TWO_INTERVAL, Budget(10**7))
    assert (out.kind, out.nodes_used, out.route) == ("member", nodes, f"twins contracted to {m}")
    assert_member_sound(out, g, TWO_INTERVAL)
