"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest

from tik import model
from tik.graphs import Graph
from tik.model import Arc, CircularArcRep, Interval, Representation, q, two_interval


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    vs = [f"v{i}" for i in range(1, n + 1)]
    es = [
        (a, b)
        for a, b in itertools.combinations(vs, 2)
        if rng.random() < p
    ]
    return Graph.build(vs, es)


def _canonical_key(n: int, edges) -> tuple:
    """An isomorphism invariant that separates non-isomorphic graphs: the
    least sorted edge list over all relabellings that list vertices by
    nondecreasing degree (a relabelling-invariant set of orders)."""
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    classes = [
        [v for v in range(n) if deg[v] == d] for d in sorted(set(deg))
    ]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        order = [v for part in parts for v in part]
        where = {v: i for i, v in enumerate(order)}
        key = tuple(sorted(
            (min(where[a], where[b]), max(where[a], where[b])) for a, b in edges
        ))
        if best is None or key < best:
            best = key
    return best


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """One graph per isomorphism class on n vertices, labelled v0..v{n-1}
    and edged by their canonical keys, sorted by key.

    Every graph on n vertices is a graph on n - 1 vertices plus one vertex
    with some neighbourhood, so extending each class on n - 1 vertices in
    every way and keeping one graph per key reaches every class."""
    keys = {()}
    for m in range(1, n):
        keys = {
            _canonical_key(m + 1, list(key) + [(v, m) for v in range(m) if mask >> v & 1])
            for key in keys
            for mask in range(1 << m)
        }
    labels = [f"v{i}" for i in range(n)]
    return [
        Graph.build(labels, [(labels[a], labels[b]) for a, b in key])
        for key in sorted(keys)
    ]


def random_closed_rep(rng: random.Random, n: int) -> Representation:
    items = {}
    for i in range(n):
        vals = sorted(rng.sample(range(0, 6 * max(n, 2)), 4))
        while vals[1] == vals[2]:
            vals = sorted(rng.sample(range(0, 6 * max(n, 2)), 4))
        items[f"v{i + 1}"] = two_interval(
            Interval(q(vals[0]), q(vals[1])), Interval(q(vals[2]), q(vals[3]))
        )
    return Representation(items)


def random_circular_rep(rng: random.Random, n: int) -> CircularArcRep:
    c = 4 * max(n, 2)
    arcs = {}
    starts = rng.sample(range(2 * c), n)
    for i in range(n):
        start = q(starts[i]) / 2
        length = q(rng.randint(1, 2 * c - 1)) / 2
        end = (start + length) % c
        arcs[f"v{i + 1}"] = Arc(start, end)
    return CircularArcRep(q(c), arcs)


def random_proper_circular_rep(rng: random.Random, n: int) -> CircularArcRep:
    """Proper representations: half equal-length families (automatically
    proper), half rejection-sampled general ones."""
    from tik.transforms import proper_circular_arc_check, TransformError

    c = 4 * max(n, 2)
    if rng.random() < 0.5:
        length = q(rng.randint(2, 2 * c - 2)) / 2
        starts = rng.sample(range(2 * c), n)
        arcs = {
            f"v{i + 1}": Arc(q(starts[i]) / 2, (q(starts[i]) / 2 + length) % c)
            for i in range(n)
        }
        return CircularArcRep(q(c), arcs)
    while True:
        base = q(rng.randint(4, 2 * c - 4))
        arcs = {}
        starts = rng.sample(range(2 * c), n)
        for i in range(n):
            length = (base + rng.randint(0, 2)) / 2
            start = q(starts[i]) / 2
            arcs[f"v{i + 1}"] = Arc(start, (start + length) % c)
        ca = CircularArcRep(q(c), arcs)
        try:
            proper_circular_arc_check(ca)
            return ca
        except TransformError:
            continue


def random_xx_rep(rng: random.Random, n: int, x: int) -> Representation:
    window = (2 * n - 1) * x
    items = {}
    for i in range(n):
        a = rng.randint(0, max(window - x, 0))
        b = rng.randint(a + x, max(window, a + x))
        items[f"v{i + 1}"] = two_interval(
            Interval(q(a), q(a + x), False, False),
            Interval(q(b), q(b + x), False, False),
        )
    return Representation(items)


def mixed_star_rep(pieces: int) -> Representation:
    """A star K_{1,3*pieces} from unit intervals of mixed closedness: each
    center piece [a, a+1] meets an open copy (a, a+1) and the closed
    neighbors [a-1, a] and [a+1, a+2], which are pairwise disjoint.  Labels
    follow `complete_bipartite`; the leaves' other pieces are far-off
    padding.  pieces=2 gives K_{1,6} as a unit model, pieces=1 a claw as a
    unit-interval model."""
    items = {"s1": two_interval(Interval(q(1), q(2)), Interval(q(11), q(12)))}
    for i in range(pieces):
        for d, closed in ((-1, True), (0, False), (1, True)):
            lo, pad = q(1 + 10 * i + d), q(100 + 2 * len(items))
            items[f"t{len(items)}"] = two_interval(
                Interval(lo, lo + 1, closed, closed), Interval(pad, pad + 1)
            )
    return Representation(items)


# --- independent oracles -------------------------------------------------------


def brute_force_colorable(g: Graph, k: int) -> bool:
    vs = list(g.vertices)
    if not vs:
        return True
    if k == 0:
        return False
    for assignment in itertools.product(range(k), repeat=len(vs)):
        colors = dict(zip(vs, assignment))
        if all(colors[u] != colors[v] for u, v in g.edges):
            return True
    return False


def maximal_cliques(g: Graph) -> list[set[str]]:
    vs = sorted(g.vertices)
    cliques = []
    for r in range(1, len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2)):
                cliques.append(set(sub))
    return [c for c in cliques if not any(c < d for d in cliques)]


def is_interval_graph_oracle(g: Graph) -> bool:
    """A graph is an interval graph iff its maximal cliques admit a linear
    order in which each vertex's cliques are consecutive."""
    if g.n == 0:
        return True
    cliques = maximal_cliques(g)
    m = len(cliques)
    for perm in itertools.permutations(range(m)):
        ok = True
        for v in g.vertices:
            idxs = [j for j in range(m) if v in cliques[perm[j]]]
            if idxs != list(range(idxs[0], idxs[-1] + 1)):
                ok = False
                break
        if ok:
            return True
    return False


def _sample_points(a: Interval, b: Interval) -> list:
    # the ends of a and b and the midpoints of consecutive ends: membership
    # in either interval is constant between two consecutive ends
    pts = sorted({a.lo, a.hi, b.lo, b.hi})
    return pts + [(x + y) / 2 for x, y in zip(pts, pts[1:])]


def meets_pointcheck(a: Interval, b: Interval) -> bool:
    """Two intervals meet iff one of their endpoints, or the midpoint of
    two consecutive endpoints, lies in both."""
    return any(a.contains_point(x) and b.contains_point(x) for x in _sample_points(a, b))


def within_pointcheck(a: Interval, b: Interval) -> bool:
    """a ⊆ b iff every such point that lies in a lies in b."""
    return all(b.contains_point(x) for x in _sample_points(a, b) if a.contains_point(x))


def circular_graph_pointcheck(ca: CircularArcRep) -> Graph:
    """Intersection graph by direct point membership: two arcs meet iff
    they share an arc endpoint or the midpoint of a gap between
    consecutive endpoints."""
    c = ca.circumference
    pts = sorted(
        {a.start for a in ca.arcs.values()} | {a.end for a in ca.arcs.values()}
    )
    cands = set(pts)
    for p1, p2 in zip(pts, pts[1:] + [pts[0] + c]):
        cands.add(((p1 + p2) / 2) % c)
    labels = ca.labels()
    edges = []
    for i, u in enumerate(labels):
        for v in labels[i + 1:]:
            if any(
                ca[u].contains_point(pt, c) and ca[v].contains_point(pt, c)
                for pt in cands
            ):
                edges.append((u, v))
    return Graph.build(labels, edges)


def assert_member_sound(outcome, g: Graph, family) -> None:
    """Criterion-13 style re-verification of any Member outcome."""
    assert outcome.is_member(), f"expected member, got {outcome.kind}"
    cert = outcome.certificate
    verdict = model.family_check(cert, family)
    assert verdict.ok, f"certificate fails family check: {verdict.reason}"
    if isinstance(cert, CircularArcRep):
        realized = model.circular_intersection_graph(cert)
    else:
        realized = model.intersection_graph(cert)
    assert realized == g, "certificate does not reproduce the input graph"


def brute_force_xx_member(g: Graph, x: int) -> bool:
    """Direct window enumeration, independent of the search engine: try
    every assignment of integer left-endpoint pairs in [0, (2n-1)x]."""
    vs = sorted(g.vertices)
    n = len(vs)
    window = (2 * n - 1) * x
    pairs = [
        (a, b)
        for a in range(window + 1)
        for b in range(a + x, window + 1)
    ]

    def realizes(placement) -> bool:
        for i, u in enumerate(vs):
            for j in range(i + 1, len(vs)):
                w = vs[j]
                meet = any(
                    abs(pu - pw) < x
                    for pu in placement[i]
                    for pw in placement[j]
                )
                if meet != g.has_edge(u, w):
                    return False
        return True

    return any(
        realizes(placement)
        for placement in itertools.product(pairs, repeat=n)
    )


def brute_force_circular_member(g: Graph) -> bool:
    """Direct cyclic-order enumeration: all placements of the 2n labeled
    endpoint events around the circle, first start pinned."""
    vs = sorted(g.vertices)
    n = len(vs)
    if n == 1:
        return True
    events = [(0, 1)] + [(v, k) for v in range(1, n) for k in (0, 1)]

    def inside(span, t):
        s, e = span
        if s < e:
            return s < t < e
        return t > s or t < e

    for perm in itertools.permutations(events):
        pos = {}
        pos[(0, 0)] = 0
        for t, ev in enumerate(perm, start=1):
            pos[ev] = t
        ok = True
        for i in range(n):
            si, ei = pos[(i, 0)], pos[(i, 1)]
            for j in range(i + 1, n):
                sj, ej = pos[(j, 0)], pos[(j, 1)]
                meet = (
                    inside((si, ei), sj) or inside((si, ei), ej)
                    or inside((sj, ej), si) or inside((sj, ej), ei)
                )
                if meet != g.has_edge(vs[i], vs[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
