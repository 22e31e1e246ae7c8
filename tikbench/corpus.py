"""Seeded known-answer corpus for the tik benchmark.

Every case pairs one user-level call into tik (the timed op) with an
answer known without tik's recognizer:

* members are built from random integer representations; their
  intersection graph comes from this module's own endpoint comparison;
* nonmembers carry a planted forbidden induced subgraph (every class here
  is hereditary), and each obstruction cites the result that forbids it;
* fixed cases repeat the node counts of the baseline table exactly, so a
  drift is a changed count, not noise.

Ops call tik through module attributes (``R.recognize``, not a bound
name), so the traced run's wrappers see the benchmark's calls too.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import tik
from tik import gadgets, graphs, io_cli, model, reductions, simplicial, transforms
from tik import recognize as R
from tik.graphs import Graph

@dataclass
class Case:
    """One op: ``call`` is timed; ``check`` runs afterwards, untimed, and
    returns (verdict, nodes, problem-or-None)."""

    cid: str
    family: str
    n: int
    budget: int  # nodes charged when the op raises; 0 for ops with no search
    searches: bool  # counts toward decided_share
    call: Callable[[], object]
    check: Callable[[object], tuple[str, int, str | None]]
    exact_nodes: int | None = None


# --- own intersection predicates (independent of tik.model) ---------------------
# An interval is (lo, hi, lo_closed, hi_closed) with rational ends.


def _holds(iv, x) -> bool:
    lo, hi, lo_closed, hi_closed = iv
    return (lo < x or (lo == x and lo_closed)) and (x < hi or (x == hi and hi_closed))


def meet(a, b) -> bool:
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if lo != hi:
        return lo < hi
    return _holds(a, lo) and _holds(b, lo)


def arc_pieces(start, end, start_closed, end_closed, c):
    """A clockwise arc on a circle of circumference c as line pieces on [0, c];
    a wrapping arc contains the wrap point 0 = c."""
    if start < end:
        return [(start, end, start_closed, end_closed)]
    return [(start, c, start_closed, True), (Fraction(0), end, True, end_closed)]


def own_edges(pieces: dict) -> frozenset:
    """Edges (u, v), u < v, between labels whose pieces meet: a sweep over
    the pieces sorted by left end."""
    ivs = sorted((iv, v) for v, ps in pieces.items() for iv in ps)
    edges = set()
    for i, (a, u) in enumerate(ivs):
        for b, v in ivs[i + 1:]:
            if b[0] > a[1]:
                break
            if u != v and meet(a, b):
                edges.add((u, v) if u < v else (v, u))
    return frozenset(edges)


def graph_of(pieces: dict) -> Graph:
    return Graph.build(sorted(pieces), own_edges(pieces))


def certificate_pieces(cert) -> dict:
    if isinstance(cert, model.CircularArcRep):
        c = cert.circumference
        return {
            v: arc_pieces(a.start, a.end, a.start_closed, a.end_closed, c)
            for v, a in cert.arcs.items()
        }
    return {
        v: [(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) for iv in ti.parts()]
        for v, ti in cert.items.items()
    }


def certificate_problem(cert, g: Graph, family) -> str | None:
    """None when the certificate re-verifies: family_check passes and its
    intersection graph equals ``g`` label for label."""
    verdict = model.family_check(cert, family)
    if not verdict.ok:
        return f"family_check failed: {verdict.reason}"
    pieces = certificate_pieces(cert)
    if set(pieces) != set(g.vertices):
        return "certificate labels differ from the input"
    if own_edges(pieces) != g.edges:
        return "certificate realizes a different graph"
    return None


def _closed(lo, hi):
    return (Fraction(lo), Fraction(hi), True, True)


def _open(lo, hi):
    return (Fraction(lo), Fraction(hi), False, False)


# --- seeded member representations -------------------------------------------------


def rand_unit_interval(rng, n, prefix="v"):
    """One closed length-4 interval per vertex."""
    out = {}
    for i in range(n):
        s = rng.randrange(6 * n)
        out[f"{prefix}{i}"] = [_closed(s, s + 4)]
    return out


def _two_disjoint(rng, span, la, lb):
    while True:
        a, b = rng.randrange(span), rng.randrange(span)
        if a + la < b or b + lb < a:
            return [_closed(a, a + la), _closed(b, b + lb)]


def rand_unit(rng, n):
    return {f"v{i}": _two_disjoint(rng, 6 * n, 4, 4) for i in range(n)}


def rand_balanced(rng, n):
    out = {}
    for i in range(n):
        length = rng.randint(2, 8)
        out[f"v{i}"] = _two_disjoint(rng, 6 * n, length, length)
    return out


def rand_two_interval(rng, n):
    """Four distinct integer endpoints in [0, 4n) per vertex: long
    intervals, so the graphs are dense."""
    out = {}
    for i in range(n):
        while True:
            a, b, c, d = sorted(rng.sample(range(4 * n), 4))
            if b < c:
                break
        out[f"v{i:02d}"] = [_closed(a, b), _closed(c, d)]
    return out


def rand_arcs(rng, n):
    """Closed arcs with integer ends on a circle of circumference 4n; returns
    (own pieces, tik CircularArcRep)."""
    c = 4 * n
    pieces, arcs = {}, {}
    for i in range(n):
        start, length = rng.randrange(c), rng.randint(1, c // 2)
        end = (start + length) % c
        pieces[f"v{i}"] = arc_pieces(Fraction(start), Fraction(end), True, True, Fraction(c))
        arcs[f"v{i}"] = model.Arc(start, end)
    return pieces, model.CircularArcRep(c, arcs)


def rand_proper_arcs(rng, n):
    """Equal-length arcs with distinct starts: no arc contains another."""
    c = 4 * n
    length = rng.randint(2, 2 * n)
    pieces, arcs = {}, {}
    for i, start in enumerate(rng.sample(range(c), n)):
        end = (start + length) % c
        pieces[f"v{i}"] = arc_pieces(Fraction(start), Fraction(end), True, True, Fraction(c))
        arcs[f"v{i}"] = model.Arc(start, end)
    return pieces, model.CircularArcRep(c, arcs)


def rand_xx(rng, n, x):
    """Open integer length-x intervals, two disjoint ones per vertex; returns
    (own pieces, tik Representation)."""
    pieces, items = {}, {}
    for i in range(n):
        while True:
            a, b = rng.randrange(2 * n * x), rng.randrange(2 * n * x)
            if abs(a - b) >= x:
                break
        pieces[f"v{i}"] = [_open(a, a + x), _open(b, b + x)]
        items[f"v{i}"] = model.two_interval(
            model.open_interval(a, a + x), model.open_interval(b, b + x)
        )
    return pieces, model.Representation(items)


def rand_unit_rep(rng, n):
    """Closed unit intervals with quarter-integer starts; returns (own
    pieces, tik Representation)."""
    pieces, items = {}, {}
    for i in range(n):
        while True:
            a, b = Fraction(rng.randrange(8 * n), 4), Fraction(rng.randrange(8 * n), 4)
            if abs(a - b) > 1:
                break
        pieces[f"v{i}"] = [_closed(a, a + 1), _closed(b, b + 1)]
        items[f"v{i}"] = model.two_interval(model.interval(a, a + 1), model.interval(b, b + 1))
    return pieces, model.Representation(items)


# --- planted obstructions ------------------------------------------------------------
# (edges, center or None).  Each family named with an obstruction excludes it.


def _star(t):
    return [("o0", f"o{i}") for i in range(1, t + 1)], "o0"


def _cycle(k):
    return [(f"o{i}", f"o{(i + 1) % k}") for i in range(k)], None


def _k53_edges():
    return [(f"o{i}", f"o{5 + j}") for i in range(5) for j in range(3)], "o5"


OBSTRUCTIONS = {
    # Roberts (1969): unit interval graphs are the claw-free interval graphs.
    ("claw", "unit-interval"): _star(3),
    # (1,1) graphs: open unit integer intervals meet only when they start
    # together, so every neighbourhood is a union of two cliques.
    ("claw", "xx1"): _star(3),
    # Interval graphs are chordal (Lekkerkerker & Boland 1962).
    ("C4", "interval"): _cycle(4),
    ("C5", "interval"): _cycle(5),
    ("C6", "interval"): _cycle(6),
    # Capacity bound (docs/design-notes.md): an equal-length interval meets at
    # most two pairwise-disjoint ones, so a vertex has at most four pairwise
    # nonadjacent neighbours in unit and in (x,x) for x >= 2.
    ("K1,5", "unit"): _star(5),
    ("K1,5", "xx2"): _star(5),
    # K_{5,3} contains K_{1,5} (a t-side vertex and the five s-side ones).
    ("K5,3", "unit"): _k53_edges(),
}

FAMILIES = {
    "unit-interval": model.UNIT_INTERVAL,
    "interval": model.INTERVAL_CLASS,
    "unit": model.UNIT,
    "balanced": model.BALANCED,
    "2interval": model.TWO_INTERVAL,
    "circular-arc": model.CIRCULAR_ARC,
    "xx1": model.XX(1),
    "xx2": model.XX(2),
    "xx3": model.XX(3),
}


def planted(rng, obstruction, host_n) -> Graph:
    """A seeded unit-interval host plus the obstruction, joined by one edge
    that avoids the obstruction's centre; the obstruction stays induced."""
    edges, center = obstruction
    ob = sorted({v for e in edges for v in e})
    host = graph_of(rand_unit_interval(rng, host_n, prefix="h"))
    link = (rng.choice(sorted(host.vertices)), rng.choice([v for v in ob if v != center]))
    return Graph.build(list(host.vertices) + ob, list(host.edges) + edges + [link])


# --- case builders --------------------------------------------------------------------


def recognize_case(cid, g: Graph, fam: str, budget: int, expect: str,
                   exact_nodes=None) -> Case:
    """``expect`` is member, nonmember or unknown; inconclusive is never wrong."""
    family = FAMILIES[fam]

    def call():
        return R.recognize(g, family, R.Budget(budget))

    def check(out):
        problem = None
        if out.kind == "member":
            problem = certificate_problem(out.certificate, g, family)
            if problem is None and expect == "nonmember":
                problem = "member verdict for a planted nonmember"
        elif out.kind == "nonmember" and expect == "member":
            problem = "nonmember verdict for a known member"
        return out.kind, out.nodes_used, problem

    return Case(cid, fam, g.n, budget, True, call, check, exact_nodes)


def prism(k) -> Graph:
    """C_k x K_2: 3-regular, triangle-free for k >= 4, Hamiltonian."""
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    es = [(a[i], a[(i + 1) % k]) for i in range(k)]
    es += [(b[i], b[(i + 1) % k]) for i in range(k)]
    es += list(zip(a, b))
    return Graph.build(a + b, es)


# --- metric-members ---------------------------------------------------------------------
# Search node counts of random members are heavy-tailed from about six
# vertices on (unit ones pass 10^5 nodes now and then), and one such case
# would swing nodes_total between seeds.  So the seed draws only the light
# strata; the larger members come from a fixed draw, the same in every run.

METRIC_BUDGET = 200_000
METRIC_GEN = {"unit-interval": rand_unit_interval, "unit": rand_unit,
              "balanced": rand_balanced}
# family -> {n: cases}
METRIC_SEEDED = {
    "unit-interval": {4: 13, 5: 13, 6: 13, 7: 13, 8: 13},
    "unit": {4: 8},
    "balanced": {4: 8, 5: 6},
}
METRIC_FIXED = {
    "unit": {5: 4, 6: 3, 7: 1, 8: 1},
    "balanced": {6: 3, 7: 1, 8: 1},
}


def _drawn(rng, strata, gen, budget, prefix):
    cases = []
    for fam, sizes in strata.items():
        for n, count in sizes.items():
            for j in range(count):
                g = graph_of(gen[fam](rng, n))
                cases.append(recognize_case(f"{prefix}/{fam}/n{n}/{j}", g, fam, budget,
                                            "member"))
    return cases


def metric_members(rng) -> list[Case]:
    cases = [
        recognize_case("domino/unit", graphs.domino(), "unit", METRIC_BUDGET,
                       "member", exact_nodes=430),
        recognize_case("K2,3/balanced", graphs.complete_bipartite(2, 3), "balanced",
                       METRIC_BUDGET, "member", exact_nodes=51),
        # member: the frozen open (2,2) realization, and (2,2) is inside unit
        recognize_case("K4,4-e/unit", gadgets.k44_minus_e(), "unit", METRIC_BUDGET,
                       "member"),
    ]
    # paths are unit interval graphs
    cases.append(recognize_case("path10/unit", graphs.path(10), "unit", METRIC_BUDGET,
                                "member"))
    cases += _drawn(random.Random("metric-members:fixed"), METRIC_FIXED, METRIC_GEN,
                    METRIC_BUDGET, "fixed")
    return cases + _drawn(rng, METRIC_SEEDED, METRIC_GEN, METRIC_BUDGET, "rand")


# --- exhaustive-search ------------------------------------------------------------------
# As above, the seed draws the strata whose searches end in a few thousand
# nodes; the heavy-tailed ones (dense 2-interval members from ten vertices,
# circular-arc members from five, planted cycles) come from a fixed draw.

SEARCH_BUDGET = 100_000  # per fixed case, and per search cut off by the budget
SEEDED_BUDGET = 20_000  # per seeded case: a rare heavy one moves the sums little
LADDER = (50, 100, 150, 200, 300)
PRUNED = [key for key in OBSTRUCTIONS if key[1] != "interval"]


def c2_audit_case() -> Case:
    """Every canonical open (2,2) realization of K_{4,4}-e is contiguous."""
    g = gadgets.k44_minus_e()
    labels = sorted(g.vertices)
    budget = 10**7

    def call():
        seen = []

        def visit(rep):  # plain ints, so the record adds no garbage to collect
            ends = tuple((iv.lo.numerator, iv.lo.denominator, iv.hi.numerator,
                          iv.hi.denominator, iv.lo_closed or iv.hi_closed)
                         for _, _, iv in rep.ground_set())
            seen.append((model.contiguity(rep).contiguous, ends))

        return R.enumerate_realizations(g, model.XX(2), R.Budget(budget), visit), seen

    def check(out):
        result, seen = out
        problem = None
        if not result.complete:
            problem = "audit did not exhaust the canonical space"
        elif len(seen) != result.count:
            problem = f"{len(seen)} visits for {result.count} realizations"
        elif result.count != 6336:
            print(f"# C2-audit/xx2: realization count changed: {result.count}, baseline 6336",
                  file=sys.stderr)
        for tik_says, ends in seen:
            if any(closed or lo_d != 1 or hi_d != 1 or hi - lo != 2
                   for lo, lo_d, hi, hi_d, closed in ends):
                problem = "a visited realization is not open integer (2,2)"
                break
            pieces = {v: [_open(lo, hi) for lo, _, hi, _, _ in ends[2 * i: 2 * i + 2]]
                      for i, v in enumerate(labels)}
            if own_edges(pieces) != g.edges:
                problem = "a visited realization does not realize K4,4-e"
            elif not (tik_says and _contiguous(pieces)):
                problem = "non-contiguous realization of K4,4-e"
            if problem:
                break
        return ("complete" if result.complete else "inconclusive"), result.nodes_used, problem

    return Case("C2-audit/xx2", "xx2-enumerate", g.n, budget, True, call, check,
                exact_nodes=1_602_229)


def _contiguous(pieces) -> bool:
    ivs = sorted(iv for ps in pieces.values() for iv in ps)
    reach = ivs[0][1]
    for lo, hi, _, _ in ivs[1:]:
        if lo >= reach:  # open integer intervals: touching leaves a hole
            return False
        reach = max(reach, hi)
    return True


def exhaustive_search(rng) -> list[Case]:
    cases = [
        # not circular-arc: the arcs of an induced 4-cycle cover the circle, so
        # by v1 v3 v4 v2 the arc of v5 (missing v2, v3, v4) lies inside v1 and
        # that of v6 (missing v1, v3, v4) inside v2 \ v1; yet v5 meets v6
        recognize_case("domino/circular-arc", graphs.domino(), "circular-arc", 10**7,
                       "nonmember", exact_nodes=1_244_243),
        # not circular-arc: an arc meeting three disjoint arcs covers two of
        # the three gaps between them, so the two such arcs share a gap
        recognize_case("K2,3/circular-arc", graphs.complete_bipartite(2, 3),
                       "circular-arc", 10**7, "nonmember"),
        c2_audit_case(),
        # searches cut off by the budget today, on every engine; K_{5,3} has a
        # frozen balanced realization
        recognize_case("K5,3/balanced", gadgets.k53(), "balanced", SEARCH_BUDGET, "member"),
    ]
    for k in (7, 9):
        cases.append(recognize_case(f"wheel{k}/unit", graphs.wheel(k), "unit", SEARCH_BUDGET,
                                    "unknown"))
    for a, b in ((3, 3), (2, 4), (2, 5), (3, 4), (4, 4)):  # each holds an induced K_{2,3}
        cases.append(recognize_case(f"K{a},{b}/circular-arc", graphs.complete_bipartite(a, b),
                                    "circular-arc", SEARCH_BUDGET, "nonmember"))
    cases.append(recognize_case("petersen/circular-arc", graphs.petersen(), "circular-arc",
                                SEARCH_BUDGET, "unknown"))
    for x in (2, 3):  # about ten times the work per node of the other engines
        cases.append(recognize_case(f"xx-separator{x}/xx{x}", gadgets.xx_separator(x).graph,
                                    f"xx{x}", SEARCH_BUDGET // 10, "unknown"))
    for k in LADDER:  # paths are interval graphs, and interval is inside 2-interval
        g = graphs.path(k)
        cases.append(recognize_case(f"path{k}/interval", g, "interval", 10**6, "member"))
        cases.append(recognize_case(f"path{k}/2interval", g, "2interval", 10**6, "member"))
    fixed = random.Random("exhaustive-search:fixed")
    cases += _drawn(fixed, {"2interval": {10: 2, 12: 2, 14: 2, 16: 2}},
                    {"2interval": rand_two_interval}, SEARCH_BUDGET, "fixed")
    cases += _drawn(fixed, {"circular-arc": {5: 3, 6: 3}},
                    {"circular-arc": lambda r, n: rand_arcs(r, n)[0]}, SEARCH_BUDGET, "fixed")
    for name, count in (("C4", 2), ("C5", 1), ("C6", 1)):
        for j in range(count):
            g = planted(fixed, OBSTRUCTIONS[(name, "interval")], fixed.randint(4, 8))
            cases.append(recognize_case(f"fixed/planted/{name}/interval/{j}", g, "interval",
                                        SEARCH_BUDGET, "nonmember"))
    cases += _drawn(rng, {"2interval": {8: 16}}, {"2interval": rand_two_interval},
                    SEEDED_BUDGET, "rand")
    cases += _drawn(rng, {"circular-arc": {4: 16}},
                    {"circular-arc": lambda r, n: rand_arcs(r, n)[0]}, SEEDED_BUDGET, "rand")
    for name, fam in PRUNED:
        for j in range(6):
            g = planted(rng, OBSTRUCTIONS[(name, fam)], 4 + j % 5)
            cases.append(recognize_case(f"planted/{name}/{fam}/{j}", g, fam,
                                        SEEDED_BUDGET, "nonmember"))
    return cases


# --- toolkit-pipeline -------------------------------------------------------------------


def mobius_ladder(k) -> Graph:
    """k (even, >= 8) vertices on a cycle plus the k/2 long diagonals:
    3-regular, triangle-free, Hamiltonian."""
    vs = [f"m{i}" for i in range(k)]
    es = [(vs[i], vs[(i + 1) % k]) for i in range(k)]
    es += [(vs[i], vs[i + k // 2]) for i in range(k // 2)]
    return Graph.build(vs, es)


def _is_ham_cycle(g: Graph, cyc) -> bool:
    return (cyc is not None and sorted(cyc) == sorted(g.vertices)
            and all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])))


def ham_case(cid, g: Graph) -> Case:
    def call():
        inst = reductions.hc_to_balanced_instance(g)
        cyc = reductions.find_hamiltonian_cycle(g)
        rep = reductions.ham_cycle_realization(inst, cyc)
        balanced = model.family_check(rep, model.BALANCED).ok
        return inst, cyc, balanced, model.intersection_graph(rep), rep

    def check(out):
        inst, cyc, balanced, realized, rep = out
        problem = None
        if not _is_ham_cycle(g, cyc):
            problem = "no Hamiltonian cycle found in a Hamiltonian graph"
        elif not balanced or realized != inst.graph:
            problem = "witness rejected by tik's own verification"
        else:
            problem = certificate_problem(rep, inst.graph, model.BALANCED)
        return "ok", 0, problem

    return Case(cid, "hc-balanced", g.n, 0, False, call, check)


def transform_case(cid, n, pieces, source, transform, target) -> Case:
    """``transform(source)`` must keep the graph of ``pieces`` and land in
    family ``target``."""
    known = graph_of(pieces)

    def call():
        if isinstance(source, model.CircularArcRep):
            before = model.circular_intersection_graph(source)
        else:
            before = model.intersection_graph(source)
        rep = transform(source)
        return before, rep, model.family_check(rep, target).ok, model.intersection_graph(rep)

    def check(out):
        before, rep, in_family, after = out
        if before != known or after != known or not in_family:
            return "ok", 0, "transform changed the graph or left the family"
        return "ok", 0, certificate_problem(rep, known, target)

    return Case(cid, cid.split("/")[0], n, 0, False, call, check)


def _ca_to_balanced(ca):
    return transforms.balanced_from_circular_arc(ca, transforms.generic_cut_point(ca))


def _ca_to_unit(ca):
    return transforms.unit_from_proper_circular_arc(ca, transforms.generic_cut_point(ca))


def _stretch(rep):
    return transforms.stretch(rep)


def _unit_to_xx(rep):
    return transforms.unit_rep_to_integer_xx(rep)


def _proper_coloring(g: Graph, coloring, k) -> bool:
    a = coloring.assignment if coloring is not None else None
    return (a is not None and set(a) == set(g.vertices)
            and all(0 <= c < k for c in a.values())
            and all(a[u] != a[v] for u, v in g.edges))


def coloring_case(cid, g: Graph, k, colorable: bool) -> Case:
    """k-colorable iff the complement plus a universal vertex is
    all-k-simplicial; round-trip the witness both ways when it exists."""

    def call():
        coloring = graphs.k_colorable(g, k)
        inst = reductions.coloring_to_simplicial_instance(g, k)
        witness = simplicial.all_k_simplicial(inst, k)
        back = None
        if coloring is not None:
            back = reductions.witness_roundtrip(
                g, k, reductions.witness_roundtrip(g, k, coloring))
        return coloring, witness, back

    def check(out):
        coloring, witness, back = out
        if not colorable:
            ok = coloring is None and witness is None
        else:
            ok = (_proper_coloring(g, coloring, k) and witness is not None
                  and _proper_coloring(g, back, k))
        return "ok", 0, None if ok else "coloring / all-k-simplicial answer is wrong"

    return Case(cid, "coloring-simplicial", g.n, 0, False, call, check)


def planted_coloring_graph(rng, n, k) -> Graph:
    color = [rng.randrange(k) for _ in range(n)]
    vs = [f"c{i}" for i in range(n)]
    es = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)
          if color[i] != color[j] and rng.random() < 0.6]
    return Graph.build(vs, es)


def planted_clique_graph(rng, n, k) -> Graph:
    """A K_{k+1} among the first k+1 vertices: not k-colorable."""
    vs = [f"c{i}" for i in range(n)]
    es = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)
          if j <= k or rng.random() < 0.3]
    return Graph.build(vs, es)


def wheel_case(k) -> Case:
    """wheel(2k+1) is K_{1,k+1}-free (the rim C_{2k+1} has independence
    number k) and all-(k+1)- but not all-k-simplicial (covering C_{2k+1}
    by cliques takes k+1 of them)."""
    w = graphs.wheel(2 * k + 1)

    def call():
        return (simplicial.k1t_free(w, k + 1), simplicial.all_k_simplicial(w, k),
                simplicial.all_k_simplicial(w, k + 1))

    def check(out):
        free, split_k, split_k1 = out
        ok = free and split_k is None and split_k1 is not None and split_k1.validates(w, k + 1)
        return "ok", 0, None if ok else "wheel separator answer is wrong"

    return Case(f"wheel{2 * k + 1}/simplicial", "simplicial", w.n, 0, False, call, check)


def _sorted(pieces):
    return {v: sorted(ps) for v, ps in pieces.items()}


def json_case(cid, n, pieces, rep) -> Case:
    def call():
        if isinstance(rep, model.CircularArcRep):
            text = io_cli.dump_json(io_cli.circular_to_json(rep))
        else:
            text = io_cli.dump_json(io_cli.representation_to_json(rep))
        return text, io_cli.parse_representation(text)

    def check(out):
        text, back = out
        ok = (back == rep and _sorted(certificate_pieces(back)) == _sorted(pieces)
              and io_cli.dump_json(json.loads(text)) == text)
        return "ok", 0, None if ok else "JSON round trip changed the representation"

    return Case(cid, "json", n, 0, False, call, check)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    return io_cli.cli_main(argv, out, err), out.getvalue()


def cli_verify_case(cid, path, fam_args, expect_pass: bool) -> Case:
    def call():
        return _run_cli(["verify", *fam_args, path])

    def check(out):
        code, text = out
        ok = (code, text.startswith("pass")) == ((0, True) if expect_pass else (1, False))
        return ("pass" if code == 0 else "fail"), 0, None if ok else f"verify exited {code}"

    return Case(cid, "cli-verify", 0, 0, False, call, check)


def cli_transform_case(cid, n, path, op, pieces, target) -> Case:
    known = graph_of(pieces)

    def call():
        return _run_cli(["transform", op, path])

    def check(out):
        code, text = out
        if code != 0:
            return "error", 0, f"transform exited {code}"
        return "ok", 0, certificate_problem(io_cli.parse_representation(text), known, target)

    return Case(cid, "cli-transform", n, 0, False, call, check)


def cli_recognize_case(cid, g: Graph, graph_path, cert_path) -> Case:
    """Unit-interval graphs are interval graphs: recognize, emit the
    certificate, then verify the emitted file."""
    budget = 10**5

    def call():
        code, text = _run_cli(["recognize", "--family", "interval", "--budget", str(budget),
                               "--emit", cert_path, graph_path])
        return code, text, _run_cli(["verify", "--family", "interval", cert_path])

    def check(out):
        code, text, (vcode, _) = out
        verdict, _, nodes = text.strip().partition(" nodes=")
        if verdict not in ("member", "nonmember", "inconclusive"):
            return "error", budget, f"recognize exited {code}"
        problem = None
        if verdict == "member":
            with open(cert_path, encoding="utf-8") as fh:
                cert = io_cli.parse_representation(fh.read())
            problem = certificate_problem(cert, g, model.INTERVAL_CLASS)
            if problem is None and vcode != 0:
                problem = "verify rejected the emitted certificate"
        elif verdict == "nonmember":
            problem = "nonmember verdict for a known member"
        return verdict, int(nodes), problem

    return Case(cid, "cli-recognize/interval", g.n, budget, True, call, check)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _own_balanced(path) -> bool:
    """Own reading of a representation file: equal side lengths per vertex."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return all(
        Fraction(p["left"]["hi"]) - Fraction(p["left"]["lo"])
        == Fraction(p["right"]["hi"]) - Fraction(p["right"]["lo"])
        for p in obj["vertices"].values()
    )


FIXTURES = os.path.join(os.path.dirname(tik.__file__), "fixtures")


def toolkit_pipeline(rng, workdir) -> list[Case]:
    cases = [ham_case(f"prism{k}/hc-balanced", prism(k)) for k in range(4, 13)]
    cases += [ham_case(f"mobius{k}/hc-balanced", mobius_ladder(k)) for k in range(8, 25, 2)]
    for n in (4, 6, 8, 10, 12):
        for j in range(2):
            pieces, ca = rand_arcs(rng, n)
            cases.append(transform_case(f"ca-to-balanced/n{n}/{j}", n, pieces, ca,
                                        _ca_to_balanced, model.BALANCED))
            pieces, ca = rand_proper_arcs(rng, n)
            cases.append(transform_case(f"ca-to-unit/n{n}/{j}", n, pieces, ca,
                                        _ca_to_unit, model.UNIT))
            x = 1 + (n + j) % 3
            pieces, rep = rand_xx(rng, n, x)
            cases.append(transform_case(f"stretch/n{n}/{j}", n, pieces, rep,
                                        _stretch, model.XX(x + 1)))
            pieces, rep = rand_unit_rep(rng, n)
            cases.append(transform_case(f"unit-to-xx/n{n}/{j}", n, pieces, rep,
                                        _unit_to_xx, model.XX(2 * n)))
    for j in range(8):
        n, k = 6 + j % 5, 2 + j % 3
        cases.append(coloring_case(f"coloring/k{k}/n{n}", planted_coloring_graph(rng, n, k),
                                   k, True))
    for j in range(4):
        n, k = 6 + j, 2 + j % 3
        cases.append(coloring_case(f"coloring/clique/k{k}/n{n}",
                                   planted_clique_graph(rng, n, k), k, False))
    cases += [wheel_case(k) for k in (2, 3, 4, 5)]
    for n in (4, 6, 8, 10, 12):
        pieces, ca = rand_arcs(rng, n)
        cases.append(json_case(f"json/circular/n{n}", n, pieces, ca))
        pieces, rep = rand_unit_rep(rng, n)
        cases.append(json_case(f"json/unit/n{n}", n, pieces, rep))

    fixture = {name: os.path.join(FIXTURES, f"{name}.json")
               for name in ("k53_balanced", "k44e_open2", "unbalanced_chain")}
    cases.append(cli_verify_case("cli/verify/k53-balanced", fixture["k53_balanced"],
                                 ["--family", "balanced"], _own_balanced(fixture["k53_balanced"])))
    cases.append(cli_verify_case("cli/verify/k44e-xx2", fixture["k44e_open2"],
                                 ["--family", "xx", "--x", "2"], True))
    cases.append(cli_verify_case("cli/verify/chain-balanced", fixture["unbalanced_chain"],
                                 ["--family", "balanced"],
                                 _own_balanced(fixture["unbalanced_chain"])))
    for j, n in enumerate((4, 6, 8, 10)):
        pieces, ca = rand_arcs(rng, n)
        path = _write(os.path.join(workdir, f"arcs{j}.json"),
                      io_cli.dump_json(io_cli.circular_to_json(ca)))
        cases.append(cli_transform_case(f"cli/ca-to-balanced/{j}", n, path, "ca-to-balanced",
                                        pieces, model.BALANCED))
        x = 1 + j % 3
        pieces, rep = rand_xx(rng, n, x)
        path = _write(os.path.join(workdir, f"xx{j}.json"),
                      io_cli.dump_json(io_cli.representation_to_json(rep)))
        cases.append(cli_transform_case(f"cli/stretch/{j}", n, path, "stretch", pieces,
                                        model.XX(x + 1)))
    fixed = random.Random("toolkit-pipeline:fixed")  # node counts stay put across seeds
    for j, n in enumerate((5, 6, 7, 8, 9, 10)):
        g = graph_of(rand_unit_interval(fixed, n))
        path = _write(os.path.join(workdir, f"graph{j}.edges"), graphs.to_edge_list(g))
        cases.append(cli_recognize_case(f"cli/recognize/{j}", g, path,
                                        os.path.join(workdir, f"cert{j}.json")))
    return cases


def build(workload: str, seed: int, workdir: str) -> list[Case]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "metric-members":
        return metric_members(rng)
    if workload == "exhaustive-search":
        return exhaustive_search(rng)
    return toolkit_pipeline(rng, workdir)


def warmup(workload: str, workdir: str) -> list[Case]:
    """A few tiny ops of the workload's kinds, run during setup."""
    p4 = graphs.path(4)
    if workload == "metric-members":
        return [recognize_case(f"warm/{fam}", p4, fam, METRIC_BUDGET, "member")
                for fam in ("unit-interval", "unit", "balanced")]
    if workload == "exhaustive-search":
        return [recognize_case(f"warm/{fam}", p4, fam, SEARCH_BUDGET, "member")
                for fam in ("interval", "2interval", "circular-arc", "xx2")]
    rng = random.Random("warmup")
    pieces, ca = rand_arcs(rng, 3)
    path = _write(os.path.join(workdir, "warm.edges"), graphs.to_edge_list(p4))
    return [
        transform_case("warm/ca-to-balanced", 3, pieces, ca, _ca_to_balanced, model.BALANCED),
        json_case("warm/json", 3, pieces, ca),
        wheel_case(2),
        cli_recognize_case("warm/cli", p4, path, os.path.join(workdir, "warm.json")),
    ]
