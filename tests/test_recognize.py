import bisect
import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_member_sound,
    is_interval_graph_oracle,
    random_closed_rep,
    random_graph,
    random_xx_rep,
)
from tik import model, transforms
from tik.gadgets import k44_minus_e, xx_separator
from tik.graphs import (
    Graph,
    complete_bipartite,
    cycle,
    domino,
    from_edge_list,
    path,
    petersen,
    wheel,
)
from tik.io_cli import circular_to_json, dump_json, representation_to_json
from tik.model import (
    BALANCED,
    CIRCULAR_ARC,
    INTERVAL_CLASS,
    TWO_INTERVAL,
    UNIT,
    UNIT_INTERVAL,
    XX,
    Arc,
    CircularArcRep,
    intersection_graph,
    q,
)
from tik.recognize import (
    CLOSE,
    OPEN,
    Budget,
    RecognizeError,
    _Counter,
    _fifo_unit_ends,
    _OrderSearch,
    check_word,
    enumerate_realizations,
    order_feasible,
    recognize,
)

BIG = Budget(10**7)


# --- order words ---------------------------------------------------------------


def test_check_word_rejects_malformed():
    with pytest.raises(RecognizeError):
        check_word([("a", OPEN), ("a", OPEN)])
    with pytest.raises(RecognizeError):
        check_word([("a", CLOSE)])
    with pytest.raises(RecognizeError):
        check_word([("a", OPEN)])


def word_intervals(word):
    # the closed intervals {id: Interval} of a word, with endpoints at the
    # events' positions: proper_to_unit_interval of these is the reference
    # for the unit engines' integer unitization, _fifo_unit_ends
    ends = {}
    for i, (iid, _) in enumerate(word):
        ends.setdefault(iid, []).append(i)
    return {iid: model.Interval(q(lo), q(hi)) for iid, (lo, hi) in ends.items()}


def _unitized(word):
    # the certificate path of the unit engines: FIFO word -> proper
    # position intervals -> unit intervals
    return transforms.proper_to_unit_interval(word_intervals(word))


def test_order_feasible_unit_staggered():
    word = [("i1", OPEN), ("i2", OPEN), ("i1", CLOSE), ("i2", CLOSE)]
    units = _unitized(word)
    assert units["i1"].length == units["i2"].length == 1
    assert units["i1"].lo < units["i2"].lo <= units["i1"].hi
    assert model.intersects(units["i1"], units["i2"])


def test_order_feasible_unit_containment_impossible():
    # the unit engines never build this word (FIFO close rule); the
    # unitization refuses it
    word = [("i1", OPEN), ("i2", OPEN), ("i2", CLOSE), ("i1", CLOSE)]
    with pytest.raises(transforms.TransformError, match="containment"):
        _unitized(word)


def test_order_feasible_unit_disjoint():
    word = [("i1", OPEN), ("i1", CLOSE), ("i2", OPEN), ("i2", CLOSE)]
    units = _unitized(word)
    assert units["i1"].length == units["i2"].length == 1
    assert units["i2"].lo > units["i1"].hi


def _fifo_words(k):
    # intervals 0..k-1 open and close in the same order; the words are
    # the Dyck paths of length 2k
    def extend(word, opened, closed):
        if closed == k:
            yield list(word)
            return
        if opened < k:
            word.append((opened, OPEN))
            yield from extend(word, opened + 1, closed)
            word.pop()
        if closed < opened:
            word.append((closed, CLOSE))
            yield from extend(word, opened, closed + 1)
            word.pop()
    yield from extend([], 0, 0)


def test_fifo_words_unitize_with_same_pattern():
    total = 0
    for k in range(1, 9):
        for word in _fifo_words(k):
            total += 1
            pos = {event: i for i, event in enumerate(word)}
            units = transforms.proper_to_unit_interval(word_intervals(word))
            assert all(iv.length == 1 for iv in units.values())
            for a in range(k):
                for b in range(a + 1, k):
                    # b opens after a; they meet iff a is still open then
                    meet = pos[(b, OPEN)] < pos[(a, CLOSE)]
                    assert model.intersects(units[a], units[b]) == meet, word
    assert total == 2055  # Catalan numbers C1 + ... + C8


def _order_leaf(word, family):
    # the certificate the order engine builds at a leaf of a one-slot
    # family, for a word over intervals 0..k-1 as vertices v0..v{k-1}
    labels = tuple(f"v{i}" for i in range(len(word) // 2))
    search = _OrderSearch(Graph(labels, frozenset()), family, _Counter(1))
    search.word = [((iid, 0), kind) for iid, kind in word]
    return search._realize()


def _padded_reference(ivs):
    # the leaf construction through Fractions: each interval (v, 0) with a
    # dummy right past the largest end
    hi = max(iv.hi for iv in ivs.values())
    return model.Representation({
        f"v{v}": model.two_interval(ivs[(v, 0)],
                                    model.Interval(hi + 2 + 2 * v, hi + 3 + 2 * v))
        for v, _ in ivs
    })


def test_integer_leaves_equal_the_fraction_construction():
    # the order engine reads the unit grid and the interval ends off the
    # word's positions; on every FIFO word on 1..8 intervals that must give
    # exactly what the construction through Fraction intervals gave
    total = 0
    for k in range(1, 9):
        for word in _fifo_words(k):
            total += 1
            ends, d = _fifo_unit_ends(word)
            units = {iid: model.Interval(Fraction(lo, d), Fraction(hi, d))
                     for iid, (lo, hi) in ends.items()}
            assert units == transforms.proper_to_unit_interval(word_intervals(word)), word
            slotted = [((iid, 0), kind) for iid, kind in word]
            positions = word_intervals(slotted)
            assert _order_leaf(word, INTERVAL_CLASS) == _padded_reference(positions), word
            assert _order_leaf(word, UNIT_INTERVAL) == _padded_reference(
                transforms.proper_to_unit_interval(positions)), word
    assert total == 2055


def test_integer_fifo_check_rejects_containment():
    word = [("i1", OPEN), ("i2", OPEN), ("i2", CLOSE), ("i1", CLOSE)]
    with pytest.raises(RecognizeError, match="oldest open interval"):
        _fifo_unit_ends(word)
    with pytest.raises(RecognizeError, match="oldest open interval"):
        _fifo_unit_ends([("i1", CLOSE)])


def test_unit_certificate_touching_endpoints_survive():
    # unitized certificates may hold closed intervals touching at one
    # point; normalization and the integer re-grid must keep them meeting
    g = domino()
    out = recognize(g, UNIT, BIG)
    assert_member_sound(out, g, UNIT)
    ivs = [iv for _, _, iv in out.certificate.ground_set()]
    assert any(a.hi == b.lo for a in ivs for b in ivs)
    assert intersection_graph(model.normalize(out.certificate)) == g
    assert intersection_graph(transforms.unit_rep_to_integer_xx(out.certificate)) == g


def test_order_feasible_balanced_needs_pairing():
    word = [(("v", 0), OPEN), (("v", 0), CLOSE), (("v", 1), OPEN), (("v", 1), CLOSE)]
    with pytest.raises(TypeError):
        order_feasible(word)
    values = order_feasible(word, {"v": (("v", 0), ("v", 1))})
    assert values is not None


def _chain_word(k, closed=True):
    # vertices 0..k-1: the left intervals nest, 0 innermost, so each is
    # strictly shorter than the next; with `closed`, the right interval of
    # k-1 sits strictly inside that of 0, closing the cycle of strict
    # length inequalities
    lefts = [((v, 0), OPEN) for v in reversed(range(k))]
    lefts += [((v, 0), CLOSE) for v in range(k)]
    if closed:
        rights = [((0, 1), OPEN), ((k - 1, 1), OPEN), ((k - 1, 1), CLOSE), ((0, 1), CLOSE)]
    else:
        rights = [((0, 1), OPEN), ((0, 1), CLOSE), ((k - 1, 1), OPEN), ((k - 1, 1), CLOSE)]
    for v in range(1, k - 1):
        rights += [((v, 1), OPEN), ((v, 1), CLOSE)]
    return lefts + rights, {v: ((v, 0), (v, 1)) for v in range(k)}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_order_feasible_balanced_chain_contradiction(k):
    # len 0 < len 1 < ... < len k-1 < len 0: infeasible; opening the
    # cycle makes the same lefts feasible
    word, pairing = _chain_word(k)
    assert order_feasible(word, pairing) is None
    word, pairing = _chain_word(k, closed=False)
    assert order_feasible(word, pairing) is not None


@pytest.mark.parametrize("pair, message", [
    ((("v", 0), ("x", 1)), "not in the word"),
    ((("v", 0), ("v", 0)), "twice"),
    ((("v", 0),), "two interval ids"),
], ids=["missing-interval", "self-pair", "one-tuple"])
def test_order_feasible_rejects_bad_pairing(pair, message):
    word = [(("v", 0), OPEN), (("v", 0), CLOSE), (("v", 1), OPEN), (("v", 1), CLOSE)]
    with pytest.raises(RecognizeError, match=message):
        order_feasible(word, {"v": pair})


def test_order_feasible_accepts_words_of_balanced_reps():
    # every word read off a balanced representation with distinct
    # endpoints is feasible; the returned values keep the order strict
    # and the lengths balanced
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 6)
        while True:
            ends = {}
            for v in range(n):
                length = rng.randint(1, 12)
                a = rng.randint(0, 60)
                b = a + length + rng.randint(1, 12)
                ends[((v, 0), OPEN)], ends[((v, 0), CLOSE)] = a, a + length
                ends[((v, 1), OPEN)], ends[((v, 1), CLOSE)] = b, b + length
            if len(set(ends.values())) == len(ends):
                break
        word = sorted(ends, key=ends.get)
        pairing = {v: ((v, 0), (v, 1)) for v in range(n)}
        values = order_feasible(word, pairing)
        assert values is not None, word
        assert all(values[a] < values[b] for a, b in zip(word, word[1:]))
        for left, right in pairing.values():
            assert (values[(left, CLOSE)] - values[(left, OPEN)]
                    == values[(right, CLOSE)] - values[(right, OPEN)])


# --- recognize: basics -----------------------------------------------------------


def test_recognize_rejects_empty():
    with pytest.raises(RecognizeError):
        recognize(Graph.build([], []), TWO_INTERVAL, BIG)


def test_recognize_single_vertex():
    g = Graph.build(["a"], [])
    out = recognize(g, TWO_INTERVAL, Budget(10))
    assert_member_sound(out, g, TWO_INTERVAL)


def test_recognize_small_graphs_two_interval():
    for g in (path(2), path(4), cycle(4), cycle(5), complete_bipartite(2, 2)):
        out = recognize(g, TWO_INTERVAL, BIG)
        assert_member_sound(out, g, TWO_INTERVAL)


def test_recognize_k23_xx_separation():
    k23 = complete_bipartite(2, 3)
    out1 = recognize(k23, XX(1), BIG)
    assert out1.is_nonmember()
    out2 = recognize(k23, XX(2), BIG)
    assert_member_sound(out2, k23, XX(2))


def test_recognize_triangle_xx1():
    # the triangle is the line graph of a claw
    g = cycle(3)
    out = recognize(g, XX(1), BIG)
    assert_member_sound(out, g, XX(1))


def test_recognize_domino_unit_and_not_circular():
    d = domino()
    out = recognize(d, UNIT, BIG)
    assert_member_sound(out, d, UNIT)
    out = recognize(d, CIRCULAR_ARC, BIG)
    assert out.is_nonmember()


def test_recognize_k23_balanced_and_not_circular():
    k23 = complete_bipartite(2, 3)
    out = recognize(k23, BALANCED, BIG)
    assert_member_sound(out, k23, BALANCED)
    out = recognize(k23, CIRCULAR_ARC, BIG)
    assert out.is_nonmember()


def test_recognize_circular_arc_cycles():
    for n in (3, 4, 5, 6):
        g = cycle(n)
        out = recognize(g, CIRCULAR_ARC, BIG)
        assert out.is_member()
        assert model.circular_intersection_graph(out.certificate) == g


def test_recognize_circular_universal_stripping():
    # wheel = cycle + universal hub: circular-arc via stripping
    from tik.graphs import wheel

    g = wheel(5)
    out = recognize(g, CIRCULAR_ARC, BIG)
    assert out.is_member()
    assert model.circular_intersection_graph(out.certificate) == g


def test_recognize_triangle_circular():
    out = recognize(cycle(3), CIRCULAR_ARC, BIG)
    assert out.is_member()


def test_recognize_budget_inconclusive():
    out = recognize(domino(), UNIT, Budget(100))
    assert out.is_inconclusive()
    assert out.nodes_used == 101  # first tick over the limit aborts


def test_recognize_determinism():
    d = domino()
    a = recognize(d, UNIT, BIG)
    b = recognize(d, UNIT, BIG)
    assert a.kind == b.kind
    assert a.nodes_used == b.nodes_used
    assert a.certificate.items == b.certificate.items


def test_recognize_interval_class_against_oracle():
    rng = random.Random(97)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 5))
        out = recognize(g, INTERVAL_CLASS, BIG)
        expected = is_interval_graph_oracle(g)
        assert out.kind == ("member" if expected else "nonmember")
        if expected:
            assert_member_sound(out, g, INTERVAL_CLASS)


def test_recognize_unit_interval_on_claw():
    claw = complete_bipartite(1, 3)
    assert recognize(claw, UNIT_INTERVAL, BIG).is_nonmember()
    assert recognize(claw, INTERVAL_CLASS, BIG).is_member()
    p4 = path(4)
    out = recognize(p4, UNIT_INTERVAL, BIG)
    assert_member_sound(out, p4, UNIT_INTERVAL)


def test_recognize_xx_monotone_with_stretch():
    rng = random.Random(13)
    graphs_found = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 5))
        for x in (1, 2):
            out = recognize(g, XX(x), BIG)
            if not out.is_member():
                continue
            graphs_found += 1
            stretched = transforms.stretch(out.certificate)
            assert model.family_check(stretched, XX(x + 1)).ok
            assert intersection_graph(stretched) == g
            out2 = recognize(g, XX(x + 1), BIG)
            assert_member_sound(out2, g, XX(x + 1))
    assert graphs_found > 10


def test_normalization_completeness():
    # recognizing the graph of any closed representation succeeds
    rng = random.Random(7)
    for _ in range(200):
        rep = random_closed_rep(rng, rng.randint(1, 8))
        g = intersection_graph(rep)
        out = recognize(g, TWO_INTERVAL, BIG)
        assert_member_sound(out, g, TWO_INTERVAL)


def test_window_shrink_lemma():
    # sliding everything right of an oversized gap left until the gap is x
    # preserves the intersection graph
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 6)
        x = rng.randint(1, 4)
        rep = random_xx_rep(rng, n, x)
        g = intersection_graph(rep)
        starts = sorted(
            (iv.lo, (v, side)) for v, side, iv in rep.ground_set()
        )
        shrunk = {key: lo for lo, key in starts}
        while True:
            seq = sorted((lo, key) for key, lo in shrunk.items())
            gap_at = None
            for (lo1, _), (lo2, _) in zip(seq, seq[1:]):
                if lo2 - lo1 > x:
                    gap_at = (lo1, lo2)
                    break
            if gap_at is None:
                break
            delta = gap_at[1] - gap_at[0] - x
            for key, lo in shrunk.items():
                if lo >= gap_at[1]:
                    shrunk[key] = lo - delta
        items = {}
        for v in rep.labels():
            items[v] = model.two_interval(
                model.Interval(shrunk[(v, 0)], shrunk[(v, 0)] + x, False, False),
                model.Interval(shrunk[(v, 1)], shrunk[(v, 1)] + x, False, False),
            )
        assert intersection_graph(model.Representation(items)) == g


# --- enumerate_realizations -------------------------------------------------------


def test_enumerate_p2_two_interval():
    g = path(2)
    seen = []
    out = enumerate_realizations(g, TWO_INTERVAL, BIG, seen.append)
    assert out.complete
    assert out.count == len(seen) >= 1
    for rep in seen[:20]:
        assert intersection_graph(rep) == g


def test_enumerate_k23_xx1_empty():
    g = complete_bipartite(2, 3)
    out = enumerate_realizations(g, XX(1), BIG, lambda rep: None)
    assert out.complete and out.count == 0


def test_enumerate_xx_counts_min_zero():
    g = path(2)
    seen = []
    out = enumerate_realizations(g, XX(1), BIG, seen.append)
    assert out.complete and out.count == len(seen) > 0
    for rep in seen:
        lows = [iv.lo for _, _, iv in rep.ground_set()]
        assert min(lows) == 0
        assert intersection_graph(rep) == g


def test_enumerate_rejects_metric_families():
    with pytest.raises(RecognizeError):
        enumerate_realizations(path(2), UNIT, BIG, lambda rep: None)


def test_recognize_circular_single_vertex_and_complete():
    lone = Graph.build(["a"], [])
    out = recognize(lone, CIRCULAR_ARC, BIG)
    assert out.is_member()
    assert model.circular_intersection_graph(out.certificate) == lone
    k4 = Graph.build(list("abcd"), [(a, b) for a in "abcd" for b in "abcd" if a < b])
    out = recognize(k4, CIRCULAR_ARC, BIG)
    assert out.is_member()
    assert model.circular_intersection_graph(out.certificate) == k4


def test_xx_engine_against_window_brute_force():
    from conftest import brute_force_xx_member

    rng = random.Random(137)
    agreements = 0
    for _ in range(120):
        n = rng.randint(1, 3)
        g = random_graph(rng, n, p=0.5)
        for x in (1, 2):
            out = recognize(g, XX(x), BIG)
            expected = brute_force_xx_member(g, x)
            assert out.kind == ("member" if expected else "nonmember"), (g, x)
            agreements += 1
    assert agreements == 240


def _independence_number(adj, vertices):
    # the size of a largest pairwise-nonadjacent subset of `vertices`, by
    # brute force: a graph with no independent k-set has none larger
    best = 0
    for size in range(1, len(vertices) + 1):
        if not any(all(b not in adj[a] for a, b in itertools.combinations(subset, 2))
                   for subset in itertools.combinations(sorted(vertices), size)):
            break
        best = size
    return best


def _adjacency(search):
    # the neighbour sets by vertex index, read off the search's masks
    return [{w for w in range(search.n) if search.adjm[u] >> w & 1}
            for u in range(search.n)]


def _full_scan_edges_alive(search, p):
    # the liveness test as a rescan of every vertex, the reference for the
    # incremental check in _XXSearch._edges_alive
    x = search.x
    pos = search.pos
    copies = search.copies
    cap = 1 if x == 1 else 2
    adj = _adjacency(search)
    for u in range(search.n):
        adj_u = adj[u]
        cov_u = search.covered[u]
        if cov_u.bit_count() == len(adj_u):
            continue
        cu = copies[u]
        e_u = p if cu == 0 else max(p, pos[u][0] + x)
        uncovered = []
        for w in adj_u:
            if cov_u >> w & 1:
                continue
            uncovered.append(w)
            if w < u:
                continue
            cw = copies[w]
            if cu == 2:
                if cw == 2 or pos[u][1] + x <= (
                    p if cw == 0 else max(p, pos[w][0] + x)
                ):
                    return False
            elif cw == 2 and pos[w][1] + x <= e_u:
                return False
        if len(uncovered) > cap:
            kept = _independence_number(adj, uncovered)
            if kept > cap:
                live = 2 - cu
                for i in range(cu):
                    if pos[u][i] > p - x:
                        live += 1
                if cap * live < kept:
                    return False
    return True


def test_incremental_liveness_equals_full_rescan(monkeypatch):
    from conftest import nonisomorphic_graphs
    from tik import recognize as engine

    verdicts = {True: 0, False: 0}

    class Checked(engine._XXSearch):
        def _edges_alive(self, touched, p):
            got = super()._edges_alive(touched, p)
            assert got == _full_scan_edges_alive(self, p), (self.seq, p)
            verdicts[got] += 1
            return got

    monkeypatch.setattr(engine, "_XXSearch", Checked)
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            for x in (1, 2, 3):
                recognize(g, XX(x), Budget(10**5))
            if n <= 4:
                for x in (1, 2):
                    enumerate_realizations(g, XX(x), BIG, lambda rep: None)
    for x in (2, 3):
        recognize(xx_separator(x).graph, XX(x), Budget(2000))
    assert min(verdicts.values()) > 1000, verdicts


def _set_rule_coverage_ok(search, u, word):
    # the coverage test of the endpoint-order engine as it read on vertex
    # sets, from per-vertex slot counts after `word`, with the capacity
    # rule on an exact independent set: the reference for the bitmask test
    # in _OrderSearch._close_ok.  The counts are read off the word, the
    # slots off the family and the cut arcs, the adjacency off the masks
    adj = _adjacency(search)
    one_slot = search.family.kind in ("interval", "unit-interval", "circular-arc")
    slots = [1 if one_slot and not search.cutmask >> v & 1 else 2
             for v in range(search.n)]
    opened, open_now = [0] * search.n, [0] * search.n
    for (v, _), kind in word:
        if kind == OPEN:
            opened[v] += 1
            open_now[v] += 1
        else:
            open_now[v] -= 1
    covered = {w for w in adj[u] if search.covered[u] >> w & 1}

    def possible(u, w):
        u_unopened = opened[u] < slots[u]
        w_unopened = opened[w] < slots[w]
        u_unclosed = u_unopened or open_now[u] > 0
        w_unclosed = w_unopened or open_now[w] > 0
        return (u_unopened and w_unclosed) or (w_unopened and u_unclosed)

    for w in adj[u]:
        if w not in covered and not possible(u, w):
            return False
    if search.fifo:
        uncovered = [w for w in adj[u] if w not in covered]
        live = (slots[u] - opened[u]) + open_now[u]
        if _independence_number(adj, uncovered) > 2 * live:
            return False
    return True


def test_coverage_masks_equal_set_rule(monkeypatch):
    from conftest import nonisomorphic_graphs
    from tik import recognize as engine

    # a close is tested before it is applied, and must get the set rule's
    # verdict on the state after it.  An open is not tested: it covers
    # edges, which only shrinks the independent sets the capacity rule
    # counts, and keeps the opener's intervals not yet closed, so the set
    # rule must pass at the opener once the open is applied.  The
    # refuted-state table is off, so every subtree is walked and every
    # state is seen
    verdicts = {("close", True): 0, ("close", False): 0, ("open", True): 0}

    class Checked(engine._OrderSearch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.table = None

        def _close_ok(self, v):
            got = super()._close_ok(v)
            # apply the close: v's last event so far is the open of the
            # interval it closes
            iid = next(iid for iid, _ in reversed(self.word) if iid[0] == v)
            expected = _set_rule_coverage_ok(self, v, self.word + [(iid, CLOSE)])
            assert got == expected, (self.word, v)
            verdicts["close", got] += 1
            return got

        def _dfs(self):
            for moved in super()._dfs():
                (v, _), kind = self.word[-1]
                if kind == OPEN:
                    assert _set_rule_coverage_ok(self, v, self.word), (self.word, v)
                    verdicts["open", True] += 1
                yield moved

    monkeypatch.setattr(engine, "_OrderSearch", Checked)
    families = (TWO_INTERVAL, BALANCED, UNIT, INTERVAL_CLASS, UNIT_INTERVAL, CIRCULAR_ARC)
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            for family in families:
                recognize(g, family, Budget(10**5))
    # K2 joined to three independent vertices, joined to another K2: with
    # a greedy independent set in label order in the capacity rule, 2,430
    # of its opens failed the rule once applied
    g = from_edge_list("a b\na x\na y\na z\nb x\nb y\nb z\n"
                       "x c\nx d\ny c\ny d\nz c\nz d\nc d\n")
    recognize(g, UNIT, Budget(3 * 10**5))
    assert min(verdicts.values()) > 1000, verdicts


def _cert_json(cert):
    if isinstance(cert, CircularArcRep):
        return circular_to_json(cert)
    return None if cert is None else representation_to_json(cert)


def _table_searches():
    # (label, call) pairs: every graph on at most five vertices in every
    # family, on six as unit (where a key without the begun mask first goes
    # wrong) and on six and seven as circular-arc (a table kept across the
    # cuts through one vertex first goes wrong on seven), the small
    # enumerations, and budget ladders that cut the two searches inside
    # charges the table makes; each call returns what a caller can see of
    # the search
    from conftest import nonisomorphic_graphs

    def recognition(g, family, budget):
        def call():
            out = recognize(g, family, budget)
            return out.kind, out.nodes_used, _cert_json(out.certificate)
        return call

    def enumeration(g, family):
        def call():  # the visited certificates compare by value, in order
            seen = []
            out = enumerate_realizations(g, family, BIG, seen.append)
            return out.complete, out.count, out.nodes_used, seen
        return call

    families = (*FAMILIES.values(), XX(3))
    by_n = {6: (UNIT, CIRCULAR_ARC), 7: (CIRCULAR_ARC,)}
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            for family in by_n.get(n, families):
                yield (g, family), recognition(g, family, Budget(10**5))
    for family, max_n in ((XX(1), 4), (XX(2), 4), (TWO_INTERVAL, 3)):
        for n in range(1, max_n + 1):
            for g in nonisomorphic_graphs(n):
                yield (g, family, "enumeration"), enumeration(g, family)
    for g, family, top, step in ((wheel(9), UNIT, 20_000, 97),
                                 (xx_separator(2).graph, XX(2), 40_000, 499)):
        for b in range(1, top, step):
            yield (g, family, b), recognition(g, family, Budget(b))


def test_refuted_table_equals_full_search(monkeypatch):
    # the table charges a subtree it has seen refuted in one step; a run
    # with the table off walks every subtree and is the reference, so each
    # search must answer alike, node counts, certificates, enumeration
    # order and the stop node of every budget included.  The table records
    # from the first node here, so these short searches use it too: any
    # subset of its records is exact as well
    from tik import recognize as engine

    entered = {True: 0, False: 0}  # _dfs nodes, table on and off
    order_search, xx_search = engine._OrderSearch, engine._XXSearch

    def engines(table):
        class Engine:
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if not table:
                    self.table = None

            def _dfs(self):
                entered[table] += 1
                return super()._dfs()

        class Order(Engine, order_search):
            pass

        class Placement(Engine, xx_search):
            pass

        return Order, Placement

    answers = {}
    for table in (True, False):
        order, placement = engines(table)
        monkeypatch.setattr(engine, "_OrderSearch", order)
        monkeypatch.setattr(engine, "_XXSearch", placement)
        with monkeypatch.context() as m:
            m.setattr(engine, "RECORD_AFTER", 0)
            answers[table] = [(label, call()) for label, call in _table_searches()]
        entered[table] = 0
        recognize(wheel(9), UNIT, Budget(10**5))
    assert len(answers[True]) == len(answers[False])
    for got, expected in zip(answers[True], answers[False]):
        assert got == expected, got[0]
    assert entered[True] < entered[False], entered


def test_record_policy_table_sizes(monkeypatch):
    # any subset of the refuted nodes is exact to record, so answers and
    # node counts cannot see which ones are; the table sizes these searches
    # end with at the default settings pin the record rules (design notes:
    # "Refuted states").  Not counting leaf and table-hit children as
    # yielded gives 2,575 and 345 entries in the second and last search
    from tik import recognize as engine

    searches = []
    run = engine._run

    def capture(search):
        searches.append(search)
        return run(search)

    monkeypatch.setattr(engine, "_run", capture)
    recognize(wheel(7), UNIT, Budget(10**5))
    recognize(wheel(9), UNIT, Budget(10**5))
    recognize(xx_separator(2).graph, XX(2), Budget(10**4))
    enumerate_realizations(k44_minus_e(), XX(2), BIG, lambda rep: None)
    sizes = [sum(map(len, search.table.values())) for search in searches]
    assert sizes == [142, 2_587, 28, 417]


def test_circular_engine_against_brute_force():
    from conftest import brute_force_circular_member

    rng = random.Random(139)
    for _ in range(80):
        n = rng.randint(1, 4)
        g = random_graph(rng, n, p=0.5)
        out = recognize(g, CIRCULAR_ARC, BIG)
        expected = brute_force_circular_member(g)
        assert out.kind == ("member" if expected else "nonmember"), g


def test_circular_engine_on_random_models():
    # most of these models wrap an arc past 0, yet nearly all their graphs
    # are interval; the next test plants models that are not
    from conftest import random_circular_rep

    rng = random.Random(163)
    for _ in range(200):
        ca = random_circular_rep(rng, rng.randint(1, 8))
        g = model.circular_intersection_graph(ca)
        out = recognize(g, CIRCULAR_ARC, Budget(10**5))
        assert_member_sound(out, g, CIRCULAR_ARC)


def test_circular_engine_finds_nonempty_cuts():
    # arcs around the circle that meet only their neighbours induce a
    # chordless cycle, so these graphs are not interval and no model
    # leaves a point of the circle uncovered: every cut the search tries
    # pins arcs at both ends of the word, and it must find one that works
    from conftest import random_circular_rep

    rng = random.Random(173)
    for _ in range(100):
        k = rng.randint(4, 6)
        arcs = {f"c{i}": Arc(q(4 * i), q(4 * i + 5) % (4 * k)) for i in range(k)}
        extra = rng.randint(0, 3)
        if extra:
            other = random_circular_rep(rng, extra)
            scale = q(4 * k) / other.circumference
            for v, a in other.arcs.items():
                arcs[v] = Arc(a.start * scale, a.end * scale)
        g = model.circular_intersection_graph(CircularArcRep(q(4 * k), arcs))
        assert recognize(g, INTERVAL_CLASS, Budget(10**5)).is_nonmember()
        out = recognize(g, CIRCULAR_ARC, Budget(10**5))
        assert_member_sound(out, g, CIRCULAR_ARC)


def test_nonisomorphic_graph_counts():
    from conftest import nonisomorphic_graphs

    # OEIS A000088
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def _all_cliques(search):
    # the reference cut family: every clique of the core, the empty one
    # included, smallest first and lexicographic within a size
    for size in range(search.n + 1):
        for clique in itertools.combinations(range(search.n), size):
            if all(search.adjm[a] >> b & 1 for a, b in itertools.combinations(clique, 2)):
                yield clique


def _census_verdicts(graphs):
    verdicts = {}
    for g in graphs:
        out = recognize(g, CIRCULAR_ARC, Budget(10**5))
        assert not out.is_inconclusive(), g
        if out.is_member():
            assert_member_sound(out, g, CIRCULAR_ARC)
        verdicts[g] = out.kind
    return verdicts


def test_circular_engine_on_small_graph_census(monkeypatch):
    # every graph on at most six vertices is decided, with the cuts
    # through one vertex and with every clique as a cut, alike; the
    # verdicts the cyclic-order engine this one replaced reached at the
    # same budget are frozen in tests/data, and brute force checks up to
    # four vertices
    from conftest import brute_force_circular_member, nonisomorphic_graphs

    graphs = [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
    verdicts = _census_verdicts(graphs)
    assert len(verdicts) == 208
    for g in graphs:
        if g.n <= 4:
            assert (verdicts[g] == "member") == brute_force_circular_member(g), g
    frozen = list(_frozen("circular_arc_small_graphs.json"))
    assert len(frozen) == 149
    for g, entry in frozen:
        assert verdicts[g] == entry["verdict"], g
    monkeypatch.setattr(_OrderSearch, "_cliques", _all_cliques)
    assert _census_verdicts(graphs) == verdicts


def test_circular_cuts_contain_one_least_degree_vertex(monkeypatch):
    # the search tries exactly {c} with each clique of N(c), smallest
    # first, where c is the core's vertex of least degree, the lowest
    # label on ties; an isolated vertex leaves {c} the only cut, and a
    # triangle beside a 4-cycle (not interval, so not circular-arc) has
    # c = "a" in the triangle, with the edge bc in N(c)
    tried = []
    cliques = _OrderSearch._cliques

    def recorded(search):
        for cut in cliques(search):
            tried.append(frozenset(search.labels[v] for v in cut))
            yield cut

    monkeypatch.setattr(_OrderSearch, "_cliques", recorded)
    lone = Graph.build(["a"] + sorted(domino().vertices), domino().edges)
    hub = Graph.build(sorted(domino().vertices) + ["hub"],
                      list(domino().edges) + [(v, "hub") for v in domino().vertices])
    beside = Graph.build("abcwxyz", [("a", "b"), ("a", "c"), ("b", "c"), ("w", "x"),
                                     ("x", "y"), ("y", "z"), ("z", "w")])
    k23, k44 = complete_bipartite(2, 3), complete_bipartite(4, 4)
    for g, core in ((lone, lone), (hub, domino()), (beside, beside), (k23, k23),
                    (petersen(), petersen()), (k44, k44)):
        tried.clear()
        assert recognize(g, CIRCULAR_ARC, BIG).is_nonmember()
        c = min(sorted(core.vertices), key=core.degree)
        through_c = [frozenset(w) | {c}
                     for size in range(core.n)
                     for w in itertools.combinations(sorted(core.neighbors(c)), size)
                     if all(core.has_edge(a, b) for a, b in itertools.combinations(w, 2))]
        assert tried == through_c, g
        if g is lone:
            assert tried == [{"a"}]
        if g is beside:
            assert tried == [{"a"}, {"a", "b"}, {"a", "c"}, {"a", "b", "c"}]


def _frozen(name):
    # graphs of tests/conftest.py nonisomorphic_graphs, labelled v0..v{n-1}
    data = json.loads((Path(__file__).parent / "data" / name).read_text())
    for entry in data["graphs"]:
        labels = [f"v{i}" for i in range(entry["n"])]
        g = Graph.build(labels, [(labels[a], labels[b]) for a, b in entry["edges"]])
        yield g, entry


FAMILIES = {str(f): f for f in (XX(1), XX(2), UNIT, BALANCED, TWO_INTERVAL,
                                UNIT_INTERVAL, INTERVAL_CLASS, CIRCULAR_ARC)}


def test_enumeration_counts_on_small_graph_census():
    # realization counts frozen from the search before the clique-count
    # bound: a sound prune may drop nodes but never a realization
    totals = {}
    for g, entry in _frozen("small_graph_enumeration_counts.json"):
        out = enumerate_realizations(g, FAMILIES[entry["family"]], BIG,
                                     lambda rep: None)
        assert out.complete and out.count == entry["count"], (g, entry["family"])
        totals[entry["family"]] = totals.get(entry["family"], 0) + out.count
    assert totals == {"xx(1)": 6_628, "xx(2)": 2_303, "2interval": 29_873}


def test_verdicts_on_small_graph_census():
    # all 8 families on the 52 graphs with at most five vertices, against
    # the verdicts frozen from the search before the clique-count bound
    pairs = 0
    for g, entry in _frozen("small_graph_verdicts.json"):
        for name, kind in entry["verdicts"].items():
            out = recognize(g, FAMILIES[name], Budget(10**5))
            assert out.kind == kind, (g, name)
            if out.is_member():
                assert_member_sound(out, g, FAMILIES[name])
            pairs += 1
    assert pairs == 416


def test_balanced_engine_on_circular_arc_graphs():
    # every circular-arc graph admits a balanced realization, so the
    # balanced search must return member on these
    from conftest import random_circular_rep

    rng = random.Random(149)
    for _ in range(40):
        ca = random_circular_rep(rng, rng.randint(1, 5))
        g = model.circular_intersection_graph(ca)
        out = recognize(g, BALANCED, BIG)
        assert_member_sound(out, g, BALANCED)


def test_unit_engine_on_proper_circular_arc_graphs():
    # proper circular-arc graphs are unit 2-interval graphs
    from conftest import random_proper_circular_rep

    rng = random.Random(151)
    for _ in range(30):
        ca = random_proper_circular_rep(rng, rng.randint(1, 5))
        g = model.circular_intersection_graph(ca)
        out = recognize(g, UNIT, BIG)
        assert_member_sound(out, g, UNIT)


def test_xx_members_are_unit_members():
    rng = random.Random(157)
    found = 0
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 4), p=0.5)
        for x in (2, 3):
            out = recognize(g, XX(x), BIG)
            if out.is_member():
                found += 1
                scaled = model.affine(out.certificate, q(1) / x, 0)
                assert model.family_check(scaled, UNIT).ok
                out_unit = recognize(g, UNIT, BIG)
                assert_member_sound(out_unit, g, UNIT)
    assert found > 10


def test_star_capacity_boundaries():
    # with open integer length-2 intervals, a vertex's two intervals meet
    # at most four pairwise-disjoint neighbors; stars sit on this boundary
    for m, expected in ((3, "member"), (4, "member"), (5, "nonmember")):
        star = complete_bipartite(1, m)
        out = recognize(star, XX(2), BIG)
        assert out.kind == expected, (m, out.kind)
        out_unit = recognize(star, UNIT, BIG)
        assert out_unit.kind == expected
        if expected == "member":
            assert_member_sound(out, star, XX(2))
            assert_member_sound(out_unit, star, UNIT)


# literal edge lists on vertices 0..n-1, independent of any engine
OBSTRUCTIONS = {
    "K1,5": (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
    "claw": (4, [(0, 1), (0, 2), (0, 3)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    "C6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
    # a triangle with a pendant vertex at each corner
    "net": (6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]),
    # a triangle with a vertex beside each side, adjacent to its two ends
    "tent": (6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (1, 4), (2, 4),
                 (2, 5), (0, 5)]),
}


def test_minimal_obstructions_on_six_vertices():
    # the paper's K_{1,5}-freeness: on at most six vertices the only
    # vertex-minimal nonmember of unit, and of xx(2), is K_{1,5}; those of
    # unit-interval are the claw, C4, C5, C6, the net and the tent, the
    # forbidden graphs of proper interval graphs (Roberts).  Every family
    # is closed under induced subgraphs, so a nonmember is vertex-minimal
    # iff deleting any one vertex leaves a member
    from conftest import _canonical_key, nonisomorphic_graphs

    def key(g):  # equal iff the graphs are isomorphic
        index = {v: i for i, v in enumerate(sorted(g.vertices))}
        return _canonical_key(g.n, [(index[a], index[b]) for a, b in g.edges])

    names = {_canonical_key(n, edges): name for name, (n, edges) in OBSTRUCTIONS.items()}
    graphs = [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
    expected = {UNIT: {"K1,5"}, XX(2): {"K1,5"},
                UNIT_INTERVAL: {"claw", "C4", "C5", "C6", "net", "tent"}}
    for family, obstructions in expected.items():
        is_member = {}
        for g in graphs:
            out = recognize(g, family, Budget(10**5))
            assert not out.is_inconclusive(), (g, family)
            is_member[key(g)] = out.is_member()
        minimal = [
            names.get(key(g), g) for g in graphs
            if not is_member[key(g)]
            and all(is_member[key(g.induced(set(g.vertices) - {v}))] for v in g.vertices)
        ]
        assert sorted(minimal, key=str) == sorted(obstructions), family


def test_k53_is_balanced_but_not_unit():
    k53 = complete_bipartite(5, 3)
    assert recognize(k53, UNIT, BIG).is_nonmember()
    # and the frozen balanced fixture shows the balanced side
    from tik.gadgets import k53_balanced_realization

    assert model.intersection_graph(k53_balanced_realization()) == k53


# --- search loop ------------------------------------------------------------------


@pytest.mark.parametrize("g, family", [
    (path(300), TWO_INTERVAL),
    (path(600), INTERVAL_CLASS),
    (path(520), XX(2)),
], ids=["path300-2interval", "path600-interval", "path520-xx2"])
def test_deep_search_answers(g, family):
    # these searches run more than a thousand moves deep
    out = recognize(g, family, BIG)
    assert_member_sound(out, g, family)


@pytest.mark.parametrize("g, family, kind, nodes", [
    (domino(), UNIT, "member", 309),
    (complete_bipartite(2, 3), BALANCED, "member", 51),
    (complete_bipartite(2, 3), CIRCULAR_ARC, "nonmember", 60),
    (domino(), XX(2), "member", 113),
    (cycle(5), INTERVAL_CLASS, "nonmember", 5),
    (path(200), TWO_INTERVAL, "member", 2_081),
    # balanced members whose one leaf goes through the LP
    (complete_bipartite(3, 3), BALANCED, "member", 75),
    (complete_bipartite(2, 4), BALANCED, "member", 84),
    (petersen(), BALANCED, "member", 175),
    (complete_bipartite(3, 4), BALANCED, "member", 78),
    # circular-arc: {c} with each clique of N(c) as a cut, for a vertex c
    # of least degree
    (domino(), CIRCULAR_ARC, "nonmember", 72),
    (complete_bipartite(4, 4), CIRCULAR_ARC, "nonmember", 176),
    (petersen(), CIRCULAR_ARC, "nonmember", 170),
    (cycle(20), CIRCULAR_ARC, "member", 185),
    # the clique-count bound is tight (15 = 2 * 8 - 1) or exceeded (16)
    (complete_bipartite(5, 3), BALANCED, "member", 143),
    (complete_bipartite(4, 4), TWO_INTERVAL, "nonmember", 8),
    # a deep placement search: liveness re-checks only what a move touched
    (path(600), XX(1), "member", 183_090),
    # the placement engine's capacity rule on the exact independence
    # number: a greedy count in label order leaves 74,962 nodes here
    (wheel(5), XX(1), "nonmember", 2_450),
    # a position tie in a gap the clique-count bound rules out whole: only
    # the candidates after the last placed copy are nodes there
    (Graph.build([f"v{i}" for i in range(7)],
                 [("v0", "v4"), ("v0", "v5"), ("v1", "v5"), ("v1", "v6"), ("v2", "v4"),
                  ("v2", "v5"), ("v2", "v6"), ("v3", "v4"), ("v3", "v5"), ("v3", "v6"),
                  ("v4", "v6"), ("v5", "v6")]), XX(2), "member", 2_398),
], ids=["domino-unit", "k23-balanced", "k23-circular-arc", "domino-xx2",
        "c5-interval", "path200-2interval", "k33-balanced", "k24-balanced",
        "petersen-balanced", "k34-balanced", "domino-circular-arc",
        "k44-circular-arc", "petersen-circular-arc", "c20-circular-arc",
        "k53-balanced", "k44-2interval", "path600-xx1", "wheel5-xx1",
        "tie-in-dead-gap-xx2"])
def test_node_counts_pinned(g, family, kind, nodes):
    out = recognize(g, family, BIG)
    assert (out.kind, out.nodes_used) == (kind, nodes)
    if out.is_member():
        assert_member_sound(out, g, family)


def test_enumeration_counts_pinned():
    for n, count, nodes in ((3, 1_968, 8_764), (4, 51_880, 269_820)):
        out = enumerate_realizations(path(n), TWO_INTERVAL, BIG, lambda rep: None)
        assert (out.complete, out.count, out.nodes_used) == (True, count, nodes), n


# sha256 of tik's JSON of the certificate: the census digests stop at
# seven vertices, and these long words reach every line of the leaves
@pytest.mark.parametrize("g,family,nodes,digest", [
    (path(300), INTERVAL_CLASS, 18_734,
     "11142d4722a289c9b2eff554f12e5fb68b40b36d3ff578e828bf4793640dd735"),
    (path(300), UNIT_INTERVAL, 18_734,
     "e714e9fa3dd95bd2623ffa82f69b74b729554bf8efa717a9a98828091afc511f"),
    (path(60), UNIT, 248_277,
     "6e3dc7396973ba3587470bf182385a2a0170482fd28900e4aca48de067017cf6"),
    (wheel(8), UNIT, 4_270,
     "207674fcc19e23686c4c762d0ad04b7022686ca7ca0f03e76fb1024709c8371d"),
], ids=["path300-interval", "path300-unit-interval", "path60-unit", "wheel8-unit"])
def test_long_word_certificates_pinned(g, family, nodes, digest):
    out = recognize(g, family, BIG)
    assert (out.kind, out.nodes_used) == ("member", nodes)
    text = dump_json(representation_to_json(out.certificate))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert_member_sound(out, g, family)


# --- differential: the class hierarchy ----------------------------------------------


@st.composite
def small_graphs(draw, max_n=5):
    vs = [f"v{i}" for i in range(draw(st.integers(1, max_n)))]
    pairs = list(itertools.combinations(vs, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.build(vs, [e for e, k in zip(pairs, keep) if k])


@st.composite
def relabelled_graphs(draw, max_n=6):
    """(g, relabel, h): a graph g on at most max_n vertices, a random
    permutation `relabel` of its labels, and h, the graph g with each
    label v renamed relabel[v]."""
    g = draw(small_graphs(max_n))
    labels = sorted(g.vertices)
    relabel = dict(zip(labels, draw(st.permutations(labels))))
    h = Graph.build(labels, [(relabel[a], relabel[b]) for a, b in g.edges])
    return g, relabel, h


# (smaller class, larger class): membership must carry upwards
HIERARCHY = [
    (XX(1), XX(2)),
    (XX(2), UNIT),
    (UNIT, BALANCED),
    (BALANCED, TWO_INTERVAL),
    (UNIT_INTERVAL, INTERVAL_CLASS),
    (INTERVAL_CLASS, CIRCULAR_ARC),
    (CIRCULAR_ARC, BALANCED),  # transforms.balanced_from_circular_arc
]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(small_graphs())
def test_hierarchy_is_monotone(g):
    outs = {}
    for family in (XX(1), XX(2), UNIT, BALANCED, TWO_INTERVAL,
                   UNIT_INTERVAL, INTERVAL_CLASS, CIRCULAR_ARC):
        out = recognize(g, family, Budget(10**5))
        if out.is_member():
            assert_member_sound(out, g, family)
        outs[family] = out
    for small, large in HIERARCHY:
        if outs[small].is_member():
            assert not outs[large].is_nonmember(), (small, large)
    interval = outs[INTERVAL_CLASS]
    if not interval.is_inconclusive():
        assert interval.is_member() == is_interval_graph_oracle(g)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(relabelled_graphs())
def test_relabelling_keeps_verdicts_and_nonmember_counts(drawn):
    # every prune reads the graph, not its labels, so a nonmember proof
    # walks an isomorphic search tree under any labelling and charges the
    # same nodes.  Circular-arc is left out: it picks its cut vertex by
    # index among those of least degree
    g, _, h = drawn
    for family in (UNIT, UNIT_INTERVAL, INTERVAL_CLASS, TWO_INTERVAL, BALANCED):
        out, relabelled = (recognize(g, family, Budget(10**5)),
                           recognize(h, family, Budget(10**5)))
        assert out.kind == relabelled.kind != "inconclusive", family
        if out.is_nonmember():
            assert out.nodes_used == relabelled.nodes_used, family


# --- budget semantics ---------------------------------------------------------------


def _stop_enumeration(g, family):
    def run(budget, visitor=lambda rep: None):
        out = enumerate_realizations(g, family, budget, visitor)
        return ("complete" if out.complete else "inconclusive"), out.nodes_used, out.count
    return run


def _stop_recognition(g, family):
    def run(budget, visitor=None):  # a recognition visits nothing
        out = recognize(g, family, budget)
        return out.kind, out.nodes_used
    return run


# (search, reference budget): where the reference run is cut off too, only
# budgets up to it are checked
BUDGET_STOP_CASES = {
    "domino-xx2": (_stop_recognition(domino(), XX(2)), BIG),
    "k44e-xx2-enumeration": (_stop_enumeration(k44_minus_e(), XX(2)), BIG),
    "xx-separator2-xx2": (_stop_recognition(xx_separator(2).graph, XX(2)), Budget(3000)),
    "wheel7-unit": (_stop_recognition(wheel(7), UNIT), Budget(3000)),
    "path60-interval": (_stop_recognition(path(60), INTERVAL_CLASS), BIG),
    "k23-circular-arc": (_stop_recognition(complete_bipartite(2, 3), CIRCULAR_ARC), BIG),
    # non-FIFO with several intervals open at once: to budget 3000 it drops
    # 435 closes untried, at 19 nodes two or more of them in one charge
    "c4-2interval-enumeration": (_stop_enumeration(cycle(4), TWO_INTERVAL), Budget(3000)),
}


@pytest.mark.parametrize("case", list(BUDGET_STOP_CASES))
def test_budget_stops_at_the_same_node(case, monkeypatch):
    # a budget of b nodes ends a search that needs N nodes with the same
    # answer when b >= N, and otherwise as inconclusive after exactly b + 1
    # nodes, however the engines charge the nodes they skip.  An
    # enumeration cut off at b has visited what the reference run visited
    # with at most b nodes charged, so a bulk charge that jumps over a
    # visit shows too.  Every budget to 600, every 7th to 3000 and a stride
    # beyond: each run costs b nodes
    from tik import recognize as engine

    counters = []

    class Counter(engine._Counter):
        def __init__(self, limit):
            super().__init__(limit)
            counters.append(self)

    monkeypatch.setattr(engine, "_Counter", Counter)
    stamps = []  # nodes charged at each visit of the reference run
    run, reference = BUDGET_STOP_CASES[case]
    kind, total, *count = run(reference, lambda rep: stamps.append(counters[-1].nodes))
    assert len(stamps) == sum(count)
    last = min(total, reference.max_nodes)
    budgets = [*range(1, 601), *range(601, 3001, 7),
               *range(3000, last, max(1, (last - 3000) // 4)), total - 1, total]
    for b in sorted({b for b in budgets if b <= last}):
        if b >= total:
            expected = (kind, total, *count)
        elif count:
            expected = ("inconclusive", b + 1, bisect.bisect_right(stamps, b))
        else:
            expected = ("inconclusive", b + 1)
        assert run(Budget(b)) == expected, b
