import itertools
import random

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
from tik.graphs import (
    Graph,
    complete_bipartite,
    cycle,
    domino,
    from_edge_list,
    path,
    petersen,
)
from tik.model import (
    BALANCED,
    CIRCULAR_ARC,
    INTERVAL_CLASS,
    TWO_INTERVAL,
    UNIT,
    UNIT_INTERVAL,
    XX,
    intersection_graph,
    q,
)
from tik.recognize import (
    CLOSE,
    OPEN,
    Budget,
    RecognizeError,
    check_word,
    enumerate_realizations,
    order_feasible,
    recognize,
    word_intervals,
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


def _unitized(word):
    # the certificate path of the unit engines: FIFO word -> proper
    # position intervals -> unit intervals
    for family in (UNIT, UNIT_INTERVAL):
        with pytest.raises(RecognizeError, match="does not handle"):
            order_feasible(word, family)
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
    with pytest.raises(RecognizeError):
        order_feasible(word, BALANCED)
    values = order_feasible(word, BALANCED, {"v": (("v", 0), ("v", 1))})
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
    assert order_feasible(word, BALANCED, pairing) is None
    word, pairing = _chain_word(k, closed=False)
    assert order_feasible(word, BALANCED, pairing) is not None


@pytest.mark.parametrize("pair, message", [
    ((("v", 0), ("x", 1)), "not in the word"),
    ((("v", 0), ("v", 0)), "twice"),
    ((("v", 0),), "two interval ids"),
], ids=["missing-interval", "self-pair", "one-tuple"])
def test_order_feasible_rejects_bad_pairing(pair, message):
    word = [(("v", 0), OPEN), (("v", 0), CLOSE), (("v", 1), OPEN), (("v", 1), CLOSE)]
    with pytest.raises(RecognizeError, match=message):
        order_feasible(word, BALANCED, {"v": pair})


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
        values = order_feasible(word, BALANCED, pairing)
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


def test_circular_engine_against_brute_force():
    from conftest import brute_force_circular_member

    rng = random.Random(139)
    for _ in range(80):
        n = rng.randint(1, 4)
        g = random_graph(rng, n, p=0.5)
        out = recognize(g, CIRCULAR_ARC, BIG)
        expected = brute_force_circular_member(g)
        assert out.kind == ("member" if expected else "nonmember"), g


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
    (domino(), UNIT, "member", 430),
    (complete_bipartite(2, 3), BALANCED, "member", 51),
    (complete_bipartite(2, 3), CIRCULAR_ARC, "nonmember", 71_731),
    (domino(), XX(2), "member", 113),
    (cycle(5), INTERVAL_CLASS, "nonmember", 80),
    (path(200), TWO_INTERVAL, "member", 2_081),
    # balanced members whose one leaf goes through the LP
    (complete_bipartite(3, 3), BALANCED, "member", 465),
    (complete_bipartite(2, 4), BALANCED, "member", 84),
    (petersen(), BALANCED, "member", 895),
    (complete_bipartite(3, 4), BALANCED, "member", 8_455),
], ids=["domino-unit", "k23-balanced", "k23-circular-arc", "domino-xx2",
        "c5-interval", "path200-2interval", "k33-balanced", "k24-balanced",
        "petersen-balanced", "k34-balanced"])
def test_node_counts_pinned(g, family, kind, nodes):
    out = recognize(g, family, BIG)
    assert (out.kind, out.nodes_used) == (kind, nodes)
    if out.is_member():
        assert_member_sound(out, g, family)


def test_enumeration_counts_pinned():
    out = enumerate_realizations(path(3), TWO_INTERVAL, BIG, lambda rep: None)
    assert (out.complete, out.count, out.nodes_used) == (True, 1_968, 8_764)


# --- differential: the class hierarchy ----------------------------------------------


@st.composite
def small_graphs(draw):
    vs = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    pairs = list(itertools.combinations(vs, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.build(vs, [e for e, k in zip(pairs, keep) if k])


# (smaller class, larger class): membership must carry upwards
HIERARCHY = [
    (XX(1), XX(2)),
    (XX(2), UNIT),
    (UNIT, BALANCED),
    (BALANCED, TWO_INTERVAL),
    (UNIT_INTERVAL, INTERVAL_CLASS),
]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(small_graphs())
def test_hierarchy_is_monotone(g):
    outs = {}
    for family in (XX(1), XX(2), UNIT, BALANCED, TWO_INTERVAL,
                   UNIT_INTERVAL, INTERVAL_CLASS):
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
