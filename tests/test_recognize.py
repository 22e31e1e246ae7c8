import bisect
import hashlib
import itertools
import json
import math
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
from tik.io_cli import dump_json, rep_to_json
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
    _masks,
    _OrderSearch,
    enumerate_realizations,
    order_feasible,
    recognize,
)

BIG = Budget(10**7)


# --- order words ---------------------------------------------------------------

# the event-word readers and the balanced LP as they were before
# `model.word_ends` became the one reader of the format, kept as the
# references the tests below compare against


def _reference_check_word(word):
    # each interval id appears exactly twice, open before close
    state = {}
    for iid, kind in word:
        if kind not in (OPEN, CLOSE):
            raise RecognizeError(f"bad event kind {kind!r}")
        prev = state.get(iid, 0)
        if kind == OPEN:
            if prev != 0:
                raise RecognizeError(f"interval {iid!r} opened twice")
            state[iid] = 1
        else:
            if prev != 1:
                raise RecognizeError(f"interval {iid!r} closed out of order")
            state[iid] = 2
    bad = [iid for iid, s in state.items() if s != 2]
    if bad:
        raise RecognizeError(f"intervals never closed: {bad!r}")


def _reference_position_ends(word):
    # {interval id: [open position, close position or None]}
    ends = {}
    for i, (iid, kind) in enumerate(word):
        if kind == OPEN:
            ends[iid] = [i, None]
        else:
            ends[iid][1] = i
    return ends


def _reference_order_feasible(word, pairing):
    # {event: value} or None; `pairing` maps each vertex to its two ids
    from tik import lp

    word = list(word)
    _reference_check_word(word)
    m = len(word)
    if m == 0:
        return {}
    index = {event: i for i, event in enumerate(word)}

    def gap_range(iid):
        return range(index[(iid, OPEN)], index[(iid, CLOSE)])

    n_gaps = m - 1
    a_eq, b_eq = [], []
    for v in sorted(pairing, key=repr):
        left, right = pairing[v]
        row = [0] * n_gaps
        for gi in gap_range(left):
            row[gi] += 1
        for gi in gap_range(right):
            row[gi] -= 1
        rhs = -sum(row)
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
        a_eq.append(row)
        b_eq.append(rhs)
    status, h, _ = lp.solve_lp([0] * n_gaps, [], [], a_eq, b_eq)
    if status != lp.OPTIMAL:
        return None
    den = math.lcm(*(x.denominator for x in h))
    values = {word[0]: Fraction(0)}
    acc = 0
    for event, x in zip(word[1:], h):
        acc += den + x.numerator * (den // x.denominator)
        values[event] = Fraction(acc, den)
    return values


def _reference_ends(word):
    # the reference LP on the pairing {v: ((v, 0), (v, 1))} of the word's
    # ids, its values turned into ends as the balanced leaf turned them
    pairing = {v: ((v, 0), (v, 1)) for (v, _), _ in word}
    values = _reference_order_feasible(word, pairing)
    if values is None:
        return None
    return {iid: (at, values[(iid, CLOSE)])
            for (iid, kind), at in values.items() if kind == OPEN}


MALFORMED_WORDS = [
    [("a", OPEN), ("a", 2)],  # bad event kind
    [("a", OPEN), ("a", OPEN)],  # opened twice
    [("a", OPEN), ("a", CLOSE), ("a", OPEN)],  # opened again
    [("a", CLOSE)],  # closed before it opened
    [("a", OPEN), ("a", CLOSE), ("a", CLOSE)],  # closed twice
]


def test_word_ends_rejects_malformed():
    # word_ends raises the reference's messages; an interval that never
    # closes keeps None, and order_feasible rejects it with the reference's
    # message
    for word in MALFORMED_WORDS:
        with pytest.raises(RecognizeError) as expected:
            _reference_check_word(word)
        with pytest.raises(model.ModelError) as got:
            model.word_ends(word)
        assert str(got.value) == str(expected.value), word
    word = [(("v", 0), OPEN), (("v", 0), CLOSE), (("v", 1), OPEN)]
    assert model.word_ends(word) == {("v", 0): [0, 1], ("v", 1): [2, None]}
    with pytest.raises(RecognizeError) as expected:
        _reference_check_word(word)
    with pytest.raises(RecognizeError) as got:
        order_feasible(word)
    assert str(got.value) == str(expected.value) == "intervals never closed: [('v', 1)]"


def _random_intervals(rng, k):
    # k intervals with ends over denominators 1..4 on [-3, 3], every
    # closedness mix, ties and closed points among them
    ends = sorted({Fraction(a, d) for d in (1, 2, 3, 4) for a in range(-3 * d, 3 * d + 1)})
    ivs = {}
    while len(ivs) < k:
        lo, hi = sorted(rng.choices(ends, k=2))
        closed = (True, True) if lo == hi else (rng.random() < 0.5, rng.random() < 0.5)
        ivs[(rng.randrange(k), len(ivs))] = model.Interval(lo, hi, *closed)
    return ivs


def test_word_ends_equals_the_position_reader(monkeypatch):
    # on every leaf word of the 2interval, interval and circular-arc
    # searches over the graphs on at most five vertices (circular-arc
    # leaves hold suffixes that never close), the 2interval enumerations
    # on at most three, and 500 event words of random interval systems
    from conftest import nonisomorphic_graphs
    from tik import recognize as engine

    words = []

    def keep(word):
        words.append(list(word))
        return model.word_ends(word)

    monkeypatch.setattr(engine, "word_ends", keep)
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            for family in (TWO_INTERVAL, INTERVAL_CLASS, CIRCULAR_ARC):
                recognize(g, family, Budget(10**5))
            if n <= 3:
                enumerate_realizations(g, TWO_INTERVAL, BIG, lambda rep: None)
    monkeypatch.undo()
    rng = random.Random(3301)
    for _ in range(500):
        word = model.event_word(_random_intervals(rng, rng.randint(0, 12)))
        _reference_check_word(word)
        words.append(word)
    unclosed = 0
    for word in words:
        ends = model.word_ends(word)
        assert list(ends.items()) == list(_reference_position_ends(word).items()), word
        unclosed += any(hi is None for _, hi in ends.values())
    assert len(words) > 1000 and unclosed > 20, (len(words), unclosed)


def word_intervals(word):
    # the closed intervals {id: Interval} of a word, with endpoints at the
    # events' positions: proper_to_unit_interval of these is the reference
    # for the unit engines' integer unitization of the word itself
    ends = {}
    for i, (iid, _) in enumerate(word):
        ends.setdefault(iid, []).append(i)
    return {iid: model.Interval(q(lo), q(hi)) for iid, (lo, hi) in ends.items()}


def _unitized(word):
    # the certificate path of the unit engines: FIFO word -> proper
    # position intervals -> unit intervals
    return transforms.proper_to_unit_interval(word_intervals(word))


def test_fifo_unitization_staggered():
    word = [("i1", OPEN), ("i2", OPEN), ("i1", CLOSE), ("i2", CLOSE)]
    units = _unitized(word)
    assert units["i1"].length == units["i2"].length == 1
    assert units["i1"].lo < units["i2"].lo <= units["i1"].hi
    assert model.intersects(units["i1"], units["i2"])


def test_fifo_unitization_refuses_containment():
    # the unit engines never build this word (FIFO close rule); the
    # unitization refuses it
    word = [("i1", OPEN), ("i2", OPEN), ("i2", CLOSE), ("i1", CLOSE)]
    with pytest.raises(transforms.TransformError, match="containment"):
        _unitized(word)


def test_fifo_unitization_disjoint():
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
    search = _OrderSearch(*_masks(Graph(labels, frozenset())), family, _Counter(1))
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
            # the position intervals give the word back as their event word
            assert model.event_word(word_intervals(word)) == word
            d = 2 * k
            order, starts = transforms.fifo_starts(word, 1, d)
            units = {iid: model.Interval(Fraction(a, d), Fraction(a + d, d))
                     for iid, a in zip(order, starts)}
            assert units == transforms.proper_to_unit_interval(word_intervals(word)), word
            slotted = [((iid, 0), kind) for iid, kind in word]
            positions = word_intervals(slotted)
            assert _order_leaf(word, INTERVAL_CLASS) == _padded_reference(positions), word
            assert _order_leaf(word, UNIT_INTERVAL) == _padded_reference(
                transforms.proper_to_unit_interval(positions)), word
    assert total == 2055


def test_integer_fifo_check_rejects_containment():
    word = [("i1", OPEN), ("i2", OPEN), ("i2", CLOSE), ("i1", CLOSE)]
    with pytest.raises(transforms.TransformError, match="'i2' within 'i1'"):
        transforms.fifo_starts(word, 1, 4)
    with pytest.raises(transforms.TransformError, match="not open"):
        transforms.fifo_starts([("i1", CLOSE)], 1, 2)


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


def test_order_feasible_takes_the_word_alone():
    # the two intervals of a vertex v are read off the ids (v, 0), (v, 1)
    word = [(("v", 0), OPEN), (("v", 0), CLOSE), (("v", 1), OPEN), (("v", 1), CLOSE)]
    assert order_feasible(word) == {("v", 0): (0, 1), ("v", 1): (2, 3)}
    with pytest.raises(TypeError):
        order_feasible(word, {"v": (("v", 0), ("v", 1))})


def test_order_feasible_of_the_empty_word():
    # no vertex, no rows: the empty word is feasible with no ends
    assert order_feasible([]) == {}


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
    return lefts + rights


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_order_feasible_balanced_chain_contradiction(k):
    # len 0 < len 1 < ... < len k-1 < len 0: infeasible; opening the
    # cycle makes the same lefts feasible
    assert order_feasible(_chain_word(k)) is None
    assert order_feasible(_chain_word(k, closed=False)) is not None


def _closed_pairs(*ids):
    # each id opened and closed in turn
    return [(iid, kind) for iid in ids for kind in (OPEN, CLOSE)]


@pytest.mark.parametrize("word, error, message", [
    (_closed_pairs(("v", 0), ("x", 1)), RecognizeError, "'v' has one interval"),
    (_closed_pairs(("v", 0), ("v", 0)), model.ModelError, "opened twice"),
    (_closed_pairs(("v",), ("v", 1)), RecognizeError, r"\('v',\) is not a pair"),
    (_closed_pairs(("v", 0)), RecognizeError, "'v' has one interval"),
    (_closed_pairs(("v", 1)), RecognizeError, "'v' has one interval"),
    (_closed_pairs(("v", 2), ("v", 0)), RecognizeError, r"\('v', 2\) is not a pair"),
    (_closed_pairs(("v", 0), ("v", 1), ("v", 0, 1)), RecognizeError, "is not a pair"),
    (_closed_pairs("v0", "v1"), RecognizeError, "'v0' is not a pair"),
    (_closed_pairs(7), RecognizeError, "7 is not a pair"),
    (_closed_pairs((0, 0), (0, 1), (1, 0)), RecognizeError, "1 has one interval"),
], ids=["missing-interval", "self-pair", "one-tuple", "one-slot", "slot-1-alone",
        "slot-2", "three-tuple", "two-letter-strings", "int", "last-vertex-one-slot"])
def test_order_feasible_rejects_bad_pairing(word, error, message):
    # the ids must be exactly (v, 0) and (v, 1) for each vertex v; an id
    # named twice is a malformed word.  "v0" would unpack as a pair
    with pytest.raises(error, match=message):
        order_feasible(word)


def _words_of_balanced_reps(max_n=6, scale=1, seed=5):
    # 300 words read off random balanced representations with distinct
    # endpoints on 1..max_n vertices; `scale` widens the ranges the ends
    # are drawn from, so that many vertices still find distinct ones
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randint(1, max_n)
        while True:
            ends = {}
            for v in range(n):
                length = rng.randint(1, 12 * scale)
                a = rng.randint(0, 60 * scale)
                b = a + length + rng.randint(1, 12 * scale)
                ends[((v, 0), OPEN)], ends[((v, 0), CLOSE)] = a, a + length
                ends[((v, 1), OPEN)], ends[((v, 1), CLOSE)] = b, b + length
            if len(set(ends.values())) == len(ends):
                break
        yield sorted(ends, key=ends.get)


def test_order_feasible_accepts_words_of_balanced_reps():
    # every word read off a balanced representation with distinct
    # endpoints is feasible; the returned ends keep the order strict and
    # the lengths balanced
    for word in _words_of_balanced_reps():
        ends = order_feasible(word)
        assert ends is not None, word
        values = [ends[iid][kind] for iid, kind in word]  # OPEN is 0, CLOSE 1
        assert all(a < b for a, b in zip(values, values[1:]))
        for (v, slot), (lo, hi) in ends.items():
            other_lo, other_hi = ends[(v, 1 - slot)]
            assert hi - lo == other_hi - other_lo


# balanced members whose searches reach leaves that order_feasible, the
# one leaf check that can reject a leaf, rejects: six of seven leaves on
# nine vertices, four of five on ten.  The first of those four is the leaf
# where the same search as 2interval stops, at 9,223 nodes; as balanced it
# goes on to 9,269
LP_REJECTS_9 = from_edge_list("v1 v3\nv1 v4\nv1 v6\nv1 v7\nv1 v8\nv1 v9\n"
                              "v2 v3\nv2 v4\nv2 v5\nv2 v9\nv3 v6\nv4 v5\n"
                              "v4 v7\nv4 v9\nv5 v6\nv5 v8\nv5 v9\nv6 v9\n"
                              "v8 v9\n")
LP_REJECTS_10 = from_edge_list("v1 v10\nv1 v2\nv1 v8\nv2 v10\nv5 v10\n"
                               "v6 v10\nv7 v10\nv8 v10\nv2 v4\nv3 v4\n"
                               "v3 v5\nv3 v7\nv4 v5\nv4 v6\nv5 v8\nv6 v8\n"
                               "v6 v9\n")


def test_balanced_leaves_rejected_by_the_lp(monkeypatch):
    # balanced words whose length equalities have no solution: every leaf
    # but the last is rejected, and the certificate re-verifies
    from tik import recognize as engine

    answers = []

    def spy(word):
        ends = order_feasible(word)
        answers.append(ends is not None)
        return ends

    monkeypatch.setattr(engine, "order_feasible", spy)
    for g, nodes, leaves in ((LP_REJECTS_9, 5_967, 7), (LP_REJECTS_10, 9_269, 5)):
        answers.clear()
        outcome = recognize(g, BALANCED, BIG)
        assert_member_sound(outcome, g, BALANCED)
        assert outcome.nodes_used == nodes
        assert answers == [False] * (leaves - 1) + [True]
    assert recognize(LP_REJECTS_10, TWO_INTERVAL, BIG).nodes_used == 9_223


def _fraction_prefix_sums(word, h):
    # each event's value as a running Fraction sum of the gaps 1 + h
    values, acc = {}, Fraction(0)
    for i, event in enumerate(word):
        if i > 0:
            acc += 1 + h[i - 1]
        values[event] = acc
    return values


# a word whose LP answer has gaps of 1/2 (one in 20,000 random words of
# two to five vertices): "v.s" is interval s of vertex v, opened where it
# is first named and closed where it is named again
HALVES_WORD = "0.0 3.0 3.1 2.0 1.0 0.0 0.1 2.1 3.0 2.0 1.1 3.1 0.1 2.1 1.0 1.1"


def _parse_word(text):
    word, opened = [], set()
    for token in text.split():
        iid = tuple(map(int, token.split(".")))
        word.append((iid, CLOSE if iid in opened else OPEN))
        opened.add(iid)
    return word


def _lp_rejects_leaf_words(monkeypatch):
    # every leaf word of the balanced searches of LP_REJECTS_9 and
    # LP_REJECTS_10, in the order they are reached
    from tik import recognize as engine

    leaves = []

    def keep(word):
        leaves.append(list(word))
        return order_feasible(word)

    monkeypatch.setattr(engine, "order_feasible", keep)
    for g in (LP_REJECTS_9, LP_REJECTS_10):
        recognize(g, BALANCED, BIG)
    monkeypatch.undo()
    return leaves


def test_order_feasible_prefix_sums_match_fraction_sums(monkeypatch):
    # the integer prefix sums give the ends a Fraction sum over the LP's
    # gaps gives, on the 300 words above, a word with gaps of 1/2 and every
    # leaf word of the two balanced searches whose LP rejects leaves
    from tik import lp

    leaves = [_parse_word(HALVES_WORD)] + _lp_rejects_leaf_words(monkeypatch)
    solved, solve = [], lp.solve_lp

    def spy(*args):
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(lp, "solve_lp", spy)
    fractional = rejected = 0
    for word in list(_words_of_balanced_reps()) + leaves:
        solved.clear()
        ends = order_feasible(word)
        (status, h, _), = solved
        if status != lp.OPTIMAL:
            assert ends is None
            rejected += 1
            continue
        values = _fraction_prefix_sums(word, h)
        assert ends == {iid: (values[iid, OPEN], values[iid, CLOSE])
                        for iid, kind in word if kind == OPEN}, word
        assert list(ends) == [iid for iid, kind in word if kind == OPEN]
        assert all(type(x) is Fraction for pair in ends.values() for x in pair)
        fractional += any(x.denominator > 1 for x in h)
    assert (rejected, fractional) == (10, 1)


def test_order_feasible_equals_the_pairing_reference(monkeypatch):
    # the LP that reads each vertex's pair off the ids solves the pairing
    # reference's LP, rows in the same order, and gives its ends, in its
    # order, on 300 random balanced words on 1 to 12 vertices (from 11 on,
    # repr sorts vertex 10 before 2), on HALVES_WORD and on every leaf word
    # of the two searches whose LP rejects leaves; balanced searches answer
    # alike with the reference at their leaves
    from tik import lp
    from tik import recognize as engine

    words = (list(_words_of_balanced_reps(12, 50, 3302)) + [_parse_word(HALVES_WORD)]
             + _lp_rejects_leaf_words(monkeypatch))
    lps, solve = [], lp.solve_lp

    def spy(*args):
        lps.append(args)
        return solve(*args)

    monkeypatch.setattr(lp, "solve_lp", spy)
    rejected = many = 0
    for word in words:
        lps.clear()
        ends = order_feasible(word)
        expected = _reference_ends(word)
        assert lps[0] == lps[1], word
        assert ends == expected, word
        if ends is None:
            rejected += 1
        else:
            assert list(ends) == list(expected), word
        many += len(word) >= 44
    assert rejected == 10 and many > 40, (rejected, many)

    graphs = (LP_REJECTS_9, LP_REJECTS_10, complete_bipartite(2, 3), k44_minus_e(),
              xx_separator(2).graph)
    monkeypatch.undo()
    answers = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(engine, "order_feasible", _reference_ends)
        answers.append([])
        for g in graphs:
            out = recognize(g, BALANCED, Budget(10**5))
            answers[-1].append((out.kind, out.nodes_used, _cert_json(out.certificate)))
    assert answers[0] == answers[1]
    assert [kind for kind, _, _ in answers[0]].count("member") >= 3


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


def _strip_universal_one_at_a_time(g):
    # the peel one vertex at a time: strip the lowest universal vertex and
    # look again, until none is left
    stripped = []
    current = g
    while current.n > 0:
        universal = [v for v in sorted(current.vertices)
                     if current.degree(v) == current.n - 1]
        if not universal:
            break
        stripped.append(universal[0])
        current = current.induced([w for w in current.vertices if w != universal[0]])
    return current, stripped


def test_circular_arc_searches_the_peeled_quotient(monkeypatch):
    # recognize peels g's universal vertices, which are one class of true
    # twins, and searches the least label of every other class: the
    # labels of peeling one universal vertex at a time, then keeping the
    # least vertex of each closed neighbourhood set of what is left
    from conftest import nonisomorphic_graphs
    from tik import graphs
    from tik import recognize as engine

    searched = []
    build = engine._engine

    def recorded(labels, adjm, family, counter, visitor=None):
        searched.append(list(labels))
        return build(labels, adjm, family, counter, visitor)

    monkeypatch.setattr(engine, "_engine", recorded)
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            for hubs in range(3):
                h = g
                for _ in range(hubs):
                    h = graphs.add_universal(h, graphs.fresh_label(h, "u"))
                core, stripped = _strip_universal_one_at_a_time(h)
                closed = {v: core.neighbors(v) | {v} for v in core.vertices}
                least = sorted({min(w for w in closed if closed[w] == closed[v])
                                for v in closed})
                searched.clear()
                out = recognize(h, CIRCULAR_ARC, BIG)
                assert searched == ([least] if least else []), h
                m = len(least) + (1 if stripped else 0)  # the quotient's order
                assert out.route == ("search" if m == h.n else f"twins contracted to {m}")
                if out.is_member():
                    assert_member_sound(out, h, CIRCULAR_ARC)


def test_recognize_triangle_circular():
    out = recognize(cycle(3), CIRCULAR_ARC, BIG)
    assert out.is_member()


def test_recognize_budget_inconclusive():
    out = recognize(domino(), UNIT, Budget(100))
    assert out.is_inconclusive()
    assert out.nodes_used == 101  # first tick over the limit aborts


@pytest.mark.parametrize("max_nodes", [1e3, 1e17, True, "100", None])
def test_budget_rejects_non_int_sizes(max_nodes):
    # node counts are ints: a float budget would report 1001.0 nodes for
    # 1e3, and at 1e17 lose precision in the packed replay records, so
    # that the C2 audit would stop after 19 leaves
    with pytest.raises(RecognizeError, match="budget must be an int"):
        Budget(max_nodes)


def test_huge_int_budget_keeps_replay_records_exact():
    # the C2 audit's answer at Budget(10**8), with records packed around a
    # limit of 10**17
    out = enumerate_realizations(k44_minus_e(), XX(2), Budget(10**17), lambda rep: None)
    assert (out.complete, out.count, out.nodes_used) == (True, 6_336, 395_809)


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
    # the copies placed, counted off the placement order rather than read
    # from the masks the incremental check reads
    copies = [0] * search.n
    for _, bit in search.seq:
        copies[bit.bit_length() - 1] += 1
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
    # refuted-state table records nothing, so every subtree is walked and
    # every state is seen
    verdicts = {("close", True): 0, ("close", False): 0, ("open", True): 0}

    class Checked(engine._OrderSearch):
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
    monkeypatch.setattr(engine, "RECORD_AFTER", float("inf"))
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
    return None if cert is None else rep_to_json(cert)


def _table_searches():
    # (label, call) pairs: every graph on at most five vertices in every
    # family, on six as unit (where a key without the begun mask first goes
    # wrong) and on six and seven as circular-arc (a table kept across the
    # cuts through one vertex first goes wrong on seven), the enumerations,
    # whose recorded subtrees that reached leaves are replayed, balanced
    # searches whose leaves the LP rejects (a subtree that reached one must
    # not be recorded), and budget ladders that cut the searches inside
    # charges and replays the table makes; each call returns what a caller
    # can see of the search
    from conftest import nonisomorphic_graphs

    def recognition(g, family, budget):
        def call():
            out = recognize(g, family, budget)
            return out.kind, out.nodes_used, _cert_json(out.certificate)
        return call

    def enumeration(g, family, budget=BIG):
        def call():
            # the visited certificates compare by value, in order, each as
            # its pieces in label order: whole Representations weigh far
            # more, and five independent vertices have 113,400 as xx(1)
            seen = []
            out = enumerate_realizations(
                g, family, budget,
                lambda rep: seen.append(tuple(rep[v] for v in rep.labels())))
            return out.complete, out.count, out.nodes_used, seen
        return call

    families = (*FAMILIES.values(), XX(3))
    by_n = {6: (UNIT, CIRCULAR_ARC), 7: (CIRCULAR_ARC,)}
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            for family in by_n.get(n, families):
                yield (g, family), recognition(g, family, Budget(10**5))
    for family, max_n in ((XX(1), 5), (XX(2), 4), (TWO_INTERVAL, 3)):
        for n in range(1, max_n + 1):
            for g in nonisomorphic_graphs(n):
                yield (g, family, "enumeration"), enumeration(g, family)
    # xx(2) on five vertices takes over 7 * 10^7 nodes in all, so each
    # enumeration is cut off, mostly inside a replay
    for g in nonisomorphic_graphs(5):
        yield (g, XX(2), "enumeration"), enumeration(g, XX(2), Budget(10**4))
    yield (k44_minus_e(), XX(2), "enumeration"), enumeration(k44_minus_e(), XX(2))
    for g in (LP_REJECTS_9, LP_REJECTS_10):
        yield (g, BALANCED), recognition(g, BALANCED, BIG)
    for g, family, top, step in ((wheel(9), UNIT, 20_000, 97),
                                 (xx_separator(2).graph, XX(2), 40_000, 499)):
        for b in range(1, top, step):
            yield (g, family, b), recognition(g, family, Budget(b))


def test_refuted_table_equals_full_search(monkeypatch):
    # the table charges a subtree it has seen refuted in one step, and an
    # enumeration replays one that reached leaves; a run that records
    # nothing walks every subtree and is the reference, so each search must
    # answer alike, node counts, certificates, enumeration order and the
    # stop node of every budget included.  The table records from the
    # first node here, so these short searches use it too: any subset of
    # its records is exact as well.  Each search runs with the table on and
    # off in turn, so only one pair of answers is held at a time
    from tik import recognize as engine

    off = float("inf")  # RECORD_AFTER that records nothing, so hits nothing
    default = engine.RECORD_AFTER
    entered = {True: 0, False: 0}  # _dfs nodes, table on and off

    class Engine:
        def _dfs(self):
            entered[engine.RECORD_AFTER != off] += 1
            return super()._dfs()

    class Order(Engine, engine._OrderSearch):
        pass

    class Placement(Engine, engine._XXSearch):
        pass

    monkeypatch.setattr(engine, "_OrderSearch", Order)
    monkeypatch.setattr(engine, "_XXSearch", Placement)
    for label, call in _table_searches():
        answers = []
        for record_after in (0, off):
            monkeypatch.setattr(engine, "RECORD_AFTER", record_after)
            answers.append(call())
        assert answers[0] == answers[1], label
    # at the default settings the table must save work: the order engine
    # on refuted-heavy searches, as unit and as balanced (1,653 nodes
    # entered instead of 3,001), the placement engine on the C2 audit,
    # whose replays enter 6,944 nodes instead of 41,598
    for g, family, budget, run, factor in (
            (wheel(9), UNIT, Budget(10**5), recognize, 1),
            (xx_separator(2).graph, BALANCED, Budget(10**5), recognize, 1),
            (k44_minus_e(), XX(2), BIG,
             lambda *args: enumerate_realizations(*args, lambda rep: None), 4)):
        for record_after in (default, off):
            monkeypatch.setattr(engine, "RECORD_AFTER", record_after)
            entered[record_after != off] = 0
            run(g, family, budget)
        assert entered[True] * factor < entered[False], (family, entered)


def test_balanced_table_on_random_graphs(monkeypatch):
    # balanced searches past five vertices: 1,000 seeded random graphs on 8
    # and 9 vertices answer alike, node counts and certificates included,
    # with the table at its default, recording from the first node and
    # recording nothing; 202 of them charge over RECORD_AFTER nodes
    from tik import recognize as engine

    rng = random.Random(3303)
    settings = (engine.RECORD_AFTER, 0, float("inf"))
    past = 0
    for _ in range(1000):
        g = random_graph(rng, rng.choice((8, 9)), rng.uniform(0.3, 0.6))
        answers = []
        for record_after in settings:
            monkeypatch.setattr(engine, "RECORD_AFTER", record_after)
            out = recognize(g, BALANCED, Budget(10**5))
            answers.append((out.kind, out.nodes_used, _cert_json(out.certificate)))
        assert answers[0] == answers[1] == answers[2], g
        past += out.nodes_used > settings[0]
    assert past >= 150, past


def test_record_policy_table_sizes(monkeypatch):
    # any subset of the nodes the table may hold is exact to record, so
    # answers and node counts cannot see which ones are; the table sizes
    # these searches end with at the default settings pin the record rules
    # (design notes: "Refuted states").  Not counting leaf and table-hit
    # children as yielded gives 2,575, 58 and 4,711 entries in the second
    # and the last two searches.  Balanced records the subtrees that
    # reached no leaf, as every recognition does.  The C2 audit, an
    # enumeration, records the subtrees that reached leaves too: 417
    # refuted and 5,943 to replay
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
    recognize(xx_separator(2).graph, BALANCED, Budget(10**4))
    enumerate_realizations(k44_minus_e(), XX(2), BIG, lambda rep: None)
    sizes = [sum(map(len, search.table.values())) for search in searches]
    assert sizes == [142, 2_587, 28, 60, 6_360]


def test_leaf_log_cap_keeps_enumerations_exact(monkeypatch):
    # once an enumeration's log holds LEAF_LOG_MAX leaves it logs no more
    # and records only the subtrees that accepted no leaf, leaves replayed
    # from older records included; the records made before stay exact, so
    # the C2 audit visits the same leaves in the same order, and budget cuts
    # stop at the same node, with the log cut to 100 leaves
    from tik import recognize as engine

    run = engine._run

    def audit(budget):
        searches, seen = [], []

        def capture(search):
            searches.append(search)
            return run(search)

        with monkeypatch.context() as m:
            m.setattr(engine, "_run", capture)
            out = enumerate_realizations(
                k44_minus_e(), XX(2), budget,
                lambda rep: seen.append(tuple(rep[v] for v in rep.labels())))
        return (out.complete, out.count, out.nodes_used), seen, searches[0]

    full, full_seen, search = audit(BIG)
    assert len(search.stamps) == 6_336
    monkeypatch.setattr(engine, "LEAF_LOG_MAX", 100)
    capped, seen, search = audit(BIG)
    assert capped == full == (True, 6_336, 395_809)
    assert seen == full_seen
    assert len(search.stamps) == 100 and len(search.leaves) == 100 * 2 * search.n
    for b in (5_000, 123_457, 300_001):
        monkeypatch.setattr(engine, "LEAF_LOG_MAX", 10**6)
        expected = audit(Budget(b))[:2]
        monkeypatch.setattr(engine, "LEAF_LOG_MAX", 100)
        assert audit(Budget(b))[:2] == expected, b


def test_engines_keep_compact_instance_dicts():
    # CPython 3.11 keeps an instance's attributes in a compact shared-key
    # layout only while it has fewer than 30, and reads each more slowly
    # past that; engines with 30 and 31 attributes cost tikbench
    # metric-members about 3% of its ops per second.  The ceilings are
    # today's counts: an engine keeps only state that no other state
    # determines, so each new attribute spends some of the little room
    # left below 30 and should be a choice made on purpose, with the
    # ceiling raised in the same change
    from tik import recognize as engine

    g = wheel(5)
    searches = [(engine._OrderSearch(*_masks(g), family, engine._Counter(10)), 26)
                for family in FAMILIES.values() if family.kind != "xx"]
    searches += [(engine._XXSearch(*_masks(g), 2, engine._Counter(10), visitor), ceiling)
                 for visitor, ceiling in ((None, 23), (lambda rep: None, 25))]
    for search, ceiling in searches:
        attributes = sorted(vars(search))
        assert len(attributes) < 30, (type(search).__name__, attributes)
        assert len(attributes) <= ceiling, (type(search).__name__, attributes)


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
    # house beside a 4-cycle (neither is interval, so together they are
    # not circular-arc) has c = "a", the roof, with the edge bc in N(c).
    # The graphs have no true twins, so the core is searched as it is
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
    beside = Graph.build("abcdewxyz", [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"),
                                       ("c", "e"), ("d", "e"), ("w", "x"), ("x", "y"),
                                       ("y", "z"), ("z", "w")])
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
    text = dump_json(rep_to_json(out.certificate))
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
