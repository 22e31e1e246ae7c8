import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    circular_graph_pointcheck,
    meets_pointcheck,
    mixed_star_rep,
    random_circular_rep,
    random_closed_rep,
    within_pointcheck,
)
from tik import model, transforms
from tik.gadgets import k44e_22_realization, k53, k53_balanced_realization
from tik.graphs import Graph, complete_bipartite, cycle
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
    FamilySelector,
    Interval,
    ModelError,
    Representation,
    Verdict,
    affine,
    circular_intersection_graph,
    contiguity,
    family_check,
    intersection_graph,
    intersects,
    interval,
    normalize,
    open_interval,
    q,
    two_interval,
    within,
)
from tik.recognize import Budget, recognize


def test_rationals():
    assert q("3/6") == Fraction(1, 2)
    assert model.q_str(q("4/2")) == "2"
    with pytest.raises(ModelError):
        q("1/0")

    # ints, Fractions and their subclasses coerce to equal Fractions; an
    # exact Fraction comes back as itself
    class Half(Fraction):
        pass

    half = Half(1, 2)
    for value, expected in ((7, Fraction(7)), (Fraction(-3, 4), Fraction(-3, 4)),
                            (half, Fraction(1, 2))):
        got = q(value)
        assert got == expected and isinstance(got, Fraction), value
    assert type(q(7)) is Fraction
    assert q(half) is half
    # a bool is not a number here: JSON false/true are not 0/1
    for bad in (1.5, None, [1], True, False):
        with pytest.raises(ModelError, match="cannot interpret"):
            q(bad)


def test_intersects_examples():
    assert intersects(interval(0, 1), interval(1, 2))
    assert not intersects(open_interval(0, 2), open_interval(2, 4))
    assert intersects(open_interval(0, 2), open_interval(1, 3))
    # closed endpoint meeting an open one at the same point
    assert not intersects(interval(0, 1, True, False), interval(1, 2))
    assert intersects(interval(1, 1), interval(0, 2))


def test_intersects_symmetric():
    rng = random.Random(3)
    for _ in range(300):
        vals = sorted(rng.randint(0, 12) for _ in range(4))
        a = Interval(q(vals[0]), q(max(vals[1], vals[0] + 1)),
                     rng.random() < 0.5, rng.random() < 0.5)
        b = Interval(q(vals[2]), q(max(vals[3], vals[2] + 1)),
                     rng.random() < 0.5, rng.random() < 0.5)
        assert intersects(a, b) == intersects(b, a)
        assert intersects(a, a)


def test_two_interval_invariants():
    with pytest.raises(ModelError):
        model.TwoInterval(interval(0, 2), interval(1, 3))
    ti = two_interval(interval(5, 6), interval(0, 1))
    assert ti.left.lo == 0  # normalized orientation


def test_intersection_graph_fixture():
    assert intersection_graph(k53_balanced_realization()) == k53()


def test_intersection_graph_empty_and_disjoint():
    assert intersection_graph(Representation({})) == Graph.build([], [])
    rep = Representation({
        "a": two_interval(interval(0, 1), interval(2, 3)),
        "b": two_interval(interval(10, 11), interval(12, 13)),
    })
    assert len(intersection_graph(rep).edges) == 0


def test_circular_intersection_graph_c4():
    arcs = {
        "v1": Arc(q(0), q(3)), "v2": Arc(q(2), q(5)),
        "v3": Arc(q(4), q(7)), "v4": Arc(q(6), q(1)),
    }
    ca = CircularArcRep(q(8), arcs)
    assert circular_intersection_graph(ca) == cycle(4)


def test_circular_intersection_graph_star():
    # one arc covering all but a sliver, three tiny arcs inside it
    arcs = {
        "hub": Arc(Fraction(1, 10), Fraction(1, 20)),
        "a": Arc(Fraction(2, 10), Fraction(3, 10)),
        "b": Arc(Fraction(4, 10), Fraction(5, 10)),
        "c": Arc(Fraction(6, 10), Fraction(7, 10)),
    }
    ca = CircularArcRep(q(1), arcs)
    g = circular_intersection_graph(ca)
    assert g == circular_graph_pointcheck(ca)
    assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 1, 3]
    assert g.degree("hub") == 3


def test_circular_intersection_graph_matches_pointcheck():
    rng = random.Random(17)
    for _ in range(120):
        ca = random_circular_rep(rng, rng.randint(1, 8))
        assert circular_intersection_graph(ca) == circular_graph_pointcheck(ca)


# --- the endpoint sweep against pairwise references ---------------------------


def _pairwise_graph(rep: Representation) -> Graph:
    labels = rep.labels()
    return Graph.build(labels, [
        (u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
        if any(meets_pointcheck(p, r) for p in rep[u].parts() for r in rep[v].parts())
    ])


def _pairwise_padding(rep: Representation) -> Verdict:
    for v in rep.labels():
        if any(meets_pointcheck(rep[v].right, iv)
               for w, side, iv in rep.ground_set() if (w, side) != (v, 1)):
            return Verdict(False, f"right interval of {v!r} is not pure padding")
    return Verdict(True)


def _touching_rep(rng: random.Random, n: int, length=None) -> Representation:
    """Half-integer endpoints on a short line, so ends touch often; every
    closedness mix; closed points unless ``length`` fixes the lengths; about
    a third of the right pieces moved far off, so padding checks can pass."""
    items = {}
    while len(items) < n:
        los = sorted(q(rng.randint(0, 2 * n + 4)) / 2 for _ in range(2))
        if rng.random() < 0.3:
            los[1] += 50
        if length is None:
            his = [lo + q(rng.randint(0, 3)) / 2 for lo in los]
        else:
            his = [lo + length for lo in los]
        pieces = [
            Interval(lo, hi) if lo == hi
            else Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
            for lo, hi in zip(los, his)
        ]
        try:
            items[f"v{len(items)}"] = two_interval(*pieces)
        except ModelError:  # the two pieces meet
            continue
    return Representation(items)


def _circular_rep_ends_at_zero(rng: random.Random, n: int) -> CircularArcRep:
    """Arcs with every closedness mix; about one in five ends at 0."""
    c = max(2, n)
    arcs = {}
    while len(arcs) < n:
        start = q(rng.randint(0, 2 * c - 1)) / 2
        end = q(0) if rng.random() < 0.2 else q(rng.randint(0, 2 * c - 1)) / 2
        if start != end:
            arcs[f"v{len(arcs)}"] = Arc(start, end, rng.random() < 0.5,
                                        rng.random() < 0.5)
    return CircularArcRep(q(c), arcs)


def test_intersection_graph_matches_pairwise_reference():
    rng = random.Random(8)
    for _ in range(400):
        rep = _touching_rep(rng, rng.randint(0, 8))
        assert intersection_graph(rep) == _pairwise_graph(rep)


def test_circular_intersection_graph_with_ends_at_zero():
    rng = random.Random(9)
    for _ in range(300):
        ca = _circular_rep_ends_at_zero(rng, rng.randint(1, 7))
        assert circular_intersection_graph(ca) == circular_graph_pointcheck(ca)
    empty = CircularArcRep(q(1), {})
    assert circular_intersection_graph(empty) == Graph.build([], [])


def test_padding_check_matches_pairwise_reference():
    rng = random.Random(10)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        rep = _touching_rep(rng, n, length=q(rng.randint(1, 2)))
        assert family_check(rep, INTERVAL_CLASS) == _pairwise_padding(rep)
        verdicts.add(family_check(rep, INTERVAL_CLASS).ok)
        unit = affine(rep, 1 / rep["v0"].left.length, 0)
        if len({(iv.lo_closed, iv.hi_closed) for _, _, iv in unit.ground_set()}) > 1:
            assert family_check(unit, UNIT_INTERVAL).reason.startswith("mixed closedness")
        else:
            assert family_check(unit, UNIT_INTERVAL) == _pairwise_padding(unit)
    assert verdicts == {True, False}


def test_unit_interval_padding_with_one_closedness():
    rng = random.Random(11)
    verdicts = set()
    for ends in [(True, True), (False, False), (True, False), (False, True)]:
        for _ in range(100):
            rep = _touching_rep(rng, rng.randint(1, 6), length=q(1))
            try:
                unit = Representation({
                    v: two_interval(*(Interval(iv.lo, iv.hi, *ends) for iv in rep[v].parts()))
                    for v in rep.labels()
                })
            except ModelError:  # closing the ends made the two pieces meet
                continue
            assert family_check(unit, UNIT_INTERVAL) == _pairwise_padding(unit)
            verdicts.add(family_check(unit, UNIT_INTERVAL).ok)
    assert verdicts == {True, False}


def test_arc_ending_open_at_zero():
    # [2, 0) on a circle of 4 is [2, 4): it misses the point 0
    ca = CircularArcRep(q(4), {"a": Arc(q(2), q(0), True, False),
                               "b": Arc(q(1), q(3))})
    assert ca["a"].segments(q(4)) == [Interval(q(2), q(4), True, False)]
    assert not ca["a"].contains_point(q(0), q(4))
    assert ca["a"].contains_point(q("7/2"), q(4))
    assert circular_intersection_graph(ca) == Graph.build("ab", [("a", "b")])
    rep = transforms.balanced_from_circular_arc(ca, transforms.generic_cut_point(ca))
    assert intersection_graph(rep) == circular_intersection_graph(ca)


def test_family_check_balanced_fixture():
    rep = k53_balanced_realization()
    assert family_check(rep, BALANCED).ok
    s_lengths = {str(rep[f"s{i}"].left.length) for i in range(1, 6)}
    t_lengths = {str(rep[f"t{i}"].left.length) for i in range(1, 4)}
    assert s_lengths == {"7"} and t_lengths == {"11"}


def test_family_check_xx_fixture():
    assert family_check(k44e_22_realization(), XX(2)).ok


def test_family_check_unit():
    rep = Representation({
        "a": two_interval(interval(0, 1), interval(2, 3)),
        "b": two_interval(interval(q("1/2"), q("3/2")), interval(4, 5)),
    })
    assert family_check(rep, UNIT).ok
    assert family_check(rep, BALANCED).ok  # unit implies balanced
    assert not family_check(rep, XX(1)).ok  # closed ends


def test_family_check_failures_carry_reason():
    rep = Representation({
        "a": two_interval(interval(0, 1), interval(2, 4)),
    })
    verdict = family_check(rep, BALANCED)
    assert not verdict.ok and "unbalanced" in verdict.reason


def test_family_check_rejects_degenerate():
    rep = Representation({"a": two_interval(interval(0, 0), interval(2, 3))})
    assert not family_check(rep, TWO_INTERVAL).ok


def test_family_selector_validation():
    with pytest.raises(ModelError):
        FamilySelector("xx")
    with pytest.raises(ModelError):
        FamilySelector("unit", 3)
    with pytest.raises(ModelError):
        FamilySelector("nope")


@pytest.mark.parametrize("x", [2.5, 2.0, True, "2"])
def test_family_selector_rejects_non_int_x(x):
    # positions are ints: a float x would reach the placement engine, and
    # True is an int to isinstance but names no length
    with pytest.raises(ModelError, match="int x"):
        FamilySelector("xx", x)


def test_contiguity_fixture():
    assert contiguity(k53_balanced_realization()).contiguous


def test_contiguity_holes():
    rep = Representation({
        "a": two_interval(interval(0, 1), interval(2, 3)),
        "b": two_interval(interval(10, 11), interval(12, 13)),
    })
    got = contiguity(rep)
    assert not got.contiguous
    assert len(got.holes) == 3
    single = Representation({"a": two_interval(interval(0, 1), interval(2, 3))})
    got = contiguity(single)
    assert not got.contiguous and len(got.holes) == 1
    assert str(got.holes[0]) == "(1, 2)"


def test_contiguity_point_hole():
    rep = Representation({
        "a": two_interval(open_interval(0, 2), open_interval(2, 4)),
    })
    got = contiguity(rep)
    assert not got.contiguous
    assert got.holes[0].is_degenerate()


def _reference_contiguity(rep):
    # contiguity by sorting the Fraction endpoints themselves, the reference
    # for the integer-key sweep in model.contiguity
    items = sorted(
        ((iv.lo, not iv.lo_closed, iv) for _, _, iv in rep.ground_set()),
        key=lambda t: (t[0], t[1]),
    )
    holes = []
    cur_hi, cur_hi_closed = items[0][2].hi, items[0][2].hi_closed
    for lo, _, iv in items[1:]:
        if lo < cur_hi or (lo == cur_hi and (iv.lo_closed or cur_hi_closed)):
            if (iv.hi, iv.hi_closed) > (cur_hi, cur_hi_closed):
                cur_hi, cur_hi_closed = iv.hi, iv.hi_closed
        else:
            holes.append(
                Interval(cur_hi, lo, not cur_hi_closed, not iv.lo_closed)
                if cur_hi < lo
                else Interval(cur_hi, cur_hi)
            )
            cur_hi, cur_hi_closed = iv.hi, iv.hi_closed
    return model.Contiguity(contiguous=not holes, holes=tuple(holes))


def _random_mixed_rep(rng, n):
    # endpoints on a grid of halves and thirds, so ends often touch, and
    # every closedness mix, degenerate closed points included
    grid = sorted({Fraction(k, d) for d in (1, 2, 3) for k in range(4 * d + 1)})
    items = {}
    while len(items) < n:
        a, b, c, d = sorted(rng.choices(grid, k=4))
        closed = [rng.random() < 0.5 for _ in range(4)]
        try:
            items[f"v{len(items)}"] = two_interval(
                Interval(a, b, closed[0], closed[1]),
                Interval(c, d, closed[2], closed[3]),
            )
        except ModelError:
            continue
    return Representation(items)


def test_contiguity_matches_fraction_sort():
    rng = random.Random(907)
    kinds = {"contiguous": 0, "point hole": 0, "fractional hole": 0}
    for _ in range(500):
        rep = _random_mixed_rep(rng, rng.randint(1, 4))
        got = contiguity(rep)
        assert got == _reference_contiguity(rep), rep.items
        if got.contiguous:
            kinds["contiguous"] += 1
        for hole in got.holes:
            if hole.is_degenerate():
                kinds["point hole"] += 1
            elif hole.lo.denominator > 1 or hole.hi.denominator > 1:
                kinds["fractional hole"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_contiguity_empty_rejected():
    with pytest.raises(ModelError):
        contiguity(Representation({}))


# --- the integer keys against Fraction references -------------------------------

# negative values and denominators 1, 2, 3, 4 and 6 on [-3, 3]: the keys
# floor with >> and &, and mixed denominators meet over their lcm
_GRID = sorted({Fraction(k, d) for d in (1, 2, 3, 4, 6) for k in range(-3 * d, 3 * d + 1)})


def _grid_interval(rng, lo=None):
    # every closedness mix, with about one closed point in six
    lo = rng.choice(_GRID) if lo is None else lo
    hi = lo if rng.random() < 0.15 else rng.choice(_GRID[_GRID.index(lo):])
    return Interval(lo, hi) if lo == hi else Interval(lo, hi, rng.random() < 0.5,
                                                      rng.random() < 0.5)


def _construction_error(make):
    try:
        make()
    except ModelError as exc:
        return str(exc)
    return None


def test_interval_errors_match_fraction_reference():
    rng = random.Random(2101)
    seen = set()
    for _ in range(3000):
        lo, hi = rng.choice(_GRID), rng.choice(_GRID)
        if rng.random() < 0.2:
            hi = lo
        ends = (rng.random() < 0.5, rng.random() < 0.5)
        if lo > hi:
            left, right = "[" if ends[0] else "(", "]" if ends[1] else ")"
            expected = f"interval with lo > hi: {left}{model.q_str(lo)}, {model.q_str(hi)}{right}"
        elif lo == hi and not all(ends):
            expected = "degenerate interval must be closed at both ends"
        else:
            expected = None
        assert _construction_error(lambda: Interval(lo, hi, *ends)) == expected, (lo, hi, ends)
        seen.add(expected is None or expected[:10])
    assert len(seen) == 3


def _ref_two_interval_error(a, b):
    if meets_pointcheck(a, b):
        return f"2-interval halves intersect: {a} {b}"
    if a.lo > b.lo:
        return "2-interval not normalized: left.lo > right.lo"
    return None


def test_interval_pairs_match_fraction_reference():
    # intersects, within, TwoInterval's checks and two_interval's order, on
    # pairs that touch often, mixed denominators and closed points among them
    rng = random.Random(2102)
    kinds = {"meet": 0, "disjoint": 0, "touching": 0, "unnormalized": 0, "within": 0}
    for _ in range(3000):
        a = _grid_interval(rng)
        b = _grid_interval(rng, a.hi if rng.random() < 0.25 else None)
        a, b = rng.sample((a, b), 2)
        meets = meets_pointcheck(a, b)
        assert intersects(a, b) == intersects(b, a) == meets, (a, b)
        assert within(a, b) == within_pointcheck(a, b), (a, b)
        assert within(b, a) == within_pointcheck(b, a), (a, b)
        kinds["within"] += within(a, b) or within(b, a)
        expected = _ref_two_interval_error(a, b)
        assert _construction_error(lambda: model.TwoInterval(a, b)) == expected, (a, b)
        left, right = sorted((a, b), key=lambda iv: (iv.lo, not iv.lo_closed))
        if meets:
            kinds["meet"] += 1
            assert _construction_error(lambda: two_interval(a, b)) == (
                _ref_two_interval_error(left, right))
            continue
        kinds["disjoint"] += 1
        kinds["touching"] += a.hi == b.lo or b.hi == a.lo
        kinds["unnormalized"] += expected is not None
        ti = two_interval(a, b)
        assert (ti.left, ti.right) == (left, right)
        assert ti == two_interval(b, a)
    assert min(kinds.values()) >= 100, kinds


def _reference_two_interval(a, b):
    # two_interval as it was: both intervals' ends over one denominator to
    # order the halves, then TwoInterval
    a_lo, _, b_lo, _ = model._pair_keys(a, b)
    if b_lo < a_lo:
        a, b = b, a
    return model.TwoInterval(a, b)


def test_two_interval_orders_by_the_start_keys(monkeypatch):
    # two_interval orders the halves from the two start keys alone: the
    # reference's choice and TwoInterval's errors, on random pairs over
    # denominators 1 to 4 with negative ends, and on equal start values in
    # every closedness mix; _pair_keys runs at most once a call, in
    # TwoInterval where the denominators differ
    rng = random.Random(3304)
    ends = sorted({Fraction(k, d) for d in (1, 2, 3, 4) for k in range(-4 * d, 4 * d + 1)})
    mixes = [(lo_closed, hi_closed) for lo_closed in (True, False)
             for hi_closed in (True, False)]
    pairs = []
    for _ in range(3000):
        lo, hi = sorted(rng.choices(ends, k=2))
        a = Interval(lo, hi) if lo == hi else Interval(lo, hi, *rng.choice(mixes))
        lo, hi = sorted(rng.choices(ends, k=2))
        b = Interval(lo, hi) if lo == hi else Interval(lo, hi, *rng.choice(mixes))
        pairs.append((a, b))
    for start in (Fraction(-3, 2), Fraction(0), Fraction(1, 3)):
        his = [start] + [start + Fraction(k, d) for d in (1, 2, 3, 4) for k in (1, 2)]
        shapes = [Interval(start, start)] + [Interval(start, hi, *mix) for hi in his[1:]
                                             for mix in mixes]
        pairs += [(a, b) for a in shapes for b in shapes]
    calls, pair_keys = [0], model._pair_keys

    def counted(a, b):
        calls[0] += 1
        return pair_keys(a, b)

    kinds = {"ordered": 0, "swapped": 0, "error": 0, "tie": 0}
    for a, b in pairs:
        expected = _construction_error(lambda: _reference_two_interval(a, b))
        monkeypatch.setattr(model, "_pair_keys", counted)
        calls[0] = 0
        got = _construction_error(lambda: two_interval(a, b))
        assert calls[0] <= 1, (a, b)
        monkeypatch.undo()
        assert got == expected, (a, b)
        kinds["tie"] += a.lo == b.lo
        if expected is not None:
            kinds["error"] += 1
            continue
        ti, ref = two_interval(a, b), _reference_two_interval(a, b)
        assert ti.left is ref.left and ti.right is ref.right, (a, b)
        kinds["ordered" if ti.left is a else "swapped"] += 1
    assert min(kinds.values()) >= 100, kinds


def _grid_rep(rng, n):
    items = {}
    while len(items) < n:
        try:
            items[f"v{len(items)}"] = two_interval(_grid_interval(rng), _grid_interval(rng))
        except ModelError:  # the two pieces meet
            continue
    return Representation(items)


def test_sweeps_match_fraction_reference():
    # contiguity's holes and the intersection graph over mixed denominators
    rng = random.Random(2103)
    holes = 0
    for _ in range(400):
        rep = _grid_rep(rng, rng.randint(1, 5))
        got = contiguity(rep)
        assert got == _reference_contiguity(rep), rep.items
        holes += len(got.holes)
        assert intersection_graph(rep) == _pairwise_graph(rep), rep.items
    assert holes >= 100


def _reference_interval(lo, hi, lo_closed, hi_closed):
    # the two-pass construction: coerce both ends, then build the key from
    # the Fractions' numerators and denominators
    try:
        lo, hi = q(lo), q(hi)
    except ModelError as exc:
        return str(exc)
    d = math.lcm(lo.denominator, hi.denominator)
    lo_key = 4 * lo.numerator * (d // lo.denominator) + (1 if lo_closed else 3)
    hi_key = 4 * hi.numerator * (d // hi.denominator) + (2 if hi_closed else 0)
    if lo_key > hi_key:
        if lo > hi:
            left, right = "[" if lo_closed else "(", "]" if hi_closed else ")"
            return f"interval with lo > hi: {left}{model.q_str(lo)}, {model.q_str(hi)}{right}"
        return "degenerate interval must be closed at both ends"
    return (lo, hi, lo_closed, hi_closed), (lo_key, hi_key, d)


# an end as an int, a "p/q" string (unreduced, signs on either part, or
# malformed) or a Fraction, and now and then a bool, a float or None
_ENDS = st.one_of(
    st.integers(-30, 30),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-30, 30), st.integers(-6, 6)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.sampled_from([True, False, 1.5, None, "x", "1/"]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=1500)
@given(_ENDS, _ENDS, st.booleans(), st.booleans())
def test_interval_matches_two_pass_reference(lo, hi, lo_closed, hi_closed):
    expected = _reference_interval(lo, hi, lo_closed, hi_closed)
    try:
        iv = Interval(lo, hi, lo_closed, hi_closed)
    except ModelError as exc:
        assert str(exc) == expected
        return
    fields, key = expected
    assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == fields
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    assert iv._key == key
    assert list(vars(iv)) == ["lo", "hi", "lo_closed", "hi_closed", "_key"]
    assert iv == Interval(*fields) and hash(iv) == hash(fields)


def _length_reference(rep, family):
    # family_check's balanced, unit and xx rules with every length a
    # Fraction hi - lo: the reason of the first failure, or None
    if family.kind == "balanced":
        for v in rep.labels():
            left, right = rep[v].left.length, rep[v].right.length
            if left != right:
                return (f"{v!r} unbalanced: |left| = {model.q_str(left)}, "
                        f"|right| = {model.q_str(right)}")
        return None
    want = 1 if family.kind == "unit" else family.x
    for v, _, iv in rep.ground_set():
        if family.kind == "xx":
            if iv.lo_closed or iv.hi_closed:
                return f"{v!r} has a non-open interval"
            if iv.lo.denominator != 1 or iv.hi.denominator != 1:
                return f"{v!r} has a non-integer endpoint"
        if iv.length != want:
            return f"{v!r} has interval of length {model.q_str(iv.length)} != {want}"
    return None


def test_family_check_lengths_match_fraction_reference():
    # balanced, unit and xx verdicts and reasons on representations that
    # mostly pass: one length throughout, at integer positions or on the
    # grid, broken now and then by a piece one step too long
    rng = random.Random(2104)
    grid_steps = [Fraction(1, d) for d in (1, 2, 3, 4, 6)]
    verdicts = {}
    for _ in range(1500):
        length = rng.choice([1, 1, 2, 3, Fraction(3, 2), Fraction(5, 3)])
        integral = type(length) is int and rng.random() < 0.6
        steps = [1, 2] if integral else grid_steps
        closed = rng.random() < 0.4
        items, at = {}, rng.randint(-3, 3) if integral else rng.choice(_GRID)
        for i in range(rng.randint(1, 5)):
            pieces = []
            for _ in range(2):
                size = length + (rng.choice(steps) if rng.random() < 0.08 else 0)
                pieces.append(Interval(q(at), q(at + size), closed, closed))
                at += size + rng.choice(steps)
            items[f"v{i}"] = two_interval(*pieces)
        rep = Representation(items)
        families = [BALANCED, UNIT] + ([XX(length)] if type(length) is int else [])
        for family in families:
            got = family_check(rep, family)
            expected = _length_reference(rep, family)
            assert got == Verdict(expected is None, expected), (family, rep.items)
            verdicts[family.kind, got.ok] = verdicts.get((family.kind, got.ok), 0) + 1
    assert len(verdicts) == 6 and min(verdicts.values()) >= 50, verdicts


def test_interval_key_is_no_field():
    import copy
    import dataclasses
    import pickle

    iv = Interval(Fraction(-1, 2), Fraction(2, 3), True, False)
    assert [f.name for f in dataclasses.fields(iv)] == ["lo", "hi", "lo_closed", "hi_closed"]
    assert dataclasses.asdict(iv) == {"lo": Fraction(-1, 2), "hi": Fraction(2, 3),
                                      "lo_closed": True, "hi_closed": False}
    assert repr(iv) == ("Interval(lo=Fraction(-1, 2), hi=Fraction(2, 3), "
                        "lo_closed=True, hi_closed=False)")
    same = Interval(q("-2/4"), q("4/6"), True, False)
    assert iv == same and hash(iv) == hash(same)
    assert hash(iv) == hash((iv.lo, iv.hi, iv.lo_closed, iv.hi_closed))
    assert iv != Interval(iv.lo, iv.hi, True, True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        iv.lo = q(0)
    # ints become Fractions, and the copies keep a key that still works
    assert type(Interval(1, 2).lo) is Fraction
    other = Interval(q(0), q("2/3"))
    for twin in (copy.copy(iv), copy.deepcopy(iv), pickle.loads(pickle.dumps(iv))):
        assert twin == iv and twin._key == iv._key
        assert intersects(twin, other) == intersects(iv, other) is True
        assert not intersects(twin, Interval(q("2/3"), q(1)))


def test_affine_identity_and_graph_preservation():
    rng = random.Random(29)
    for _ in range(60):
        rep = random_closed_rep(rng, rng.randint(1, 6))
        assert affine(rep, 1, 0) == rep
        scale = q(rng.randint(1, 5)) / rng.randint(1, 5)
        shift = q(rng.randint(-10, 10))
        assert intersection_graph(affine(rep, scale, shift)) == intersection_graph(rep)
    with pytest.raises(ModelError):
        affine(random_closed_rep(rng, 2), 0, 0)


def test_affine_scales_lengths():
    rep = Representation({"a": two_interval(interval(0, 1), interval(2, 3))})
    scaled = affine(rep, 12, 0)
    assert scaled["a"].left.length == 12


def test_normalize_single_vertex():
    rep = Representation({"a": two_interval(interval(0, 7), interval(9, 100))})
    out = normalize(rep)
    points = [out["a"].left.lo, out["a"].left.hi, out["a"].right.lo, out["a"].right.hi]
    assert points == [0, 1, 2, 3]


def test_normalize_shared_endpoint():
    rep = Representation({
        "a": two_interval(interval(0, 2), interval(10, 11)),
        "b": two_interval(interval(2, 4), interval(20, 21)),
    })
    out = normalize(rep)
    assert intersection_graph(out) == intersection_graph(rep)
    ends = sorted(
        e for _, _, iv in out.ground_set() for e in (iv.lo, iv.hi)
    )
    assert ends == [q(i) for i in range(8)]


def test_normalize_preserves_graph_randomized():
    rng = random.Random(41)
    for _ in range(500):
        rep = random_closed_rep(rng, rng.randint(1, 8))
        out = normalize(rep)
        assert intersection_graph(out) == intersection_graph(rep)
        ends = sorted(e for _, _, iv in out.ground_set() for e in (iv.lo, iv.hi))
        assert ends == [q(i) for i in range(4 * len(rep))]


def _normalize_reference(rep):
    # the event sort normalize used before it read the event word: by
    # value, a start before an end, then label and side
    events = []
    for v, side, iv in rep.ground_set():
        events += (iv.lo, 0, v, side), (iv.hi, 1, v, side)
    events.sort()
    pos = {(v, side, which): i for i, (_, which, v, side) in enumerate(events)}
    return Representation({
        v: two_interval(*(Interval(q(pos[v, side, 0]), q(pos[v, side, 1]))
                          for side in (0, 1)))
        for v in rep.labels()
    })


def test_normalize_matches_event_sort_reference_with_ties():
    # half-integer ends on a short range: ends tie across vertices and
    # within one, and degenerate points are common
    rng = random.Random(43)
    ties = 0
    for _ in range(1500):
        n = rng.randint(1, 6)
        items = {}
        for i in range(n):
            a, b, c, d = sorted(q(rng.randint(0, 2 * n)) / 2 for _ in range(4))
            if b == c:
                continue
            items[f"v{rng.randint(0, 9)}"] = two_interval(Interval(a, b), Interval(c, d))
        rep = Representation(items)
        out = normalize(rep)
        assert out == _normalize_reference(rep), rep.items
        ends = [e for _, _, iv in rep.ground_set() for e in (iv.lo, iv.hi)]
        ties += len(set(ends)) < len(ends)
    assert ties > 1000, ties


def test_normalize_rejects_open_model():
    rep = Representation({"a": two_interval(open_interval(0, 2), open_interval(3, 5))})
    with pytest.raises(ModelError):
        normalize(rep)


@pytest.mark.parametrize("pieces, family", [(2, UNIT), (1, UNIT_INTERVAL)])
def test_unit_verifiers_reject_mixed_closedness(pieces, family):
    # K_{1,6} is not unit and the claw is not unit-interval, yet both have
    # unit-length models once open and closed intervals mix
    rep = mixed_star_rep(pieces)
    g = complete_bipartite(1, 3 * pieces)
    assert intersection_graph(rep) == g
    assert recognize(g, family, Budget(10**4)).is_nonmember()
    for fam in (UNIT, UNIT_INTERVAL):
        verdict = family_check(rep, fam)
        assert not verdict.ok and verdict.reason.startswith("mixed closedness")
    assert family_check(rep, BALANCED).ok


def test_xx_rescaled_to_unit_lengths():
    # scaling an (x,x) representation by 1/x gives all lengths 1; unit and
    # balanced checks accept it (every interval is open, so the unit check's
    # one-closedness rule holds)
    rep = k44e_22_realization()
    scaled = affine(rep, q("1/2"), 0)
    assert family_check(scaled, UNIT).ok
    assert family_check(scaled, BALANCED).ok
    assert intersection_graph(scaled) == intersection_graph(rep)


# --- the packed sweep against the tuple sweep it replaced ----------------------

def _tuple_events(ids, ivs):
    # every end as (sweep key, id), sorted: the event builder before ends
    # were packed into ints
    keys = [iv._key for iv in ivs]
    den = math.lcm(*{d for _, _, d in keys})
    events = []
    for iid, (lo, hi, d) in zip(ids, keys):
        events += (model._rescale(lo, den // d), iid), (model._rescale(hi, den // d), iid)
    events.sort()
    return events


def _tuple_event_word(intervals):
    return [(iid, model.OPEN if key & 1 else model.CLOSE)
            for key, iid in _tuple_events(intervals, intervals.values())]


def _tuple_overlaps(pieces):
    active = set()
    pairs = []
    for point, i in _tuple_events(range(len(pieces)), [iv for _, iv in pieces]):
        if point & 1:
            key = pieces[i][0]
            pairs.extend((pieces[j][0], key) for j in active)
            active.add(i)
        else:
            active.discard(i)
    return pairs


# denominators 1 to 4 on [-3, 3]: about 40 values, so ends tie and touch
_SWEEP_GRID = sorted({Fraction(k, d) for d in (1, 2, 3, 4) for k in range(-3 * d, 3 * d + 1)})


def _sweep_interval(rng):
    lo, hi = sorted(rng.choices(_SWEEP_GRID, k=2))
    if lo == hi or rng.random() < 0.1:
        return Interval(lo, lo)  # a closed point
    return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def test_packed_sweep_matches_tuple_sweep():
    # the same pairs in the same order, and the same event words, from
    # dicts inserted out of id order; sizes cross several bit lengths
    rng = random.Random(3201)
    touching, ties, shuffled = set(), 0, 0
    for _ in range(1500):
        n = rng.randint(0, 40)
        ivs = [_sweep_interval(rng) for _ in range(n)]
        pieces = [(f"v{rng.randint(0, 9)}", iv) for iv in ivs]  # labels repeat
        assert model._overlaps(pieces) == _tuple_overlaps(pieces), pieces
        ids = [(rng.choice("abc"), i) for i in range(n)]
        rng.shuffle(ids)
        intervals = dict(zip(ids, ivs))
        shuffled += list(intervals) != sorted(intervals)
        assert model.event_word(intervals) == _tuple_event_word(intervals), intervals
        keys = [key for key, _ in _tuple_events(range(n), ivs)]
        ties += len(set(keys)) < len(keys)
        touching.update((a.hi_closed, b.lo_closed) for a in ivs for b in ivs
                        if a is not b and a.hi == b.lo)
    assert touching == {(False, False), (False, True), (True, False), (True, True)}
    assert ties > 1000 and shuffled > 1000, (ties, shuffled)


def test_packed_sweep_matches_tuple_sweep_on_arc_segments():
    # the cut pieces of arcs with every closedness: closed cut ends at 0
    # and C, and arcs ending open at 0
    rng = random.Random(3202)
    for _ in range(400):
        ca = random_circular_rep(rng, rng.randint(1, 12))
        ca = CircularArcRep(ca.circumference, {
            v: Arc(a.start, a.end, rng.random() < 0.5, rng.random() < 0.5)
            for v, a in ca.arcs.items()})
        c = ca.circumference
        pieces = [(v, seg) for v in ca.labels() for seg in ca[v].segments(c)]
        assert model._overlaps(pieces) == _tuple_overlaps(pieces), ca.arcs
        segments = {(v, i): seg for i, (v, seg) in enumerate(pieces)}
        assert model.event_word(segments) == _tuple_event_word(segments), ca.arcs


def _ladder(k, mobius):
    # the prism over C_k (k rungs) or the Möbius ladder on k vertices
    if mobius:
        vs = [f"m{i}" for i in range(k)]
        es = [(vs[i], vs[(i + 1) % k]) for i in range(k)]
        return Graph.build(vs, es + [(vs[i], vs[i + k // 2]) for i in range(k // 2)])
    a, b = [f"a{i}" for i in range(k)], [f"b{i}" for i in range(k)]
    es = [(x[i], x[(i + 1) % k]) for x in (a, b) for i in range(k)]
    return Graph.build(a + b, es + list(zip(a, b)))


def test_packed_sweep_on_hamiltonicity_witnesses():
    from tik.reductions import (
        find_hamiltonian_cycle,
        ham_cycle_realization,
        hc_to_balanced_instance,
    )

    bases = [_ladder(k, False) for k in range(4, 13)]
    bases += [_ladder(k, True) for k in range(8, 25, 2)]
    for g in bases:
        inst = hc_to_balanced_instance(g)
        rep = ham_cycle_realization(inst, find_hamiltonian_cycle(g))
        assert intersection_graph(rep) == inst.graph
        pieces = [(v, iv) for v, _, iv in rep.ground_set()]
        assert model._overlaps(pieces) == _tuple_overlaps(pieces)
