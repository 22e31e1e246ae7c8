import random
from fractions import Fraction

import pytest

from conftest import (
    circular_graph_pointcheck,
    meets_pointcheck,
    random_circular_rep,
    random_proper_circular_rep,
    random_xx_rep,
    within_pointcheck,
)
from tik import model, transforms
from tik.gadgets import k44e_22_realization
from tik.graphs import cycle, domino
from tik.model import (
    BALANCED,
    UNIT,
    XX,
    Arc,
    CircularArcRep,
    Interval,
    Representation,
    circular_intersection_graph,
    intersection_graph,
    q,
    two_interval,
)
from tik.recognize import Budget, recognize
from tik.transforms import (
    TransformError,
    balanced_from_circular_arc,
    generic_cut_point,
    proper_circular_arc_check,
    proper_to_unit_interval,
    stretch,
    unit_from_proper_circular_arc,
    unit_rep_to_integer_xx,
)


def c4_arcs() -> CircularArcRep:
    return CircularArcRep(q(8), {
        "v1": Arc(q(0), q(3)), "v2": Arc(q(2), q(5)),
        "v3": Arc(q(4), q(7)), "v4": Arc(q(6), q(1)),
    })


def proper_c6_arcs() -> CircularArcRep:
    return CircularArcRep(q(12), {
        f"v{i + 1}": Arc(q((2 * i) % 12), q((2 * i + 3) % 12)) for i in range(6)
    })


def test_balanced_from_circular_arc_c4():
    ca = c4_arcs()
    rep = balanced_from_circular_arc(ca, Fraction(3, 2))
    assert model.family_check(rep, BALANCED).ok
    assert intersection_graph(rep) == circular_intersection_graph(ca) == cycle(4)


def test_balanced_from_circular_arc_no_arc_through_cut():
    ca = CircularArcRep(q(10), {
        "a": Arc(q(1), q(3)), "b": Arc(q(2), q(5)),
    })
    rep = balanced_from_circular_arc(ca, q(7))
    assert model.family_check(rep, BALANCED).ok
    assert intersection_graph(rep) == circular_intersection_graph(ca)
    # every vertex was split in half
    assert rep["a"].left.length == rep["a"].right.length == q(1)


def test_balanced_from_circular_arc_single_arc():
    ca = CircularArcRep(q(10), {"a": Arc(q(8), q(2))})
    rep = balanced_from_circular_arc(ca, q(0))
    assert model.family_check(rep, BALANCED).ok
    assert len(intersection_graph(rep).edges) == 0


def test_balanced_from_circular_arc_endpoint_cut_rejected():
    with pytest.raises(TransformError, match="generic"):
        balanced_from_circular_arc(c4_arcs(), q(2))


def test_balanced_from_circular_arc_randomized():
    rng = random.Random(61)
    for _ in range(200):
        ca = random_circular_rep(rng, rng.randint(1, 10))
        rep = balanced_from_circular_arc(ca, generic_cut_point(ca))
        assert model.family_check(rep, BALANCED).ok
        assert intersection_graph(rep) == circular_intersection_graph(ca)


def test_unit_from_proper_circular_arc_c6():
    ca = proper_c6_arcs()
    rep = unit_from_proper_circular_arc(ca, Fraction(1, 2))
    assert model.family_check(rep, UNIT).ok
    assert intersection_graph(rep) == circular_intersection_graph(ca) == cycle(6)


def test_unit_from_proper_rejects_nested():
    ca = CircularArcRep(q(10), {
        "big": Arc(q(0), q(6)), "small": Arc(q(1), q(3)),
    })
    with pytest.raises(TransformError, match="containment"):
        unit_from_proper_circular_arc(ca, q(8))
    with pytest.raises(TransformError):
        proper_circular_arc_check(ca)


def test_unit_from_proper_rejects_cut_arc_inside_cut_arc():
    # both big and small run through the cut at 9, small inside big; the
    # heads close in the order small, big, while the tails open big, small,
    # so opening the heads in their close order would pass as FIFO
    ca = CircularArcRep(q(10), {
        "big": Arc(q(7), q(3)), "small": Arc(q(8), q(2)), "far": Arc(q(4), q(6)),
    })
    with pytest.raises(TransformError,
                       match=r"containment: \('small', 0\) within \('big', 0\)"):
        unit_from_proper_circular_arc(ca, q(9))
    with pytest.raises(TransformError, match="containment"):
        proper_circular_arc_check(ca)


def _arc_contains_arc(a: Arc, b: Arc, c: Fraction) -> bool:
    """b ⊆ a: each piece of b lies within one piece of a.  A piece is an
    interval and a's pieces are disjoint on [0, C], so a piece inside
    their union lies inside one of them."""
    segs_a = a.segments(c)
    return all(any(model.within(seg, sa) for sa in segs_a) for seg in b.segments(c))


def _pairwise_arc_check(ca):
    # the all-pairs containment test: the reference for the word check in
    # proper_circular_arc_check
    c = ca.circumference
    for u in ca.labels():
        for w in ca.labels():
            if u != w and _arc_contains_arc(ca[u], ca[w], c):
                raise TransformError(f"arc {u!r} contains arc {w!r}")


def _random_arcs(rng, n):
    # half-integer ends on a short circle, so starts tie and arcs wrap;
    # every closedness mix, about one arc in five ending at 0, and half
    # the systems of one length, which are proper unless ends tie
    c = 4
    length = q(rng.randint(1, 2 * c - 1)) / 2 if rng.random() < 0.5 else None
    arcs = {}
    for i in range(n):
        start = q(rng.randrange(2 * c)) / 2
        if start and rng.random() < 0.2:
            end = q(0)
        else:
            end = (start + (length or q(rng.randint(1, 2 * c - 1)) / 2)) % c
        arcs[f"v{i}"] = Arc(start, end, rng.random() < 0.5, rng.random() < 0.5)
    return CircularArcRep(q(c), arcs)


def test_proper_arc_check_matches_pairwise_reference():
    rng = random.Random(211)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        ca = _random_arcs(rng, rng.randint(1, 7))
        try:
            _pairwise_arc_check(ca)
            proper = True
        except TransformError:
            proper = False
        if proper:
            proper_circular_arc_check(ca)
        else:
            with pytest.raises(TransformError, match="containment"):
                proper_circular_arc_check(ca)
        verdicts[proper] += 1
    assert min(verdicts.values()) > 300, verdicts


def _quarter_points(arc, c):
    # the arc's points among k/4, 0 <= k < 4c: with half-integer ends these
    # are every end and a point inside every gap between two ends
    return frozenset(k for k in range(4 * c) if arc.contains_point(q(k) / 4, c))


def test_arc_contains_arc_matches_point_reference():
    # every arc with half-integer ends on circumference 4, every closedness
    c = 4
    ends = [q(k) / 2 for k in range(2 * c)]
    arcs = [Arc(s, e, sc, ec) for s in ends for e in ends if s != e
            for sc in (True, False) for ec in (True, False)]
    points = [_quarter_points(arc, c) for arc in arcs]
    contained = 0
    for a, pa in zip(arcs, points):
        for b, pb in zip(arcs, points):
            expected = pb <= pa
            assert _arc_contains_arc(a, b, q(c)) == expected, (a, b)
            contained += expected
    assert len(arcs) ** 2 == 50176 and contained > 5000, contained


def test_unit_from_proper_converts_every_proper_random_arc_system():
    # the draws of test_proper_arc_check_matches_pairwise_reference, with
    # properness decided by point membership
    rng = random.Random(211)
    proper = 0
    for _ in range(1500):
        ca = _random_arcs(rng, rng.randint(1, 7))
        c = int(ca.circumference)
        points = {v: _quarter_points(ca[v], c) for v in ca.labels()}
        if any(u != w and points[w] <= points[u] for u in points for w in points):
            with pytest.raises(TransformError, match="containment"):
                unit_from_proper_circular_arc(ca, generic_cut_point(ca))
            continue
        rep = unit_from_proper_circular_arc(ca, generic_cut_point(ca))
        assert model.family_check(rep, UNIT).ok
        assert intersection_graph(rep) == circular_graph_pointcheck(ca)
        proper += 1
    assert proper == 506


def test_unit_from_proper_accepts_iff_proper_at_every_cut():
    # the draws above, cut at every point k/8 that is no endpoint:
    # properness does not depend on the cut, and the word decides it
    rng = random.Random(211)
    accepted = rejected = 0
    for _ in range(1500):
        ca = _random_arcs(rng, rng.randint(1, 7))
        c = int(ca.circumference)
        points = {v: _quarter_points(ca[v], c) for v in ca.labels()}
        proper = not any(u != w and points[w] <= points[u] for u in points for w in points)
        ends = {e for arc in ca.arcs.values() for e in (arc.start, arc.end)}
        for p in (q(k) / 8 for k in range(8 * c)):
            if p in ends:
                continue
            try:
                unit_from_proper_circular_arc(ca, p)
                accepted += 1
            except TransformError as exc:
                assert not proper, (ca.arcs, p, exc)
                rejected += 1
                continue
            assert proper, (ca.arcs, p)
    assert (accepted, rejected) == (14439, 26071)


def _outward_stretch_reference(ca, p):
    """The cut-piece construction the event word replaced: stretch the
    heads left and the tails right in steps of 1/(4n), the head that closes
    first and the tail that opens first least, so that the pieces are
    proper; pad the uncut arcs far to the right and unitize the ground
    set."""
    through, whole = transforms._cut_positions(ca, q(p))
    n = len(ca)
    if n == 0:
        return Representation({})
    step = Fraction(1, 4 * n)
    ground = {}
    # the sweep order of ends and starts: an open end before a closed one,
    # a closed start before an open one
    heads = sorted(through, key=lambda v: (through[v][0].hi, through[v][0].hi_closed))
    for idx, v in enumerate(heads):
        head = through[v][0]
        ground[(v, 0)] = Interval(head.lo - (len(heads) - idx) * step, head.hi,
                                  head.lo_closed, head.hi_closed)
    tails = sorted(through, key=lambda v: (through[v][1].lo, not through[v][1].lo_closed))
    for rank, v in enumerate(tails, start=1):
        tail = through[v][1]
        ground[(v, 1)] = Interval(tail.lo, tail.hi + rank * step,
                                  tail.lo_closed, tail.hi_closed)
    ground.update(((v, 0), iv) for v, iv in whole.items())
    far = ca.circumference + n + 1
    for i, v in enumerate(sorted(whole)):
        ground[(v, 1)] = Interval(far + 2 * i, far + 2 * i + 1)
    units = proper_to_unit_interval(ground)
    return Representation({v: two_interval(units[(v, 0)], units[(v, 1)])
                           for v in ca.labels()})


def test_unit_from_proper_equals_outward_stretch_reference():
    # the 506 proper draws of the converts-every-proper test above
    rng = random.Random(211)
    proper = 0
    for _ in range(1500):
        ca = _random_arcs(rng, rng.randint(1, 7))
        p = generic_cut_point(ca)
        try:
            rep = unit_from_proper_circular_arc(ca, p)
        except TransformError:
            continue
        assert rep == _outward_stretch_reference(ca, p), ca.arcs
        proper += 1
    assert proper == 506


def test_unit_from_proper_circular_arc_randomized():
    rng = random.Random(67)
    for _ in range(200):
        ca = random_proper_circular_rep(rng, rng.randint(1, 10))
        rep = unit_from_proper_circular_arc(ca, generic_cut_point(ca))
        assert model.family_check(rep, UNIT).ok
        assert intersection_graph(rep) == circular_intersection_graph(ca)


def _generic_cut_point_reference(ca):
    """The loop `generic_cut_point` replaced: the first widest gap in the
    order of its start, skipping empty gaps, and an error when none is
    left."""
    c = ca.circumference
    points = sorted({arc.start for arc in ca.arcs.values()}
                    | {arc.end for arc in ca.arcs.values()})
    if not points:
        return c / 2
    best_gap = None
    best_mid = None
    for i, a in enumerate(points):
        b = points[(i + 1) % len(points)]
        width = (b - a) % c
        if width == 0:
            continue
        if best_gap is None or width > best_gap:
            best_gap = width
            best_mid = (a + width / 2) % c
    if best_mid is None:
        raise TransformError("cannot pick a generic cut point")
    return best_mid


def test_generic_cut_point_matches_loop_reference():
    # ends on a grid of m steps round circles of several circumferences,
    # so that two or more gaps are often the widest
    rng = random.Random(3401)
    tied = 0
    for _ in range(20000):
        c = q(rng.choice([1, 2, 3, 6])) / rng.choice([1, 2])
        m = rng.choice([4, 6, 8])
        arcs = {}
        for i in range(rng.randint(0, 6)):
            start, end = rng.sample(range(m), 2)
            arcs[f"v{i}"] = Arc(c * start / m, c * end / m)
        ca = CircularArcRep(c, arcs)
        got = generic_cut_point(ca)
        assert type(got) is Fraction and got == _generic_cut_point_reference(ca), arcs
        points = sorted({e for arc in arcs.values() for e in (arc.start, arc.end)})
        widths = [(b - a) % c for a, b in zip(points, points[1:] + points[:1])]
        tied += widths.count(max(widths, default=None)) > 1
    assert tied > 5000, tied


def test_generic_cut_point_without_arcs_is_half_the_circle():
    assert generic_cut_point(CircularArcRep(q(7), {})) == Fraction(7, 2)


def test_fifo_starts_rejects_an_infeasible_reach():
    # two intersecting intervals cannot start a step apart within reach 0
    word = [("a", model.OPEN), ("b", model.OPEN), ("a", model.CLOSE), ("b", model.CLOSE)]
    assert transforms.fifo_starts(word, 1, 1) == (["a", "b"], [0, 1])
    with pytest.raises(TransformError, match="admits no grid placement"):
        transforms.fifo_starts(word, 1, 0)


def test_proper_to_unit_staggered_frozen():
    units = proper_to_unit_interval({
        "a": Interval(q(0), q(10)),
        "b": Interval(q(1), q(11)),
        "c": Interval(q(2), q(12)),
    })
    assert [str(units[k].lo) for k in ("a", "b", "c")] == ["0", "1/6", "1/3"]
    assert all(iv.length == 1 for iv in units.values())


def test_proper_to_unit_disjoint():
    units = proper_to_unit_interval({
        "a": Interval(q(0), q(1)),
        "b": Interval(q(3), q(4)),
        "c": Interval(q(6), q(7)),
    })
    assert units["b"].lo > units["a"].hi
    assert units["c"].lo > units["b"].hi
    denominators = {iv.lo.denominator for iv in units.values()}
    assert all(6 % d == 0 for d in denominators)


def test_proper_to_unit_single():
    units = proper_to_unit_interval({"a": Interval(q(5), q(9))})
    assert str(units["a"]) == "[0, 1]"


def test_proper_to_unit_rejects_containment():
    with pytest.raises(TransformError, match="containment"):
        proper_to_unit_interval({
            "a": Interval(q(0), q(10)), "b": Interval(q(2), q(3)),
        })


def test_proper_to_unit_mixed_closedness_with_ties():
    # half-integer ends on a short range, so values tie often, and every
    # closedness mix; properness and meeting by point membership
    rng = random.Random(89)
    seen = {"proper": 0, "contained": 0, "tied": 0}
    for _ in range(1500):
        n = rng.randint(2, 7)
        intervals = {}
        for i in range(n):
            lo = q(rng.randint(0, 2 * n)) / 2
            hi = lo + q(rng.randint(0, 3)) / 2
            intervals[f"v{i}"] = Interval(
                lo, hi, *((True, True) if lo == hi else (rng.random() < 0.5, rng.random() < 0.5))
            )
        pairs = [(u, w) for u in intervals for w in intervals if u < w]
        if any(within_pointcheck(intervals[u], intervals[w])
               or within_pointcheck(intervals[w], intervals[u]) for u, w in pairs):
            with pytest.raises(TransformError, match="containment"):
                proper_to_unit_interval(intervals)
            seen["contained"] += 1
            continue
        units = proper_to_unit_interval(intervals)
        for u, w in pairs:
            assert meets_pointcheck(units[u], units[w]) == meets_pointcheck(
                intervals[u], intervals[w]), (intervals, u, w)
        assert all(iv.length == 1 and 2 * n % iv.lo.denominator == 0
                   for iv in units.values())
        seen["proper"] += 1
        ends = [e for iv in intervals.values() for e in (iv.lo, iv.hi)]
        seen["tied"] += len(set(ends)) < len(ends)
    assert min(seen.values()) > 200, seen


def test_proper_to_unit_preserves_graph_randomized():
    rng = random.Random(71)
    for _ in range(150):
        n = rng.randint(1, 9)
        # staggered proper system with random gaps
        los, his = [], []
        lo = q(0)
        hi = q(rng.randint(1, 6))
        for _ in range(n):
            los.append(lo)
            his.append(hi)
            lo = lo + q(rng.randint(1, 5))
            hi = max(hi + q(rng.randint(1, 5)), lo + 1)
        intervals = {
            f"v{i}": Interval(los[i], his[i]) for i in range(n)
        }
        units = proper_to_unit_interval(intervals)
        before = [
            (a, b)
            for a in intervals for b in intervals
            if a < b and model.intersects(intervals[a], intervals[b])
        ]
        after = [
            (a, b)
            for a in units for b in units
            if a < b and model.intersects(units[a], units[b])
        ]
        assert before == after
        denom = 2 * n
        for iv in units.values():
            assert denom % iv.lo.denominator == 0


# --- the suffix-constraint grid against the all-pairs reference ---------------


def _all_pairs_starts(ivs, step, near, far):
    """Reference: the least solution, the first start 0, of the all-pairs
    difference system over Fractions (starts at least `step` apart in
    order, intersecting pairs within `near`, the others at least `far`
    apart), by Bellman-Ford; None if there is none."""
    edges = []  # u_k >= u_j + w as (j, k, w)
    for k in range(1, len(ivs)):
        edges.append((k - 1, k, Fraction(step)))
        for j in range(k):
            if model.intersects(ivs[j], ivs[k]):
                edges.append((k, j, -Fraction(near)))
            else:
                edges.append((j, k, Fraction(far)))
    u = [Fraction(0)] * len(ivs)
    for _ in range(len(ivs) + 1):
        changed = False
        for j, k, w in edges:
            if u[j] + w > u[k]:
                u[k] = u[j] + w
                changed = True
        if not changed:
            return u
    return None


def _reference_unit_interval(intervals):
    order = sorted(intervals, key=lambda v: (intervals[v].lo, intervals[v].hi, v))
    gamma = Fraction(1, 2 * len(order))
    u = _all_pairs_starts([intervals[v] for v in order], gamma, 1, 1 + gamma)
    return {v: Interval(a, a + 1) for v, a in zip(order, u)}


def _reference_integer_xx(rep):
    ground = {f"{v}|{s}": iv for v, s, iv in rep.ground_set()}
    order = sorted(ground, key=lambda k: (ground[k].lo, ground[k].hi, k))
    span = 2 * len(rep)
    u = _all_pairs_starts([ground[k] for k in order], 0, span - 1, span)
    starts = dict(zip(order, u))

    def piece(v, s):
        a = starts[f"{v}|{s}"]
        return Interval(a, a + span, False, False)

    return Representation({v: two_interval(piece(v, 0), piece(v, 1)) for v in rep.labels()})


def _random_proper(rng, n):
    """n intervals with strictly rising ends on a half-integer grid, so ends
    touch often, every closedness mix, labels shuffled against the order."""
    los = sorted(rng.sample(range(3 * n), n))
    his, hi = [], -1
    for lo in los:
        hi = rng.randint(max(hi + 1, lo), max(hi + 1, lo) + 4)
        his.append(hi)
    labels = rng.sample(range(n), n)
    return {
        f"v{labels[i]}": Interval(
            q(lo) / 2, q(hi) / 2,
            *((True, True) if lo == hi else (rng.random() < 0.5, rng.random() < 0.5))
        )
        for i, (lo, hi) in enumerate(zip(los, his))
    }


def test_grid_starts_match_all_pairs_reference_on_proper_systems():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(1, 12)
        intervals = _random_proper(rng, n)
        assert proper_to_unit_interval(intervals) == _reference_unit_interval(intervals)
        # the ends rise strictly, so the proper order is the order by value
        order = sorted(intervals, key=lambda v: intervals[v].lo)
        ivs = [intervals[v] for v in order]
        word = model.event_word(intervals)
        for step, reach in ((1, 2 * n), (0, 2 * n - 1)):
            assert transforms.fifo_starts(word, step, reach) == (
                order, _all_pairs_starts(ivs, step, reach, reach + 1))


def _random_unit_rep(rng, n, ends):
    items = {}
    while len(items) < n:
        a, b = sorted(q(rng.randint(0, 3 * n)) / 2 for _ in range(2))
        try:
            items[f"v{rng.randint(0, 99)}"] = two_interval(
                Interval(a, a + 1, *ends), Interval(b, b + 1, *ends)
            )
        except model.ModelError:  # the two pieces meet
            continue
    return Representation(items)


@pytest.mark.parametrize("ends", [(True, True), (False, False), (True, False), (False, True)])
def test_unit_rep_to_integer_xx_matches_all_pairs_reference(ends):
    rng = random.Random(97)
    for _ in range(150):
        rep = _random_unit_rep(rng, rng.randint(1, 7), ends)
        assert model.family_check(rep, UNIT).ok
        out = unit_rep_to_integer_xx(rep)
        assert out == _reference_integer_xx(rep)
        assert intersection_graph(out) == intersection_graph(rep)


def test_assert_proper_matches_pairwise_containment():
    # set containment by point membership, closedness included: [0, 1) and
    # (0, 1] tie on both values and neither contains the other
    rng = random.Random(88)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 7)
        intervals = {}
        for i in range(n):
            lo = q(rng.randint(0, 8)) / 2
            hi = lo + q(rng.randint(0, 4)) / 2
            intervals[f"v{i}"] = Interval(
                lo, hi, *((True, True) if lo == hi else (rng.random() < 0.5, rng.random() < 0.5))
            )
        contained = any(
            within_pointcheck(b, a)
            for u, a in intervals.items() for w, b in intervals.items() if u != w
        )
        if contained:
            with pytest.raises(TransformError, match="containment"):
                proper_to_unit_interval(intervals)
        else:
            # the unit intervals rise in the sweep order, where a closed
            # start comes before an open one
            units = proper_to_unit_interval(intervals)
            assert sorted(units, key=lambda v: units[v].lo) == sorted(
                intervals, key=lambda v: (intervals[v].lo, not intervals[v].lo_closed)
            )
        verdicts[contained] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_stretch_hand_example():
    rep = Representation({
        "a": two_interval(
            Interval(q(0), q(2), False, False), Interval(q(4), q(6), False, False)
        )
    })
    out = stretch(rep)
    assert str(out["a"].left) == "(0, 3)"
    assert str(out["a"].right) == "(3, 6)"


def test_stretch_empty():
    rep = Representation({})
    assert stretch(rep) == rep


def test_stretch_k44e():
    rep = k44e_22_realization()
    out = stretch(rep)
    assert model.family_check(out, XX(3)).ok
    assert intersection_graph(out) == intersection_graph(rep)


def test_stretch_rejects_non_xx():
    rep = Representation({
        "a": two_interval(Interval(q(0), q(1)), Interval(q(2), q(3)))
    })
    with pytest.raises(TransformError):
        stretch(rep)


def test_stretch_randomized_and_composes():
    rng = random.Random(73)
    for _ in range(200):
        n = rng.randint(1, 8)
        x = rng.randint(1, 4)
        rep = random_xx_rep(rng, n, x)
        g = intersection_graph(rep)
        out = stretch(rep)
        assert model.family_check(out, XX(x + 1)).ok
        assert intersection_graph(out) == g
        out2 = stretch(out)
        assert model.family_check(out2, XX(x + 2)).ok
        assert intersection_graph(out2) == g


def _sweep_stretch_reference(rep, x):
    """The left-to-right sweep `stretch` ran before the grid placement:
    take the leftmost pending interval [a, b], stretch every pending
    interval starting before b in place, translate the rest right by one,
    repeat.  It keeps the input's offsets."""
    pending = sorted([iv.lo, (v, side)] for v, side, iv in rep.ground_set())
    done = {}
    while pending:
        b = pending[0][0] + x
        keep = []
        for entry in pending:
            if entry[0] < b:
                done[entry[1]] = entry[0]
            else:
                entry[0] += 1
                keep.append(entry)
        pending = keep
    return Representation({v: model.xx_two_interval(done[v, 0], done[v, 1], x + 1)
                           for v in rep.labels()})


def test_stretch_agrees_with_sweep_reference():
    rng = random.Random(29)
    for _ in range(600):
        n = rng.randint(1, 12)
        x = rng.randint(1, 5)
        rep = random_xx_rep(rng, n, x)
        out, ref = stretch(rep), _sweep_stretch_reference(rep, x)
        assert model.family_check(out, XX(x + 1)).ok
        assert model.family_check(ref, XX(x + 1)).ok
        assert intersection_graph(out) == intersection_graph(ref) == intersection_graph(rep)


def test_stretch_ignores_translation():
    # the output is the least placement of the input's event word
    rng = random.Random(31)
    for _ in range(300):
        rep = random_xx_rep(rng, rng.randint(1, 10), rng.randint(1, 5))
        out = stretch(rep)
        assert min(iv.lo for _, _, iv in out.ground_set()) == 0
        for t in (7, rng.randint(-50, 50)):
            assert stretch(model.affine(rep, 1, t)) == out


def test_grid_placement_of_xx_word_feasible_from_reach_x_minus_1():
    """An open integer (x,x) rep places its own event word at reach x - 1,
    so every larger reach is feasible too (design notes: "Unitization by
    difference constraints"); at reach x the placement is `stretch`'s."""
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(1, 10)
        x = rng.randint(1, 5)
        rep = random_xx_rep(rng, n, x)
        g = intersection_graph(rep)
        word = model.event_word({(v, s): iv for v, s, iv in rep.ground_set()})
        for reach in range(x - 1, x + 4):
            starts = dict(zip(*transforms.fifo_starts(word, 0, reach)))
            out = Representation({
                v: model.xx_two_interval(starts[v, 0], starts[v, 1], reach + 1)
                for v in rep.labels()
            })
            assert model.family_check(out, XX(reach + 1)).ok
            assert intersection_graph(out) == g
            if reach == x:
                assert out == stretch(rep)


def test_unit_rep_to_integer_xx_domino():
    out = recognize(domino(), UNIT, Budget(10**7))
    assert out.is_member()
    xx = unit_rep_to_integer_xx(out.certificate)
    assert model.family_check(xx, XX(12)).ok
    assert intersection_graph(xx) == domino()


def test_unit_rep_to_integer_xx_single():
    rep = Representation({
        "a": two_interval(Interval(q(0), q(1)), Interval(q(5), q(6)))
    })
    out = unit_rep_to_integer_xx(rep)
    assert model.family_check(out, XX(2)).ok


def test_unit_rep_to_integer_xx_rejects_non_unit():
    rep = Representation({
        "a": two_interval(Interval(q(0), q(2)), Interval(q(5), q(6)))
    })
    with pytest.raises(TransformError):
        unit_rep_to_integer_xx(rep)
