"""Constructive transformations between representation classes; each one
preserves the intersection graph exactly.

* circular-arc -> balanced 2-interval (cut the circle, split uncut arcs
  in half, pad the cut pairs outward to equal lengths),
* proper circular-arc -> unit 2-interval (cut, order the cut pieces'
  events first in, first out, add disjoint padding intervals, then
  unitize the event word),
* open integer length-x -> length-(x+1) and unit -> open integer
  length-2n, both the grid placement of the ground set's event word
  (at reach x and 2n - 1).
"""

from __future__ import annotations

from fractions import Fraction

from .model import (
    BALANCED,
    CLOSE,
    OPEN,
    UNIT,
    XX,
    Arc,
    CircularArcRep,
    Interval,
    Representation,
    TwoInterval,
    event_word,
    family_check,
    q,
    two_interval,
    xx_two_interval,
)

class TransformError(ValueError):
    pass


# --- circle cutting -----------------------------------------------------------


def _cut_positions(ca: CircularArcRep, cut):
    """Cut the circle at `cut`, by default `generic_cut_point`: each arc,
    turned by -cut, is cut by `Arc.segments` at the wrap point, which
    closes the cut ends.  An arc through the cut gives a head [0, end] and
    a tail [start, C], the others one interval.  Returns (through, whole)
    keyed by label."""
    c = ca.circumference
    p = generic_cut_point(ca) if cut is None else q(cut)
    if not (0 <= p < c):
        raise TransformError("cut point must lie in [0, circumference)")
    through: dict[str, tuple[Interval, Interval]] = {}
    whole: dict[str, Interval] = {}
    for v in ca.labels():
        arc = ca[v]
        if p == arc.start or p == arc.end:
            raise TransformError(
                f"cut point touches an endpoint of {v!r}; pick a generic point"
            )
        pieces = Arc((arc.start - p) % c, (arc.end - p) % c,
                     arc.start_closed, arc.end_closed).segments(c)
        if len(pieces) == 2:
            tail, head = pieces
            through[v] = (head, tail)
        else:
            whole[v] = pieces[0]
    return through, whole


def generic_cut_point(ca: CircularArcRep) -> Fraction:
    """Midpoint of the widest endpoint-free stretch of the circle, the
    first in the order of its start.  `Arc` has start != end, so a model
    with arcs has two points at least and every gap is positive."""
    c = ca.circumference
    points = sorted({arc.start for arc in ca.arcs.values()}
                    | {arc.end for arc in ca.arcs.values()})
    if not points:
        return c / 2
    gaps = ((a, (b - a) % c) for a, b in zip(points, points[1:] + points[:1]))
    a, width = max(gaps, key=lambda gap: gap[1])
    return (a + width / 2) % c


def balanced_from_circular_arc(ca: CircularArcRep, cut=None) -> Representation:
    """Cut the circle at `cut` (by default `generic_cut_point`); arcs
    through the cut become 2-intervals whose shorter side is extended
    outward to match the longer; the rest are halved at their midpoint
    (left half open at the split, so the halves stay disjoint)."""
    through, whole = _cut_positions(ca, cut)
    items: dict[str, TwoInterval] = {}
    for v, (head, tail) in through.items():
        lh, lt = head.length, tail.length
        if lh < lt:
            head = Interval(head.hi - lt, head.hi, head.lo_closed, head.hi_closed)
        elif lt < lh:
            tail = Interval(tail.lo, tail.lo + lh, tail.lo_closed, tail.hi_closed)
        items[v] = two_interval(head, tail)
    for v, iv in whole.items():
        mid = (iv.lo + iv.hi) / 2
        left = Interval(iv.lo, mid, iv.lo_closed, False)
        right = Interval(mid, iv.hi, True, iv.hi_closed)
        items[v] = two_interval(left, right)
    rep = Representation(items)
    assert family_check(rep, BALANCED).ok
    return rep


def proper_circular_arc_check(ca: CircularArcRep) -> None:
    """Raise TransformError if some arc contains another: the word check
    of `unit_from_proper_circular_arc` at its default cut, since
    properness does not depend on the cut (design notes: "Cut pieces")."""
    unit_from_proper_circular_arc(ca)


def unit_from_proper_circular_arc(ca: CircularArcRep, cut=None) -> Representation:
    """Cut a proper circular-arc representation at `cut` (by default
    `generic_cut_point`), pad single intervals with far-away partners, and
    unitize the pieces' event word; TransformError if some arc contains
    another.

    The cut pieces tie at the cut: every head starts at 0 and every tail
    ends at C.  The word opens the heads in the order their tails open
    and closes the tails in that order too, which keeps the pieces proper
    (as stretching the heads left and the tails right would); the other
    events keep the sweep order, and each padding partner opens and closes
    after them all.  The arcs are proper iff no two of them tie at an end
    and the word is FIFO (design notes: "Cut pieces")."""
    through, whole = _cut_positions(ca, cut)
    # a piece's end off the cut is an arc's end turned by -cut, so the
    # pieces tie there iff the arcs tie
    _untied((v, end) for v, a in sorted(ca.arcs.items())
            for end in ((a.start, a.start_closed, OPEN), (a.end, a.end_closed, CLOSE)))
    pieces = {(v, side): iv for v, halves in through.items()
              for side, iv in enumerate(halves)}
    pieces.update(((v, 0), iv) for v, iv in whole.items())
    # the heads' opens come first in the sweep order, the tails' closes last
    heads = len(through)
    inner = event_word(pieces)[heads:2 * len(pieces) - heads]
    tails = [iid for iid, _ in inner if iid[1]]  # the tails' opens, in order
    word = [((v, 0), OPEN) for v, _ in tails] + inner + [(iid, CLOSE) for iid in tails]
    for v in sorted(whole):
        word += ((v, 1), OPEN), ((v, 1), CLOSE)
    units = _unitize(word)
    rep = Representation({v: two_interval(units[(v, 0)], units[(v, 1)])
                          for v in ca.labels()})
    assert family_check(rep, UNIT).ok
    return rep


# --- proper -> unit interval ---------------------------------------------------


def proper_to_unit_interval(intervals: dict) -> dict:
    """Unit realization of a proper (containment-free) interval system with
    the same intersection pattern; endpoints are multiples of 1/(2n) for n
    input intervals.

    The system is proper iff its 2n sweep keys are distinct and its event
    word is FIFO (design notes: "Unitization by difference constraints"):
    two starts or two ends at one key put one interval within the other,
    and `fifo_starts` refuses every other containment."""
    _untied((v, end) for v, iv in intervals.items()
            for end in ((iv.lo, iv.lo_closed, OPEN), (iv.hi, iv.hi_closed, CLOSE)))
    return _unitize(event_word(intervals))


def _untied(ends) -> None:
    # TransformError if two of the (id, end) pairs `ends` share an end,
    # an end being (value, closedness, OPEN or CLOSE): two starts or two
    # ends at one key put one interval within the other
    first = {}  # end -> the first id with that end
    for v, end in ends:
        u = first.setdefault(end, v)
        if u != v:
            raise TransformError(f"containment: {u!r} and {v!r} tie at an end")


def _unitize(word) -> dict:
    # the closed unit intervals of a FIFO word of length m: the grid
    # placement with step 1 and reach m, scaled down by m
    m = len(word)
    order, starts = fifo_starts(word, 1, m)
    return {v: Interval(Fraction(a, m), Fraction(a + m, m)) for v, a in zip(order, starts)}


def fifo_starts(word, step: int, reach: int) -> tuple[list, list[int]]:
    """The ids of a FIFO event word in open order, and their least integer
    starts, the first 0: each start at least `step` past the one before,
    intersecting pairs at most `reach` apart and the other pairs more than
    `reach` apart.

    The k-th interval to open meets exactly its predecessors still open
    then, f(k), ..., k - 1, where f(k) counts the closes before its open;
    the starts are `_least_starts(f, step, reach)`.  TransformError if a
    close is not of the oldest open interval."""
    order = []  # interval ids in open order
    fs = []
    closes = 0
    for iid, kind in word:
        if kind == OPEN:
            fs.append(closes)
            order.append(iid)
        elif closes < len(order) and order[closes] == iid:
            closes += 1
        elif closes < len(order):  # opened after the oldest, it closes first
            raise TransformError(f"containment: {iid!r} within {order[closes]!r}")
        else:
            raise TransformError(f"close of {iid!r}, which is not open")
    return order, _least_starts(fs, step, reach)


def _least_starts(fs: list[int], step: int, reach: int) -> list[int]:
    """Least integer starts, the first 0, of a system in order whose
    interval k meets exactly its predecessors fs[k], ..., k - 1 (fs never
    falls, fs[k] <= k): each start at least `step` past the one before,
    and interval k at most `reach` past start fs[k] and more than `reach`
    past start fs[k] - 1.  With the starts in order these 3n difference
    constraints imply the bounds of every other pair, so they have the
    same feasible set as the all-pairs system; Bellman-Ford from 0 gives
    its least point.
    """
    edges = []  # u_k >= u_j + w as (j, k, w)
    for k in range(1, len(fs)):
        f = fs[k]
        edges.append((k - 1, k, step))
        if f:
            edges.append((f - 1, k, reach + 1))
        if f < k:
            edges.append((k, f, -reach))
    u = [0] * len(fs)
    for _ in range(len(fs) + 1):
        changed = False
        for j, k, w in edges:
            if u[j] + w > u[k]:
                u[k] = u[j] + w
                changed = True
        if not changed:
            return u
    raise TransformError("interval system admits no grid placement")


# --- open integer (x,x) outputs: one grid placement ---------------------------


def _grid_xx(rep: Representation, reach: int) -> Representation:
    """Open integer (reach+1, reach+1) realization of a representation
    whose ground set's event word is FIFO: the word's grid placement with
    step 0 and `reach`, intersecting pairs at most `reach` apart and
    disjoint pairs at least reach + 1 apart (open intervals of length
    reach + 1 at that distance just touch)."""
    ground = {(v, s): iv for v, s, iv in rep.ground_set()}
    starts = dict(zip(*fifo_starts(event_word(ground), 0, reach)))
    out = Representation({v: xx_two_interval(starts[v, 0], starts[v, 1], reach + 1)
                          for v in rep.labels()})
    assert family_check(out, XX(reach + 1)).ok
    return out


def stretch(rep: Representation) -> Representation:
    """Open integer (x+1, x+1) realization of an open integer (x,x) one,
    x the length of its first ground interval: the grid placement of its
    event word at reach x.  The input itself places the word at reach
    x - 1, so reach x is feasible too (design notes: "Unitization by
    difference constraints").  The output starts at 0 and depends only on
    the word, so a translated input gives the same output."""
    if len(rep) == 0:
        return rep
    _, _, first = rep.ground_set()[0]
    x = first.length
    if x.denominator != 1 or x < 1:
        raise TransformError("ground set length is not a positive integer")
    verdict = family_check(rep, XX(int(x)))
    if not verdict.ok:
        raise TransformError(f"input is not an open integer rep: {verdict.reason}")
    return _grid_xx(rep, int(x))


def unit_rep_to_integer_xx(rep: Representation) -> Representation:
    """Open-interval realization with integer endpoints and length 2n from
    a unit realization (n vertices).

    The unit verifier requires one closedness, so two intervals that tie
    at a start are equal and tie at the end too, and the ground set's
    event word is FIFO.  It is re-placed on the grid at reach 2n - 1.
    """
    verdict = family_check(rep, UNIT)
    if not verdict.ok:
        raise TransformError(f"input is not a unit representation: {verdict.reason}")
    if len(rep) == 0:
        return rep
    return _grid_xx(rep, 2 * len(rep) - 1)
