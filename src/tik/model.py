"""Exact representation model: intervals, 2-intervals, circular arcs.

All endpoints are exact rationals (fractions.Fraction).  Intersection is
closedness-aware: `intersects` tests one pair, and one endpoint sweep finds
every meeting pair of a representation.  Each family verifier imposes its
own endpoint convention on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, itemgetter

from .graphs import Graph

# read in C by the sweeps
_KEY, _SECOND, _THIRD = attrgetter("_key"), itemgetter(1), itemgetter(2)

OPEN, CLOSE = 0, 1  # the kinds of an event word's events


class ModelError(ValueError):
    pass


def q(value) -> Fraction:
    """Coerce ints / 'p/q' strings / Fractions to an exact rational."""
    if type(value) is int:  # not a bool, which JSON true/false parse to
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"bad rational literal {value!r}: {exc}") from None
    raise ModelError(f"cannot interpret {value!r} as a rational")


def q_str(value: Fraction) -> str:
    value = q(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True, init=False)
class Interval:
    """Interval with per-endpoint closedness.  Degenerate points ([p,p],
    both ends closed) are representable but rejected by every family
    verifier.  `_key`, built with it outside the fields, is (lo, hi, d):
    each end as the int 4·(value·d) + rank, d the lcm of the ends'
    denominators (design notes: "Intersection graphs by one sweep")."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __init__(self, lo, hi, lo_closed=True, hi_closed=True):
        # one pass: coerce the ends (a Fraction as it is), build the key,
        # and write fields and key at once (the class is frozen)
        if type(lo) is not Fraction:
            lo = q(lo)
        if type(hi) is not Fraction:
            hi = q(hi)
        lo_key, d = lo.as_integer_ratio()
        hi_key, hi_den = hi.as_integer_ratio()
        if d != hi_den:
            lo_den, d = d, math.lcm(d, hi_den)
            lo_key *= d // lo_den
            hi_key *= d // hi_den
        lo_key = 4 * lo_key + (1 if lo_closed else 3)
        hi_key = 4 * hi_key + (2 if hi_closed else 0)
        self.__dict__.update(lo=lo, hi=hi, lo_closed=lo_closed, hi_closed=hi_closed,
                             _key=(lo_key, hi_key, d))
        if lo_key > hi_key:  # lo > hi, or lo = hi with an open end
            if lo > hi:
                raise ModelError(f"interval with lo > hi: {self}")
            raise ModelError("degenerate interval must be closed at both ends")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def is_degenerate(self) -> bool:
        lo, hi, _ = self._key
        return lo >> 2 == hi >> 2

    def contains_point(self, x: Fraction) -> bool:
        x = q(x)
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def __str__(self):
        l = "[" if self.lo_closed else "("
        r = "]" if self.hi_closed else ")"
        return f"{l}{q_str(self.lo)}, {q_str(self.hi)}{r}"


def interval(lo, hi, lo_closed=True, hi_closed=True) -> Interval:
    return Interval(q(lo), q(hi), lo_closed, hi_closed)


def open_interval(lo, hi) -> Interval:
    return Interval(q(lo), q(hi), False, False)


def _rescale(key: int, m: int) -> int:
    # a key over d, over d·m (>> and & floor, so negative values keep rank)
    return (key >> 2) * m << 2 | key & 3


def _pair_keys(a: Interval, b: Interval) -> tuple[int, int, int, int]:
    # the ends of a and b as keys over one denominator
    a_lo, a_hi, a_den = a._key
    b_lo, b_hi, b_den = b._key
    if a_den != b_den:
        den = math.lcm(a_den, b_den)
        a_lo, a_hi = _rescale(a_lo, den // a_den), _rescale(a_hi, den // a_den)
        b_lo, b_hi = _rescale(b_lo, den // b_den), _rescale(b_hi, den // b_den)
    return a_lo, a_hi, b_lo, b_hi


def intersects(a: Interval, b: Interval) -> bool:
    """True iff some point lies in both intervals, respecting closedness:
    each starts before the other ends, in the sweep order."""
    a_lo, a_hi, b_lo, b_hi = _pair_keys(a, b)
    return a_lo < b_hi and b_lo < a_hi


def within(a: Interval, b: Interval) -> bool:
    """True iff a ⊆ b, respecting closedness: a starts no earlier and ends
    no later than b, in the sweep order."""
    a_lo, a_hi, b_lo, b_hi = _pair_keys(a, b)
    return b_lo <= a_lo and a_hi <= b_hi


@dataclass(frozen=True)
class TwoInterval:
    """Union of two disjoint intervals, normalized so left.lo <= right.lo."""

    left: Interval
    right: Interval

    def __post_init__(self):
        a_lo, a_hi, a_den = self.left._key
        b_lo, b_hi, b_den = self.right._key
        if a_den != b_den:
            a_lo, a_hi, b_lo, b_hi = _pair_keys(self.left, self.right)
        if a_lo < b_hi and b_lo < a_hi:
            raise ModelError(f"2-interval halves intersect: {self.left} {self.right}")
        if a_lo >> 2 > b_lo >> 2:
            raise ModelError("2-interval not normalized: left.lo > right.lo")

    def parts(self) -> tuple[Interval, Interval]:
        return (self.left, self.right)

    def __str__(self):
        return f"{self.left} u {self.right}"


def two_interval(a: Interval, b: Interval) -> TwoInterval:
    """Build a TwoInterval from two disjoint intervals in either order."""
    a_lo, _, a_den = a._key
    b_lo, _, b_den = b._key
    # the starts over the denominator a_den·b_den, in the sweep order
    # (`_rescale` of each, inline)
    if ((b_lo >> 2) * a_den << 2 | b_lo & 3) < ((a_lo >> 2) * b_den << 2 | a_lo & 3):
        a, b = b, a
    return TwoInterval(a, b)


def xx_two_interval(a, b, x) -> TwoInterval:
    """The (x,x) 2-interval: open pieces of length x starting at a and b,
    in either order."""
    return two_interval(Interval(a, a + x, False, False), Interval(b, b + x, False, False))


class _LabelledMap:
    """A map label -> piece, copied when built and never changed: what
    `Representation` and `CircularArcRep` share.  Each sets `_map` in its
    own `__init__`, as a `super().__init__` call would cost every leaf
    certificate of a search one more call."""

    _map: dict

    def labels(self) -> list[str]:
        return sorted(self._map)

    def __len__(self):
        return len(self._map)

    def __getitem__(self, label: str):
        return self._map[label]

    def __contains__(self, label: str) -> bool:
        return label in self._map

    def __eq__(self, other):
        # equal only to a map of its own class; arcs also compare their
        # circumference
        if type(other) is not type(self):
            return NotImplemented
        return self._map == other._map and (getattr(self, "circumference", None)
                                            == getattr(other, "circumference", None))


class Representation(_LabelledMap):
    """Map vertex label -> TwoInterval.  Immutable, so its ground set is
    built once."""

    def __init__(self, items: dict[str, TwoInterval]):
        self._map = items = dict(items)
        ground = []
        for v in sorted(items):
            ti = items[v]
            ground += (v, 0, ti.left), (v, 1, ti.right)
        self._ground = tuple(ground)

    @property
    def items(self) -> dict[str, TwoInterval]:
        return dict(self._map)

    def ground_set(self) -> list[tuple[str, int, Interval]]:
        """All intervals as (label, side, interval), side 0 = left, 1 = right,
        in a fresh list."""
        return list(self._ground)

    def span(self) -> Interval:
        if not self._map:
            raise ModelError("empty representation has no span")
        ground = self._ground
        return Interval(min(iv.lo for _, _, iv in ground), max(iv.hi for _, _, iv in ground))


@dataclass(frozen=True)
class Arc:
    """Circular arc running clockwise from start to end, wrap allowed.
    start == end (full circle) is not representable."""

    start: Fraction
    end: Fraction
    start_closed: bool = True
    end_closed: bool = True

    def __post_init__(self):
        self.__dict__.update(start=q(self.start), end=q(self.end))  # frozen
        if self.start == self.end:
            raise ModelError("full-circle arcs are not representable")

    def wraps(self) -> bool:
        return self.end < self.start

    def segments(self, circumference: Fraction) -> list[Interval]:
        """Decompose into linear intervals on [0, C]; the wrap point is
        interior, so cut ends there are closed.  An arc ending open at 0
        misses the wrap point and is the single piece [start, C)."""
        if not self.wraps():
            return [Interval(self.start, self.end, self.start_closed, self.end_closed)]
        if self.end == 0 and not self.end_closed:
            return [Interval(self.start, circumference, self.start_closed, False)]
        return [
            Interval(self.start, circumference, self.start_closed, True),
            Interval(q(0), self.end, True, self.end_closed),
        ]

    def contains_point(self, x: Fraction, circumference: Fraction) -> bool:
        return any(seg.contains_point(x) for seg in self.segments(circumference))


class CircularArcRep(_LabelledMap):
    """Arcs on a circle of rational circumference."""

    def __init__(self, circumference, arcs: dict[str, Arc]):
        self.circumference = q(circumference)
        if self.circumference <= 0:
            raise ModelError("circumference must be positive")
        for v, a in arcs.items():
            for x in (a.start, a.end):
                if not (0 <= x < self.circumference):
                    raise ModelError(f"arc endpoint {q_str(x)} of {v!r} outside [0, C)")
        self._map = dict(arcs)

    @property
    def arcs(self) -> dict[str, Arc]:
        return dict(self._map)


# --- intersection graphs ---------------------------------------------------


def _sweep_keys(ivs) -> tuple[int, list[tuple[int, int, int]]]:
    """The common denominator of the intervals' endpoints, and each
    interval's `_key` over it: ints, which sort far faster than Fractions,
    in the sweep order of `_overlaps`."""
    keys = list(map(_KEY, ivs))
    dens = set(map(_THIRD, keys))
    if len(dens) < 2:  # the keys share one denominator already
        return (dens.pop() if dens else 1), keys
    den = math.lcm(*dens)
    out = []
    for lo, hi, d in keys:  # `_rescale` of both ends, inline
        m = den // d
        out.append(((lo >> 2) * m << 2 | lo & 3, (hi >> 2) * m << 2 | hi & 3, den))
    return den, out


def _events(ivs) -> tuple[int, list[int]]:
    """b, the bit length of the number of intervals in the iterable `ivs`,
    and every end of them as the int key << b | i, i the index of its
    interval in `ivs`, sorted: the sweep order, ties broken by index.  As
    0 <= i < 2**b, these ints order like the pairs (key, i), negative keys
    included; bit b is the key's parity, set on a start."""
    _, keys = _sweep_keys(ivs)
    b = len(keys).bit_length()
    events = []
    for i, (lo, hi, _) in enumerate(keys):
        events += lo << b | i, hi << b | i
    events.sort()
    return b, events


def event_word(intervals: dict) -> list[tuple]:
    """The event word of {id: Interval}: every start as (id, OPEN) and end
    as (id, CLOSE), in the sweep order of `_overlaps`, ties (two starts or
    two ends at one key) broken by id: the events are built over the ids
    in sorted order, so a tie's indices order as its ids."""
    ids = sorted(intervals)
    b, events = _events(map(intervals.__getitem__, ids))
    mask, start = (1 << b) - 1, 1 << b
    return [(ids[e & mask], OPEN if e & start else CLOSE) for e in events]


def word_ends(word) -> dict:
    """The reader of the event-word format `event_word` builds: {id:
    [open position, close position]} of a word of (id, OPEN) and (id,
    CLOSE) events, each id opened once and closed at most once, after its
    open.  An interval that never closes (a cut arc's suffix) keeps None
    as its close."""
    ends = {}
    for i, (iid, kind) in enumerate(word):
        if kind == OPEN:
            if iid in ends:
                raise ModelError(f"interval {iid!r} opened twice")
            ends[iid] = [i, None]
        elif kind == CLOSE:
            at = ends.get(iid)
            if at is None or at[1] is not None:
                raise ModelError(f"interval {iid!r} closed out of order")
            at[1] = i
        else:
            raise ModelError(f"bad event kind {kind!r}")
    return ends


def _overlaps(pieces) -> list[tuple]:
    """Every pair of keys whose intervals share a point, from one sweep over
    ``pieces``, a list of (key, Interval).

    At equal values the events run open end, closed start, closed end, open
    start: the order of x - eps, x, x, x + eps with starts before ends at x.
    So two intervals meet iff one starts while the other is active.
    """
    labels = [key for key, _ in pieces]
    b, events = _events(map(_SECOND, pieces))
    mask, start = (1 << b) - 1, 1 << b
    active: set[int] = set()
    pairs = []
    for e in events:
        i = e & mask
        if e & start:  # a start
            key = labels[i]
            for j in active:  # mostly none or one: a loop, not a generator
                pairs.append((labels[j], key))
            active.add(i)
        else:
            active.discard(i)
    return pairs


def intersection_graph(rep: Representation) -> Graph:
    pairs = _overlaps([(v, iv) for v, _, iv in rep.ground_set()])
    return Graph.build(rep.labels(), [(u, v) for u, v in pairs if u != v])


def circular_intersection_graph(ca: CircularArcRep) -> Graph:
    c = ca.circumference
    pairs = _overlaps([(v, seg) for v in ca.labels() for seg in ca[v].segments(c)])
    return Graph.build(ca.labels(), [(u, v) for u, v in pairs if u != v])


# --- family selectors and verifiers ----------------------------------------


# the families a FamilySelector names, in the order the CLI lists them
FAMILY_KINDS = (
    "2interval", "balanced", "unit", "xx",
    "interval", "unit-interval", "circular-arc",
)


@dataclass(frozen=True)
class FamilySelector:
    kind: str
    x: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ModelError(f"unknown family {self.kind!r}")
        if self.kind == "xx":
            if type(self.x) is not int or self.x < 1:  # positions are ints, not bools
                raise ModelError(f"xx family needs an int x >= 1, got {self.x!r}")
        elif self.x is not None:
            raise ModelError(f"family {self.kind!r} takes no x parameter")

    def __str__(self):
        return f"xx({self.x})" if self.kind == "xx" else self.kind


TWO_INTERVAL = FamilySelector("2interval")
BALANCED = FamilySelector("balanced")
UNIT = FamilySelector("unit")
INTERVAL_CLASS = FamilySelector("interval")
UNIT_INTERVAL = FamilySelector("unit-interval")
CIRCULAR_ARC = FamilySelector("circular-arc")


def XX(x: int) -> FamilySelector:
    return FamilySelector("xx", x)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


PASS = Verdict(True)


def _fail(reason: str) -> Verdict:
    return Verdict(False, reason)


def family_check(rep, family: FamilySelector) -> Verdict:
    """Check that a representation satisfies a family's metric convention.

    For interval / unit-interval selectors the right intervals must be pure
    padding (they intersect nothing), so the left intervals alone realize
    the graph; certificates from the recognizer have that shape.  Unit and
    unit-interval selectors also require one closedness across the whole
    ground set.
    """
    if family.kind == "circular-arc":
        if not isinstance(rep, CircularArcRep):
            return _fail("circular-arc check expects a CircularArcRep")
        return PASS
    if not isinstance(rep, Representation):
        return _fail(f"{family} check expects a Representation")

    for v, side, iv in rep.ground_set():
        if iv.is_degenerate():
            return _fail(f"degenerate {('left', 'right')[side]} interval at {v!r}")

    if family.kind == "2interval":
        return PASS

    if family.kind == "balanced":
        # lengths compared on the keys: hi - lo in units of the shared 1/d
        for v in rep.labels():
            ti = rep[v]
            a_lo, a_hi, b_lo, b_hi = _pair_keys(ti.left, ti.right)
            if (a_hi >> 2) - (a_lo >> 2) != (b_hi >> 2) - (b_lo >> 2):
                return _fail(
                    f"{v!r} unbalanced: |left| = {q_str(ti.left.length)}, "
                    f"|right| = {q_str(ti.right.length)}"
                )
        return PASS

    if family.kind in ("unit", "unit-interval"):
        ground = rep.ground_set()
        for v, side, iv in ground:
            lo, hi, d = iv._key
            if (hi >> 2) - (lo >> 2) != d:
                return _fail(f"{v!r} has interval of length {q_str(iv.length)} != 1")
        # one closedness throughout: equal lengths then keep an interval's
        # intersecting predecessors a suffix (see the design notes)
        for (u, _, a), (v, _, b) in zip(ground, ground[1:]):
            if (a.lo_closed, a.hi_closed) != (b.lo_closed, b.hi_closed):
                return _fail(f"mixed closedness: {u!r} has {a}, {v!r} has {b}")
        if family.kind == "unit-interval":
            return _padding_rights(rep)
        return PASS

    if family.kind == "xx":
        x = family.x
        for v, side, iv in rep.ground_set():
            if iv.lo_closed or iv.hi_closed:
                return _fail(f"{v!r} has a non-open interval")
            lo, hi, d = iv._key
            if d != 1:
                return _fail(f"{v!r} has a non-integer endpoint")
            if (hi >> 2) - (lo >> 2) != x:
                return _fail(f"{v!r} has interval of length {q_str(iv.length)} != {x}")
        return PASS

    return _padding_rights(rep)  # interval, the one kind left


def _padding_rights(rep: Representation) -> Verdict:
    pairs = _overlaps([((v, side), iv) for v, side, iv in rep.ground_set()])
    bad = [v for pair in pairs for v, side in pair if side == 1]
    if bad:
        return _fail(f"right interval of {min(bad)!r} is not pure padding")
    return PASS


# --- contiguity -------------------------------------------------------------


@dataclass(frozen=True)
class Contiguity:
    contiguous: bool
    holes: tuple[Interval, ...]


def contiguity(rep: Representation) -> Contiguity:
    """Is the union of the ground set a single interval?  Holes are the
    maximal uncovered gaps strictly inside the span."""
    if len(rep) == 0:
        raise ModelError("contiguity undefined for an empty representation")
    den, keys = _sweep_keys(map(_THIRD, rep._ground))
    keys.sort()
    holes: list[Interval] = []
    reach = keys[0][1]
    for lo, hi, _ in keys:
        # joined unless a gap, or an open start at an open end, comes first
        if lo - reach < 3:
            if hi > reach:
                reach = hi
            continue
        # closed where the run or the next start is open: an open start at
        # an open end leaves one closed point
        holes.append(Interval(Fraction(reach >> 2, den), Fraction(lo >> 2, den),
                              reach & 3 == 0, lo & 3 == 3))
        reach = hi
    return Contiguity(contiguous=not holes, holes=tuple(holes))


# --- transformations used across modules ------------------------------------


def affine(rep: Representation, scale, shift=0) -> Representation:
    """Map every endpoint e to scale*e + shift.  Intersection graph is
    unchanged (scale must be positive)."""
    scale, shift = q(scale), q(shift)
    if scale <= 0:
        raise ModelError("affine scale must be positive")

    def f(iv: Interval) -> Interval:
        return Interval(scale * iv.lo + shift, scale * iv.hi + shift,
                        iv.lo_closed, iv.hi_closed)

    return Representation({
        v: TwoInterval(f(ti.left), f(ti.right)) for v, ti in rep.items.items()
    })


def normalize(rep: Representation) -> Representation:
    """Rewrite a closed representation so all 4n endpoints are distinct
    integers in [0, 4n), preserving the intersection graph: each end
    becomes its position in the event word.

    For closed intervals the sweep order puts a start before an end at one
    value, which encodes closed-interval intersection exactly: after the
    rewrite, [a,b] and [c,d] intersect iff they did before, and degenerate
    points become proper intervals.
    """
    ground = {}
    for v, side, iv in rep.ground_set():
        if not (iv.lo_closed and iv.hi_closed):
            raise ModelError("normalize is defined for the all-closed model only")
        ground[v, side] = iv
    ends = word_ends(event_word(ground))
    return Representation({
        v: two_interval(Interval(*ends[v, 0]), Interval(*ends[v, 1]))
        for v in rep.labels()
    })
