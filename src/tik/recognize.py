"""Budgeted exact recognition of 2-interval graph classes.

Two engines share the Budget/SearchOutcome surface:

* endpoint-order enumeration with pruning (2interval, balanced, unit,
  interval, unit-interval, circular-arc); balanced adds an exact rational
  linear feasibility check per complete word, the equal-length families
  unitize their FIFO words by difference constraints instead, read off
  the word's integer positions as the interval leaves are, and
  circular-arc searches the words of each cut of the circle through one
  fixed arc (the arcs over the cut point, a clique, start and end the
  word open),
* integer placement enumeration in a normalized window (xx).

Both run on one search loop, `_run`, which walks their generators on an
explicit stack, so a search may go as deep as memory allows.  The engines
only make moves: they keep their vertex sets (neighbours, covered edges,
open or placed vertices) as int bitmasks, so a candidate costs a few
integer operations, and charge the candidates they can rule out in bulk,
in the order and with the stop node that one tick per candidate would
give.  The loop does what every node does alike: it tests for a leaf,
and it remembers the states whose subtree was walked without reaching
a leaf and charges such a subtree in one step when its state comes
back.  A placement enumeration remembers the subtrees that reached
leaves too, and replays their leaves when the state comes back.  So
verdicts, node counts, certificates and the order of visits are those
of the full walk.

`recognize` searches the quotient by true twins (u != v with N[u] =
N[v]), each class contracted to its least label, and on a member answer
gives every twin its class's pieces or arc.  Every family is hereditary
and lets a vertex copy a twin, so the quotient is a member iff the graph
is, and `nodes_used` counts the quotient's search; `SearchOutcome.route`
says whether the graph had twins.  `enumerate_realizations` counts the
graph's own realizations, so it searches the graph itself (design notes:
"True twins").

NonMember is returned only when the search space was provably exhausted
within budget.  Every Member certificate re-verifies: family_check passes
and its intersection graph equals the input under labeled equality.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import lp, transforms
from .graphs import (
    Graph,
    clique_number_of_masks,
    independence_number_of_masks,
    neighbour_masks,
)
from .model import (
    CLOSE,
    OPEN,
    Arc,
    CircularArcRep,
    FamilySelector,
    Interval,
    Representation,
    TwoInterval,
    q,
    word_ends,
    xx_two_interval,
)

# a search records refuted subtrees once it has charged this many nodes:
# shorter searches meet few states twice and pay more for the records than
# they save (design notes: "Refuted states")
RECORD_AFTER = 1000

# an enumeration logs at most this many leaves for its replays (14 bytes
# a leaf for K5 as xx(2) at 10^7 nodes); past it, it records only the
# subtrees that reached no leaf, as a recognition search does (design
# notes: "Refuted states")
LEAF_LOG_MAX = 10**6


class RecognizeError(ValueError):
    pass


@dataclass(frozen=True)
class Budget:
    """Node budget for a search.  A node is counted for every candidate
    extension the engine considers, examined or ruled out in bulk, so
    identical inputs always consume identical node counts (no wall-clock
    dependence)."""

    max_nodes: int

    def __post_init__(self):
        if type(self.max_nodes) is not int:  # node counts are ints, not bools
            raise RecognizeError(f"budget must be an int, got {self.max_nodes!r}")
        if self.max_nodes < 1:
            raise RecognizeError("budget must allow at least one node")


@dataclass(frozen=True)
class SearchOutcome:
    kind: str  # "member" | "nonmember" | "inconclusive"
    certificate: object = None
    nodes_used: int = 0
    # how the answer was reached: "search", or "twins contracted to m"
    # where g has true twins and m is its number of twin classes; the
    # search runs on one vertex of each class, but circular-arc drops the
    # universal class too, so it searches m - 1 vertices when g has one
    # (wheel(5) answers "search" after searching its 5 rim vertices)
    route: str = "search"

    def is_member(self):
        return self.kind == "member"

    def is_nonmember(self):
        return self.kind == "nonmember"

    def is_inconclusive(self):
        return self.kind == "inconclusive"


class _BudgetExhausted(Exception):
    pass


class _Counter:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit):
        self.nodes = 0
        self.limit = limit

    def charge(self, k):
        # k nodes at once; past the limit it stops where k one-node charges
        # would, at limit + 1
        self.nodes += k
        if self.nodes > self.limit:
            self.nodes = self.limit + 1
            raise _BudgetExhausted()


# --- order words and metric feasibility -------------------------------------


def order_feasible(word):
    """Decide whether rational endpoint values realize the strict event
    order of a balanced word, whose interval ids are (v, 0) and (v, 1)
    for each vertex v: v's two intervals must get equal lengths.

    Solved as an exact LP over the gaps between consecutive events.  The
    length equalities A g = 0 have a solution with every gap g > 0 iff
    they have one with g >= 1 (scale it), so each gap is written 1 + h
    with h >= 0, and each vertex keeps one row, in the order of the
    vertices' reprs,
    sum_left h - sum_right h = |right gaps| - |left gaps|
    (negated where needed so its right-hand side is >= 0).  Returns
    {interval id: (lo, hi)}, its ends as prefix sums of the gaps, or
    None.

    Unit and unit-interval words need no LP: every FIFO word unitizes
    (see _OrderSearch._realize).
    """
    ends = word_ends(word)
    bad = [iid for iid, (_, hi) in ends.items() if hi is None]
    if bad:
        raise RecognizeError(f"intervals never closed: {bad!r}")
    for iid in ends:
        if type(iid) is not tuple or len(iid) != 2 or iid[1] not in (0, 1):
            raise RecognizeError(f"interval id {iid!r} is not a pair (vertex, 0 or 1)")
        if (iid[0], 1 - iid[1]) not in ends:
            raise RecognizeError(f"vertex {iid[0]!r} has one interval")
    if not ends:
        return {}

    n_gaps = 2 * len(ends) - 1  # every interval opens and closes once
    a_eq, b_eq = [], []
    for v in sorted({v for v, _ in ends}, key=repr):
        row = [0] * n_gaps
        lo, hi = ends[(v, 0)]
        for gi in range(lo, hi):
            row[gi] += 1
        lo, hi = ends[(v, 1)]
        for gi in range(lo, hi):
            row[gi] -= 1
        rhs = -sum(row)
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
        a_eq.append(row)
        b_eq.append(rhs)

    # positional: tikbench/spans.py unpacks these five arguments
    h = lp.solve_lp([0] * n_gaps, [], [], a_eq, b_eq)
    if h is None:
        return None
    # prefix sums of the gaps 1 + h in ints over the lcm of h's
    # denominators, one Fraction per event
    den = math.lcm(*(x.denominator for x in h))
    at = [Fraction(0)]
    acc = 0
    for x in h:
        acc += den + x.numerator * (den // x.denominator)
        at.append(Fraction(acc, den))
    return {iid: (at[lo], at[hi]) for iid, (lo, hi) in ends.items()}


# --- search engines ------------------------------------------------------------


def _edge_count(adjm):
    # the edges of the graph whose neighbour masks are adjm
    return sum(map(int.bit_count, adjm)) >> 1


class _Search:
    """State every engine shares: vertex labels, adjacency by vertex index
    as bitmasks, the node counter, and the visitor with the count of the
    realizations it was handed.  Vertex sets the engines keep per move
    (covered neighbours, open, live or placed vertices) are int bitmasks
    too, so their per-candidate tests are a few integer operations.  An
    engine keeps only its move state and what it caches: nothing that
    other state determines, and not the first realization or the stop
    and record marks, which `_run` keeps.

    An engine's `run` and `_dfs` are generators driven by `_run`: each
    yields once per move it makes, with the move applied, and resumes to
    undo it.  `moves` is the number of moves from the root to a leaf, and
    `_realize` returns the certificate of a leaf, or None.

    Clique-count bound: the intervals a move meets form a clique with it,
    so a move covers at most `room` = omega - 1 new edges.  `slack` is
    room times the moves left that can cover an edge, minus the edges
    still uncovered; a move spends `room` and gets back the edges it
    covers, and a branch whose slack would fall below 0 is dead.  No move
    is left at a leaf, so every leaf reached has every edge covered.

    Capacity: the unit capacity rules of both engines compare the
    independence number of a vertex's uncovered neighbours with what its
    intervals can still meet; `alpha` caches it by neighbour mask.

    Refuted states: `table` maps a node's depth + 1 (its height on
    `_run`'s stack) and its key, the int `_key()` packs from the state
    its subtree is a function of, to the nodes that subtree charged when
    it finished without reaching a leaf; `_run` looks nodes up and
    records them (design notes: "Refuted states").  Where leaves are
    logged (`stamps` is not None: placement enumerations), the table
    maps every finished node, leaves reached or not, to the int
    `_entry` packs, and a node that comes back is replayed by `_replay`.

    CPython 3.11 keeps an instance's attributes in a compact shared-key
    layout only while it has fewer than 30; past that, every attribute
    read is slower (design notes: "Refuted states").  So state that only
    some searches need lives in class defaults."""

    # the first LEAF_LOG_MAX leaves visited, in order, where the engine
    # replays subtrees that reached leaves (placement enumerations): the
    # nodes charged at each, and its positions, 2n per leaf
    stamps = leaves = None

    def __init__(self, labels, adjm, counter: _Counter, visitor=None):
        self.labels = labels
        self.n = len(labels)
        self.adjm = adjm
        self.covered = [0] * self.n  # neighbours each vertex has met so far
        # the covered edges as one mask over edge indices, for the keys:
        # made when the first key is, then kept up to date by _flip_cover
        self.edge_bit = None  # {w: bit of edge vw} for each vertex v
        self.cover_edges = 0
        self.counter = counter
        self.visitor = visitor
        self.count = 0
        self.table = {}  # {depth + 1: {key: nodes, or an entry to replay}}
        self.pieces = {}  # a leaf's TwoIntervals by endpoint key, built once
        self.alpha = {}  # {vertex mask: its independence number, capped at 5}
        self.room = clique_number_of_masks(self.adjm) - 1
        self.slack = -_edge_count(adjm)  # each engine adds room per move

    def _flip_cover(self, v, newly):
        # mark the edges from v to the vertices of mask `newly` covered;
        # called again with the same arguments, unmark them
        covered = self.covered
        covered[v] ^= newly
        bit = 1 << v
        if self.edge_bit is None:
            while newly:
                low = newly & -newly
                covered[low.bit_length() - 1] ^= bit
                newly ^= low
            return
        edge_bit = self.edge_bit[v]
        edges = self.cover_edges
        while newly:
            low = newly & -newly
            w = low.bit_length() - 1
            covered[w] ^= bit
            edges ^= edge_bit[w]
            newly ^= low
        self.cover_edges = edges

    def _independence(self, mask):
        # the independence number of the vertices of `mask`, capped at 5:
        # no capacity rule compares it with more than 4; cached per search
        # by mask
        alpha = self.alpha.get(mask)
        if alpha is None:
            alpha = self.alpha[mask] = independence_number_of_masks(self.adjm, mask, 5)
        return alpha

    def _edges(self):
        # the covered edges as one mask over edge indices
        if self.edge_bit is None:
            self.edge_bit = [{} for _ in range(self.n)]
            e = 0
            for u in range(self.n):
                later = self.adjm[u] >> u + 1 << u + 1  # the neighbours above u
                while later:
                    low = later & -later
                    later ^= low
                    w = low.bit_length() - 1
                    self.edge_bit[u][w] = self.edge_bit[w][u] = 1 << e
                    if self.covered[u] & low:
                        self.cover_edges |= 1 << e
                    e += 1
        return self.cover_edges

    def _leaf(self):
        # the leaf's realization, or None; with a visitor, an accepted one
        # is logged where leaves are logged, until the log is full, then
        # visited and counted
        rep = self._realize()
        if rep is not None and self.visitor is not None:
            if self.stamps is not None and len(self.stamps) < LEAF_LOG_MAX:
                self.stamps.append(self.counter.nodes)
                self.leaves.extend(chain.from_iterable(self.pos))
            self.visitor(rep)
            self.count += 1
        return rep

    def _certificate(self, keys, build):
        # the leaf's Representation: vertex v's TwoInterval is build(*key)
        # of the v-th key, made once per search, as an enumeration meets
        # the same key in many leaves
        pieces = self.pieces
        items = {}
        for label, key in zip(self.labels, keys):
            pair = pieces.get(key)
            if pair is None:
                pair = pieces[key] = build(*key)
            items[label] = pair
        return Representation(items)


# --- order-enumeration engine ------------------------------------------------


class _OrderSearch(_Search):
    """DFS over endpoint words.  Interval ids are (vertex_index, slot);
    slot 0 is whichever of a vertex's intervals opens first, which halves
    the space without losing realizations.

    Circular-arc runs the same search once per cut: a clique W of arcs
    over a point of the circle that is no endpoint, read from that point,
    where W runs over the cliques through one fixed arc.  Each w in W has
    two slots, a prefix open from the start of the word (slot 0) and a
    suffix that never closes (slot 1); every other arc is one interval.

    The per-vertex state is masks alone, which determine every count the
    moves read: a vertex's next open fills slot 1 iff it is in `begun`,
    and is its last iff that slot is 1 or the family has one slot per
    vertex; it has an interval open iff it is in `live`; and the pinned
    suffixes, at the front of `open_list`, are the vertices of `cutmask`
    not in `unopened` (design notes: "Refuted states")."""

    def __init__(self, labels, adjm, family: FamilySelector, counter: _Counter,
                 visitor=None):
        super().__init__(labels, adjm, counter, visitor)
        self.family = family
        # one slot per vertex; a cut arc has a second, its suffix
        self.one_slot = family.kind in ("interval", "unit-interval", "circular-arc")
        self.fifo = family.kind in ("unit", "unit-interval")
        # an open and a close per slot; circular-arc makes 2n moves on every
        # cut too, as W's prefixes start open and W's suffixes never close
        slots = self.n if self.one_slot else 2 * self.n
        self.moves = 2 * slots
        self.slack += self.room * slots
        self.cutmask = 0  # the cut arcs
        # the open order (FIFO) or the live mask ends a key; at most omega
        # intervals are open at once, each as its vertex index + 1
        self.vertex_bits = self.n.bit_length()
        self.order_bits = (self.room + 1) * self.vertex_bits if self.fifo else self.n

        self.word = []
        self.open_list = []  # pinned suffixes, then interval ids oldest first
        self.live = 0  # vertices with an interval open now
        self.unopened = (1 << self.n) - 1  # vertices with a slot still to open
        self.begun = 0  # vertices with a slot opened

    def _close_ok(self, v):
        # a close that ends v for good needs every edge at v covered.  One
        # that leaves v a slot needs no coverage test: a neighbour that can
        # no longer meet v has closed for good, which needed the edge
        # covered.  Tested before the close is applied; an open needs no
        # test, as it keeps every vertex passing (design notes: "Bitset
        # kernels")
        left = self.unopened >> v & 1  # v has a slot left
        if not left and self.adjm[v] & ~self.covered[v]:
            return False
        # after the close, v's intervals not yet closed are its slot left
        return not self.fifo or self._capacity_ok(v, left)

    def _capacity_ok(self, u, alive):
        # equal lengths: one interval meets at most two pairwise-disjoint
        # intervals over its whole lifetime, and closed intervals meet
        # nothing new, so the uncovered neighbours' independence number
        # must fit in twice the count `alive` of u's intervals not yet
        # closed
        uncovered = self.adjm[u] & ~self.covered[u]
        if uncovered.bit_count() <= 2 * alive:
            return True
        return self._independence(uncovered) <= 2 * alive

    def run(self):
        slots = 1 if self.one_slot else 2
        if self.fifo and any(not self._capacity_ok(u, slots) for u in range(self.n)):
            return
        if self.family.kind != "circular-arc":
            yield True
            return
        for cut in self._cliques():
            for w in cut:
                self.cutmask |= 1 << w
                self.open_list.append((w, 0))
                self.word.append(((w, 0), OPEN))
            self.live = self.begun = self.cutmask
            self.table.clear()  # a key does not say which arcs are cut
            yield True
            self.cutmask = self.live = self.begun = 0
            self.open_list.clear()
            self.word.clear()

    def _cliques(self):
        # the cuts: {c} with each clique of N(c), smallest first and in
        # lexicographic order of sorted index tuples within a size,
        # generated lazily.  c is a vertex of least degree, the lowest on
        # ties; every model has a cut through c (design notes: "Cuts
        # through one vertex")
        adjm = self.adjm
        c = min(range(self.n), key=lambda v: adjm[v].bit_count())
        size, more = 0, True
        while more:
            more = False
            stack = [((), adjm[c])]  # clique, the mask of its extensions
            while stack:
                clique, ext = stack.pop()
                if len(clique) == size:
                    more = True
                    yield (c,) + clique
                    continue
                if len(clique) + ext.bit_count() < size:
                    continue
                low = ext & -ext
                v = low.bit_length() - 1
                stack.append((clique, ext ^ low))
                stack.append((clique + (v,), ext & adjm[v]))
            size += 1

    def _key(self):
        # the covered edges, unopened, begun, then the open order for FIFO
        # families (the oldest interval highest) or else the live mask;
        # each field but the first has a fixed width
        n = self.n
        key = ((self._edges() << n | self.unopened) << n | self.begun) << self.order_bits
        if not self.fifo:
            return key | self.live
        order, vbits = 0, self.vertex_bits
        for v, _ in self.open_list:
            order = order << vbits | v + 1
        return key | order

    def _dfs(self):
        counter = self.counter

        # close moves, oldest open first; equal-length families may only
        # close the oldest open interval (containment is infeasible there),
        # and no family closes a pinned suffix.  Each is a node, tested
        # before it is applied; the closes dropped are charged in bulk just
        # before the next move, or after the last
        open_list, word = self.open_list, self.word
        cutmask = self.cutmask
        base = (cutmask & ~self.unopened).bit_count()  # the pinned suffixes
        closables = open_list[:1] if self.fifo else open_list[base:]
        pending = 0  # nodes dropped and not charged yet
        for i, iid in enumerate(closables):
            v = iid[0]
            if not self._close_ok(v):
                pending += 1
                continue
            counter.charge(pending + 1)
            pending = 0
            bit = 1 << v
            word.append((iid, CLOSE))
            open_list.pop(base + i)
            self.live ^= bit
            yield True
            self.live ^= bit
            open_list.insert(base + i, iid)
            word.pop()

        # open moves, vertex order.  Every movable vertex (none of its
        # intervals open, one still to open) is a node, but only those
        # adjacent to every open interval can move, and only if they cover
        # the `want` new edges the clique-count bound asks for; they are
        # charged like the closes
        covered = self.covered
        live, begun = self.live, self.begun
        slack = self.slack
        want = self.room - slack
        rest = self.unopened & ~live  # movable, not charged yet
        # an open covers at most the live vertices
        common = rest if live.bit_count() >= want else 0
        for jid in open_list:
            common &= self.adjm[jid[0]]
        while common:
            low = common & -common
            common ^= low
            v = low.bit_length() - 1
            newly = live & ~covered[v]
            k = newly.bit_count()
            if k < want:
                continue  # clique-count bound
            upto = rest & (low | (low - 1))  # v and the movable before it
            rest ^= upto
            counter.charge(pending + upto.bit_count())
            pending = 0
            slot = 1 if begun & low else 0
            iid = (v, slot)
            self.live = live | low
            self.begun = begun | low
            last = slot or self.one_slot
            if last:
                self.unopened ^= low
            pin = cutmask & low  # a cut arc's suffix: open to the word's end
            if pin:
                open_list.insert(0, iid)
            else:
                open_list.append(iid)
            word.append((iid, OPEN))
            self._flip_cover(v, newly)
            self.slack = slack + k - self.room
            yield True
            self.slack = slack
            self._flip_cover(v, newly)
            word.pop()
            if pin:
                open_list.pop(0)
            else:
                open_list.pop()
            if last:
                self.unopened ^= low
            self.live = live
            self.begun = begun
        pending += rest.bit_count()
        if pending:
            counter.charge(pending)

    def _realize(self):
        # every family reads its interval ends once, then builds the
        # certificate from them
        if self.family.kind == "balanced":
            ends = order_feasible(self.word)
            return None if ends is None else self._pieces(ends, 1)
        if self.fifo:
            # the unitization of the word's position intervals, in units
            # of 1/d (design notes: "Unitization by difference constraints")
            d = len(self.word)
            order, starts = transforms.fifo_starts(self.word, 1, d)
            return self._pieces({iid: (a, a + d) for iid, a in zip(order, starts)}, d)
        ends = word_ends(self.word)
        if self.family.kind != "circular-arc":
            return self._pieces(ends, 1)
        # glue the cut back: a cut arc runs from its suffix's open around
        # the circle to its prefix's close
        return CircularArcRep(q(len(self.word)), {
            self.labels[v]: Arc(ends[(v, self.cutmask >> v & 1)][0], ends[(v, 0)][1])
            for v in range(self.n)
        })

    def _pieces(self, ends, d):
        # the certificate of ends {interval id: (lo, hi)} in units of 1/d:
        # ints, or the LP's Fractions with d = 1.  A vertex's slot 0 closes
        # before its slot 1 opens, so the pieces are in order; a one-slot
        # vertex gets a far-away dummy right at top + 2 + 2v
        if d == 1:
            piece = Interval  # it makes Fractions of int ends itself
        else:
            def piece(lo, hi):
                return Interval(Fraction(lo, d), Fraction(hi, d))

        if not self.one_slot:
            return self._certificate(
                [(*ends[v, 0], *ends[v, 1]) for v in range(self.n)],
                lambda lo, hi, lo2, hi2: TwoInterval(piece(lo, hi), piece(lo2, hi2)))
        labels = self.labels
        items = {}
        top = max(hi for _, hi in ends.values())
        for v in range(self.n):
            lo = top + (2 + 2 * v) * d
            items[labels[v]] = TwoInterval(piece(*ends[(v, 0)]),
                                           piece(lo, lo + d))
        return Representation(items)


# --- integer-placement engine for (x,x) --------------------------------------


class _XXSearch(_Search):
    """Enumerate integer placements of the 2n open length-x intervals in
    canonical form: the leftmost left endpoint is 0 and consecutive sorted
    left endpoints differ by at most x.

    Gap-shrinking (sliding everything right of an oversized gap leftwards
    until the gap is exactly x) preserves the intersection graph, so every
    placement in the (2n-1)x window reduces to a canonical one; exhausting
    the canonical space decides membership, and a non-contiguous placement
    shrinks to a non-contiguous canonical one, so contiguity audits over
    the canonical space cover the whole window.
    """

    def __init__(self, labels, adjm, x: int, counter: _Counter, visitor=None):
        super().__init__(labels, adjm, counter, visitor)
        self.x = x
        self.moves = 2 * self.n  # one per copy
        self.slack += self.room * self.moves
        self.pos = [[None, None] for _ in range(self.n)]
        self.placed = 0  # vertices with a copy placed
        self.placed2 = 0  # vertices with both copies placed
        self.seq = []  # (position, vertex bit) in placement order
        # the window at the last position, as a vertex mask; set for the
        # node a move enters
        self.window = 0
        # a key's fixed-width fields: the covered edges, placed and placed2
        self.fixed_bits = _edge_count(adjm) + 2 * self.n
        self.dist_bits = (x - 1).bit_length()
        # an enumeration also records the subtrees that reached leaves,
        # and replays them from its log of leaves (design notes: "Refuted
        # states").  A position is at most (2n - 1)x
        if visitor is not None:
            self.stamps = _uint_array(counter.limit)
            self.leaves = _uint_array((2 * self.n - 1) * x)

    def run(self):
        yield True

    def _edges_alive(self, touched, p):
        # capacity: uncovered pairwise-nonadjacent neighbours have pairwise
        # disjoint intervals, and each copy of u meets at most `cap` of
        # those; only unplaced copies and placed copies still live at p
        # (within reach of future positions) can serve them, so a fully
        # placed u whose copies have both left the window can serve none.
        # The parent node passed this test, and only a copy leaving the
        # window lowers a vertex's count, so only the vertices of mask
        # `touched` are checked (design notes: "Incremental liveness in the
        # placement engine")
        pos = self.pos
        adjm = self.adjm
        covered = self.covered
        cap = 1 if self.x == 1 else 2  # disjoint length-x intervals one copy can meet
        lo = p - self.x
        while touched:
            low = touched & -touched
            touched ^= low
            u = low.bit_length() - 1
            need = adjm[u] & ~covered[u]
            if not need:
                continue
            first, second = pos[u]
            alive = (first is None or first > lo) + (second is None or second > lo)
            bound = cap * alive
            if need.bit_count() > bound and self._independence(need) > bound:
                return False
        return True

    def _key(self):
        # the window at the last position, each copy as its distance to
        # that position and its vertex bit, the newest highest, under a
        # leading 1; then the covered edges, placed and placed2.  The
        # window's copies end seq (see _dfs)
        n, dist_bits = self.n, self.dist_bits
        last_pos = self.seq[-1][0]
        lo = last_pos - self.x
        window = 1
        for p, bit in reversed(self.seq):
            if p <= lo:
                break
            window = (window << dist_bits | last_pos - p) << n | bit
        fixed = (self._edges() << n | self.placed) << n | self.placed2
        return window << self.fixed_bits | fixed

    def _dfs(self):
        seq = self.seq
        depth = len(seq)
        x = self.x
        counter = self.counter
        pos = self.pos
        adjm, covered = self.adjm, self.covered
        # finishing vertices first makes coverage constraints bite early
        everyone = (1 << self.n) - 1
        finishing = self.placed ^ self.placed2
        unplaced = everyone ^ self.placed
        last_pos, last_bit = seq[-1] if depth else (0, 0)
        # the window at last_pos, which the parent passes down: the copies
        # at positions in (last_pos - x, last_pos].  They are one per
        # vertex, as two copies of a vertex are x apart, and pairwise
        # adjacent, so at most omega, and they end seq, whose positions
        # never fall
        last_window = self.window

        # the fewest new edges a move must cover (clique-count bound); each
        # move restores slack when it is undone
        slack = self.slack
        room = self.room
        want = room - slack
        # every candidate is a node; those dropped are charged in bulk
        # just before the next move, or after the last
        pending = 0
        window = last_window
        # the oldest copy still in the window, and the gap at which it leaves
        oldest = depth - last_window.bit_count()
        lo = last_pos - x
        leave = seq[oldest][0] - lo if oldest < depth else x + 1
        # staggered overlaps g = 1..x first, the exact tie g = 0 last:
        # realizations of dense gadgets sit in the staggered region
        g = 1 if depth else 0
        while True:
            p = last_pos + g
            classes = (finishing, unplaced)
            if g:
                while g >= leave:  # the oldest copy's reach is p now
                    window ^= seq[oldest][1]
                    oldest += 1
                    leave = seq[oldest][0] - lo if oldest < depth else x + 1
            else:
                window = last_window
                if depth:
                    # canonical order inside a position tie: (v, copy) after
                    # the last placed (last_v, c), which leaves last_v its
                    # copy c + 1: the vertices from last_v up
                    later = everyone & -last_bit
                    classes = (finishing & later, unplaced & later)
            # the window: copies still live at p.  A placed copy must meet
            # them all, and meets no other
            size = window.bit_count()
            if size < want:
                # no candidate covers enough new edges: each is a node,
                # charged without a look.  The window only shrinks as g
                # grows, so the staggered gaps g..x are all dead
                if g:
                    pending += (x + 1 - g) * (finishing | unplaced).bit_count()
                    g = 0
                    continue
                pending += (classes[0] | classes[1]).bit_count()
                break
            # the legal candidates meet every live copy, which also rules
            # out a vertex whose own first copy is live
            common = everyone
            bits = window
            while bits:
                low = bits & -bits
                common &= adjm[low.bit_length() - 1]
                bits ^= low
            # the copies whose reach p passed since the parent
            expired = last_window ^ window
            applied = False  # a move was made at this gap
            for rest in classes:  # candidates of the class not charged yet
                legal = rest & common
                while legal:
                    bit = legal & -legal
                    legal ^= bit
                    v = bit.bit_length() - 1
                    newly = window & ~covered[v]
                    k = newly.bit_count()
                    if k < want:
                        continue  # clique-count bound
                    upto = rest & (bit | (bit - 1))  # v and the candidates before it
                    rest ^= upto
                    counter.charge(pending + upto.bit_count())
                    pending = 0
                    applied = True
                    c = 1 if finishing & bit else 0
                    pos[v][c] = p
                    if c:
                        self.placed2 ^= bit
                    else:
                        self.placed ^= bit
                    seq.append((p, bit))
                    self.window = window | bit
                    self._flip_cover(v, newly)
                    self.slack = slack + k - room
                    # the root was never checked; below it, only the
                    # copies expired since the parent can fail
                    touched = expired if depth else everyone
                    if self._edges_alive(touched, p):
                        yield True
                    self.slack = slack
                    self._flip_cover(v, newly)
                    seq.pop()
                    if c:
                        self.placed2 ^= bit
                    else:
                        self.placed ^= bit
                    pos[v][c] = None
                pending += rest.bit_count()
            if not g:
                break
            if not applied and leave > g + 1:
                # the gaps before `leave` have this window, so none of them
                # has a move either
                pending += (leave - g - 1) * (finishing | unplaced).bit_count()
                g = leave - 1
            g = (g + 1) % (x + 1)
        if pending:
            counter.charge(pending)

    def _entry(self, start):
        # the record of a node entered at `start` nodes and finished now:
        # both counts in one int
        return start * (self.counter.limit + 1) + self.counter.nodes

    def _replay(self, entry):
        # walk a recorded subtree again without entering it: charge the
        # nodes between its leaves where the walk charged them, and visit
        # its logged leaves in order, each moved by this node's last
        # position minus the recorded node's.  The copies this node has
        # placed keep their own positions.  True iff it visited a leaf
        counter, stamps, leaves = self.counter, self.stamps, self.leaves
        start, stop = divmod(entry, counter.limit + 1)
        first = bisect_right(stamps, start)
        end = bisect_right(stamps, stop, first)
        at = start
        if first < end:
            n2, pos = 2 * self.n, self.pos
            # the keys agree, so this node's newest copy is the recorded
            # node's, which every leaf below it holds at the recorded last
            # position
            placed, placed2 = self.placed, self.placed2
            last, bit = self.seq[-1]
            u = bit.bit_length() - 1
            shift = last - leaves[n2 * first + 2 * u + (1 if placed2 & bit else 0)]
            # the copies the subtree places: (their vertex's positions, the
            # copy, its place among a leaf's positions)
            cells = [(pos[v], c, 2 * v + c) for v in range(self.n)
                     for c in range((placed >> v & 1) + (placed2 >> v & 1), 2)]
            for i in range(first, end):
                counter.charge(stamps[i] - at)
                at = stamps[i]
                base = n2 * i
                for cell, c, j in cells:
                    cell[c] = leaves[base + j] + shift
                self._leaf()
            for cell, c, _ in cells:
                cell[c] = None
        if stop > at:
            counter.charge(stop - at)
        return first < end

    def _realize(self):
        x = self.x
        return self._certificate(map(tuple, self.pos), lambda a, b: xx_two_interval(a, b, x))


def _uint_array(top):
    # an array of the narrowest unsigned type that holds 0..top, else a
    # list.  Only enumerations log leaves, and loading the array module
    # adds about 0.15 MB to a process's peak RSS, so it is imported here
    from array import array

    for code in "BHILQ":
        if top < 1 << 8 * array(code).itemsize:
            return array(code)
    return []


# --- public operations --------------------------------------------------------


def _run(search):
    """Drive a search depth first on an explicit stack of its generators;
    return (found, exhausted): the first realization accepted, or None,
    and False iff the node budget cut the search off.

    Each generator yields once per move, with the move applied, and
    resumes, to undo it, once the child is finished.  The loop does what
    every node does alike: a child `moves` deep is a leaf, whose
    realization, or None, `_leaf` returns; the loop keeps the first
    realization and the node count at the last leaf reached, and a search
    without a visitor stops at its first.  A child in the refuted-state
    table is charged in one step, or replayed leaf by leaf in a search
    that logs its leaves; any other is entered as a `_dfs` generator, and
    recorded when it finishes iff it reached no leaf or, while the log of
    leaves has room, the search logs its leaves (design notes: "Refuted
    states")."""
    counter, table = search.counter, search.table
    dfs, key = search._dfs, search._key
    stop = search.visitor is None
    leaf = search.moves + 1
    # a search that logs its leaves records every node it finishes while
    # its log has room, and replays a subtree that comes back; any other
    # records the nodes that reached no leaf, and charges such a subtree
    # in one step
    replays = search.stamps is not None
    hit = search._replay if replays else counter.charge
    stack = [search.run()]
    # per node on the stack: the nodes charged when it was entered, and
    # its key if it was looked up.  A child is charged before it is
    # yielded, so a node yielded one iff `last`, the count at the last
    # yield, exceeds its entry
    entered = [(0, None)]
    last = 0
    found = None
    # nodes charged when the last leaf was reached, or replayed: a subtree
    # entered at `start` nodes reached one iff this exceeds start
    reached = -1
    try:
        while stack:
            if next(stack[-1], False):
                last = counter.nodes
                # the generators below the child, its depth + 1, which
                # indexes the table
                height = len(stack)
                if height == leaf:
                    reached = last
                    rep = search._leaf()
                    if rep is not None and found is None:
                        found = rep
                        if stop:
                            break
                    continue
                k = None
                if table and height in table:
                    k = key()
                    known = table[height].get(k)
                    if known is not None:
                        if hit(known):  # walked before; a replay visited leaves
                            reached = last
                        continue
                stack.append(dfs())
                entered.append((last, k))
                continue
            stack.pop()
            start, k = entered.pop()
            # a node that yielded a child, reached no leaf unless the search
            # replays and logged all its leaves, and is not the root; it has
            # undone its moves, so key() reads its own state
            if (last > start and counter.nodes > RECORD_AFTER and len(stack) > 1
                    and (reached < start or (
                        replays and len(search.stamps) < LEAF_LOG_MAX))):
                table.setdefault(len(stack), {})[key() if k is None else k] = (
                    search._entry(start) if replays else counter.nodes - start)
    except _BudgetExhausted:
        return found, False
    return found, True


def _masks(g: Graph):
    """g's labels in sorted order, the order every search numbers its
    vertices in, and their neighbour masks."""
    labels = sorted(g.vertices)
    return labels, neighbour_masks(g, labels)


def _engine(labels, adjm, family: FamilySelector, counter: _Counter, visitor=None):
    """The search for the graph of `_masks` in family: the placement
    engine for xx, the order engine for every other family."""
    if family.kind == "xx":
        return _XXSearch(labels, adjm, family.x, counter, visitor=visitor)
    return _OrderSearch(labels, adjm, family, counter, visitor=visitor)


def _induced(adjm, keep):
    # the neighbour masks of the subgraph on the ascending vertex list
    # `keep`, its vertices numbered by their place in it
    index = {v: i for i, v in enumerate(keep)}
    kept = sum(1 << v for v in keep)
    out = []
    for v in keep:
        mask, row = adjm[v] & kept, 0
        while mask:
            low = mask & -mask
            mask ^= low
            row |= 1 << index[low.bit_length() - 1]
        out.append(row)
    return out


def _lift(cert, labels, closed, least, peeled, family: FamilySelector):
    """g's certificate from `cert`, the certificate of its quotient: each
    twin v gets the pieces or arc of least[closed[v]], its class's least
    vertex, and for circular-arc the peeled universal class's least
    vertex returns first, as a near-full arc.  A twin of a one-slot
    family gets its own dummy right interval past the whole certificate
    (design notes: "True twins")."""
    twins = [(labels[least[c]], labels[v]) for v, c in enumerate(closed) if least[c] != v]
    if family.kind == "circular-arc":
        arcs, c = cert.arcs, cert.circumference
        if peeled is not None:
            # covers every endpoint, missing only a sliver that contains
            # no endpoint of any other arc
            arcs[labels[peeled]] = Arc(c - Fraction(1, 4), c - Fraction(1, 2))
        for rep, twin in twins:
            arcs[twin] = arcs[rep]
        return CircularArcRep(c, arcs)
    items = cert.items
    if family.kind in ("interval", "unit-interval"):
        # past every end: the quotient's last vertex has the highest
        # dummy (`_OrderSearch._pieces`)
        top = math.ceil(items[labels[max(least.values())]].right.hi)
        for k, (rep, twin) in enumerate(twins):
            items[twin] = TwoInterval(items[rep].left,
                                      Interval(top + 2 + 2 * k, top + 3 + 2 * k))
    else:
        for rep, twin in twins:
            items[twin] = items[rep]
    return Representation(items)


def recognize(g: Graph, family: FamilySelector, budget: Budget) -> SearchOutcome:
    """Budgeted exact membership search of g's quotient by its true twins,
    each class contracted to its least label; see module docstring."""
    if g.n == 0:
        raise RecognizeError("recognize needs a nonempty graph")
    labels, adjm = _masks(g)
    n = len(labels)
    # a class of true twins (u != v with N[u] = N[v]) is the vertices of
    # one closed neighbourhood mask; `least` maps each mask to its least
    # vertex (the later vertices are written first, the least last)
    closed = [mask | 1 << v for v, mask in enumerate(adjm)]
    least = dict(zip(reversed(closed), range(n - 1, -1, -1)))
    route = "search" if len(least) == n else f"twins contracted to {len(least)}"
    # circular-arc peels the universal vertices, one class: g is
    # circular-arc iff the rest is (design notes: "Circular-arc on a cut")
    peeled = least.get((1 << n) - 1) if family.kind == "circular-arc" else None
    contracted = len(least) < n or peeled is not None
    core = labels, adjm
    if contracted:
        keep = sorted(v for v in least.values() if v != peeled)
        core = [labels[v] for v in keep], _induced(adjm, keep)
    counter = _Counter(budget.max_nodes)
    if core[0]:
        cert, exhausted = _run(_engine(*core, family, counter))
    else:  # every vertex universal
        cert = CircularArcRep(q(1), {})
    if cert is None:
        return SearchOutcome("nonmember" if exhausted else "inconclusive",
                             None, counter.nodes, route)
    if contracted:
        cert = _lift(cert, labels, closed, least, peeled, family)
    return SearchOutcome("member", cert, counter.nodes, route)


@dataclass(frozen=True)
class Enumeration:
    complete: bool
    count: int
    nodes_used: int


def enumerate_realizations(g: Graph, family: FamilySelector, budget: Budget,
                           visitor) -> Enumeration:
    """Visit every realization in the canonical enumeration: all integer
    placements in the window up to translation (xx), or all consistent
    order words (2interval).

    The visits, their order and the nodes charged before each are those
    of the full walk.  An xx enumeration does not walk a recorded subtree
    again: when its state comes back, the subtree's logged leaves are
    visited again, moved to the new position, and its nodes are charged
    between them where the walk charged them (design notes: "Refuted
    states")."""
    if g.n == 0:
        raise RecognizeError("enumerate_realizations needs a nonempty graph")
    if family.kind not in ("xx", "2interval"):
        raise RecognizeError(f"enumerate_realizations does not handle {family}")
    counter = _Counter(budget.max_nodes)
    search = _engine(*_masks(g), family, counter, visitor)
    _, complete = _run(search)
    return Enumeration(complete=complete, count=search.count,
                       nodes_used=counter.nodes)
