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
and it remembers the states whose subtree was walked without accepting
a leaf and charges such a subtree in one step when its state comes back
(balanced excepted), so verdicts, node counts and certificates are those
of the full walk.

NonMember is returned only when the search space was provably exhausted
within budget.  Every Member certificate re-verifies: family_check passes
and its intersection graph equals the input under labeled equality.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from . import lp, transforms
from .graphs import Graph, clique_number_of_masks, independence_number_of_masks
from .model import (
    Arc,
    CircularArcRep,
    FamilySelector,
    Interval,
    Representation,
    TwoInterval,
    q,
    two_interval,
)

OPEN, CLOSE = 0, 1

DEFAULT_BUDGET_ENV = "TIK_BUDGET_DEFAULT"

# a search records refuted subtrees once it has charged this many nodes:
# shorter searches meet few states twice and pay more for the records than
# they save (design notes: "Refuted states")
RECORD_AFTER = 1000


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
        if self.max_nodes < 1:
            raise RecognizeError("budget must allow at least one node")


def default_budget() -> Budget:
    raw = os.environ.get(DEFAULT_BUDGET_ENV, "")
    if raw:
        try:
            return Budget(int(raw))
        except ValueError:
            raise RecognizeError(
                f"{DEFAULT_BUDGET_ENV} must be a positive decimal integer"
            ) from None
    return Budget(10**7)


@dataclass(frozen=True)
class SearchOutcome:
    kind: str  # "member" | "nonmember" | "inconclusive"
    certificate: object = None
    nodes_used: int = 0

    def is_member(self):
        return self.kind == "member"

    def is_nonmember(self):
        return self.kind == "nonmember"

    def is_inconclusive(self):
        return self.kind == "inconclusive"


def member(cert, nodes) -> SearchOutcome:
    return SearchOutcome("member", cert, nodes)


def nonmember(nodes) -> SearchOutcome:
    return SearchOutcome("nonmember", None, nodes)


def inconclusive(nodes) -> SearchOutcome:
    return SearchOutcome("inconclusive", None, nodes)


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


def check_word(word) -> None:
    """Validate an order word: each interval id appears exactly twice,
    open before close."""
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


def order_feasible(word, pairing):
    """Decide whether rational endpoint values realize the strict event
    order of a balanced word, where `pairing` maps each vertex to the ids
    of its two intervals, which must get equal lengths.

    Solved as an exact LP over the gaps between consecutive events.  The
    length equalities A g = 0 have a solution with every gap g > 0 iff
    they have one with g >= 1 (scale it), so each gap is written 1 + h
    with h >= 0, and each vertex keeps one row
    sum_left h - sum_right h = |right gaps| - |left gaps|
    (negated where needed so its right-hand side is >= 0).  Returns
    {event: value}, the prefix sums of the gaps, or None.

    Unit and unit-interval words need no LP: every FIFO word unitizes
    (see _OrderSearch._realize).
    """
    word = list(word)
    check_word(word)
    m = len(word)
    if m == 0:
        return {}
    index = {event: i for i, event in enumerate(word)}

    def gap_range(iid):
        return range(index[(iid, OPEN)], index[(iid, CLOSE)])

    n_gaps = m - 1
    a_eq, b_eq = [], []
    for v in sorted(pairing, key=repr):
        try:
            left, right = pairing[v]
        except (TypeError, ValueError):
            raise RecognizeError(
                f"pairing of {v!r} must be two interval ids, got {pairing[v]!r}"
            ) from None
        if left == right:
            raise RecognizeError(f"pairing of {v!r} names interval {left!r} twice")
        for iid in (left, right):
            if (iid, OPEN) not in index:
                raise RecognizeError(
                    f"pairing of {v!r} names interval {iid!r}, which is not in the word"
                )
        row = [0] * n_gaps
        for gi in gap_range(left):
            row[gi] += 1
        for gi in gap_range(right):
            row[gi] -= 1
        rhs = -sum(row)
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
        if any(row):
            a_eq.append(row)
            b_eq.append(rhs)

    # positional: tikbench/spans.py unpacks these five arguments
    status, h, _ = lp.solve_lp([0] * n_gaps, [], [], a_eq, b_eq)
    if status != lp.OPTIMAL:
        return None
    values = {}
    acc = Fraction(0)
    for i, event in enumerate(word):
        if i > 0:
            acc += 1 + h[i - 1]
        values[event] = acc
    return values


# --- search engines ------------------------------------------------------------


class _Search:
    """State every engine shares: vertex labels, adjacency by vertex index
    as bitmasks, the node counter, and the realizations accepted so far.
    Vertex sets the engines keep per move (covered neighbours, open or
    live vertices) are int bitmasks too, so their per-candidate tests are
    a few integer operations.

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
    it finished without accepting a leaf; `_run` looks nodes up and
    records them (design notes: "Refuted states").  The table is None
    where a leaf's verdict reads more than the key (balanced)."""

    def __init__(self, g: Graph, counter: _Counter, visitor=None):
        self.labels = sorted(g.vertices)
        self.n = len(self.labels)
        idx = {v: i for i, v in enumerate(self.labels)}
        self.adjm = [0] * self.n
        for u, v in g.edges:
            self.adjm[idx[u]] |= 1 << idx[v]
            self.adjm[idx[v]] |= 1 << idx[u]
        self.covered = [0] * self.n  # neighbours each vertex has met so far
        # the covered edges as one mask over edge indices, for the keys:
        # made when the first key is, then kept up to date by _flip_cover
        self.edge_bit = None  # {w: bit of edge vw} for each vertex v
        self.cover_edges = 0
        self.counter = counter
        self.visitor = visitor
        self.found = None
        self.count = 0
        # nodes charged when the last realization was accepted: a subtree
        # entered at `start` nodes accepted one iff this exceeds start
        self.accepted = -1
        self.table = {}  # {depth + 1: {key: nodes}}
        self.pieces = {}  # a leaf's TwoIntervals by endpoint key, built once
        self.alpha = {}  # {vertex mask: its independence number, capped at 5}
        self.room = clique_number_of_masks(self.adjm) - 1
        self.slack = -len(g.edges)  # each engine adds room per move

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
        rep = self._realize()
        if rep is None:
            return
        self.accepted = self.counter.nodes
        if self.visitor is not None:
            self.visitor(rep)
            self.count += 1
        if self.found is None:
            self.found = rep


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

    def __init__(self, g: Graph, family: FamilySelector, counter: _Counter,
                 visitor=None):
        super().__init__(g, counter, visitor)
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
        if family.kind == "balanced":
            self.table = None  # its leaf LP reads the whole word
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
        # every uncovered edge (v, w) must still be able to meet once v's
        # open interval closed: a v with a slot left can meet any w not yet
        # closed, a v closed for good nothing.  Tested before the close is
        # applied; an open needs no test, as it keeps every vertex passing
        # (design notes: "Bitset kernels")
        bit = 1 << v
        unopened = self.unopened
        left = unopened & bit  # v has a slot left
        possible = unopened | (self.live ^ bit) if left else 0
        if self.adjm[v] & ~self.covered[v] & ~possible:
            return False
        # after the close, v's intervals not yet closed are its slot left
        return not self.fifo or self._capacity_ok(v, 1 if left else 0)

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
            if self.table:
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
            pairing = {v: ((v, 0), (v, 1)) for v in range(self.n)}
            values = order_feasible(self.word, pairing)
            if values is None:
                return None
            ends = {iid: (at, values[(iid, CLOSE)])
                    for (iid, kind), at in values.items() if kind == OPEN}
            return self._pieces(ends, 1)
        if self.fifo:
            return self._pieces(*_fifo_unit_ends(self.word))
        ends = _position_ends(self.word)
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
        labels = self.labels
        if d == 1:
            piece = Interval  # it makes Fractions of int ends itself
        else:
            def piece(lo, hi):
                return Interval(Fraction(lo, d), Fraction(hi, d))

        items = {}
        if not self.one_slot:
            # an enumeration meets the same pair of ends in many leaves
            pieces = self.pieces
            for v in range(self.n):
                left, right = ends[(v, 0)], ends[(v, 1)]
                key = (*left, *right)
                pair = pieces.get(key)
                if pair is None:
                    pair = pieces[key] = TwoInterval(piece(*left), piece(*right))
                items[labels[v]] = pair
        else:
            top = max(hi for _, hi in ends.values())
            for v in range(self.n):
                lo = top + (2 + 2 * v) * d
                items[labels[v]] = TwoInterval(piece(*ends[(v, 0)]),
                                               piece(lo, lo + d))
        return Representation(items)


def _position_ends(word):
    # {interval id: [open position, close position]}; an interval that
    # never closes (a cut arc's suffix) keeps None as its close
    ends = {}
    for i, (iid, kind) in enumerate(word):
        if kind == OPEN:
            ends[iid] = [i, None]
        else:
            ends[iid][1] = i
    return ends


def _fifo_unit_ends(word):
    """Unit intervals with the intersection pattern of a FIFO word's
    position intervals, as ({interval id: (lo, hi)}, d) with integer ends
    in units of 1/d: what proper_to_unit_interval gives for the closed
    intervals at the events' positions, without the Fractions.  Interval
    k, the k-th to open, meets exactly the predecessors still open when
    it opens, f(k) = the closes before it, ..., k - 1 (design notes:
    "Unitization by difference constraints").
    RecognizeError if a close is not of the oldest open interval."""
    order = []  # interval ids in open order
    fs = []
    closes = 0
    for iid, kind in word:
        if kind == OPEN:
            fs.append(closes)
            order.append(iid)
        elif closes < len(order) and order[closes] == iid:
            closes += 1
        else:
            raise RecognizeError(
                f"close of {iid!r} is not of the oldest open interval"
            )
    d = 2 * len(order)
    starts = transforms._least_starts(fs, 1, d)
    return {iid: (a, a + d) for iid, a in zip(order, starts)}, d


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

    def __init__(self, g: Graph, x: int, counter: _Counter, visitor=None):
        super().__init__(g, counter, visitor)
        self.x = x
        self.moves = 2 * self.n  # one per copy
        self.everyone = (1 << self.n) - 1
        self.slack += self.room * self.moves
        self.pos = [[None, None] for _ in range(self.n)]
        self.copies = [0] * self.n
        self.placed = 0  # vertices with a copy placed
        self.placed2 = 0  # vertices with both copies placed
        self.seq = []  # (position, vertex bit) in placement order
        # the window at the last position, as a vertex mask; set for the
        # node a move enters
        self.window = 0
        # a key's fixed-width fields: the covered edges, placed and placed2
        self.fixed_bits = len(g.edges) + 2 * self.n
        self.dist_bits = (x - 1).bit_length()

    def run(self):
        yield True

    def _edges_alive(self, touched, p):
        # every uncovered edge must still be coverable: future copies start
        # at >= p, and a second copy no earlier than first + x.  The parent
        # node passed this test, so only the vertices of mask `touched` are
        # checked, against all their uncovered edges (design notes:
        # "Incremental liveness in the placement engine")
        x = self.x
        pos = self.pos
        copies = self.copies
        adjm = self.adjm
        covered = self.covered
        placed2 = self.placed2
        cap = 1 if x == 1 else 2  # disjoint length-x intervals one copy can meet
        while touched:
            low = touched & -touched
            touched ^= low
            u = low.bit_length() - 1
            need = adjm[u] & ~covered[u]
            if not need:
                continue
            cu = copies[u]
            if cu == 2:
                # u's last copy must reach a copy of w still to come, which
                # starts at >= p, and at >= first + x when w has one down
                if need & placed2:
                    return False
                reach = pos[u][1] + x
                if reach <= p:
                    return False
                rest = need
                while rest:
                    w_low = rest & -rest
                    w = w_low.bit_length() - 1
                    if copies[w] and reach <= pos[w][0] + x:
                        return False
                    rest ^= w_low
            elif need & placed2:
                # w's last copy must reach u's next one
                e_u = p if cu == 0 else max(p, pos[u][0] + x)
                rest = need & placed2
                while rest:
                    w_low = rest & -rest
                    if pos[w_low.bit_length() - 1][1] + x <= e_u:
                        return False
                    rest ^= w_low
            # capacity: uncovered pairwise-nonadjacent neighbors have pairwise
            # disjoint intervals, and each copy of u meets at most `cap` of
            # those; only unplaced copies and placed copies still within
            # reach of future positions can serve them
            if need.bit_count() > cap:
                alive = 2 - cu
                for i in range(cu):
                    if pos[u][i] > p - x:
                        alive += 1
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
        pos, copies = self.pos, self.copies
        adjm, covered = self.adjm, self.covered
        # finishing vertices first makes coverage constraints bite early
        everyone = self.everyone
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
                    c = copies[v]
                    pos[v][c] = p
                    copies[v] = c + 1
                    if c:
                        self.placed2 ^= bit
                    else:
                        self.placed ^= bit
                    seq.append((p, bit))
                    self.window = window | bit
                    self._flip_cover(v, newly)
                    self.slack = slack + k - room
                    if depth == 0:
                        touched = everyone  # the root was never checked
                    else:  # v, newly, and the copies expired since the parent
                        touched = bit | newly | expired
                    if self._edges_alive(touched, p):
                        yield True
                    self.slack = slack
                    self._flip_cover(v, newly)
                    seq.pop()
                    if c:
                        self.placed2 ^= bit
                    else:
                        self.placed ^= bit
                    copies[v] = c
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

    def _realize(self):
        x = self.x
        items = {}
        for v in range(self.n):
            key = tuple(self.pos[v])
            if key not in self.pieces:
                a_l, a_r = key
                self.pieces[key] = two_interval(
                    Interval(q(a_l), q(a_l + x), False, False),
                    Interval(q(a_r), q(a_r + x), False, False),
                )
            items[self.labels[v]] = self.pieces[key]
        return Representation(items)


def _strip_universal(g: Graph):
    """Peel universal vertices; a graph is circular-arc iff the peeled
    graph is (each one returns as a near-full arc)."""
    stripped = []
    current = g
    while current.n > 0:
        universal = [
            v for v in sorted(current.vertices)
            if current.degree(v) == current.n - 1
        ]
        if not universal:
            break
        v = universal[0]
        stripped.append(v)
        current = current.induced([w for w in current.vertices if w != v])
    return current, stripped


def _readd_universal(ca: CircularArcRep, stripped) -> CircularArcRep:
    arcs = ca.arcs
    c = ca.circumference
    # near-full arc: covers every endpoint, missing only a sliver that
    # contains no endpoint of any other arc
    start = c - Fraction(1, 4)
    end = c - Fraction(1, 2)
    for v in stripped:
        arcs[v] = Arc(start, end)
    return CircularArcRep(c, arcs)


# --- public operations --------------------------------------------------------


def _run(search) -> bool:
    """Drive a search depth first on an explicit stack of its generators;
    False iff the node budget cut it off.

    Each generator yields once per move, with the move applied, and
    resumes, to undo it, once the child is finished.  The loop does what
    every node does alike: a child `moves` deep is a leaf, handed to
    `_leaf`, and a search without a visitor stops at its first
    realization; a child in the refuted-state table is charged in one
    step; any other is entered as a `_dfs` generator, and recorded in
    the table when it finishes if the record rules allow (design notes:
    "Refuted states")."""
    counter, table = search.counter, search.table
    dfs, key = search._dfs, search._key
    stop = search.visitor is None
    leaf = search.moves + 1
    stack = [search.run()]
    # per node on the stack: the nodes charged when it was entered, and
    # its key if it was looked up.  A child is charged before it is
    # yielded, so a node yielded one iff `last`, the count at the last
    # yield, exceeds its entry
    entered = [(0, None)]
    last = 0
    try:
        while stack:
            if next(stack[-1], False):
                last = counter.nodes
                # the generators below the child, its depth + 1, which
                # indexes the table
                height = len(stack)
                if height == leaf:
                    search._leaf()
                    if stop and search.found is not None:
                        break
                    continue
                k = None
                if table and height in table:
                    k = key()
                    known = table[height].get(k)
                    if known is not None:
                        counter.charge(known)  # refuted before
                        continue
                stack.append(dfs())
                entered.append((last, k))
                continue
            stack.pop()
            start, k = entered.pop()
            # a node that yielded a child, accepted no leaf and is not the
            # root; it has undone its moves, so key() reads its own state
            if (last > start and counter.nodes > RECORD_AFTER and search.accepted < start
                    and len(stack) > 1 and table is not None):
                table.setdefault(len(stack), {})[key() if k is None else k] = \
                    counter.nodes - start
    except _BudgetExhausted:
        return False
    return True


def recognize(g: Graph, family: FamilySelector, budget: Budget) -> SearchOutcome:
    """Budgeted exact membership search; see module docstring."""
    if g.n == 0:
        raise RecognizeError("recognize needs a nonempty graph")

    counter = _Counter(budget.max_nodes)
    if family.kind == "xx":
        search = _XXSearch(g, family.x, counter)
    elif family.kind == "circular-arc":
        core, stripped = _strip_universal(g)
        if core.n == 0:
            base = CircularArcRep(q(1), {})
            return member(_readd_universal(base, stripped), counter.nodes)
        search = _OrderSearch(core, family, counter)
    else:
        search = _OrderSearch(g, family, counter)
    exhausted = _run(search)
    if search.found is not None:
        cert = search.found
        if family.kind == "circular-arc":
            cert = _readd_universal(cert, stripped)
        return member(cert, counter.nodes)
    return nonmember(counter.nodes) if exhausted else inconclusive(counter.nodes)


@dataclass(frozen=True)
class Enumeration:
    complete: bool
    count: int
    nodes_used: int


def enumerate_realizations(g: Graph, family: FamilySelector, budget: Budget,
                           visitor) -> Enumeration:
    """Visit every realization in the canonical enumeration: all integer
    placements in the window up to translation (xx), or all consistent
    order words (2interval)."""
    if g.n == 0:
        raise RecognizeError("enumerate_realizations needs a nonempty graph")
    counter = _Counter(budget.max_nodes)
    if family.kind == "xx":
        search = _XXSearch(g, family.x, counter, visitor=visitor)
    elif family.kind == "2interval":
        search = _OrderSearch(g, family, counter, visitor=visitor)
    else:
        raise RecognizeError(f"enumerate_realizations does not handle {family}")
    complete = _run(search)
    return Enumeration(complete=complete, count=search.count,
                       nodes_used=counter.nodes)
