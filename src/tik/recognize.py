"""Budgeted exact recognition of 2-interval graph classes.

Three engines share the Budget/SearchOutcome surface:

* endpoint-order enumeration with pruning (2interval, balanced, unit,
  interval, unit-interval); balanced adds an exact rational linear
  feasibility check per complete word, and the equal-length families
  unitize their FIFO words by difference constraints instead,
* integer placement enumeration in a normalized window (xx),
* cyclic endpoint-order enumeration with one pinned event (circular-arc).

All three run on one search loop, `_run`, which walks their generators
on an explicit stack, so a search may go as deep as memory allows.

NonMember is returned only when the search space was provably exhausted
within budget.  Every Member certificate re-verifies: family_check passes
and its intersection graph equals the input under labeled equality.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from . import lp, transforms
from .graphs import Graph
from .model import (
    Arc,
    CircularArcRep,
    FamilySelector,
    Interval,
    Representation,
    q,
    two_interval,
)

OPEN, CLOSE = 0, 1

DEFAULT_BUDGET_ENV = "TIK_BUDGET_DEFAULT"


class RecognizeError(ValueError):
    pass


@dataclass(frozen=True)
class Budget:
    """Node budget for a search.  A node is counted for every candidate
    extension the engine examines, so identical inputs always consume
    identical node counts (no wall-clock dependence)."""

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

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
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


def word_intervals(word, values=None) -> dict:
    """The closed intervals {id: Interval} of a word, with endpoints at
    `values` ({event: value}) or, by default, at the events' positions."""
    if values is None:
        values = {event: q(i) for i, event in enumerate(word)}
    ends = {}
    for (iid, kind), val in values.items():
        ends.setdefault(iid, [None, None])[kind] = val
    return {iid: Interval(lo, hi) for iid, (lo, hi) in ends.items()}


def order_feasible(word, family: FamilySelector, pairing=None):
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
    if family.kind != "balanced":
        raise RecognizeError(f"order_feasible does not handle family {family}")
    if pairing is None:
        raise RecognizeError("balanced feasibility needs a pairing")
    word = list(word)
    check_word(word)
    m = len(word)
    if m == 0:
        return {}
    index = {}
    for i, event in enumerate(word):
        if event in index:
            raise RecognizeError("duplicate events in word")
        index[event] = i

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
    """State every engine shares: vertex labels, adjacency sets by vertex
    index, the node counter, and the realizations accepted so far.

    An engine's `run` and `_dfs` are generators driven by `_run`; its
    `_realize` returns the certificate of a complete candidate, or None."""

    def __init__(self, g: Graph, counter: _Counter, visitor=None):
        self.labels = sorted(g.vertices)
        self.n = len(self.labels)
        idx = {v: i for i, v in enumerate(self.labels)}
        self.adj = [set() for _ in range(self.n)]
        for u, v in g.edges:
            self.adj[idx[u]].add(idx[v])
            self.adj[idx[v]].add(idx[u])
        self.counter = counter
        self.visitor = visitor
        self.found = None
        self.count = 0

    def _leaf(self):
        rep = self._realize()
        if rep is None:
            return
        if self.visitor is not None:
            self.visitor(rep)
            self.count += 1
        if self.found is None:
            self.found = rep


# --- order-enumeration engine ------------------------------------------------


class _OrderSearch(_Search):
    """DFS over endpoint words.  Interval ids are (vertex_index, slot);
    slot 0 is whichever of a vertex's intervals opens first, which halves
    the space without losing realizations."""

    def __init__(self, g: Graph, family: FamilySelector, counter: _Counter,
                 visitor=None):
        super().__init__(g, counter, visitor)
        self.family = family
        self.slots = 1 if family.kind in ("interval", "unit-interval") else 2
        self.fifo = family.kind in ("unit", "unit-interval")
        self.total_events = 2 * self.slots * self.n

        self.word = []
        self.open_list = []  # interval ids, oldest first
        self.opened = [0] * self.n
        self.open_now = [0] * self.n
        self.closed = [0] * self.n
        self.covered = [set() for _ in range(self.n)]

    def _possible(self, u, w):
        # can edge (u, w) still gain an intersection later in this branch?
        u_unopened = self.opened[u] < self.slots
        w_unopened = self.opened[w] < self.slots
        u_unclosed = u_unopened or self.open_now[u] > 0
        w_unclosed = w_unopened or self.open_now[w] > 0
        return (u_unopened and w_unclosed) or (w_unopened and u_unclosed)

    def _coverage_ok(self, u):
        for w in self.adj[u]:
            if w not in self.covered[u] and not self._possible(u, w):
                return False
        if self.fifo and not self._capacity_ok(u):
            return False
        return True

    def _capacity_ok(self, u):
        # equal lengths: one interval meets at most two pairwise-disjoint
        # intervals over its whole lifetime, and closed intervals meet
        # nothing new, so uncovered pairwise-nonadjacent neighbors must fit
        # in twice the live interval count
        uncovered = [w for w in self.adj[u] if w not in self.covered[u]]
        live = (self.slots - self.opened[u]) + self.open_now[u]
        if len(uncovered) <= 2 * live:
            return True
        kept = []
        for w in sorted(uncovered):
            if all(k not in self.adj[w] for k in kept):
                kept.append(w)
        return len(kept) <= 2 * live

    def run(self):
        if self.fifo and any(
            not self._capacity_ok(u) for u in range(self.n)
        ):
            return
        yield self._dfs()

    def _dfs(self):
        if len(self.word) == self.total_events:
            self._leaf()
            return

        # close moves, oldest open first; equal-length families may only
        # close the oldest open interval (containment is infeasible there)
        closables = self.open_list[:1] if self.fifo else list(self.open_list)
        for iid in closables:
            self.counter.tick()
            v = iid[0]
            pos = self.open_list.index(iid)
            self.word.append((iid, CLOSE))
            self.open_list.pop(pos)
            self.open_now[v] -= 1
            self.closed[v] += 1
            if self._coverage_ok(v):
                yield self._dfs()
            self.closed[v] -= 1
            self.open_now[v] += 1
            self.open_list.insert(pos, iid)
            self.word.pop()

        # open moves, vertex order
        for v in range(self.n):
            if self.open_now[v] > 0 or self.opened[v] >= self.slots:
                continue
            self.counter.tick()
            ok = True
            newly = []
            for jid in self.open_list:
                w = jid[0]
                if w not in self.adj[v]:
                    ok = False
                    break
                if w not in self.covered[v]:
                    newly.append(w)
            if not ok:
                continue
            iid = (v, self.opened[v])
            self.opened[v] += 1
            self.open_now[v] += 1
            self.open_list.append(iid)
            self.word.append((iid, OPEN))
            for w in newly:
                self.covered[v].add(w)
                self.covered[w].add(v)
            if self._coverage_ok(v):
                yield self._dfs()
            for w in newly:
                self.covered[v].discard(w)
                self.covered[w].discard(v)
            self.word.pop()
            self.open_list.pop()
            self.open_now[v] -= 1
            self.opened[v] -= 1

    def _realize(self):
        if any(len(c) != len(a) for c, a in zip(self.covered, self.adj)):
            return None  # some edge never met
        values = None
        if self.family.kind == "balanced":
            pairing = {v: ((v, 0), (v, 1)) for v in range(self.n)}
            values = order_feasible(self.word, self.family, pairing)
            if values is None:
                return None
        ivs = word_intervals(self.word, values)
        if self.fifo:
            # intervals close in the order they open, so none contains
            # another and the proper system unitizes with the same pattern
            ivs = transforms.proper_to_unit_interval(ivs)
        items = {}
        if self.slots == 2:
            for v in range(self.n):
                items[self.labels[v]] = two_interval(ivs[(v, 0)], ivs[(v, 1)])
        else:
            # pad with far-away dummy rights so each pair is a 2-interval
            hi = max(iv.hi for iv in ivs.values())
            for v in range(self.n):
                lo = hi + 2 + 2 * v
                items[self.labels[v]] = two_interval(ivs[(v, 0)], Interval(lo, lo + 1))
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

    def __init__(self, g: Graph, x: int, counter: _Counter, visitor=None):
        super().__init__(g, counter, visitor)
        self.x = x
        self.total = 2 * self.n
        self.pos = [[None, None] for _ in range(self.n)]
        self.copies = [0] * self.n
        self.covered = [set() for _ in range(self.n)]
        self.seq = []  # (position, vertex, copy) in placement order

    def run(self):
        yield self._dfs()

    def _edges_alive(self, p):
        # every uncovered edge must still be coverable: future copies start
        # at >= p, and a second copy no earlier than first + x
        x = self.x
        pos = self.pos
        copies = self.copies
        cap = 1 if x == 1 else 2  # disjoint length-x intervals one copy can meet
        for u in range(self.n):
            adj_u = self.adj[u]
            cov_u = self.covered[u]
            if len(cov_u) == len(adj_u):
                continue
            cu = copies[u]
            e_u = p if cu == 0 else max(p, pos[u][0] + x)
            uncovered = []
            for w in adj_u:
                if w in cov_u:
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
            # capacity: uncovered pairwise-nonadjacent neighbors have pairwise
            # disjoint intervals, and each copy of u meets at most `cap` of
            # those; only unplaced copies and placed copies still within
            # reach of future positions can serve them
            if len(uncovered) > cap:
                kept = []
                for w in sorted(uncovered):
                    if all(k not in self.adj[w] for k in kept):
                        kept.append(w)
                if len(kept) > cap:
                    live = 2 - cu
                    for i in range(cu):
                        if pos[u][i] > p - x:
                            live += 1
                    if cap * live < len(kept):
                        return False
        return True

    def _dfs(self):
        depth = len(self.seq)
        if depth == self.total:
            self._leaf()
            return
        x = self.x
        counter = self.counter
        if depth == 0:
            gaps = (0,)
            last_pos = 0
            last_key = (-1, -1)
        else:
            last_pos, lv, lc = self.seq[-1]
            # staggered overlaps first, exact ties last: realizations of
            # dense gadgets sit in the staggered region of the space
            gaps = tuple(range(1, x + 1)) + (0,)
            last_key = (lv, lc)

        for g in gaps:
            p = last_pos + g
            # finishing vertices first makes coverage constraints bite early
            candidates = [v for v in range(self.n) if self.copies[v] == 1]
            candidates += [v for v in range(self.n) if self.copies[v] == 0]
            for v in candidates:
                c = self.copies[v]
                if g == 0 and depth > 0 and (v, c) <= last_key:
                    continue  # canonical order inside a position tie
                counter.nodes += 1
                if counter.nodes > counter.limit:
                    raise _BudgetExhausted()
                if c == 1 and p < self.pos[v][0] + x:
                    continue
                # intersections with already placed intervals
                ok = True
                newly = []
                for qp, w, _ in reversed(self.seq):
                    if qp <= p - x:
                        break
                    if w == v:
                        ok = False  # same-vertex copies may not overlap
                        break
                    if w not in self.adj[v]:
                        ok = False
                        break
                    if w not in self.covered[v]:
                        newly.append(w)
                if not ok:
                    continue
                self.pos[v][c] = p
                self.copies[v] += 1
                self.seq.append((p, v, c))
                for w in newly:
                    self.covered[v].add(w)
                    self.covered[w].add(v)
                if self._edges_alive(p):
                    yield self._dfs()
                for w in newly:
                    self.covered[v].discard(w)
                    self.covered[w].discard(v)
                self.seq.pop()
                self.copies[v] -= 1
                self.pos[v][c] = None

    def _realize(self):
        if any(len(c) != len(a) for c, a in zip(self.covered, self.adj)):
            return None  # some edge never met
        x = self.x
        items = {}
        for v in range(self.n):
            a_l, a_r = self.pos[v]
            items[self.labels[v]] = two_interval(
                Interval(q(a_l), q(a_l + x), False, False),
                Interval(q(a_r), q(a_r + x), False, False),
            )
        return Representation(items)


# --- cyclic-order engine for circular-arc ------------------------------------


class _CircSearch(_Search):
    """Enumerate cyclic endpoint orders: 2n labeled events on positions
    0..2n-1, with vertex 0's start pinned at position 0 to break rotation.
    Arc intersections are decided as soon as both arcs involved are fully
    placed (or an event lands strictly inside a completed arc)."""

    def __init__(self, g: Graph, counter: _Counter):
        super().__init__(g, counter)
        self.m = 2 * self.n
        self.pos = [[-1, -1] for _ in range(self.n)]  # [start, end] positions
        self.complete_arcs = []

    def run(self):
        self.pos[0][0] = 0
        events = []
        events.append((0, 1))
        for v in range(1, self.n):
            events.append((v, 0))
            events.append((v, 1))
        self.events = events
        self.used = [False] * len(events)
        yield self._dfs(1)

    def _inside(self, v, t):
        s, e = self.pos[v]
        if s < e:
            return s < t < e
        return t > s or t < e

    def _decide_pair(self, v, w):
        sv, ev = self.pos[v]
        sw, ew = self.pos[w]
        meet = (
            self._inside(v, sw) or self._inside(v, ew)
            or self._inside(w, sv) or self._inside(w, ev)
        )
        return meet == (w in self.adj[v])

    def _dfs(self, t):
        if t == self.m:
            self._leaf()
            return
        for ei, (v, kind) in enumerate(self.events):
            if self.used[ei]:
                continue
            self.counter.tick()
            self.pos[v][kind] = t
            completes = self.pos[v][1 - kind] != -1
            ok = True
            if completes:
                for w in self.complete_arcs:
                    if not self._decide_pair(v, w):
                        ok = False
                        break
                if ok:
                    for w in range(self.n):
                        if w == v or self.pos[w][0] == -1 or self.pos[w][1] != -1:
                            continue
                        if self._inside(v, self.pos[w][0]) and w not in self.adj[v]:
                            ok = False
                            break
            else:
                for w in self.complete_arcs:
                    if self._inside(w, t) and w not in self.adj[v]:
                        ok = False
                        break
            if ok:
                self.used[ei] = True
                if completes:
                    self.complete_arcs.append(v)
                yield self._dfs(t + 1)
                if completes:
                    self.complete_arcs.pop()
                self.used[ei] = False
            self.pos[v][kind] = -1

    def _realize(self):
        for v in range(self.n):
            for w in range(v + 1, self.n):
                if not self._decide_pair(v, w):
                    return None
        circumference = q(self.m)
        arcs = {}
        for v in range(self.n):
            s, e = self.pos[v]
            arcs[self.labels[v]] = Arc(q(s), q(e))
        return CircularArcRep(circumference, arcs)


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

    Each generator yields the generator of the child node it enters and
    resumes, to undo its move, once that child is finished.  A search
    without a visitor stops at its first realization."""
    stack = [search.run()]
    try:
        while stack:
            child = next(stack[-1], None)
            if child is not None:
                stack.append(child)
            else:
                stack.pop()
                if search.found is not None and search.visitor is None:
                    break
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
        search = _CircSearch(core, counter)
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
