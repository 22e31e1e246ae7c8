"""Labeled simple undirected graphs, standard generators, and exact solvers.

Vertex identity is the string label; graph equality is labeled equality
(same label set, same edge set).  All iteration orders are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph over string-labeled vertices.

    ``vertices`` keeps declaration order (it drives the deterministic
    branch order of the exact solvers); equality and hashing ignore it.
    Construction validates the labels and edges; the adjacency sets are
    built on the first `neighbors`, `degree` or `has_edge` call and kept,
    so a graph that is only compared or listed never builds them.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    _adj: dict[str, frozenset[str]] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise GraphError(f"duplicate vertex label {v!r}")
            seen.add(v)
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            if u > v:
                raise GraphError(f"edge {(u, v)!r} not in canonical order")
            if u not in seen or v not in seen:
                raise GraphError(f"edge {(u, v)!r} mentions undeclared vertex")

    def _adjacency(self) -> dict[str, frozenset[str]]:
        # built on the first query: many graphs are only compared
        adj = self._adj
        if adj is None:
            sets = {v: set() for v in self.vertices}
            for u, v in self.edges:
                sets[u].add(v)
                sets[v].add(u)
            adj = {v: frozenset(ns) for v, ns in sets.items()}
            object.__setattr__(self, "_adj", adj)
        return adj

    @staticmethod
    def build(vertices, edges) -> "Graph":
        """Normalize arbitrary vertex/edge iterables into a Graph."""
        vs = tuple(vertices)
        es = frozenset((u, v) if u < v else (v, u) for u, v in edges)
        return Graph(vs, es)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and self.edges == other.edges

    def __hash__(self):
        return hash((frozenset(self.vertices), self.edges))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adjacency()[v]

    def degree(self, v: str) -> int:
        return len(self._adjacency()[v])

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adjacency()[u]

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self.edges)

    def induced(self, labels) -> "Graph":
        keep = set(labels)
        missing = keep - set(self.vertices)
        if missing:
            raise GraphError(f"induced subgraph on unknown vertices {sorted(missing)}")
        vs = tuple(v for v in self.vertices if v in keep)
        es = [(u, v) for u, v in self.edges if u in keep and v in keep]
        return Graph.build(vs, es)


@dataclass(frozen=True)
class Coloring:
    """Proper vertex coloring: label -> color index in [0, k)."""

    assignment: dict[str, int]

    def classes(self) -> list[list[str]]:
        k = max(self.assignment.values(), default=-1) + 1
        out = [[] for _ in range(k)]
        for v in sorted(self.assignment):
            out[self.assignment[v]].append(v)
        return out

    def validates(self, g: Graph, k: int) -> bool:
        if set(self.assignment) != set(g.vertices):
            return False
        if any(not (0 <= c < k) for c in self.assignment.values()):
            return False
        return all(self.assignment[u] != self.assignment[v] for u, v in g.edges)


def from_edge_list(text: str) -> Graph:
    """Parse the edge-list format: one 'u v' per line, '#' comments,
    single-token lines declare isolated vertices."""
    vertices: list[str] = []
    seen: set[str] = set()
    edges: set[tuple[str, str]] = set()

    def declare(v: str):
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) == 1:
            declare(tokens[0])
        elif len(tokens) == 2:
            u, v = tokens
            if u == v:
                raise GraphError(f"line {lineno}: self-loop {u!r}")
            declare(u)
            declare(v)
            edges.add(tuple(sorted((u, v))))
        else:
            raise GraphError(f"line {lineno}: expected 1 or 2 tokens, got {len(tokens)}")
    return Graph.build(vertices, edges)


def to_edge_list(g: Graph) -> str:
    lines = []
    in_edge = {v for e in g.edges for v in e}
    for v in g.sorted_vertices():
        if v not in in_edge:
            lines.append(v)
    for u, v in g.sorted_edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} with sides s1..sm and t1..tn."""
    if m < 1 or n < 1:
        raise GraphError("complete_bipartite needs both sides nonempty")
    ss = [f"s{i}" for i in range(1, m + 1)]
    ts = [f"t{j}" for j in range(1, n + 1)]
    return Graph.build(ss + ts, [(s, t) for s in ss for t in ts])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    vs = [f"v{i}" for i in range(1, n + 1)]
    es = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    return Graph.build(vs, es)


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    vs = [f"v{i}" for i in range(1, n + 1)]
    es = [(vs[i], vs[i + 1]) for i in range(n - 1)]
    return Graph.build(vs, es)


def wheel(n: int) -> Graph:
    """Rim cycle of length n plus hub 'v' adjacent to every rim vertex."""
    if n < 3:
        raise GraphError("wheel needs rim length >= 3")
    rim = cycle(n)
    return add_universal(rim, "v")


def domino() -> Graph:
    """Two 4-cycles sharing the edge v1-v2."""
    vs = ["v1", "v2", "v3", "v4", "v5", "v6"]
    es = [
        ("v1", "v2"),
        ("v1", "v3"), ("v3", "v4"), ("v4", "v2"),
        ("v1", "v5"), ("v5", "v6"), ("v6", "v2"),
    ]
    return Graph.build(vs, es)


def kneser(n: int, k: int) -> Graph:
    """Vertices are the k-subsets of {1..n}; edges join disjoint subsets."""
    if n < 2 * k:
        raise GraphError("kneser needs n >= 2k")
    subsets = list(itertools.combinations(range(1, n + 1), k))
    label = {s: "{" + ",".join(map(str, s)) + "}" for s in subsets}
    vs = [label[s] for s in subsets]
    es = []
    for a, b in itertools.combinations(subsets, 2):
        if not set(a) & set(b):
            es.append((label[a], label[b]))
    return Graph.build(vs, es)


def petersen() -> Graph:
    return kneser(5, 2)


def line_graph(g: Graph) -> Graph:
    """One vertex per edge of g, labeled 'u|v'; adjacency iff edges share an endpoint."""
    es = g.sorted_edges()
    label = {e: f"{e[0]}|{e[1]}" for e in es}
    vs = [label[e] for e in es]
    out = []
    for e, f in itertools.combinations(es, 2):
        if set(e) & set(f):
            out.append((label[e], label[f]))
    return Graph.build(vs, out)


def complement(g: Graph) -> Graph:
    es = [
        (u, v)
        for u, v in itertools.combinations(sorted(g.vertices), 2)
        if not g.has_edge(u, v)
    ]
    return Graph.build(g.vertices, es)


def add_universal(g: Graph, label: str) -> Graph:
    if label in g.vertices:
        raise GraphError(f"label {label!r} already used")
    vs = g.vertices + (label,)
    es = list(g.edges) + [(v, label) for v in g.vertices]
    return Graph.build(vs, es)


def fresh_label(g: Graph, base: str = "v") -> str:
    if base not in g.vertices:
        return base
    i = 0
    while f"{base}{i}" in g.vertices:
        i += 1
    return f"{base}{i}"


def k_colorable(g: Graph, k: int) -> Coloring | None:
    """Exhaustive backtracking k-coloring.

    Branch order is deterministic: vertices in declaration order, colors
    ascending.  Symmetry is broken by never using more than one fresh color
    at a time (in particular the first vertex is pinned to color 0), which
    does not affect existence.  The search keeps its path on an explicit
    stack, so any size of graph runs in constant Python stack depth.
    """
    if k < 0:
        raise GraphError("k must be >= 0")
    vs = list(g.vertices)
    nbrs = neighbour_masks(g, vs)
    classes = [0] * k  # the colored vertices of each color, as a mask
    colors: list[int] = []  # the colors of vertices 0, 1, ..., in order
    used = [0]  # used[i]: the colors in use among the first i vertices
    c = 0  # the next color to try for vertex len(colors)
    while len(colors) < len(vs):
        i = len(colors)
        limit = min(k, used[i] + 1)
        while c < limit and classes[c] & nbrs[i]:
            c += 1
        if c < limit:
            colors.append(c)
            classes[c] |= 1 << i
            used.append(max(used[i], c + 1))
            c = 0
        elif colors:  # vertex i has no color left: try the next for i - 1
            c = colors.pop()
            classes[c] ^= 1 << (i - 1)
            used.pop()
            c += 1
        else:
            return None
    return Coloring(dict(zip(vs, colors)))


def neighbour_masks(g: Graph, order) -> list[int]:
    """The neighbours of each vertex of `order` (every vertex of g, once
    each) as a bitmask whose bit i is order[i], listed in that order."""
    index = {v: i for i, v in enumerate(order)}
    masks = [0] * len(index)
    for u, v in g.edges:
        i, j = index[u], index[v]
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def clique_number(g: Graph) -> int:
    """Size of a largest clique (0 for the empty graph)."""
    return clique_number_of_masks(neighbour_masks(g, g.vertices))


def clique_number_of_masks(nbrs) -> int:
    """Size of a largest clique of the graph on vertices 0..len(nbrs)-1
    whose neighbours of vertex i are the set bits of nbrs[i].

    Bitset branch and bound on an explicit stack: each entry is a clique
    size and the candidates adjacent to the whole clique; branch on the
    highest candidate (with it, then without it) and drop an entry that
    cannot beat the best size found."""
    best = 0
    stack = [(0, (1 << len(nbrs)) - 1)]
    while stack:
        size, cand = stack.pop()
        if size + cand.bit_count() <= best:
            continue
        if not cand:
            best = size
            continue
        v = cand.bit_length() - 1
        stack.append((size, cand ^ (1 << v)))
        stack.append((size + 1, cand & nbrs[v]))
    return best


def independence_number_of_masks(nbrs, mask, cap) -> int:
    """min(alpha, cap), where alpha is the size of a largest set of
    pairwise nonadjacent vertices among the set bits of `mask`, with
    neighbours as in clique_number_of_masks.

    The same branch and bound on the non-neighbours, branching on the
    lowest candidate; it stops once it has found `cap` vertices."""
    best = 0
    stack = [(0, mask)]
    while stack and best < cap:
        size, cand = stack.pop()
        if size + cand.bit_count() <= best:
            continue
        if not cand:
            best = size
            continue
        low = cand & -cand
        cand ^= low
        stack.append((size, cand))
        stack.append((size + 1, cand & ~nbrs[low.bit_length() - 1]))
    return min(best, cap)


def is_triangle_free_3regular(g: Graph) -> bool:
    if any(g.degree(v) != 3 for v in g.vertices):
        return False
    for u, v in g.edges:
        if g.neighbors(u) & g.neighbors(v):
            return False
    return True
