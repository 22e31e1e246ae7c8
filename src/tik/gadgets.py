"""Special graphs and fixture realizations used by the reductions.

The rigid building blocks are K_{5,3} (all of whose 2-interval
realizations are contiguous) and K_{4,4} minus a matching edge (same
property with open length-2 intervals).  Everything here is
deterministic: fixed labels, identical output across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, GraphError, complete_bipartite, is_triangle_free_3regular
from .model import Interval, Representation, TwoInterval, q, two_interval, xx_two_interval

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def k53() -> Graph:
    return complete_bipartite(5, 3)


def k44_minus_e() -> Graph:
    """K_{4,4} minus the matching edge (s4, t4); s4 and t4 are the two
    degree-3 vertices."""
    g = complete_bipartite(4, 4)
    edges = [e for e in g.edges if e != ("s4", "t4")]
    return Graph.build(g.vertices, edges)


def _add_block(prefix: str, block: Graph, vertices: list, edges: list) -> None:
    """Append a copy of the block to the lists, every label v written
    prefix:v, in the block's order."""
    vertices.extend(f"{prefix}:{v}" for v in block.vertices)
    edges.extend((f"{prefix}:{u}", f"{prefix}:{w}") for u, w in block.edges)


# The balanced K_{5,3} layout: the six length-11 intervals of t1..t3 form a
# row; the ten length-7 intervals of s1..s5 bridge consecutive gaps or nest
# inside a t interval.  s1 owns the interval at the right extremity, which
# is where later constructions hook on.
_K53_LAYOUT = {
    "t1": (0, 11, 40, 51),
    "t2": (12, 23, 52, 63),
    "t3": (24, 35, 66, 77),
    "s1": (48, 55, 72, 79),
    "s2": (1, 8, 19, 26),
    "s3": (9, 16, Fraction(105, 4), Fraction(133, 4)),   # 26.25 .. 33.25
    "s4": (Fraction(67, 2), Fraction(81, 2), Fraction(221, 4), Fraction(249, 4)),
    "s5": (Fraction(163, 4), Fraction(191, 4), Fraction(125, 2), Fraction(139, 2)),
}


def k53_balanced_realization() -> Representation:
    """Balanced, contiguous realization of K_{5,3}: s-side lengths 7,
    t-side lengths 11, total span 79."""
    return Representation(k53_block("", 0))


# the layout in quarters, as ints: k53_block moves them in ints and makes
# one Fraction per end
_K53_QUARTERS = {v: tuple(int(4 * e) for e in quad) for v, quad in _K53_LAYOUT.items()}


def k53_block(prefix: str, offset, scale=1, mirror: bool = False,
              left_overhang: bool = False) -> dict[str, TwoInterval]:
    """The 2-intervals of the K_{5,3} layout, labelled prefix:v (v for an
    empty prefix), optionally mirrored (so s1's extremal interval sits at
    the block's left edge), scaled and shifted.  With left_overhang, s2's
    first interval is slid out past the left edge, giving the block
    s-owned extremities on both sides."""
    offset_num, offset_den = q(offset).as_integer_ratio()
    scale_num, scale_den = q(scale).as_integer_ratio()
    # an end e quarters in becomes scale·e/4 + offset, over one denominator
    times, plus = scale_num * offset_den, 4 * offset_num * scale_den
    den = 4 * offset_den * scale_den
    items = {}
    for v, quad in _K53_QUARTERS.items():
        if v == "s2" and left_overhang:
            quad = (-2, 26) + quad[2:]
        if mirror:
            quad = tuple(4 * 79 - e for e in reversed(quad))
        a, b, c, d = (Fraction(times * e + plus, den) for e in quad)
        items[f"{prefix}:{v}" if prefix else v] = TwoInterval(Interval(a, b), Interval(c, d))
    return items


# K_{4,4}-e with open intervals of length 2: the eight intervals of the
# s side tile the even positions, the eight t intervals sit at odd
# positions bridging them; the degree-3 vertices own the two extremities.
_K44E_POSITIONS = {
    "s4": (0, 4), "s1": (2, 6), "s2": (8, 12), "s3": (10, 14),
    "t1": (1, 9), "t2": (3, 11), "t3": (5, 13), "t4": (7, 15),
}


def k44e_22_realization() -> Representation:
    return Representation(
        {v: xx_two_interval(a, b, 2) for v, (a, b) in _K44E_POSITIONS.items()}
    )


def _k44e_block_positions(length: int) -> dict[str, tuple[int, int]]:
    """Left endpoints of the open length-`length` K_{4,4}-e block used by
    the crown construction (length >= 3).  The block spans (0, 9*length):
    a slot row plus bridges, with a one-unit gap before slot 6 that leaves
    room for an external interval meeting exactly s1 and t1."""
    if length < 3:
        raise GraphError("k44e block needs interval length >= 3")
    m = length
    return {
        "s4": (0, 6 * m + 1),
        "s2": (m, 4 * m),
        "s3": (2 * m, 7 * m + 1),
        "s1": (3 * m, 5 * m),
        "t2": (1, 2 * m + 1),
        "t1": (m + 1, 5 * m + 2),
        "t3": (4 * m + 1, 7 * m),
        "t4": (3 * m + 1, 8 * m),
    }


def degree4_anchor_pair(gadget: Graph) -> tuple[str, str]:
    """Lexicographically first adjacent pair of degree-4 vertices of a
    K_{4,4}-e copy (the anchor that external hub vertices attach to)."""
    deg4 = [v for v in sorted(gadget.vertices) if gadget.degree(v) == 4]
    for u in deg4:
        for w in deg4:
            if u < w and gadget.has_edge(u, w):
                return (u, w)
    raise GraphError("gadget has no adjacent degree-4 pair")


# --- unbalanced chain --------------------------------------------------------

# Seven K_{5,3} blocks B1..B7 in a row; three extra vertices I1,I2,I3 whose
# six intervals straddle the six junctions in the order I2,I1,I3,I2,I1,I3.
# A straddling interval meets exactly the right-extremal vertex (s1) of the
# block on its left and the left-extremal vertex (t1) of the block on its
# right.  The fixture realization gives the two straddles of each I vertex
# different lengths, so it passes the 2-interval validity check but is not
# balanced as given.
_CHAIN_JUNCTIONS = {1: "I2", 2: "I1", 3: "I3", 4: "I2", 5: "I1", 6: "I3"}


def unbalanced_chain() -> Graph:
    """The chain of seven K_{5,3} blocks joined by I1, I2 and I3.  Only its
    fixture realization is unbalanced: the graph itself is balanced.
    Started 78 into their left block, all six straddles have length 89/4,
    and that realization passes the balanced check.  So no instance here
    shows balanced ⊊ 2-interval.  The name stays, as the fixture
    `unbalanced_chain.json` carries it."""
    vertices = []
    edges = []
    base = k53()
    for i in range(1, 8):
        _add_block(f"B{i}", base, vertices, edges)
    vertices.extend(["I1", "I2", "I3"])
    for j, iv in _CHAIN_JUNCTIONS.items():
        edges.append((iv, f"B{j}:s1"))
        edges.append((iv, f"B{j + 1}:t1"))
    return Graph.build(vertices, edges)


def unbalanced_chain_realization() -> Representation:
    rep = {}
    for i in range(1, 8):
        rep.update(k53_block(f"B{i}", 100 * (i - 1)))
    straddles: dict[str, list] = {"I1": [], "I2": [], "I3": []}
    for j in sorted(_CHAIN_JUNCTIONS):
        iv = _CHAIN_JUNCTIONS[j]
        delta = q(0) if not straddles[iv] else HALF
        lo = q(100 * (j - 1) + 78) - delta
        hi = q(100 * j) + QUARTER
        straddles[iv].append(Interval(lo, hi))
    for iv, (a, b) in straddles.items():
        rep[iv] = two_interval(a, b)
    return Representation(rep)


# --- crown ladder: the (x,x) vs (x+1,x+1) separator --------------------------


@dataclass(frozen=True)
class XxSeparatorInstance:
    """Cocktail-party core v_i / v'_i anchored between four K_{4,4}-e
    blocks, plus hub vertices a and b; realizable with open integer
    intervals of length x+1."""

    graph: Graph
    x: int
    roles: dict


def xx_separator(x: int) -> XxSeparatorInstance:
    if x < 2:
        raise GraphError("xx_separator needs x >= 2")
    vs_plain = [f"v{i}" for i in range(1, x + 1)]
    vs_prime = [f"v'{i}" for i in range(1, x + 1)]
    vertices = vs_plain + vs_prime
    core = list(vertices)
    matching = {tuple(sorted((f"v{i}", f"v'{i}"))) for i in range(1, x + 1)}
    edges = [
        (u, w)
        for i, u in enumerate(core)
        for w in core[i + 1:]
        if tuple(sorted((u, w))) not in matching
    ]

    base = k44_minus_e()
    for j in range(1, 5):
        _add_block(f"X{j}", base, vertices, edges)

    # degree-3 extremity roles per block; X2 and X4 appear mirrored in the
    # companion realization, which swaps which extremity faces left
    v_left = {1: "X1:s4", 2: "X2:t4", 3: "X3:s4", 4: "X4:t4"}
    v_right = {1: "X1:t4", 2: "X2:s4", 3: "X3:t4", 4: "X4:s4"}

    edges.append((v_right[2], v_left[3]))
    for u in vs_plain:
        edges.append((u, v_right[1]))
        edges.append((u, v_left[4]))
    for u in vs_prime:
        edges.append((u, v_left[2]))
        edges.append((u, v_right[3]))

    anchor = degree4_anchor_pair(base)
    anchor1 = tuple(f"X1:{w}" for w in anchor)
    anchor4 = tuple(f"X4:{w}" for w in anchor)
    vertices.extend(["a", "b"])
    for u in vs_plain + vs_prime:
        edges.append(("a", u))
        edges.append(("b", u))
    edges.extend(("a", w) for w in anchor1)
    edges.extend(("b", w) for w in anchor4)

    roles = {
        "v": vs_plain,
        "v_prime": vs_prime,
        "blocks": {j: [f"X{j}:{v}" for v in sorted(base.vertices)]
                   for j in range(1, 5)},
        "v_left": v_left,
        "v_right": v_right,
        "a": "a",
        "b": "b",
        "anchors": {"a": anchor1, "b": anchor4},
    }
    return XxSeparatorInstance(Graph.build(vertices, edges), x, roles)


def xx_separator_realization(x: int) -> Representation:
    """Open integer intervals of length x+1 realizing xx_separator(x):
    two interlocking stairways of v / v' intervals between the anchored
    blocks."""
    if x < 2:
        raise GraphError("xx_separator needs x >= 2")
    m = x + 1
    t2, t3, t4 = 10 * m, 19 * m - 1, 29 * m - 1  # the offsets of X2, X3, X4

    items = {}
    for v, (a, b) in _k44e_block_positions(m).items():
        # X2 and X4 mirror the block within its span (0, 9m)
        for name, offset, mirror in (("X1", 0, False), ("X2", t2, True),
                                     ("X3", t3, False), ("X4", t4, True)):
            lo1, lo2 = (8 * m - b, 8 * m - a) if mirror else (a, b)
            items[f"{name}:{v}"] = xx_two_interval(lo1 + offset, lo2 + offset, m)
    for i in range(1, x + 1):
        items[f"v{i}"] = xx_two_interval(9 * m - i, t3 + 10 * m - i, m)
        items[f"v'{i}"] = xx_two_interval(10 * m - i, t3 + 9 * m - i, m)
    items["a"] = xx_two_interval(5 * m + 1, 9 * m, m)
    items["b"] = xx_two_interval(t3 + 9 * m, t4 + 3 * m - 1, m)
    return Representation(items)


# --- the all-4-simplicial but not unit gadget --------------------------------


def c4_anchored() -> Graph:
    """A 4-cycle whose vertices are each tied to the anchor pair of a
    private K_{4,4}-e block."""
    vertices = [f"v{i}" for i in range(1, 5)]
    edges = [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v4")]
    base = k44_minus_e()
    anchor = degree4_anchor_pair(base)
    for i in range(1, 5):
        _add_block(f"X{i}", base, vertices, edges)
        edges.extend((f"v{i}", f"X{i}:{w}") for w in anchor)
    return Graph.build(vertices, edges)


# --- the Hamiltonicity expansion ---------------------------------------------


@dataclass(frozen=True)
class HamiltonicityInstance:
    """Expansion of a 3-regular triangle-free graph used by the balanced
    recognition reduction: per-vertex K_{5,3} anchors M(v), a hub z, and
    three more blocks H1, H2, H3."""

    graph: Graph
    base: Graph
    n: int  # |V(base)| - 1
    roles: dict


def hamiltonicity_expansion(g: Graph) -> HamiltonicityInstance:
    if g.n == 0:
        raise GraphError("expansion needs a nonempty base graph")
    if not is_triangle_free_3regular(g):
        raise GraphError("base graph must be 3-regular and triangle-free")
    for v in g.vertices:
        if ":" in v or v == "z":
            raise GraphError(f"base label {v!r} collides with gadget labels")

    order = sorted(g.vertices)
    v0 = order[0]
    n = g.n - 1

    vertices = list(g.vertices)
    edges = list(g.edges)

    base = k53()
    m_anchor = {}
    for u in order:
        _add_block(f"M({u})", base, vertices, edges)
        m_anchor[u] = f"M({u}):s1"
        edges.append((u, m_anchor[u]))

    vertices.append("z")
    for u in order:
        edges.append((u, "z"))
    # z reaches the whole block M(v_0) and no other M block
    for w in sorted(base.vertices):
        edges.append(("z", f"M({v0}):{w}"))

    for name in ("H1", "H2", "H3"):
        _add_block(name, base, vertices, edges)
    # H1 hosts z at its right extremity (s1) and inside the hole covered
    # by s3; its left extremity (s2) hooks onto H2's extremal vertex s1
    edges.append(("z", "H1:s1"))
    edges.append(("z", "H1:s3"))
    edges.append(("H1:s2", "H2:s1"))
    edges.append(("z", "H3:s1"))
    for w in sorted(base.vertices):
        edges.append((v0, f"H3:{w}"))

    roles = {
        "v0": v0,
        "base_order": order,
        "m_anchor": m_anchor,
        "z": "z",
        "z_links_h1": ("H1:s1", "H1:s3"),
        "h1_h2_link": ("H1:s2", "H2:s1"),
        "z_link_h3": "H3:s1",
    }
    return HamiltonicityInstance(Graph.build(vertices, edges), g, n, roles)
