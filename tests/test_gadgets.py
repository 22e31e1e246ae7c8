import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from tik import model
from tik.gadgets import (
    _K53_LAYOUT,
    HamiltonicityInstance,
    c4_anchored,
    degree4_anchor_pair,
    hamiltonicity_expansion,
    k44_minus_e,
    k44e_22_realization,
    k53,
    k53_balanced_realization,
    k53_block,
    unbalanced_chain,
    unbalanced_chain_realization,
    xx_separator,
    xx_separator_realization,
)
from tik.graphs import Graph, GraphError, complete_bipartite, cycle, petersen
from tik.io_cli import parse_representation, representation_to_json
from tik.model import BALANCED, TWO_INTERVAL, XX, intersection_graph

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "tik" / "fixtures"


def test_k53_and_k44e_shapes():
    assert k53().n == 8 and len(k53().edges) == 15
    g = k44_minus_e()
    assert g.n == 8 and len(g.edges) == 15
    degs = sorted(g.degree(v) for v in g.vertices)
    assert degs == [3, 3, 4, 4, 4, 4, 4, 4]
    assert not g.has_edge("s4", "t4")


def test_degree4_anchor_pair():
    assert degree4_anchor_pair(k44_minus_e()) == ("s1", "t1")


def test_k53_fixture():
    rep = k53_balanced_realization()
    assert model.family_check(rep, BALANCED).ok
    assert intersection_graph(rep) == k53()
    assert model.contiguity(rep).contiguous
    span = rep.span()
    assert span.lo == 0 and span.hi == 79
    for i in range(1, 6):
        assert rep[f"s{i}"].left.length == 7
    for j in range(1, 4):
        assert rep[f"t{j}"].left.length == 11


def test_k44e_fixture():
    rep = k44e_22_realization()
    assert model.family_check(rep, XX(2)).ok
    assert intersection_graph(rep) == k44_minus_e()
    assert model.contiguity(rep).contiguous


def test_fixture_json_files_match_generators():
    for name, rep in [
        ("k53_balanced", k53_balanced_realization()),
        ("k44e_open2", k44e_22_realization()),
        ("unbalanced_chain", unbalanced_chain_realization()),
    ]:
        payload = json.loads((FIXTURES / f"{name}.json").read_text())
        assert "notes" in payload
        frozen = parse_representation(json.dumps(payload))
        assert frozen == rep, f"fixture drift in {name}"


def test_unbalanced_chain_graph():
    g = unbalanced_chain()
    assert g.n == 59
    for a, b in itertools.combinations(["I1", "I2", "I3"], 2):
        assert not g.has_edge(a, b)
    for iv in ("I1", "I2", "I3"):
        assert g.degree(iv) == 4
    # every block induces K_{5,3}
    base = k53()
    for i in range(1, 8):
        block = g.induced([f"B{i}:{v}" for v in base.vertices])
        relabeled = Graph.build(
            [v.split(":", 1)[1] for v in block.vertices],
            [(u.split(":", 1)[1], w.split(":", 1)[1]) for u, w in block.edges],
        )
        assert relabeled == base


def _reference_k53_block(prefix, offset, scale, mirror, left_overhang):
    # the layout moved in Fractions: overhang, then mirror in the span 79,
    # then scale, then shift
    offset, scale = model.q(offset), model.q(scale)
    items = {}
    for v, quad in _K53_LAYOUT.items():
        quad = tuple(map(model.q, quad))
        if v == "s2" and left_overhang:
            quad = (Fraction(-1, 2), Fraction(13, 2)) + quad[2:]
        if mirror:
            quad = tuple(79 - e for e in reversed(quad))
        a, b, c, d = (scale * e + offset for e in quad)
        items[f"{prefix}:{v}" if prefix else v] = model.TwoInterval(
            model.Interval(a, b), model.Interval(c, d))
    return items


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("left_overhang", [False, True])
def test_k53_block_matches_fraction_reference(mirror, left_overhang):
    # scales 1, the dilation 165 + 2n of the Hamiltonicity witness and a
    # Fraction; integer, half, quarter, negative and other offsets, as the
    # int, Fraction or string callers pass
    scales = [1, 165 + 2 * 7, Fraction(7, 3), "5/2"]
    offsets = [0, 100, -78, Fraction(1, 2), Fraction(-3, 2), Fraction(13, 4),
               Fraction(-7, 4), Fraction(5, 6), "-1/3", Fraction(-1, 2) * 179 - 78]
    for scale, offset in itertools.product(scales, offsets):
        got = k53_block("B", offset, scale=scale, mirror=mirror, left_overhang=left_overhang)
        expected = _reference_k53_block("B", offset, scale, mirror, left_overhang)
        assert got == expected, (scale, offset)
        assert [str(ti) for ti in got.values()] == [str(ti) for ti in expected.values()]
        assert all(type(e) is Fraction for ti in got.values() for iv in ti.parts()
                   for e in (iv.lo, iv.hi))
    assert k53_block("", 0) == k53_balanced_realization().items


def test_unbalanced_chain_fixture_realization():
    g = unbalanced_chain()
    rep = unbalanced_chain_realization()
    assert model.family_check(rep, TWO_INTERVAL).ok
    assert model.family_check(rep, BALANCED).reason == (
        "'I1' unbalanced: |left| = 89/4, |right| = 91/4")
    assert intersection_graph(rep) == g


def test_unbalanced_chain_graph_is_balanced():
    # the fixture starts each I vertex's second straddle 1/2 early; started
    # 78 into its left block like the first, every straddle has length 89/4
    rep = unbalanced_chain_realization().items
    for iv in ("I1", "I2", "I3"):
        left, right = rep[iv].parts()
        rep[iv] = model.two_interval(left, model.Interval(right.hi - left.length, right.hi))
    rep = model.Representation(rep)
    assert {rep[iv].right.length for iv in ("I1", "I2", "I3")} == {model.q("89/4")}
    assert model.family_check(rep, BALANCED).ok
    assert intersection_graph(rep) == unbalanced_chain()


def test_xx_separator_graph():
    inst = xx_separator(2)
    assert inst.graph.n == 38
    assert xx_separator(4).graph.n == 42
    with pytest.raises(GraphError):
        xx_separator(1)
    roles = inst.roles
    assert inst.graph.has_edge(roles["v_right"][2], roles["v_left"][3])
    # removed matching: v_i and v'_i nonadjacent, cross pairs adjacent
    for i in (1, 2):
        assert not inst.graph.has_edge(f"v{i}", f"v'{i}")
    assert inst.graph.has_edge("v1", "v'2")
    assert inst.graph.has_edge("v1", "v2")


def test_xx_separator_realizations():
    for x in (2, 3, 4):
        inst = xx_separator(x)
        rep = xx_separator_realization(x)
        assert model.family_check(rep, XX(x + 1)).ok
        assert intersection_graph(rep) == inst.graph
        lows = [rep[f"v{i}"].left.lo for i in range(1, x + 1)]
        assert all(a > b for a, b in zip(lows, lows[1:]))
        lows_prime = [rep[f"v'{i}"].left.lo for i in range(1, x + 1)]
        assert all(a > b for a, b in zip(lows_prime, lows_prime[1:]))


def test_c4_anchored_shape():
    g = c4_anchored()
    assert g.n == 36
    for i in range(1, 5):
        assert g.degree(f"v{i}") == 4


def test_hamiltonicity_expansion_counts():
    inst = hamiltonicity_expansion(complete_bipartite(3, 3))
    assert inst.graph.n == 79
    assert inst.n == 5
    inst2 = hamiltonicity_expansion(petersen())
    assert inst2.graph.n == 115
    with pytest.raises(GraphError):
        hamiltonicity_expansion(cycle(5))


def test_hamiltonicity_blocks_induce_k53():
    inst = hamiltonicity_expansion(complete_bipartite(3, 3))
    g = inst.graph
    base = k53()
    prefixes = [f"M({u})" for u in inst.roles["base_order"]] + ["H1", "H2", "H3"]
    for prefix in prefixes:
        block = g.induced([f"{prefix}:{v}" for v in base.vertices])
        relabeled = Graph.build(
            [v.split(":", 1)[-1] for v in block.vertices],
            [(u.rsplit(":", 1)[-1], w.rsplit(":", 1)[-1]) for u, w in block.edges],
        )
        assert relabeled == base


def test_hamiltonicity_z_adjacency():
    inst = hamiltonicity_expansion(complete_bipartite(3, 3))
    g = inst.graph
    v0 = inst.roles["v0"]
    for u in inst.roles["base_order"]:
        assert g.has_edge(u, "z")
    # z reaches the whole M(v0) block and nothing of the other M blocks
    for w in k53().vertices:
        assert g.has_edge("z", f"M({v0}):{w}")
    other = inst.roles["base_order"][1]
    assert not any(g.has_edge("z", f"M({other}):{w}") for w in k53().vertices)
    assert g.has_edge("z", "H1:s1") and g.has_edge("z", "H1:s3")
    assert g.has_edge("H1:s2", "H2:s1")
    assert g.has_edge("z", "H3:s1")
    for w in k53().vertices:
        assert g.has_edge(v0, f"H3:{w}")


def test_hamiltonicity_label_collision_rejected():
    bad = Graph.build(
        ["z", "b", "c", "d", "e", "f"],
        [("z", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "z"),
         ("z", "d"), ("b", "e"), ("c", "f")],
    )
    with pytest.raises(GraphError):
        hamiltonicity_expansion(bad)


def test_gadget_generators_deterministic():
    assert k53_balanced_realization() == k53_balanced_realization()
    assert k44e_22_realization() == k44e_22_realization()
    assert unbalanced_chain() == unbalanced_chain()
    assert unbalanced_chain_realization() == unbalanced_chain_realization()
    assert xx_separator(3).graph == xx_separator(3).graph
    assert xx_separator_realization(3) == xx_separator_realization(3)
    assert c4_anchored() == c4_anchored()
    g = complete_bipartite(3, 3)
    assert hamiltonicity_expansion(g).graph == hamiltonicity_expansion(g).graph
