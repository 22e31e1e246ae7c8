"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 8 is asserted exactly as specified even though two of its
sub-claims are mathematically false (see the kneser triangle test in
test_graphs.py); it is expected to fail, and the failure message lists
the false parts.
"""

import random
import time

from conftest import random_graph
from tik import model, transforms
from tik.gadgets import (
    c4_anchored,
    hamiltonicity_expansion,
    k44_minus_e,
    k53,
    k53_balanced_realization,
    xx_separator,
    xx_separator_realization,
)
from tik.graphs import (
    Graph,
    add_universal,
    complement,
    complete_bipartite,
    cycle,
    domino,
    k_colorable,
    kneser,
    petersen,
    wheel,
)
from tik.model import (
    BALANCED,
    CIRCULAR_ARC,
    UNIT,
    XX,
    CircularArcRep,
    intersection_graph,
)
from tik.recognize import Budget, enumerate_realizations, recognize
from tik.reductions import (
    coloring_to_simplicial_instance,
    find_hamiltonian_cycle,
    ham_cycle_realization,
    witness_roundtrip,
)
from tik.simplicial import all_k_simplicial, k1t_free
from tik.transforms import (
    balanced_from_circular_arc,
    generic_cut_point,
    unit_from_proper_circular_arc,
)
from conftest import (
    random_circular_rep,
    random_proper_circular_rep,
    random_xx_rep,
)

_MEMBER_LOG = []  # (graph, family, outcome) for the criterion-13 audit
_UNIT_CERTS = []  # Unit certificates produced by criterion 4


def _recognize(g, family, budget):
    outcome = recognize(g, family, Budget(budget))
    if outcome.is_member():
        _MEMBER_LOG.append((g, family, outcome))
    return outcome


def _verify_member(g, family, outcome):
    cert = outcome.certificate
    assert model.family_check(cert, family).ok
    if isinstance(cert, CircularArcRep):
        assert model.circular_intersection_graph(cert) == g
    else:
        assert intersection_graph(cert) == g


def _report(tag, ok, started, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"[{tag}] {status} ({time.perf_counter() - started:.2f}s){suffix}")


def test_c01_k53_fixture():
    t = time.perf_counter()
    rep = k53_balanced_realization()
    ok = (
        model.family_check(rep, BALANCED).ok
        and intersection_graph(rep) == k53()
        and all(rep[f"s{i}"].left.length == 7 for i in range(1, 6))
        and all(rep[f"t{j}"].left.length == 11 for j in range(1, 4))
        and rep.span().length == 79
    )
    _report("C1 k53 fixture", ok, t)
    assert ok


def test_c02_k44e_contiguity_audit():
    t = time.perf_counter()
    bad = []

    def visit(rep):
        if not model.contiguity(rep).contiguous:
            bad.append(rep)

    result = enumerate_realizations(k44_minus_e(), XX(2), Budget(10**8), visit)
    ok = not bad and (result.complete or result.count >= 0)
    detail = (
        f"complete={result.complete} realizations={result.count} "
        f"nodes={result.nodes_used} counterexamples={len(bad)}"
    )
    _report("C2 contiguity audit", ok and result.complete, t, detail)
    assert not bad, "found a non-contiguous realization"
    assert result.complete, "audit did not exhaust the canonical space"
    assert (result.count, result.nodes_used) == (6_336, 395_809)


def test_c03_xx_class_separation():
    t = time.perf_counter()
    k23 = complete_bipartite(2, 3)
    out1 = _recognize(k23, XX(1), 10**7)
    out2 = _recognize(k23, XX(2), 10**7)
    ok = out1.is_nonmember() and out2.is_member()
    if out2.is_member():
        _verify_member(k23, XX(2), out2)
    _report("C3 (1,1) vs (2,2) separation", ok, t,
            f"xx1={out1.kind}/{out1.nodes_used} xx2={out2.kind}/{out2.nodes_used}")
    assert ok


def test_xx2_strictly_inside_xx3_on_eight_vertices():
    # G_B: K_{4,4} on {v0..v3} x {v4..v7} plus v4v7, v5v7 and v6v7, an
    # xx(2) nonmember past the default budget and an xx(3) member
    t = time.perf_counter()
    edges = [(f"v{a}", f"v{b}") for a in range(4) for b in range(4, 8)]
    g = Graph.build([f"v{i}" for i in range(8)],
                    edges + [("v4", "v7"), ("v5", "v7"), ("v6", "v7")])
    out2 = _recognize(g, XX(2), 2 * 10**7)
    out3 = _recognize(g, XX(3), 10**7)
    _report("(2,2) vs (3,3) separation on G_B", out2.is_nonmember() and out3.is_member(),
            t, f"xx2={out2.kind}/{out2.nodes_used} xx3={out3.kind}/{out3.nodes_used}")
    assert (out2.kind, out2.nodes_used) == ("nonmember", 14_474_021)
    assert (out3.kind, out3.nodes_used) == ("member", 4_800)
    _verify_member(g, XX(3), out3)


def test_c04_domino_separators():
    t = time.perf_counter()
    d = domino()
    out_unit = _recognize(d, UNIT, 10**7)
    out_ca = _recognize(d, CIRCULAR_ARC, 10**7)
    ok = out_unit.is_member() and out_ca.is_nonmember()
    if out_unit.is_member():
        _verify_member(d, UNIT, out_unit)
        _UNIT_CERTS.append((d, out_unit.certificate))
    _report("C4 domino unit/circular", ok, t,
            f"unit={out_unit.kind} ca={out_ca.kind}/{out_ca.nodes_used}")
    assert ok


def test_c05_k23_separators():
    t = time.perf_counter()
    k23 = complete_bipartite(2, 3)
    out_bal = _recognize(k23, BALANCED, 10**7)
    out_ca = _recognize(k23, CIRCULAR_ARC, 10**7)
    ok = out_bal.is_member() and out_ca.is_nonmember()
    if out_bal.is_member():
        _verify_member(k23, BALANCED, out_bal)
    _report("C5 k23 balanced/circular", ok, t,
            f"balanced={out_bal.kind} ca={out_ca.kind}/{out_ca.nodes_used}")
    assert ok


def test_c06_hamiltonicity_witness():
    t = time.perf_counter()
    k33 = complete_bipartite(3, 3)
    inst = hamiltonicity_expansion(k33)
    cyc = find_hamiltonian_cycle(k33)
    rep = ham_cycle_realization(inst, cyc)
    v0 = inst.roles["v0"]
    ok = (
        model.family_check(rep, BALANCED).ok
        and intersection_graph(rep) == inst.graph
        and rep["z"].left.length == 173
        and rep["z"].right.length == 173
        and rep[v0].left.length == 83
        and rep[v0].right.length == 83
    )
    for u in inst.roles["base_order"]:
        pts = [
            e
            for lbl in k53().vertices
            for iv in rep[f"M({u}):{lbl}"].parts()
            for e in (iv.lo, iv.hi)
        ]
        ok = ok and (max(pts) - min(pts) == 79)
    span = rep.span().length
    _report("C6 hamiltonicity witness", ok, t,
            f"span={span} (reference 13273+241n={13273 + 241 * inst.n})")
    assert ok


def test_c07_coloring_equivalence():
    t = time.perf_counter()
    k4 = Graph.build(list("abcd"), [(a, b) for a in "abcd" for b in "abcd" if a < b])
    corpus = [cycle(5), k4, petersen(), wheel(5)]
    rng = random.Random(424242)
    corpus += [random_graph(rng, rng.randint(1, 8)) for _ in range(20)]
    checked = 0
    for g in corpus:
        for k in (2, 3, 4):
            coloring = k_colorable(g, k)
            inst = coloring_to_simplicial_instance(g, k)
            witness = all_k_simplicial(inst, k)
            assert (coloring is not None) == (witness is not None), (g, k)
            if coloring is not None:
                partition = witness_roundtrip(g, k, coloring)
                assert partition.validates(inst, k)
                back = witness_roundtrip(g, k, partition)
                assert back.validates(g, k)
                assert {frozenset(c) for c in back.classes() if c} == {
                    frozenset(c) for c in coloring.classes() if c
                }
            checked += 1
    _report("C7 coloring equivalence", True, t, f"cases={checked}")


def test_c08_kneser_claims_as_stated():
    t = time.perf_counter()
    kg = kneser(7, 2)
    parts = {
        "kneser(7,2) triangle-free": not _has_triangle(kg),
        "4-coloring absent": k_colorable(kg, 4) is None,
        "5-coloring present": k_colorable(kg, 5) is not None,
        "complement+universal claw-free": k1t_free(
            add_universal(complement(kg), "v"), 3
        ),
        "complement+universal not all-4-simplicial": all_k_simplicial(
            add_universal(complement(kg), "v"), 4
        ) is None,
    }
    ok = all(parts.values())
    failed = [name for name, good in parts.items() if not good]
    _report("C8 kneser claims", ok, t, f"failed parts: {failed}" if failed else "")
    assert ok, (
        "the criterion asserts these claims verbatim, but they are "
        f"mathematically false: {failed} (KG(7,2) contains the triangle "
        "{1,2},{3,4},{5,6})"
    )


def _has_triangle(g):
    for u, v in g.edges:
        if g.neighbors(u) & g.neighbors(v):
            return True
    return False


def test_c09_wheel_separators():
    t = time.perf_counter()
    ok = True
    for k in (3, 4, 5):
        w = wheel(2 * k + 1)
        ok = ok and k1t_free(w, k + 1) and all_k_simplicial(w, k) is None
    _report("C9 wheel separators", ok, t)
    assert ok


def test_c10_transform_preservation():
    t = time.perf_counter()
    rng = random.Random(515151)
    for _ in range(200):
        ca = random_circular_rep(rng, rng.randint(1, 10))
        rep = balanced_from_circular_arc(ca, generic_cut_point(ca))
        assert model.family_check(rep, BALANCED).ok
        assert intersection_graph(rep) == model.circular_intersection_graph(ca)
    for _ in range(200):
        ca = random_proper_circular_rep(rng, rng.randint(1, 10))
        rep = unit_from_proper_circular_arc(ca, generic_cut_point(ca))
        assert model.family_check(rep, UNIT).ok
        assert intersection_graph(rep) == model.circular_intersection_graph(ca)
    for _ in range(200):
        n, x = rng.randint(1, 8), rng.randint(1, 4)
        rep = random_xx_rep(rng, n, x)
        stretched = transforms.stretch(rep)
        assert model.family_check(stretched, XX(x + 1)).ok
        assert intersection_graph(stretched) == intersection_graph(rep)
    if not _UNIT_CERTS:  # standalone run: produce the criterion-4 certificate
        out = _recognize(domino(), UNIT, 10**7)
        _UNIT_CERTS.append((domino(), out.certificate))
    for g, cert in _UNIT_CERTS:
        out = transforms.unit_rep_to_integer_xx(cert)
        assert model.family_check(out, XX(2 * len(cert))).ok
        assert intersection_graph(out) == g
    _report("C10 transform preservation", True, t, "600 random + unit certs")


def test_c11_xx_separator_fixture():
    t = time.perf_counter()
    ok = True
    for x in (2, 3, 4):
        inst = xx_separator(x)
        rep = xx_separator_realization(x)
        lows = [rep[f"v{i}"].left.lo for i in range(1, x + 1)]
        ok = (
            ok
            and model.family_check(rep, XX(x + 1)).ok
            and intersection_graph(rep) == inst.graph
            and all(a > b for a, b in zip(lows, lows[1:]))
        )
    _report("C11 separator realizations", ok, t)
    assert ok


def test_c12_c4_anchored_simplicial():
    t = time.perf_counter()
    g = c4_anchored()
    witness = all_k_simplicial(g, 4)
    ok = witness is not None and witness.validates(g, 4)
    _report("C12 anchored 4-cycle", ok, t)
    assert ok


def test_c13_member_soundness():
    t = time.perf_counter()
    if not _MEMBER_LOG:  # standalone run: redo the member searches
        _recognize(complete_bipartite(2, 3), XX(2), 10**7)
        _recognize(domino(), UNIT, 10**7)
        _recognize(complete_bipartite(2, 3), BALANCED, 10**7)
    assert _MEMBER_LOG, "no member outcomes were recorded"
    for g, family, outcome in _MEMBER_LOG:
        _verify_member(g, family, outcome)
    _report("C13 certificate soundness", True, t,
            f"members re-verified={len(_MEMBER_LOG)}")
