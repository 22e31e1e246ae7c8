"""Opcode counts of a fixed list of searches, a work measure that does not
vary from run to run.

Runs each search below, one Hamiltonicity witness build (expansion,
realization and balanced check), one intersection graph, the
neighbour-mask solvers outside the search, one round trip between a
3-coloring and an all-3-simplicial witness and three batches of
transforms (proper circular-arc -> unit, unit -> open integer (2n,2n),
(x,x) -> (x+1,x+1))
under `sys.settrace` with `f_trace_opcodes` set on every frame and
prints the number of bytecode instructions the interpreter executed for
it, with its answer (a search's node count among it):

    PYTHONPATH=src python3 tools/bytecodes.py

Wall time of the same code can swing by 10 to 20% between runs on a
busy machine; these counts repeat exactly for one tik and one CPython
version, so two versions of the search loop compare by them.  To count
another version, point PYTHONPATH at its `src`.  The counts include
the work a search hands to other modules (its set-up, certificates) but
not the time spent inside C functions, so they size interpreter work,
not wall time.  All twenty-two lines take about 30 s traced.
"""

from __future__ import annotations

import hashlib
import random
import sys

from tik.gadgets import hamiltonicity_expansion, k44_minus_e, xx_separator
from tik.graphs import (
    Graph,
    complement,
    complete_bipartite,
    cycle,
    from_edge_list,
    k_colorable,
    path,
    petersen,
    wheel,
)
from tik.model import (
    BALANCED,
    CIRCULAR_ARC,
    INTERVAL_CLASS,
    TWO_INTERVAL,
    UNIT,
    UNIT_INTERVAL,
    XX,
    Arc,
    CircularArcRep,
    contiguity,
    family_check,
    intersection_graph,
    q,
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
    TransformError,
    generic_cut_point,
    proper_circular_arc_check,
    stretch,
    unit_from_proper_circular_arc,
    unit_rep_to_integer_xx,
)


# a balanced member whose search reaches five leaves and whose LP rejects
# the first four, at 9,269 nodes (LP_REJECTS_10 in tests/test_recognize.py)
LP_REJECTS_10 = from_edge_list("v1 v10\nv1 v2\nv1 v8\nv2 v10\nv5 v10\n"
                               "v6 v10\nv7 v10\nv8 v10\nv2 v4\nv3 v4\n"
                               "v3 v5\nv3 v7\nv4 v5\nv4 v6\nv5 v8\nv6 v8\n"
                               "v6 v9\n")


def _recognition(g, family, budget):
    def call():
        out = recognize(g, family, Budget(budget))
        return f"{out.kind} nodes={out.nodes_used}"
    return call


def _enumeration(g, family, budget, visitor=lambda rep: None):
    def call():
        out = enumerate_realizations(g, family, Budget(budget), visitor)
        return f"complete={out.complete} count={out.count} nodes={out.nodes_used}"
    return call


def _prism30():
    k = 30
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    return Graph.build(a + b, [(x[i], x[(i + 1) % k]) for x in (a, b)
                               for i in range(k)] + list(zip(a, b)))


def _prism_witness():
    # prism(30) and the balanced realization of its Hamiltonicity
    # expansion, 565 vertices
    prism = _prism30()
    return prism, ham_cycle_realization(hamiltonicity_expansion(prism),
                                        find_hamiltonian_cycle(prism))


def _prism_witness_build():
    # the cycle is found untraced; the expansion, its realization and the
    # balanced check are counted
    prism = _prism30()
    cycle = find_hamiltonian_cycle(prism)

    def call():
        inst = hamiltonicity_expansion(prism)
        rep = ham_cycle_realization(inst, cycle)
        balanced = family_check(rep, BALANCED).ok
        return (f"vertices={inst.graph.n} edges={len(inst.graph.edges)} "
                f"span={rep.span().length} balanced={balanced}")
    return call


def _prism_witness_graph():
    # the realization is built untraced; only its intersection graph is counted
    _, rep = _prism_witness()

    def call():
        g = intersection_graph(rep)
        return f"vertices={g.n} edges={len(g.edges)}"
    return call


def _mask_solvers():
    # the neighbour-mask solvers outside the search: the two simplicial
    # checks on the prism(30) witness's intersection graph and the cycle
    # search on prism(30), all built untraced
    prism, rep = _prism_witness()
    g = intersection_graph(rep)

    def call():
        simplicial = all_k_simplicial(g, 4) is not None
        cycle = " ".join(find_hamiltonian_cycle(prism))
        return (f"all-4-simplicial={simplicial} K1,5-free={k1t_free(g, 5)} "
                f"cycle sha256={hashlib.sha256(cycle.encode()).hexdigest()[:16]}")
    return call


def _coloring_roundtrip():
    # cycle(41)'s 3-coloring and its all-3-simplicial instance's witness,
    # each carried across the reduction
    g = cycle(41)

    def call():
        partition = witness_roundtrip(g, 3, k_colorable(g, 3))
        witness = all_k_simplicial(coloring_to_simplicial_instance(g, 3), 3)
        coloring = witness_roundtrip(g, 3, witness)
        text = repr((sorted(partition.parts.items()), sorted(coloring.assignment.items())))
        return f"sha256={hashlib.sha256(text.encode()).hexdigest()[:16]}"
    return call


def _proper_arc_models():
    # 100 closed proper circular-arc models on 4 to 14 arcs with their cut
    # points: half of one length at distinct half-integer starts, half of
    # lengths within one of each other, kept when proper
    rng = random.Random(3)
    models = []
    while len(models) < 100:
        n = rng.randint(4, 14)
        c = 4 * n
        starts = [q(s) / 2 for s in rng.sample(range(2 * c), n)]
        if rng.random() < 0.5:
            length = q(rng.randint(2, 2 * c - 2)) / 2
            lengths = [length] * n
        else:
            base = rng.randint(4, 2 * c - 4)
            lengths = [q(base + rng.randint(0, 2)) / 2 for _ in range(n)]
        ca = CircularArcRep(c, {f"v{i + 1}": Arc(s, (s + length) % c)
                                for i, (s, length) in enumerate(zip(starts, lengths))})
        try:
            proper_circular_arc_check(ca)
        except TransformError:
            continue
        models.append((ca, generic_cut_point(ca)))
    return models


def _proper_arc_units():
    # each model, built untraced, is cut and unitized; the check runs
    # inside unit_from_proper_circular_arc
    models = _proper_arc_models()

    def call():
        reps = [unit_from_proper_circular_arc(ca, p) for ca, p in models]
        text = repr([sorted(rep.items.items()) for rep in reps])
        return f"models={len(reps)} sha256={hashlib.sha256(text.encode()).hexdigest()[:16]}"
    return call


def _unit_integer_xx():
    # the 100 unit representations of the line above, built untraced,
    # each re-placed as open integer (2n,2n)
    reps = [unit_from_proper_circular_arc(ca, p) for ca, p in _proper_arc_models()]

    def call():
        outs = [unit_rep_to_integer_xx(rep) for rep in reps]
        text = repr([sorted(out.items.items()) for out in outs])
        return f"reps={len(outs)} sha256={hashlib.sha256(text.encode()).hexdigest()[:16]}"
    return call


def _integer_xx_stretch():
    # the 100 (2n,2n) outputs of the line above, built untraced, each
    # stretched to (2n+1,2n+1)
    reps = [unit_rep_to_integer_xx(unit_from_proper_circular_arc(ca, p))
            for ca, p in _proper_arc_models()]

    def call():
        outs = [stretch(rep) for rep in reps]
        text = repr([sorted(out.items.items()) for out in outs])
        return f"reps={len(outs)} sha256={hashlib.sha256(text.encode()).hexdigest()[:16]}"
    return call


def searches():
    """(name, call) pairs; each call runs one search (the last seven, one
    witness build, one intersection graph, the mask solvers outside the
    search, one coloring round trip and three batches of transforms) and
    describes its answer."""
    return (
        ("wheel(7)/unit 10^5", _recognition(wheel(7), UNIT, 10**5)),
        ("wheel(9)/unit 10^5", _recognition(wheel(9), UNIT, 10**5)),
        ("xx_separator(2)/xx(2) 10^4",
         _recognition(xx_separator(2).graph, XX(2), 10**4)),
        ("xx_separator(2)/balanced 10^5",
         _recognition(xx_separator(2).graph, BALANCED, 10**5)),
        # balanced leaves the LP rejects
        ("LP_REJECTS_10/balanced", _recognition(LP_REJECTS_10, BALANCED, 10**5)),
        ("K4,4/circular-arc", _recognition(complete_bipartite(4, 4), CIRCULAR_ARC, 10**7)),
        ("petersen/circular-arc", _recognition(petersen(), CIRCULAR_ARC, 10**7)),
        # about half of its entered nodes have a cut arc's suffix pinned;
        # petersen's have none
        ("co-C8/circular-arc", _recognition(complement(cycle(8)), CIRCULAR_ARC, 10**7)),
        ("K4,4-e xx(2) enumeration 10^5", _enumeration(k44_minus_e(), XX(2), 10**5)),
        ("K4,4-e xx(2) enumeration (C2 audit)", _enumeration(k44_minus_e(), XX(2), 10**8)),
        # the same leaves, each checked for holes: the leaf kernel
        ("K4,4-e xx(2) enumeration + contiguity (C2 audit)",
         _enumeration(k44_minus_e(), XX(2), 10**8, contiguity)),
        # long words: the leaf certificates weigh here
        ("path(300)/interval", _recognition(path(300), INTERVAL_CLASS, 10**7)),
        ("path(300)/unit-interval", _recognition(path(300), UNIT_INTERVAL, 10**7)),
        ("path(60)/unit", _recognition(path(60), UNIT, 10**7)),
        # non-FIFO opens of a vertex's second slot
        ("path(300)/2interval", _recognition(path(300), TWO_INTERVAL, 10**7)),
        ("prism(30) witness build", _prism_witness_build()),
        ("prism(30) witness intersection_graph", _prism_witness_graph()),
        ("prism(30) witness masks: 4-simplicial, K1,5, HC", _mask_solvers()),
        ("cycle(41) 3-coloring <-> all-3-simplicial", _coloring_roundtrip()),
        ("proper circular-arc -> unit (100 closed models)", _proper_arc_units()),
        ("unit -> (2n,2n) (100 unit models)", _unit_integer_xx()),
        ("(x,x) -> (x+1,x+1) (100 (2n,2n) models)", _integer_xx_stretch()),
    )


def count_opcodes(call):
    """Run `call()` with opcode tracing on; return (opcodes, its result)."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(enter)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return count, result


def main() -> int:
    for name, call in searches():
        opcodes, answer = count_opcodes(call)
        print(f"{name:48s} {opcodes:>12,d}  {answer}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
