"""Small-graph census: how many recognitions each family leaves undecided.

Runs `recognize` in every family on one graph per isomorphism class with
1..N vertices (`nonisomorphic_graphs` from tests/conftest.py, labelled
v0..v{n-1}) at one node budget, and prints per family the member,
nonmember and undecided counts, the nodes spent and the CPU time.

    PYTHONPATH=src python3 tools/census.py --max-n 7 --budget 100000

With --digest it prints instead one sha256 over every search's graph,
family, verdict, node count and certificate (as tik's JSON), so two
versions of tik that answer alike give the same line:

    PYTHONPATH=src python3 tools/census.py --max-n 6 --digest

and a second sha256 over searches that line does not reach: every
`enumerate_realizations` as xx(1) and xx(2) on at most 4 vertices and as
2interval on at most 3 (count, nodes and each visited certificate in
order), and the answer at every budget from 1 to 399 of domino/xx(2),
wheel(7)/unit, path(60)/interval and K2,3/circular-arc, and of the
2interval enumeration of C4, whose count at a cut shows the order in
which a search charges the nodes it drops.  A third sha256 covers the
answers at the budgets 1, 998, ..., 99,701 (1 to 10^5 in steps of 997)
of longer searches that meet the same state again: wheel(7)/unit,
wheel(9)/unit, xx_separator(2)/xx(2), tikbench's fixed/2interval/n12/0
as 2interval and as balanced, and the xx(2) enumeration of K4,4 - e
(its count included).  To compare
with another version, point PYTHONPATH at its `src`.

Seven vertices means 1,252 graphs; generating them alone takes about 20 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "tikbench"))

import corpus  # noqa: E402
from conftest import nonisomorphic_graphs  # noqa: E402
from tik.gadgets import k44_minus_e, xx_separator  # noqa: E402
from tik.graphs import complete_bipartite, cycle, domino, path, wheel  # noqa: E402
from tik.io_cli import rep_to_json  # noqa: E402
from tik.model import (  # noqa: E402
    BALANCED,
    CIRCULAR_ARC,
    INTERVAL_CLASS,
    TWO_INTERVAL,
    UNIT,
    UNIT_INTERVAL,
    XX,
)
from tik.recognize import Budget, enumerate_realizations, recognize  # noqa: E402

FAMILIES = (XX(1), XX(2), UNIT, BALANCED, TWO_INTERVAL,
            UNIT_INTERVAL, INTERVAL_CLASS, CIRCULAR_ARC)


ENUMERATIONS = ((XX(1), 4), (XX(2), 4), (TWO_INTERVAL, 3))  # family, max vertices
BUDGET_LADDER = 400  # budgets 1 .. BUDGET_LADDER - 1
LONG_LADDER = range(1, 10**5 + 1, 997)


def _ladder_cases():
    # (graph, family, enumerate instead of recognize)
    return ((domino(), XX(2), False), (wheel(7), UNIT, False),
            (path(60), INTERVAL_CLASS, False),
            (complete_bipartite(2, 3), CIRCULAR_ARC, False),
            (cycle(4), TWO_INTERVAL, True))


def _fixed_2interval_n12():
    # tikbench exhaustive-search's fixed/2interval/n12/0: the third draw of
    # its fixed stream, after two on 10 vertices
    rng = random.Random("exhaustive-search:fixed")
    for n in (10, 10, 12):
        pieces = corpus.rand_two_interval(rng, n)
    return corpus.graph_of(pieces)


def _long_ladder_cases():
    return ((wheel(7), UNIT, False), (wheel(9), UNIT, False),
            (xx_separator(2).graph, XX(2), False),
            (_fixed_2interval_n12(), TWO_INTERVAL, False),
            (_fixed_2interval_n12(), BALANCED, False),
            (k44_minus_e(), XX(2), True))


def _cert_json(cert):
    return None if cert is None else rep_to_json(cert)


def _line(row) -> bytes:
    return json.dumps(row, sort_keys=True).encode() + b"\n"


def _record(g, family, out) -> bytes:
    return _line([sorted(g.edges), g.n, str(family), out.kind, out.nodes_used,
                  _cert_json(out.certificate)])


def digest(graphs, budget) -> str:
    h = hashlib.sha256()
    for family in FAMILIES:
        for g in graphs:
            h.update(_record(g, family, recognize(g, family, budget)))
    return h.hexdigest()


def search_digest(graphs) -> str:
    """One sha256 over the enumerations and budget ladders named in the
    module docstring, from `graphs` (all of them on 1..4 vertices)."""
    h = hashlib.sha256()
    for family, max_n in ENUMERATIONS:
        for g in graphs:
            if g.n > max_n:
                continue
            h.update(_line([sorted(g.edges), g.n, str(family)]))
            out = enumerate_realizations(
                g, family, Budget(10**7),
                lambda rep: h.update(_line(_cert_json(rep))))
            h.update(_line([out.complete, out.count, out.nodes_used]))
    _ladders(h, _ladder_cases(), range(1, BUDGET_LADDER))
    return h.hexdigest()


def long_ladder_digest() -> str:
    """One sha256 over the answers at every budget of LONG_LADDER on the
    searches named in the module docstring."""
    h = hashlib.sha256()
    _ladders(h, _long_ladder_cases(), LONG_LADDER)
    return h.hexdigest()


def _ladders(h, cases, budgets):
    for g, family, enumerates in cases:
        for b in budgets:
            if enumerates:
                out = enumerate_realizations(g, family, Budget(b), lambda rep: None)
                h.update(_line([sorted(g.edges), g.n, str(family), out.complete,
                                out.count, out.nodes_used]))
            else:
                h.update(_record(g, family, recognize(g, family, Budget(b))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--budget", type=int, default=10**5)
    parser.add_argument("--digest", action="store_true",
                        help="print one sha256 over every answer instead of the table")
    args = parser.parse_args(argv)

    graphs = [g for n in range(1, args.max_n + 1) for g in nonisomorphic_graphs(n)]
    budget = Budget(args.budget)
    if args.digest:
        print(f"{digest(graphs, budget)}  {len(graphs)} graphs x {len(FAMILIES)} "
              f"families on 1..{args.max_n} vertices, budget {args.budget}")
        small = [g for n in range(1, 5) for g in nonisomorphic_graphs(n)]
        print(f"{search_digest(small)}  enumerations on 1..4 vertices, "
              f"budgets 1..{BUDGET_LADDER - 1} on {len(_ladder_cases())} searches",
              flush=True)
        print(f"{long_ladder_digest()}  budgets {LONG_LADDER.start}..{LONG_LADDER[-1]} "
              f"step {LONG_LADDER.step} on {len(_long_ladder_cases())} searches", flush=True)
        return 0
    print(f"{len(graphs)} graphs on 1..{args.max_n} vertices, budget {args.budget}")
    print(f"{'family':<14}{'member':>8}{'nonmember':>11}{'undecided':>11}"
          f"{'nodes':>13}{'cpu_s':>9}")
    for family in FAMILIES:
        kinds = {"member": 0, "nonmember": 0, "inconclusive": 0}
        nodes = 0
        t = time.process_time()
        for g in graphs:
            out = recognize(g, family, budget)
            kinds[out.kind] += 1
            nodes += out.nodes_used
        cpu = time.process_time() - t
        print(f"{str(family):<14}{kinds['member']:>8}{kinds['nonmember']:>11}"
              f"{kinds['inconclusive']:>11}{nodes:>13,}{cpu:>9.1f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
