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
which a search charges the nodes it drops.  To compare with another
version, point PYTHONPATH at its `src`.

Seven vertices means 1,252 graphs; generating them alone takes about 20 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import nonisomorphic_graphs  # noqa: E402
from tik.graphs import complete_bipartite, cycle, domino, path, wheel  # noqa: E402
from tik.io_cli import circular_to_json, representation_to_json  # noqa: E402
from tik.model import (  # noqa: E402
    BALANCED,
    CIRCULAR_ARC,
    CircularArcRep,
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


def _ladder_cases():
    # (graph, family, enumerate instead of recognize)
    return ((domino(), XX(2), False), (wheel(7), UNIT, False),
            (path(60), INTERVAL_CLASS, False),
            (complete_bipartite(2, 3), CIRCULAR_ARC, False),
            (cycle(4), TWO_INTERVAL, True))


def _cert_json(cert):
    if isinstance(cert, CircularArcRep):
        return circular_to_json(cert)
    return None if cert is None else representation_to_json(cert)


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
    for g, family, enumerates in _ladder_cases():
        for b in range(1, BUDGET_LADDER):
            if enumerates:
                out = enumerate_realizations(g, family, Budget(b), lambda rep: None)
                h.update(_line([sorted(g.edges), g.n, str(family), out.complete,
                                out.count, out.nodes_used]))
            else:
                h.update(_record(g, family, recognize(g, family, Budget(b))))
    return h.hexdigest()


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
