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
from tik.recognize import Budget, recognize  # noqa: E402

FAMILIES = (XX(1), XX(2), UNIT, BALANCED, TWO_INTERVAL,
            UNIT_INTERVAL, INTERVAL_CLASS, CIRCULAR_ARC)


def _record(g, family, out) -> bytes:
    cert = out.certificate
    if isinstance(cert, CircularArcRep):
        cert = circular_to_json(cert)
    elif cert is not None:
        cert = representation_to_json(cert)
    row = [sorted(g.edges), g.n, str(family), out.kind, out.nodes_used, cert]
    return json.dumps(row, sort_keys=True).encode() + b"\n"


def digest(graphs, budget) -> str:
    h = hashlib.sha256()
    for family in FAMILIES:
        for g in graphs:
            h.update(_record(g, family, recognize(g, family, budget)))
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
