"""Opcode counts of a fixed list of searches, a work measure that does not
vary from run to run.

Runs each search below under `sys.settrace` with `f_trace_opcodes` set on
every frame and prints the number of bytecode instructions the
interpreter executed for it, with the search's answer and node count:

    PYTHONPATH=src python3 tools/bytecodes.py

Wall time of the same code can swing by 10 to 20% between runs on a
busy machine; these counts repeat exactly for one tik and one CPython
version, so two versions of the search loop compare by them.  To count
another version, point PYTHONPATH at its `src`.  The counts include
the work a search hands to other modules (its set-up, certificates) but
not the time spent inside C functions, so they size interpreter work,
not wall time.  All nine searches take about 20 s traced.
"""

from __future__ import annotations

import sys

from tik.gadgets import k44_minus_e, xx_separator
from tik.graphs import complete_bipartite, path, wheel
from tik.model import CIRCULAR_ARC, INTERVAL_CLASS, UNIT, UNIT_INTERVAL, XX
from tik.recognize import Budget, enumerate_realizations, recognize


def _recognition(g, family, budget):
    def call():
        out = recognize(g, family, Budget(budget))
        return f"{out.kind} nodes={out.nodes_used}"
    return call


def _enumeration(g, family, budget):
    def call():
        out = enumerate_realizations(g, family, Budget(budget), lambda rep: None)
        return f"complete={out.complete} count={out.count} nodes={out.nodes_used}"
    return call


def searches():
    """(name, call) pairs; each call runs one search and describes its
    answer."""
    return (
        ("wheel(7)/unit 10^5", _recognition(wheel(7), UNIT, 10**5)),
        ("wheel(9)/unit 10^5", _recognition(wheel(9), UNIT, 10**5)),
        ("xx_separator(2)/xx(2) 10^4",
         _recognition(xx_separator(2).graph, XX(2), 10**4)),
        ("K4,4/circular-arc", _recognition(complete_bipartite(4, 4), CIRCULAR_ARC, 10**7)),
        ("K4,4-e xx(2) enumeration 10^5", _enumeration(k44_minus_e(), XX(2), 10**5)),
        ("K4,4-e xx(2) enumeration (C2 audit)", _enumeration(k44_minus_e(), XX(2), 10**8)),
        # long words: the leaf certificates weigh here
        ("path(300)/interval", _recognition(path(300), INTERVAL_CLASS, 10**7)),
        ("path(300)/unit-interval", _recognition(path(300), UNIT_INTERVAL, 10**7)),
        ("path(60)/unit", _recognition(path(60), UNIT, 10**7)),
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
        print(f"{name:40s} {opcodes:>12,d}  {answer}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
