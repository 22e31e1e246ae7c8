"""The traced benchmark run (tikbench/spans.py) wraps tik functions by
name and reads their arguments; these checks make a rename or a changed
call fail here rather than in `tikbench/run.py --trace 1`."""

import importlib
import pathlib
import types

from tik import lp
from tik.recognize import CLOSE, OPEN, order_feasible

SPANS = pathlib.Path(__file__).resolve().parents[1] / "tikbench" / "spans.py"


def _spans():
    # executed from its source text, so no bytecode is written next to it
    mod = types.ModuleType("tikbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), mod.__dict__)
    return mod


def test_span_targets_exist():
    for mod_name, funcs in _spans().TARGETS.items():
        mod = importlib.import_module(f"tik.{mod_name}")
        for fn_name in funcs:
            assert callable(getattr(mod, fn_name, None)), f"tik.{mod_name}.{fn_name}"


def test_order_feasible_calls_solve_lp_positionally(monkeypatch):
    calls = []
    real = lp.solve_lp

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(lp, "solve_lp", spy)
    word = [(("v", 0), OPEN), (("v", 0), CLOSE), (("v", 1), OPEN), (("v", 1), CLOSE)]
    assert order_feasible(word) is not None
    [(args, kwargs, result)] = calls
    assert len(args) == 5 and not kwargs
    # one balance row over the three gaps
    assert _spans()._info("lp.solve_lp", args, result) == {"rows": 1, "cols": 3}


def test_solve_lp_info_on_an_infeasible_word(monkeypatch):
    # the k = 2 chain of strict containments: (0, 0) contains (1, 0) and
    # (1, 1) contains (0, 1), so equal halves would need |(0, 0)| >
    # |(1, 0)| = |(1, 1)| > |(0, 1)| = |(0, 0)|; the LP returns None, and
    # its span still reads two balance rows over the seven gaps
    calls = []
    real = lp.solve_lp

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(lp, "solve_lp", spy)
    word = [((0, 0), OPEN), ((1, 0), OPEN), ((1, 0), CLOSE), ((0, 0), CLOSE),
            ((1, 1), OPEN), ((0, 1), OPEN), ((0, 1), CLOSE), ((1, 1), CLOSE)]
    assert order_feasible(word) is None
    [(args, result)] = calls
    assert result is None
    assert _spans()._info("lp.solve_lp", args, result) == {"rows": 2, "cols": 7}
