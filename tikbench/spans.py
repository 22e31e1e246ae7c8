"""Spans for the traced run, recorded from outside tik.

``Tracer.install`` wraps the public functions in ``TARGETS`` at every tik
module attribute that holds them (``tik.recognize.order_feasible`` as well
as ``tik.lp.solve_lp``, ``tik.transforms.family_check`` as well as
``tik.model.family_check``), so calls tik makes internally are seen too.
Spans are kept in memory and only inside an op; ``per_layer`` derives the
per-layer metrics from them.
"""

from __future__ import annotations

import functools
import json
import sys

TARGETS = {
    "recognize": ("recognize", "enumerate_realizations", "order_feasible"),
    "lp": ("solve_lp",),
    "model": ("family_check", "intersection_graph", "circular_intersection_graph"),
    "transforms": ("balanced_from_circular_arc", "unit_from_proper_circular_arc",
                   "stretch", "unit_rep_to_integer_xx", "proper_to_unit_interval"),
    "io_cli": ("cli_main", "parse_graph", "parse_representation", "dump_json"),
    "reductions": ("ham_cycle_realization", "find_hamiltonian_cycle", "witness_roundtrip"),
    "gadgets": ("hamiltonicity_expansion",),
    "simplicial": ("all_k_simplicial", "k1t_free"),
    "graphs": ("k_colorable",),
}

# name -> unit, in report order; BENCHMARK.json lists the same names
PER_LAYER = {
    "recognize.recognize.calls": "count",
    "recognize.recognize.s": "s",
    "recognize.enumerate_realizations.s": "s",
    "recognize.search.self_s": "s",
    "recognize.share": "ratio",
    "recognize.nodes": "count",
    "recognize.nodes_per_s": "1/s",
    "recognize.inconclusive": "count",
    "recognize.errors": "count",
    "recognize.order_feasible.calls": "count",
    "recognize.order_feasible.self_s": "s",
    "recognize.order_feasible.accept_ratio": "ratio",
    "lp.solve_lp.calls": "count",
    "lp.solve_lp.s": "s",
    "lp.solve_lp.rows_mean": "count",
    "lp.solve_lp.cols_mean": "count",
    "lp.solve_lp.share": "ratio",
    "model.family_check.calls": "count",
    "model.family_check.s": "s",
    "model.intersection_graph.calls": "count",
    "model.intersection_graph.s": "s",
    "model.circular_intersection_graph.s": "s",
    "transforms.balanced_from_circular_arc.s": "s",
    "transforms.unit_from_proper_circular_arc.s": "s",
    "transforms.stretch.s": "s",
    "transforms.unit_rep_to_integer_xx.s": "s",
    "transforms.proper_to_unit_interval.calls": "count",
    "transforms.proper_to_unit_interval.s": "s",
    "io_cli.cli_main.calls": "count",
    "io_cli.cli_main.s": "s",
    "io_cli.parse_graph.s": "s",
    "io_cli.parse_representation.s": "s",
    "io_cli.dump_json.s": "s",
    "io_cli.bytes_out": "bytes",
    "reductions.ham_cycle_realization.s": "s",
    "reductions.find_hamiltonian_cycle.s": "s",
    "reductions.witness_roundtrip.s": "s",
    "gadgets.hamiltonicity_expansion.s": "s",
    "simplicial.all_k_simplicial.s": "s",
    "simplicial.k1t_free.s": "s",
    "graphs.k_colorable.s": "s",
    "trace.ops_s": "s",
    "trace.untraced_ops_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _info(name, args, result):
    """The counts a span keeps besides its times."""
    if name == "lp.solve_lp":
        c, a_ub, _, a_eq, _ = args
        return {"rows": len(a_ub) + len(a_eq), "cols": len(c)}
    if name == "recognize.order_feasible":
        return {"accepted": result is not None}
    if name == "recognize.recognize":
        return {"nodes": result.nodes_used, "kind": result.kind}
    if name == "recognize.enumerate_realizations":
        return {"nodes": result.nodes_used}
    if name == "io_cli.dump_json":
        return {"bytes": len(result.encode("utf-8"))}
    return None


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # CPU seconds, the benchmark's own calibration excluded
        self.spans = []  # [name, start, end, parent index, op id, info]
        self.stack = []
        self.op = None  # spans are recorded only while an op runs
        self._installed = []  # (module, attribute, original)

    def install(self):
        tik_modules = [m for k, m in sorted(sys.modules.items())
                       if m is not None and (k == "tik" or k.startswith("tik."))]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[f"tik.{mod_name}"]
            for fn_name in funcs:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in tik_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, self.clock(), None, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[5] = _info(name, args, result)
                return result
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = self.clock()
                stack.pop()

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")

    def per_layer(self, traced_cpu, traced_s, untraced_s) -> dict:
        """Per-layer metrics: seconds and shares in CPU seconds of the traced
        round (``traced_cpu`` inside its ops); the overhead compares the
        rounds' reference seconds inside ops, ``traced_s`` and
        ``untraced_s``."""
        total, self_s, calls = {}, {}, {}
        for name, start, end, parent, _, _ in self.spans:
            d = end - start
            total[name] = total.get(name, 0.0) + d
            self_s[name] = self_s.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - d

        def info_of(name):
            return [s[5] for s in self.spans if s[0] == name and s[5] is not None]

        lp = info_of("lp.solve_lp")
        feas = info_of("recognize.order_feasible")
        searches = info_of("recognize.recognize") + info_of("recognize.enumerate_realizations")
        search_s = total.get("recognize.recognize", 0.0) + total.get(
            "recognize.enumerate_realizations", 0.0)
        nodes = sum(i.get("nodes", 0) for i in searches)

        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0

        out = {}
        for metric in PER_LAYER:
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(base, 0)
            elif stat == "s":
                out[metric] = total.get(base, 0.0)
        out.update({
            "recognize.search.self_s": search_s - total.get("recognize.order_feasible", 0.0),
            "recognize.share": search_s / traced_cpu,
            "recognize.nodes": nodes,
            "recognize.nodes_per_s": nodes / search_s if search_s else 0.0,
            "recognize.inconclusive": sum(1 for i in searches if i.get("kind") == "inconclusive"),
            "recognize.errors": sum(1 for i in searches if "error" in i),
            "recognize.order_feasible.self_s": self_s.get("recognize.order_feasible", 0.0),
            "recognize.order_feasible.accept_ratio": mean([i["accepted"] for i in feas]),
            "lp.solve_lp.rows_mean": mean([i["rows"] for i in lp]),
            "lp.solve_lp.cols_mean": mean([i["cols"] for i in lp]),
            "lp.solve_lp.share": total.get("lp.solve_lp", 0.0) / traced_cpu,
            "io_cli.bytes_out": sum(i["bytes"] for i in info_of("io_cli.dump_json")),
            "trace.ops_s": traced_s,
            "trace.untraced_ops_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.spans": len(self.spans),
        })
        return out
