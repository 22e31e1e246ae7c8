"""File formats, exporters, and the `tik` command-line interface.

Exit codes: 0 yes/valid, 1 no/invalid, 2 inconclusive (budget), 3 usage,
input or internal error.  Results go to stdout, diagnostics to stderr,
and identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import gadgets, graphs, model, recognize, reductions, simplicial, transforms
from .graphs import Graph, GraphError
from .model import (
    Arc,
    CircularArcRep,
    FamilySelector,
    Interval,
    ModelError,
    Representation,
    q,
    q_str,
    two_interval,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3


class FormatError(ValueError):
    pass


# --- graph parsing -------------------------------------------------------------


def parse_graph(source: str) -> Graph:
    """Parse an edge list from a file path, or from literal text when the
    string does not name a file."""
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    return graphs.from_edge_list(text)


# --- representation JSON ---------------------------------------------------------


def _interval_to_json(iv: Interval) -> dict:
    return {
        "lo": q_str(iv.lo),
        "hi": q_str(iv.hi),
        "lo_closed": iv.lo_closed,
        "hi_closed": iv.hi_closed,
    }


def _interval_from_json(obj, where: str) -> Interval:
    try:
        return Interval(
            q(obj["lo"]), q(obj["hi"]),
            bool(obj["lo_closed"]), bool(obj["hi_closed"]),
        )
    except (KeyError, TypeError, ModelError) as exc:
        raise FormatError(f"bad interval at {where}: {exc}") from None


def representation_to_json(rep: Representation) -> dict:
    return {
        "vertices": {
            v: {
                "left": _interval_to_json(rep[v].left),
                "right": _interval_to_json(rep[v].right),
            }
            for v in rep.labels()
        }
    }


def circular_to_json(ca: CircularArcRep) -> dict:
    return {
        "circumference": q_str(ca.circumference),
        "arcs": {
            v: {
                "start": q_str(ca[v].start),
                "end": q_str(ca[v].end),
                "start_closed": ca[v].start_closed,
                "end_closed": ca[v].end_closed,
            }
            for v in ca.labels()
        },
    }


def parse_representation(text: str):
    """Parse a Representation or CircularArcRep from JSON text.  Text that
    names a file is still text, so a file holding a path is not JSON."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON value must be an object")
    if "circumference" in obj:
        try:
            arcs = {
                v: Arc(
                    q(a["start"]), q(a["end"]),
                    bool(a.get("start_closed", True)),
                    bool(a.get("end_closed", True)),
                )
                for v, a in obj["arcs"].items()
            }
            return CircularArcRep(q(obj["circumference"]), arcs)
        except (KeyError, TypeError, AttributeError, ModelError) as exc:
            raise FormatError(f"bad circular-arc JSON: {exc}") from None
    if "vertices" not in obj or not isinstance(obj["vertices"], dict):
        raise FormatError("missing /vertices object")
    items = {}
    for v, pair in obj["vertices"].items():
        if not isinstance(pair, dict) or "left" not in pair or "right" not in pair:
            raise FormatError(f"/vertices/{v} must have left and right")
        try:
            items[v] = two_interval(
                _interval_from_json(pair["left"], f"/vertices/{v}/left"),
                _interval_from_json(pair["right"], f"/vertices/{v}/right"),
            )
        except ModelError as exc:
            raise FormatError(f"/vertices/{v}: {exc}") from None
    return Representation(items)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- exporters -------------------------------------------------------------------


def _dot_id(v) -> str:
    # a label as a quoted DOT ID, where a backslash and a quote are escaped
    return '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'


# characters XML 1.0 cannot carry, escaped or not: controls other than tab,
# newline and carriage return, surrogates, U+FFFE and U+FFFF
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _xml_text(v) -> str:
    # a label as XML character data (xml.sax.saxutils would import urllib)
    text = str(v)
    bad = _NOT_XML.search(text)
    if bad:
        raise FormatError(
            f"label {text!r} holds {bad.group()!r}, which XML cannot carry"
        )
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_dot(g: Graph) -> str:
    lines = ["graph {"]
    for v in g.sorted_vertices():
        lines.append(f"  {_dot_id(v)};")
    for u, v in g.sorted_edges():
        lines.append(f"  {_dot_id(u)} -- {_dot_id(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_svg(rep: Representation) -> str:
    """Rows of horizontal bars, one row per vertex, two bars per vertex,
    axis to scale."""
    row_h, bar_h, pad, width = 22, 10, 40, 900
    labels = rep.labels()
    if not labels:
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="60">',
            f'<line x1="{pad}" y1="30" x2="{width - pad}" y2="30" '
            'stroke="black" stroke-width="1"/>',
            "</svg>",
        ]
        return "\n".join(parts) + "\n"
    span = rep.span()
    lo, hi = span.lo, span.hi
    extent = hi - lo if hi > lo else q(1)
    scale = Fraction(width - 2 * pad, 1) / extent

    def sx(value) -> str:
        return f"{float(pad + scale * (value - lo)):.2f}"

    height = row_h * len(labels) + 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]
    axis_y = height - 20
    parts.append(
        f'<line x1="{pad}" y1="{axis_y}" x2="{width - pad}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for i, v in enumerate(labels):
        y = 10 + i * row_h
        parts.append(
            f'<text x="4" y="{y + bar_h - 1}" font-size="10" '
            f'font-family="monospace">{_xml_text(v)}</text>'
        )
        for iv in rep[v].parts():
            x1, x2 = sx(iv.lo), sx(iv.hi)
            bar_w = max(float(x2) - float(x1), 1.0)
            parts.append(
                f'<rect x="{x1}" y="{y}" width="{bar_w:.2f}" height="{bar_h}" '
                'fill="steelblue"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- CLI ---------------------------------------------------------------------------


_FAMILIES = [
    "2interval", "balanced", "unit", "xx",
    "interval", "unit-interval", "circular-arc",
]


def _family_from_args(args) -> FamilySelector:
    if args.family == "xx":
        if args.x is None:
            raise FormatError("family xx needs --x")
        return model.XX(args.x)
    if args.x is not None:
        raise FormatError("--x only applies to family xx")
    return FamilySelector(args.family)


def _budget_from_args(args) -> recognize.Budget:
    if args.budget is not None:
        return recognize.Budget(args.budget)
    return recognize.default_budget()


def _gen_graph(args) -> Graph:
    kind = args.kind
    if kind == "k53":
        return gadgets.k53()
    if kind == "k44e":
        return gadgets.k44_minus_e()
    if kind == "domino":
        return graphs.domino()
    if kind == "petersen":
        return graphs.petersen()
    if kind == "unbalanced-chain":
        return gadgets.unbalanced_chain()
    if kind == "c4-anchored":
        return gadgets.c4_anchored()
    if kind in ("cycle", "path", "wheel"):
        if args.n is None:
            raise FormatError(f"{kind} needs --n")
        return graphs.named_graph(kind, args.n)
    if kind == "kneser":
        if args.n is None or args.k is None:
            raise FormatError("kneser needs --n and --k")
        return graphs.kneser(args.n, args.k)
    if kind == "complete-bipartite":
        if args.m is None or args.n is None:
            raise FormatError("complete-bipartite needs --m and --n")
        return graphs.complete_bipartite(args.m, args.n)
    if kind == "xx-separator":
        if args.x is None:
            raise FormatError("xx-separator needs --x")
        return gadgets.xx_separator(args.x).graph
    raise FormatError(f"unknown generator {kind!r}")


def _read_input(path: str) -> str:
    """The text of a positional input, which must name a file, so that a
    mistyped path is an error and not a one-vertex graph.  Graph text goes
    to the text-only parser: text that names a file is still text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}") from None


def _cmd_gen(args, out, err) -> int:
    g = _gen_graph(args)
    if args.format == "dot":
        out.write(emit_dot(g))
    elif args.format == "json":
        out.write(dump_json({
            "vertices": g.sorted_vertices(),
            "edges": [[u, v] for u, v in g.sorted_edges()],
        }))
    else:
        out.write(graphs.to_edge_list(g))
    return EXIT_YES


def _cmd_realize(args, out, err) -> int:
    kind = args.kind
    if kind == "k53":
        rep = gadgets.k53_balanced_realization()
    elif kind == "k44e":
        rep = gadgets.k44e_22_realization()
    elif kind == "unbalanced-chain":
        rep = gadgets.unbalanced_chain_realization()
    elif kind == "xx-separator":
        if args.x is None:
            raise FormatError("xx-separator needs --x")
        rep = gadgets.xx_separator_realization(args.x)
    else:
        raise FormatError(f"unknown fixture {kind!r}")
    out.write(dump_json(representation_to_json(rep)))
    return EXIT_YES


def _cmd_verify(args, out, err) -> int:
    rep = parse_representation(_read_input(args.input))
    family = _family_from_args(args)
    verdict = model.family_check(rep, family)
    if verdict.ok:
        out.write("pass\n")
        return EXIT_YES
    out.write(f"fail: {verdict.reason}\n")
    return EXIT_NO


def _cmd_recognize(args, out, err) -> int:
    g = graphs.from_edge_list(_read_input(args.input))
    family = _family_from_args(args)
    budget = _budget_from_args(args)
    outcome = recognize.recognize(g, family, budget)
    if outcome.is_member():
        out.write(f"member nodes={outcome.nodes_used}\n")
        if args.emit:
            cert = outcome.certificate
            payload = (
                circular_to_json(cert)
                if isinstance(cert, CircularArcRep)
                else representation_to_json(cert)
            )
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(dump_json(payload))
        return EXIT_YES
    if outcome.is_nonmember():
        out.write(f"nonmember nodes={outcome.nodes_used}\n")
        return EXIT_NO
    out.write(f"inconclusive nodes={outcome.nodes_used}\n")
    return EXIT_INCONCLUSIVE


def _cmd_transform(args, out, err) -> int:
    rep = parse_representation(_read_input(args.input))
    op = args.op
    if op in ("ca-to-balanced", "ca-to-unit"):
        if not isinstance(rep, CircularArcRep):
            raise FormatError(f"{op} expects a circular-arc JSON input")
        cut = q(args.cut) if args.cut is not None else transforms.generic_cut_point(rep)
        if op == "ca-to-balanced":
            result = transforms.balanced_from_circular_arc(rep, cut)
        else:
            result = transforms.unit_from_proper_circular_arc(rep, cut)
    elif op == "stretch":
        result = transforms.stretch(rep)
    elif op == "dilate":
        if args.factor is None:
            raise FormatError("dilate needs --factor")
        result = model.affine(rep, q(args.factor), q(args.shift or 0))
    elif op == "unit-to-xx":
        result = transforms.unit_rep_to_integer_xx(rep)
    else:
        raise FormatError(f"unknown transform {op!r}")
    out.write(dump_json(representation_to_json(result)))
    return EXIT_YES


def _cmd_reduce(args, out, err) -> int:
    g = graphs.from_edge_list(_read_input(args.input))
    if args.op == "hc-balanced":
        inst = reductions.hc_to_balanced_instance(g)
        out.write(graphs.to_edge_list(inst.graph))
        if args.cycle:
            cycle = args.cycle.split(",")
            rep = reductions.ham_cycle_realization(inst, cycle)
            span = rep.span()
            claimed = 13273 + 241 * inst.n
            err.write(
                f"realization span {q_str(span.length)} "
                f"(reference aggregate {claimed})\n"
            )
            if args.emit:
                with open(args.emit, "w", encoding="utf-8") as fh:
                    fh.write(dump_json(representation_to_json(rep)))
        return EXIT_YES
    if args.op == "coloring-simplicial":
        if args.k is None:
            raise FormatError("coloring-simplicial needs --k")
        out.write(graphs.to_edge_list(
            reductions.coloring_to_simplicial_instance(g, args.k)
        ))
        return EXIT_YES
    raise FormatError(f"unknown reduction {args.op!r}")


def _cmd_check(args, out, err) -> int:
    g = graphs.from_edge_list(_read_input(args.input))
    if args.op == "all-k-simplicial":
        if args.k is None:
            raise FormatError("all-k-simplicial needs --k")
        witness = simplicial.all_k_simplicial(g, args.k)
        out.write("yes\n" if witness else "no\n")
        return EXIT_YES if witness else EXIT_NO
    if args.op == "k1t-free":
        if args.t is None:
            raise FormatError("k1t-free needs --t")
        ok = simplicial.k1t_free(g, args.t)
        out.write("yes\n" if ok else "no\n")
        return EXIT_YES if ok else EXIT_NO
    if args.op == "k-colorable":
        if args.k is None:
            raise FormatError("k-colorable needs --k")
        coloring = graphs.k_colorable(g, args.k)
        out.write("yes\n" if coloring else "no\n")
        return EXIT_YES if coloring else EXIT_NO
    raise FormatError(f"unknown check {args.op!r}")


def _cmd_render(args, out, err) -> int:
    if args.what == "dot":
        out.write(emit_dot(graphs.from_edge_list(_read_input(args.input))))
        return EXIT_YES
    if args.what == "svg":
        rep = parse_representation(_read_input(args.input))
        if isinstance(rep, CircularArcRep):
            raise FormatError("svg rendering expects a 2-interval representation")
        out.write(emit_svg(rep))
        return EXIT_YES
    raise FormatError(f"unknown render target {args.what!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tik", description="exact 2-interval graph toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named graph")
    p.add_argument("kind", choices=[
        "k53", "k44e", "cycle", "path", "wheel", "domino", "kneser",
        "complete-bipartite", "petersen", "unbalanced-chain", "c4-anchored",
        "xx-separator",
    ])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--format", choices=["edges", "dot", "json"], default="edges")

    p = sub.add_parser("realize", help="emit a fixture realization as JSON")
    p.add_argument("kind", choices=[
        "k53", "k44e", "unbalanced-chain", "xx-separator",
    ])
    p.add_argument("--x", type=int)

    p = sub.add_parser("verify", help="check a representation against a family")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--x", type=int)
    p.add_argument("input")

    p = sub.add_parser("recognize", help="budgeted exact membership search")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--emit", help="write the certificate JSON here")
    p.add_argument("input")

    p = sub.add_parser("transform", help="class transformations")
    p.add_argument("op", choices=[
        "ca-to-balanced", "ca-to-unit", "stretch", "dilate", "unit-to-xx",
    ])
    p.add_argument("--cut", help="cut point for the circular transforms")
    p.add_argument("--factor", help="dilation factor p/q")
    p.add_argument("--shift", help="dilation shift p/q")
    p.add_argument("input")

    p = sub.add_parser("reduce", help="hardness reduction instances")
    p.add_argument("op", choices=["hc-balanced", "coloring-simplicial"])
    p.add_argument("--k", type=int)
    p.add_argument("--cycle", help="comma-separated Hamiltonian cycle")
    p.add_argument("--emit", help="write the witness realization JSON here")
    p.add_argument("input")

    p = sub.add_parser("check", help="exact graph-class checks")
    p.add_argument("op", choices=["all-k-simplicial", "k1t-free", "k-colorable"])
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("input")

    p = sub.add_parser("render", help="export DOT or SVG")
    p.add_argument("what", choices=["dot", "svg"])
    p.add_argument("input")

    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "realize": _cmd_realize,
    "verify": _cmd_verify,
    "recognize": _cmd_recognize,
    "transform": _cmd_transform,
    "reduce": _cmd_reduce,
    "check": _cmd_check,
    "render": _cmd_render,
}


def cli_main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_YES
    try:
        return _COMMANDS[args.command](args, out, err)
    except (FormatError, GraphError, ModelError, ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_ERROR
    except Exception as exc:  # a crash must never read as a verdict
        err.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


def main() -> None:
    raise SystemExit(cli_main())
