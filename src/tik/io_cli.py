"""File formats, exporters, and the `tik` command-line interface.

Exit codes: 0 yes/valid, 1 no/invalid, 2 inconclusive (budget), 3 usage,
input or internal error.  Results go to stdout, diagnostics to stderr,
and identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction

from . import gadgets, graphs, model, recognize, reductions, simplicial, transforms
from .graphs import Graph
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


def parse_graph(text: str) -> Graph:
    """Parse a Graph from edge-list text.  Text that names a file is still
    text: the one-vertex graph of that label, not the file's graph."""
    return graphs.from_edge_list(text)


# --- representation JSON ---------------------------------------------------------


def _interval_to_json(iv: Interval) -> dict:
    return {
        "lo": q_str(iv.lo),
        "hi": q_str(iv.hi),
        "lo_closed": iv.lo_closed,
        "hi_closed": iv.hi_closed,
    }


def _flag(obj, key, default=None) -> bool:
    """A closedness flag, which must be a JSON boolean; with a default,
    it may be absent.  A wrong type raises TypeError, which the callers
    report with the place it was found."""
    value = obj[key] if default is None else obj.get(key, default)
    if type(value) is not bool:
        raise TypeError(f"{key} must be true or false, got {value!r}")
    return value


def _interval_from_json(obj, where: str) -> Interval:
    try:
        return Interval(
            q(obj["lo"]), q(obj["hi"]),
            _flag(obj, "lo_closed"), _flag(obj, "hi_closed"),
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


def rep_to_json(rep) -> dict:
    """A Representation or a CircularArcRep as the JSON of its kind."""
    if isinstance(rep, CircularArcRep):
        return circular_to_json(rep)
    return representation_to_json(rep)


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
                    _flag(a, "start_closed", True), _flag(a, "end_closed", True),
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


# name -> (builder, the options it needs, then any it may take); the
# builder takes the needed ones in order, after the input for a check, a
# transform or a reduction, and the others by name when given.  Each table
# gives its command's argparse choices, in this order, and its dispatch,
# and `_bind` holds each op to the options the table lists for it.
_GENERATORS = {
    "k53": (gadgets.k53, ()),
    "k44e": (gadgets.k44_minus_e, ()),
    "cycle": (graphs.cycle, ("n",)),
    "path": (graphs.path, ("n",)),
    "wheel": (graphs.wheel, ("n",)),
    "domino": (graphs.domino, ()),
    "kneser": (graphs.kneser, ("n", "k")),
    "complete-bipartite": (graphs.complete_bipartite, ("m", "n")),
    "petersen": (graphs.petersen, ()),
    "unbalanced-chain": (gadgets.unbalanced_chain, ()),
    "c4-anchored": (gadgets.c4_anchored, ()),
    "xx-separator": (lambda x: gadgets.xx_separator(x).graph, ("x",)),
}

_FIXTURES = {
    "k53": (gadgets.k53_balanced_realization, ()),
    "k44e": (gadgets.k44e_22_realization, ()),
    "unbalanced-chain": (gadgets.unbalanced_chain_realization, ()),
    "xx-separator": (gadgets.xx_separator_realization, ("x",)),
}

_CHECKS = {
    "all-k-simplicial": (simplicial.all_k_simplicial, ("k",)),
    "k1t-free": (simplicial.k1t_free, ("t",)),
    "k-colorable": (graphs.k_colorable, ("k",)),
}

_TRANSFORMS = {
    "ca-to-balanced": (transforms.balanced_from_circular_arc, (), "cut"),
    "ca-to-unit": (transforms.unit_from_proper_circular_arc, (), "cut"),
    "stretch": (transforms.stretch, ()),
    "dilate": (model.affine, ("factor",), "shift"),
    "unit-to-xx": (transforms.unit_rep_to_integer_xx, ()),
}


def _hc_balanced(g, err, emit=None, cycle=None) -> Graph:
    """The hc-balanced instance of g.  With a cycle, its witness is built
    first, its span noted on err and, with emit, written there: a command
    that fails writes no result."""
    inst = reductions.hc_to_balanced_instance(g)
    if cycle is not None:
        rep = reductions.ham_cycle_realization(inst, cycle.split(","))
        claimed = 13273 + 241 * inst.n
        err.write(
            f"realization span {q_str(rep.span().length)} "
            f"(reference aggregate {claimed})\n"
        )
        if emit:
            with open(emit, "w", encoding="utf-8") as fh:
                fh.write(dump_json(rep_to_json(rep)))
    return inst.graph


_REDUCTIONS = {
    "hc-balanced": (_hc_balanced, (), "emit", "cycle"),
    "coloring-simplicial": (
        lambda g, err, k: reductions.coloring_to_simplicial_instance(g, k), ("k",)),
}


def _bind(table, name, args):
    """table[name]'s builder with the options of args bound: FormatError,
    before any input is read, if an option it needs is missing or it was
    given one that only the table's other ops take."""
    build, needs, *takes = table[name]
    values = [getattr(args, option) for option in needs]
    if None in values:
        raise FormatError(f"{name} needs " + " and ".join(f"--{o}" for o in needs))
    others = dict.fromkeys(o for _, n, *t in table.values() for o in (*n, *t))
    stray = [o for o in others
             if o not in needs and o not in takes and getattr(args, o) is not None]
    if stray:
        raise FormatError(f"{name} takes no " + " or ".join(f"--{o}" for o in stray))
    given = {o: getattr(args, o) for o in takes if getattr(args, o) is not None}
    return lambda *lead: build(*lead, *values, **given)


def _read_input(path: str) -> str:
    """The text of a positional input, which must name a file, so that a
    mistyped path is an error and not a one-vertex graph.  Graph text goes
    to the text-only parser: text that names a file is still text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}") from None


_JSON_KIND = {Representation: "2-interval", CircularArcRep: "circular-arc"}


def _read_rep(path: str, kind: type, what: str):
    """The representation in the file at `path`, which `what` (a command
    and its op) reads only as `kind`."""
    rep = parse_representation(_read_input(path))
    if not isinstance(rep, kind):
        raise FormatError(
            f"{what} expects {_JSON_KIND[kind]} JSON, got {_JSON_KIND[type(rep)]} JSON"
        )
    return rep


def _cmd_gen(args, out, err) -> int:
    g = _bind(_GENERATORS, args.kind, args)()
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
    rep = _bind(_FIXTURES, args.kind, args)()
    out.write(dump_json(rep_to_json(rep)))
    return EXIT_YES


def _cmd_verify(args, out, err) -> int:
    rep = parse_representation(_read_input(args.input))
    family = FamilySelector(args.family, args.x)
    verdict = model.family_check(rep, family)
    if verdict.ok:
        out.write("pass\n")
        return EXIT_YES
    out.write(f"fail: {verdict.reason}\n")
    return EXIT_NO


_VERDICT_EXIT = {
    "member": EXIT_YES, "nonmember": EXIT_NO, "inconclusive": EXIT_INCONCLUSIVE,
}


def _cmd_recognize(args, out, err) -> int:
    g = parse_graph(_read_input(args.input))
    family = FamilySelector(args.family, args.x)
    outcome = recognize.recognize(g, family, recognize.Budget(args.budget))
    # the certificate is written first: a command that fails writes no result
    if outcome.is_member() and args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(dump_json(rep_to_json(outcome.certificate)))
    out.write(f"{outcome.kind} nodes={outcome.nodes_used}\n")
    return _VERDICT_EXIT[outcome.kind]


def _cmd_transform(args, out, err) -> int:
    transform = _bind(_TRANSFORMS, args.op, args)
    kind = CircularArcRep if args.op.startswith("ca-to-") else Representation
    rep = _read_rep(args.input, kind, f"transform {args.op}")
    out.write(dump_json(rep_to_json(transform(rep))))
    return EXIT_YES


def _cmd_reduce(args, out, err) -> int:
    reduce = _bind(_REDUCTIONS, args.op, args)
    if args.emit and args.cycle is None:
        raise FormatError("--emit needs --cycle")
    g = parse_graph(_read_input(args.input))
    out.write(graphs.to_edge_list(reduce(g, err)))
    return EXIT_YES


def _cmd_check(args, out, err) -> int:
    check = _bind(_CHECKS, args.op, args)
    g = parse_graph(_read_input(args.input))
    # a witness (a partition or a coloring) or True means yes
    if check(g):
        out.write("yes\n")
        return EXIT_YES
    out.write("no\n")
    return EXIT_NO


def _cmd_render(args, out, err) -> int:
    if args.what == "dot":
        out.write(emit_dot(parse_graph(_read_input(args.input))))
        return EXIT_YES
    # svg
    out.write(emit_svg(_read_rep(args.input, Representation, "render svg")))
    return EXIT_YES


@functools.cache  # built once, on the first call
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tik", description="exact 2-interval graph toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named graph")
    p.add_argument("kind", choices=_GENERATORS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--format", choices=["edges", "dot", "json"], default="edges")

    p = sub.add_parser("realize", help="emit a fixture realization as JSON")
    p.add_argument("kind", choices=_FIXTURES)
    p.add_argument("--x", type=int)

    p = sub.add_parser("verify", help="check a representation against a family")
    p.add_argument("--family", choices=model.FAMILY_KINDS, required=True)
    p.add_argument("--x", type=int)
    p.add_argument("input")

    p = sub.add_parser("recognize", help="budgeted exact membership search")
    p.add_argument("--family", choices=model.FAMILY_KINDS, required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--emit", help="write the certificate JSON here")
    p.add_argument("input")

    p = sub.add_parser("transform", help="class transformations")
    p.add_argument("op", choices=_TRANSFORMS)
    # a value like -1/2 is an argument, not an option
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    p.add_argument("--cut", help="cut point for the circular transforms")
    p.add_argument("--factor", help="dilation factor p/q")
    p.add_argument("--shift", help="dilation shift p/q")
    p.add_argument("input")

    p = sub.add_parser("reduce", help="hardness reduction instances")
    p.add_argument("op", choices=_REDUCTIONS)
    p.add_argument("--k", type=int)
    p.add_argument("--cycle", help="comma-separated Hamiltonian cycle")
    p.add_argument("--emit", help="write the witness realization JSON here")
    p.add_argument("input")

    p = sub.add_parser("check", help="exact graph-class checks")
    p.add_argument("op", choices=_CHECKS)
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
    try:
        # argparse writes help to sys.stdout and usage errors to sys.stderr
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_YES
    try:
        return _COMMANDS[args.command](args, out, err)
    except (ValueError, OSError) as exc:  # FormatError, GraphError, ModelError too
        err.write(f"error: {exc}\n")
        return EXIT_ERROR
    except Exception as exc:  # a crash must never read as a verdict
        err.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


def main() -> None:
    raise SystemExit(cli_main())
