import argparse
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import mixed_star_rep, random_circular_rep, random_closed_rep, random_graph
import tik
from tik import gadgets, graphs, io_cli, model, simplicial, transforms
from tik.gadgets import k53_balanced_realization
from tik.graphs import complete_bipartite, path, to_edge_list
from tik.io_cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_NO,
    EXIT_YES,
    FormatError,
    circular_to_json,
    cli_main,
    dump_json,
    emit_dot,
    emit_svg,
    parse_graph,
    parse_representation,
    representation_to_json,
)
from tik.model import BALANCED, UNIT, q


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_graph_text_and_file(tmp_path):
    g = parse_graph("a b\nb c")
    assert g.n == 3
    path = tmp_path / "g.edges"
    path.write_text("a b\nb c\n")
    assert parse_graph(path.read_text()) == g


def test_parse_graph_does_not_read_a_named_file(tmp_path, monkeypatch):
    # the text "g.edges" is the one-vertex graph of that label, whether or
    # not a file of that name exists in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.edges").write_text("a b\nb c\n")
    g = parse_graph("g.edges")
    assert g.vertices == ("g.edges",)
    assert not g.edges


@pytest.mark.parametrize("argv", [
    ["recognize", "--family", "interval"],
    ["reduce", "coloring-simplicial", "--k", "2"],
    ["check", "k-colorable", "--k", "2"],
    ["render", "dot"],
])
def test_cli_reads_graphs_through_parse_graph(tmp_path, monkeypatch, argv):
    texts = []

    def spy(text):
        texts.append(text)
        return parse_graph(text)

    monkeypatch.setattr(io_cli, "parse_graph", spy)
    path = tmp_path / "p3.edges"
    path.write_text("a b\nb c\n")
    code, _, _ = run_cli(argv + [str(path)])
    assert code == EXIT_YES and texts == ["a b\nb c\n"]


def test_representation_roundtrip_fixture():
    rep = k53_balanced_realization()
    text = dump_json(representation_to_json(rep))
    back = parse_representation(text)
    assert back == rep
    assert model.family_check(back, BALANCED).ok


def test_representation_roundtrip_randomized():
    rng = random.Random(111)
    for _ in range(250):
        rep = random_closed_rep(rng, rng.randint(1, 6))
        assert parse_representation(dump_json(representation_to_json(rep))) == rep
    for _ in range(250):
        ca = random_circular_rep(rng, rng.randint(1, 6))
        back = parse_representation(dump_json(circular_to_json(ca)))
        assert back == ca


def test_parse_representation_errors():
    with pytest.raises(FormatError, match="JSON"):
        parse_representation("{nope")
    with pytest.raises(FormatError, match="1/0"):
        parse_representation(json.dumps({
            "vertices": {"a": {
                "left": {"lo": "1/0", "hi": "2", "lo_closed": True, "hi_closed": True},
                "right": {"lo": "5", "hi": "6", "lo_closed": True, "hi_closed": True},
            }}
        }))
    with pytest.raises(FormatError, match="/vertices"):
        parse_representation("{}")


def test_parse_representation_flags_are_json_booleans():
    ends = {"lo": "0", "hi": "2", "lo_closed": True, "hi_closed": True}
    for flag in ("false", 0, None):
        bad = {"vertices": {"a": {"left": {**ends, "lo_closed": flag}, "right": ends}}}
        with pytest.raises(FormatError, match="lo_closed must be true or false"):
            parse_representation(json.dumps(bad))
    arc = {"start": "0", "end": "2"}
    for flag in ("true", 1):
        bad = {"circumference": "8", "arcs": {"a": {**arc, "end_closed": flag}}}
        with pytest.raises(FormatError, match="end_closed must be true or false"):
            parse_representation(json.dumps(bad))
    # absent arc flags are closed
    ca = parse_representation(json.dumps({"circumference": "8", "arcs": {"a": arc}}))
    assert ca["a"].start_closed and ca["a"].end_closed


def test_cli_verify_rejects_string_flags(tmp_path):
    # an open xx(2) realization whose flags are written as strings is not
    # read as closed: the input is malformed, not a failed check
    text = dump_json(representation_to_json(gadgets.k44e_22_realization()))
    assert '"lo_closed": false' in text
    path = tmp_path / "k44e.json"
    path.write_text(text.replace("false", '"false"'))
    code, out, err = run_cli(["verify", "--family", "xx", "--x", "2", str(path)])
    assert (code, out) == (EXIT_ERROR, "")
    assert "lo_closed must be true or false, got 'false'" in err


def test_cli_verify_rejects_boolean_ends(tmp_path):
    path = tmp_path / "bool.json"
    ends = {"lo": False, "hi": True, "lo_closed": True, "hi_closed": True}
    path.write_text(json.dumps({"vertices": {"a": {
        "left": ends, "right": {**ends, "lo": "5", "hi": "6"}}}}))
    code, out, err = run_cli(["verify", "--family", "unit", str(path)])
    assert (code, out) == (EXIT_ERROR, "")
    assert "cannot interpret False as a rational" in err


def test_emit_dot():
    text = emit_dot(complete_bipartite(2, 3))
    assert text.count("--") == 6
    assert '"s1"' in text


def test_emit_svg_k53():
    svg = emit_svg(k53_balanced_realization())
    assert svg.count("<rect") == 16
    assert svg.count("<text") == 8


def test_emit_svg_empty():
    svg = emit_svg(model.Representation({}))
    assert "<rect" not in svg and "<line" in svg


def test_cli_gen_and_determinism():
    code1, out1, _ = run_cli(["gen", "kneser", "--n", "5", "--k", "2"])
    code2, out2, _ = run_cli(["gen", "kneser", "--n", "5", "--k", "2"])
    assert code1 == code2 == EXIT_YES
    assert out1 == out2
    assert len(out1.splitlines()) == 15


def test_cli_realize_verify_roundtrip(tmp_path):
    code, out, _ = run_cli(["realize", "k53"])
    assert code == EXIT_YES
    path = tmp_path / "k53.json"
    path.write_text(out)
    code, out2, _ = run_cli(["verify", "--family", "balanced", str(path)])
    assert code == EXIT_YES and out2.strip() == "pass"
    code, out3, _ = run_cli(["verify", "--family", "unit", str(path)])
    assert code == EXIT_NO and out3.startswith("fail")


def test_cli_recognize_exit_codes(tmp_path):
    k23 = tmp_path / "k23.edges"
    k23.write_text(to_edge_list(complete_bipartite(2, 3)))
    code, out, _ = run_cli([
        "recognize", "--family", "xx", "--x", "1",
        "--budget", "10000000", str(k23),
    ])
    assert code == EXIT_NO
    cert = tmp_path / "cert.json"
    code, out, _ = run_cli([
        "recognize", "--family", "xx", "--x", "2",
        "--budget", "10000000", "--emit", str(cert), str(k23),
    ])
    assert code == EXIT_YES
    rep = parse_representation(cert.read_text())
    assert model.family_check(rep, model.XX(2)).ok
    assert model.intersection_graph(rep) == complete_bipartite(2, 3)


def test_cli_recognize_budget_inconclusive(tmp_path):
    dom = tmp_path / "domino.edges"
    from tik.graphs import domino

    dom.write_text(to_edge_list(domino()))
    code, out, _ = run_cli([
        "recognize", "--family", "unit", "--budget", "100", str(dom),
    ])
    assert code == EXIT_INCONCLUSIVE


def test_cli_recognize_default_budget(tmp_path):
    # without --budget, a search stops where --budget 10000000 stops it
    chain = tmp_path / "chain.edges"
    chain.write_text(to_edge_list(gadgets.unbalanced_chain()))
    argv = ["recognize", "--family", "balanced", str(chain)]
    default = run_cli(argv)
    assert default == (EXIT_INCONCLUSIVE, "inconclusive nodes=10000001\n", "")
    assert run_cli(argv[:-1] + ["--budget", "10000000", str(chain)]) == default


GEN_CASES = [
    (["k53"], gadgets.k53()),
    (["k44e"], gadgets.k44_minus_e()),
    (["cycle", "--n", "5"], graphs.cycle(5)),
    (["path", "--n", "4"], graphs.path(4)),
    (["wheel", "--n", "6"], graphs.wheel(6)),
    (["domino"], graphs.domino()),
    (["kneser", "--n", "6", "--k", "2"], graphs.kneser(6, 2)),
    (["complete-bipartite", "--m", "2", "--n", "4"], graphs.complete_bipartite(2, 4)),
    (["petersen"], graphs.petersen()),
    (["unbalanced-chain"], gadgets.unbalanced_chain()),
    (["c4-anchored"], gadgets.c4_anchored()),
    (["xx-separator", "--x", "2"], gadgets.xx_separator(2).graph),
]


@pytest.mark.parametrize("argv, g", GEN_CASES, ids=[c[0][0] for c in GEN_CASES])
def test_cli_gen_matches_the_library(argv, g):
    assert run_cli(["gen", *argv]) == (EXIT_YES, to_edge_list(g), "")
    assert run_cli(["gen", *argv, "--format", "dot"]) == (EXIT_YES, emit_dot(g), "")


REALIZE_CASES = [
    (["k53"], gadgets.k53_balanced_realization()),
    (["k44e"], gadgets.k44e_22_realization()),
    (["unbalanced-chain"], gadgets.unbalanced_chain_realization()),
    (["xx-separator", "--x", "3"], gadgets.xx_separator_realization(3)),
]


@pytest.mark.parametrize("argv, rep", REALIZE_CASES, ids=[c[0][0] for c in REALIZE_CASES])
def test_cli_realize_matches_the_library(argv, rep):
    expected = dump_json(representation_to_json(rep))
    assert run_cli(["realize", *argv]) == (EXIT_YES, expected, "")


@pytest.mark.parametrize("g", [graphs.cycle(5), graphs.wheel(5), graphs.petersen(),
                               gadgets.k53()], ids=["C5", "W5", "petersen", "K53"])
def test_cli_check_matches_the_library(tmp_path, g):
    path = tmp_path / "g.edges"
    path.write_text(to_edge_list(g))
    for k in (1, 2, 3):
        for argv, yes in (
            (["all-k-simplicial", "--k", str(k)], simplicial.all_k_simplicial(g, k)),
            (["k1t-free", "--t", str(k + 1)], simplicial.k1t_free(g, k + 1)),
            (["k-colorable", "--k", str(k)], graphs.k_colorable(g, k)),
        ):
            expected = (EXIT_YES, "yes\n", "") if yes else (EXIT_NO, "no\n", "")
            assert run_cli(["check", *argv, str(path)]) == expected, argv


@pytest.mark.parametrize("argv, flags", [
    (["gen", "cycle"], "--n"),
    (["gen", "path"], "--n"),
    (["gen", "wheel"], "--n"),
    (["gen", "kneser", "--n", "5"], "--n and --k"),
    (["gen", "complete-bipartite", "--n", "2"], "--m and --n"),
    (["gen", "xx-separator"], "--x"),
    (["realize", "xx-separator"], "--x"),
    (["check", "all-k-simplicial"], "--k"),
    (["check", "k1t-free", "--k", "3"], "--t"),
    (["check", "k-colorable", "--t", "3"], "--k"),
    (["transform", "dilate", "--shift", "1"], "--factor"),
    (["reduce", "coloring-simplicial", "--emit", "x.json"], "--k"),
], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
def test_cli_names_the_options_it_needs(tmp_path, argv, flags):
    # a missing option is named before a stray one, and before the input
    # (here not JSON) is read
    if argv[0] in ("check", "transform", "reduce"):
        path = tmp_path / "p3.edges"
        path.write_text("a b\nb c\n")
        argv = argv + [str(path)]
    assert run_cli(argv) == (EXIT_ERROR, "", f"error: {argv[1]} needs {flags}\n")


def test_cli_check_deep_path(tmp_path):
    # 3000 vertices: deeper than the interpreter's recursion limit
    path3000 = tmp_path / "path3000.edges"
    path3000.write_text(to_edge_list(path(3000)))
    assert run_cli(["check", "k-colorable", "--k", "2", str(path3000)]) == (
        EXIT_YES, "yes\n", "")


def test_cli_transform_pipeline(tmp_path):
    ca = {
        "circumference": "8",
        "arcs": {
            "v1": {"start": "0", "end": "3", "start_closed": True, "end_closed": True},
            "v2": {"start": "2", "end": "5", "start_closed": True, "end_closed": True},
            "v3": {"start": "4", "end": "7", "start_closed": True, "end_closed": True},
            "v4": {"start": "6", "end": "1", "start_closed": True, "end_closed": True},
        },
    }
    ca_path = tmp_path / "c4.json"
    ca_path.write_text(json.dumps(ca))
    code, out, _ = run_cli(["transform", "ca-to-balanced", str(ca_path)])
    assert code == EXIT_YES
    rep = parse_representation(out)
    assert model.family_check(rep, BALANCED).ok


# a representation of each JSON kind, and an empty one of each
KIND_INPUTS = {
    "arcs": '{"circumference": "8", "arcs": {"a": {"start": "0", "end": "3"}}}',
    "no-arcs": '{"circumference": "8", "arcs": {}}',
    "pairs": dump_json(representation_to_json(gadgets.k44e_22_realization())),
    "no-pairs": '{"vertices": {}}',
}


@pytest.mark.parametrize("argv, name", [
    (argv, name)
    for argv, names in [
        (["transform", "ca-to-balanced"], ("pairs", "no-pairs")),
        (["transform", "ca-to-unit"], ("pairs", "no-pairs")),
        (["transform", "stretch"], ("arcs", "no-arcs")),
        (["transform", "dilate", "--factor", "2"], ("arcs", "no-arcs")),
        (["transform", "unit-to-xx"], ("arcs", "no-arcs")),
        (["render", "svg"], ("arcs", "no-arcs")),
    ]
    for name in names
], ids=lambda v: "-".join(v) if isinstance(v, list) else v)
def test_cli_rejects_the_other_json_kind(tmp_path, argv, name):
    path = tmp_path / "rep.json"
    path.write_text(KIND_INPUTS[name])
    kinds = ["2-interval", "circular-arc"]
    if "pairs" in name:
        kinds.reverse()
    assert run_cli(argv + [str(path)]) == (
        EXIT_ERROR, "", f"error: {argv[0]} {argv[1]} expects {kinds[0]} JSON, "
                        f"got {kinds[1]} JSON\n")


def test_cli_rejects_a_label_that_reads_as_a_comment(tmp_path):
    # '#b' would come back first on a line of the instance, "#b a", which
    # reads as a comment: the input is refused before anything is written
    g = tmp_path / "hash.edges"
    g.write_text("a #b\nc d\n")
    argv = ["reduce", "coloring-simplicial", "--k", "2", str(g)]
    assert run_cli(argv) == (
        EXIT_ERROR, "", "error: line 1: label '#b' starts with '#', the comment mark\n")


def test_cli_reduce_emit_needs_cycle(tmp_path):
    k33 = tmp_path / "k33.edges"
    k33.write_text(to_edge_list(complete_bipartite(3, 3)))
    emit = tmp_path / "witness.json"
    argv = ["reduce", "hc-balanced", "--emit", str(emit), str(k33)]
    assert run_cli(argv) == (EXIT_ERROR, "", "error: --emit needs --cycle\n")
    assert not emit.exists()


def test_cli_reduce_bad_cycle_writes_no_instance(tmp_path):
    # the witness is built before the instance is written, so a command
    # that exits 3 has written nothing to stdout
    k33 = tmp_path / "k33.edges"
    k33.write_text(to_edge_list(complete_bipartite(3, 3)))
    argv = ["reduce", "hc-balanced", "--cycle", "s1,s2,t1,t2,s3,t3", str(k33)]
    assert run_cli(argv) == (
        EXIT_ERROR, "", "error: cycle step 's1' -> 's2' is not an edge\n")


@pytest.mark.parametrize("extra", [[], ["--emit", "witness.json"]], ids=["no-emit", "emit"])
def test_cli_reduce_empty_cycle_is_a_cycle(tmp_path, extra):
    # an empty --cycle is a given cycle that visits no vertex, not a
    # missing one: the witness step rejects it, with or without --emit
    k33 = tmp_path / "k33.edges"
    k33.write_text(to_edge_list(complete_bipartite(3, 3)))
    extra = [str(tmp_path / e) if e.endswith(".json") else e for e in extra]
    argv = ["reduce", "hc-balanced", "--cycle", "", *extra, str(k33)]
    assert run_cli(argv) == (
        EXIT_ERROR, "", "error: cycle must visit every base vertex exactly once\n")
    assert not (tmp_path / "witness.json").exists()


def test_cli_recognize_emit_failure_writes_no_verdict(tmp_path):
    # --emit into a directory fails; the verdict line must not go out first
    p3 = tmp_path / "p3.edges"
    p3.write_text("a b\nb c\n")
    argv = ["recognize", "--family", "unit", "--emit", str(tmp_path), str(p3)]
    code, out, err = run_cli(argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: ") and "Is a directory" in err


def _assert_takes_no(tmp_path, argv, taken):
    # one rule for every op command: options are checked before the input
    # is read (IN names no file) or a file written, and an op given one
    # that only other ops of its command take names each, in table order
    names = {"IN": str(tmp_path / "missing"), "x.json": str(tmp_path / "x.json")}
    argv = [names.get(a, a) for a in argv]
    assert run_cli(argv) == (EXIT_ERROR, "", f"error: {argv[1]} takes no {taken}\n")
    assert not (tmp_path / "x.json").exists()


OPTION_RULE_CASES = [
    (["gen", "k53", "--n", "5"], "--n"),
    (["gen", "cycle", "--n", "5", "--m", "2", "--k", "2", "--x", "1"], "--k or --m or --x"),
    (["gen", "kneser", "--n", "6", "--k", "2", "--m", "3"], "--m"),
    (["gen", "complete-bipartite", "--m", "2", "--n", "3", "--k", "1", "--x", "2"],
     "--k or --x"),
    (["gen", "xx-separator", "--x", "2", "--n", "5"], "--n"),
    (["realize", "k53", "--x", "2"], "--x"),
    (["check", "k1t-free", "--t", "3", "--k", "2", "IN"], "--k"),
    (["check", "k-colorable", "--k", "2", "--t", "3", "IN"], "--t"),
    (["check", "all-k-simplicial", "--t", "3", "--k", "2", "IN"], "--t"),
    (["transform", "ca-to-balanced", "--cut", "1/2", "--shift", "1", "IN"], "--shift"),
    (["transform", "stretch", "--shift", "1", "--factor", "2", "--cut", "1", "IN"],
     "--cut or --factor or --shift"),
    (["reduce", "hc-balanced", "--k", "2", "IN"], "--k"),
    (["reduce", "hc-balanced", "--cycle", "v1,v2", "--emit", "x.json", "--k", "2", "IN"],
     "--k"),
]


@pytest.mark.parametrize(
    "argv, taken", OPTION_RULE_CASES,
    ids=["-".join(a.strip("-") for a in argv if a not in ("IN", "x.json"))
         for argv, _ in OPTION_RULE_CASES])
def test_cli_ops_take_only_their_own_options(tmp_path, argv, taken):
    _assert_takes_no(tmp_path, argv, taken)


@pytest.mark.parametrize("extra, taken", [
    (["--emit", "x.json"], "--emit"), (["--cycle", "v1,v2"], "--cycle"),
    (["--emit", "x.json", "--cycle", "v1,v2"], "--emit or --cycle"),
], ids=["emit", "cycle", "both"])
def test_cli_reduce_coloring_rejects_hc_options(tmp_path, extra, taken):
    # --emit and --cycle belong to hc-balanced alone; another op must not
    # ignore them and write nothing
    _assert_takes_no(tmp_path, ["reduce", "coloring-simplicial", "--k", "2", *extra, "IN"],
                     taken)


@pytest.mark.parametrize("op, extra, taken", [
    ("stretch", ["--factor", "2"], "--factor"),
    ("unit-to-xx", ["--shift", "1"], "--shift"),
    ("ca-to-balanced", ["--shift", "1/2"], "--shift"),
    ("ca-to-unit", ["--cut", "1/2", "--factor", "2"], "--factor"),
    ("dilate", ["--factor", "2", "--cut", "1"], "--cut"),
    ("stretch", ["--cut", "1"], "--cut"),
    ("unit-to-xx", ["--cut", "1"], "--cut"),
], ids=["stretch-factor", "unit-to-xx-shift", "ca-to-balanced-shift",
        "ca-to-unit-factor", "dilate-cut", "stretch-cut", "unit-to-xx-cut"])
def test_cli_transform_rejects_options_of_other_ops(tmp_path, op, extra, taken):
    # --cut belongs to the ca-to-* ops and --factor / --shift to dilate;
    # another op must not ignore them
    _assert_takes_no(tmp_path, ["transform", op, *extra, "IN"], taken)


def test_cli_dilate_reads_negative_rationals(tmp_path):
    # -1/2 is a value, not an option
    path = tmp_path / "rep.json"
    path.write_text(KIND_INPUTS["pairs"])
    code, out, err = run_cli(
        ["transform", "dilate", "--factor", "2", "--shift", "-1/2", str(path)])
    assert (code, err) == (EXIT_YES, "")
    rep = parse_representation(KIND_INPUTS["pairs"])
    assert parse_representation(out) == model.affine(rep, 2, q("-1/2"))
    assert run_cli(["transform", "dilate", "--factor", "-1/2", str(path)]) == (
        EXIT_ERROR, "", "error: affine scale must be positive\n")


def test_cli_ca_to_unit_mixed_closedness(tmp_path):
    # proper: a = (4, 1] and c = (3, 1) have heads [0, 1] and [0, 1) at the
    # cut, which the sweep order, not the labels, must order
    ca = {
        "circumference": "6",
        "arcs": {
            "a": {"start": "4", "end": "1", "start_closed": False, "end_closed": True},
            "b": {"start": "2", "end": "3", "start_closed": True, "end_closed": True},
            "c": {"start": "3", "end": "1", "start_closed": False, "end_closed": False},
        },
    }
    ca_path = tmp_path / "mixed.json"
    ca_path.write_text(json.dumps(ca))
    code, out, err = run_cli(["transform", "ca-to-unit", str(ca_path)])
    assert code == EXIT_YES, err
    rep = parse_representation(out)
    assert model.family_check(rep, UNIT).ok
    assert model.intersection_graph(rep) == model.circular_intersection_graph(
        parse_representation(json.dumps(ca)))
    unit_path = tmp_path / "unit.json"
    unit_path.write_text(out)
    code, out, _ = run_cli(["verify", "--family", "unit", str(unit_path)])
    assert (code, out) == (EXIT_YES, "pass\n")


def test_cli_verify_unit_rejects_mixed_closedness(tmp_path):
    path = tmp_path / "k16.json"
    path.write_text(dump_json(representation_to_json(mixed_star_rep(2))))
    code, out, _ = run_cli(["verify", "--family", "unit", str(path)])
    assert code == EXIT_NO and out.startswith("fail") and "closedness" in out


@pytest.mark.parametrize("a, b", [("a", "b"), ("b", "a")])
def test_cli_unit_to_xx_rejects_mixed_closedness(tmp_path, a, b):
    # the verdict must not hang on which label sorts first among the ties
    rep = model.Representation({
        a: model.two_interval(model.interval(0, 1), model.interval(8, 9)),
        b: model.two_interval(model.open_interval(0, 1), model.interval(5, 6)),
        "c": model.two_interval(model.interval(1, 2), model.interval(11, 12)),
    })
    path = tmp_path / "mixed.json"
    path.write_text(dump_json(representation_to_json(rep)))
    code, _, err = run_cli(["transform", "unit-to-xx", str(path)])
    assert code == EXIT_ERROR and "not a unit representation" in err


def test_cli_ca_to_balanced_default_cut(tmp_path):
    # without --cut the transform cuts where the library does by default
    ca_path = tmp_path / "arcs.json"
    for seed in range(20):
        ca = random_circular_rep(random.Random(seed), 6)
        ca_path.write_text(dump_json(circular_to_json(ca)))
        code, out, err = run_cli(["transform", "ca-to-balanced", str(ca_path)])
        assert (code, err) == (EXIT_YES, ""), seed
        assert parse_representation(out) == transforms.balanced_from_circular_arc(ca)


def test_cli_ca_to_balanced_arc_ending_open_at_zero(tmp_path):
    ca = {
        "circumference": "4",
        "arcs": {
            "a": {"start": "2", "end": "0", "start_closed": True, "end_closed": False},
            "b": {"start": "1", "end": "3", "start_closed": True, "end_closed": True},
        },
    }
    ca_path = tmp_path / "open0.json"
    ca_path.write_text(json.dumps(ca))
    code, out, _ = run_cli(["transform", "ca-to-balanced", str(ca_path)])
    assert code == EXIT_YES
    rep = parse_representation(out)
    assert model.intersection_graph(rep) == model.circular_intersection_graph(
        parse_representation(json.dumps(ca)))


def test_cli_reduce_and_check(tmp_path):
    k33 = tmp_path / "k33.edges"
    k33.write_text(to_edge_list(complete_bipartite(3, 3)))
    emit = tmp_path / "witness.json"
    code, out, err = run_cli([
        "reduce", "hc-balanced", "--cycle", "s1,t1,s2,t2,s3,t3",
        "--emit", str(emit), str(k33),
    ])
    assert code == EXIT_YES
    assert "span" in err  # informational aggregate comparison
    rep = parse_representation(emit.read_text())
    assert model.family_check(rep, BALANCED).ok

    c5 = tmp_path / "c5.edges"
    from tik.graphs import cycle

    c5.write_text(to_edge_list(cycle(5)))
    code, out, _ = run_cli(["check", "k-colorable", "--k", "2", str(c5)])
    assert code == EXIT_NO
    code, out, _ = run_cli(["check", "k-colorable", "--k", "3", str(c5)])
    assert code == EXIT_YES
    code, out, _ = run_cli(["check", "k1t-free", "--t", "3", str(c5)])
    assert code == EXIT_YES
    code, out, _ = run_cli(["check", "all-k-simplicial", "--k", "2", str(c5)])
    assert code == EXIT_YES


def test_cli_render(tmp_path):
    c4 = tmp_path / "c4.edges"
    from tik.graphs import cycle

    c4.write_text(to_edge_list(cycle(4)))
    code, out, _ = run_cli(["render", "dot", str(c4)])
    assert code == EXIT_YES and out.startswith("graph {")
    code, out, _ = run_cli(["realize", "k44e"])
    rep_path = tmp_path / "k44e.json"
    rep_path.write_text(out)
    code, out, _ = run_cli(["render", "svg", str(rep_path)])
    assert code == EXIT_YES and out.count("<rect") == 16


def test_cli_render_dot_escapes_labels(tmp_path):
    # labels come from input files: a DOT ID escapes backslash and quote
    edges = tmp_path / "g.edges"
    edges.write_text('a"b c\\d\n"e\\" f\n')
    code, out, _ = run_cli(["render", "dot", str(edges)])
    assert code == EXIT_YES
    lines = out.splitlines()
    for quoted in ('"a\\"b"', '"c\\\\d"', '"\\"e\\\\\\""', '"f"'):
        assert f"  {quoted};" in lines, (quoted, out)
    assert '  "a\\"b" -- "c\\\\d";' in lines, out


def test_cli_render_svg_escapes_labels(tmp_path):
    # labels come from JSON keys: SVG text is XML-escaped, so the output
    # parses and its text reads back as the labels
    import xml.etree.ElementTree as ET

    labels = ["x<y&z", 'q"r', "a>b", "plain"]
    rep = model.Representation({
        v: model.two_interval(model.Interval(model.q(4 * i), model.q(4 * i + 1)),
                              model.Interval(model.q(4 * i + 2), model.q(4 * i + 3)))
        for i, v in enumerate(labels)
    })
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(dump_json(representation_to_json(rep)))
    code, out, _ = run_cli(["render", "svg", str(rep_path)])
    assert code == EXIT_YES
    root = ET.fromstring(out)
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == sorted(labels)


def test_cli_render_svg_rejects_labels_xml_cannot_carry(tmp_path):
    # XML 1.0 has no escape for most control characters, surrogates and
    # U+FFFE/U+FFFF: such a label is a usage error, with no partial SVG
    for label in ("a\u0001b", "x\u001fy", "\ud800", "end\uffff"):
        rep = model.Representation({
            v: model.two_interval(model.Interval(model.q(4 * i), model.q(4 * i + 1)),
                                  model.Interval(model.q(4 * i + 2), model.q(4 * i + 3)))
            for i, v in enumerate(["ok", label])
        })
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(dump_json(representation_to_json(rep)))
        code, out, err = run_cli(["render", "svg", str(rep_path)])
        assert code == EXIT_ERROR, label
        assert out == "" and err.startswith("error: ") and "XML" in err


def test_cli_usage_errors():
    code, _, err = run_cli(["recognize", "--family", "xx", "nope nope nope"])
    assert code == EXIT_ERROR
    code, _, _ = run_cli(["bogus-subcommand"])
    assert code == EXIT_ERROR
    code, _, err = run_cli(["gen", "kneser"])
    assert code == EXIT_ERROR and "kneser" in err


def _family_from_args_reference(args):
    """The family check `verify` and `recognize` made before they built
    the `FamilySelector`, which makes the same check."""
    if args.family == "xx":
        if args.x is None:
            raise FormatError("family xx needs --x")
        return model.XX(args.x)
    if args.x is not None:
        raise FormatError("--x only applies to family xx")
    return model.FamilySelector(args.family)


def test_family_selector_matches_family_from_args_reference():
    # the same family or a ValueError for every --family/--x pair; only
    # the reference's own two messages became FamilySelector's
    changed = 0
    for kind in model.FAMILY_KINDS:
        for x in (None, -1, 0, 1, 2, 7):
            args = argparse.Namespace(family=kind, x=x)
            try:
                expected = _family_from_args_reference(args)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    model.FamilySelector(kind, x)
                if isinstance(exc, FormatError):
                    changed += 1
                    assert str(got.value) == (
                        "xx family needs an int x >= 1, got None" if kind == "xx"
                        else f"family {kind!r} takes no x parameter")
                else:
                    assert str(got.value) == str(exc)
                continue
            assert model.FamilySelector(kind, x) == expected
    assert changed == 1 + 5 * (len(model.FAMILY_KINDS) - 1)


@pytest.mark.parametrize("command", ["recognize", "verify"])
@pytest.mark.parametrize("flags, text", [
    (["--family", "xx"], "error: xx family needs an int x >= 1, got None\n"),
    (["--family", "unit", "--x", "2"], "error: family 'unit' takes no x parameter\n"),
], ids=["xx-without-x", "x-with-unit"])
def test_cli_family_is_checked_by_family_selector(tmp_path, command, flags, text):
    inputs = {"recognize": "a b\nb c\n", "verify": run_cli(["realize", "k53"])[1]}
    path = tmp_path / "input"
    path.write_text(inputs[command])
    assert run_cli([command, *flags, str(path)]) == (EXIT_ERROR, "", text)


def test_cli_gen_json():
    g = graphs.cycle(4)
    code, out, err = run_cli(["gen", "cycle", "--n", "4", "--format", "json"])
    assert (code, err) == (EXIT_YES, "")
    assert out == dump_json({"vertices": list(g.sorted_vertices()),
                             "edges": [list(e) for e in g.sorted_edges()]})
    obj = json.loads(out)
    assert graphs.Graph.build(obj["vertices"], [tuple(e) for e in obj["edges"]]) == g


def test_cli_recognize_circular_arc_emits_arcs(tmp_path):
    # the hub is peeled and comes back as a near-full arc
    g = graphs.wheel(5)
    edges = tmp_path / "wheel.edges"
    edges.write_text(to_edge_list(g))
    cert = tmp_path / "cert.json"
    code, out, err = run_cli(
        ["recognize", "--family", "circular-arc", "--emit", str(cert), str(edges)])
    assert (code, err) == (EXIT_YES, "") and out.startswith("member nodes=")
    ca = parse_representation(cert.read_text())
    assert isinstance(ca, model.CircularArcRep)
    assert cert.read_text() == dump_json(circular_to_json(ca))
    assert model.circular_intersection_graph(ca) == g


def _ends(lo, hi):
    return {"lo": lo, "hi": hi, "lo_closed": True, "hi_closed": True}


@pytest.mark.parametrize("obj, message", [
    ([1, 2], "top-level JSON value must be an object"),
    ({"vertices": {"a": {"left": _ends("0", "1")}}}, "/vertices/a must have left and right"),
    ({"vertices": {"a": {"left": _ends("0", "2"), "right": _ends("1", "3")}}},
     "/vertices/a: 2-interval halves intersect: [0, 2] [1, 3]"),
], ids=["array", "no-right", "halves-intersect"])
def test_parse_representation_rejects_malformed_vertices(obj, message):
    with pytest.raises(FormatError) as got:
        parse_representation(json.dumps(obj))
    assert str(got.value) == message


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="argparse's help texts differ between Python versions")
def test_cli_digest_pinned(monkeypatch):
    # one sha256 over every answer of tools/cli_digest.py's invocations:
    # a change to anything the CLI prints must re-pin it on purpose
    # (`tools/cli_digest.py --verbose` on both versions shows which
    # invocations changed)
    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", tool)
    cli_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digest)
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_digest.digest() == (
        "18ac54dc173a3a47e3bc35ff14ea052d442b9420112a571fc25dc98dfa48bc2b"
        "  347 invocations, 30 files")


def test_cli_digest_restores_columns(monkeypatch):
    # argparse's help is wrapped at 80 columns during the digest only; the
    # caller's COLUMNS, or its absence, is back afterwards
    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", tool)
    cli_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digest)
    monkeypatch.delenv("COLUMNS", raising=False)
    cli_digest.digest()
    assert "COLUMNS" not in os.environ
    monkeypatch.setenv("COLUMNS", "123")
    cli_digest.digest()
    assert os.environ["COLUMNS"] == "123"


@pytest.mark.parametrize("argv, code, stream, text", [
    (["recognize", "--family", "nope", "x"], EXIT_ERROR, "err", "invalid choice: 'nope'"),
    (["bogus"], EXIT_ERROR, "err", "usage: tik"),
    (["verify", "x"], EXIT_ERROR, "err", "the following arguments are required: --family"),
    (["--help"], EXIT_YES, "out", "exact 2-interval graph toolkit"),
    (["recognize", "--help"], EXIT_YES, "out", "usage: tik recognize"),
], ids=["bad-choice", "bad-command", "missing-option", "help", "command-help"])
def test_cli_parser_messages_use_the_given_streams(capsys, argv, code, stream, text):
    # argparse's usage errors land in err and its help in out, the streams
    # cli_main was given, and nothing in the process's own streams
    got, out, err = run_cli(argv)
    assert got == code
    assert text in {"out": out, "err": err}[stream]
    assert {"out": err, "err": out}[stream] == ""
    assert capsys.readouterr() == ("", "")


def test_cli_parser_is_built_once_and_keeps_no_streams(capsys):
    # the one parser serves every call: each call's help and usage errors
    # go to that call's streams only
    help_code, help_out, help_err = run_cli(["--help"])
    code, out, err = run_cli(["recognize", "--family", "nope", "x"])
    assert (help_code, help_err) == (EXIT_YES, "")
    assert help_out.startswith("usage: tik") and "exact 2-interval graph toolkit" in help_out
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("usage: tik recognize") and "invalid choice: 'nope'" in err
    assert capsys.readouterr() == ("", "")
    assert io_cli._parser() is io_cli._parser()


@pytest.mark.parametrize("argv", [
    ["recognize", "--family", "unit"],
    ["verify", "--family", "balanced"],
], ids=["recognize", "verify"])
def test_cli_missing_input_file(tmp_path, argv):
    # a mistyped path is an error, not the one-vertex graph it spells
    missing = str(tmp_path / "nonexistent")
    code, out, err = run_cli(argv + [missing])
    assert code == EXIT_ERROR
    assert out == ""
    assert err == f"error: no such file: {missing}\n"


def test_cli_input_text_is_not_a_path(tmp_path):
    # the file holds the one-vertex graph whose label names another file
    other = tmp_path / "other.edges"
    other.write_text("x y\n")
    g = tmp_path / "g.edges"
    g.write_text(str(other))
    code, out, _ = run_cli(["render", "dot", str(g)])
    assert code == EXIT_YES
    assert out == emit_dot(parse_graph(g.read_text()))
    assert '"x"' not in out


def test_cli_internal_error_is_not_a_verdict(tmp_path, monkeypatch):
    # a crash inside a command must exit 3, never 1 ("nonmember")
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(tik.recognize, "recognize", boom)
    p3 = tmp_path / "path3.edges"
    p3.write_text(to_edge_list(path(3)))
    code, out, err = run_cli(["recognize", "--family", "2interval", str(p3)])
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: internal: RuntimeError: boom\n"


def test_cli_reads_representation_text_not_a_named_file(tmp_path):
    # a file whose text is the path of a valid certificate is not JSON
    code, out, _ = run_cli(["realize", "k53"])
    assert code == EXIT_YES
    rep = tmp_path / "rep.json"
    rep.write_text(out)
    pointer = tmp_path / "pointer.txt"
    pointer.write_text(str(rep))
    for argv in (["verify", "--family", "balanced"], ["transform", "stretch"],
                 ["render", "svg"]):
        code, _, err = run_cli([*argv, str(pointer)])
        assert code == EXIT_ERROR, argv
        assert "not valid JSON" in err, argv


def test_cli_recognizes_path300_2interval(tmp_path):
    # the search is far deeper than the interpreter's recursion limit
    p300 = tmp_path / "path300.edges"
    p300.write_text(to_edge_list(path(300)))
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli([
        "recognize", "--family", "2interval", "--emit", str(cert), str(p300),
    ])
    assert code == EXIT_YES
    code, _, _ = run_cli(["verify", "--family", "2interval", str(cert)])
    assert code == EXIT_YES
    assert model.intersection_graph(parse_representation(cert.read_text())) == path(300)


def test_python_dash_m_tik():
    src = os.path.dirname(os.path.dirname(tik.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tik", "gen", "path", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_YES
    assert proc.stdout == run_cli(["gen", "path", "--n", "3"])[1]
