import io
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import mixed_star_rep, random_circular_rep, random_closed_rep, random_graph
import tik
from tik import model
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
from tik.model import BALANCED


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_graph_text_and_file(tmp_path):
    g = parse_graph("a b\nb c")
    assert g.n == 3
    path = tmp_path / "g.edges"
    path.write_text("a b\nb c\n")
    assert parse_graph(str(path)) == g


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


def test_cli_budget_env_default(monkeypatch, tmp_path):
    dom = tmp_path / "domino.edges"
    from tik.graphs import domino

    dom.write_text(to_edge_list(domino()))
    monkeypatch.setenv("TIK_BUDGET_DEFAULT", "100")
    code, _, _ = run_cli(["recognize", "--family", "unit", str(dom)])
    assert code == EXIT_INCONCLUSIVE
    monkeypatch.setenv("TIK_BUDGET_DEFAULT", "bogus")
    code, _, err = run_cli(["recognize", "--family", "unit", str(dom)])
    assert code == EXIT_ERROR and "TIK_BUDGET_DEFAULT" in err


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
    assert out == emit_dot(parse_graph(str(g)))
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
