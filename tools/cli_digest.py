"""One sha256 over the `tik` command line's answers to a fixed list of
invocations, so that two versions of the CLI compare by one line.

Runs each invocation below through `io_cli.cli_main` in a fresh temporary
directory, well-formed ones and usage errors alike, with every `--help`
text, and hashes each one's argv, exit code, stdout and stderr (argparse's
own messages included), then every file the invocations wrote:

    PYTHONPATH=src python3 tools/cli_digest.py

To compare with another version, point PYTHONPATH at its `src`; with
`--verbose` it prints one sha256 per invocation as well, to find where
two versions part.  Inputs are relative paths in the temporary directory
and help texts are 80 columns wide, so the line does not depend on where
or in which terminal it runs.  It takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import tempfile

from tik.io_cli import cli_main

# input files written before the invocations run
INPUTS = {
    "p3.edges": "a b\nb c\n",
    "c5.edges": "v1 v2\nv2 v3\nv3 v4\nv4 v5\nv1 v5\n",
    "k23.edges": "s1 t1\ns1 t2\ns1 t3\ns2 t1\ns2 t2\ns2 t3\n",
    "lone.edges": "x\n",
    "bad.edges": "a b c\n",
    "loop.edges": "a a\n",
    "arcs.json": (
        '{"circumference": "8", "arcs": {'
        '"v1": {"start": "0", "end": "3"}, "v2": {"start": "2", "end": "5"},'
        '"v3": {"start": "4", "end": "7", "end_closed": false},'
        '"v4": {"start": "6", "end": "1", "start_closed": false}}}'
    ),
    "no-arcs.json": '{"circumference": "8", "arcs": {}}',
    "nested-arcs.json": (
        '{"circumference": "10", "arcs": {'
        '"big": {"start": "0", "end": "6"}, "small": {"start": "1", "end": "3"}}}'
    ),
    "cut-nest.json": (
        '{"circumference": "10", "arcs": {'
        '"big": {"start": "7", "end": "3"}, "small": {"start": "8", "end": "2"},'
        '"far": {"start": "4", "end": "6"}}}'
    ),
    "tied-arcs.json": (
        '{"circumference": "8", "arcs": {'
        '"a": {"start": "1", "end": "4"}, "b": {"start": "1", "end": "3"},'
        '"c": {"start": "5", "end": "7"}}}'
    ),
    "nested.json": '{"circumference": "8", "arcs": {"a": {"start": "0", "end": "9"}}}',
    "list.json": "[1, 2]",
    "broken.json": "{nope",
    "empty.json": '{"vertices": {}}',
}

# names written out rather than read from io_cli, so that every version
# compared runs the same list
GEN_KINDS = [
    "k53", "k44e", "cycle", "path", "wheel", "domino", "kneser",
    "complete-bipartite", "petersen", "unbalanced-chain", "c4-anchored",
    "xx-separator",
]
GEN_FLAGS = [
    "", "--n 5", "--n 6 --k 2", "--m 2 --n 3", "--x 2", "--n 5 --format dot",
    "--n 5 --format json", "--m 2 --n 3 --k 1 --x 2 --format json", "--n 0",
]
FAMILIES = [
    "--family 2interval", "--family balanced", "--family unit",
    "--family unit-interval", "--family interval", "--family circular-arc",
    "--family xx --x 1", "--family xx --x 2",
]

# one invocation a line; "> name" saves its stdout to that file
SCRIPT = [
    f"gen {kind} {flags}" for kind in GEN_KINDS for flags in GEN_FLAGS
] + [
    "gen domino > domino.edges",
    "gen wheel --n 5 > w5.edges",
    "gen petersen > petersen.edges",
    "gen complete-bipartite --m 3 --n 3 > k33.edges",
    "gen k53 > k53.edges",
    "gen unbalanced-chain > chain.edges",
    "realize k53 > k53.json",
    "realize k44e > k44e.json",
    "realize unbalanced-chain > chain.json",
    "realize xx-separator --x 2 > sep2.json",
    "realize xx-separator --x 3",
    "realize xx-separator",
    "realize xx-separator --x 0",
    "realize bogus",
    "realize k53 --x 2",
] + [
    f"recognize {family} {graph}"
    for graph in ("p3.edges", "c5.edges", "k23.edges", "domino.edges", "lone.edges")
    for family in FAMILIES
] + [
    "recognize --family unit --emit domino-unit.json domino.edges",
    "recognize --family circular-arc --emit c5-arcs.json c5.edges",
    "recognize --family xx --x 2 --emit k23-xx2.json k23.edges",
    "recognize --family unit --emit . p3.edges",
    "recognize --family balanced --budget 100000 k53.edges",
    "recognize --family unit --budget 100 domino.edges",
    "recognize --family balanced chain.edges",
    "recognize --family unit --budget 0 domino.edges",
    "recognize --family xx p3.edges",
    "recognize --family unit --x 2 p3.edges",
    "recognize --family bogus p3.edges",
    "recognize --family unit missing.edges",
    "recognize --family unit bad.edges",
    "recognize --family unit loop.edges",
    "recognize --family unit",
] + [
    f"verify {family} {rep}"
    for rep in ("k53.json", "k44e.json", "sep2.json", "domino-unit.json",
                "c5-arcs.json", "empty.json")
    for family in FAMILIES
] + [
    "verify --family balanced chain.json",
    "verify --family unit list.json",
    "verify --family unit broken.json",
    "verify --family unit nested.json",
    "verify --family unit p3.edges",
    "verify --family unit missing.json",
    "transform ca-to-balanced arcs.json",
    "transform ca-to-balanced --cut 1/2 arcs.json",
    "transform ca-to-unit arcs.json",
    "transform ca-to-unit c5-arcs.json",
    "transform ca-to-unit nested-arcs.json",
    "transform ca-to-unit --cut 9 cut-nest.json",
    "transform ca-to-unit tied-arcs.json",
    "transform ca-to-balanced k53.json",
    "transform stretch sep2.json",
    "transform dilate --factor 1 --shift 7 sep2.json > sep2-shifted.json",
    "transform stretch sep2-shifted.json",
    "transform stretch k53.json",
    "transform stretch arcs.json",
    "transform stretch no-arcs.json",
    "transform dilate --factor 2 --shift 1/2 k53.json",
    "transform dilate --factor 0 k53.json",
    "transform dilate k53.json",
    "transform dilate --factor 2 arcs.json",
    "transform unit-to-xx domino-unit.json",
    "transform unit-to-xx k53.json",
    "transform unit-to-xx arcs.json",
    "transform bogus k53.json",
    "transform stretch --factor 2 sep2.json",
    "transform unit-to-xx --shift 1 domino-unit.json",
    "transform ca-to-unit --factor 2 arcs.json",
    "transform dilate --factor 2 --cut 1 k53.json",
    "transform dilate --factor 2 --shift -1/2 k53.json",
    "transform dilate --factor -1/2 k53.json",
    "transform ca-to-balanced --cut 1/2 --shift 1 arcs.json",
    "reduce hc-balanced k33.edges",
    "reduce hc-balanced --cycle s1,t1,s2,t2,s3,t3 --emit witness.json k33.edges",
    "reduce hc-balanced --cycle s1,s2,t1,t2,s3,t3 k33.edges",
    "reduce hc-balanced --emit no-cycle.json k33.edges",
    "reduce hc-balanced --cycle= k33.edges",
    "reduce hc-balanced --cycle= --emit empty-cycle.json k33.edges",
    "reduce hc-balanced c5.edges",
    "reduce coloring-simplicial --k 2 c5.edges",
    "reduce coloring-simplicial --k 2 --emit x.json --cycle v1,v2 c5.edges",
    "reduce coloring-simplicial --k 0 c5.edges",
    "reduce coloring-simplicial c5.edges",
    "reduce hc-balanced --k 2 k33.edges",
] + [
    f"check {op} {graph}"
    for graph in ("p3.edges", "c5.edges", "w5.edges", "petersen.edges", "k53.edges")
    for op in ("all-k-simplicial --k 1", "all-k-simplicial --k 2",
               "all-k-simplicial --k 3", "k1t-free --t 2", "k1t-free --t 3",
               "k1t-free --t 6", "k-colorable --k 0", "k-colorable --k 2",
               "k-colorable --k 3")
] + [
    "check all-k-simplicial c5.edges",
    "check all-k-simplicial --k 0 c5.edges",
    "check k1t-free --k 3 c5.edges",
    "check k1t-free --t 3 --k 2 c5.edges",
    "check k1t-free --t 0 c5.edges",
    "check k-colorable --t 3 c5.edges",
    "check k-colorable --k -1 c5.edges",
    "check k-colorable --k 2 missing.edges",
    "check bogus --k 2 c5.edges",
    "render dot k53.edges",
    "render dot lone.edges",
    "render svg k53.json",
    "render svg empty.json",
    "render svg arcs.json",
    "render png k53.json",
    "",
    "bogus",
    "gen",
    "gen bogus",
    "gen cycle --n x",
] + [
    f"{command} --help"
    for command in ("", "gen", "realize", "verify", "recognize", "transform",
                    "reduce", "check", "render")
]


def _run(argv):
    """(exit code, stdout, stderr) of one invocation, argparse's own
    output included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def digest(verbose: bool = False) -> str:
    h = hashlib.sha256()
    home = os.getcwd()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in INPUTS.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            for line in SCRIPT:
                command, _, save = line.partition(" > ")
                argv = command.split()
                code, out, err = _run(argv)
                one = hashlib.sha256(repr((argv, code, out, err)).encode())
                h.update(one.digest())
                if verbose:
                    print(f"{one.hexdigest()[:16]}  {code}  {command}")
                if save:
                    with open(save, "w", encoding="utf-8") as fh:
                        fh.write(out)
            names = sorted(os.listdir("."))
            for name in names:
                with open(name, "rb") as fh:
                    h.update(repr((name, fh.read())).encode())
        finally:
            os.chdir(home)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
    return f"{h.hexdigest()}  {len(SCRIPT)} invocations, {len(names)} files"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="also print one sha256 per invocation")
    args = parser.parse_args(argv)
    print(digest(args.verbose))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
