"""congrlab's argv is read off one verb table, cli.VERBS, by cli._parse;
the argparse parser that cli.make_parser builds from the same table is asked
only for what _parse declines.  The hand-written parser the table replaced
is kept here as the oracle: the table-built parser must print its help and
usage, and _parse must answer as it does or decline."""

import argparse
import io
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from congrlab import cli
from congrlab.fixtures import FIXTURE_NAMES
from test_spec_properties import BOUNDED

README = Path(__file__).resolve().parent.parent / "README.md"


def oracle_parser() -> argparse.ArgumentParser:
    """The parser as it was written by hand, verb by verb."""
    ap = argparse.ArgumentParser(
        prog="congrlab",
        description=cli.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def input_args(p):
        p.add_argument("--fixture", help="named example algebra")
        p.add_argument("--file", help="path to an algebra spec (JSON)")
        max_size(p)

    def max_size(p):
        p.add_argument("--max-size", type=int, default=None, help="refuse larger inputs")

    def verb(name, help, formats=True):
        p = sub.add_parser(name, help=help)
        if formats:
            p.add_argument("--format", choices=("table", "json", "dot"), default="table")
        p.add_argument("--out", help="write output to a file instead of stdout")
        return p

    p = verb("con", "list the congruence lattice")
    input_args(p)
    p = verb("center", "list the Boolean congruences")
    input_args(p)
    p = verb("fc", "list the factor congruences")
    input_args(p)
    p = verb("quotient", "compute a quotient algebra")
    input_args(p)
    p.add_argument("--by", required=True, help='congruence as blocks, e.g. "0,m|1"')
    p = verb("product", "direct product of algebras")
    p.add_argument("operands", nargs="+", help="fixture names or spec files")
    max_size(p)
    p = verb("osum", "ordinal sum of two lattices")
    p.add_argument("operands", nargs=2, help="fixture names or spec files")
    max_size(p)
    p = verb("dual", "order-dual of a lattice")
    input_args(p)
    p = verb("check", "decide a property (exit 0 holds / 1 fails)", formats=False)
    p.add_argument("property", choices=cli.CHECK_PROPERTIES)
    input_args(p)
    p = verb("report", "full lifting/classification report")
    input_args(p)
    p = verb("fixture", "show a named fixture")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.add_argument("--emit-spec", action="store_true", help="print the full table spec")
    p = verb("dot", "Hasse diagram of the algebra itself (DOT)", formats=False)
    input_args(p)
    p = sub.add_parser("regen-goldens", help="recompute all golden files")
    p.add_argument("--out", default="goldens", help="golden directory")
    return ap


def subparsers(ap):
    (action,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def answer(parser, argv):
    """What parser.parse_args(argv) returns as a dict, or how it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


# -- the table-built parser is the hand-written one -----------------------------------


def test_the_table_builds_the_hand_written_parser():
    built, oracle = cli.make_parser(), oracle_parser()
    assert built.format_help() == oracle.format_help()
    assert built.format_usage() == oracle.format_usage()
    built_verbs, oracle_verbs = subparsers(built), subparsers(oracle)
    assert list(built_verbs) == list(oracle_verbs) == list(cli.VERBS)
    for name, p in oracle_verbs.items():
        assert built_verbs[name].format_help() == p.format_help(), name
        assert built_verbs[name].format_usage() == p.format_usage(), name


# -- _parse answers as argparse does, or declines ---------------------------------------

OPTIONS = sorted({opt[0] for _, _, options in cli.VERBS.values() for opt in options})
VALUES = ["json", "yaml", "table", "dot", "fclp", "crt", "5", "-5", "+5", "05", "٥", "", "H", "T", "0,m|1", "x.json"]
STRAY = ["--form", "--file=x", "-h", "--help", "--", "-", "--emit", "nosuch"]


def fitting(kind):
    """Values of an option's kind."""
    return kind if isinstance(kind, tuple) else ["5", "05", "12"] if kind is int else ["H", "x.json", "", "a b"]


@st.composite
def argvs(draw):
    """A well-formed argv (the verb, positionals of its shape, some of its
    options once each with values of their kinds), then up to two edits: a
    slice of at most one token replaced by a stray token, by any value, or
    by any option with or without a value.  So options repeat, values go
    missing, choices and numbers go bad and positionals move."""
    verb = draw(st.sampled_from(list(cli.VERBS)))
    _, positional, options = cli.VERBS[verb]
    argv = [verb]
    if positional:
        shape = positional[1]
        if isinstance(shape, tuple):
            argv.append(draw(st.sampled_from(shape)))
        else:
            argv += draw(st.lists(st.sampled_from(FIXTURE_NAMES), min_size=1 if shape == "+" else 2, max_size=2))
    for flag, kind, default, _ in draw(st.permutations(options)):
        if default is cli.REQUIRED or draw(st.booleans()):
            argv += [flag] if kind is bool else [flag, draw(st.sampled_from(fitting(kind)))]
    value = st.sampled_from(VALUES)
    tokens = st.one_of(
        st.tuples(st.sampled_from(STRAY)),
        st.tuples(value),
        st.tuples(st.sampled_from(OPTIONS)),
        st.tuples(st.sampled_from(OPTIONS), value),
    )
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        argv[i : i + draw(st.integers(0, 1))] = draw(tokens)
    return argv


@BOUNDED
@given(argvs())
def test_parse_answers_as_argparse_or_declines(argv):
    got = cli._parse(argv)
    if got is not None:
        assert answer(cli.make_parser(), argv) == vars(got), argv


def readme_commands():
    """The argv of each command of the README's "Command line" block."""
    text = README.read_text()
    block = text[text.index("## Command line") :]
    block = block[block.index("```text\n") + 8 : block.index("\n```")]
    return [shlex.split(line.partition("#")[0])[1:] for line in block.splitlines()]


# the argv shapes the benchmark issues: every CLI_VERBS entry of
# bench/worker.py with --file, and large_reports' report and product
BENCH_ARGVS = [
    [*verb, "--file", "spec.json"]
    for verb in (
        ["con"], ["center"], ["fc"], ["report"], ["report", "--format", "json"], ["con", "--format", "dot"],
        ["dual"], ["check", "fclp"], ["check", "cblp"], ["check", "fc-normal"], ["check", "b-normal"],
    )
] + [["product", "T", "E"]]


def refuse():
    raise AssertionError("an argparse parser was built")


@pytest.mark.parametrize("argv", BENCH_ARGVS + readme_commands(), ids=" ".join)
def test_the_benchmark_and_readme_argv_build_no_parser(argv, monkeypatch):
    want = answer(oracle_parser(), argv)
    monkeypatch.setattr(cli, "make_parser", refuse)
    assert vars(cli._parse(argv)) == want


def test_main_reads_a_plain_argv_without_a_parser(monkeypatch, capsys):
    monkeypatch.setattr(cli, "make_parser", refuse)
    assert cli.main(["check", "fclp", "--fixture", "L3"]) == 0
    assert capsys.readouterr().out == "FCLP: yes; CBLP: yes\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["con", "--help"],
        ["con", "--form", "json", "--fixture", "L3"],
        ["con", "--fixture=L3"],
        ["con", "--fixture", "L3", "--fixture", "L3"],
        ["con", "--", "--fixture", "L3"],
        ["con", "--fixture", "L3", "--max-size", "-5"],
        ["con", "--fixture", "L3", "--max-size", "+5"],
        ["con", "--fixture", "L3", "--max-size", "٥"],
        ["con", "--fixture", "L3", "--max-size", "x"],
        ["con", "--fixture", "-"],
        ["product", "-5"],
        ["product", "T", "--max-size", "9", "E"],
        ["osum", "T"],
        ["nosuch"],
        [],
        ["quotient", "--fixture", "L3"],
        ["check", "yaml", "--fixture", "L3"],
        ["con", "--format", "yaml", "--fixture", "L3"],
        ["fixture", "--emit-spec", "R0"],
    ],
    ids=" ".join,
)
def test_a_declined_argv_is_argparse_s_to_read_or_refuse(argv, capsys):
    assert cli._parse(argv) is None
    want = answer(oracle_parser(), argv)
    if isinstance(want, dict):
        assert answer(cli.make_parser(), argv) == want
    else:  # main exits with the parser's code and words
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert (exc.value.code, *capsys.readouterr()) == want
