import hashlib
import json
import time
from pathlib import Path

import pytest

from congrlab import cli
from congrlab.algebra import build_from_spec, direct_product, emit_spec
from congrlab.cli import main
from congrlab.fixtures import FIXTURE_NAMES, fixture
from sweep import sweep
from test_join_irreducible_masks import cold

REPO_GOLDENS = Path(__file__).resolve().parent.parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check verb -------------------------------------------------------------


def test_check_fclp_on_h(capsys):
    code, out, _ = run(capsys, "check", "fclp", "--fixture", "H")
    assert code == 0
    assert "FCLP: yes; CBLP: no" in out


def test_check_writes_its_lines_to_out(capsys, tmp_path):
    path = tmp_path / "F"
    assert run(capsys, "check", "fclp", "--fixture", "H", "--out", str(path)) == (0, "", "")
    assert path.read_text() == "FCLP: yes; CBLP: no\n"


@pytest.mark.parametrize("argv", [["check", "fclp", "--fixture", "H"], ["dot", "--fixture", "P"]])
def test_verbs_that_print_one_format_refuse_format(capsys, argv):
    # check prints its verdict lines and dot prints DOT, whatever was asked
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_check_cblp_on_h_fails_with_evidence(capsys):
    code, out, _ = run(capsys, "check", "cblp", "--fixture", "H")
    assert code == 1
    assert "failing congruence: 0|a|b|c|y,z|x|1" in out


def test_check_fclp_on_x_fails(capsys):
    code, out, _ = run(capsys, "check", "fclp", "--fixture", "X")
    assert code == 1
    assert "FCLP: no; CBLP: yes" in out
    assert "failing congruence: 0|p|q|r,s,t,u,1" in out


def test_check_on_trivial_algebra(capsys):
    code, out, _ = run(capsys, "check", "fclp", "--fixture", "L1")
    assert code == 0
    assert "FCLP: yes; CBLP: yes" in out


def test_check_blp_variants(capsys, tmp_path):
    assert run(capsys, "check", "blp", "--fixture", "R0")[0] == 0
    code, out, _ = run(capsys, "check", "blp", "--fixture", "L2osumL2x2")
    assert code == 1 and "failing congruence" in out
    assert run(capsys, "check", "filt-blp", "--fixture", "L2osumL2x2") == (0, "Filt-BLP: yes\n", "")
    code, out, _ = run(capsys, "check", "id-blp", "--fixture", "L2osumL2x2")
    assert (code, out) == (1, "Id-BLP: no\nfailing congruence: 0,c|a|b|1\n")
    code, out, _ = run(capsys, "check", "id-blp", "--fixture", "R0")
    assert (code, out) == (1, "Id-BLP: no\nfailing congruence: 0,c|a|b|1\n")
    square_then_top = tmp_path / "L2x2osumL2.json"  # the order dual of L2osumL2x2
    cover = [["0", "a"], ["0", "b"], ["a", "c"], ["b", "c"], ["c", "1"]]
    square_then_top.write_text(json.dumps({"kind": "lattice", "elements": ["0", "a", "b", "c", "1"], "cover": cover}))
    code, out, _ = run(capsys, "check", "filt-blp", "--file", str(square_then_top))
    assert (code, out) == (1, "Filt-BLP: no\nfailing congruence: 0|a|b|c,1\n")
    assert run(capsys, "check", "id-blp", "--file", str(square_then_top)) == (0, "Id-BLP: yes\n", "")
    code, out, err = run(capsys, "check", "blp", "--fixture", "D")
    assert (code, out, err) == (2, "", "error: element a has several complements: b, c\n")


def test_check_normality(capsys):
    assert run(capsys, "check", "fc-normal", "--fixture", "T")[0] == 0
    code, out, _ = run(capsys, "check", "b-normal", "--fixture", "P")
    assert code == 1 and "failing pair" in out


def test_check_arithmetical(capsys):
    assert run(capsys, "check", "arithmetical", "--fixture", "E")[0] == 0
    assert run(capsys, "check", "arithmetical", "--fixture", "S")[0] == 1


def test_check_crt(capsys):
    code, out, _ = run(capsys, "check", "crt", "--fixture", "L3")
    assert code == 0
    assert "characterization yes, direct yes" in out


def test_check_crt_refuses_too_many_target_tuples(capsys, tmp_path):
    # L2^5 has 32 factor congruences, so the triples alone give
    # C(34, 3)·32³ target tuples; the count is refused before the walk
    path = tmp_path / "L2^5.json"
    path.write_text(json.dumps(emit_spec(direct_product([fixture("L2")] * 5))))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "crt", "--file", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: direct CRT check would walk 196624384 target tuples; capped at 5000000\n"


# -- listings ---------------------------------------------------------------


def test_con_table_lists_the_pentagon(capsys):
    code, out, _ = run(capsys, "con", "--fixture", "P")
    assert code == 0
    assert "|Con|=5, |B|=2, |FC|=2" in out
    assert "0|x|y,z|1" in out
    assert out.count("\n") >= 7  # header + counts + column row + 5 congruences


def test_center_and_fc_listings(capsys):
    code, out, _ = run(capsys, "center", "--fixture", "X")
    assert code == 0
    assert out.count("yes") >= 8
    code, out, _ = run(capsys, "fc", "--fixture", "X")
    assert code == 0
    lines = out.splitlines()
    header = next(i for i, l in enumerate(lines) if l.startswith("congruence"))
    assert len(lines) - header - 1 == 2  # only the bounds are factor congruences


@pytest.mark.parametrize(
    "name,rendered",
    [
        ("X", {"con": 8, "center": 8, "fc": 2}),
        ("R0", {"con": 5, "center": 2, "fc": 2}),
    ],
)
def test_a_listing_renders_only_what_it_prints(capsys, monkeypatch, name, rendered):
    # a row's block string is made only for a row printed, and the DOT
    # diagram, which labels every node, reads no row
    from congrlab.congruences import Congruence

    calls, block_string = [0], Congruence.block_string

    def counted(self, over=None):
        calls[0] += 1
        return block_string(self, over)

    monkeypatch.setattr(Congruence, "block_string", counted)
    size = len(cli.all_congruences(fixture(name)))
    for verb, count in rendered.items():
        for fmt, want in (("table", count), ("json", count), ("dot", size)):
            calls[0] = 0
            code, _, _ = run(capsys, verb, "--fixture", name, "--format", fmt)
            assert code == 0 and calls[0] == want, (verb, fmt, calls[0])


def test_quotient_verb(capsys):
    code, out, _ = run(capsys, "quotient", "--fixture", "S", "--by", "0|a|b|c|x,1")
    assert code == 0
    assert "(5 elements" in out
    assert "x+1" in out


def test_dual_verb(capsys):
    code, out, _ = run(capsys, "dual", "--fixture", "L3")
    assert code == 0
    assert "covers:" in out


def test_product_verb_counts(capsys):
    code, out, _ = run(capsys, "product", "T", "E")
    assert code == 0
    assert "|Con|=24, |B|=16, |FC|=4" in out
    assert "isomorphism: yes" in out


def test_osum_verb_shows_divergence(capsys):
    code, out, _ = run(capsys, "osum", "L2x2", "D")
    assert code == 0
    assert "glued factor congruences: 8, factor congruences of the sum: 2 -> DIFFERENT" in out


# -- formats ----------------------------------------------------------------


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "report", "--fixture", "P", "--format", "json")
    _, out2, _ = run(capsys, "report", "--fixture", "P", "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["algebra"] == "P"
    assert doc["flags"]["fclp"] is False


def test_dot_output_contains_legend_and_shapes(capsys):
    _, out, _ = run(capsys, "con", "--fixture", "L3", "--format", "dot")
    assert "doublecircle = Boolean congruence" in out
    assert "doublecircle" in out
    assert "rankdir=BT" in out


def test_fixture_emit_spec_round_trips(capsys):
    _, out, _ = run(capsys, "fixture", "R0", "--emit-spec")
    A = build_from_spec(json.loads(out))
    assert A == fixture("R0")


def test_out_writes_a_file(tmp_path, capsys):
    target = tmp_path / "p.json"
    code, out, _ = run(capsys, "report", "--fixture", "P", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["algebra"] == "P"


# -- error handling ---------------------------------------------------------


def test_error_when_both_inputs_given(tmp_path, capsys):
    spec = tmp_path / "a.json"
    spec.write_text(json.dumps(emit_spec(fixture("L2"))))
    code, _, err = run(capsys, "con", "--fixture", "L2", "--file", str(spec))
    assert code == 2 and "error:" in err


def test_error_when_no_input_given(capsys):
    code, _, err = run(capsys, "con")
    assert code == 2 and "error:" in err


def test_error_on_unknown_fixture(capsys):
    code, _, err = run(capsys, "con", "--fixture", "nosuch")
    assert code == 2 and "error:" in err


def test_error_on_bad_quotient_blocks(capsys):
    code, _, err = run(capsys, "quotient", "--fixture", "L3", "--by", "0,1|m")
    assert code == 2 and "error:" in err


def test_error_on_missing_file(capsys):
    code, _, err = run(capsys, "con", "--file", "/nonexistent/spec.json")
    assert code == 2 and "error:" in err


def test_max_size_limit(capsys):
    code, _, err = run(capsys, "con", "--fixture", "X", "--max-size", "4")
    assert code == 2 and "above the requested limit" in err


MALFORMED_SPECS = {
    "truncated": '{"elements": ["0", "1"], "cover": [["0", "1"]',
    "cover-pair-not-a-list": '{"elements": ["0", "1"], "cover": [1]}',
    "empty-table": '{"elements": ["0", "1"], "operations": {"f": []}}',
    "operations-not-an-object": '{"elements": ["0", "1"], "operations": [["0"]]}',
    "not-utf8": b"\xff\xfe",
    "name-not-a-string": '{"name": ["x"], "kind": "lattice", "elements": ["0", "1"], "cover": [["0", "1"]]}',
    "cover-with-operations": '{"elements": ["0", "1"], "cover": [["0", "1"]], "operations": {"f": ["1", "0"]}}',
    "cover-with-constants": '{"elements": ["0", "1"], "cover": [["0", "1"]], "constants": {"c": "0"}}',
    # labels that the block syntax "a,b|c" of con and quotient --by cannot read back
    "label-with-comma": '{"kind": "lattice", "elements": ["a,b", "c", "d"], "cover": [["a,b", "c"], ["c", "d"]]}',
    "label-with-bar": '{"elements": ["a|b", "c"], "cover": [["a|b", "c"]]}',
    "empty-label": '{"elements": ["", "c"], "cover": [["", "c"]]}',
    "label-with-leading-space": '{"elements": [" a", "c"], "cover": [[" a", "c"]]}',
    "label-with-trailing-space": '{"elements": ["a", "c\\t"], "operations": {"f": ["a", "c\\t"]}}',
    # a spec declared a lattice stays one, and a lattice needs its cover, "cover": [] at one element
    "one-element-lattice-without-tables": '{"kind": "lattice", "elements": ["a"]}',
    "one-element-bounded-lattice-without-tables": '{"kind": "bounded-lattice", "elements": ["a"]}',
    "one-element-residuated-without-tables": '{"kind": "residuated", "elements": ["a"]}',
}


@pytest.mark.parametrize("verb", ["con", "product", "report"])
@pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
def test_malformed_spec_exits_2_with_one_error_line(tmp_path, capsys, verb, name):
    spec = tmp_path / "bad.json"
    text = MALFORMED_SPECS[name]
    spec.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = ["product", "L2", str(spec)] if verb == "product" else [verb, "--file", str(spec)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_a_quotient_spec_reads_back(tmp_path, capsys):
    # quotient labels join their class with "+", which the block syntax keeps
    code, out, _ = run(capsys, "quotient", "--fixture", "L3", "--by", "0,m|1", "--format", "json")
    assert code == 0 and json.loads(out)["elements"] == ["0+m", "1"]
    spec = tmp_path / "q.json"
    spec.write_text(out)
    assert run(capsys, "quotient", "--file", str(spec), "--by", "0+m,1") == (
        0, "algebra: L3/0,m|1/0+m,1 (1 elements, kind lattice)\nelements: 0+m+1\ncovers: \n", ""
    )


def test_max_size_is_checked_before_the_spec_is_built(tmp_path, capsys):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"elements": [str(e) for e in range(6)], "operations": {"f": []}}))
    code, _, err = run(capsys, "con", "--file", str(spec), "--max-size", "5")
    assert code == 2 and "6 elements, above the requested limit 5" in err


@pytest.mark.parametrize(
    "argv,limit,message",
    [
        (["product", "T", "E"], 42, "the product has 42 elements"),  # 7 * 6
        (["product", "L2", "L2", "L2"], 8, "the product has 8 elements"),
        (["osum", "L2x2", "D"], 8, "the ordinal sum has 8 elements"),  # 4 + 5 - 1
    ],
)
def test_product_and_osum_take_max_size(capsys, argv, limit, message):
    code, out, err = run(capsys, *argv, "--max-size", str(limit - 1))
    assert code == 2 and out == ""
    assert err == f"error: {message}, above the requested limit {limit - 1}\n"
    assert run(capsys, *argv, "--max-size", str(limit))[0] == 0


@pytest.mark.parametrize("argv", [["product", "L2", "T"], ["osum", "T", "L2"]])
def test_each_operand_is_checked_against_max_size(capsys, argv):
    # T has 7 elements; the result would have 14 and 8
    code, out, err = run(capsys, *argv, "--max-size", "6")
    assert code == 2 and out == ""
    assert err == "error: input has 7 elements, above the requested limit 6\n"


def test_operand_max_size_is_checked_before_the_spec_is_built(tmp_path, capsys):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"elements": [str(e) for e in range(6)], "operations": {"f": []}}))
    code, _, err = run(capsys, "product", "L2", str(spec), "--max-size", "5")
    assert code == 2 and err == "error: input has 6 elements, above the requested limit 5\n"


def test_file_input_works(tmp_path, capsys):
    spec = tmp_path / "a.json"
    spec.write_text(json.dumps(emit_spec(fixture("P"))))
    code, out, _ = run(capsys, "con", "--file", str(spec))
    assert code == 0 and "|Con|=5" in out


@pytest.mark.parametrize("kind", [None, "algebra"])
def test_a_cover_spec_of_kind_algebra_is_a_lattice(tmp_path, capsys, kind):
    # a cover describes a lattice, so the square with no kind, or of kind
    # algebra, prints what the same cover of kind lattice does
    square = {"elements": ["0", "a", "b", "1"], "cover": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}
    given, lattice = tmp_path / "given.json", tmp_path / "lattice.json"
    given.write_text(json.dumps(square if kind is None else {"kind": kind, **square}))
    lattice.write_text(json.dumps({"kind": "lattice", **square}))
    for verb in ("dual", "report"):
        got = run(capsys, verb, "--file", str(given))
        assert got[0] == 0 and got == run(capsys, verb, "--file", str(lattice)), verb
    assert "kind lattice" in run(capsys, "report", "--file", str(given))[1]


def test_only_the_fixture_itself_gets_the_ordinal_sum_section(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"name": "T", "kind": "lattice", "elements": ["0", "1"], "cover": [["0", "1"]]}))
    code, out, _ = run(capsys, "report", "--file", str(chain))
    assert code == 0 and "ordinal-sum split" not in out
    _, spec, _ = run(capsys, "fixture", "T", "--emit-spec")
    copy = tmp_path / "t.json"
    copy.write_text(spec)
    for source in (["--fixture", "T"], ["--file", str(copy)]):
        code, out, _ = run(capsys, "report", "--format", "json", *source)
        assert code == 0 and json.loads(out)["osum_fc_transport"]["parts"] == ["L2", "D", "L2"]


# -- goldens ----------------------------------------------------------------


def test_goldens_match_regeneration(tmp_path, capsys):
    code, out, _ = run(capsys, "regen-goldens", "--out", str(tmp_path))
    assert code == 0
    fresh = sorted(p.name for p in tmp_path.iterdir())
    stored = sorted(p.name for p in REPO_GOLDENS.iterdir())
    assert fresh == stored
    for name in fresh:
        assert (tmp_path / name).read_bytes() == (REPO_GOLDENS / name).read_bytes(), name


def test_golden_report_contains_the_headline_verdicts():
    text = (REPO_GOLDENS / "E.report.txt").read_text()
    assert "CBLP: yes, FCLP: yes" in text
    text = (REPO_GOLDENS / "X.report.txt").read_text()
    assert "-> DIFFERENT" in text


# -- no disk cache ----------------------------------------------------------


def test_a_stale_cache_variable_is_ignored(tmp_path, monkeypatch, capsys):
    # congrlab reads no CONGRLAB_CACHE: naming a regular file changes nothing
    stale = tmp_path / "not-a-directory"
    stale.write_text("")
    monkeypatch.setenv("CONGRLAB_CACHE", str(stale))
    code, out, _ = run(capsys, "con", "--fixture", "L3")
    assert code == 0 and "|Con|=4" in out
    assert [p.name for p in tmp_path.iterdir()] == [stale.name]


# -- one parser per process -----------------------------------------------------


def test_the_cached_parser_answers_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    from congrlab import cli

    assert cli.make_parser() is cli.make_parser()
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "lattice", "elements": ["0", "1"], "cov')
    calls = [
        ["con", "--fixture", "L3", "--format", "json"],
        ["con", "--fixture", "L3"],
        ["report", "--fixture", "H", "--out", str(tmp_path / "H.txt")],
        ["report", "--fixture", "H"],
        ["center", "--fixture", "E", "--format", "dot"],
        ["check", "cblp", "--fixture", "H"],
        ["check", "fclp", "--fixture", "L3", "--max-size", "2"],
        ["check", "fclp", "--fixture", "L3"],
        ["con", "--file", str(bad)],
        ["product", "L2", "L3", "--format", "json"],
        ["fixture", "L3", "--emit-spec"],
        ["fixture", "L3"],
        ["quotient", "--fixture", "L3", "--by", "0,m|1"],
        ["dual", "--fixture", "P", "--format", "json"],
        ["check", "no-such-property", "--fixture", "L3"],
        ["con", "--fixture", "L3", "--format", "dot"],
    ]

    def answers():
        out = []
        for argv in calls:
            try:
                out.append(run(capsys, *argv))
            except SystemExit as exc:  # argparse refuses the arguments
                out.append((exc.code, *capsys.readouterr()))
            if "--out" in argv:
                out.append((tmp_path / "H.txt").read_text())
        return out

    cached = answers()
    monkeypatch.setattr(cli, "make_parser", cli.make_parser.__wrapped__)
    assert cached == answers()
    assert [r[0] for r in cached if isinstance(r, tuple)] == [0, 0, 0, 0, 0, 1, 2, 0, 2, 0, 0, 0, 0, 0, 2, 0]


# -- the sweep's output, pinned ---------------------------------------------------

# sha256 over the exit code, stdout and stderr of every verb below on the 225
# sweep lattices and the 16 fixtures, each freshly built, taken before the
# lifting verdicts were read as indices
SWEEP_DIGEST = "00825b77636ef86055b9bd50fb48431823890de02c98c7bcb6d5ef74d7921761"
SWEEP_VERBS = [
    *(["check", prop] for prop in ("fclp", "cblp", "blp", "filt-blp", "id-blp", "fc-normal", "b-normal")),
    *([verb, "--format", fmt] for verb in ("report", "center", "fc") for fmt in ("table", "json")),
]


def test_the_sweep_prints_the_pinned_bytes(capsys, monkeypatch):
    digest = hashlib.sha256()
    for A in sweep() + [fixture(name) for name in FIXTURE_NAMES]:
        fresh = cold(A)
        monkeypatch.setattr(cli, "_load", lambda args: fresh)
        for argv in SWEEP_VERBS:
            code = main([*argv, "--file", "-"])
            out, err = capsys.readouterr()
            digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == SWEEP_DIGEST
