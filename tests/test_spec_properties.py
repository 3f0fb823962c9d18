"""Random specs, malformed ones included, never escape as a traceback.

Each spec starts well-formed (a cover relation, or operation tables on up to
four elements, among them random join and meet tables of the lattice kinds)
and may carry a name, which may be stray JSON; it may then have one node
replaced by stray JSON or deleted: a wrong kind, a short row, an unknown
label, a list where a label belongs.  build_from_spec must build it or raise
CongrlabError, and `congrlab con --file` and `congrlab report --file` must
exit 0 or 2, with exactly one `error:` line when it is 2.  A spec nested
too deeply to read or build exits 2 the same way.

The table reader goes level by level and maps all the entries of a table
in one call; the routines that walked it depth first, one argument position
per call, are kept in `oracles` and the two agree, error messages included:
on every table of these specs and of the algebras the other tests build,
with every node's shape read before any entry, and on random tables of
arity 0 to 3 over 1 to 4 elements with at most one fault, through both the
public constructor and the spec builder.  So are the restriction, product
and listing of a table, which go level by level too.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from congrlab import algebra
from congrlab.algebra import ARITY_CAP, FiniteAlgebra, Signature, build_from_spec, emit_spec
from congrlab.cli import main
from congrlab.errors import CongrlabError, NestedTooDeeply, TableError

LABELS = st.sampled_from(["0", "1", "2", "a"])
STRAY = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | LABELS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(LABELS, inner, max_size=2),
    max_leaves=6,
)
BOUNDED = settings(max_examples=120, deadline=None, database=None, derandomize=True)


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


@st.composite
def specs(draw):
    elements = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    n, label = len(elements), st.sampled_from(elements)
    if draw(st.booleans()):
        spec = {
            "kind": draw(st.sampled_from(["lattice", "bounded-lattice"])),
            "elements": elements,
            "cover": draw(st.lists(st.lists(label, min_size=2, max_size=2), max_size=5)),
        }
    else:
        kind = draw(st.sampled_from(["algebra", "lattice", "bounded-lattice"]))
        row = st.lists(label, min_size=n, max_size=n)
        square = st.lists(row, min_size=n, max_size=n)
        spec = {"kind": kind, "elements": elements}
        if kind == "algebra":
            spec["operations"] = draw(st.dictionaries(st.sampled_from(["f", "g"]), row | square, max_size=2))
        else:  # lattice tables, for the check that they are a lattice's
            spec["operations"] = draw(st.fixed_dictionaries({"join": square, "meet": square}))
        if kind == "bounded-lattice":
            spec["constants"] = draw(st.fixed_dictionaries({"bot": label, "top": label}))
    if draw(st.booleans()):
        spec["name"] = draw(st.text(max_size=3) | STRAY)
    path = draw(st.sampled_from([None, *_paths(spec)]))
    if path is None:
        return spec
    if not path:
        return draw(STRAY)
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(STRAY)
    return spec


@BOUNDED
@given(specs())
def test_a_spec_builds_or_raises_a_congrlab_error(spec):
    try:
        build_from_spec(spec)
    except CongrlabError:
        pass


def test_con_on_a_random_spec_exits_0_or_2(tmp_path):
    path = tmp_path / "spec.json"

    @BOUNDED
    @given(specs())
    def check(spec):
        path.write_text(json.dumps(spec))
        for verb in ("con", "report"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([verb, "--file", str(path)])
            assert code in (0, 2), (verb, spec, code)
            if code == 2:
                assert out.getvalue() == "" and err.getvalue().startswith("error: "), (verb, spec)
                assert err.getvalue().count("\n") == 1, (verb, spec)

    check()


# -- a spec nested too deeply ------------------------------------------------------


def nested_spec(depth):
    """A one-element generic spec whose table f nests depth deep."""
    table = "0"
    for _ in range(depth):
        table = [table]
    return {"kind": "algebra", "elements": ["0"], "operations": {"f": table}}


def nested(depth):
    return json.dumps(nested_spec(depth))


@pytest.mark.parametrize("verb", ["con", "product"])
@pytest.mark.parametrize(
    "text", ["[" * 100_000 + "]" * 100_000, nested(600)], ids=["100000 brackets", "table nested 600 deep"]
)
def test_a_spec_nested_too_deeply_exits_2_with_one_error_line(tmp_path, capsys, verb, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    argv = ["product", "L2", str(path)] if verb == "product" else [verb, "--file", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {path} is nested too deeply\n")


def test_a_table_nested_to_the_arity_cap_builds(tmp_path, capsys):
    # the cap itself builds; one past it is refused
    path = tmp_path / "deep.json"
    path.write_text(nested(ARITY_CAP))
    assert main(["con", "--file", str(path)]) == 0
    assert "|Con|=1" in capsys.readouterr().out
    path.write_text(nested(ARITY_CAP + 1))
    assert main(["con", "--file", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path} is nested too deeply\n")


@pytest.mark.parametrize("depth", [600, 2000])
def test_build_from_spec_refuses_a_table_nested_too_deeply(depth):
    # a library caller gets a TableError, raised before any table is built
    with pytest.raises(NestedTooDeeply) as info:
        build_from_spec(nested_spec(depth))
    assert isinstance(info.value, TableError)
    assert str(info.value) == "spec tables are nested too deeply"
    with pytest.raises(NestedTooDeeply, match="^spec tables are nested too deeply$"):
        build_from_spec(nested_spec(ARITY_CAP + 1))
    assert build_from_spec(nested_spec(ARITY_CAP)).n == 1


def deep_array(depth=5000):
    """"0" in an array nested depth deep, past the interpreter's recursion
    limit, so that its str() or repr() raises RecursionError."""
    value = "0"
    for _ in range(depth):
        value = [value]
    return value


LABEL_PLACES = {
    "element": (
        lambda v: {"kind": "algebra", "elements": ["0", v], "operations": {"f": ["0", "0"]}},
        "spec field 'elements' holds a JSON array or object where a label belongs",
    ),
    "cover end": (
        lambda v: {"kind": "lattice", "elements": ["0", "1"], "cover": [["0", v]]},
        "spec field 'cover' holds a JSON array or object where a label belongs",
    ),
    "short cover pair": (
        lambda v: {"kind": "lattice", "elements": ["0", "1"], "cover": [[v]]},
        "spec field 'cover' holds a JSON array or object where a label belongs",
    ),
    "constant": (
        lambda v: {"kind": "algebra", "elements": ["0", "1"], "operations": {"f": ["0", "1"]}, "constants": {"c": v}},
        "constant c holds a JSON array or object where a label belongs",
    ),
    "table entry": (
        lambda v: {"kind": "algebra", "elements": ["0", "1"], "operations": {"f": [["0", "1"], ["1", v]]}},
        "table for f holds a JSON array or object where a label belongs",
    ),
    "kind": (
        lambda v: {"kind": v, "elements": ["0"]},
        "spec field 'kind' holds a JSON array or object",
    ),
}


@pytest.mark.parametrize("place", sorted(LABEL_PLACES))
@pytest.mark.parametrize("shape", ["array", "object"])
def test_an_array_where_a_label_belongs_is_refused_unread(place, shape):
    # a TableError naming the field, whatever the depth, where str() or
    # repr() of the value would raise RecursionError
    build, message = LABEL_PLACES[place]
    value = deep_array() if shape == "array" else {"a": deep_array()}
    with pytest.raises(TableError) as info:
        build_from_spec(build(value))
    assert str(info.value) == message


def test_an_object_where_a_cover_pair_belongs_is_refused_unread():
    spec = {"kind": "lattice", "elements": ["0", "1"], "cover": [{"a": deep_array()}]}
    with pytest.raises(TableError, match="^spec field 'cover' holds a JSON object where a pair belongs$"):
        build_from_spec(spec)


def test_labels_given_as_strings_and_numbers_keep_their_messages():
    cases = [
        ({"kind": "lattice", "elements": ["0", "1"], "cover": [["0", 2]]}, "cover pair (0, 2) uses unknown labels"),
        ({"kind": "lattice", "elements": ["0", "1"], "cover": [["0"]]}, "bad cover pair ['0']"),
        ({"kind": "lattice", "elements": ["0", "1"], "cover": [1]}, "bad cover pair 1"),
        ({"kind": 5, "elements": ["0"]}, "unknown kind 5"),
        ({"elements": ["0", "1"], "operations": {"f": ["0", "1"]}, "constants": {"c": 5}}, "constant c refers to unknown label 5"),
        ({"elements": ["0", "1"], "operations": {"f": ["0", "x"]}}, "table for f refers to unknown label 'x'"),
    ]
    for spec, message in cases:
        with pytest.raises(TableError) as info:
            build_from_spec(spec)
        assert str(info.value) == message
    assert build_from_spec({"kind": "lattice", "elements": [0, 1], "cover": [[0, 1]]}).labels == ("0", "1")


def lattice_with_a_deep_operation(depth):
    """The one-element lattice spec with an operation g of arity depth
    beside its join and meet."""
    spec = nested_spec(depth)
    spec["operations"]["g"] = spec["operations"].pop("f")
    spec["operations"].update({"join": [["0"]], "meet": [["0"]]})
    return {**spec, "kind": "lattice"}


@pytest.mark.parametrize("verb", ["con", "report", "quotient", "dual"])
def test_json_output_at_the_arity_cap_exits_0(tmp_path, capsys, verb):
    # the cap keeps every renderer's recursion shallow: at the cap each
    # verb writes its JSON, and at 400 deep the spec is refused in one line
    path = tmp_path / "deep.json"
    extra = ["--by", "0"] if verb == "quotient" else []
    build = lattice_with_a_deep_operation if verb == "dual" else nested_spec
    path.write_text(json.dumps(build(ARITY_CAP)))
    assert main([verb, "--format", "json", "--file", str(path), *extra]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)
    path.write_text(json.dumps(build(400)))
    assert main([verb, "--format", "json", "--file", str(path), *extra]) == 2
    assert capsys.readouterr() == ("", f"error: {path} is nested too deeply\n")


# -- the table reader against the depth-first walk -----------------------------------


def walk_table(raw, arity, index, fname):
    """The table of labels raw as indices, walked depth first, every node's
    shape checked before any entry is read, as the reader reads it."""
    oracles.check_shape(raw, arity, len(index), fname)
    return oracles.table_from_labels(raw, arity, index, fname)


def read_table(raw, arity, index, fname):
    return algebra._read_table(raw, arity, len(index), fname, index)


def built(routine, raw, arity, index):
    try:
        return routine(raw, arity, index, "f")
    except TableError as exc:
        return str(exc)


def assert_tables_agree(spec):
    """Each table of spec is built by both routines alike, at the arity the
    builder reads off it and at one less and one more."""
    if not isinstance(spec, dict) or not isinstance(spec.get("elements"), list):
        return
    index = {str(lab): i for i, lab in enumerate(spec["elements"])}
    operations = spec.get("operations")
    for raw in operations.values() if isinstance(operations, dict) else ():
        try:
            arity = algebra._table_arity(raw, "f")
        except TableError:
            continue
        for a in {max(arity - 1, 0), arity, arity + 1}:
            assert built(read_table, raw, a, index) == built(walk_table, raw, a, index), (raw, a)


def test_tables_build_as_the_walk_builds_them():
    from test_cli import MALFORMED_SPECS
    from test_distributive_lattices import residuated_inputs
    from test_join_irreducible_masks import random_generic_algebras

    for A in residuated_inputs() + random_generic_algebras():
        assert_tables_agree(emit_spec(A))
    for table in ([0, "1"], ["0", ["1"]], [True, None], [["0", "1"], ["1", 1]], [["0", "1"], "1"], [["0"], ["1", "0"]]):
        assert_tables_agree({"elements": ["0", "1"], "operations": {"f": table}})
    for text in MALFORMED_SPECS.values():
        try:
            spec = json.loads(text)
        except ValueError:  # not JSON, or not UTF-8
            continue
        assert_tables_agree(spec)


@BOUNDED
@given(specs())
def test_random_tables_build_as_the_walk_builds_them(spec):
    assert_tables_agree(spec)


# -- random tables with at most one fault ------------------------------------------


ENTRY_FAULTS = {
    "ints": st.sampled_from([-1, 4, None, 1.5, "0", [0], (0,)]),
    "labels": st.sampled_from(["x", " 0", 0, None, True, ["0"], {"a": "0"}]),
}
NODE_FAULTS = st.sampled_from([0, "0", None, "01", b"01", 1.5])


@st.composite
def single_fault_tables(draw):
    """(entries, n, arity, table): a table of arity 0 to 3 over n = 1 to 4
    elements, of ints or of labels, valid or with one fault: an entry or a
    node above the entries replaced by another value, or a row one item
    short or one too long."""
    n, arity = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    entries = draw(st.sampled_from(sorted(ENTRY_FAULTS)))
    entry = st.integers(0, n - 1) if entries == "ints" else st.sampled_from(["0", "1", "2", "a"][:n])

    def build(depth):
        return draw(entry) if depth == 0 else [build(depth - 1) for _ in range(n)]

    table = build(arity)
    paths = [p for p in _paths(table) if len(p) <= arity]
    path = draw(st.sampled_from([None, *paths]))
    if path is None:
        return entries, n, arity, table
    fault = ENTRY_FAULTS[entries] if len(path) == arity else NODE_FAULTS
    if len(path) < arity and draw(st.booleans()):
        node = table
        for key in path:
            node = node[key]
        if draw(st.booleans()):
            node.pop()
        else:
            node.append(node[0])
        return entries, n, arity, table
    if not path:
        return entries, n, arity, draw(fault)
    parent = table
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(fault)
    return entries, n, arity, table


def outcome(read):
    try:
        return read()
    except TableError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(single_fault_tables())
def test_a_table_with_at_most_one_fault_reads_as_the_walk_reads_it(case):
    entries, n, arity, table = case
    labels = ["0", "1", "2", "a"][:n]
    if entries == "ints":
        signature = Signature((("f", arity),))
        got = outcome(lambda: FiniteAlgebra(n, labels, signature, {"f": table}).tables["f"])

        def want():
            return oracles.walked_table(table, arity, n, "f")

    else:
        got = outcome(lambda: build_from_spec({"elements": labels, "operations": {"f": table}}).tables["f"])
        index = {lab: i for i, lab in enumerate(labels)}

        def want():
            return oracles.table_from_labels(table, algebra._table_arity(table, "f"), index, "f")

    assert got == outcome(want), (entries, n, arity, table)


@BOUNDED
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 3), st.randoms(use_true_random=False))
def test_tables_restrict_fold_and_list_as_the_walk_does(n, m, arity, rng):
    def table(size):
        flat = [rng.randrange(size) for _ in range(size**arity)]
        return algebra.nest_table(flat, arity, size)

    ta, tb = table(n), table(m)
    assert algebra.product_table(ta, n, tb, m, arity) == oracles.product_table(ta, n, tb, m, arity)
    keys = rng.sample(range(n), rng.randint(1, n))
    value = [rng.randrange(10) for _ in range(n)]
    assert algebra.map_table(ta, arity, keys, value) == oracles.map_table(ta, arity, keys, value)
    labels = ["0", "1", "2", "a"][:n]
    A = FiniteAlgebra(n, labels, Signature((("f", arity),)), {"f": ta})
    spec = emit_spec(A)
    listed = (spec["operations"] if arity else spec["constants"])["f"]
    assert listed == oracles.listed_table(ta, arity, labels)
