import itertools
import math
import random

import pytest

from congrlab import algebra
from congrlab.algebra import (
    FiniteAlgebra,
    Signature,
    build_from_spec,
    direct_product,
    dual,
    emit_spec,
    find_isomorphism,
    lattice_from_order,
    lattice_reduct,
    lattice_signature,
    ordinal_sum,
    product_decode,
    product_radix,
    sublattice,
)
from congrlab.congruences import parse_congruence
from congrlab.errors import (
    KindError,
    NotALattice,
    NotClosed,
    ResiduationViolation,
    SignatureMismatch,
    SizeCap,
    TableError,
    UnknownFixture,
)
from congrlab.fixtures import FIXTURE_NAMES, fixture, fixture_spec
from congrlab.lifting import quotient

from oracles import join_irreducible_pairs, product_encode, table_from_labels, walked_table


def test_signature_rejects_duplicate_names():
    with pytest.raises(TableError):
        Signature((("f", 1), ("f", 2)))


def test_signature_requires_lattice_operations():
    with pytest.raises(TableError):
        Signature((("join", 2),), kind="lattice")
    with pytest.raises(TableError):
        Signature((("join", 2), ("meet", 2)), kind="bounded-lattice")


# the operations each kind requires, in signature order
KIND_PAIRS = {
    "lattice": [("join", 2), ("meet", 2)],
    "bounded-lattice": [("join", 2), ("meet", 2), ("bot", 0), ("top", 0)],
    "residuated": [("join", 2), ("meet", 2), ("bot", 0), ("top", 0), ("times", 2), ("implies", 2)],
}


@pytest.mark.parametrize("kind", ["generic", *KIND_PAIRS])
def test_lattice_signature_lists_the_kinds_operations(kind):
    # the generic kind requires none, and a cover spec builds a lattice kind
    sig = lattice_signature(kind)
    assert sig.kind == kind
    assert list(sig.operations) == KIND_PAIRS.get(kind, [])


@pytest.mark.parametrize("kind", KIND_PAIRS)
def test_a_signature_names_the_first_operation_its_kind_misses(kind):
    pairs = KIND_PAIRS[kind]
    for i, (name, arity) in enumerate(pairs):
        # the pair left out alone, and left out with every pair after it
        for given in (pairs[:i] + pairs[i + 1 :], pairs[:i]):
            with pytest.raises(TableError, match=f"^kind '{kind}' requires operation '{name}' of arity {arity}$"):
                Signature(tuple(given), kind)


def test_an_explicit_spec_lists_the_kinds_operations_first():
    spec = emit_spec(fixture("R0"))
    assert list(build_from_spec(spec).signature.operations) == KIND_PAIRS["residuated"]
    # whatever order the spec gives its tables in, and the other operations after them by name
    spec["operations"] = dict(reversed(list(spec["operations"].items())), f=spec["operations"]["times"])
    spec["constants"] = dict(reversed(list(spec["constants"].items())), c=spec["constants"]["top"])
    assert list(build_from_spec(spec).signature.operations) == [*KIND_PAIRS["residuated"], ("c", 0), ("f", 2)]


@pytest.mark.parametrize("kind", ["lattice", "bounded-lattice", "residuated"])
def test_a_one_element_spec_without_tables_keeps_its_kind(kind):
    # refused as a larger spec without tables is; "cover": [] writes the one-element lattice
    with pytest.raises(TableError, match="^spec needs either a cover relation or operation tables$"):
        build_from_spec({"kind": kind, "elements": ["a"]})


def test_build_pentagon_from_cover():
    P = build_from_spec(
        {
            "name": "pent",
            "kind": "lattice",
            "elements": ["0", "x", "y", "z", "1"],
            "cover": [["0", "x"], ["0", "y"], ["y", "z"], ["x", "1"], ["z", "1"]],
        }
    )
    x, y, z, one, zero = (P.index_of(s) for s in ("x", "y", "z", "1", "0"))
    assert P.op("join", x, y) == one
    assert P.op("meet", x, z) == zero
    assert P == fixture("P")


def test_one_element_spec_is_valid():
    A = build_from_spec({"name": "t", "kind": "lattice", "elements": ["*"], "cover": []})
    assert A.n == 1 and A.signature == lattice_signature()
    # only an algebra spec with one element needs no tables
    for spec in ({"elements": ["*"]}, {"kind": "algebra", "elements": ["*"]}):
        B = build_from_spec(spec)
        assert B.n == 1 and B.signature == Signature(())


def test_a_one_element_spec_reads_its_constants():
    # as every other spec does: no table is needed, and each constant is a label
    spec = {"kind": "algebra", "elements": ["0"], "constants": {"c": "0"}}
    assert build_from_spec(spec).signature == Signature((("c", 0),))
    spec["constants"]["c"] = "nope"
    with pytest.raises(TableError, match="^constant c refers to unknown label 'nope'$"):
        build_from_spec(spec)


def test_missing_top_reports_offending_pair():
    with pytest.raises(NotALattice) as err:
        build_from_spec(
            {"kind": "lattice", "elements": ["0", "a", "b"], "cover": [["0", "a"], ["0", "b"]]}
        )
    assert err.value.pair == ("a", "b")


def test_cover_cycle_is_rejected():
    with pytest.raises(TableError):
        build_from_spec(
            {"kind": "lattice", "elements": ["a", "b"], "cover": [["a", "b"], ["b", "a"]]}
        )


def test_a_cover_spec_carries_no_tables_it_cannot_use():
    # C3 with a cyclic f has only Δ and ∇; read from the cover alone it had four
    from congrlab.congruences import all_congruences

    elements, cover, f = ["0", "m", "1"], [["0", "m"], ["m", "1"]], ["m", "1", "0"]
    square = [[elements[max(a, b)] for b in range(3)] for a in range(3)]
    lattice = {"join": square, "meet": [[elements[min(a, b)] for b in range(3)] for a in range(3)]}
    A = build_from_spec({"kind": "lattice", "elements": elements, "operations": {**lattice, "f": f}})
    assert len(all_congruences(A).elements) == 2
    times = fixture_spec("R0")["operations"]["times"]
    for kind, extra, stray in [
        ("lattice", {"operations": {"f": f}}, "f"),
        ("lattice", {"operations": lattice}, "join, meet"),
        ("bounded-lattice", {"constants": {"top": "1"}}, "top"),
        ("lattice", {"operations": {"times": square, "implies": square}}, "implies, times"),
    ]:
        with pytest.raises(TableError, match=f"kind '{kind}' carries tables it cannot use: {stray}$"):
            build_from_spec({"kind": kind, "elements": elements, "cover": cover, **extra})
    for key, extra in [("operations", {"f": times}), ("constants", {"bot": "0"})]:
        spec = fixture_spec("R0")
        spec[key] = {**spec.get(key, {}), **extra}
        with pytest.raises(TableError, match=f"kind 'residuated' carries tables it cannot use: {next(iter(extra))}$"):
            build_from_spec(spec)


@pytest.mark.parametrize("name", ["times", "implies"])
def test_a_residuated_cover_spec_needs_both_of_its_tables(name):
    spec = fixture_spec("R0")
    del spec["operations"][name]
    with pytest.raises(TableError, match=f"^residuated spec requires a '{name}' table$"):
        build_from_spec(spec)


def test_non_total_table_is_rejected():
    with pytest.raises(TableError):
        build_from_spec(
            {"kind": "algebra", "elements": ["0", "1"], "operations": {"f": [["0"]]}}
        )


def table_outcome(read, table, arity, n):
    """The table read, or the message of the TableError raised."""
    try:
        return read(table, arity, n, "f")
    except TableError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "table,arity",
    [
        ([[0, 1, 2], [1, 1, 2], [2, 2, 2]], 2),
        (((0, 1, 2), (1, 1, 2), (2, 2, 2)), 2),
        ([[0, 1, True], [False, 1, 2], [2, 2, 2]], 2),
        ([0, 2, 1], 1),
        (2, 0),
        (3, 0),
        (-1, 0),
        ([[0, 1, 2], [1, 1, 3], [2, 2, 2]], 2),
        ([[0, 1, 2], [1, -1, 2], [2, 2, 2]], 2),
        ([[0, 1, 2], [1, 1], [2, 2, 2]], 2),
        ([[0, 1, 2], [1, 1, 2]], 2),
        ([[0, 1, 2], [1, [1], 2], [2, 2, 2]], 2),
        ([[0, 1, 2], 1, [2, 2, 2]], 2),
        ([[[0, 1, 2]] * 3] * 3, 3),
        ([[[0, 1, 2]] * 3, [[0, 1, 2], [0, 1, 9], [0, 1, 2]], [[0, 1, 2]] * 3], 3),
        ([[0, 1, 2]] * 3, 3),
        ([0, 1, 2], 2),
        ([[0, 1, 2]] * 3, 1),
        ([], 1),
        (None, 0),
        (1.5, 0),
        ("ab", 1),
        (b"ab", 1),
        ([0, None, 2], 1),
        ([0, 1.5, 2], 1),
        ([[0, 1, 2], "abc", [2, 2, 2]], 2),
        ([[0, 1, 2], [1, None, 2], [2, 2, 2]], 2),
    ],
)
def test_rows_are_frozen_and_checked_as_entry_by_entry(table, arity):
    want = table_outcome(walked_table, table, arity, 3)
    assert table_outcome(algebra._read_table, table, arity, 3) == want


@pytest.mark.parametrize(
    "table,arity,message",
    [
        (None, 0, "constant f out of range"),
        (1.5, 0, "constant f out of range"),
        ("ab", 1, "table for f is not total"),
        ([0, None], 1, "constant f out of range"),
        ([[0, 1], [1, 1.5]], 2, "constant f out of range"),
    ],
)
def test_the_public_constructor_refuses_a_table_of_other_entries(table, arity, message):
    # a TableError from the checks, not a TypeError, nor a RecursionError
    # from a string taken for a row of one-character rows
    with pytest.raises(TableError) as info:
        FiniteAlgebra(2, ["0", "1"], Signature((("f", arity),)), {"f": table})
    assert str(info.value) == message


NOT_ROWS = {
    "dict": lambda: {0: 1, 1: 0},
    "set": lambda: {0, 1},
    "range": lambda: range(2),
    "generator": lambda: (x for x in (1, 0)),
    "str": lambda: "10",
    "bytes": lambda: b"\x01\x00",
}


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("shape", sorted(NOT_ROWS))
def test_a_table_or_row_that_is_not_a_list_or_tuple_is_refused(shape, arity):
    # a mapping is not read as the row of its keys, nor a set, a range or a
    # generator as the row it iterates, as the walk once read them
    row = NOT_ROWS[shape]()
    table = row if arity == 1 else [[0, 1], row]
    signature = Signature((("f", arity),))
    with pytest.raises(TableError, match="^table for f is not total$"):
        FiniteAlgebra(2, ["0", "1"], signature, {"f": table})
    if shape not in ("str", "bytes"):  # the walk took it for the row it iterates
        table = NOT_ROWS[shape]() if arity == 1 else [[0, 1], NOT_ROWS[shape]()]
        assert isinstance(walked_table(table, arity, 2, "f"), tuple)


def test_a_shape_fault_is_reported_before_a_bad_entry():
    # the depth-first walk meets the bad entry of row 0 first; the reader
    # reads every level's shape before any entry
    signature = Signature((("f", 2),))
    with pytest.raises(TableError, match="^table for f is not total$"):
        FiniteAlgebra(2, ["0", "1"], signature, {"f": [[0, 9], [0]]})
    assert table_outcome(walked_table, [[0, 9], [0]], 2, 2) == "constant f out of range"
    spec = {"elements": ["0", "1"], "operations": {"f": [["0", "x"], ["0"]]}}
    with pytest.raises(TableError, match="^table for f is not total$"):
        build_from_spec(spec)
    index = {"0": 0, "1": 1}
    with pytest.raises(TableError, match="^table for f refers to unknown label 'x'$"):
        table_from_labels(spec["operations"]["f"], 2, index, "f")
    # a bad entry alone is named, the first in argument order
    spec["operations"]["f"] = [["0", "1"], [None, "x"]]
    with pytest.raises(TableError, match="^table for f refers to unknown label None$"):
        build_from_spec(spec)


LABEL_FAULTS = ["a,b", "a|b", "", " a", "a\t", "a\n"]


@pytest.mark.parametrize("bad", LABEL_FAULTS)
def test_both_doors_refuse_a_label_the_block_syntax_cannot_read(bad):
    message = f"element label {bad!r} is empty, has surrounding whitespace, or holds ',' or '|'"
    labels = [bad, "c", "d"]
    with pytest.raises(TableError) as info:
        FiniteAlgebra(3, labels, Signature((("f", 1),)), {"f": [0, 1, 2]})
    assert str(info.value) == message
    with pytest.raises(TableError) as info:
        lattice_from_order([[i <= j for j in range(3)] for i in range(3)], labels)
    assert str(info.value) == message
    with pytest.raises(TableError) as info:
        build_from_spec({"elements": labels, "operations": {"f": labels}})
    assert str(info.value) == message


def test_both_doors_refuse_labels_alike():
    order = [[True, True], [False, True]]
    for labels, message in [
        (["a", "a"], "element labels are not distinct"),
        (["a"], "need exactly n distinct element labels"),
        ([], "carrier must be non-empty"),
    ]:
        for build in (
            lambda: FiniteAlgebra(2 if labels else 0, labels, Signature(()), {}),
            lambda: lattice_from_order(order if labels else [], labels),
        ):
            with pytest.raises(TableError) as info:
                build()
            assert str(info.value) == message
    for labels, message in [(["a", "a"], "element labels are not distinct"), ([], "carrier must be non-empty")]:
        with pytest.raises(TableError) as info:
            build_from_spec({"elements": labels, "operations": {}})
        assert str(info.value) == message


def test_labels_congrlab_makes_pass_the_public_constructor():
    from congrlab.residuated import reticulation

    made = [
        direct_product([fixture("L2"), fixture("L3")]),
        ordinal_sum(fixture("L2x2"), fixture("L2x2")),
        quotient(fixture("L3"), parse_congruence(fixture("L3"), "0,m|1")).quotient,
        reticulation(fixture("R0")),
    ]
    for A in made:
        assert FiniteAlgebra(A.n, A.labels, A.signature, A.tables, A.name) == A
    labels = [lab for A in made for lab in A.labels]
    assert {"(0;0)", "1'", "0+m", "[1)"} <= set(labels)


def test_bad_lattice_table_is_rejected():
    with pytest.raises(TableError):
        FiniteAlgebra(
            2,
            ["0", "1"],
            Signature((("join", 2), ("meet", 2)), "lattice"),
            {"join": [[0, 1], [0, 1]], "meet": [[0, 0], [0, 1]]},
        )


def test_residuation_violation_names_the_triple():
    spec = fixture_spec("R0")
    bad = [row[:] for row in spec["operations"]["implies"]]
    bad[3][0] = "1"  # c -> 0 should be 0
    spec["operations"]["implies"] = bad
    with pytest.raises(ResiduationViolation):
        build_from_spec(spec)


def residuation_scan(labels, meet, times, implies, top):
    """The entry-by-entry scan the row check replaces: the message of the
    first law that times and implies break, or None."""
    n, leq = len(labels), lambda x, y: meet[x][y] == x
    for a in range(n):
        if times[a][top] != a:
            return f"top is not a unit for times at {labels[a]}"
        for b in range(n):
            if times[a][b] != times[b][a]:
                return f"times not commutative at ({labels[a]}, {labels[b]})"
            for c in range(n):
                if times[times[a][b]][c] != times[a][times[b][c]]:
                    return f"times not associative at ({labels[a]}, {labels[b]}, {labels[c]})"
                if leq(times[a][b], c) != leq(a, implies[b][c]):
                    return str(ResiduationViolation(labels[a], labels[b], labels[c]))
    return None


def test_the_residuation_check_names_what_the_scan_names():
    from test_residuated import residuated_chain

    rng = random.Random(27)
    # cover specs and explicit tables, so both build paths run the check
    bases = [residuated_chain(n, t) for t in ("godel", "lukasiewicz", "drastic") for n in (3, 4, 6)]
    bases += [fixture_spec("R0"), emit_spec(fixture("R0"))]
    seen = set()
    for _ in range(600):
        spec = rng.choice(bases)
        A = build_from_spec(spec)
        labels, index = spec["elements"], {lab: i for i, lab in enumerate(spec["elements"])}
        ops = {f: [row[:] for row in spec["operations"][f]] for f in ("times", "implies")}
        for _ in range(rng.choice((1, 2))):
            row = ops[rng.choice(("times", "implies"))][rng.randrange(A.n)]
            row[rng.randrange(A.n)] = rng.choice(labels)
        table = {f: [[index[x] for x in row] for row in t] for f, t in ops.items()}
        want = residuation_scan(labels, A.tables["meet"], table["times"], table["implies"], A.top())
        try:
            build_from_spec(dict(spec, operations=dict(spec["operations"], **ops)))
            got = None
        except (TableError, ResiduationViolation) as err:
            got = str(err)
        assert got == want, (spec["name"], ops)
        seen.add(want.split(" at ")[0].split(" on ")[0] if want else None)
    laws = {"top is not a unit for times", "times not commutative", "times not associative", "residuation law fails"}
    assert seen == laws | {None}


@pytest.mark.parametrize(
    "name,checked", [("X", {"join", "meet"}), ("R0", {"join", "meet", "bot", "top", "times", "implies"})]
)
def test_a_cover_build_checks_only_the_tables_it_did_not_derive(name, checked, monkeypatch):
    # join, meet and the bounds come from the order, a lattice's by
    # construction, and a spec's tables are read as labels: a spec build,
    # of the cover or of explicit tables, reads no table as ints in range;
    # a copy through the public constructor reads all of them so
    read = algebra._read_table
    seen = []

    def spy(raw, arity, n, fname, index=None):
        seen.append((fname, index is None))
        return read(raw, arity, n, fname, index)

    monkeypatch.setattr(algebra, "_read_table", spy)
    A = build_from_spec(fixture_spec(name))
    assert {f for f, ints in seen} == checked - algebra._ORDER_TABLES
    assert build_from_spec(emit_spec(A)) == A
    assert not any(ints for _, ints in seen)
    seen.clear()
    FiniteAlgebra(A.n, A.labels, A.signature, A.tables)
    assert sorted(seen) == sorted((f, True) for f in checked)


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        fixture_spec("nosuch")


def test_fixture_matches_shipped_spec_tables():
    for name in FIXTURE_NAMES:
        assert fixture(name) == build_from_spec(fixture_spec(name))


def test_emit_spec_round_trip():
    for name in FIXTURE_NAMES:
        A = fixture(name)
        assert build_from_spec(emit_spec(A)) == A


# -- dual -------------------------------------------------------------------


def test_dual_of_chain_is_isomorphic_chain():
    assert find_isomorphism(dual(fixture("L3")), fixture("L3")) is not None


def test_dual_is_involution():
    for name in ("P", "S", "X"):
        A = fixture(name)
        assert dual(dual(A)) == A


def test_dual_swaps_bounds():
    L = lattice_from_order(
        [[True, True], [False, True]], ["0", "1"], kind="bounded-lattice"
    )
    D = dual(L)
    assert D.tables["bot"] == L.tables["top"]
    assert D.op("join", 0, 1) == L.op("meet", 0, 1)


def test_dual_rejects_residuated():
    with pytest.raises(KindError):
        dual(fixture("R0"))


def test_dual_rejects_non_lattice():
    A = build_from_spec(
        {"kind": "algebra", "elements": ["0", "1"], "operations": {"f": [["0", "0"], ["0", "0"]]}}
    )
    with pytest.raises(KindError):
        dual(A)


# -- products ---------------------------------------------------------------


def test_product_l2_l3_matches_fixture():
    P = direct_product([fixture("L2"), fixture("L3")])
    assert P.n == 6
    assert find_isomorphism(P, fixture("L2timesL3")) is not None


def test_unary_product_is_the_factor_relabelled():
    L = fixture("P")
    P = direct_product([L])
    assert P.n == L.n
    assert find_isomorphism(P, L) is not None


def test_product_projection_recovers_factors():
    factors = [fixture("L3"), fixture("L2x2")]
    P = direct_product(factors)
    sizes = [A.n for A in factors]
    radix = product_radix(sizes)
    for i, A in enumerate(factors):
        for a in range(P.n):
            for b in range(P.n):
                ta, tb = product_decode(a, sizes, radix), product_decode(b, sizes, radix)
                r = product_decode(P.op("join", a, b), sizes, radix)
                assert r[i] == A.op("join", ta[i], tb[i])


def componentwise_table(factors, fname, arity):
    """A product's table one entry at a time: decode each argument, apply
    the operation in every factor, and encode the results."""
    sizes = [A.n for A in factors]
    radix = product_radix(sizes)
    total = math.prod(sizes)

    def build(args):
        if len(args) == arity:
            tups = [product_decode(i, sizes, radix) for i in args]
            return product_encode([A.op(fname, *[t[k] for t in tups]) for k, A in enumerate(factors)], radix)
        return tuple(build(args + [i]) for i in range(total))

    return build([])


def test_product_tables_fold_to_the_encoded_componentwise_tables():
    from test_congruences import middle_algebra, pointed_algebra, quaternary_algebra

    products = [[fixture("T"), fixture("E")], [fixture("L2")] * 5, [fixture("L3"), fixture("L2x2")]]
    products += [[A, A] for A in (pointed_algebra(), middle_algebra(), quaternary_algebra())]
    arities = set()
    for factors in products:
        P = direct_product(factors)
        for f, arity in P.signature.operations:
            assert P.tables[f] == componentwise_table(factors, f, arity), (P.name, f)
            arities.add(arity)
    assert arities == {0, 1, 2, 3, 4}


def test_product_of_t_and_e_has_42_elements():
    P = direct_product([fixture("T"), fixture("E")])
    assert P.n == 42


def test_product_signature_mismatch():
    bounded = lattice_from_order(
        [[True, True], [False, True]], ["0", "1"], kind="bounded-lattice"
    )
    with pytest.raises(SignatureMismatch):
        direct_product([fixture("L2"), bounded])


def test_product_size_cap():
    cube = fixture("L2x3cube")
    with pytest.raises(SizeCap):
        direct_product([cube] * 5)


# -- ordinal sums -----------------------------------------------------------


def test_ordinal_sum_builds_the_stacked_fixtures():
    D, L2, L3, L2x2 = (fixture(n) for n in ("D", "L2", "L3", "L2x2"))
    assert find_isomorphism(ordinal_sum(D, L2), fixture("S")) is not None
    assert find_isomorphism(ordinal_sum(D, L3), fixture("R")) is not None
    assert find_isomorphism(ordinal_sum(L2, ordinal_sum(D, L2)), fixture("T")) is not None
    assert find_isomorphism(ordinal_sum(L2x2, D), fixture("X")) is not None
    assert find_isomorphism(ordinal_sum(L2, L2x2), fixture("L2osumL2x2")) is not None


def test_an_ordinal_sum_has_the_kind_of_its_lower_part():
    D, L2 = fixture("D"), fixture("L2")
    bounded = {L: lattice_reduct(L, "bounded-lattice") for L in (D, L2)}
    for low, high, kind in [
        (D, L2, "lattice"),
        (D, bounded[L2], "lattice"),
        (bounded[D], L2, "bounded-lattice"),
        (bounded[D], bounded[L2], "bounded-lattice"),
    ]:
        assert ordinal_sum(low, high).signature.kind == kind


def test_ordinal_sum_restricts_to_the_parts():
    D, L3 = fixture("D"), fixture("L3")
    S = ordinal_sum(D, L3)
    assert S.n == D.n + L3.n - 1
    low = sublattice(S, range(D.n))
    assert low.tables["join"] == D.tables["join"]
    assert low.tables["meet"] == D.tables["meet"]
    high = sublattice(S, range(D.n - 1, S.n))
    assert find_isomorphism(high, L3) is not None


# -- sublattices ------------------------------------------------------------


def test_pentagon_inside_e():
    E = fixture("E")
    sub = sublattice(E, [E.index_of(s) for s in ("0", "a", "b", "d", "1")])
    assert find_isomorphism(sub, fixture("P")) is not None


def test_full_carrier_sublattice():
    L = fixture("S")
    assert sublattice(L, range(L.n)) == L


def test_bounds_sublattice_of_chain():
    L3 = fixture("L3")
    assert find_isomorphism(sublattice(L3, [0, 2]), fixture("L2")) is not None


def test_sublattice_reports_violating_pair():
    E = fixture("E")
    with pytest.raises(NotClosed):
        sublattice(E, [E.index_of("a"), E.index_of("b")])


# -- axioms hold on everything we build -------------------------------------


def test_constructed_lattices_pass_exhaustive_axiom_check():
    for name in FIXTURE_NAMES:
        A = fixture(name)
        if not A.is_lattice:
            continue
        # re-validate explicitly (constructors may skip it for derived tables)
        FiniteAlgebra(A.n, A.labels, A.signature, A.tables)
    S = ordinal_sum(fixture("D"), fixture("L2"))
    FiniteAlgebra(S.n, S.labels, S.signature, S.tables)
    P = direct_product([fixture("L3"), fixture("L2x2")])
    FiniteAlgebra(P.n, P.labels, P.signature, P.tables)


# -- lattice_from_order and distributivity against the scans they replace -----


def scan_bounds(leq, labels):
    """The old per-pair scan: the join and meet tables, or the first pair
    without a unique least upper or greatest lower bound."""
    n = len(leq)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            ubs = [c for c in range(n) if leq[a][c] and leq[b][c]]
            lub = [c for c in ubs if all(leq[c][d] for d in ubs)]
            if len(lub) != 1:
                return (labels[a], labels[b], "least upper bound")
            lbs = [c for c in range(n) if leq[c][a] and leq[c][b]]
            glb = [c for c in lbs if all(leq[d][c] for d in lbs)]
            if len(glb) != 1:
                return (labels[a], labels[b], "greatest lower bound")
            join[a][b] = join[b][a] = lub[0]
            meet[a][b] = meet[b][a] = glb[0]
    return {"join": join, "meet": meet}


def mask_bounds(leq, labels):
    try:
        L = lattice_from_order(leq, labels, kind="bounded-lattice")
    except NotALattice as err:
        assert str(err) == f"not a lattice: pair ({err.pair[0]}, {err.pair[1]}) has no unique {err.what}"
        return (*err.pair, err.what)
    assert axiom_scan(L.tables["join"], L.tables["meet"]) is None
    n = len(leq)
    assert L.tables["bot"] == next(e for e in range(n) if all(leq[e]))
    assert L.tables["top"] == next(e for e in range(n) if all(row[e] for row in leq))
    return {f: [list(row) for row in L.tables[f]] for f in ("join", "meet")}


def random_preorder(rng, n):
    """A reflexive, transitive matrix; two elements may share an up-set."""
    p = rng.uniform(0.1, 0.6)
    leq = [[a == b or rng.random() < p for b in range(n)] for a in range(n)]
    if rng.random() < 0.5:  # bounds make lattices likely
        for row in leq:
            row[n - 1] = True
        leq[0] = [True] * n
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    return leq


def test_lattice_from_order_agrees_with_the_bound_scan():
    import random

    from sweep import sweep

    orders = [[[bool(up >> b & 1) for b in range(L.n)] for up in L.order_masks()[0]] for L in sweep()]
    rng = random.Random(8)
    orders += [random_preorder(rng, rng.randint(1, 7)) for _ in range(3000)]
    outcomes = {"lattice": 0, "not antisymmetric": 0, "other": 0}
    for leq in orders:
        labels = [f"x{i}" for i in range(len(leq))]
        want = scan_bounds(leq, labels)
        assert mask_bounds(leq, labels) == want, leq
        if isinstance(want, dict):
            outcomes["lattice"] += 1
        elif any(a != b and leq[a] == leq[b] for a in range(len(leq)) for b in range(a)):
            outcomes["not antisymmetric"] += 1
        else:
            outcomes["other"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_lattice_from_order_rejects_a_matrix_that_is_not_an_order():
    with pytest.raises(TableError, match="not reflexive at b"):
        lattice_from_order([[True, True], [False, False]], "ab")
    # a ≤ b ≤ c without a ≤ c
    gap = [[True, True, False], [False, True, True], [False, False, True]]
    with pytest.raises(TableError, match=r"not transitive at \(a, b\)"):
        lattice_from_order(gap, "abc")
    # past the size the axiom scan would have reached
    n = 130
    chain = [[a <= b for b in range(n)] for a in range(n)]
    lattice_from_order(chain, [str(e) for e in range(n)])
    chain[0][n - 1] = False
    with pytest.raises(TableError, match="not transitive"):
        lattice_from_order(chain, [str(e) for e in range(n)])
    # an order determines the tables of the two lattice kinds, and no other
    for kind in ("generic", "residuated", "semilattice"):
        with pytest.raises(KindError, match=f"^cannot build a lattice of kind '{kind}' from an order$"):
            lattice_from_order([[True]], "a", kind=kind)


@pytest.mark.parametrize(
    "leq",
    [
        [[True, True], [False]],  # a short row
        [[True, True], [False, True, True]],  # a long row
        {0: [True, True], 1: [False, True]},  # a dict keyed 0..n-1
        [[True, True], "ab"],  # a string row
        "ab",
        ([True, True], {0: False, 1: True}),
        [[True, True], range(2)],
    ],
)
def test_lattice_from_order_refuses_a_matrix_of_the_wrong_shape(leq):
    with pytest.raises(TableError) as info:
        lattice_from_order(leq, "ab")
    assert str(info.value) == "order matrix is not a list or tuple of n rows of n entries"


def test_lattice_from_order_reads_entries_by_their_truth_value():
    L = lattice_from_order(((1, "yes"), [0, [0]]), "ab")
    assert L.tables["join"] == ((0, 1), (1, 1))


def axiom_scan(join, meet):
    """The O(n³) law-by-law scan that the order check replaces: the first
    law that join and meet break, or None if they are a lattice's
    operations."""
    rng = range(len(join))
    for t, oname in ((join, "join"), (meet, "meet")):
        for a in rng:
            if t[a][a] != a:
                return f"{oname} not idempotent"
            if any(t[a][b] != t[b][a] for b in rng):
                return f"{oname} not commutative"
    if any(meet[a][join[a][b]] != a or join[a][meet[a][b]] != a for a in rng for b in rng):
        return "absorption fails"
    for t, oname in ((join, "join"), (meet, "meet")):
        if any(t[t[a][b]][c] != t[a][t[b][c]] for a in rng for b in rng for c in rng):
            return f"{oname} not associative"
    return None


def order_check(labels, join, meet):
    """The check on explicit lattice tables: None, or the error it raises."""
    spec = {"kind": "lattice", "elements": labels, "operations": {"join": join, "meet": meet}}
    try:
        build_from_spec(spec)
    except (TableError, NotALattice) as err:
        return err
    return None


def test_the_order_check_agrees_with_the_axiom_scan():
    import random

    from sweep import sweep

    rng = random.Random(11)
    outcomes = {"lattice": 0, "TableError": 0, "NotALattice": 0}
    for A in [fixture(name) for name in FIXTURE_NAMES] + sweep():
        spec = emit_spec(A)
        assert build_from_spec(spec) == A, A.name
        assert axiom_scan(A.tables["join"], A.tables["meet"]) is None, A.name
        labels = spec["elements"]
        index = {lab: i for i, lab in enumerate(labels)}
        for x in range(8 if A.n > 1 else 1):
            tables = {f: [row[:] for row in spec["operations"][f]] for f in ("join", "meet")}
            if x:  # one entry, or one entry and its mirror, gets another label
                t = tables[rng.choice(("join", "meet"))]
                a, b = rng.randrange(A.n), rng.randrange(A.n)
                t[a][b] = rng.choice([lab for lab in labels if lab != t[a][b]])
                if rng.random() < 0.5:
                    t[b][a] = t[a][b]
            err = order_check(labels, tables["join"], tables["meet"])
            want = axiom_scan(*([[index[v] for v in row] for row in tables[f]] for f in ("join", "meet")))
            assert (err is None) == (want is None), (A.name, tables, err, want)
            outcomes["lattice" if err is None else type(err).__name__] += 1
    assert min(outcomes.values()) >= 20, outcomes


def rock_paper_scissors(n):
    """0 < a, b, c < 1 followed by a chain up to n elements, with meet and
    join cyclic on a, b, c: a∧b = a, b∧c = b, c∧a = c.  Both tables are
    idempotent and commutative and satisfy absorption, but the order their
    meet induces has a ≤ b ≤ c ≤ a, and neither is associative."""
    rank = [0, 1, 1, 1] + list(range(2, n - 2))
    above = {1: 2, 2: 3, 3: 1}  # x ≤ above[x]
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x == y:
                lo = hi = x
            elif rank[x] == rank[y]:
                lo, hi = (x, y) if above[x] == y else (y, x)
            else:
                lo, hi = (x, y) if rank[x] < rank[y] else (y, x)
            meet[x][y], join[x][y] = lo, hi
    labels = ["0", "a", "b", "c", "1"] + [f"p{e}" for e in range(5, n)]
    return labels, join, meet


def test_a_cyclic_meet_order_is_rejected_at_every_size():
    labels, join, meet = rock_paper_scissors(5)
    assert axiom_scan(join, meet) == "join not associative"
    named = lambda t: [[labels[v] for v in row] for row in t]
    err = order_check(labels, named(join), named(meet))
    assert isinstance(err, TableError) and "not transitive at (a, b)" in str(err)
    for n in (128, 129, 130):  # the law-by-law scan skipped associativity above 128
        labels, join, meet = rock_paper_scissors(n)
        with pytest.raises(TableError, match=r"not transitive at \(a, b\)"):
            FiniteAlgebra(n, labels, Signature((("join", 2), ("meet", 2)), "lattice"), {"join": join, "meet": meet})


def test_explicit_tables_name_the_first_entry_off_the_order():
    named = lambda t: [["xyz"[v] for v in row] for row in t]
    low = [[min(a, b) for b in range(3)] for a in range(3)]
    high = [[max(a, b) for b in range(3)] for a in range(3)]
    assert order_check(list("xyz"), named(high), named(low)) is None
    err = order_check(list("xyz"), named(low), named(low))
    assert str(err) == "join of (x, y) is not their least upper bound in meet's order"
    # the order of this meet has x below y and z, and no upper bound of both
    vee = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
    err = order_check(list("xyz"), named(high), named(vee))
    assert isinstance(err, NotALattice) and err.pair == ("y", "z")


def test_explicit_tables_are_checked_in_order_then_the_declared_bounds():
    # the 3-chain x < y < z as a bounded-lattice spec: join rows come before
    # meet rows, and both before the declared bot and top, in that order
    low = [["xyz"[min(a, b)] for b in range(3)] for a in range(3)]
    high = [["xyz"[max(a, b)] for b in range(3)] for a in range(3)]

    def built(join, bot, top, kind="bounded-lattice"):
        spec = {"kind": kind, "elements": list("xyz"), "operations": {"join": join, "meet": low}}
        spec["constants"] = {"bot": bot, "top": top}
        try:
            return build_from_spec(spec)
        except TableError as exc:
            return str(exc)

    assert built(high, "x", "z").tables["bot"] == 0
    assert built(low, "y", "y") == "join of (x, y) is not their least upper bound in meet's order"
    assert built(high, "y", "y") == "declared bot is not the least element"
    assert built(high, "x", "y") == "declared top is not the greatest element"
    # a lattice-kind spec carries its bounds as constants, checked alike
    assert built(high, "x", "y", "lattice") == "declared top is not the greatest element"
    # a unary operation that happens to be named bot is no bound
    spec = {"kind": "lattice", "elements": list("xyz"), "operations": {"join": high, "meet": low, "bot": list("zyx")}}
    assert build_from_spec(spec).tables["bot"] == (2, 1, 0)


def join_prime_pair_scan(L):
    """Distributivity as it was decided: no join-irreducible j lies below
    a∨b for a pair a, b of elements not above it."""
    join, meet = L.tables["join"], L.tables["meet"]
    for _, j in join_irreducible_pairs(L):
        outside = [x for x in range(L.n) if meet[j][x] != j]
        if any(meet[j][join[a][b]] == j for a in outside for b in outside):
            return False
    return True


def test_distributivity_by_join_primes_agrees_with_the_triple_scan():
    from test_partition_join import lattice_algebras

    lattices = lattice_algebras()
    lattices += [dual(L) for L in lattices if L.signature.kind != "residuated"]
    verdicts = set()
    for L in lattices:
        L._cache.pop("is_distributive_lattice", None)
        join, meet, ks = L.tables["join"], L.tables["meet"], range(L.n)
        scan = all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]] for a in ks for b in ks for c in ks)
        assert join_prime_pair_scan(L) == scan, L.name
        assert L.is_distributive_lattice() == scan, L.name
        assert L._cache["is_distributive_lattice"] == scan
        verdicts.add(scan)
    assert verdicts == {True, False}


# -- covers -----------------------------------------------------------------


def cover_scan(L):
    """The O(n³) scan that covers() replaces: for each b, the a < b with no
    c strictly between them."""
    n = L.n
    below = [[a for a in range(n) if a != b and L.leq(a, b)] for b in range(n)]
    out = []
    for b in range(n):
        for a in below[b]:
            if not any(L.leq(a, c) and a != c for c in below[b] if c != a and L.leq(c, b)):
                out.append((a, b))
    return out


def test_covers_agree_with_the_cubic_scan():
    from test_partition_join import lattice_algebras

    fixtures = [fixture(name) for name in FIXTURE_NAMES]
    lattices = lattice_algebras() + [dual(lattice_reduct(L)) for L in fixtures]
    assert len(lattices) == 243 + 16
    pairs = 0
    for L in lattices:
        got = L.covers()
        assert got == cover_scan(L), L.name
        pairs += len(got)
    assert pairs > 2000


def relabelled_chain(n, seed):
    """The chain of n elements, its indices in a random order."""
    names = [f"c{i}" for i in range(n)]
    elements = names[:]
    random.Random(seed).shuffle(elements)
    cover = [[names[i], names[i + 1]] for i in range(n - 1)]
    return build_from_spec({"kind": "lattice", "elements": elements, "cover": cover})


def test_covers_of_a_relabelled_chain():
    for n, seed in ((2, 1), (9, 2), (33, 3)):
        L = relabelled_chain(n, seed)
        assert L.covers() == cover_scan(L)
    L = relabelled_chain(512, 4)
    at = {label: e for e, label in enumerate(L.labels)}
    want = sorted(((at[f"c{i}"], at[f"c{i + 1}"]) for i in range(511)), key=lambda p: p[1])
    assert L.covers() == want


# -- isomorphism ------------------------------------------------------------


def entries(A):
    """Every (f, args) of A's tables, nullary operations included."""
    return [(f, args) for f, arity in A.signature.operations for args in itertools.product(range(A.n), repeat=arity)]


def commutes(A, B, m):
    return all(m[A.op(f, *args)] == B.op(f, *(m[a] for a in args)) for f, args in entries(A))


def brute_force_isomorphism(A, B):
    """The first permutation of the carrier that commutes with every
    operation, or None."""
    if A.n != B.n or A.signature.operations != B.signature.operations:
        return None
    return next((m for m in itertools.permutations(range(A.n)) if commutes(A, B, m)), None)


def test_isomorphism_is_the_permutation_search():
    from test_congruences import middle_algebra, pointed_algebra, skewed_algebra
    from test_join_irreducible_masks import random_generic_algebras
    from test_partition_join import relabelled

    generic = random_generic_algebras()
    pairs = [(A, B) for A in generic for B in generic if A.n == B.n and A.signature == B.signature]
    assert len(pairs) == 1004
    pointed = pointed_algebra()
    for A in (skewed_algebra(), middle_algebra(), pointed, fixture("R0")):
        pairs += [(A, relabelled(A, 17)), (relabelled(A, 17), A)]
    # the same h and dot, but a constant no automorphism moves c onto
    moved = FiniteAlgebra(pointed.n, pointed.labels, pointed.signature, {**pointed.tables, "c": 3})
    pairs += [(pointed, moved), (moved, relabelled(pointed, 17))]
    m = FiniteAlgebra(3, "abc", Signature((("m", 2),)), {"m": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]})
    m2 = FiniteAlgebra(3, "abc", Signature((("m", 2),)), {"m": [[2, 0, 0], [0, 0, 0], [0, 0, 0]]})
    f = FiniteAlgebra(3, "abc", Signature((("f", 1),)), {"f": [1, 2, 2]})
    f2 = FiniteAlgebra(3, "abc", Signature((("f", 1),)), {"f": [2, 2, 2]})
    first = [[[x] * 2 for _ in range(2)] for x in range(2)]
    last = [[[0, 1]] * 2] * 2
    p = FiniteAlgebra(2, "ab", Signature((("p", 3),)), {"p": first})
    p2 = FiniteAlgebra(2, "ab", Signature((("p", 3),)), {"p": last})
    pairs += [(m, m2), (f, f2), (p, p2)]
    found = {True: 0, False: 0}
    for A, B in pairs:
        got, want = find_isomorphism(A, B), brute_force_isomorphism(A, B)
        assert (got is None) == (want is None), (A.name, B.name)
        if got is not None:
            assert sorted(got) == list(range(A.n)) and commutes(A, B, got), (A.name, B.name)
        found[got is not None] += 1
    assert find_isomorphism(m, m2) == [0, 2, 1]
    # constants are entries too: a relabelled copy maps its constants along,
    # and a constant with no image is refused
    for A in (pointed, fixture("R0")):
        B = relabelled(A, 17)
        got = find_isomorphism(A, B)
        assert got is not None and all(got[A.tables[f]] == B.tables[f] for f, arity in A.signature.operations if not arity)
    assert find_isomorphism(pointed, moved) is None and find_isomorphism(moved, relabelled(pointed, 17)) is None
    assert found[True] > 80 and found[False] > 80
