"""The partition join and the dependency relation against the Mal'cev
closure they replace.

Con(A) is a sublattice of Eq(A), so `join` and the enumeration of Con(A)
use the plain partition join.  The slow paths live on here as oracles: the
closure of both congruences' pairs, and the enumeration that closes every
found congruence under Mal'cev joins with every other one.  On an algebra
with a lattice reduct and more operations the enumeration closes one pair
(j₊, j) per join-irreducible j; the oracle closes every cover pair.  On a
pure lattice it closes nothing: Con(L) is read off the dependency relation
on J(L), and the closure enumeration it replaced is the oracle; the masks
ConLattice reads off the steps it hands over are checked against the seed
scan.  The
generator-mask order of Con(A) is checked against partition refinement and
the O(k³) cover scan, the closure in rounds that walks a symmetric table
once against the queue-driven two-sided closure, and J(L) read off the
covers against the O(n²) scan of every element's strict down-set.
"""

import itertools
import random
from collections import deque

import pytest

from congrlab import algebra, congruences, factor, fixtures
from congrlab.algebra import (
    FiniteAlgebra,
    Signature,
    build_from_spec,
    delta_partition,
    direct_product,
    dual,
    emit_spec,
    join_partitions,
    lattice_reduct,
    meet_partitions,
    partition_refines,
)
from congrlab.cli import main
from congrlab.congruences import (
    all_congruences,
    brute_force_congruences,
    cg_generated,
    join,
    maximal_congruences,
)
from congrlab.fixtures import FIXTURE_NAMES, fixture, fixture_spec
from congrlab.report import build_report, render_dot

from oracles import closure_enumeration, join_irreducible_pairs, seed_scan
from sweep import sweep
from test_congruences import pointed_algebra, quaternary_algebra, xor_algebra


def chain(n):
    return build_from_spec(
        {
            "name": f"C{n}",
            "kind": "lattice",
            "elements": [f"e{i}" for i in range(n)],
            "cover": [[f"e{i}", f"e{i + 1}"] for i in range(n - 1)],
        }
    )


def generic_copy(A):
    """The same tables as an algebra of the generic kind."""
    spec = emit_spec(A)
    spec["kind"] = "algebra"
    return build_from_spec(spec)


def malcev_join_enumeration(A):
    """Con(A) by closing the principal congruences under pairwise joins,
    each join a Mal'cev closure: the slow path partition joins replace."""
    n = A.n
    pairs = A.covers() if A.is_lattice else [(a, b) for a in range(n) for b in range(a + 1, n)]
    found = {delta_partition(n)}
    worklist = []
    for pair in pairs:
        p = cg_generated(A, [pair]).block_of
        if p not in found:
            found.add(p)
            worklist.append(p)
    stable = [delta_partition(n)] + worklist
    while worklist:
        p = worklist.pop()
        for q in stable:
            r = cg_generated(A, [(e, p[e]) for e in range(n)] + [(e, q[e]) for e in range(n)]).block_of
            if r not in found:
                found.add(r)
                worklist.append(r)
        stable.append(p)
    return found


def lattice_algebras():
    """The 225 sweep lattices, the 16 fixtures, L2^5 and T×E."""
    return (
        sweep()
        + [fixture(name) for name in FIXTURE_NAMES]
        + [direct_product([fixture("L2")] * 5), direct_product([fixture("T"), fixture("E")])]
    )


def join_irreducible_scan(A):
    """(j₊, j) for each join-irreducible j as they were found: j₊ is the
    join of every x < j, and j is join-irreducible iff some x < j and
    j₊ ≠ j."""
    join, meet = A.tables["join"], A.tables["meet"]
    pairs = []
    for j in range(A.n):
        lower = None
        for x in range(A.n):
            if x != j and meet[x][j] == x:
                lower = x if lower is None else join[lower][x]
        if lower is not None and lower != j:
            pairs.append((lower, j))
    return pairs


def test_join_irreducible_pairs_give_the_cover_pairs_generators():
    algebras = lattice_algebras()
    algebras += [dual(fixture(name)) for name in FIXTURE_NAMES if fixture(name).signature.kind != "residuated"]
    assert len(algebras) == 243 + 15
    for A in algebras:
        pairs = join_irreducible_pairs(A)
        assert pairs == join_irreducible_scan(A), A.name
        assert set(pairs) <= set(A.covers()), A.name
        from_pairs = {congruences._close(A, [p]) for p in pairs}
        assert from_pairs == {congruences._close(A, [p]) for p in A.covers()}, A.name
        # the generic-kind copy is enumerated from all pairs a < b instead
        found = {c.block_of for c in all_congruences(A).elements}
        assert found == {c.block_of for c in all_congruences(generic_copy(A)).elements}, A.name


def assert_joins_are_closures(A):
    els = all_congruences(A).elements
    for i, a in enumerate(els):
        for b in els[i:]:
            seeds = [(e, a.block_of[e]) for e in range(A.n)] + [(e, b.block_of[e]) for e in range(A.n)]
            assert join(a, b) == cg_generated(A, seeds), (A.name, a, b)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_join_is_the_malcev_closure_on_fixtures(name):
    assert_joins_are_closures(fixture(name))
    assert_joins_are_closures(generic_copy(fixture(name)))


def test_join_is_the_malcev_closure_on_the_sweep():
    assert_joins_are_closures(xor_algebra())
    for L in sweep():
        assert_joins_are_closures(L)


@pytest.mark.parametrize(
    "build",
    [lambda: direct_product([fixture("L2")] * 5), lambda: direct_product([fixture("T"), fixture("E")])],
    ids=["L2^5", "TxE"],
)
def test_enumeration_matches_the_pairwise_malcev_closure(build):
    # both are past the brute-force oracle's cap
    A = build()
    assert A.n > congruences.BRUTE_FORCE_CAP
    found = {c.block_of for c in all_congruences(A).elements}
    assert found == malcev_join_enumeration(A)


# -- Con(L) by the dependency relation -----------------------------------------


def relabelled(A, seed):
    """An isomorphic copy of an algebra with its carrier shuffled."""
    n = A.n
    new = list(range(n))
    random.Random(seed).shuffle(new)  # element e becomes new[e]
    old = sorted(range(n), key=new.__getitem__)

    def table(f, arity, args=()):
        if len(args) == arity:
            return new[A.op(f, *(old[x] for x in args))]
        return [table(f, arity, args + (x,)) for x in range(n)]

    tables = {f: table(f, arity) for f, arity in A.signature.operations}
    labels = [A.labels[e] for e in old]
    return FiniteAlgebra(n, labels, A.signature, tables, name=f"{A.name}~{seed}")


def dependency_algebras():
    """The sweep, the lattice-kind fixtures, their duals and relabelled
    copies, L2^5 and T×E."""
    lattices = [fixture(name) for name in FIXTURE_NAMES if fixture(name).signature.kind == "lattice"]
    lattices += [dual(L) for L in lattices] + [relabelled(L, i) for i, L in enumerate(lattices)]
    return sweep() + lattices + lattice_algebras()[-2:]


def test_the_dependency_relation_matches_the_closure_enumeration():
    algebras = dependency_algebras()
    assert len(algebras) == 225 + 3 * 15 + 2
    for A in algebras:
        got_args, want_args = congruences._enumerate_partitions(A), closure_enumeration(A)
        (parts, seeds, *_), (want_parts, want_seeds, *_) = got_args, want_args
        assert set(parts) == set(want_parts) and len(parts) == len(want_parts), A.name
        assert seeds == want_seeds, A.name
        # the same partitions, in the same index order, under the same masks
        got, want = congruences.ConLattice(A, *got_args), congruences.ConLattice(A, *want_args)
        assert [c.block_of for c in got.elements] == [c.block_of for c in want.elements], A.name
        assert got.gen_masks == want.gen_masks, A.name


def test_pure_lattices_need_no_closure_and_no_join(monkeypatch):
    def refuse(*args):
        raise AssertionError("a pure lattice was enumerated by closure")

    lattices = sweep()
    expected = [congruences._enumerate_partitions(L) for L in lattices]
    monkeypatch.setattr(congruences, "_close", refuse)
    monkeypatch.setattr(congruences, "join_partitions", refuse)
    for A in dependency_algebras():
        congruences._enumerate_partitions(A)
    # bounded-lattice copies take the same path to the same answer
    for L, want in zip(lattices, expected):
        B = lattice_reduct(L, "bounded-lattice")
        assert B.signature.kind == "bounded-lattice"
        assert congruences._enumerate_partitions(B) == want, L.name


def con_fields(cl):
    return [c.block_of for c in cl.elements], cl.blocks, cl.gen_masks, cl._up_masks, cl._down_masks


def test_the_lattice_path_masks_are_the_seed_scan():
    # ConLattice reads its masks off the lattice path's steps, each
    # down-set of J-classes as its parent and the class it adds; the seed
    # scan it skips is the oracle
    algebras = sweep() + [fixture(name) for name in FIXTURE_NAMES] + [direct_product([fixture("L2")] * 5)]
    lattice_path = 0
    for A in algebras:
        if not congruences.is_pure_lattice(A):
            continue
        lattice_path += 1
        parts, seeds, steps, masks = congruences._enumerate_partitions(A)
        got = congruences.ConLattice(A, parts, seeds, steps, masks)
        want = seed_scan(A, parts, seeds)
        assert con_fields(got) == tuple(want[f] for f in ("partitions", "blocks", "gen_masks", "up", "down")), A.name
    assert lattice_path == 225 + 15 + 1


class Unscanned(tuple):
    """Seed pairs that refuse to be walked."""

    def __iter__(self):
        raise AssertionError("the seeds were scanned")


def test_a_cold_pure_lattice_skips_the_seed_scan(monkeypatch):
    down_sets = congruences._down_sets

    def unscanned(*args):
        parts, seeds, steps, masks = down_sets(*args)
        return parts, Unscanned(seeds), steps, masks

    monkeypatch.setattr(congruences, "_down_sets", unscanned)
    for A, count in [(chain(8), 128), (direct_product([fixture("L2")] * 5), 32), (fixture("L2x3cube"), 8)]:
        assert len(all_congruences(A)) == count, A.name
    # the seed scan that the steps replace would walk them
    C3 = chain(3)
    with pytest.raises(AssertionError, match="scanned"):
        seed_scan(C3, *congruences._enumerate_partitions(C3)[:2])


def c3_with_a_reversal():
    """The chain 0 < a < 1 with the order-reversing unary f, as a
    lattice-kind spec.  C3 alone has four congruences; f leaves two."""
    return build_from_spec(
        {
            "name": "C3f",
            "kind": "lattice",
            "elements": ["0", "a", "1"],
            "operations": {
                "join": [["0", "a", "1"], ["a", "a", "1"], ["1", "1", "1"]],
                "meet": [["0", "0", "0"], ["0", "a", "a"], ["0", "a", "1"]],
                "f": ["1", "a", "0"],
            },
        }
    )


def test_an_extra_operation_keeps_the_closure_path(monkeypatch):
    A = c3_with_a_reversal()
    assert A.signature.kind == "lattice"
    counts = count_calls(monkeypatch, congruences, ["_close"])
    cl = all_congruences(A)
    assert counts["_close"] == 2  # one per join-irreducible element
    assert cl.elements == brute_force_congruences(A)
    assert len(cl) == 2
    assert len(all_congruences(lattice_reduct(A))) == 4


def count_calls(monkeypatch, module, names):
    """Wrap each named function of module to count its calls."""
    counts = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in names:
        counted(name)
    return counts


@pytest.mark.parametrize(
    "build,closures,joins",
    [
        # a pure lattice: the dependency relation, no closure and no join
        (lambda: chain(8), 0, 0),
        (lambda: direct_product([fixture("L2")] * 5), 0, 0),
        (lambda: direct_product([fixture("T"), fixture("E")]), 0, 0),
        (xor_algebra, 6, 9),  # one closure per pair a < b
        # one closure per join-irreducible element, and its down-sets merge
        # pairs, with no partition join
        (lambda: build_from_spec(fixture_spec("R0")), 3, 0),
    ],
    ids=["C8", "L2^5", "TxE", "V4", "R0"],
)
def test_cold_enumeration_closes_only_the_generators(build, closures, joins, monkeypatch):
    A = build()
    counts = count_calls(monkeypatch, congruences, ["_close", "join_partitions"])
    all_congruences(A)
    assert counts == {"_close": closures, "join_partitions": joins}


def test_the_distributivity_scan_agrees_with_funayama_nakayama():
    # generic-kind copies take the O(k^3) scan instead of the theorem
    lattices = [fixture(name) for name in FIXTURE_NAMES] + sweep()
    for L in lattices:
        G = generic_copy(L)
        cl = all_congruences(G)
        assert not G.is_lattice and cl.is_distributive(), L.name
    assert not all_congruences(xor_algebra()).is_distributive()


# -- the order of Con(A) on generator masks ------------------------------------


def order_algebras():
    """The lattice algebras, their generic-kind copies and V4."""
    lattices = lattice_algebras()
    return lattices + [generic_copy(A) for A in lattices] + [xor_algebra()]


def refinement_order(cl):
    els = cl.elements
    return [[partition_refines(a.block_of, b.block_of) for b in els] for a in els]


def cover_scan(leq):
    """The O(k^3) cover scan: i < j with nothing strictly between."""
    k = len(leq)
    return [
        (i, j)
        for i in range(k)
        for j in range(k)
        if i != j
        and leq[i][j]
        and not any(m != i and m != j and leq[i][m] and leq[m][j] for m in range(k))
    ]


def test_the_mask_order_is_refinement():
    pairs = 0
    for A in order_algebras():
        cl = all_congruences(A)
        leq = refinement_order(cl)
        k = len(cl)
        assert [[cl.leq(i, j) for j in range(k)] for i in range(k)] == leq, A.name
        assert [[cl.elements[cl.meet(i, j)].block_of for j in range(k)] for i in range(k)] == [
            [meet_partitions(a.block_of, b.block_of) for b in cl.elements] for a in cl.elements
        ], A.name
        assert [cl.up_set(i) for i in range(k)] == [
            [j for j in range(k) if leq[i][j]] for i in range(k)
        ], A.name
        nb = cl.index_of_nabla
        maximal = [
            cl.elements[i]
            for i in range(k)
            if i != nb and all(j in (i, nb) or not leq[i][j] for j in range(k))
        ]
        if k > 1:
            assert maximal_congruences(A) == maximal, A.name
        assert cl.covers() == cover_scan(leq), A.name
        pairs += k * k
    assert pairs > 2 * 68528


def test_render_dot_draws_the_cover_edges():
    # V4's Con is not distributive, so it has no center to draw
    algebras = [fixture(name) for name in FIXTURE_NAMES]
    algebras += [generic_copy(A) for A in algebras] + lattice_algebras()[-2:]
    for A in algebras:
        cl = all_congruences(A)
        edges = [line for line in render_dot(A).splitlines() if "->" in line]
        assert edges == [f"  n{i} -> n{j};" for i, j in cover_scan(refinement_order(cl))]


def test_each_generator_is_kept_with_one_seed_pair():
    for A in [fixture(name) for name in FIXTURE_NAMES] + [xor_algebra(), chain(8)]:
        seeds = congruences._enumerate_partitions(A)[1]
        gens = [congruences._close(A, [pair]) for pair in seeds]
        assert len(set(gens)) == len(gens), A.name
        cl = all_congruences(A)
        # every congruence is the join of the generators below it
        for theta, mask in zip(cl.elements, cl.gen_masks):
            below = delta_partition(A.n)
            for g, p in enumerate(gens):
                if mask >> g & 1:
                    below = join_partitions(below, p)
            assert below == theta.block_of, A.name


def large_report_operations():
    """The six operations of the benchmark's large_reports workload, on
    isomorphic copies: reports on C7, C8, L2^4, L2^5 and T×E, then
    `congrlab product T E`."""
    T, E, L2 = (build_from_spec(fixture_spec(name)) for name in ("T", "E", "L2"))
    algebras = [chain(7), chain(8), direct_product([L2] * 4), direct_product([L2] * 5)]
    algebras.append(direct_product([T, E]))
    return [lambda A=A: build_report(A) for A in algebras] + [lambda: main(["product", "T", "E"])]


def test_cold_large_reports_refine_no_partitions(monkeypatch, capsys):
    # each operation starts cold; no pinned count may go up
    names = ["partition_refines", "join_partitions", "_close"]
    tallies = [count_calls(monkeypatch, algebra, ["partition_refines"])]
    for module in (congruences, factor):
        tallies.append(count_calls(monkeypatch, module, [n for n in names if hasattr(module, n)]))
    for op in large_report_operations():
        fixtures.fixture.cache_clear()
        op()
    capsys.readouterr()
    counts = dict.fromkeys(names, 0)
    for tally in tallies:
        for name, c in tally.items():
            counts[name] += c
    assert counts == {"partition_refines": 0, "join_partitions": 0, "_close": 0}


# -- closures on symmetric tables ------------------------------------------------


def canonicalize(parent_of) -> tuple[int, ...]:
    """Canonical partition form: block_of[e] = minimum element of e's block."""
    n = len(parent_of)
    rep = {}
    out = [0] * n

    def root(e):
        while parent_of[e] != e:
            e = parent_of[e]
        return e

    for e in range(n):
        r = root(e)
        if r not in rep:
            rep[r] = e
        out[e] = rep[r]
    return tuple(out)


def two_sided_close(A, seeds):
    """The closure as it was: a union-find with a queue, on both argument
    positions of every binary table, commutative or not."""
    n = A.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = deque()

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx
            queue.append((rx, ry))

    for a, b in seeds:
        union(a, b)
    ops = [(f, ar) for f, ar in A.signature.operations if ar >= 1]
    while queue:
        x, y = queue.popleft()
        for fname, arity in ops:
            t = A.tables[fname]
            if arity == 1:
                union(t[x], t[y])
            elif arity == 2:
                tx, ty = t[x], t[y]
                for z in range(n):
                    union(tx[z], ty[z])
                    union(t[z][x], t[z][y])
            else:
                for rest in itertools.product(range(n), repeat=arity - 1):
                    for i in range(arity):
                        union(
                            A.op(fname, *rest[:i], x, *rest[i:]),
                            A.op(fname, *rest[:i], y, *rest[i:]),
                        )
    return canonicalize(parent)


def subtraction_mod(n):
    """Z_n under x - y: a binary operation that is not commutative."""
    return FiniteAlgebra(
        n, [str(i) for i in range(n)], Signature((("minus", 2),)),
        {"minus": [[(x - y) % n for y in range(n)] for x in range(n)]},
    )


def left_zero_with_shift():
    """x·y = x on four elements, with a unary shift: one non-symmetric and
    one unary table."""
    n = 4
    return FiniteAlgebra(
        n, "abcd", Signature((("dot", 2), ("shift", 1))),
        {"dot": [[x] * n for x in range(n)], "shift": [(x + 1) % n for x in range(n)]},
    )


def walked_twice(A):
    """For each binary table, whether its rows hold its columns too."""
    return [len(rows[0]) == 2 * A.n for f, rows in congruences._operations(A) if A.signature.arity(f) == 2]


def test_closure_walks_symmetric_tables_once_and_others_twice():
    from test_join_irreducible_masks import random_generic_algebras
    from test_residuated import RESIDUATED_CHAINS, residuated_chain

    fixtures_ = [fixture(name) for name in FIXTURE_NAMES]
    algebras = fixtures_ + [generic_copy(A) for A in fixtures_]
    algebras += [xor_algebra(), subtraction_mod(6), left_zero_with_shift()]
    algebras += [quaternary_algebra(), pointed_algebra()] + random_generic_algebras()
    algebras += [build_from_spec(residuated_chain(n, t)) for t, n in RESIDUATED_CHAINS]
    flags = {f for A in algebras for f in walked_twice(A)}
    assert flags == {True, False}
    rng = random.Random(16)
    for A in algebras:
        for a in range(A.n):
            for b in range(a + 1, A.n):
                assert congruences._close(A, [(a, b)]) == two_sided_close(A, [(a, b)]), (A.name, a, b)
        for size in (2, 3):
            for _ in range(10):
                seeds = [(rng.randrange(A.n), rng.randrange(A.n)) for _ in range(size)]
                assert cg_generated(A, seeds).block_of == two_sided_close(A, seeds), (A.name, seeds)


def test_symmetry_is_read_from_the_table_not_the_name():
    # a table named "join" that is not commutative keeps both positions
    A = FiniteAlgebra(3, "abc", Signature((("join", 2),)), {"join": [[x] * 3 for x in range(3)]})
    assert walked_twice(A) == [True]
    assert walked_twice(fixture("L3")) == [False, False]  # join and meet, once each
