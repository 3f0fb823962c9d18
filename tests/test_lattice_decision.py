"""An order is decided to be a lattice by its join-irreducibles, and its
join and meet tables are made only where read.

algebra._order_lattice tests the joins j ∨ y, j ∈ J with J the elements
with one lower cover j₊, at the y with j₊ ≤ y and j ≰ y: at most n·|J|
lookups of ↑j ∩ ↑y among the up-sets, where the scan it replaced looked up
all n² (its docstring has the proof).  The test keeps J(L) with each j₊,
M(L) and the upper ends of each j's joins (FiniteAlgebra.irreducibles),
which the J step and the block counts read.  Only an order that fails the
test is scanned, for the pair NotALattice names.  Here the test is held to
that scan (oracles.scanned_lattice) on every labelled bounded poset with at
most 4 inner points, on every preorder of at most 4 points, bounded or
not, and on seeded random bounded posets with 3-11 inner points: the same
verdict, the same tables, the same message, and on a lattice the
irreducibles read off the scanned join table
(oracles.scanned_irreducibles).

A lattice built from its order keeps its masks, the element of each
(mask_elements) and its irreducibles, and makes its join and meet tables
on their first read: the J step, the four verdicts and a report read
neither, and the J step reads no down-set's element.  Its equality and
hash are those of its tables, whether or not they were made yet.
"""

import itertools
import random

from congrlab import algebra
from congrlab.algebra import (
    FiniteAlgebra,
    build_from_spec,
    direct_product,
    join_classes,
    lattice_from_order,
    ordinal_sum,
)
from congrlab.errors import NotALattice
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.report import build_report

from oracles import scanned_irreducibles, scanned_lattice
from sweep import _strict_orders, _with_bounds, sweep
from test_distributive_lattices import boolean_spec
from test_j_step import verdicts
from test_join_irreducible_masks import cold
from test_partition_join import count_calls


def decided(leq, labels):
    """lattice_from_order's verdict on the order matrix leq: its join and
    meet tables with the irreducibles its build kept, or the text of its
    NotALattice."""
    try:
        A = lattice_from_order(leq, labels)
    except NotALattice as exc:
        return str(exc)
    return A.tables["join"], A.tables["meet"], tuple(A.irreducibles())


def scanned(leq, labels):
    """decided(leq, labels) by the scan of every pair."""
    up = [sum(1 << b for b, x in enumerate(row) if x) for row in leq]
    try:
        down, join, meet = scanned_lattice(up, labels)
    except NotALattice as exc:
        return str(exc)
    return join, meet, scanned_irreducibles(up, down, join)


def tally(orders):
    """The number of lattices and of other orders among orders, each
    decided as the scan decides it."""
    counts = {"lattice": 0, "not": 0}
    for leq in orders:
        labels = [f"v{i}" for i in range(len(leq))]
        got = decided(leq, labels)
        assert got == scanned(leq, labels), leq
        counts["not" if isinstance(got, str) else "lattice"] += 1
    return counts


def test_every_small_bounded_poset_is_decided_as_the_scan_decides_it():
    orders = [_with_bounds(rel, m) for m in range(5) for rel in _strict_orders(m)]
    assert len(orders) == 1 + 1 + 3 + 19 + 219
    # a bounded poset is no lattice only with a crown a, b < c, d inside
    assert tally(orders) == {"lattice": 237, "not": 6}


def preorders(n):
    """Every reflexive and transitive relation on n points, as a matrix:
    antisymmetric or not, with a least element or not."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for bits in range(1 << len(pairs)):
        leq = [[a == b for b in range(n)] for a in range(n)]
        for k, (a, b) in enumerate(pairs):
            leq[a][b] = bool(bits >> k & 1)
        if all(leq[a][c] for a, b, c in itertools.product(range(n), repeat=3) if leq[a][b] and leq[b][c]):
            yield leq


def test_every_small_preorder_is_decided_as_the_scan_decides_it():
    # no least element, or two elements with one up-set, fails the test
    orders = [leq for n in range(1, 5) for leq in preorders(n)]
    assert len(orders) == 1 + 4 + 29 + 355
    # the labelled chains, and the 12 labelled squares on 4 points
    assert tally(orders) == {"lattice": 1 + 2 + 6 + 24 + 12, "not": 344}


def random_bounded_poset(rng):
    """A bounded poset with 3-11 inner points: the transitive closure of
    random pairs along a random order of them, with a least and a greatest
    element added."""
    m = rng.randint(3, 11)
    perm = rng.sample(range(m), m)
    p = rng.uniform(0.1, 0.9)
    rel = [[False] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rel[perm[i]][perm[j]] = rng.random() < p
    for k, i, j in itertools.product(range(m), repeat=3):
        rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    return _with_bounds(rel, m)


def test_random_bounded_posets_are_decided_as_the_scan_decides_them():
    rng = random.Random(20261022)
    assert tally(random_bounded_poset(rng) for _ in range(4000)) == {"lattice": 3255, "not": 745}


def rebuilt(A):
    """A anew from its order, with no table made yet."""
    up = A.order_masks()[0]
    B = lattice_from_order([[up[a] >> b & 1 for b in range(A.n)] for a in range(A.n)], A.labels, name=A.name)
    assert "join" not in B._tables and "meet" not in B._tables
    return B


def order_built():
    """Lattices built from their orders, none with a table yet: the sweep
    anew, the lattice fixtures from their cover specs, and the pairwise
    products and ordinal sums of four of them."""
    lattices = [fixture(name) for name in FIXTURE_NAMES if fixture(name).signature.kind == "lattice"]
    four = [rebuilt(fixture(name)) for name in ("P", "X", "D", "L2x2")]
    pairs = list(itertools.product(four, repeat=2))
    return (
        [rebuilt(A) for A in sweep()]
        + [rebuilt(A) for A in lattices]
        + [direct_product([A, B]) for A, B in pairs]
        + [ordinal_sum(A, B) for A, B in pairs]
    )


def test_an_order_built_lattice_equals_its_public_copy_before_and_after_its_tables_are_made():
    first, second = order_built(), order_built()
    assert len(first) == 225 + 15 + 16 + 16
    for A, B in zip(first, second):
        assert "meet" not in A._tables and "meet" not in B._tables, A.name
        copy = FiniteAlgebra(A.n, A.labels, A.signature, dict(rebuilt(A).tables), A.name)
        # A is hashed first, B compared first, each before its tables are made
        assert hash(A) == hash(copy) and A == copy and copy == A, A.name
        assert B == copy and copy == B and hash(B) == hash(copy), A.name
        assert A.tables == B.tables == copy.tables and A == B and hash(A) == hash(B), A.name


def test_a_cold_j_step_looks_up_no_mask_map(monkeypatch):
    lattices = [rebuilt(A) for A in sweep()] + [build_from_spec(boolean_spec(8))]
    counts = count_calls(monkeypatch, algebra, ["_element_of", "_lattice_tables", "_irreducibles"])
    for L in lattices:
        # J(L) with each j₊ comes from the irreducibles the build kept: no
        # down-set's element is looked up, so any read of by_down fails
        L._cache["mask_elements"] = L.mask_elements()[0], None
        join_classes(L)
    assert counts == {"_element_of": 0, "_lattice_tables": 0, "_irreducibles": 0}


def test_the_four_cold_verdicts_and_a_report_make_no_table(monkeypatch):
    lattices = [rebuilt(A) for A in sweep()]
    L = build_from_spec(boolean_spec(8))
    counts = count_calls(monkeypatch, algebra, ["_lattice_tables"])
    got = [verdicts(A) for A in lattices]
    report = build_report(L)
    assert counts == {"_lattice_tables": 0}
    assert not any("join" in A._tables or "meet" in A._tables for A in lattices + [L])
    # the same verdicts and report once the tables are made, on cold copies
    assert [verdicts(cold(A)) for A in lattices] == got
    assert build_report(cold(L)) == report
