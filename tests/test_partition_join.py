"""The partition join against the Mal'cev closure it replaces.

Con(A) is a sublattice of Eq(A), so `join` and the enumeration of Con(A)
use the plain partition join.  The slow paths live on here as oracles: the
closure of both congruences' pairs, and the enumeration that closes every
found congruence under Mal'cev joins with every other one.  On a lattice the
enumeration closes one pair (j₊, j) per join-irreducible j; the oracle
closes every cover pair.
"""

import pytest

from congrlab import congruences
from congrlab.algebra import build_from_spec, delta_partition, direct_product, emit_spec
from congrlab.congruences import all_congruences, cg_generated, join
from congrlab.fixtures import FIXTURE_NAMES, fixture

from sweep import sweep
from test_congruences import xor_algebra


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


def test_join_irreducible_pairs_give_the_cover_pairs_generators():
    algebras = lattice_algebras()
    assert len(algebras) == 243
    for A in algebras:
        pairs = congruences._join_irreducible_pairs(A)
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


@pytest.mark.parametrize(
    "build,closures",
    [
        (lambda: chain(8), 7),  # one per join-irreducible element
        (lambda: direct_product([fixture("L2")] * 5), 5),  # 80 cover pairs
        (lambda: direct_product([fixture("T"), fixture("E")]), 9),  # 97 cover pairs
        (xor_algebra, 6),  # one per pair a < b
    ],
    ids=["C8", "L2^5", "TxE", "V4"],
)
def test_cold_enumeration_closes_only_the_generators(build, closures, monkeypatch):
    A = build()
    calls = []
    close = congruences._close
    monkeypatch.setattr(congruences, "_close", lambda *args: calls.append(1) or close(*args))
    monkeypatch.setattr(congruences, "_PARTITION_CACHE", {})
    all_congruences(A)
    assert len(calls) == closures


def test_the_distributivity_scan_agrees_with_funayama_nakayama():
    # generic-kind copies take the O(k^3) scan instead of the theorem
    lattices = [fixture(name) for name in FIXTURE_NAMES] + sweep()
    for L in lattices:
        G = generic_copy(L)
        cl = all_congruences(G)
        assert not G.is_lattice and cl.is_distributive(), L.name
    assert not all_congruences(xor_algebra()).is_distributive()
