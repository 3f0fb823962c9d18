"""Fullness, permutability, the lattice tables and the lifting columns
against the slow paths they replace.

ConLattice decides θ_i∘θ_j = ∇ by |A/(θ_i∧θ_j)| = |A/θ_i|·|A/θ_j|,
permutability on the join-irreducibles alone, each pair by the block counts
Σ_B a_B·b_B = |A/(θ_i∧θ_j)| over the blocks B of θ_i∨θ_j, meets and joins
from the order's bitmasks, and lifting_report's columns on lattice indices.  The old
ways live on here as oracles: composing the relations, comparing both
compositions of every pair, the partition meet and join, and the rendered
evidence of has_fclp / has_cblp.
"""

import pytest

from congrlab import congruences
from congrlab.algebra import direct_product, join_partitions, meet_partitions
from congrlab.congruences import ConLattice, Congruence, all_congruences, compose, permutes
from congrlab.factor import crt_characterization
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.lifting import algebra_cblp, algebra_fclp, has_cblp, has_fclp, lifting_report
from congrlab.report import build_report

from sweep import sweep
from test_congruences import xor_algebra
from test_join_irreducible_masks import random_generic_algebras
from test_partition_join import chain, generic_copy


def assert_tables_match_compositions(A):
    cl = all_congruences(A)
    els = cl.elements
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            where = (A.name, a.block_string(), b.block_string())
            full = compose(a, b).is_full()
            assert cl.composes_to_nabla(i, j) == full, where
            meet = Congruence(A, meet_partitions(a.block_of, b.block_of))
            join = Congruence(A, join_partitions(a.block_of, b.block_of))
            assert (cl.meet(i, j), cl.join(i, j)) == (cl.index(meet), cl.index(join)), where
    all_pairs = all(permutes(a, b) for i, a in enumerate(els) for b in els[i + 1 :])
    assert cl.is_permutable() == all_pairs, A.name
    return all_pairs


def assert_columns_match_evidence(A):
    thetas = all_congruences(A).elements
    rows = lifting_report(A).per_congruence
    for prop, decide, algebra_level in (
        ("fclp", has_fclp, algebra_fclp),
        ("cblp", has_cblp, algebra_cblp),
    ):
        evidence = [decide(A, theta) for theta in thetas]
        for theta, row, (ok, ev) in zip(thetas, rows, evidence):
            where = (A.name, theta.block_string(), prop)
            assert (row[prop], row[f"{prop}_unliftable"]) == (ok, ev.unliftable), where
        first_bad = next((i for i, (ok, _) in enumerate(evidence) if not ok), None)
        if first_bad is None:
            assert algebra_level(A) == (True, None, None), A.name
        else:
            assert algebra_level(A) == (False, evidence[first_bad][1], thetas[first_bad]), A.name


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_block_counts_match_compositions_on_fixtures(name):
    for A in (fixture(name), generic_copy(fixture(name))):
        assert_tables_match_compositions(A)
        assert_columns_match_evidence(A)


def test_block_counts_match_compositions_on_the_sweep():
    # V4's Con is the diamond: not distributive, so it has no lifting columns
    assert_tables_match_compositions(xor_algebra())
    permutable = 0
    for L in sweep():
        permutable += assert_tables_match_compositions(L)
        assert_columns_match_evidence(L)
    # both answers occur, so the join-irreducible test is checked both ways
    assert 0 < permutable < 225


@pytest.mark.parametrize(
    "build,pairs",
    [
        # the full-composition and all-pairs permutability scans composed
        # 16640, 2016 and 636 times, and the composing pair test 2, 20 and 6
        (lambda: chain(8), 1),  # the first pair of atoms does not permute
        (lambda: direct_product([fixture("L2")] * 5), 10),  # 5 atoms, both ways
        (lambda: direct_product([fixture("T"), fixture("E")]), 3),
    ],
    ids=["C8", "L2^5", "TxE"],
)
def test_a_report_composes_no_relation(build, pairs, monkeypatch):
    A = build()
    made, tested = [], []
    original, pair_test = congruences.compose, ConLattice.permutes
    monkeypatch.setattr(congruences, "compose", lambda *args: made.append(1) or original(*args))
    monkeypatch.setattr(ConLattice, "permutes", lambda *args: tested.append(1) or pair_test(*args))
    build_report(A)
    assert (len(made), len(tested)) == (0, pairs)


def test_crt_characterization_composes_no_relation(monkeypatch):
    # the full family of each fixture and of TxE, against distributivity and
    # the composing pair test; CRT holds for some and fails for others
    algebras = [fixture(name) for name in FIXTURE_NAMES] + [direct_product([fixture("T"), fixture("E")])]
    want = []
    for A in algebras:
        cl = all_congruences(A)
        els = cl.elements
        want.append(cl.is_distributive() and all(permutes(a, b) for i, a in enumerate(els) for b in els[i + 1 :]))
    assert set(want) == {True, False}
    made = []
    monkeypatch.setattr(congruences, "compose", lambda *args: made.append(1))
    assert [crt_characterization(A, all_congruences(A).elements) for A in algebras] == want
    assert made == []


def test_permutability_by_block_counts_is_composition():
    # every pair of congruences of the fixtures, the sweep and the random
    # generic algebras, against both compositions
    both = set()
    for A in [fixture(name) for name in FIXTURE_NAMES] + sweep() + random_generic_algebras():
        cl = all_congruences(A)
        els = cl.elements
        for i, a in enumerate(els):
            for j in range(i + 1, len(els)):
                want = permutes(a, els[j])
                assert cl.permutes(i, j) == want, (A.name, a.block_string(), els[j].block_string())
                both.add(want)
    assert both == {True, False}
