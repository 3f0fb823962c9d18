"""One J(Con A) record per algebra, with one constructor per kind.

factor.jspace(A) holds J(Con A) with its order, the block counts
|A/θ_D|, FC(A)'s atoms and, on a distributive pure lattice, P = J(L); its
constructor is picked once, by is_pure_lattice.  The lattice constructor
reads the J step, lower covers and central elements of L with no Con(L).
The oracle is the generic constructor, which reads all of it off Con(A):
run on a pure lattice, it must give the same record.  P has no reading in
Con(L) alone, but its comparabilities do: for j ≠ k in P,
L/θ_{J∖{j,k}} ≅ O({j, k}) has 3 elements if j and k are comparable and 4
if not (lifting module doc, 6b).
"""

import ast
import functools

from congrlab import algebra, congruences, factor, lifting
from congrlab.algebra import build_from_spec

from oracles import join_irreducible_pairs
from sweep import sweep
from test_dead_code import module_reads, source_trees
from test_distributive_lattices import chain_on_top_spec, residuated_inputs
from test_join_irreducible_masks import cold, random_generic_algebras
from test_lower_cover_counts import populations
from test_partition_join import count_calls


@functools.cache
def chains_on_top():
    """{P, D, H, X, T}⊕Ck for 2 ≤ k ≤ 10."""
    return [build_from_spec(chain_on_top_spec(base, k)) for base in "PDHXT" for k in range(2, 11)]


def p_order_from_counts(J):
    """(near, components) of P read off the generic record's block counts,
    on a distributive lattice, where J(Con L) is P's antichain of points."""
    full = sum(J.components)
    near = [
        sum(1 << k for k in algebra._bits(full) if k == h or J.count(full & ~(1 << h | 1 << k)) == 3)
        for h in range(len(J.down))
    ]
    return near, factor._components(near, full)


def test_the_lattice_record_is_the_generic_one_read_off_con():
    thetas, distributive = {}, 0
    for name, lattices in {**populations(), "chains on top": chains_on_top()}.items():
        thetas[name] = 0
        for L in lattices:
            got, want = factor.jspace(cold(L)), factor._ConJSpace(cold(L))
            assert isinstance(got, factor._LatticeJSpace), (name, L.name)
            for field in ("down", "near", "components", "tops"):
                assert getattr(got, field) == getattr(want, field), (name, L.name, field)
            assert set(got.fc_atoms) == set(want.fc_atoms), (name, L.name)
            assert got.center_is_factor == want.center_is_factor, (name, L.name)
            assert got.side(False) == want.side(False), (name, L.name)
            # J(Con L) is an antichain with a point per j ∈ J(L) iff L is
            # distributive (congruences module doc)
            points = all(d == 1 << g for g, d in enumerate(want.down))
            if points and len(want.down) == len(join_irreducible_pairs(L)):
                assert got.p_order == p_order_from_counts(want), (name, L.name)
                distributive += 1
            else:
                assert got.p_order is None, (name, L.name)
            assert want.p_order is None, (name, L.name)
            # every down-set of J is some θ's mask
            cl = want._cl
            for t, mask in enumerate(cl.gen_masks):
                assert got.count(mask) == want.count(mask) == cl.blocks[t], (name, L.name, t)
            thetas[name] += len(cl)
    assert thetas == {"sweep": 2309, "fixtures": 86, "sums": 45036, "products": 1881, "chains on top": 28616}
    assert distributive > 100


VERDICTS = (lifting.algebra_fclp, lifting.algebra_cblp, lifting.is_fc_normal, lifting.is_b_normal)


def test_the_record_computes_only_on_first_use(monkeypatch):
    # what the record reads only when asked: the block counts, the covers
    # of L, its central elements and Con(L).  On cold copies of the 225
    # sweep lattices only the 74 that reach the pair test of FCLP, or count
    # FC(L) = B(L), read block counts, and those read no cover: the counts
    # come off the join table.  The 46 with a permuting pair have one inside
    # a component of J, so none reads the central elements, and no verdict
    # enumerates Con(L)
    covers = count_calls(monkeypatch, algebra, ["cover_pairs"])
    monkeypatch.setattr(congruences, "cover_pairs", algebra.cover_pairs)
    central = count_calls(monkeypatch, factor, ["_central_masks"])
    enumerated = count_calls(monkeypatch, congruences, ["_enumerate_partitions"])

    def work(checks):
        """The calls that the checks make on a cold copy of each sweep
        lattice, and the number of records that count blocks."""
        before = covers["cover_pairs"], central["_central_masks"], enumerated["_enumerate_partitions"]
        counted = 0
        for A in map(cold, sweep()):
            [check(A)[0] for check in checks]
            counted += "_upper_ends" in vars(factor.jspace(A))
        after = covers["cover_pairs"], central["_central_masks"], enumerated["_enumerate_partitions"]
        return (*(y - x for x, y in zip(before, after)), counted)

    assert [work([check]) for check in VERDICTS] == [(0, 0, 0, 74), (0, 0, 0, 0), (0, 0, 0, 74), (0, 0, 0, 0)]
    # all four on one cold copy share the record's work
    assert work(VERDICTS) == (0, 0, 0, 74)


def test_a_record_of_any_other_algebra_reads_no_con_for_p():
    # residuated's readers of P ask every algebra for it: a residuated or
    # generic one answers None with no Con(A), even where Con(A) is not
    # distributive
    algebras = residuated_inputs() + random_generic_algebras()
    for A in map(cold, algebras):
        assert factor.jspace(A).p_order is None, A.name
        assert "all_congruences" not in A._cache, A.name
    assert not all(congruences.all_congruences(A).is_distributive() for A in algebras)


def test_is_pure_lattice_is_read_only_where_a_kind_is_picked():
    # a kind's fast path is one constructor of the record: jspace picks it,
    # and the enumeration of Con(A) picks its own
    readers = set()
    for module, tree in source_trees().items():
        scopes = [(node.name, node.lineno, node.end_lineno) for node in tree.body if hasattr(node, "name")]
        for name, line in module_reads(tree):
            if name == "is_pure_lattice":
                readers.update((module, s) for s, first, last in scopes if first <= line <= last)
        assert not any(isinstance(n, ast.Attribute) and n.attr == "is_pure_lattice" for n in ast.walk(tree)), module
    assert readers == {("congruences.py", "_enumerate_partitions"), ("factor.py", "jspace")}
