"""The J step of a lattice in one pass, against the three steps it replaced.

algebra.join_classes reads J(L) with each j₊ and M(L) off the irreducibles
the build's lattice test kept (FiniteAlgebra.irreducibles), then Freese's D
and D*, the classes of D* with their seeds, J(Con L)'s order (down, near,
components, tops) and whether D is empty, once per lattice, each join j∨m
read as the element whose up-set is ↑j ∩ ↑m off the mask maps the build
kept (algebra.mask_elements); on a distributive L it skips the closure, the
grouping and the order, as J(Con L) is then an antichain with one class per
j.  The oracle is the chain it replaced (oracles.j_step): the dependency
pass, then the classes, then J(Con L)'s order read off their down-sets.
The four cold verdicts run the pass once per lattice, decide FCLP once, and
read joins only in the lattice test, which a cold lattice runs on the first
read of its irreducibles, and in the pass; where blocks are counted they
read the upper ends the test kept (factor.JSpace.count) and no join: no
join or meet table is read, or made on a lattice built from its order.
"""

from congrlab import algebra, congruences, lifting
from congrlab.algebra import class_pairs, join_classes
from congrlab.factor import jspace
from congrlab.fixtures import FIXTURE_NAMES, fixture

from oracles import j_step, join_irreducible_pairs
from sweep import sweep
from test_dependency_pass import dependency_reads, join_masks, pass_masks, watch_joins
from test_distributive_lattices import residuated_inputs
from test_j_step import verdicts
from test_jspace import chains_on_top
from test_join_irreducible_masks import cold
from test_lower_cover_counts import populations
from test_partition_join import count_calls


def test_the_one_pass_is_the_three_step_chain():
    lattices, distributive = {}, {}
    for name, population in {**populations(), "chains on top": chains_on_top()}.items():
        lattices[name], distributive[name] = len(population), 0
        for L in population:
            got = join_classes(cold(L))
            assert got._asdict() == j_step(L), (name, L.name)
            distributive[name] += got.distributive
    assert lattices == {"sweep": 225, "fixtures": 16, "sums": 640, "products": 45, "chains on top": 45}
    # both branches of the pass are taken in every population but the
    # chains on top, whose bases are not distributive
    assert distributive == {"sweep": 29, "fixtures": 8, "sums": 208, "products": 28, "chains on top": 0}


def test_the_four_cold_verdicts_run_the_pass_once_per_sweep_lattice(monkeypatch):
    # the pass makes one JClasses record each time it runs
    made, JClasses = [], algebra.JClasses
    monkeypatch.setattr(algebra, "JClasses", lambda *fields: made.append(fields) or JClasses(*fields))
    counts = count_calls(monkeypatch, lifting, ["_factor_criterion"])
    counted = 0
    for A in map(cold, sweep()):
        joins, entries = watch_joins(A)  # L's order, read before its joins are watched
        before = len(made)
        [v[0] for v in verdicts(A)]
        assert len(made) == before + 1, A.name
        # each distinct join of the lattice test, once, as a cold lattice
        # reads its irreducibles, and each join the dependency pass needs,
        # once; the block counts read the upper ends the test kept, and no
        # join; no table entry is read
        counted += "_upper_ends" in vars(jspace(A))
        want = join_masks(A, dependency_reads(A)) + pass_masks(A)
        assert sorted(joins) == sorted(want) and not entries, A.name
    assert counts == {"_factor_criterion": 225}
    assert counted == 74


def test_the_j_steps_pairs_are_the_join_irreducible_pairs():
    # J(L) and each j₊ are read once, in the J step; the oracle reads them
    # off the down-sets, on a lattice or a residuated lattice's reduct
    algebras = sweep() + [fixture(name) for name in FIXTURE_NAMES] + residuated_inputs()
    assert len(algebras) == 225 + 16 + 111
    for A in algebras:
        assert join_classes(A).pairs == tuple(join_irreducible_pairs(A)), A.name


def class_pair_ends(L):
    """The mask of the upper ends of each class's pairs, read off
    class_pairs(L)."""
    ends = [0] * len(join_classes(L).seeds)
    for c, pairs in class_pairs(L):
        ends[c] |= sum({1 << x for _, x in pairs})
    return ends


def test_the_kept_irreducibles_give_the_j_step_and_the_upper_ends_of_the_class_pairs():
    # each lattice as built, with the irreducibles its build kept, and a
    # cold copy, which reads them anew
    for name, population in populations().items():
        for L in population:
            want = j_step(L)
            assert join_classes(L)._asdict() == want == join_classes(cold(L))._asdict(), (name, L.name)
            ends = class_pair_ends(L)
            assert jspace(L)._upper_ends == ends == jspace(cold(L))._upper_ends, (name, L.name)
            # the pairs J(L) is read at are the irreducibles' own tuple
            assert join_classes(L).pairs is L.irreducibles().pairs, (name, L.name)


def test_the_block_counts_call_no_class_pairs(monkeypatch):
    lattices = [cold(L) for L in sweep()]
    counts = count_calls(monkeypatch, algebra, ["class_pairs"])
    counts_con = count_calls(monkeypatch, congruences, ["class_pairs"])
    for L in lattices:
        jspace(L)._upper_ends
    assert counts == counts_con == {"class_pairs": 0}
    assert [jspace(L)._upper_ends for L in lattices] == [class_pair_ends(L) for L in lattices]
