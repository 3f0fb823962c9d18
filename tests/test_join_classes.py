"""The J step of a lattice in one pass, against the three steps it replaced.

algebra.join_classes reads J(L) with each j₊, M(L), Freese's D and D*, the
classes of D* with their seeds, J(Con L)'s order (down, near, components,
tops) and whether D is empty off L's order masks, once per lattice, each
join j∨m read as the element whose up-set is ↑j ∩ ↑m off the mask maps the
build kept (algebra.mask_elements); on a distributive L it skips the
closure, the grouping and the order, as J(Con L) is then an antichain with
one class per j.  The oracle is the chain it replaced (oracles.j_step): the
dependency pass, then the classes, then J(Con L)'s order read off their
down-sets.  The four cold verdicts run the pass once per lattice, decide
FCLP once, and read joins only in the pass and, where blocks are counted,
for the upper ends of the lower covers of each class (factor.JSpace.count):
no join or meet table is read, or made on a lattice built from its order.
"""

from congrlab import algebra, lifting
from congrlab.algebra import _bits, join_classes
from congrlab.factor import jspace
from congrlab.fixtures import FIXTURE_NAMES, fixture

from oracles import j_step, join_irreducible_pairs
from sweep import sweep
from test_dependency_pass import dependency_reads, join_masks, watch_joins
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


def upper_end_reads(A):
    """The (j, y) of each join j∨y the block counts read: each
    join-irreducible j and each y ≥ j₊ with j ≰ y."""
    up = A.order_masks()[0]
    return [(j, y) for jp, j in join_irreducible_pairs(A) for y in _bits(up[jp] & ~up[j])]


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
        # each join the dependency pass needs, once, and those of the block
        # counts where they are read, repeats and all; no table entry
        want = list(dependency_reads(A))
        if "_upper_ends" in vars(jspace(A)):
            counted += 1
            want += upper_end_reads(A)
        assert sorted(joins) == join_masks(A, want) and not entries, A.name
    assert counts == {"_factor_criterion": 225}
    assert counted == 74


def test_the_j_steps_pairs_are_the_join_irreducible_pairs():
    # J(L) and each j₊ are read once, in the J step; the oracle reads them
    # off the down-sets, on a lattice or a residuated lattice's reduct
    algebras = sweep() + [fixture(name) for name in FIXTURE_NAMES] + residuated_inputs()
    assert len(algebras) == 225 + 16 + 111
    for A in algebras:
        assert join_classes(A).pairs == tuple(join_irreducible_pairs(A)), A.name
