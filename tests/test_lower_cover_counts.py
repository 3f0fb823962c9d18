"""A pure lattice's block counts from lower-cover masks, and the one-pass
dependency pass, against the routines they replaced.

On a pure lattice L, factor.jspace(L).count counts |L/θ_D| as n less the
number of x with a lower cover whose class is in D, with no partition built
(its docstring has the proof).  The J step, algebra.join_classes, reads
J(L) with each j₊, and M(L), in one pass over the order masks.  The oracles are
the union-find over the covers of D's classes
(oracles.union_find_block_counter), the block counts of Con(L), and the
J step as it was (oracles.j_step) on the dependency pass as it was before
that, with J(L) and M(L) read in two passes.
"""

import functools

from congrlab.algebra import _bits, join_classes, lattice_reduct
from congrlab.congruences import all_congruences
from congrlab.factor import jspace
from congrlab.fixtures import FIXTURE_NAMES, fixture

from oracles import j_step, join_irreducible_pairs, union_find_block_counter
from sweep import sweep
from test_coatom_pairs import ordinal_sums, products
from test_join_irreducible_masks import cold


@functools.cache
def populations():
    """The sweep, the 16 fixtures' lattice reducts, and the 640 ordinal
    sums and 45 products of test_coatom_pairs."""
    return {
        "sweep": sweep(),
        "fixtures": [lattice_reduct(fixture(name)) for name in FIXTURE_NAMES],
        "sums": ordinal_sums(),
        "products": products(),
    }


def two_pass_join_dependency(L):
    """The dependency pass as it was: J(L) with each j₊ from
    join_irreducible_pairs, M(L) in a second pass over the up-masks, then D
    and D* as the library reads them."""
    up, down = L.order_masks()
    join, ups = L.tables["join"], set(up)
    pairs = join_irreducible_pairs(L)
    meet_irreducible = sum(1 << m for m, u in enumerate(up) if u & ~(1 << m) in ups)
    js = sum(1 << j for _, j in pairs)
    jd = [d & js for d in down]
    below = {}
    for jp, j in pairs:
        acc, row = 1 << j, join[j]
        for m in _bits(up[jp] & ~up[j] & meet_irreducible):
            acc |= jd[row[m]] & ~jd[m]
        below[j] = acc
    for i, bi in below.items():
        if bi & (bi - 1):
            bit = 1 << i
            for k, bk in below.items():
                if bk & bit:
                    below[k] = bk | bi
    return tuple((jp, j, below[j]) for jp, j in pairs)


def test_lower_cover_counts_are_the_union_find_and_the_con_counts():
    thetas = {}
    for name, lattices in populations().items():
        thetas[name] = 0
        for L in lattices:
            cl = all_congruences(L)
            count, oracle = jspace(cold(L)).count, union_find_block_counter(L)
            # on a pure lattice θ's mask is the down-set of its classes
            for t, mask in enumerate(cl.gen_masks):
                assert count(mask) == oracle(mask) == cl.blocks[t], (name, L.name, t)
            thetas[name] += len(cl)
    assert {name: len(lattices) for name, lattices in populations().items()} == {
        "sweep": 225,
        "fixtures": 16,
        "sums": 640,
        "products": 45,
    }
    assert thetas == {"sweep": 2309, "fixtures": 86, "sums": 45036, "products": 1881}


def test_the_one_pass_dependency_pass_is_the_two_pass_one():
    for name, lattices in populations().items():
        for L in lattices:
            assert join_classes(cold(L))._asdict() == j_step(L, two_pass_join_dependency(L)), (name, L.name)
