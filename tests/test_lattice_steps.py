"""Con(L) read off the down-set enumeration, and the lifting verdicts in
columns.

On a pure lattice the enumeration hands ConLattice each down-set of
J(Con L) as its parent and the class it adds.  The masks are then the
down-sets themselves, ↑θ is one AND on its parent's, and ↓θ is made on its
first read.  Con(A) is distributive on every algebra with a lattice
reduct, so is_distributive folds nothing there.  Each side's lifting
verdicts fill one column in index order, and a walk for the first failure
fills it only that far.  The oracles are ConLattice's seed scan and
per-generator loops (oracles.seed_scan), the join-prime fold
(oracles.join_prime_fold, which test_join_irreducible_masks also holds to
the triple scan) and the verdict of one θ decided alone
(oracles.lifting_entry).
"""

from congrlab import congruences, factor, lifting
from congrlab.cli import _check
from congrlab.congruences import ConLattice, all_congruences
from congrlab.fixtures import FIXTURE_NAMES, fixture

from oracles import join_prime_fold, lifting_entry, seed_scan
from sweep import sweep
from test_coatom_pairs import ordinal_sums, products
from test_distributive_lattices import residuated_inputs
from test_join_irreducible_masks import cold
from test_jspace import chains_on_top
from test_partition_join import count_calls


def populations():
    """The algebras with a lattice reduct that the lattice path and the
    columns are held to: the sweep, the 16 fixtures, the 640 ordinal sums
    and 45 products of test_coatom_pairs, {P, D, H, X, T}⊕Ck for
    2 ≤ k ≤ 10, and the residuated population."""
    return {
        "sweep": sweep(),
        "fixtures": [fixture(name) for name in FIXTURE_NAMES],
        "sums": ordinal_sums(),
        "products": products(),
        "chains on top": chains_on_top(),
        "residuated": residuated_inputs(),
    }


def fields(cl):
    """Every field of a ConLattice as plain data, ↓θ and the covers last,
    as they read the lazily made ↓ masks."""
    return {
        "partitions": [c.block_of for c in cl.elements],
        "blocks": cl.blocks,
        "seeds": cl.seeds,
        "gen_masks": cl.gen_masks,
        "above": cl._above,
        "up": cl._up_masks,
        "at": cl._at,
        "delta": cl.index_of_delta,
        "nabla": cl.index_of_nabla,
        "size": len(cl),
        "down": cl._down_masks,
        "covers": cl.covers(),
    }


def test_the_steps_give_the_seed_scans_fields():
    paths, sizes = {}, {}
    for name, population in populations().items():
        paths[name] = [0, 0]
        for A in population:
            parts, seeds, steps = congruences._enumerate_partitions(A)
            want = seed_scan(A, parts, seeds)
            # the seed scan on the same partitions, as the closure path runs it
            assert fields(ConLattice(A, parts, seeds)) == want, (name, A.name)
            if steps is not None:
                got = ConLattice(A, parts, seeds, steps)
                assert got._downs is None, (name, A.name)
                assert fields(got) == want, (name, A.name)
            paths[name][steps is None] += 1
        sizes[name] = len(population)
    assert sizes == {"sweep": 225, "fixtures": 16, "sums": 640, "products": 45, "chains on top": 45, "residuated": 111}
    # the fixtures' lattice path misses the residuated R0 alone, and the
    # residuated population takes the closure path throughout
    assert paths == {
        "sweep": [225, 0],
        "fixtures": [15, 1],
        "sums": [640, 0],
        "products": [45, 0],
        "chains on top": [45, 0],
        "residuated": [0, 111],
    }


def test_a_pure_lattice_makes_its_down_masks_only_where_read():
    for A in [cold(fixture("X")), cold(fixture("L2x3cube"))]:
        cl = all_congruences(A)
        lifting.lifting_report(A)
        assert cl._downs is None, A.name
        assert cl.covers() and cl._downs is not None, A.name


def test_the_fold_is_true_wherever_there_is_a_lattice_reduct():
    for name, population in populations().items():
        for A in map(cold, population):
            cl = all_congruences(A)
            assert cl.is_distributive() and join_prime_fold(cl), (name, A.name)


def test_each_column_is_the_per_theta_verdicts():
    # on a fresh copy of each algebra the walk for the first failure fills
    # its column only through that θ, and a read of the whole column goes
    # on from there
    failing, stopped = {}, 0
    for name, population in populations().items():
        failing[name] = [0, 0]
        for A in map(cold, population):
            cl = all_congruences(A)
            for side in (True, False):
                want = [lifting_entry(cl, t, side) for t in range(len(cl))]
                t = lifting._lifting_failure(A, side)
                assert t == next((x for x, (_, bad) in enumerate(want) if bad is not None), None), (name, A.name)
                assert len(lifting._lifting_column(cl, side)) == (len(cl) if t is None else t + 1), (name, A.name)
                assert lifting._column(cl, side, len(cl)) == want, (name, A.name, side)
                assert [lifting._lifting(cl, x, side) for x in range(len(cl))] == want, (name, A.name, side)
                failing[name][side] += t is not None
                stopped += t is not None and t + 1 < len(cl)
    # the algebras with a failing θ, [Boolean side, factor side]: both
    # verdicts fail somewhere in each population
    assert failing == {
        "sweep": [52, 63],
        "fixtures": [2, 3],
        "sums": [215, 469],
        "products": [9, 24],
        "chains on top": [18, 18],
        "residuated": [5, 5],
    }
    # and every walk that finds a failure stops before the last θ
    assert stopped == sum(map(sum, failing.values())) == 883


def test_a_cold_check_fclp_on_x_fills_its_column_through_the_first_failure(monkeypatch):
    A = cold(fixture("X"))
    sides = count_calls(monkeypatch, factor.JSpace, ["side"])
    code, lines = _check(A, "fclp")
    cl = all_congruences(A)
    column = lifting._lifting_column(cl, True)
    # one pass, one read of the side, and the column stops at the failure
    # that the check prints, θ_4 of Con(X)'s 8
    theta, target = cl.elements[4], cl.elements[column[4][1]]
    assert code == 1
    assert lines[1] == f"failing congruence: {theta.block_string()} (cannot reach {target.block_string(over=theta)})"
    assert column[-1][1] is not None and all(bad is None for _, bad in column[:-1])
    assert (len(column), len(cl)) == (5, 8)
    assert sides == {"side": 1}
    assert ("_lifting_column", False) not in cl._cache
