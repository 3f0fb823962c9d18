"""Con(A) read off the enumeration's steps and masks, and the lifting
verdicts in columns.

Both enumerations hand ConLattice each θ but Δ as its parent and the
member of J(Con A) it adds, with the set of members below each θ: with a
lattice reduct the down-sets of J(Con A), which add one member at a time,
and on the closure path one seed lookup per member, made as the joins are
tried.  Every seed is join-irreducible in Con(A), on every path.  ↑θ is
then one AND on its parent's, and ↓θ is made on its first read.  A pure
lattice's partitions merge each class's pairs off the join table, which
lie between the class's covers and its congruence.  Past the congruence
cap, an algebra with a lattice reduct builds no partition.  Con(A) is
distributive on every algebra with a lattice reduct, so is_distributive
folds nothing there.  Each side's lifting verdicts fill one column in index
order, and a walk for the first failure fills it only that far.  The
oracles are ConLattice's seed scan and per-generator loops
(oracles.seed_scan), Con(A) by closing every distinct generator under
joins (oracles.ClosureConLattice), the classes' covers
(oracles.lattice_classes), the join-prime fold (oracles.join_prime_fold,
which test_join_irreducible_masks also holds to the triple scan) and the
verdict of one θ decided alone (oracles.lifting_entry).
"""

import json
import random

import pytest

from congrlab import congruences, factor, lifting
from congrlab.algebra import (
    FiniteAlgebra,
    Signature,
    _bits,
    build_from_spec,
    class_pairs,
    delta_partition,
    join_partitions,
    lattice_reduct,
    merge_pairs,
)
from congrlab.cli import _check, main
from congrlab.congruences import ConLattice, all_congruences, is_pure_lattice, maximal_indices, prime_indices
from congrlab.errors import SizeCap
from congrlab.fixtures import FIXTURE_NAMES, fixture

from oracles import ClosureConLattice, join_prime_fold, lattice_classes, lifting_entry, seed_scan
from sweep import sweep
from test_coatom_pairs import ordinal_sums, products
from test_distributive_lattices import residuated_inputs, with_unary
from test_join_irreducible_masks import cold, random_generic_algebras
from test_jspace import chains_on_top
from test_partition_join import count_calls, generic_copy, subtraction_mod


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
            parts, seeds, steps, masks = congruences._enumerate_partitions(A)
            got = ConLattice(A, parts, seeds, steps, masks)
            assert got._downs is None, (name, A.name)
            assert fields(got) == seed_scan(A, parts, seeds), (name, A.name)
            # the seed scan keeps every seed, and the masks are as they came
            assert got.gen_masks[got.index_of_nabla] == (1 << len(seeds)) - 1, (name, A.name)
            assert sorted(got.gen_masks) == sorted(masks), (name, A.name)
            paths[name][not is_pure_lattice(A)] += 1
        sizes[name] = len(population)
    assert sizes == {"sweep": 225, "fixtures": 16, "sums": 640, "products": 45, "chains on top": 45, "residuated": 111}
    # the fixtures' lattice path misses the residuated R0 alone, and the
    # residuated population closes its principal generators throughout
    assert paths == {
        "sweep": [225, 0],
        "fixtures": [15, 1],
        "sums": [640, 0],
        "products": [45, 0],
        "chains on top": [45, 0],
        "residuated": [0, 111],
    }


def closure_populations():
    """The algebras with no lattice reduct or more than one, whose
    generators are principal closures: the 80 random generic algebras, the
    16 fixtures' generic-kind copies, the residuated population, and Z_30
    and Z_60 under x − y."""
    return {
        "random": random_generic_algebras(),
        "generic copies": [generic_copy(fixture(name)) for name in FIXTURE_NAMES],
        "residuated": residuated_inputs(),
        "Z_n": [subtraction_mod(30), subtraction_mod(60)],
    }


def test_the_closure_paths_steps_and_masks_give_the_seed_scans_fields():
    for name, population in closure_populations().items():
        for A in population:
            parts, seeds, steps, masks = congruences._enumerate_partitions(A)
            assert not is_pure_lattice(A) and parts[0] == delta_partition(A.n), (name, A.name)
            gens = [congruences._close(A, [pair]) for pair in seeds]
            # each partition but Δ is an earlier one joined with a generator,
            # and its mask is the seed lookup
            assert len(steps) == len(parts) - 1, (name, A.name)
            for x, (i, g) in enumerate(steps, 1):
                assert i < x and parts[x] == join_partitions(parts[i], gens[g]), (name, A.name)
            assert masks == [sum(1 << g for g, (a, b) in enumerate(seeds) if p[a] == p[b]) for p in parts], (name, A.name)
            cl = ConLattice(A, parts, seeds, steps, masks)
            assert cl._downs is None, (name, A.name)
            assert fields(cl) == seed_scan(A, parts, seeds), (name, A.name)
            assert cl._downs is not None, (name, A.name)
            # and the seed scan's join-irreducible test drops no generator
            assert cl.gen_masks[cl.index_of_nabla] == (1 << len(seeds)) - 1, (name, A.name)


def successor_mod(n):
    """Z_n under x + 1."""
    return FiniteAlgebra(n, [str(x) for x in range(n)], Signature((("s", 1),)), {"s": [(x + 1) % n for x in range(n)]})


def oracle_populations():
    """closure_populations, Z_30 and Z_60 under x + 1, and the 16 fixtures
    and the sweep as lattice-kind table specs with a unary u, once the
    identity and once a random map."""
    rng = random.Random(2)
    lattices = [fixture(name) for name in FIXTURE_NAMES] + sweep()
    return {
        **closure_populations(),
        "successor": [successor_mod(30), successor_mod(60)],
        "identity u": [with_unary(L, range(L.n)) for L in lattices],
        "random u": [with_unary(L, [rng.randrange(L.n) for _ in range(L.n)]) for L in lattices],
    }


def answers(cl):
    """What a ConLattice answers, as plain data."""
    k = len(cl)
    return {
        "elements": cl.elements,
        "blocks": cl.blocks,
        "tables": [[(cl.leq(i, j), cl.join(i, j), cl.meet(i, j)) for j in range(k)] for i in range(k)],
        "distributive": cl.is_distributive(),
        "permutable": cl.is_permutable(),
        "maximal": maximal_indices(cl),
        "prime": prime_indices(cl),
        "covers": cl.covers(),
    }


def test_the_join_irreducible_generators_give_the_closure_routes_con():
    # the oracle closes every distinct generator under joins and keeps the
    # join-irreducible ones' bits afterwards; the enumeration hands in those
    # alone, in the same order, with the same masks over them, and gives
    # the same answers
    seeds = {}
    for name, population in oracle_populations().items():
        seeds[name] = [0, 0]
        for A in population:
            got, want = all_congruences(A), ClosureConLattice(A)
            assert answers(got) == answers(want), (name, A.name)
            kept = _bits(want.gen_masks[want.index_of_nabla])
            assert got.seeds == tuple(want.seeds[g] for g in kept), (name, A.name)
            want_masks = [sum(1 << h for h, g in enumerate(kept) if m >> g & 1) for m in want.gen_masks]
            assert got.gen_masks == want_masks, (name, A.name)
            seeds[name][0] += len(got.seeds)
            seeds[name][1] += len(want.seeds)
    # [members of J(Con A), distinct generators]: the oracle drops some on
    # each population with no lattice reduct, and none where each generator
    # is the Cg of a prime quotient
    assert seeds == {
        "random": [170, 217],
        "generic copies": [37, 65],
        "residuated": [336, 336],
        "Z_n": [7, 18],
        "successor": [7, 18],
        "identity u": [755, 755],
        "random u": [383, 383],
    }


def chain_with_identity(k):
    """The k-chain as a lattice-kind table spec, join and meet given as
    tables, with the identity unary u, which leaves its 2^(k−1)
    congruences as they are."""
    e = [f"c{i}" for i in range(k)]
    table = lambda f: [[e[f(a, b)] for b in range(k)] for a in range(k)]
    return {"name": f"C{k}u", "kind": "lattice", "elements": e, "operations": {"join": table(max), "meet": table(min), "u": e}}


def test_a_lattice_reduct_past_the_cap_builds_no_partition(tmp_path, monkeypatch, capsys):
    # C16 with u has 2^15 congruences: its 15 principal closures merge
    # twice each, and the down-sets are counted against the cap before
    # any partition is built
    spec = chain_with_identity(16)
    A = build_from_spec(spec)
    assert A.is_lattice and not is_pure_lattice(A)
    counts = count_calls(monkeypatch, congruences, ["_close", "merge_pairs", "join_partitions"])
    with pytest.raises(SizeCap, match="^congruence count exceeds cap 20000$"):
        all_congruences(A)
    assert counts == {"_close": 15, "merge_pairs": 30, "join_partitions": 0}
    path = tmp_path / "C16u.json"
    path.write_text(json.dumps(spec))
    capsys.readouterr()
    assert main(["con", "--file", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: congruence count exceeds cap 20000\n")


def test_the_pairs_of_a_class_lie_between_its_covers_and_its_congruence():
    pairs_read, covers_read = {}, {}
    for name, population in populations().items():
        if name == "residuated":
            continue
        pairs_read[name] = covers_read[name] = 0
        for A in population:
            L = A if is_pure_lattice(A) else lattice_reduct(A)
            seeds, _, class_covers = lattice_classes(L)
            pairs = [set() for _ in seeds]
            for c, more in class_pairs(L):
                pairs[c].update(more)
            for c, seed in enumerate(seeds):
                cg = congruences._close(L, [seed])
                assert all(cg[y] == cg[x] for y, x in pairs[c]), (name, A.name, c)
                assert pairs[c].issuperset(class_covers[c]), (name, A.name, c)
            parts, _, steps, _ = congruences._enumerate_partitions(L)
            # the union-find over the covers, step by step
            want = [delta_partition(L.n)]
            for i, c in steps:
                want.append(merge_pairs(want[i], class_covers[c]))
            assert parts == want, (name, A.name)
            pairs_read[name] += sum(map(len, pairs))
            covers_read[name] += sum(map(len, class_covers))
    assert (pairs_read["sweep"], covers_read["sweep"]) == (2268, 1896)


def test_a_pure_lattice_makes_its_down_masks_only_where_read():
    for A in [cold(fixture("X")), cold(fixture("L2x3cube"))]:
        cl = all_congruences(A)
        lifting.lifting_report(A)
        assert cl._downs is None, A.name
        assert cl.covers() and cl._downs is not None, A.name


def test_the_closure_path_makes_its_down_masks_only_where_read():
    # a report reads no ↓θ on the generic-kind copies either
    for A in [generic_copy(fixture("X")), generic_copy(fixture("L2x3cube")), subtraction_mod(6)]:
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
