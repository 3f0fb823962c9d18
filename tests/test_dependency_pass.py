"""The cover-free J step and distributivity as "D is empty", against the
routines they replaced.

The J step (algebra.join_classes) reads J(L), M(L), Freese's D and D*, and
J(Con L) off the order masks and the join table, with no cover of L, in one
pass; a partition is built from each class's pairs, which
algebra.class_pairs reads off the join table with no cover either.  L is
distributive iff D is empty, and FC(L) = B(L) is checked on the components
of J(Con L), one factor pair per component.  The oracles are the routines
these replaced: the J step that found the covers of L first, the join-prime
fold, and the check over all 2^c Boolean congruences.
"""

import functools
import operator
from collections import Counter

import pytest

from congrlab import algebra, congruences, lifting
from congrlab.algebra import (
    _bits,
    cover_pairs,
    delta_partition,
    direct_product,
    dual,
    lattice_reduct,
    merge_pairs,
    ordinal_sum,
)
from congrlab.congruences import is_pure_lattice
from congrlab.factor import jspace
from congrlab.fixtures import FIXTURE_NAMES, fixture

from oracles import join_irreducible_pairs, lattice_classes
from sweep import sweep
from test_distributive_lattices import Reads, residuated_inputs
from test_join_irreducible_masks import cold
from test_partition_join import count_calls, relabelled


def covers_lattice_classes(A):
    """oracles.lattice_classes as it was before the J step: J(L) and M(L)
    counted off the covers of L, then D, D*, the classes and each class's
    covers."""
    n, join = A.n, A.tables["join"]
    up, down = A.order_masks()
    covers = cover_pairs(up, down)
    n_lower, n_upper, lower = [0] * n, [0] * n, {}
    for a, b in covers:
        n_lower[b] += 1
        n_upper[a] += 1
        lower[b] = a
    lower = {j: a for j, a in lower.items() if n_lower[j] == 1}
    meet_irreducible = sum(1 << m for m in range(n) if n_upper[m] == 1)
    join_irreducible = sum(1 << j for j in lower)
    jd = [d & join_irreducible for d in down]
    below = {}
    for k, kp in lower.items():
        acc, row = 1 << k, join[k]
        for m in _bits(up[kp] & ~up[k] & meet_irreducible):
            acc |= jd[row[m]] & ~jd[m]
        below[k] = acc
    for i, bi in below.items():
        if bi & (bi - 1):
            bit = 1 << i
            for k, bk in below.items():
                if bk & bit:
                    below[k] = bk | bi
    class_of, seeds = {}, []
    for j in sorted(below):
        if below[j] not in class_of:
            class_of[below[j]] = len(seeds)
            seeds.append((lower[j], j))
    cls = {j: class_of[b] for j, b in below.items()}
    under = []
    for c, (_, j) in enumerate(seeds):
        under.append(functools.reduce(operator.or_, (1 << cls[k] for k in _bits(below[j]))) & ~(1 << c))
    class_covers = [[] for _ in seeds]
    for a, b in covers:
        cand = jd[b] & ~jd[a]
        j = cand.bit_length() - 1
        while jd[j] & cand != 1 << j:
            j = (jd[j] & cand & ~(1 << j)).bit_length() - 1
        class_covers[cls[j]].append((a, b))
    return tuple(seeds), tuple(under), tuple(map(tuple, class_covers))


def join_prime_fold(L):
    """Distributivity as it was decided: every join-irreducible j is
    join-prime, that is j ≰ ⋁{x : j ≰ x}, one join fold per j."""
    join, meet = L.tables["join"], L.tables["meet"]
    for _, j in join_irreducible_pairs(L):
        mj = meet[j]
        joined = functools.reduce(lambda a, b: join[a][b], (x for x in range(L.n) if mj[x] != j))
        if mj[joined] == j:
            return False
    return True


def all_boolean_center_is_factor(L):
    """FC(L) = B(L) as it was checked: every one of the 2^c Boolean
    congruences θ_U has the factor complement θ_{J∖U}, each θ_U a
    union-find over the covers of its classes."""
    components = jspace(L).components
    class_covers = covers_lattice_classes(L)[2]
    parts = [delta_partition(L.n)]
    for c in components:
        pairs = [p for g in _bits(c) for p in class_covers[g]]
        parts += [merge_pairs(p, pairs) for p in parts]
    blocks = [sum(r == e for e, r in enumerate(p)) for p in parts]
    return all(b * blocks[-1 - x] == L.n for x, b in enumerate(blocks))


@functools.cache
def residuated():
    """R0 and residuated_inputs(), built once."""
    return [fixture("R0")] + residuated_inputs()


def lattice_population():
    """The sweep and its duals, the 16 fixtures (R0 by its lattice
    reduct), the lattice reducts of residuated_inputs(), and the pairwise
    products and ordinal sums of the 15 lattice fixtures."""
    lattices = [fixture(name) for name in FIXTURE_NAMES if fixture(name).signature.kind == "lattice"]
    pairs = [(A, B) for A in lattices for B in lattices]
    population = (
        sweep()
        + [dual(L) for L in sweep()]
        + lattices
        + [lattice_reduct(A) for A in residuated()]
        + [direct_product([A, B]) for A, B in pairs]
        + [ordinal_sum(A, B) for A, B in pairs]
    )
    assert len(lattices) == 15 and len(population) == 2 * 225 + 15 + len(residuated()) + 2 * 15**2
    return population


def test_the_cover_free_j_step_agrees_with_the_covers_of_l():
    population = lattice_population()
    classes = set()
    for A in population:
        assert is_pure_lattice(A), A.name
        seeds, under, covers = want = covers_lattice_classes(A)
        fresh = cold(A)
        step = congruences.join_classes(fresh)
        j_seeds, j_under, cls = step.seeds, step.under, step.classes
        assert set(fresh._cache) == {"order_masks", "join_classes"}, A.name
        assert (j_seeds, j_under) == (seeds, under), A.name
        # each j ∈ J(L) is in a class, and the least member of a class is its seed
        js = [j for _, j in join_irreducible_pairs(A)]
        assert [x for x, c in enumerate(cls) if c is not None] == js, A.name
        assert [min(j for j in js if cls[j] == c) for c in range(len(seeds))] == [j for _, j in seeds], A.name
        assert lattice_classes(fresh) == want, A.name
        classes.add(len(seeds))
    assert max(classes) == 7


def test_d_is_empty_exactly_on_the_join_prime_lattices():
    # the residuated inputs themselves too: the pass decides their reducts
    verdicts = {True: 0, False: 0}
    for A in lattice_population() + residuated():
        fresh = cold(A)
        got = fresh.is_distributive_lattice()
        assert got == join_prime_fold(A), A.name
        if is_pure_lattice(A):
            # D is empty iff every j is its own class with nothing under it
            step = congruences.join_classes(fresh)
            seeds, under = step.seeds, step.under
            assert got == (not any(under) and len(seeds) == len(join_irreducible_pairs(A))), A.name
        verdicts[got] += 1
    assert verdicts[True] > 300 and verdicts[False] > 300


def test_fc_equal_to_b_on_the_components_agrees_with_all_2_to_the_c():
    # keyed by the verdict and by whether J(Con L) has two components or more
    verdicts = Counter()
    for A in lattice_population():
        got = jspace(cold(A)).center_is_factor
        assert got == all_boolean_center_is_factor(A), A.name
        verdicts[got, len(jspace(A).components) > 1] += 1
    assert verdicts[True, False] > 300 and verdicts[True, True] > 50 and verdicts[False, True] > 500


# -- the work of a criterion-decided verdict -------------------------------


def dependency_reads(A):
    """The (row, column) of each join-table entry the dependency pass reads:
    (j, m) for each join-irreducible j and meet-irreducible m with j₊ ≤ m
    and j ≰ m."""
    up, _ = A.order_masks()
    ups = set(up)
    meet_irreducible = [m for m, u in enumerate(up) if u & ~(1 << m) in ups]
    return {
        (j, m)
        for jp, j in join_irreducible_pairs(A)
        for m in meet_irreducible
        if up[jp] >> m & 1 and not up[j] >> m & 1
    }


@pytest.mark.parametrize("name", ["D", "E"])
def test_a_criterion_decided_verdict_finds_no_cover_and_builds_no_partition(name, monkeypatch):
    # D and E have a connected, topped J(Con L) and are not distributive, so
    # all four verdicts decide by their criteria (lifting module doc, 2-4)
    counts = count_calls(monkeypatch, algebra, ["cover_pairs", "merge_pairs"])
    monkeypatch.setattr(congruences, "cover_pairs", algebra.cover_pairs)
    monkeypatch.setattr(congruences, "merge_pairs", algebra.merge_pairs)
    copies = [fixture(name)] + [relabelled(fixture(name), seed) for seed in range(3)]
    for A in copies:
        A = cold(A)
        A.order_masks()  # L's order, read before the join table is watched
        seen = set()
        object.__setattr__(A, "tables", dict(A.tables, join=Reads(A.tables["join"], seen)))
        got = (
            lifting.algebra_fclp(A),
            lifting.algebra_cblp(A),
            lifting.is_fc_normal(A),
            lifting.is_b_normal(A),
        )
        assert got == ((True, None, None), (True, None, None), (True, None), (True, None)), A.name
        J = jspace(A)
        assert not A.is_distributive_lattice() and len(J.components) == 1 and J.tops is not None, A.name
        assert "all_congruences" not in A._cache and "_upper_ends" not in vars(J), A.name
        # the join table is read by the dependency pass alone: no join is
        # folded for distributivity
        assert seen == dependency_reads(A), A.name
    assert counts == {"cover_pairs": 0, "merge_pairs": 0}
