"""Con(A) on masks over J(Con A), against the table scans it replaces.

ConLattice keeps, for each θ, the set of join-irreducible generators below
it.  Meets are intersections, joins are unions where the union is a mask,
the centers of [θ, ∇] are listed off the components of J ∖ D_θ, and the
Boolean lifting and both normality checks are read off the components of
J(Con A).  The old ways live on here as oracles: on k×k join and meet
tables built from partition joins and meets, the pair scan for relative
complements, the normality loops and the triple scan for distributivity;
on the masks, the scan of ↑θ for relative complements, the one-pass factor
lifting over ↑θ, the images scan for the Boolean lifting, the center scan
for the factor lifting, the per-θ loop for FCLP of A and the witness
bitsets for normality.
"""

import random

import pytest

from congrlab import factor, lifting
from congrlab.algebra import (
    FiniteAlgebra,
    Signature,
    _bits,
    build_from_spec,
    direct_product,
    join_partitions,
    meet_partitions,
    ordinal_sum,
)
from congrlab.congruences import Congruence, all_congruences
from congrlab.errors import NotDistributive
from congrlab.factor import boolean_center, factor_congruences, jspace
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.lifting import algebra_cblp, algebra_fclp, has_cblp, is_b_normal, is_fc_normal, lifting_report
from congrlab.report import build_report

from oracles import join_prime_fold
from sweep import sweep
from test_congruences import xor_algebra
from test_partition_join import chain, count_calls, generic_copy, lattice_algebras
from test_residuated import RESIDUATED_CHAINS, residuated_chain


def partition_tables(cl):
    """The k×k join and meet tables, from the partitions."""
    els = cl.elements
    A = cl.algebra
    join = [[cl.index(Congruence(A, join_partitions(a.block_of, b.block_of))) for b in els] for a in els]
    meet = [[cl.index(Congruence(A, meet_partitions(a.block_of, b.block_of))) for b in els] for a in els]
    return join, meet


def random_generic_algebras(count=80, seed=9):
    """Small algebras with one unary and at most one binary operation:
    many have a congruence lattice that is not distributive."""
    rng = random.Random(seed)
    out = []
    for x in range(count):
        n = rng.randint(2, 5)
        ops, tables = [("f", 1)], {"f": [rng.randrange(n) for _ in range(n)]}
        if rng.random() < 0.3:
            ops.append(("g", 2))
            tables["g"] = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        out.append(FiniteAlgebra(n, [str(e) for e in range(n)], Signature(tuple(ops)), tables, name=f"G{x}"))
    return out


def mask_algebras():
    """The 16 fixtures, their generic-kind copies, the 225 sweep lattices and V4."""
    fixtures = [fixture(name) for name in FIXTURE_NAMES]
    return fixtures + [generic_copy(A) for A in fixtures] + sweep() + [xor_algebra()]


# -- the masks are over J(Con A) ------------------------------------------------


def join_irreducibles(cl, join):
    """θ ≠ Δ that is not the join of two congruences strictly below it."""
    k = len(cl)
    below = [[j for j in range(k) if j != i and cl.leq(j, i)] for i in range(k)]
    return {i for i in range(k) if below[i] and all(join[a][b] != i for a in below[i] for b in below[i])}


def test_the_mask_bits_are_the_join_irreducibles():
    algebras = lattice_algebras()
    algebras += [generic_copy(A) for A in algebras[:-2]] + random_generic_algebras() + [xor_algebra()]
    dropped = 0
    for A in algebras:
        cl = all_congruences(A)
        join, _ = partition_tables(cl)
        bits = cl.gen_masks[cl.index_of_nabla]
        # each kept bit's lowest element, the generator itself, is join-irreducible
        owners = {min(i for i, m in enumerate(cl.gen_masks) if m >> g & 1) for g in range(bits.bit_length()) if bits >> g & 1}
        assert owners == join_irreducibles(cl, join), A.name
        assert [bin(m).count("1") for m in cl.gen_masks] == [
            len([j for j in owners if cl.leq(j, i)]) for i in range(len(cl))
        ], A.name
        seeds = len(cl._above)
        if A.is_lattice:
            # each Cg(j₊, j) is generated by a prime quotient: no bit is lost
            assert bits == (1 << seeds) - 1, A.name
        dropped += seeds - len(owners)
    assert dropped > 0  # the generic path does drop generators


def test_join_and_meet_are_the_partition_join_and_meet():
    algebras = mask_algebras() + random_generic_algebras()
    for A in algebras:
        cl = all_congruences(A)
        join, meet = partition_tables(cl)
        k = len(cl)
        assert [[cl.join(i, j) for j in range(k)] for i in range(k)] == join, A.name
        assert [[cl.meet(i, j) for j in range(k)] for i in range(k)] == meet, A.name
        for t in range(k):
            assert cl.up_size(t) == len(cl.up_set(t)) == sum(cl.leq(t, j) for j in range(k))
        if cl.is_distributive():  # only a center's lattice lists its trigger pairs
            assert [_bits(m) for m in lifting._joins_to_nabla(cl)] == [
                [j for j in range(k) if join[i][j] == cl.index_of_nabla] for i in range(k)
            ], A.name


def test_distributivity_by_join_primes_agrees_with_the_triple_scan():
    verdicts = {True: 0, False: 0}
    generic = random_generic_algebras()
    for A in mask_algebras() + generic:
        cl = all_congruences(A)
        jt, mt = partition_tables(cl)
        ks = range(len(cl))
        scan = all(mt[a][jt[b][c]] == jt[mt[a][b]][mt[a][c]] for a in ks for b in ks for c in ks)
        # True with no test where there is a lattice reduct, and the
        # join-prime test elsewhere; the test alone decides every algebra
        assert cl.is_distributive() == join_prime_fold(cl) == scan, A.name
        verdicts[scan] += not A.is_lattice
    assert min(verdicts.values()) >= 10, verdicts
    assert sum(all_congruences(A).is_distributive() for A in generic) == 62


# -- relative complements --------------------------------------------------------


def pair_scan_centers(cl, jt, mt, t):
    """The old scan of [θ_t, ∇]: each i paired with the first j that joins
    it to ∇ and meets it in θ_t."""
    nb = cl.index_of_nabla
    ups = [i for i in range(len(cl)) if cl.leq(t, i)]
    bc, fc = ([], {}), ([], {})
    for i in ups:
        for j in ups:
            if jt[i][j] == nb and mt[i][j] == t:
                bc[0].append(i)
                bc[1][i] = j
                if cl.blocks[mt[i][j]] == cl.blocks[i] * cl.blocks[j]:
                    fc[0].append(i)
                    fc[1][i] = j
                break
    return bc, fc


def test_interval_centers_are_the_pair_scan():
    for A in mask_algebras():
        cl = all_congruences(A)
        if not cl.is_distributive():
            with pytest.raises(NotDistributive):
                boolean_center(cl)
            continue
        jt, mt = partition_tables(cl)
        for t in range(len(cl)):
            bc, fc = pair_scan_centers(cl, jt, mt, t)
            got_bc, got_fc = boolean_center(cl, t), factor_congruences(cl, t)
            assert (got_bc.members, got_bc.complement) == bc, (A.name, t)
            assert (got_fc.members, got_fc.complement) == fc, (A.name, t)


def relative_complement(cl, i, t):
    """The old ConLattice.relative_complement: a complement of I in [T, J]
    meets I in T and joins it to J, so it can only be T ∪ (J ∖ I), and it is
    one iff that is some θ's mask."""
    gm = cl.gen_masks
    return cl._at.get(gm[t] | gm[cl.index_of_nabla] & ~gm[i])


def up_set_centers(cl, t):
    """The old listing of both centers of [θ_t, ∇]: one relative
    complement lookup per member of ↑θ_t, as member -> complement."""
    bc, fc = {}, {}
    for i in cl.up_set(t):
        j = relative_complement(cl, i, t)
        if j is not None:
            bc[i] = j
            if cl.blocks[i] * cl.blocks[j] == cl.blocks[t]:
                fc[i] = j
    return bc, fc


def one_pass_unreached_factor(cl, t):
    """The old one-pass factor lifting: the first member of ↑θ_t whose mask
    is no image D_α ∪ D_t, α in FC(A), and that has a relative complement
    θ_j with |A/θ_t| = |A/θ_i|·|A/θ_j|."""
    gm, blocks = cl.gen_masks, cl.blocks
    images = {gm[a] | gm[t] for a in factor_congruences(cl).members}
    for i in cl.up_set(t):
        if gm[i] not in images:
            j = relative_complement(cl, i, t)
            if j is not None and blocks[i] * blocks[j] == blocks[t]:
                return i
    return None


def pentagon_sums():
    """P⊕C2 to P⊕C6: the pentagon with a chain on top, whose Con is
    Con(P) × Con(Ck), distributive, while the lattice is not."""
    return [ordinal_sum(fixture("P"), chain(k), name=f"P+C{k}") for k in range(2, 7)]


def up_set_algebras():
    """mask_algebras(), the random generic algebras, the residuated chains
    with n ≤ 8 and P⊕C2 to P⊕C6."""
    chains = [build_from_spec(residuated_chain(n, t)) for t, n in RESIDUATED_CHAINS]
    return mask_algebras() + random_generic_algebras() + chains + pentagon_sums()


def test_the_components_list_what_the_up_set_scan_finds():
    thetas, verdicts, interval = 0, set(), 0
    for A in map(cold, up_set_algebras()):
        cl = all_congruences(A)
        if not cl.is_distributive():
            for factor_side in (True, False):
                with pytest.raises(NotDistributive):
                    lifting._lifting(cl, cl.index_of_nabla, factor_side)
            continue
        interval += jspace(A).p_order is None
        near, nabla = jspace(A).near, cl.gen_masks[cl.index_of_nabla]
        for t in range(len(cl)):
            bc, fc = up_set_centers(cl, t)
            want = one_pass_unreached_factor(cl, t)
            # each center's size and first unreached member, with no center
            # of [θ_t, ∇] built
            got = lifting._lifting(cl, t, True), lifting._lifting(cl, t, False)
            assert ("_interval_centers", t) not in cl._cache or t == cl.index_of_delta, (A.name, t)
            assert got == ((len(fc), want), (len(bc), images_unliftable(cl, t))), (A.name, t)
            # the listing, and the centers built from it
            assert [dict(pairs) for pairs in factor._complemented(cl, t)] == [bc, fc], (A.name, t)
            got_bc, got_fc = boolean_center(cl, t), factor_congruences(cl, t)
            assert (got_bc.members, got_bc.complement) == (list(bc), bc), (A.name, t)
            assert (got_fc.members, got_fc.complement) == (list(fc), fc), (A.name, t)
            assert len(bc) == 1 << len(factor._components(near, nabla & ~cl.gen_masks[t])), (A.name, t)
            verdicts.add(want is None)
            thetas += 1
    assert verdicts == {True, False} and thetas > 3000 and interval > 100, (verdicts, thetas, interval)


# -- normality ------------------------------------------------------------------


def normality_loops(A):
    """The old fc- and b-normality loops, each (True, None) or (False, the
    first failing pair)."""
    cl = all_congruences(A)
    jt, mt = partition_tables(cl)
    bc, fc = pair_scan_centers(cl, jt, mt, cl.index_of_delta)
    nb, k, els = cl.index_of_nabla, len(cl), cl.elements

    def scan(trigger, center):
        for i in range(k):
            for j in range(k):
                if trigger(i, j) and not any(jt[i][a] == nb and jt[j][center[1][a]] == nb for a in center[0]):
                    return False, (els[i].block_string(), els[j].block_string())
        return True, None

    composes = lambda i, j: cl.blocks[mt[i][j]] == cl.blocks[i] * cl.blocks[j]
    joins = lambda i, j: jt[i][j] == nb
    return scan(composes, fc), scan(joins, bc)


def test_normality_bitsets_agree_with_the_loops():
    verdicts = set()
    for A in mask_algebras():
        if not all_congruences(A).is_distributive():
            with pytest.raises(NotDistributive):
                is_fc_normal(A)
            continue
        fcn, bn = normality_loops(A)
        assert is_fc_normal(A) == fcn, A.name
        assert is_b_normal(A) == bn, A.name
        verdicts.add((fcn[0], bn[0]))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


# -- one path for both kinds ------------------------------------------------------


def test_generic_copies_report_as_the_lattices_do():
    algebras = [fixture(name) for name in FIXTURE_NAMES] + sweep()
    assert len(algebras) == 241
    for A in algebras:
        want, got = build_report(A), build_report(generic_copy(A))
        assert got["flags"] == want["flags"], A.name
        assert got["per_congruence"] == want["per_congruence"], A.name


def test_a_cold_report_decides_each_lifting_verdict_once(monkeypatch):
    # T is not distributive, so its rows take the interval route
    A = cold(fixture("T"))
    listed = count_listings(monkeypatch)
    sides, atoms = count_calls(monkeypatch, factor.JSpace, ["side"]), count_atoms(monkeypatch)
    components = count_calls(monkeypatch, lifting, ["_components"])
    build_report(A)
    # the report fills each property's column whole, in one pass that reads
    # its side once, and the walks without a criterion read the filled
    # columns: each verdict is decided once.  After Δ's center, listed for
    # the flags, and A's atoms, read once off T's central elements, each
    # factor verdict lists its interval and counts it.  Each component of
    # T's J has a top, so each Boolean verdict counts the tops left, with no
    # component searched for.  T has both properties, so no θ reads its own
    # atoms for a target.
    assert lifting_walk(A, True)[0] and lifting_walk(A, False)[0]
    cl = all_congruences(A)
    assert listings_on(cl, listed) == [cl.index_of_delta, *range(len(cl))]
    assert (sides, atoms, components) == ({"side": 2}, {"_atoms": 1}, {"_components": 0})
    assert lifting.algebra_fclp(A)[0] and lifting.algebra_cblp(A)[0]


@pytest.mark.parametrize(
    "build",
    [lambda: chain(8), lambda: direct_product([fixture("L2")] * 5), lambda: cold(fixture("L2x3cube"))],
    ids=["C8", "L2^5", "L2x3cube"],
)
def test_a_cold_report_on_a_distributive_lattice_builds_only_deltas_center(build, monkeypatch):
    A = build()
    listed = count_listings(monkeypatch)
    counts = count_atoms(monkeypatch)
    build_report(A)
    # every row is read off J(L); Δ's center gives the flags, and it is the
    # one interval listed, with no atom read off a listing
    cl = all_congruences(A)
    assert listings_on(cl, listed) == cached_centers(cl) == [cl.index_of_delta]
    assert counts == {"_atoms": 0}


@pytest.mark.parametrize(
    "build",
    [
        lambda: chain(8),
        lambda: cold(fixture("L2osumL2x2")),
        lambda: cold(fixture("T")),
        lambda: cold(fixture("P")),
        lambda: ordinal_sum(fixture("H"), chain(6)),
        lambda: ordinal_sum(fixture("P"), chain(6)),
    ],
    ids=["C8", "L2osumL2x2", "T", "P", "H+C6", "P+C6"],
)
def test_a_cold_report_makes_no_pair_walk(build, monkeypatch):
    # a report's fc_normal and b_normal flags are its fclp and cblp flags
    # (lifting module doc, 4 and 3), so no pair is listed or walked, even
    # where a normality fails (L2⊕L2x2, P, H⊕C6 and P⊕C6)
    names = ["_joins_to_nabla", "_fc_normal_walk", "_b_normal_walk"]
    counts = count_calls(monkeypatch, lifting, names)
    flags = build_report(build())["flags"]
    assert (flags["fc_normal"], flags["b_normal"]) == (flags["fclp"], flags["cblp"])
    assert counts == dict.fromkeys(names, 0)


# -- the Boolean lifting and normality on the components of J(Con A) -------------


def images_unliftable(cl, t):
    """The old per-θ scan: the first Boolean member of [θ_t, ∇] that no
    α ∨ θ_t, α in B(A), reaches."""
    gm = cl.gen_masks
    images = {gm[a] | gm[t] for a in boolean_center(cl).members}
    return next((b for b in boolean_center(cl, t).members if gm[b] not in images), None)


def images_algebra_cblp(A):
    cl = all_congruences(A)
    for t, theta in enumerate(cl.elements):
        if images_unliftable(cl, t) is not None:
            return False, has_cblp(A, theta)[1], theta
    return True, None, None


def witness_bits(co, members):
    out = [0] * len(co)
    for x, a in enumerate(members):
        for i in co[a]:
            out[i] |= 1 << x
    return out


def bitset_normality(cl, center, trigger):
    """The old bitset check: bit x of left[i] is set iff θ_i ∨ α_x = ∇, and
    of right[j] iff θ_j ∨ α_x' = ∇; a trigger pair (i, j) joining to ∇ has
    a witness iff left[i] & right[j] is not zero."""
    co = [_bits(m) for m in lifting._joins_to_nabla(cl)]
    left = witness_bits(co, center.members)
    right = witness_bits(co, [center.complement[a] for a in center.members])
    for i, js in enumerate(co):
        for j in js:
            if trigger(i, j) and not left[i] & right[j]:
                return False, (cl.elements[i].block_string(), cl.elements[j].block_string())
    return True, None


def test_the_components_decide_as_the_images_and_bitsets_do():
    verdicts = {"cblp": set(), "fcn": set(), "bn": set()}
    for A in mask_algebras() + random_generic_algebras():
        cl = all_congruences(A)
        if not cl.is_distributive():
            for check in (algebra_cblp, is_b_normal, is_fc_normal):
                with pytest.raises(NotDistributive):
                    check(A)
            with pytest.raises(NotDistributive):
                lifting._lifting(cl, cl.index_of_nabla, False)
            continue
        for t in range(len(cl)):
            assert lifting._lifting(cl, t, False)[1] == images_unliftable(cl, t), (A.name, t)
        want = images_algebra_cblp(A)
        assert algebra_cblp(A) == want, A.name
        fcn = bitset_normality(cl, factor_congruences(cl), cl.composes_to_nabla)
        bn = bitset_normality(cl, boolean_center(cl), lambda i, j: True)
        assert (is_fc_normal(A), is_b_normal(A)) == (fcn, bn), A.name
        verdicts["cblp"].add(want[0])
        verdicts["fcn"].add(fcn[0])
        verdicts["bn"].add(bn[0])
    assert all(v == {True, False} for v in verdicts.values()), verdicts


@pytest.mark.parametrize(
    "build", [lambda: chain(8), lambda: direct_product([fixture("L2")] * 5)], ids=["C8", "L2^5"]
)
def test_cold_cblp_and_b_normality_build_no_images_centers_or_pairs(build, monkeypatch):
    A = build()
    calls = []
    centers = factor._interval_centers
    monkeypatch.setattr(factor, "_interval_centers", lambda cl, t: calls.append(t) or centers(cl, t))
    listed = count_listings(monkeypatch)
    assert algebra_cblp(A) == (True, None, None)
    # the tops of J's components decide it: no interval is listed, not even Δ's
    assert calls == listed == []
    B = build()
    counts = count_calls(monkeypatch, lifting, ["_joins_to_nabla"])
    assert is_b_normal(B) == (True, None)
    assert counts == {"_joins_to_nabla": 0}


# -- the factor lifting on the listed members ------------------------------------


def cold(A):
    """A fresh algebra with A's tables, so that nothing is cached on it: the
    private constructor, which seeds no order masks."""
    return FiniteAlgebra._derived(A.n, A.labels, A.signature, A.tables, A.name)


def lifting_walk(A, factor_side):
    """algebra_fclp or algebra_cblp without its criterion: the verdict of
    every θ in turn, from lifting._lifting, up to the first failure, whose
    evidence has_fclp or has_cblp gives."""
    cl = all_congruences(A)
    t = next((t for t in range(len(cl)) if lifting._lifting(cl, t, factor_side)[1] is not None), None)
    if t is None:
        return True, None, None
    return False, lifting._has_lifting(A, cl.elements[t], factor_side)[1], cl.elements[t]


def cached_centers(cl):
    """The t whose centers of [θ_t, ∇] are cached on the lattice."""
    return [t for t in range(len(cl)) if ("_interval_centers", t) in cl._cache]


def count_listings(monkeypatch):
    """The (cl, t) of each listing of the Boolean members of [θ_t, ∇] in
    cl, in order."""
    listed, listing = [], factor._complemented
    for module in (factor, lifting):
        monkeypatch.setattr(module, "_complemented", lambda cl, t: listed.append((cl, t)) or listing(cl, t))
    return listed


def listings_on(cl, listed):
    return [t for c, t in listed if c is cl]


def count_atoms(monkeypatch):
    """count_calls for _atoms, which both the J(Con A) record (A's own
    atoms) and lifting (a θ's atoms) call."""
    counts = count_calls(monkeypatch, factor, ["_atoms"])
    monkeypatch.setattr(lifting, "_atoms", factor._atoms)
    return counts


def center_unliftable(cl, t):
    """The old scan: the first member of the factor center of [θ_t, ∇]
    that no α ∨ θ_t, α in FC(A), reaches."""
    gm = cl.gen_masks
    images = {gm[a] | gm[t] for a in factor_congruences(cl).members}
    return next((b for b in factor_congruences(cl, t).members if gm[b] not in images), None)


def test_the_one_pass_factor_lifting_is_the_center_scan():
    algebras = [fixture(name) for name in FIXTURE_NAMES] + sweep() + random_generic_algebras()
    verdicts = set()
    for A in map(cold, algebras):
        cl = all_congruences(A)
        if not cl.is_distributive():
            with pytest.raises(NotDistributive):
                lifting._lifting(cl, cl.index_of_nabla, True)
            continue
        got = [lifting._lifting(cl, t, True)[1] for t in range(len(cl))]
        # no verdict caches a center but Δ's, whose images it reads
        assert set(cached_centers(cl)) <= {cl.index_of_delta}, A.name
        assert got == [one_pass_unreached_factor(cl, t) for t in range(len(cl))], A.name
        assert got == [center_unliftable(cl, t) for t in range(len(cl))], A.name
        verdicts.update(b is None for b in got)
    assert verdicts == {True, False}


def test_fc_equal_to_b_with_cblp_gives_fclp():
    algebras = [fixture(name) for name in FIXTURE_NAMES] + sweep()
    fired = 0
    for A in algebras:
        cl = all_congruences(A)
        loop = lifting_walk(cold(A), True)
        if len(factor_congruences(cl).members) == len(boolean_center(cl).members) and jspace(A).tops is not None:
            fired += 1
            assert loop == (True, None, None), A.name
        assert algebra_fclp(cold(A)) == loop, A.name
    assert (fired, len(algebras)) == (132, 241)


@pytest.mark.parametrize(
    "build,deltas",
    [
        # distributive lattices: algebra_fclp reads J(L) and builds no center
        (lambda: chain(8), False),
        (lambda: direct_product([fixture("L2")] * 5), False),
        # T is not distributive: the walk over the θ lists each interval's
        # members with no center built, as A's atoms are read off T's
        # central elements, and algebra_fclp, which reads the pairs of
        # maximal members of J, builds none either
        (lambda: cold(fixture("T")), False),
    ],
    ids=["C8", "L2^5", "T"],
)
def test_a_cold_fclp_builds_no_center_but_deltas(build, deltas, monkeypatch):
    calls = []
    centers = factor._interval_centers
    monkeypatch.setattr(factor, "_interval_centers", lambda cl, t: calls.append(t) or centers(cl, t))
    for walk, built in ((algebra_fclp, False), (lambda A: lifting_walk(A, True), deltas)):
        A = build()
        calls.clear()
        assert walk(A) == (True, None, None)
        # on a distributive lattice the walk, too, passes each θ on its
        # traces on J(L), so no center is built, not even Δ's
        cl = all_congruences(A)
        assert set(calls) == set(cached_centers(cl)) == ({cl.index_of_delta} if built else set())


def test_a_cold_fclp_on_a_pentagon_sum_caches_no_center(monkeypatch):
    # P⊕C10 is no distributive lattice, so each θ lists its interval; A's
    # own atoms are read off its central elements, so Δ's center is not built
    A = ordinal_sum(fixture("P"), chain(10))
    listed = count_listings(monkeypatch)
    ok, evidence, theta = algebra_fclp(A)
    cl = all_congruences(A)
    assert not ok and evidence.unliftable is not None
    assert cached_centers(cl) == []
    # one listing per θ, Δ's own verdict included, up to the failing one,
    # whose evidence lists it once more
    t = cl.index(theta)
    assert listings_on(cl, listed) == [*range(t + 1), t]


@pytest.mark.parametrize(
    "build,interval",
    [
        (lambda: cold(fixture("L2x3cube")), False),
        (lambda: cold(fixture("X")), True),
        (lambda: cold(fixture("H")), True),
        (lambda: ordinal_sum(fixture("H"), chain(6)), True),
        (lambda: ordinal_sum(fixture("P"), chain(6)), True),
    ],
    ids=["L2x3cube", "X", "H", "HosumC6", "PosumC6"],
)
def test_a_cold_lifting_report_builds_no_center_but_deltas(build, interval, monkeypatch):
    for report in (lifting_report, build_report):
        A = build()
        listed = count_listings(monkeypatch)
        counts = count_atoms(monkeypatch)
        rests, components = [], factor._components
        monkeypatch.setattr(lifting, "_components", lambda near, rest: rests.append(rest) or components(near, rest))
        report(A)
        cl = all_congruences(A)
        listings = listings_on(cl, listed)
        assert cached_centers(cl) == [cl.index_of_delta]
        # the target a θ without one of the properties fails to reach is
        # read off its cut traces, so such a row lists no more than others
        rows = lifting_report(A).per_congruence
        failing = [t for t, row in enumerate(rows) if not (row["fclp"] and row["cblp"])]
        assert bool(failing) == (A.name != "L2x3cube")
        if interval:
            # these are no distributive lattices: after Δ's center, each row
            # lists its interval once, for the factor column, and a row
            # without the factor lifting reads its atoms off that listing;
            # A's own atoms are read once, off its central elements.
            # Where some θ lacks the Boolean lifting, J has a component with
            # no top: each Boolean verdict counts the components of its
            # R = J ∖ D_θ once, and a failing one takes those it counted as
            # its atoms
            assert listings == [cl.index_of_delta, *range(len(cl))]
            assert counts == {"_atoms": 1 + sum(not row["fclp"] for row in rows)}
            nabla = cl.gen_masks[cl.index_of_nabla]
            boolean = [] if all(row["cblp"] for row in rows) else [nabla & ~m for m in cl.gen_masks]
            assert rests == boolean
        else:
            # L2x3cube is one: the rows are read off J(L), and only Δ's
            # center is listed
            assert listings == [cl.index_of_delta]
            assert counts == {"_atoms": 0}
        if A.name.endswith("C6"):
            # 160 θ, 32 of them without the Boolean lifting: 161 listings in
            # all, where a second listing for each of the 32 once made 193
            assert (len(cl), sum(not row["cblp"] for row in rows)) == (160, 32)
            assert len(listed) == 161


@pytest.mark.parametrize("name", ["X", "H"])
def test_a_cold_has_lifting_lists_its_interval_once(name, monkeypatch):
    # has_fclp and has_cblp read each target's reach off the source they
    # render, so each θ lists its interval once a side; A's own atoms are
    # read off its central elements, with no listing of Δ's
    A = cold(fixture(name))
    listed = count_listings(monkeypatch)
    cl = all_congruences(A)
    for has in (lifting.has_fclp, has_cblp):
        for theta in cl.elements:
            has(A, theta)
    assert listings_on(cl, listed) == [*range(len(cl)), *range(len(cl))]
