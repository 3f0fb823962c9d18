import itertools

import pytest

from congrlab.algebra import FiniteAlgebra, Signature, build_from_spec
from congrlab.congruences import (
    ConLattice,
    Congruence,
    Relation,
    _all_partitions,
    all_congruences,
    brute_force_congruences,
    cg_generated,
    compatibility_violation,
    compose,
    delta,
    is_arithmetical,
    is_congruence_distributive,
    is_congruence_permutable,
    join,
    maximal_congruences,
    meet,
    nabla,
    parse_congruence,
    permutes,
    prime_congruences,
    principal_congruence,
)
from congrlab.errors import InvalidCongruence, ParentMismatch, TableError, TrivialAlgebra
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.lifting import lifting_report

from oracles import radical


def xor_algebra():
    """Klein four-group as a single binary operation (a generic algebra whose
    congruence lattice is the diamond, hence non-distributive)."""
    table = [[a ^ b for b in range(4)] for a in range(4)]
    return build_from_spec(
        {
            "name": "V4",
            "kind": "algebra",
            "elements": ["0", "1", "2", "3"],
            "operations": {"xor": [[str(v) for v in row] for row in table]},
        }
    )


# -- principal congruences and generation -----------------------------------


def test_principal_congruence_on_chain():
    L3 = fixture("L3")
    th = principal_congruence(L3, L3.index_of("0"), L3.index_of("m"))
    assert th.block_string() == "0,m|1"


def test_principal_congruence_is_minimal():
    L3 = fixture("L3")
    a, b = L3.index_of("0"), L3.index_of("m")
    th = principal_congruence(L3, a, b)
    for c in brute_force_congruences(L3):
        if c.contains(a, b):
            assert th.refines(c)


def test_principal_of_equal_pair_is_identity():
    S = fixture("S")
    assert principal_congruence(S, 2, 2) == delta(S)


def test_diamond_collapses_from_one_pair():
    D = fixture("D")
    th = principal_congruence(D, D.index_of("a"), D.index_of("b"))
    assert th.is_nabla()


def test_generated_by_nothing_is_identity():
    assert cg_generated(fixture("P"), []) == delta(fixture("P"))


def test_generated_congruence_on_pentagon():
    P = fixture("P")
    th = cg_generated(P, [(P.index_of("0"), P.index_of("x"))])
    assert th.block_string() == "0,x|y,z,1"


def test_generation_closes_transitively():
    L3 = fixture("L3")
    th = cg_generated(L3, [(0, 1), (1, 2)])
    assert th.is_nabla()


# -- join / meet ------------------------------------------------------------


def test_join_and_meet_on_the_six_element_product():
    A = fixture("L2timesL3")
    lam = parse_congruence(A, "0,q,s|p,r,1")
    mu = parse_congruence(A, "0,p|q,r|s,1")
    assert join(lam, mu).is_nabla()
    assert meet(lam, mu).is_delta()


def test_join_meet_reject_foreign_congruences():
    with pytest.raises(ParentMismatch):
        join(delta(fixture("L3")), delta(fixture("P")))
    with pytest.raises(ParentMismatch):
        meet(delta(fixture("L3")), nabla(fixture("D")))


# -- parsing ----------------------------------------------------------------


def test_parse_round_trips_block_strings():
    A = fixture("X")
    for th in all_congruences(A).elements:
        assert parse_congruence(A, th.block_string()) == th


def test_parse_rejects_bad_input():
    L3 = fixture("L3")
    with pytest.raises((TableError, InvalidCongruence)):
        parse_congruence(L3, "0|m")  # not a partition of the carrier
    with pytest.raises((TableError, InvalidCongruence)):
        parse_congruence(L3, "0,m|1|zz")  # unknown label
    with pytest.raises(InvalidCongruence):
        parse_congruence(L3, "0,1|m")  # equivalence but not compatible


def pair_scan_violation(A, block_of):
    """The old compatibility scan: every ordered pair of distinct related
    elements, in every argument position of every operation."""
    n = A.n
    related = [(a, b) for a in range(n) for b in range(n) if a != b and block_of[a] == block_of[b]]
    for fname, arity in A.signature.operations:
        if arity == 0:
            continue
        for a, b in related:
            if arity == 1:
                t = A.tables[fname]
                if block_of[t[a]] != block_of[t[b]]:
                    return (fname, t[a], t[b])
            elif arity == 2:
                t = A.tables[fname]
                for z in range(n):
                    if block_of[t[a][z]] != block_of[t[b][z]]:
                        return (fname, t[a][z], t[b][z])
                    if block_of[t[z][a]] != block_of[t[z][b]]:
                        return (fname, t[z][a], t[z][b])
            else:
                for rest in itertools.product(range(n), repeat=arity - 1):
                    for i in range(arity):
                        ra = A.op(fname, *rest[:i], a, *rest[i:])
                        rb = A.op(fname, *rest[:i], b, *rest[i:])
                        if block_of[ra] != block_of[rb]:
                            return (fname, ra, rb)
    return None


def skewed_algebra():
    """Z4 with 2x, x - y and x - y + z: a table that is not symmetric and
    one of arity three.  Its congruences are Δ, mod 2 and ∇."""
    n = 4
    tables = {
        "f": [2 * x % n for x in range(n)],
        "sub": [[(x - y) % n for y in range(n)] for x in range(n)],
        "p": [[[(x - y + z) % n for z in range(n)] for y in range(n)] for x in range(n)],
    }
    return FiniteAlgebra(n, "0123", Signature((("f", 1), ("sub", 2), ("p", 3))), tables, name="Z4f")


def right_algebra():
    """x·y = g(y), which every partition respects in the first argument,
    and a unary h."""
    g, h = [1, 0, 3, 3, 2], [0, 0, 1, 2, 3]
    return FiniteAlgebra(5, "01234", Signature((("h", 1), ("r", 2))), {"h": h, "r": [g] * 5}, name="R5")


def middle_algebra():
    """q(x, y, z) = g(y): a ternary operation alone, which only its middle
    argument can break."""
    g = [1, 0, 3, 3]
    return FiniteAlgebra(4, "0123", Signature((("q", 3),)), {"q": [[[g[y]] * 4 for y in range(4)]] * 4}, name="Q4")


def quaternary_algebra():
    """q(x, y, z, w) = x - y + z·w on Z4 beside a unary g: an operation of
    arity four, each of whose argument positions acts differently."""
    n, g = 4, [1, 0, 3, 3]
    q = [[[[(x - y + z * w) % n for w in range(n)] for z in range(n)] for y in range(n)] for x in range(n)]
    return FiniteAlgebra(n, "0123", Signature((("g", 1), ("q", 4))), {"g": g, "q": q}, name="Q4x")


def pointed_algebra():
    """A constant c among a unary h and a binary x·y = max(x, h(y)), which
    is not symmetric."""
    n, h = 5, [1, 0, 3, 3, 2]
    dot = [[max(x, h[y]) for y in range(n)] for x in range(n)]
    sig = Signature((("c", 0), ("h", 1), ("dot", 2)))
    return FiniteAlgebra(n, "01234", sig, {"c": 2, "h": h, "dot": dot}, name="P5c")


def test_compatibility_is_the_pair_scan():
    from test_join_irreducible_masks import random_generic_algebras
    from test_partition_join import generic_copy

    small = [fixture(name) for name in FIXTURE_NAMES if fixture(name).n <= 7]
    algebras = small + [generic_copy(A) for A in small] + random_generic_algebras()
    algebras += [xor_algebra(), skewed_algebra(), right_algebra(), middle_algebra()]
    algebras += [quaternary_algebra(), pointed_algebra()]
    found = {True: 0, False: 0}
    for A in algebras:
        labels = A.labels
        for p in _all_partitions(A.n):
            want = pair_scan_violation(A, p)
            assert compatibility_violation(A, p) == want, (A.name, p)
            try:
                Congruence(A, p, check=True)
                msg = None
            except InvalidCongruence as exc:
                msg = str(exc)
            if want is not None:
                f, a, b = want
                want = (
                    f"not a congruence: {f}({labels[a]}) and {f}({labels[b]}) land in "
                    f"different blocks although {labels[a]} ~ {labels[b]}"
                )
            assert msg == want, (A.name, p)
            found[want is None] += 1
    # the congruences, and the partitions that name a violation
    assert found == {True: 514, False: 5970}


def test_constructor_requires_canonical_form():
    with pytest.raises(InvalidCongruence):
        from congrlab.congruences import Congruence

        Congruence(fixture("L3"), (1, 1, 2))


@pytest.mark.parametrize(
    "block_of,message",
    [
        ({0: 0, 1: 0, 2: 2}, "a partition is a list or tuple of element indices"),
        ("012", "a partition is a list or tuple of element indices"),
        (range(3), "a partition is a list or tuple of element indices"),
        ([0, 5, 2], "partition entry 5 is not an element index in 0..2"),
        ([0, -1, 2], "partition entry -1 is not an element index in 0..2"),
        ([0, "0", 2], "partition entry '0' is not an element index in 0..2"),
        ([0, 0], "partition length does not match the carrier"),
        ([0, 2, 2], "partition is not in canonical form"),
    ],
)
def test_the_constructor_refuses_what_is_not_a_partition(block_of, message):
    with pytest.raises(InvalidCongruence) as info:
        Congruence(fixture("L3"), block_of)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda L: principal_congruence(L, -1, 0), "(-1, 0) is not a pair of element indices in 0..2"),
        (lambda L: principal_congruence(L, 0, 9), "(0, 9) is not a pair of element indices in 0..2"),
        (lambda L: principal_congruence(L, 0, "m"), "(0, 'm') is not a pair of element indices in 0..2"),
        (lambda L: cg_generated(L, [(0, 1), (2, 3)]), "(2, 3) is not a pair of element indices in 0..2"),
        (lambda L: cg_generated(L, [(0, 1, 2)]), "(0, 1, 2) is not a pair of element indices in 0..2"),
        (lambda L: cg_generated(L, [0]), "0 is not a pair of element indices in 0..2"),
        (lambda L: cg_generated(L, {(0, 1)}), "the pairs are not a list or tuple"),
    ],
)
def test_generation_refuses_what_is_not_an_element_index(build, message):
    with pytest.raises(InvalidCongruence) as info:
        build(fixture("L3"))
    assert str(info.value) == message


def test_partitions_congrlab_builds_still_pass_the_constructor():
    L = fixture("L3")
    assert cg_generated(L, ([0, 1],)) == principal_congruence(L, 0, 1) == Congruence(L, [0, 0, 2])
    assert Congruence(L, (0, 0, 0)).is_nabla() and Congruence(L, [0, 1, 2]).is_delta()


# -- enumeration vs the brute-force oracle ----------------------------------


@pytest.mark.parametrize(
    "name,count",
    [
        ("L1", 1),
        ("L2", 2),
        ("L3", 4),
        ("P", 5),
        ("D", 2),
        ("L2timesL3", 8),
        ("S", 4),
        ("R", 8),
        ("T", 8),
        ("E", 3),
        ("X", 8),
        ("H", 5),
        ("L2osumL2x2", 8),
        ("R0", 5),
    ],
)
def test_congruence_counts(name, count):
    A = fixture(name)
    cl = all_congruences(A)
    assert len(cl) == count
    assert cl.elements == brute_force_congruences(A)


def test_elements_are_canonically_sorted():
    cl = all_congruences(fixture("R"))
    assert cl.elements[0].is_delta()
    assert cl.elements[-1].is_nabla()
    assert cl.elements == sorted(cl.elements)


def test_generic_algebra_uses_all_pair_generation():
    V4 = xor_algebra()
    cl = all_congruences(V4)
    assert len(cl) == 5  # diamond-shaped congruence lattice
    assert cl.elements == brute_force_congruences(V4)
    assert not is_congruence_distributive(V4)
    assert is_congruence_permutable(V4)


def test_lattice_tables_agree_with_pairwise_operations():
    cl = all_congruences(fixture("T"))
    els = cl.elements
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            assert els[cl.join(i, j)] == join(a, b)
            assert els[cl.meet(i, j)] == meet(a, b)
            assert cl.leq(i, j) == a.refines(b)


def test_con_lattice_is_a_con_lattice_instance_with_bounds():
    cl = all_congruences(fixture("E"))
    assert isinstance(cl, ConLattice)
    assert cl.elements[cl.index_of_delta].is_delta()
    assert cl.elements[cl.index_of_nabla].is_nabla()


# -- composition ------------------------------------------------------------


def test_compose_applies_right_argument_first():
    L3 = fixture("L3")
    phi = parse_congruence(L3, "0,m|1")
    psi = parse_congruence(L3, "0|m,1")
    # 0 ~psi~ 0, and nothing in psi's class of 0 is phi-related to 1 except m
    assert (0, 2) in compose(psi, phi)
    assert (0, 2) not in compose(phi, psi)


def test_compose_exhibits_nonpermuting_pair_on_x():
    X = fixture("X")
    xi1 = parse_congruence(X, "0,q|p,r,s,t,u,1")
    xi6 = parse_congruence(X, "0,p|q,r|s|t|u|1")
    assert (X.index_of("p"), X.index_of("0")) in compose(xi6, xi1)
    assert not permutes(xi1, xi6)


def test_compose_exhibits_nonpermuting_pair_on_s():
    S = fixture("S")
    s1 = parse_congruence(S, "0|a|b|c|x,1")
    s2 = parse_congruence(S, "0,a,b,c,x|1")
    one, b = S.index_of("1"), S.index_of("b")
    assert (one, b) in compose(s2, s1)
    assert (one, b) not in compose(s1, s2)


def test_compose_with_identity_is_the_relation_itself():
    A = fixture("R")
    for th in all_congruences(A).elements:
        assert compose(th, delta(A)) == Relation(A.n, th.masks())
        assert compose(delta(A), th) == Relation(A.n, th.masks())


def test_compose_sits_between_union_and_join():
    A = fixture("T")
    els = all_congruences(A).elements
    for a in els:
        for b in els:
            comp = compose(a, b)
            assert comp.contains_relation(Relation(A.n, a.masks()))
            assert comp.contains_relation(Relation(A.n, b.masks()))
            assert Relation(A.n, join(a, b).masks()).contains_relation(comp)


def test_permutes_iff_composition_symmetric():
    A = fixture("X")
    els = all_congruences(A).elements
    for a in els:
        for b in els:
            assert permutes(a, b) == compose(a, b).is_symmetric()


# -- classification flags ---------------------------------------------------


def test_lattices_are_congruence_distributive():
    for name in ("P", "D", "S", "X", "H"):
        assert is_congruence_distributive(fixture(name))


def test_chain_congruences_need_not_permute():
    assert not is_congruence_permutable(fixture("S"))
    assert not is_arithmetical(fixture("S"))


def test_arithmetical_examples():
    assert is_arithmetical(fixture("E"))
    assert is_arithmetical(fixture("R0"))
    assert not is_arithmetical(xor_algebra())


# -- maximal / prime / radical ----------------------------------------------


def test_maximal_congruences_of_pentagon():
    P = fixture("P")
    maxes = {m.block_string() for m in maximal_congruences(P)}
    assert maxes == {"0,y,z|x,1", "0,x|y,z,1"}
    flags = lifting_report(P).flags
    assert not flags["local"]
    assert flags["semilocal"]


def test_unique_maximal_congruence_on_e():
    E = fixture("E")
    maxes = maximal_congruences(E)
    assert len(maxes) == 1
    assert lifting_report(E).flags["local"]
    assert radical(E) == maxes[0]


def test_radical_is_intersection_of_maximals():
    P = fixture("P")
    rad = radical(P)
    for m in maximal_congruences(P):
        assert rad.refines(m)
    assert rad.block_string() == "0|x|y,z|1"  # the maximal congruences meet here


def test_primes_are_maximal_on_distributive_con():
    for name in ("L3", "S", "E"):
        A = fixture(name)
        primes = set(prime_congruences(A))
        for m in maximal_congruences(A):
            assert m in primes


def prime_scan(cl):
    """The O(k^3) definition scan: θ ≠ ∇ with α∧β ≤ θ forcing α ≤ θ or β ≤ θ."""
    ks = range(len(cl))
    return [
        cl.elements[t]
        for t in ks
        if t != cl.index_of_nabla
        and all(
            cl.leq(a, t) or cl.leq(b, t) or not cl.leq(cl.meet(a, b), t)
            for a in ks
            for b in ks
        )
    ]


def test_primes_agree_with_the_definition_scan():
    from test_join_irreducible_masks import random_generic_algebras
    from test_partition_join import generic_copy, lattice_algebras

    algebras = lattice_algebras()
    algebras += [generic_copy(fixture(name)) for name in ("P", "X", "E", "L2x3cube")]
    total = 0
    for A in algebras:
        cl = all_congruences(A)
        assert cl.is_distributive()
        primes = prime_congruences(A)
        assert primes == prime_scan(cl), A.name
        total += len(primes)
    assert total == 765 + 11  # the 243 lattice-based algebras, then the copies
    V4 = xor_algebra()  # Con(V4) is the diamond M3, and has no prime
    assert not all_congruences(V4).is_distributive()
    assert prime_congruences(V4) == prime_scan(all_congruences(V4)) == []
    # a non-distributive Con(A) that has primes: 14 of them in 12 of the 18
    non_distributive, with_primes, primes_found = 0, 0, 0
    for A in random_generic_algebras():
        cl = all_congruences(A)
        primes = prime_congruences(A)
        assert primes == prime_scan(cl), A.name
        if not cl.is_distributive():
            non_distributive += 1
            with_primes += bool(primes)
            primes_found += len(primes)
    assert (non_distributive, with_primes, primes_found) == (18, 12, 14)


def test_trivial_algebra_has_no_maximal_congruence():
    with pytest.raises(TrivialAlgebra):
        maximal_congruences(fixture("L1"))
