"""The transport and fc-normality checks on covers and maximal pairs,
against the all-pairs scans they replace.

factor._glued_image checks the glued map on cover pairs, both ways, where
it joined and met every pair of tuples; product_congruence folds the blocks
factor by factor, where it decoded every element; and is_fc_normal tests
the trigger on the maximal untested pairs alone, where it tested them all.
The old ways live on here as oracles.
"""

import itertools

import pytest

from congrlab import lifting
from congrlab.algebra import (
    FiniteAlgebra,
    Signature,
    _bits,
    build_from_spec,
    direct_product,
    dual,
    ordinal_sum_with_maps,
    product_decode,
    product_radix,
)
from congrlab.congruences import ConLattice, Congruence, all_congruences
from congrlab.errors import NotDistributive
from congrlab.factor import _glued_image, factor_congruences, product_congruence
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.lifting import is_fc_normal

from oracles import osum_congruence
from sweep import sweep
from test_coatom_pairs import small_lattices
from test_join_irreducible_masks import random_generic_algebras
from test_partition_join import chain


def lattice_fixtures():
    return [name for name in FIXTURE_NAMES if fixture(name).signature.kind == "lattice"]


# -- the glued image --------------------------------------------------------------


def all_pairs_glued_image(parts, whole, glue):
    """The old check: a bijection that keeps the bounds and every join and
    meet of a pair of tuples, taken componentwise."""
    tuples = list(itertools.product(*[range(len(c)) for c in parts]))
    if len(tuples) != len(whole):
        return None
    image = {tup: whole.index(glue([c.elements[i] for c, i in zip(parts, tup)])) for tup in tuples}
    if len(set(image.values())) != len(whole):
        return None
    if image[tuple(c.index_of_delta for c in parts)] != whole.index_of_delta:
        return None
    if image[tuple(c.index_of_nabla for c in parts)] != whole.index_of_nabla:
        return None
    for t1 in tuples:
        for t2 in tuples:
            jt = tuple(c.join(a, b) for c, a, b in zip(parts, t1, t2))
            mt = tuple(c.meet(a, b) for c, a, b in zip(parts, t1, t2))
            if image[jt] != whole.join(image[t1], image[t2]):
                return None
            if image[mt] != whole.meet(image[t1], image[t2]):
                return None
    return image


def decoded_product_congruence(P, factors, thetas):
    """The old product congruence: each element decoded to its tuple."""
    sizes = [F.n for F in factors]
    radix = product_radix(sizes)
    block_of = []
    for idx in range(P.n):
        tup = product_decode(idx, sizes, radix)
        block_of.append(sum(t.block_of[e] * r for t, e, r in zip(thetas, tup, radix)))
    return Congruence(P, block_of)


def product_operands():
    """Every pair of lattice fixtures, and four triples."""
    pairs = list(itertools.combinations_with_replacement(lattice_fixtures(), 2))
    return pairs + [("T", "E", "L3"), ("L2", "L2", "L2"), ("P", "L2", "L3"), ("D", "E", "L2x2")]


def test_the_product_map_is_checked_as_the_pair_scan_does():
    sizes = set()
    for names in product_operands():
        factors = [fixture(name) for name in names]
        P = direct_product(factors)
        parts, whole = [all_congruences(F) for F in factors], all_congruences(P)
        got = _glued_image(parts, whole, lambda thetas: product_congruence(P, factors, thetas))
        want = all_pairs_glued_image(parts, whole, lambda thetas: decoded_product_congruence(P, factors, thetas))
        assert got == want and got is not None, names
        sizes.add(len(whole))
    assert 96 in sizes  # T×E×L3


def test_the_fold_is_the_checked_constructors_congruence():
    # product_congruence makes its fold with the private constructor, which
    # checks nothing; on the 45 products of test_coatom_pairs it is, for
    # every pair of the factors' congruences, the decoded partition as the
    # public constructor makes it, checked canonical and compatible
    pairs = list(itertools.combinations_with_replacement(small_lattices(5), 2))
    assert len(pairs) == 45
    for L, M in pairs:
        P = direct_product([L, M])
        for thetas in itertools.product(all_congruences(L).elements, all_congruences(M).elements):
            got = product_congruence(P, [L, M], thetas)
            want = Congruence(P, decoded_product_congruence(P, [L, M], thetas).block_of, check=True)
            assert type(got.block_of) is tuple and got == want, (P.name, thetas)


def test_the_ordinal_sum_map_is_checked_as_the_pair_scan_does():
    small = [name for name in lattice_fixtures() if fixture(name).n <= 6]
    for a, b in itertools.product(small, repeat=2):
        L, M = fixture(a), fixture(b)
        S, _, _ = ordinal_sum_with_maps(L, M)
        parts, whole = [all_congruences(L), all_congruences(M)], all_congruences(S)
        glued = {
            (phi, psi): osum_congruence(L, M, phi, psi, S=S) for phi in parts[0].elements for psi in parts[1].elements
        }
        glue = lambda thetas: glued[tuple(thetas)]  # noqa: E731
        got = _glued_image(parts, whole, glue)
        assert got == all_pairs_glued_image(parts, whole, glue) and got is not None, (a, b)


def successor_mod_8():
    """Z₈ with x ↦ x + 1: its congruences are x ≡ y (mod d) for d | 8, a
    4-element chain."""
    successor = [(x + 1) % 8 for x in range(8)]
    return FiniteAlgebra(8, [str(x) for x in range(8)], Signature((("s", 1),)), {"s": successor}, name="Z8")


def by_divisor(cl):
    """The index of x ≡ y (mod d) in Con(Z₈), for each divisor d of 8."""
    return {d: cl.index(Congruence(cl.algebra, [x % d for x in range(8)])) for d in (1, 2, 4, 8)}


def square_and_chain():
    """Con(L2)² as parts and Con(L2×L2), a square, and Con(Z₈), a chain."""
    L2 = fixture("L2")
    square = all_congruences(direct_product([L2, L2]))
    chain4 = all_congruences(successor_mod_8())
    assert len(square) == len(chain4) == 4 and not square.leq(1, 2) and not square.leq(2, 1)
    return [all_congruences(L2)] * 2, square, chain4


def assert_rejected(parts, whole, glue):
    assert _glued_image(parts, whole, glue) is None
    assert all_pairs_glued_image(parts, whole, glue) is None


def test_a_swap_of_comparable_congruences_is_rejected():
    # Con(C4) is the cube; the atom θ_1 lies below θ_4, and neither is a bound
    cl = all_congruences(chain(4))
    assert cl.leq(1, 4) and {1, 4}.isdisjoint({cl.index_of_delta, cl.index_of_nabla})
    swap = {1: 4, 4: 1}
    assert_rejected([cl], cl, lambda thetas: cl.elements[swap.get(cl.index(thetas[0]), cl.index(thetas[0]))])


def test_a_monotone_bijection_with_a_non_monotone_inverse_is_rejected():
    # the square onto the chain Δ < (mod 4) < (mod 2) < ∇: every cover of the
    # square goes up, but (mod 4) < (mod 2) comes from incomparable tuples
    parts, _, chain4 = square_and_chain()
    d = by_divisor(chain4)
    to = {(0, 0): d[8], (0, 1): d[4], (1, 0): d[2], (1, 1): d[1]}
    assert_rejected(parts, chain4, lambda thetas: chain4.elements[to[tuple(int(t.is_nabla()) for t in thetas)]])


def test_a_bijection_with_a_monotone_inverse_only_is_rejected():
    # the chain onto the square: the inverse keeps every cover of the square
    # in order, but (mod 4) < (mod 2) lands on two incomparable congruences
    _, square, chain4 = square_and_chain()
    d = by_divisor(chain4)
    to = {d[8]: square.index_of_delta, d[4]: 1, d[2]: 2, d[1]: square.index_of_nabla}
    assert_rejected([chain4], square, lambda thetas: square.elements[to[chain4.index(thetas[0])]])


# -- fc-normality -------------------------------------------------------------------


def untested(cl, i):
    """The j with θ_i ∨ θ_j = ∇ that no factor congruence witnesses."""
    fc = factor_congruences(cl)
    joins = cl._joins_to_nabla()
    witnessed = 0
    for a in fc.members:
        if joins[i] >> a & 1:
            witnessed |= joins[fc.complement[a]]
    return _bits(joins[i] & ~witnessed)


def trigger_loop_fc_normal(A):
    """The old loop: every pair (i, j) joining to ∇ that no factor
    congruence witnesses is tested for θ_i∘θ_j = ∇."""
    cl = all_congruences(A)
    for i in range(len(cl)):
        for j in untested(cl, i):
            if cl.composes_to_nabla(i, j):
                return False, (cl.elements[i].block_string(), cl.elements[j].block_string())
    return True, None


def three_failing_partners():
    """An 11-element lattice, found by a seeded search of random lattices,
    whose first failing φ fails with three ψ: the first of them in index
    order lies below the highest, which is the first maximal one tested."""
    covers = "e0<e2 e0<e6 e2<e7 e2<e9 e6<e5 e6<e9 e3<e4 e3<e8 e5<e4 e7<e8 e9<e3 e8<e1 e1<e10 e4<e10"
    spec = {"name": "F11", "kind": "lattice", "elements": [f"e{x}" for x in range(11)]}
    return build_from_spec(spec | {"cover": [pair.split("<") for pair in covers.split()]})


def normality_algebras():
    """The sweep and its duals, the 16 fixtures, C2–C12, the random generic
    algebras and the lattice of three_failing_partners."""
    lattices = sweep()
    return (
        lattices
        + [dual(L) for L in lattices]
        + [fixture(name) for name in FIXTURE_NAMES]
        + [chain(n) for n in range(2, 13)]
        + random_generic_algebras()
        + [three_failing_partners()]
    )


def test_fc_normality_at_maximal_pairs_is_the_trigger_loop():
    verdicts, not_distributive, below_maximal = set(), 0, 0
    for A in normality_algebras():
        try:
            want = trigger_loop_fc_normal(A)
        except NotDistributive:
            with pytest.raises(NotDistributive):
                is_fc_normal(A)
            not_distributive += 1
            continue
        assert is_fc_normal(A) == want, A.name
        verdicts.add(want[0])
        if not want[0]:
            # the highest failing j is the first maximal one the walk finds;
            # the pair named is the first in index order
            cl = all_congruences(A)
            i = [theta.block_string() for theta in cl.elements].index(want[1][0])
            failing = [j for j in untested(cl, i) if cl.composes_to_nabla(i, j)]
            below_maximal += failing[0] != failing[-1]
    assert verdicts == {True, False} and not_distributive > 0
    assert below_maximal > 0


@pytest.mark.parametrize("n,tests", [(8, 441), (10, 2295)])
def test_a_chain_tests_one_pair_per_coatom_above(n, tests, monkeypatch):
    # Con(C_n) is the Boolean lattice on n - 1 atoms, and only ∇ is a factor
    # congruence with a complement that witnesses.  For θ with k atoms below
    # it, k < n - 1, the untested ψ are those above its complement, bar ∇,
    # and their maximal members are the k coatoms above it.  The walk tests
    # those; the trigger loop tested 2^k - 1 of them: 1932 and 19171 pairs.
    # is_fc_normal tests none, as P = J(C_n) is one chain (lifting module
    # doc, 6f).
    A = chain(n)
    calls = []
    trigger = ConLattice.composes_to_nabla
    monkeypatch.setattr(ConLattice, "composes_to_nabla", lambda *args: calls.append(1) or trigger(*args))
    assert is_fc_normal(A) == (True, None) and calls == []
    assert lifting._fc_normal_walk(all_congruences(A)) == (True, None)
    assert len(calls) == tests == (n - 1) * (2 ** (n - 2) - 1)
