import pytest

from congrlab import factor
from congrlab.algebra import (
    build_from_spec,
    direct_product,
    find_isomorphism,
    ordinal_sum,
)
from congrlab.congruences import all_congruences, delta, nabla, parse_congruence
from congrlab.errors import (
    EncodingMismatch,
    NotASublattice,
    NotDistributive,
    ParentMismatch,
    SizeCap,
)
from congrlab.factor import (
    boolean_center,
    crt_characterization,
    crt_direct_check,
    factor_congruences,
    osum_con_iso_check,
    osum_fc_comparison,
    product_con_iso_check,
    product_congruence,
)
from congrlab.fixtures import fixture

from oracles import bdl_fc_isomorphism, factorize, osum_congruence


def xor_algebra():
    table = [[a ^ b for b in range(4)] for a in range(4)]
    return build_from_spec(
        {
            "name": "V4",
            "kind": "algebra",
            "elements": ["0", "1", "2", "3"],
            "operations": {"xor": [[str(v) for v in row] for row in table]},
        }
    )


# -- Boolean centers --------------------------------------------------------


def center_strings(A):
    cl = all_congruences(A)
    bc = boolean_center(cl)
    return {cl.elements[i].block_string() for i in bc.members}


def fc_strings(A):
    cl = all_congruences(A)
    fc = factor_congruences(cl)
    return {cl.elements[i].block_string() for i in fc.members}


def test_pentagon_center_is_trivial():
    assert center_strings(fixture("P")) == {"0|x|y|z|1", "0,x,y,z,1"}


def test_chain_stack_center_is_everything():
    S = fixture("S")
    cl = all_congruences(S)
    assert len(boolean_center(cl).members) == len(cl)  # Con(S) is Boolean


def test_e_center_is_trivial():
    assert center_strings(fixture("E")) == {"0|a|b|c|d|1", "0,a,b,c,d,1"}


def test_center_complement_is_involutive():
    cl = all_congruences(fixture("X"))
    bc = boolean_center(cl)
    for i in bc.members:
        j = bc.complement[i]
        assert bc.complement[j] == i
        assert cl.join(i, j) == cl.index_of_nabla
        assert cl.meet(i, j) == cl.index_of_delta


def test_center_requires_distributive_con():
    with pytest.raises(NotDistributive):
        boolean_center(all_congruences(xor_algebra()))


# -- factor congruences -----------------------------------------------------


def test_fc_of_chain():
    assert fc_strings(fixture("L3")) == {"0|m|1", "0,m,1"}


def test_fc_of_l2_times_l3():
    assert fc_strings(fixture("L2timesL3")) == {
        "0|p|q|r|s|1",
        "0,p,q,r,s,1",
        "0,q,s|p,r,1",
        "0,p|q,r|s,1",
    }


def test_fc_of_x_is_trivial_despite_big_center():
    X = fixture("X")
    cl = all_congruences(X)
    assert len(boolean_center(cl).members) == 8
    assert fc_strings(X) == {"0|p|q|r|s|t|u|1", "0,p,q,r,s,t,u,1"}


def test_fc_is_subset_of_center():
    for name in ("L3", "P", "S", "X", "H", "T", "L2timesL3"):
        cl = all_congruences(fixture(name))
        assert set(factor_congruences(cl).members) <= set(boolean_center(cl).members)


def is_factor_pair(A, phi, psi):
    """(phi, psi) decomposes A: they meet in Δ and compose to ∇."""
    cl = all_congruences(A)
    i, j = cl.index(phi), cl.index(psi)
    return cl.meet(i, j) == cl.index_of_delta and cl.composes_to_nabla(i, j)


def test_is_factor_pair():
    A = fixture("L2timesL3")
    lam = parse_congruence(A, "0,q,s|p,r,1")
    mu = parse_congruence(A, "0,p|q,r|s,1")
    assert is_factor_pair(A, lam, mu)
    assert is_factor_pair(A, delta(A), nabla(A))
    L3 = fixture("L3")
    phi = parse_congruence(L3, "0,m|1")
    psi = parse_congruence(L3, "0|m,1")
    assert not is_factor_pair(L3, phi, psi)  # they do not permute


# -- simultaneous solvability (CRT-style) -----------------------------------


def test_fc_family_always_solvable():
    for name in ("L3", "P", "X", "H", "L2timesL3"):
        A = fixture(name)
        fam = factor_congruences(all_congruences(A)).congruences()
        assert crt_characterization(A, fam)
        ok, wit = crt_direct_check(A, fam)
        assert ok and wit is None


def test_full_con_of_chain_is_not_solvable():
    L3 = fixture("L3")
    fam = all_congruences(L3).elements
    assert not crt_characterization(L3, fam)
    ok, wit = crt_direct_check(L3, fam)
    assert not ok
    thetas, targets = wit
    # the witness really is pairwise compatible but jointly unsolvable
    masks = [t.masks() for t in thetas]
    idx = [L3.index_of(s) for s in targets]
    sol = (1 << L3.n) - 1
    for m, a in zip(masks, idx):
        sol &= m[a]
    assert sol == 0


def test_trivial_family_is_solvable():
    E = fixture("E")
    assert crt_characterization(E, [delta(E), nabla(E)])
    assert crt_direct_check(E, [delta(E), nabla(E)])[0]


def test_direct_check_k_cap():
    with pytest.raises(SizeCap):
        crt_direct_check(fixture("L3"), all_congruences(fixture("L3")).elements, k_max=4)


def test_direct_check_counts_its_target_tuples_before_the_walk(monkeypatch):
    # L2^4: 16 factor congruences, C(17, 2)·16² pairs and C(18, 3)·16³
    # triples of targets, under the cap, so the CLI still answers on it
    A = direct_product([fixture("L2")] * 4)
    fc = factor_congruences(all_congruences(A)).congruences()
    assert 136 * 16**2 + 816 * 16**3 == 3377152 <= factor.CRT_TUPLE_CAP
    monkeypatch.setattr(factor, "CRT_TUPLE_CAP", 3377151)
    with pytest.raises(SizeCap, match="walk 3377152 target tuples"):
        crt_direct_check(A, fc, k_max=3)


def test_family_must_be_congruences_of_the_algebra():
    from congrlab.errors import InvalidCongruence

    with pytest.raises((NotASublattice, ParentMismatch, InvalidCongruence)):
        crt_characterization(fixture("L3"), [delta(fixture("P"))])


# -- product transport ------------------------------------------------------


def test_product_congruence_builds_the_projection_kernels():
    factors = [fixture("L2"), fixture("L3")]
    P = direct_product(factors)
    th = product_congruence(P, factors, [nabla(factors[0]), delta(factors[1])])
    assert th.num_blocks == 3  # classes = fibers of the second projection


def test_product_of_deltas_is_delta():
    factors = [fixture("L3"), fixture("L2x2")]
    P = direct_product(factors)
    th = product_congruence(P, factors, [delta(f) for f in factors])
    assert th.is_delta()


def test_product_congruence_rejects_wrong_carrier():
    factors = [fixture("L2"), fixture("L3")]
    with pytest.raises((EncodingMismatch, ParentMismatch)):
        product_congruence(fixture("P"), factors, [delta(f) for f in factors])


def test_product_con_iso_small():
    assert product_con_iso_check([fixture("L2"), fixture("L3")])


def test_product_con_iso_t_times_e_with_counts():
    T, E = fixture("T"), fixture("E")
    P = direct_product([T, E])
    assert product_con_iso_check([T, E], P=P)
    cl = all_congruences(P)
    assert len(cl) == 24
    assert len(boolean_center(cl).members) == 16
    assert len(factor_congruences(cl).members) == 4


# -- ordinal-sum transport --------------------------------------------------


def test_osum_congruence_gluing():
    D, L2 = fixture("D"), fixture("L2")
    S = ordinal_sum(D, L2)
    glued = osum_congruence(D, L2, nabla(D), delta(L2))
    assert glued.num_blocks == 2
    assert osum_congruence(D, L2, delta(D), delta(L2)).is_delta()
    assert osum_congruence(D, L2, nabla(D), nabla(L2)).is_nabla()
    assert glued.algebra.n == S.n


def test_osum_con_iso_on_the_fixture_splits():
    assert osum_con_iso_check(fixture("D"), fixture("L2"))
    assert osum_con_iso_check(fixture("D"), fixture("L3"))
    assert osum_con_iso_check(fixture("L2x2"), fixture("D"))
    assert osum_con_iso_check(fixture("L2"), fixture("L2x2"))


def test_osum_fc_can_diverge_from_gluing():
    cmp_ = osum_fc_comparison(fixture("L2x2"), fixture("D"))
    assert cmp_["glued_count"] == 8
    assert cmp_["fc_count"] == 2
    assert not cmp_["glued_equals_fc"]


def test_osum_fc_agrees_when_one_part_is_trivial():
    cmp_ = osum_fc_comparison(fixture("L2"), fixture("L1"))
    assert cmp_["glued_equals_fc"]


def test_osum_fc_diverges_even_without_interior_structure():
    # already the two-chain glued onto itself: both projections' kernels
    # are glued factor congruences but not factor congruences of the chain
    cmp_ = osum_fc_comparison(fixture("L2"), fixture("L2"))
    assert cmp_["glued_count"] == 4
    assert cmp_["fc_count"] == 2
    assert not cmp_["glued_equals_fc"]


# -- element-to-congruence map on bounded distributive lattices -------------


def test_bdl_map_on_the_square():
    L = fixture("L2x2")
    mapping, ok = bdl_fc_isomorphism(L)
    assert ok
    assert len(mapping) == 4  # every element of L2x2 is complemented


def test_bdl_map_on_the_six_element_product():
    L = fixture("L2timesL3")
    mapping, ok = bdl_fc_isomorphism(L)
    assert ok
    keys = {L.labels[a] for a in mapping}
    assert keys == {"0", "p", "s", "1"}
    assert mapping[L.index_of("p")].block_string() == "0,p|q,r|s,1"
    assert mapping[L.index_of("s")].block_string() == "0,q,s|p,r,1"
    assert mapping[L.index_of("0")].is_delta()
    assert mapping[L.index_of("1")].is_nabla()


# -- factorization ----------------------------------------------------------


def test_factorize_the_six_element_product():
    A = fixture("L2timesL3")
    lam = parse_congruence(A, "0,q,s|p,r,1")
    mu = parse_congruence(A, "0,p|q,r|s,1")
    quotients, ok = factorize(A, [lam, mu])
    assert ok
    sizes = sorted(q.quotient.n for q in quotients)
    assert sizes == [2, 3]
    small = next(q for q in quotients if q.quotient.n == 2)
    big = next(q for q in quotients if q.quotient.n == 3)
    assert find_isomorphism(small.quotient, fixture("L2")) is not None
    assert find_isomorphism(big.quotient, fixture("L3")) is not None


def test_factorize_with_single_diagonal():
    A = fixture("S")
    quotients, ok = factorize(A, [delta(A)])
    assert ok and quotients[0].quotient == A
