import json
from functools import reduce

import pytest

from congrlab import lifting
from congrlab.algebra import build_from_spec, find_isomorphism, lattice_reduct
from congrlab.congruences import all_congruences, delta, parse_congruence
from congrlab.errors import (
    AmbiguousComplement,
    KindError,
    NotAFilter,
    NotAnIdeal,
    SizeCap,
)
from congrlab.fixtures import fixture
from congrlab.factor import boolean_center, factor_congruences
from congrlab.lifting import algebra_cblp, is_b_normal, is_fc_normal, quotient
from congrlab.residuated import (
    algebra_blp,
    blp_equivalence_check,
    element_boolean_center,
    filter_congruence,
    filters,
    has_blp,
    has_filt_blp,
    has_id_blp,
    ideal_congruence,
    ideals,
    is_filter,
    is_ideal,
    principal_filter,
    reticulation,
)

from oracles import maximal_filters


def godel_chain():
    """Three-element chain with the product = meet and the residuum of a
    chain-valued implication."""
    labels = ["0", "m", "1"]
    leq = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    times = [[labels[min(a, b)] for b in range(3)] for a in range(3)]
    implies = [["1" if leq[a][b] else labels[b] for b in range(3)] for a in range(3)]
    return build_from_spec(
        {
            "name": "G3",
            "kind": "residuated",
            "elements": labels,
            "operations": {
                "join": [[labels[max(a, b)] for b in range(3)] for a in range(3)],
                "meet": [[labels[min(a, b)] for b in range(3)] for a in range(3)],
                "times": times,
                "implies": implies,
            },
            "constants": {"bot": "0", "top": "1"},
        }
    )


# -- element-level Boolean centers ------------------------------------------


def test_center_of_the_six_element_product():
    A = fixture("L2timesL3")
    c = element_boolean_center(A)
    assert {A.labels[a] for a in c.members} == {"0", "p", "s", "1"}
    assert c.complement[A.index_of("p")] == A.index_of("s")


def test_center_of_a_chain_is_the_bounds():
    L3 = fixture("L3")
    c = element_boolean_center(L3)
    assert {L3.labels[a] for a in c.members} == {"0", "1"}


def test_center_of_r0():
    R0 = fixture("R0")
    c = element_boolean_center(R0)
    assert {R0.labels[a] for a in c.members} == {"0", "1"}


def test_diamond_has_ambiguous_complements():
    with pytest.raises(AmbiguousComplement):
        element_boolean_center(fixture("D"))


# -- BLP --------------------------------------------------------------------


def test_blp_holds_on_distributive_fixtures():
    for name in ("L2", "L3", "L2x2", "L2timesL3", "R0"):
        ok, failing = algebra_blp(fixture(name))
        assert ok and failing is None


def test_blp_fails_on_the_two_plus_square_stack():
    A = fixture("L2osumL2x2")
    ok, failing = algebra_blp(A)
    assert not ok and failing is not None
    assert not has_blp(A, failing)


# -- filters and ideals -----------------------------------------------------


def test_filters_of_r0():
    R0 = fixture("R0")
    fs = filters(R0)
    assert len(fs) == 5
    for F in fs:  # every filter of R0 is principal
        assert F == principal_filter(R0, reduce(lambda a, b: R0.op("meet", a, b), F))
    named = {frozenset(R0.index_of(s) for s in grp) for grp in
             [{"1"}, {"a", "1"}, {"b", "1"}, {"a", "b", "c", "1"}, {"0", "a", "b", "c", "1"}]}
    assert set(fs) == named


def test_unique_maximal_filter_of_r0():
    R0 = fixture("R0")
    maxes = maximal_filters(R0)
    assert len(maxes) == 1
    assert {R0.labels[e] for e in maxes[0]} == {"a", "b", "c", "1"}


def test_principal_filter_uses_powers_for_residuated():
    R0 = fixture("R0")
    c = R0.index_of("c")
    F = principal_filter(R0, c)
    assert is_filter(R0, F)
    assert {R0.labels[e] for e in F} == {"a", "b", "c", "1"}  # c*c drops below c


def test_is_filter_and_is_ideal_basics():
    L3 = fixture("L3")
    assert is_filter(L3, {L3.index_of("m"), L3.index_of("1")})
    assert not is_filter(L3, {L3.index_of("m")})  # not up-closed
    assert not is_filter(L3, set())
    assert is_ideal(L3, {L3.index_of("0"), L3.index_of("m")})
    assert not is_ideal(L3, {L3.index_of("m")})


def test_enumeration_size_cap():
    big = fixture("L2x3cube")
    P = build_from_spec(
        {
            "kind": "lattice",
            "elements": [f"e{i}" for i in range(13)],
            "cover": [[f"e{i}", f"e{i+1}"] for i in range(12)],
        }
    )
    with pytest.raises(SizeCap):
        filters(P)
    with pytest.raises(SizeCap):
        ideals(P)
    assert big.n <= 12 and len(filters(big)) > 0


# -- filter/ideal congruences -----------------------------------------------


def test_filter_congruence_on_the_chain():
    L3 = fixture("L3")
    F = {L3.index_of("m"), L3.index_of("1")}
    assert filter_congruence(L3, F).block_string() == "0|m,1"
    assert filter_congruence(L3, {L3.index_of("1")}) == delta(L3)


def test_filter_congruence_rejects_non_filters():
    L3 = fixture("L3")
    with pytest.raises(NotAFilter):
        filter_congruence(L3, {L3.index_of("m")})


def test_ideal_congruence_rejects_non_ideals():
    L3 = fixture("L3")
    with pytest.raises(NotAnIdeal):
        ideal_congruence(L3, {L3.index_of("m")})


def test_filter_to_congruence_is_bijective_on_r0():
    R0 = fixture("R0")
    fs = filters(R0)
    cons = {filter_congruence(R0, F) for F in fs}
    cl = all_congruences(R0)
    assert len(cons) == len(fs) == len(cl)
    assert cons == set(cl.elements)
    # larger filters collapse more
    for F in fs:
        for G in fs:
            if F <= G:
                assert filter_congruence(R0, F).refines(filter_congruence(R0, G))


def test_ideal_congruence_cuts_off_the_bottom_stalk():
    A = fixture("L2osumL2x2")
    I = {A.index_of("0"), A.index_of("c")}
    th = ideal_congruence(A, I)
    assert th.block_string() == "0,c|a|b|1"
    Q = quotient(A, th).quotient
    assert find_isomorphism(Q, fixture("L2x2")) is not None
    assert not has_blp(A, th)  # the square's interior gains complements


def test_filt_and_id_blp_split_on_the_stack():
    A = fixture("L2osumL2x2")
    assert has_filt_blp(A)
    assert not has_id_blp(A)


def test_filt_and_id_blp_on_r0_follow_its_lattice_shape():
    # the bounded-lattice reduct of R0 has the same shape as L2osumL2x2,
    # so the verdicts agree with that fixture's
    R0 = fixture("R0")
    assert has_filt_blp(R0)
    assert not has_id_blp(R0)


# -- reticulation -----------------------------------------------------------


def test_reticulation_of_r0_is_its_own_lattice_shape():
    R0 = fixture("R0")
    ret = reticulation(R0)
    assert ret.n == 5
    # reticulation carries the bounds as constants; compare lattice shapes
    assert find_isomorphism(lattice_reduct(ret), fixture("L2osumL2x2")) is not None
    assert ret.labels[ret.bottom()] == "[0)"
    assert ret.labels[ret.top()] == "[1)"


def test_reticulation_of_a_chain_is_a_chain():
    G3 = godel_chain()
    ret = reticulation(G3)
    assert find_isomorphism(lattice_reduct(ret), fixture("L3")) is not None


def test_reticulation_requires_residuated_kind():
    with pytest.raises(KindError):
        reticulation(fixture("L3"))


# -- property equivalences --------------------------------------------------


def test_equivalences_on_residuated_lattices():
    for A in (fixture("R0"), godel_chain()):
        eq = blp_equivalence_check(A)
        assert eq["consistent"]
        assert eq["blp"] == eq["cblp"] == eq["fclp"] is True


def test_equivalences_on_distributive_lattices():
    for name in ("L2x2", "L2timesL3", "L2osumL2x2"):
        eq = blp_equivalence_check(fixture(name))
        assert eq["consistent"]
        assert eq["cblp"]
        assert eq["blp"] == eq["fclp"]


def test_the_stack_fails_blp_but_keeps_cblp():
    eq = blp_equivalence_check(fixture("L2osumL2x2"))
    assert not eq["blp"] and not eq["fclp"] and eq["cblp"]


def test_r0_is_arithmetical():
    from congrlab.congruences import is_arithmetical

    assert is_arithmetical(fixture("R0"))


# -- residuated chains from their t-norms --------------------------------------

T_NORMS = {
    "godel": lambda x, y, top: min(x, y),
    "lukasiewicz": lambda x, y, top: max(0, x + y - top),
    "drastic": lambda x, y, top: y if x == top else x if y == top else 0,
}


def residuated_chain(n, t_norm, name=None):
    """The chain 0 < 1 < ... < n-1 with the product t_norm and its residuum
    x → y = max{z : z·x ≤ y}, as explicit tables."""
    labels, top = [str(e) for e in range(n)], n - 1
    times = [[T_NORMS[t_norm](x, y, top) for y in range(n)] for x in range(n)]
    implies = [[max(z for z in range(n) if times[z][x] <= y) for y in range(n)] for x in range(n)]
    table = lambda f: [[labels[f(x, y)] for y in range(n)] for x in range(n)]
    return {
        "name": name or f"{t_norm}{n}",
        "kind": "residuated",
        "elements": labels,
        "operations": {
            "join": table(max),
            "meet": table(min),
            "times": table(lambda x, y: times[x][y]),
            "implies": table(lambda x, y: implies[x][y]),
        },
        "constants": {"bot": "0", "top": labels[top]},
    }


RESIDUATED_CHAINS = [(t, n) for t in T_NORMS for n in range(2, 9)]


@pytest.mark.parametrize("t_norm,n", RESIDUATED_CHAINS, ids=[f"{t}{n}" for t, n in RESIDUATED_CHAINS])
def test_residuated_chains_decide_as_the_oracles_do(t_norm, n):
    from test_join_irreducible_masks import (
        bitset_normality,
        images_algebra_cblp,
        images_unliftable,
        normality_loops,
    )

    A = build_from_spec(residuated_chain(n, t_norm))  # the build checks residuation
    cl = all_congruences(A)
    for t in range(len(cl)):
        assert lifting._lifting(cl, t, False)[1] == images_unliftable(cl, t), t
    assert algebra_cblp(A) == images_algebra_cblp(A)
    fcn = bitset_normality(cl, factor_congruences(cl), cl.composes_to_nabla)
    bn = bitset_normality(cl, boolean_center(cl), lambda i, j: True)
    assert (is_fc_normal(A), is_b_normal(A)) == (fcn, bn) == normality_loops(A)
    assert blp_equivalence_check(A)["consistent"]


def test_a_residuated_spec_over_the_cap_exits_2(tmp_path, capsys):
    from congrlab.algebra import RESIDUATED_CAP
    from congrlab.cli import main

    path = tmp_path / "godel.json"
    path.write_text(json.dumps(residuated_chain(RESIDUATED_CAP + 1, "godel")))
    assert main(["con", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: residuated carrier size {RESIDUATED_CAP + 1} exceeds cap {RESIDUATED_CAP}\n"
