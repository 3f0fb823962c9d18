"""Acceptance gate: one test per shipped guarantee, each printing a PASS
line on success (run with -s or look at captured output on failure)."""

import random
from functools import reduce
from itertools import combinations

import pytest

from congrlab.algebra import direct_product, dual, find_isomorphism
from congrlab.congruences import (
    all_congruences,
    brute_force_congruences,
    compose,
    delta,
    join,
    maximal_congruences,
    nabla,
    parse_congruence,
    permutes,
    principal_congruence,
    prime_congruences,
)
from congrlab.errors import TrivialAlgebra
from congrlab.factor import (
    boolean_center,
    crt_characterization,
    crt_direct_check,
    factor_congruences,
    osum_con_iso_check,
    osum_fc_comparison,
    product_con_iso_check,
)
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.lifting import (
    algebra_cblp,
    algebra_fclp,
    has_cblp,
    has_fclp,
    is_b_normal,
    is_fc_normal,
    quotient,
    u_map,
)
from congrlab.report import build_report, summary_counts
from congrlab.residuated import (
    algebra_blp,
    blp_equivalence_check,
    filter_congruence,
    filters,
    principal_filter,
    reticulation,
)

from oracles import maximal_filters
from sweep import random_lattices, small_lattices, sweep

EXPECTED_COUNTS = {
    "L1": (1, 1, 1),
    "L2": (2, 2, 2),
    "L3": (4, 4, 2),
    "L2x2": (4, 4, 4),
    "L2x3cube": (8, 8, 8),
    "L2timesL3": (8, 8, 4),
    "D": (2, 2, 2),
    "P": (5, 2, 2),
    "S": (4, 4, 2),
    "R": (8, 8, 2),
    "T": (8, 8, 2),
    "E": (3, 2, 2),
    "X": (8, 8, 2),
    "H": (5, 2, 2),
    "R0": (5, 2, 2),
    "L2osumL2x2": (8, 8, 2),
}

# (fclp, cblp) per fixture, with the first failing congruence where applicable
EXPECTED_VERDICTS = {
    "L1": (True, True),
    "L2": (True, True),
    "L3": (True, True),
    "L2x2": (True, True),
    "L2x3cube": (True, True),
    "L2timesL3": (True, True),
    "D": (True, True),
    "P": (False, False),
    "S": (True, True),
    "R": (True, True),
    "T": (True, True),
    "E": (True, True),
    "X": (False, True),
    "H": (True, False),
    "L2osumL2x2": (False, True),
    "R0": (True, True),
}

DISTRIBUTIVE_FIXTURES = (
    "L1",
    "L2",
    "L3",
    "L2x2",
    "L2x3cube",
    "L2timesL3",
    "L2osumL2x2",
    "R0",
)


def test_criterion_1_fixture_congruence_structure():
    """Congruence lattice, Boolean center, and factor congruences of every
    fixture match the recorded counts and the hand-checked partitions."""
    for name, expect in EXPECTED_COUNTS.items():
        assert summary_counts(fixture(name)) == expect, name

    # spot-check the named partitions
    L3 = fixture("L3")
    cl = all_congruences(L3)
    assert {t.block_string() for t in cl.elements} == {
        "0|m|1",
        "0,m|1",
        "0|m,1",
        "0,m,1",
    }
    P = fixture("P")
    assert {t.block_string() for t in all_congruences(P).elements} == {
        "0|x|y|z|1",
        "0,y,z|x,1",
        "0,x|y,z,1",
        "0|x|y,z|1",
        "0,x,y,z,1",
    }
    A = fixture("L2timesL3")
    fc = factor_congruences(all_congruences(A))
    assert {c.block_string() for c in fc.congruences()} == {
        "0|p|q|r|s|1",
        "0,q,s|p,r,1",
        "0,p|q,r|s,1",
        "0,p,q,r,s,1",
    }
    X = fixture("X")
    clx = all_congruences(X)
    assert len(boolean_center(clx).members) == 8
    assert {c.block_string() for c in factor_congruences(clx).congruences()} == {
        "0|p|q|r|s|t|u|1",
        "0,p,q,r,s,t,u,1",
    }
    print("PASS: criterion 1 — fixture congruence structure matches recorded values")


def test_criterion_2_lifting_verdicts():
    """FCLP/CBLP verdicts per fixture, the exact failing congruences, and
    CBLP on every bounded distributive fixture."""
    for name, (exp_f, exp_c) in EXPECTED_VERDICTS.items():
        A = fixture(name)
        assert algebra_fclp(A)[0] == exp_f, name
        assert algebra_cblp(A)[0] == exp_c, name
    assert algebra_fclp(fixture("P"))[2].block_string() == "0|x|y,z|1"
    assert algebra_cblp(fixture("P"))[2].block_string() == "0|x|y,z|1"
    assert algebra_fclp(fixture("X"))[2].block_string() == "0|p|q|r,s,t,u,1"
    assert algebra_cblp(fixture("H"))[2].block_string() == "0|a|b|c|y,z|x|1"
    for name in DISTRIBUTIVE_FIXTURES:
        assert algebra_cblp(fixture(name))[0], name
    print("PASS: criterion 2 — lifting verdicts and failing congruences match")


def test_criterion_3_product_congruence_transport():
    """Con(T x E) decomposes componentwise: 24 congruences, 16 in the
    center, 4 factor congruences, and the tuple map is an isomorphism."""
    T, E = fixture("T"), fixture("E")
    P = direct_product([T, E])
    assert summary_counts(P) == (24, 16, 4)
    assert product_con_iso_check([T, E], P=P)
    print("PASS: criterion 3 — product congruence transport verified on T x E")


def test_criterion_4_residuated_suite():
    """The residuated fixture: filters, reticulation, and the equivalence of
    BLP, CBLP, and FCLP."""
    R0 = fixture("R0")
    fs = filters(R0)
    assert len(fs) == 5
    assert all(F == principal_filter(R0, reduce(lambda a, b: R0.op("meet", a, b), F)) for F in fs)
    maxes = maximal_filters(R0)
    assert len(maxes) == 1
    assert {R0.labels[e] for e in maxes[0]} == {"a", "b", "c", "1"}
    # filters correspond exactly to congruences
    cl = all_congruences(R0)
    assert {filter_congruence(R0, F) for F in fs} == set(cl.elements)
    # reticulation reproduces the underlying lattice shape
    from congrlab.algebra import lattice_reduct

    assert find_isomorphism(lattice_reduct(reticulation(R0)), fixture("L2osumL2x2")) is not None
    eq = blp_equivalence_check(R0)
    assert eq["consistent"] and eq["blp"] and eq["cblp"] and eq["fclp"]
    # the bounded distributive counterexample separates BLP from CBLP
    eq2 = blp_equivalence_check(fixture("L2osumL2x2"))
    assert eq2["consistent"] and not eq2["blp"] and eq2["cblp"] and not eq2["fclp"]
    print("PASS: criterion 4 — residuated suite (filters, reticulation, BLP equivalences)")


def test_criterion_5_enumeration_matches_the_oracle():
    """The cover-pair enumeration of Con agrees with the exhaustive
    partition oracle on every lattice of the sweep (25 enumerated + 200
    seeded random lattices), and principal congruences are minimal."""
    rng = random.Random(20240817)
    population = sweep()
    assert len(population) == 225
    for L in population:
        fast = all_congruences(L).elements
        slow = brute_force_congruences(L)
        assert fast == slow, L.name
        # principal congruences are the least congruences containing the pair
        for _ in range(3):
            a, b = rng.randrange(L.n), rng.randrange(L.n)
            th = principal_congruence(L, a, b)
            assert th.contains(a, b)
            for c in slow:
                if c.contains(a, b):
                    assert th.refines(c)
    print(f"PASS: criterion 5 — enumeration matches the oracle on {len(population)} lattices")


def test_criterion_6_structural_theorems_hold_on_the_sweep():
    """Structural facts validated over the sweep: normality conditions are
    equivalent to the lifting properties, special congruences always lift,
    congruence transport respects centers, and the two simultaneous-
    solvability tests agree."""
    small = small_lattices()
    for L in sweep():
        cl = all_congruences(L)
        fclp = algebra_fclp(L)[0]
        cblp = algebra_cblp(L)[0]
        assert is_fc_normal(L)[0] == fclp, L.name
        assert is_b_normal(L)[0] == cblp, L.name
        # bounds always lift
        assert has_fclp(L, delta(L))[0] and has_cblp(L, delta(L))[0]
        assert has_fclp(L, nabla(L))[0] and has_cblp(L, nabla(L))[0]
        # maximal and prime congruences always lift
        try:
            special = maximal_congruences(L)
        except TrivialAlgebra:
            special = []
        special += prime_congruences(L) if L.n > 1 else []
        for th in special:
            assert has_fclp(L, th)[0] and has_cblp(L, th)[0], L.name
        # the two simultaneous-solvability tests agree on the factor family
        fam = factor_congruences(cl).congruences()
        assert crt_characterization(L, fam)
        assert crt_direct_check(L, fam, k_max=2)[0]
        # factor congruences pairwise permute and complements compose fully
        fc = factor_congruences(cl)
        for i in fc.members:
            j = fc.complement[i]
            assert permutes(cl.elements[i], cl.elements[j])
            assert compose(cl.elements[i], cl.elements[j]).is_full()

    for L in small:
        # lifting properties are self-dual for lattices
        D = dual(L)
        assert algebra_fclp(D)[0] == algebra_fclp(L)[0]
        assert algebra_cblp(D)[0] == algebra_cblp(L)[0]
        # congruence transport sends centers into centers, factor congruences
        # into factor congruences
        cl = all_congruences(L)
        for th in cl.elements:
            Q = quotient(L, th)
            clq = all_congruences(Q.quotient)
            bcq = set(boolean_center(clq).members)
            fcq = set(factor_congruences(clq).members)
            for i in boolean_center(cl).members:
                assert clq.index(u_map(L, th, cl.elements[i])) in bcq
            for i in factor_congruences(cl).members:
                assert clq.index(u_map(L, th, cl.elements[i])) in fcq
        # characterization agrees with the direct check on the full family
        if len(cl) <= 12:
            fam = cl.elements
            assert crt_characterization(L, fam) == crt_direct_check(L, fam, k_max=3)[0]

    # the product has a property iff every factor does (small fixture pairs)
    pairs = [
        ("L3", "L3"),
        ("P", "L2"),
        ("P", "L3"),
        ("D", "L3"),
        ("S", "L2"),
        ("L2x2", "L2x2"),
        ("H", "L2"),
        ("X", "L2"),
    ]
    for a, b in pairs:
        A, B = fixture(a), fixture(b)
        P = direct_product([A, B])
        assert algebra_fclp(P)[0] == (algebra_fclp(A)[0] and algebra_fclp(B)[0]), (a, b)
        assert algebra_cblp(P)[0] == (algebra_cblp(A)[0] and algebra_cblp(B)[0]), (a, b)
    print("PASS: criterion 6 — structural theorems hold across the sweep")


def test_criterion_7_ordinal_sum_divergence():
    """Congruences of an ordinal sum are exactly the glued pairs, and the
    gluing matches Boolean centers — but factor congruences genuinely
    diverge, exhibited on the square-under-diamond sum."""
    L2x2, D = fixture("L2x2"), fixture("D")
    assert osum_con_iso_check(L2x2, D)
    cmp_ = osum_fc_comparison(L2x2, D)
    assert cmp_["glued_count"] == 8
    assert cmp_["fc_count"] == 2
    assert not cmp_["glued_equals_fc"]
    # the divergence also appears in the shipped report for the X fixture
    doc = build_report(fixture("X"), name="X")
    t = doc["osum_fc_transport"]
    assert t["glued_count"] == 8 and t["fc_count"] == 2 and not t["glued_equals_fc"]
    print("PASS: criterion 7 — ordinal-sum factor-congruence divergence exhibited")


def test_criterion_8_scale_limits_are_enforced(tmp_path, monkeypatch, capsys):
    """Every documented size cap actually raises instead of silently
    degrading, and brute-force oracles refuse inputs they cannot certify."""
    import json

    import congrlab.algebra as algebra
    import congrlab.congruences as congruences
    import congrlab.factor as factor
    import congrlab.residuated as residuated
    from congrlab.cli import main
    from congrlab.errors import SizeCap

    # C16 has 2^15 congruences, past CON_CAP; the down-sets of J(Con C16)
    # are counted first, so no partition is built
    assert congruences.CON_CAP == 20000
    c16 = tmp_path / "C16.json"
    c16.write_text(json.dumps({
        "name": "C16",
        "kind": "lattice",
        "elements": [f"e{i}" for i in range(16)],
        "cover": [[f"e{i}", f"e{i+1}"] for i in range(15)],
    }))

    def no_partition(*args):
        raise AssertionError("a partition was built past the cap")

    monkeypatch.setattr(congruences, "merge_pairs", no_partition)
    capsys.readouterr()
    assert main(["con", "--file", str(c16)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: congruence count exceeds cap 20000\n"

    assert congruences.BRUTE_FORCE_CAP <= 9
    big_chain = {
        "kind": "lattice",
        "elements": [f"e{i}" for i in range(10)],
        "cover": [[f"e{i}", f"e{i+1}"] for i in range(9)],
    }
    L10 = algebra.build_from_spec(big_chain)
    with pytest.raises(SizeCap):
        congruences.brute_force_congruences(L10)
    with pytest.raises(SizeCap):
        residuated.filters(
            algebra.build_from_spec(
                {
                    "kind": "lattice",
                    "elements": [f"e{i}" for i in range(13)],
                    "cover": [[f"e{i}", f"e{i+1}"] for i in range(12)],
                }
            )
        )
    with pytest.raises(SizeCap):
        factor.crt_direct_check(fixture("L3"), all_congruences(fixture("L3")).elements, k_max=9)
    with pytest.raises(SizeCap):
        algebra.direct_product([fixture("L2x3cube")] * 5)
    print("PASS: criterion 8 — size caps are enforced, oracles refuse uncertifiable inputs")
