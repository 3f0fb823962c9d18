from pathlib import Path

import pytest

from congrlab.algebra import direct_product, dual, find_isomorphism, ordinal_sum
from congrlab.congruences import Congruence, all_congruences, delta, nabla, parse_congruence
from congrlab.errors import NotDistributive, ParentMismatch
from congrlab.factor import boolean_center, factor_congruences
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.lifting import (
    algebra_cblp,
    algebra_fclp,
    has_cblp,
    has_fclp,
    is_b_normal,
    is_fc_normal,
    lifting_report,
    quotient,
    s_inverse,
    u_map,
)

from sweep import sweep
from test_distributive_lattices import residuated_inputs
from test_join_irreducible_masks import random_generic_algebras
from test_partition_join import chain


# -- quotients --------------------------------------------------------------


def test_quotient_of_s_by_the_bottom_collapse_is_the_diamond():
    S = fixture("S")
    s1 = parse_congruence(S, "0|a|b|c|x,1")
    Q = quotient(S, s1)
    assert Q.quotient.n == 5
    assert find_isomorphism(Q.quotient, fixture("D")) is not None


def small_generic_algebras():
    """Algebras with operations of arity 0 to 4."""
    from test_congruences import middle_algebra, pointed_algebra, quaternary_algebra

    return [pointed_algebra(), middle_algebra(), quaternary_algebra()]


def induced_table(A, theta, fname, arity):
    """A/θ's table one entry at a time: each tuple of block
    representatives, sent to the block index of its value."""
    reps = sorted(set(theta.block_of))
    index = {r: i for i, r in enumerate(reps)}

    def build(args):
        if len(args) == arity:
            return index[theta.block_of[A.op(fname, *args)]]
        return tuple(build(args + [r]) for r in reps)

    return build([])


def test_quotient_by_the_diagonal_is_the_algebra_itself():
    small = small_generic_algebras()
    for A in [fixture(name) for name in ("L3", "P", "R0")] + small + [direct_product([A, A]) for A in small]:
        assert quotient(A, delta(A)).quotient == A


def test_quotient_tables_are_the_induced_operations():
    # one non-trivial θ on each: the first of A's own, where it has one, and
    # the kernel of the first projection on A×A, which leaves A itself
    seen = set()
    for A in small_generic_algebras():
        cases = [(A, th) for th in all_congruences(A).elements if not th.is_delta() and not th.is_nabla()][:1]
        square = direct_product([A, A])
        first = Congruence(square, [e - e % A.n for e in range(square.n)], check=True)
        cases.append((square, first))
        for B, theta in cases:
            Q = quotient(B, theta).quotient
            reps = sorted(set(theta.block_of))
            assert Q.labels == tuple("+".join(B.labels[e] for e in range(B.n) if theta.block_of[e] == r) for r in reps)
            for f, arity in B.signature.operations:
                assert Q.tables[f] == induced_table(B, theta, f, arity), (B.name, theta, f)
                seen.add(arity)
        assert quotient(square, first).quotient.tables == A.tables
    assert seen == {0, 1, 2, 3, 4}


def test_quotient_by_the_full_congruence_is_trivial():
    A = fixture("X")
    assert quotient(A, nabla(A)).quotient.n == 1


def test_quotient_labels_join_block_members():
    L3 = fixture("L3")
    Q = quotient(L3, parse_congruence(L3, "0,m|1"))
    assert set(Q.quotient.labels) == {"0+m", "1"}


def test_quotient_of_pentagon_by_its_radical():
    P = fixture("P")
    gamma = parse_congruence(P, "0|x|y,z|1")
    Q = quotient(P, gamma)
    assert Q.quotient.n == 4
    assert find_isomorphism(Q.quotient, fixture("L2x2")) is not None


def test_quotient_projection_is_a_morphism():
    S = fixture("S")
    for th in all_congruences(S).elements:
        Q = quotient(S, th)
        for a in range(S.n):
            for b in range(S.n):
                for op in ("join", "meet"):
                    assert Q.project(S.op(op, a, b)) == Q.quotient.op(
                        op, Q.project(a), Q.project(b)
                    )


def test_quotient_rejects_foreign_congruence():
    with pytest.raises(ParentMismatch):
        quotient(fixture("L3"), delta(fixture("P")))


def test_quotient_of_t_is_the_dual_chain_stack():
    T = fixture("T")
    tau6 = parse_congruence(T, "0|z|a|b|c|x,1")
    Q = quotient(T, tau6)
    assert find_isomorphism(Q.quotient, dual(fixture("S"))) is not None


# -- congruence transport ---------------------------------------------------


def test_u_map_of_delta_is_delta():
    for name in ("P", "S", "H"):
        A = fixture(name)
        for th in all_congruences(A).elements:
            assert u_map(A, th, delta(A)).is_delta()
            assert u_map(A, th, nabla(A)).is_nabla()


def test_u_map_yields_the_surviving_center_on_h():
    H = fixture("H")
    chi3 = parse_congruence(H, "0|a|b|c|y,z|x|1")
    chi1 = parse_congruence(H, "0,a,b,c,y,z|x,1")
    Q = quotient(H, chi3)
    nu = u_map(H, chi3, chi1)
    assert nu.block_string() == "0,a,b,c,y+z|x,1"
    clq = all_congruences(Q.quotient)
    assert clq.index(nu) in boolean_center(clq).members


def test_s_inverse_is_inverse_on_the_congruences_above_theta():
    for name in ("P", "S", "X"):
        A = fixture(name)
        cl = all_congruences(A)
        for th in cl.elements:
            Q = quotient(A, th)
            clq = all_congruences(Q.quotient)
            above = [a for a in cl.elements if th.refines(a)]
            assert len(above) == len(clq)
            for beta in clq.elements:
                pulled = s_inverse(A, th, beta)
                assert th.refines(pulled)
                assert u_map(A, th, pulled) == beta


def test_u_map_sends_center_into_center_and_fc_into_fc():
    for name in ("L3", "P", "S", "X", "H", "L2timesL3"):
        A = fixture(name)
        cl = all_congruences(A)
        bc = boolean_center(cl)
        fc = factor_congruences(cl)
        for th in cl.elements:
            Q = quotient(A, th)
            clq = all_congruences(Q.quotient)
            bcq = set(boolean_center(clq).members)
            fcq = set(factor_congruences(clq).members)
            for i in bc.members:
                assert clq.index(u_map(A, th, cl.elements[i])) in bcq
            for i in fc.members:
                assert clq.index(u_map(A, th, cl.elements[i])) in fcq


# -- lifting properties, per congruence -------------------------------------


def test_bounds_always_lift():
    for name in ("P", "X", "H"):
        A = fixture(name)
        for th in (delta(A), nabla(A)):
            assert has_fclp(A, th)[0]
            assert has_cblp(A, th)[0]


def test_pentagon_fails_both_at_its_radical():
    P = fixture("P")
    gamma = parse_congruence(P, "0|x|y,z|1")
    ok_f, ev_f = has_fclp(P, gamma)
    ok_c, ev_c = has_cblp(P, gamma)
    assert not ok_f and not ok_c
    assert ev_f.unliftable is not None
    assert ev_c.unliftable is not None


def test_x_fails_fclp_but_not_cblp_at_xi4():
    X = fixture("X")
    xi4 = parse_congruence(X, "0|p|q|r,s,t,u,1")
    assert not has_fclp(X, xi4)[0]
    assert has_cblp(X, xi4)[0]


def test_h_fails_cblp_but_not_fclp_at_chi3():
    H = fixture("H")
    chi3 = parse_congruence(H, "0|a|b|c|y,z|x|1")
    assert has_fclp(H, chi3)[0]
    ok, ev = has_cblp(H, chi3)
    assert not ok and ev.unliftable is not None


def test_successful_lift_reports_witnesses():
    A = fixture("L2timesL3")
    lam = parse_congruence(A, "0,q,s|p,r,1")
    ok, ev = has_fclp(A, lam)
    assert ok
    assert len(ev.witnesses) == 2  # quotient ~ L2 has two factor congruences


# -- lifting properties, algebra level --------------------------------------

VERDICTS = {
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


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_algebra_level_verdicts(name):
    A = fixture(name)
    exp_fclp, exp_cblp = VERDICTS[name]
    got_fclp, _, fail_f = algebra_fclp(A)
    got_cblp, _, fail_c = algebra_cblp(A)
    assert got_fclp == exp_fclp
    assert got_cblp == exp_cblp
    if not exp_fclp:
        assert fail_f is not None
    if not exp_cblp:
        assert fail_c is not None


def test_failing_congruences_are_the_expected_ones():
    assert algebra_fclp(fixture("P"))[2].block_string() == "0|x|y,z|1"
    assert algebra_fclp(fixture("X"))[2].block_string() == "0|p|q|r,s,t,u,1"
    assert algebra_cblp(fixture("H"))[2].block_string() == "0|a|b|c|y,z|x|1"


# -- normality conditions ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_normality_matches_lifting(name):
    A = fixture(name)
    assert is_fc_normal(A)[0] == VERDICTS[name][0]
    assert is_b_normal(A)[0] == VERDICTS[name][1]


def test_normality_failures_name_a_pair():
    ok, pair = is_fc_normal(fixture("X"))
    assert not ok and len(pair) == 2
    ok, pair = is_b_normal(fixture("P"))
    assert not ok and len(pair) == 2


def test_normality_trivial_cases():
    assert is_fc_normal(fixture("L1"))[0]
    assert is_b_normal(fixture("L1"))[0]


# -- structural theorems ----------------------------------------------------


def assert_special_congruences_lift(A):
    """Maximal and prime congruences have both lifting properties, and a
    unique maximal congruence forces both algebra-wide: read off the
    report's rows and flags, and the algebra-wide verdicts checked too."""
    report = lifting_report(A)
    for row in report.per_congruence:
        if row["maximal"] or row["prime"]:
            assert row["fclp"] and row["cblp"], (A.name, row["congruence"])
    flags = report.flags
    if flags["local"]:
        assert flags["fclp"] and flags["cblp"], A.name
        assert algebra_fclp(A)[0] and algebra_cblp(A)[0], A.name


def test_special_congruences_always_lift():
    for name in ("L1", "P", "D", "X", "H"):
        assert_special_congruences_lift(fixture(name))


def test_special_congruences_always_lift_on_the_sweep_and_beyond():
    # the sweep, P, H and X with a 2-, 4- and 6-chain on top, the random
    # generic algebras and the residuated inputs; those whose Con is not
    # distributive have no center, and their count is pinned so that the
    # population cannot shrink unseen
    sums = [ordinal_sum(fixture(b), chain(k), name=f"{b}+C{k}") for b in "PHX" for k in (2, 4, 6)]
    algebras = sweep() + sums + random_generic_algebras() + residuated_inputs()
    checked = skipped = 0
    for A in algebras:
        try:
            assert_special_congruences_lift(A)
        except NotDistributive:
            skipped += 1
            continue
        checked += 1
    assert (len(algebras), checked, skipped) == (425, 407, 18)


def test_arithmetical_algebras_have_matching_per_congruence_verdicts():
    for name in ("E", "R0"):
        A = fixture(name)
        for th in all_congruences(A).elements:
            assert has_fclp(A, th)[0] == has_cblp(A, th)[0]


def test_lifting_is_dual_invariant_on_lattices():
    for name in ("P", "S", "X", "H"):
        A = fixture(name)
        B = dual(A)
        assert algebra_fclp(A)[0] == algebra_fclp(B)[0]
        assert algebra_cblp(A)[0] == algebra_cblp(B)[0]


def test_lifting_passes_to_quotients_on_t():
    T = fixture("T")
    assert algebra_fclp(T)[0]
    for th in all_congruences(T).elements:
        Q = quotient(T, th).quotient
        assert algebra_fclp(Q)[0]
        assert algebra_cblp(Q)[0]


# -- report assembly --------------------------------------------------------


def test_lifting_report_structure():
    rep = lifting_report(fixture("H"), name="H")
    assert rep.algebra_name == "H"
    assert rep.flags["con_size"] == 5
    assert rep.flags["center_size"] == 2
    assert rep.flags["fc_size"] == 2
    assert rep.flags["fclp"] and not rep.flags["cblp"]
    assert len(rep.per_congruence) == 5
    bad = [r for r in rep.per_congruence if not r["cblp"]]
    assert len(bad) == 1
    assert bad[0]["congruence"] == "0|a|b|c|y,z|x|1"
    assert bad[0]["cblp_unliftable"] is not None


def test_lifting_report_counts_quotient_structure():
    rep = lifting_report(fixture("L3"))
    full = [r for r in rep.per_congruence if r["blocks"] == 1][0]
    assert full["quotient_size"] == 1
    assert full["quotient_con_size"] == 1


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    scope = {}
    exec(code, scope)
    assert scope["boolean_center"] is boolean_center
    assert scope["factor_congruences"] is factor_congruences
    assert scope["ok"] is False and scope["theta"].block_string() == "0|x|y,z|1"
