"""fc-normality, b-normality and BLP decided by their criteria, against the
walks that now run only on a failure.

is_b_normal holds iff every component of J(Con A) has a greatest element
(lifting module doc, 3).  On a distributive pure lattice L, is_fc_normal and
algebra_blp hold iff every component of P = J(L) is a chain (lifting module
doc, 6f; residuated module doc, f), and has_blp at θ is the trace test of
the factor lifting.  The walks are the oracles: the maximal-pair walk of
fc-normality, the per-φ loop of b-normality and the walk of the full class
scan (`oracles.scan_blp`) over every θ, each run in full on every algebra
here.
"""

import pytest

from congrlab import lifting, residuated
from congrlab.algebra import build_from_spec, ordinal_sum
from congrlab.congruences import all_congruences
from congrlab.errors import AmbiguousComplement, NotDistributive
from congrlab.factor import jspace
from congrlab.fixtures import fixture
from congrlab.lifting import is_b_normal, is_fc_normal

from oracles import join_irreducible_pairs, scan_blp, scan_blp_walk
from test_distributive_lattices import boolean_spec
from test_join_irreducible_masks import cold, mask_algebras, random_generic_algebras
from test_partition_join import chain, count_calls
from test_residuated import RESIDUATED_CHAINS, residuated_chain


def criteria_algebras():
    """mask_algebras() (the fixtures, their generic copies, the sweep and
    V4), the random generic algebras with a distributive Con, the residuated
    chains with n ≤ 8, P⊕C2 to P⊕C6, C2 to C12 and L2^1 to L2^6."""
    generic = [A for A in random_generic_algebras() if all_congruences(A).is_distributive()]
    return (
        mask_algebras()
        + generic
        + [build_from_spec(residuated_chain(n, t)) for t, n in RESIDUATED_CHAINS]
        + [ordinal_sum(fixture("P"), chain(k)) for k in range(2, 7)]
        + [chain(n) for n in range(2, 13)]
        + [build_from_spec(boolean_spec(k)) for k in range(1, 7)]
    )


def outcome(decide, A):
    """The verdict with its evidence, or the name of the error raised."""
    try:
        return decide(A)
    except (NotDistributive, AmbiguousComplement) as exc:
        return type(exc).__name__


def verdict(got):
    return got if isinstance(got, str) else got[0]


def test_normality_criteria_give_the_walks_verdicts_and_evidence():
    verdicts, read_off_p = set(), 0
    for A in map(cold, criteria_algebras()):
        fcn = outcome(lambda A: lifting._fc_normal_walk(all_congruences(A)), A)
        bn = outcome(lambda A: lifting._b_normal_walk(all_congruences(A)), A)
        assert (outcome(is_fc_normal, A), outcome(is_b_normal, A)) == (fcn, bn), A.name
        verdicts.add((verdict(fcn), verdict(bn)))
        read_off_p += jspace(A).p_order is not None
    assert verdicts == {(v, w) for v in (True, False) for w in (True, False)} | {("NotDistributive",) * 2}
    assert read_off_p > 50


def test_blp_criterion_gives_the_walks_verdict_and_evidence():
    verdicts, thetas = set(), 0
    for A in map(cold, criteria_algebras()):
        if not A.is_lattice:
            continue
        want = outcome(scan_blp_walk, A)
        assert outcome(residuated.algebra_blp, A) == want, A.name
        verdicts.add(verdict(want))
        if jspace(A).p_order is not None:
            # has_blp reads the trace test at each θ of a distributive pure lattice
            for theta in all_congruences(A).elements:
                assert residuated.has_blp(A, theta) == scan_blp(A, theta)
                thetas += 1
    assert verdicts == {True, False, "AmbiguousComplement"} and thetas > 5000


@pytest.mark.parametrize(
    "build",
    [lambda: chain(9), lambda: build_from_spec(boolean_spec(3)), lambda: fixture("L2timesL3")],
    ids=["C9", "L2^3", "L2timesL3"],
)
def test_a_distributive_lattice_walks_no_theta_where_the_criteria_hold(build, monkeypatch):
    A = cold(build())
    counts = count_calls(monkeypatch, lifting, ["_joins_to_nabla", "_b_normal_walk"])
    blp_counts = count_calls(monkeypatch, residuated, ["has_blp", "_complements"])
    assert is_fc_normal(A) == is_b_normal(A) == (True, None)
    assert residuated.algebra_blp(A) == (True, None)
    assert residuated.has_filt_blp(A) and residuated.has_id_blp(A)
    assert blp_counts == {"has_blp": 0, "_complements": 0}
    # and has_blp at each θ is the trace test, with no class scanned
    assert all(residuated.has_blp(A, theta) for theta in all_congruences(A).elements)
    assert counts == {"_joins_to_nabla": 0, "_b_normal_walk": 0} and blp_counts["_complements"] == 0


def test_b_normality_enters_no_loop_where_every_component_is_topped(monkeypatch):
    counts = count_calls(monkeypatch, lifting, ["_b_normal_walk"])
    topped = 0
    for A in map(cold, criteria_algebras()):
        cl = all_congruences(A)
        if cl.is_distributive() and jspace(A).tops is not None:
            assert is_b_normal(A) == (True, None), A.name
            topped += 1
    assert counts == {"_b_normal_walk": 0} and topped > 100


def test_the_generators_of_a_distributive_lattice_are_its_join_irreducibles():
    # P = J(L) is read off L in the order of the generators of Con(L)
    # (lifting module doc, 6a)
    checked = 0
    for A in map(cold, criteria_algebras()):
        if jspace(A).p_order is not None:
            cl = all_congruences(A)
            assert cl.seeds == tuple(join_irreducible_pairs(A)), A.name
            assert len(cl) == 1 << len(cl.seeds), A.name
            checked += 1
    assert checked > 50
