"""FCLP/CBLP decided on Con(A) alone, cross-checked against quotients.

The library decides both lifting properties inside Con(A), through the
correspondence theorem Con(A/θ) ≅ [θ, ∇].  The quotient-based decision it
replaced is kept here as the oracle: build A/θ, enumerate Con(A/θ), and map
every source congruence through u_map.
"""

import json
from pathlib import Path

import pytest

from congrlab import lifting
from congrlab.congruences import all_congruences
from congrlab.factor import boolean_center, factor_congruences
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.lifting import (
    LiftEvidence,
    algebra_cblp,
    algebra_fclp,
    has_cblp,
    has_fclp,
    lifting_report,
    quotient,
    u_map,
)
from sweep import sweep

REPO_GOLDENS = Path(__file__).resolve().parent.parent / "goldens"


def quotient_has_lifting(A, theta, members_of):
    """The quotient-based decision of has_fclp / has_cblp."""
    Q = quotient(A, theta)
    src = members_of(all_congruences(A)).congruences()
    tgt = members_of(all_congruences(Q.quotient)).congruences()
    images = {alpha: u_map(A, theta, alpha) for alpha in src}
    ev = LiftEvidence()
    for beta in tgt:
        hit = next((a for a in src if images[a] == beta), None)
        if hit is None:
            ev.unliftable = beta.block_string()
            return False, ev
        ev.witnesses.append((beta.block_string(), hit.block_string()))
    return True, ev


def quotient_columns(A, theta):
    clq = all_congruences(quotient(A, theta).quotient)
    return {
        "quotient_size": clq.algebra.n,
        "quotient_con_size": len(clq),
        "quotient_center_size": len(boolean_center(clq).members),
        "quotient_fc_size": len(factor_congruences(clq).members),
    }


def assert_matches_oracle(A):
    rows = lifting_report(A).per_congruence
    for theta, row in zip(all_congruences(A).elements, rows):
        for decide, members_of in ((has_fclp, factor_congruences), (has_cblp, boolean_center)):
            ok, ev = decide(A, theta)
            want_ok, want_ev = quotient_has_lifting(A, theta, members_of)
            where = (A.name, theta.block_string(), decide.__name__)
            assert ok == want_ok, where
            assert ev.unliftable == want_ev.unliftable, where
            assert ev.witnesses == want_ev.witnesses, where
        want = quotient_columns(A, theta)
        assert {k: row[k] for k in want} == want


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_interval_lifting_matches_quotients_on_fixtures(name):
    assert_matches_oracle(fixture(name))


def test_interval_lifting_matches_quotients_on_the_sweep():
    lattices = sweep()
    assert len(lattices) == 225
    for L in lattices:
        assert_matches_oracle(L)


def test_interval_center_is_the_quotient_center_in_the_same_order():
    A = fixture("L2timesL3")
    cl = all_congruences(A)
    for t, theta in enumerate(cl.elements):
        clq = all_congruences(quotient(A, theta).quotient)
        for scan in (boolean_center, factor_congruences):
            got = [cl.elements[i].block_string(over=theta) for i in scan(cl, t).members]
            assert got == [c.block_string() for c in scan(clq).congruences()]


@pytest.mark.parametrize("name", ["P", "X", "H", "L2timesL3"])
def test_lifting_builds_no_quotient(name, monkeypatch):
    A = fixture(name)
    thetas = all_congruences(A).elements
    want = {
        "fclp": [quotient_has_lifting(A, th, factor_congruences) for th in thetas],
        "cblp": [quotient_has_lifting(A, th, boolean_center) for th in thetas],
    }
    golden = json.loads((REPO_GOLDENS / f"{name}.report.json").read_text())

    def no_quotient(*args, **kwargs):
        raise AssertionError("a quotient was built")

    monkeypatch.setattr(lifting, "quotient", no_quotient)
    for prop, decide, algebra_level in (
        ("fclp", has_fclp, algebra_fclp),
        ("cblp", has_cblp, algebra_cblp),
    ):
        got = [decide(A, th) for th in thetas]
        assert [(ok, ev.unliftable, ev.witnesses) for ok, ev in got] == [
            (ok, ev.unliftable, ev.witnesses) for ok, ev in want[prop]
        ]
        first_bad = next((i for i, (ok, _) in enumerate(got) if not ok), None)
        ok, ev, theta = algebra_level(A)
        if first_bad is None:
            assert (ok, ev, theta) == (True, None, None)
        else:
            assert not ok and theta == thetas[first_bad]
            assert ev.unliftable == got[first_bad][1].unliftable
    rep = lifting_report(A, name=name)
    assert rep.flags == golden["flags"]
    assert rep.per_congruence == golden["per_congruence"]
