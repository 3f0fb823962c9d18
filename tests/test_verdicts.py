"""Each check's verdict at the call, and its evidence on the first read.

algebra_fclp, algebra_cblp, is_fc_normal, is_b_normal and
residuated.algebra_blp return a Verdict.  Its index 0 is decided when the
check is called, with Con(A) enumerated only where no criterion decides.
The rest of the tuple is computed when it is first read.  The oracles are
the checks that built the evidence together with the verdict: the criterion
first, then the walk over Con(A) for the first failure.  fc-normality takes
FCLP's verdict (lifting module doc, 4), and its oracle is the walk over the
pairs, with no criterion.
"""

import pytest

from congrlab import lifting, residuated
from congrlab.algebra import build_from_spec
from congrlab.congruences import all_congruences
from congrlab.errors import SizeCap
from congrlab.factor import jspace
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.lifting import Verdict, algebra_cblp, algebra_fclp, is_b_normal, is_fc_normal

from oracles import scan_blp_walk
from sweep import sweep
from test_distributive_lattices import chain_spec, residuated_inputs
from test_element_level import outcome
from test_j_step import refuse_partitions, square_on_a_chain
from test_join_irreducible_masks import cold, random_generic_algebras


def eager_lifting(A, factor):
    """algebra_fclp or algebra_cblp with its evidence built at the call."""
    t = lifting._lifting_failure(A, factor)
    if t is None:
        return True, None, None
    theta = all_congruences(A).elements[t]
    return False, lifting._has_lifting(A, theta, factor)[1], theta


def eager_fc_normal(A):
    """is_fc_normal by its criterion, then the walk over the pairs."""
    if lifting._factor_criterion(A):
        return True, None
    return lifting._fc_normal_walk(all_congruences(A))


def eager_b_normal(A):
    """is_b_normal by its criterion, then the walk over the φ."""
    if jspace(A).tops is not None:
        return True, None
    return lifting._b_normal_walk(all_congruences(A))


def eager_blp(A):
    """algebra_blp with FCLP's failing θ found at the call on a distributive
    pure lattice, and the walk of the full class scan elsewhere."""
    if jspace(A).p_order is not None:
        t = lifting._lifting_failure(A, True)
        return (True, None) if t is None else (False, all_congruences(A).elements[t])
    return scan_blp_walk(A)


CHECKS = [
    ("fclp", algebra_fclp, lambda A: eager_lifting(A, True)),
    ("cblp", algebra_cblp, lambda A: eager_lifting(A, False)),
    ("fc-normal", is_fc_normal, eager_fc_normal),
    ("b-normal", is_b_normal, eager_b_normal),
    ("blp", residuated.algebra_blp, eager_blp),
]


def populations():
    """The sweep, the 16 fixtures, the random generic algebras with a
    distributive Con and the residuated population."""
    generic = [A for A in random_generic_algebras() if all_congruences(A).is_distributive()]
    assert len(generic) == 62
    return sweep() + [fixture(name) for name in FIXTURE_NAMES] + generic + residuated_inputs()


def verdict_first(check, A):
    v = check(A)
    ok = v[0]
    full = tuple(v)
    assert full[0] == ok
    return full


def evidence_first(check, A):
    v = check(A)
    full = tuple(v)
    assert v[0] == full[0]
    return full


def test_each_verdict_and_its_evidence_is_the_eager_checks():
    algebras = populations()
    assert len(algebras) == 225 + 16 + 62 + 111
    seen = {name: set() for name, _, _ in CHECKS}
    for A in algebras:
        for name, check, eager in CHECKS:
            if name == "blp" and not A.is_lattice:
                continue
            want = outcome(eager, cold(A))
            for read in (verdict_first, evidence_first):
                got = outcome(lambda B: read(check, B), cold(A))
                assert got == want, (A.name, name, read.__name__)
            seen[name].add(want[0] if isinstance(want, tuple) else "ambiguous")
    # BLP also meets ambiguous complements, whose messages are compared
    assert all({True, False} <= verdicts for verdicts in seen.values()), seen
    assert "ambiguous" in seen["blp"]


def test_fc_normality_by_the_pair_walk_is_fclp():
    # the oracle of the identity in lifting module doc, 4: the walk over
    # every pair, with no criterion, against FCLP's verdict
    verdicts = set()
    for A in populations():
        want = lifting._fc_normal_walk(all_congruences(A))[0]
        assert algebra_fclp(cold(A))[0] == want, A.name
        verdicts.add(want)
    assert verdicts == {True, False}


def test_the_evidence_is_computed_once_and_kept():
    calls = []
    v = Verdict(False, lambda: calls.append(1) or (False, ("a", "b")))
    assert v[0] is False and calls == []
    ok, pair = v
    assert (ok, pair) == (False, ("a", "b")) and calls == [1]
    assert v == (False, ("a", "b")) and v != (True, None) and v == Verdict(False, lambda: (False, ("a", "b")))
    assert (v[1], v[-1], v[:1], len(v), list(v)) == (("a", "b"), ("a", "b"), (False,), 2, [False, ("a", "b")])
    assert repr(v) == "(False, ('a', 'b'))" and hash(v) == hash((False, ("a", "b")))
    assert calls == [1]


# -- past CON_CAP -----------------------------------------------------------


@pytest.mark.parametrize(
    "spec,want",
    [(square_on_a_chain(), (False, True, False, True, False)), (chain_spec(20), (True,) * 5)],
    ids=["C14+L2x2", "C20"],
)
def test_past_the_cap_the_verdicts_build_no_partition(spec, want, monkeypatch):
    A = build_from_spec(spec)
    refuse_partitions(monkeypatch)
    verdicts = [check(A) for _, check, _ in CHECKS]
    assert tuple(v[0] for v in verdicts) == want
    for v in verdicts:
        if v[0]:
            # a holding verdict's evidence is itself, with nothing built
            assert v[1:] == (None,) * (len(v) - 1)
        else:
            # a failure's evidence needs Con(L), with 2^15 members
            with pytest.raises(SizeCap):
                v[1]

