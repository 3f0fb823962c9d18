"""The plain records of the package are named tuples (LiftEvidence, filled in
place, is a small slotted class).  Each keeps what it gave as a dataclass:
its repr, == between records, field access, Signature's hash and its
refusal of assignment; the unhashable ones stay unhashable.  The fixture
specs are the package's JSON files, read as UTF-8."""

import json
from importlib import resources

import pytest

from congrlab.algebra import JClasses, Signature, join_classes, lattice_signature
from congrlab.congruences import all_congruences
from congrlab.factor import Center, boolean_center, factor_congruences
from congrlab.fixtures import FIXTURE_NAMES, fixture, fixture_spec
from congrlab.lifting import LiftEvidence, LiftingReport, QuotientResult, has_fclp, lifting_report, quotient
from congrlab.residuated import ElementBooleanCenter, element_boolean_center

LATTICE_OPS = (("join", 2), ("meet", 2))


def test_signature():
    sig = Signature(LATTICE_OPS, "lattice")
    assert repr(sig) == "Signature(operations=(('join', 2), ('meet', 2)), kind='lattice')"
    assert repr(Signature(())) == "Signature(operations=(), kind='generic')"
    assert (sig.operations, sig.kind, sig.arity("meet"), sig.is_lattice) == (LATTICE_OPS, "lattice", 2, True)
    assert sig == Signature(operations=LATTICE_OPS, kind="lattice") == lattice_signature()
    assert sig != Signature(LATTICE_OPS) and sig != lattice_signature("bounded-lattice")
    assert hash(sig) == hash((LATTICE_OPS, "lattice")) == hash(lattice_signature())
    assert len({sig, Signature(LATTICE_OPS, "lattice"), Signature(LATTICE_OPS)}) == 2
    with pytest.raises(AttributeError):
        sig.kind = "generic"
    with pytest.raises(AttributeError):
        sig.extra = 1


def test_center():
    cl = all_congruences(fixture("L2x2"))
    bc = boolean_center(cl)
    assert repr(bc) == f"Center(lattice={cl!r}, members=[0, 1, 2, 3], complement={{0: 3, 1: 2, 2: 1, 3: 0}})"
    assert (bc.lattice, bc.members, bc.complement) == (cl, [0, 1, 2, 3], {0: 3, 1: 2, 2: 1, 3: 0})
    assert bc == Center(cl, [0, 1, 2, 3], {0: 3, 1: 2, 2: 1, 3: 0}) == factor_congruences(cl)
    assert bc != Center(cl, [0, 3], {0: 3, 3: 0})
    assert [t.block_string() for t in bc.congruences()] == ["0|u|v|1", "0,u|v,1", "0,v|u,1", "0,u,v,1"]
    with pytest.raises(TypeError):
        hash(bc)


def test_quotient_result():
    L = fixture("L2x2")
    theta = all_congruences(L).elements[1]
    Q = quotient(L, theta)
    assert repr(Q) == (
        "QuotientResult(quotient=<FiniteAlgebra L2x2/0,u|v,1: 2 elements>, projection=(0, 0, 2, 2), "
        "theta=Congruence(0,u|v,1), index_in_quotient={0: 0, 2: 1})"
    )
    assert (Q.projection, Q.theta, Q.index_in_quotient) == ((0, 0, 2, 2), theta, {0: 0, 2: 1})
    assert [Q.project(e) for e in range(L.n)] == [0, 0, 1, 1]
    assert Q == QuotientResult(Q.quotient, (0, 0, 2, 2), theta, {0: 0, 2: 1}) == quotient(L, theta)
    assert Q != QuotientResult(Q.quotient, (0, 0, 2, 2), theta, {0: 0, 2: 2})
    with pytest.raises(TypeError):
        hash(Q)


def test_lift_evidence():
    L = fixture("L2x2")
    ok, ev = has_fclp(L, all_congruences(L).elements[1])
    assert ok
    assert repr(ev) == "LiftEvidence(witnesses=[('0+u|v+1', '0|u|v|1'), ('0+u,v+1', '0,v|u,1')], unliftable=None)"
    assert repr(LiftEvidence()) == "LiftEvidence(witnesses=[], unliftable=None)"
    assert ev == LiftEvidence([("0+u|v+1", "0|u|v|1"), ("0+u,v+1", "0,v|u,1")])
    assert LiftEvidence() == LiftEvidence([], None) != LiftEvidence(unliftable="x")
    assert LiftEvidence() != ([], None)
    # filled in place, and each gets its own list
    first, second = LiftEvidence(), LiftEvidence()
    first.witnesses.append(("a", "b"))
    first.unliftable = "c"
    assert (first.witnesses, first.unliftable, second.witnesses) == ([("a", "b")], "c", [])
    with pytest.raises(TypeError):
        hash(first)


def test_lifting_report():
    rep = lifting_report(fixture("L2"))
    assert rep.algebra_name == "L2" and rep.flags["con_size"] == 2 and len(rep.per_congruence) == 2
    assert repr(rep) == f"LiftingReport(algebra_name='L2', flags={rep.flags!r}, per_congruence={rep.per_congruence!r})"
    assert rep == LiftingReport("L2", rep.flags, rep.per_congruence) == lifting_report(fixture("L2"))
    assert rep != LiftingReport(None, rep.flags, rep.per_congruence)
    with pytest.raises(TypeError):
        hash(rep)


def test_element_boolean_center():
    A = fixture("L2x2")
    ebc = element_boolean_center(A)
    assert repr(ebc) == (
        "ElementBooleanCenter(algebra=<FiniteAlgebra L2x2: 4 elements>, members=[0, 1, 2, 3], "
        "complement={0: 3, 1: 2, 2: 1, 3: 0})"
    )
    assert (ebc.algebra, ebc.members, ebc.complement) == (A, [0, 1, 2, 3], {0: 3, 1: 2, 2: 1, 3: 0})
    assert ebc == ElementBooleanCenter(A, [0, 1, 2, 3], {0: 3, 1: 2, 2: 1, 3: 0})
    with pytest.raises(TypeError):
        hash(ebc)


def test_join_classes_record():
    jc = join_classes(fixture("L2x2"))
    assert repr(jc) == (
        "JClasses(pairs=((0, 1), (0, 2)), seeds=((0, 1), (0, 2)), under=(0, 0), classes=(None, 0, 1, None), "
        "down=[1, 2], near=[1, 2], components=[1, 2], tops=3, distributive=True)"
    )
    assert jc == JClasses(**jc._asdict()) and (jc.tops, jc.distributive) == (3, True)
    with pytest.raises(AttributeError):
        jc.tops = 0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_fixture_spec_is_its_package_file(name):
    data = resources.files("congrlab.data").joinpath(f"{name}.json").read_bytes()
    assert fixture_spec(name) == json.loads(data.decode("utf-8"))
