"""BLP, element centers, filters and ideals decided on A, against the slow
paths they replace.

residuated.has_blp reads the complements of A/θ off A's tables: the classes
of r and s are complements iff (r ∨ s) θ 1 and (r ∧ s) θ 0.  filters and
ideals list the principal filters of A and of its order dual.  The old ways
live on here as oracles: build the quotient and scan its elements for
complements, and test every subset of the carrier for being a filter or an
ideal.
"""

import sys

import pytest

from congrlab import residuated
from congrlab.algebra import direct_product
from congrlab.congruences import all_congruences
from congrlab.errors import AmbiguousComplement
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.lifting import quotient
from congrlab.report import build_report
from congrlab.residuated import (
    algebra_blp,
    element_boolean_center,
    filters,
    has_blp,
    ideals,
    is_filter,
    is_ideal,
)

from sweep import sweep
from test_partition_join import chain


def scan_center(A):
    """The element-by-element complement scan: (members, complement)."""
    join, meet = A.tables["join"], A.tables["meet"]
    bot, top = A.bottom(), A.top()
    complement = {}
    for a in range(A.n):
        comps = [b for b in range(A.n) if join[a][b] == top and meet[a][b] == bot]
        if len(comps) > 1:
            raise AmbiguousComplement(A.labels[a], [A.labels[b] for b in comps])
        if comps:
            complement[a] = comps[0]
    return list(complement), complement


def quotient_has_blp(A, theta):
    """The quotient-based decision of has_blp."""
    Q = quotient(A, theta)
    members_q, _ = scan_center(Q.quotient)
    images = {Q.project(a) for a in scan_center(A)[0]}
    return all(m in images for m in members_q)


def outcome(decide, *args):
    """The verdict, or the message of the AmbiguousComplement raised."""
    try:
        return decide(*args)
    except AmbiguousComplement as exc:
        return str(exc)


def subset_scan(A, is_member, anchor):
    """Every subset of the carrier that contains anchor and passes is_member."""
    rest = [e for e in range(A.n) if e != anchor]
    found = []
    for bits in range(1 << len(rest)):
        S = frozenset({anchor} | {rest[i] for i in range(len(rest)) if bits >> i & 1})
        if is_member(A, S):
            found.append(S)
    return sorted(found, key=lambda S: (len(S), sorted(S)))


ALGEBRAS = [fixture(name) for name in FIXTURE_NAMES] + list(sweep())


def center_of(A):
    c = element_boolean_center(A)
    return c.members, c.complement


def test_blp_on_a_matches_the_quotient():
    assert len(ALGEBRAS) == 241
    thetas = ambiguous = 0
    for A in ALGEBRAS:
        assert outcome(center_of, A) == outcome(scan_center, A), A.name
        for theta in all_congruences(A).elements:
            want = outcome(quotient_has_blp, A, theta)
            assert outcome(has_blp, A, theta) == want, (A.name, theta.block_string())
            thetas += 1
            ambiguous += isinstance(want, str)
    assert (thetas, ambiguous) == (2392, 837)


def has_blp_loop(A):
    """algebra_blp as a loop of has_blp, each call scanning A's center."""
    for theta in all_congruences(A).elements:
        if not has_blp(A, theta):
            return False, theta
    return True, None


def test_algebra_blp_is_the_has_blp_loop_with_one_center(monkeypatch):
    calls = []
    center = residuated.element_boolean_center
    monkeypatch.setattr(
        residuated, "element_boolean_center", lambda A: calls.append(A) or center(A)
    )
    for A in ALGEBRAS:
        want = outcome(has_blp_loop, A)
        calls.clear()
        assert outcome(algebra_blp, A) == want, A.name
        assert len(calls) == 1, A.name


def test_filters_and_ideals_are_the_principal_ones():
    for A in ALGEBRAS:
        fs = filters(A)
        assert fs.filters == subset_scan(A, is_filter, A.top()), A.name
        assert all(fs.principal)
        assert ideals(A) == subset_scan(A, is_ideal, A.bottom()), A.name


@pytest.mark.parametrize(
    "build",
    [
        # deciding BLP through quotients, build_report built 78 of them on
        # C7, 144 on C8, 32 on L2^5 and 114 over the 16 fixtures
        lambda: chain(7),
        lambda: chain(8),
        lambda: direct_product([fixture("L2")] * 5),
    ]
    + [lambda name=name: fixture(name) for name in FIXTURE_NAMES],
    ids=["C7", "C8", "L2^5", *FIXTURE_NAMES],
)
def test_a_report_builds_no_quotient(build, monkeypatch):
    def no_quotient(*args, **kwargs):
        raise AssertionError("a quotient was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("congrlab") and hasattr(module, "quotient"):
            monkeypatch.setattr(module, "quotient", no_quotient)
    build_report(build())
