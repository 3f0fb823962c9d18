"""BLP, element centers, filters and ideals decided on A, against the slow
paths they replace.

residuated.has_blp reads the complements of A/θ off A's tables: the classes
of r and s are complements iff (r ∨ s) θ 1 and (r ∧ s) θ 0.  filters and
ideals list the principal filters and ideals of A, and a filter [m) or an
ideal (m] induces the kernel of x ↦ x∧m (x·m on the residuated kind) or of
x ↦ x∨m.  The old ways live on here as oracles: build the quotient and scan
its elements for complements, test every subset of the carrier for being a
filter or an ideal, and fill an n×n relation matrix by the definition of
the filter or ideal congruence.
"""

import sys
from functools import reduce

import pytest

from congrlab import residuated
from congrlab.algebra import build_from_spec, direct_product
from congrlab.congruences import all_congruences
from congrlab.errors import AmbiguousComplement
from congrlab.factor import _p_order, jspace
from congrlab.fixtures import FIXTURE_NAMES, fixture, fixture_spec
from congrlab.lifting import quotient
from congrlab.report import build_report
from congrlab.residuated import (
    algebra_blp,
    element_boolean_center,
    filt_blp_failure,
    filter_congruence,
    filters,
    has_blp,
    has_filt_blp,
    has_id_blp,
    id_blp_failure,
    ideal_congruence,
    ideals,
    is_filter,
    is_ideal,
    principal_filter,
)

from sweep import sweep
from test_join_irreducible_masks import cold
from test_partition_join import chain
from test_residuated import RESIDUATED_CHAINS, residuated_chain


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


def count_scans(monkeypatch):
    """The partition of each complement scan, in order."""
    scans = []
    complements = residuated._complements
    monkeypatch.setattr(
        residuated, "_complements", lambda B, block_of: scans.append(tuple(block_of)) or complements(B, block_of)
    )
    return scans


def test_algebra_blp_is_the_has_blp_loop_with_one_center(monkeypatch):
    scans = count_scans(monkeypatch)
    for A in ALGEBRAS:
        want = outcome(has_blp_loop, A)
        B = cold(A)
        scans.clear()
        assert outcome(algebra_blp, B) == want, A.name
        # A's center is scanned once, first, unless BLP is read off
        # P = J(L) of a distributive lattice reduct, which scans no class
        delta = tuple(range(A.n))
        assert scans.count(delta) == (_p_order(B) is None), A.name
        assert scans == [] or scans[0] == delta, A.name
        assert not scans or scans[0] == delta, A.name


def test_filters_and_ideals_are_the_principal_ones():
    for A in ALGEBRAS:
        fs = filters(A)
        assert fs == subset_scan(A, is_filter, A.top()), A.name
        for F in fs:
            assert F == principal_filter(A, reduce(lambda a, b: A.op("meet", a, b), F)), A.name
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


# -- filter and ideal congruences as kernels ----------------------------------


def matrix_filter_partition(A, F):
    """The relation-matrix filter congruence: x ~ y iff (x → y) ∧ (y → x) ∈ F
    on the residuated kind, iff x ∧ a = y ∧ a for some a ∈ F otherwise; the
    first element related to x names x's block."""
    n, meet = A.n, A.tables["meet"]
    if A.signature.kind == "residuated":
        implies = A.tables["implies"]
        related = [[meet[implies[x][y]][implies[y][x]] in F for y in range(n)] for x in range(n)]
    else:
        related = [[any(meet[x][a] == meet[y][a] for a in F) for y in range(n)] for x in range(n)]
    return tuple(row.index(True) for row in related)


def matrix_ideal_partition(A, I):
    """The relation-matrix ideal congruence: x ~ y iff x ∨ a = y ∨ a for some
    a ∈ I."""
    n, join = A.n, A.tables["join"]
    related = [[any(join[x][a] == join[y][a] for a in I) for y in range(n)] for x in range(n)]
    return tuple(row.index(True) for row in related)


def filt_id_algebras():
    """The algebras with at most 12 elements where Filt-BLP and Id-BLP
    apply: the distributive fixtures and sweep lattices, R0, and the
    residuated chains."""
    fixtures = [fixture(name) for name in FIXTURE_NAMES]
    chains = [build_from_spec(residuated_chain(n, t)) for t, n in RESIDUATED_CHAINS]
    return [
        A
        for A in fixtures + list(sweep()) + chains
        if A.is_lattice and A.n <= 12 and (A.signature.kind == "residuated" or A.is_distributive_lattice())
    ]


def oracle_failure(A, sets, congruence, partition):
    """The first congruence of sets whose quotient fails BLP, decided on the
    quotient, after checking it against the relation-matrix partition."""
    for S in sets:
        theta = congruence(A, S)
        assert theta.block_of == partition(theta.algebra, S), (A.name, sorted(S))
        if not quotient_has_blp(theta.algebra, theta):
            return theta
    return None


def test_filter_and_ideal_congruences_are_the_kernels():
    algebras = filt_id_algebras()
    assert len(algebras) == 58
    counts = [0, 0]
    failures = {"filt": [], "id": []}
    for A in algebras:
        fs, ids = filters(A), ideals(A)
        counts[0] += len(fs)
        counts[1] += len(ids)
        filt = oracle_failure(A, fs, filter_congruence, matrix_filter_partition)
        idl = oracle_failure(A, ids, ideal_congruence, matrix_ideal_partition)
        assert filt_blp_failure(A) == filt and has_filt_blp(A) == (filt is None), A.name
        assert id_blp_failure(A) == idl and has_id_blp(A) == (idl is None), A.name
        failures["filt"] += [A.name] if filt else []
        failures["id"] += [A.name] if idl else []
    assert counts == [273, 315]
    assert (len(failures["filt"]), len(failures["id"])) == (5, 11)
    assert "L2osumL2x2" in failures["id"] and "R0" in failures["id"]


@pytest.mark.parametrize("build", [lambda: chain(8), lambda: build_from_spec(fixture_spec("L2x3cube"))], ids=["C8", "L2x3cube"])
def test_a_cold_report_scans_the_center_once_and_builds_no_reduct(build, monkeypatch):
    A = build()
    scans = count_scans(monkeypatch)

    def no_algebra(*args, **kwargs):
        raise AssertionError("a dual or a lattice reduct was built")

    for name, module in list(sys.modules.items()):
        for f in ("dual", "lattice_reduct"):
            if name.startswith("congrlab") and hasattr(module, f):
                monkeypatch.setattr(module, f, no_algebra)
    doc = build_report(A)
    assert doc["filt_blp"] and doc["id_blp"]
    # a distributive pure lattice reads BLP, Filt-BLP and Id-BLP off
    # P = J(L), so its center is never scanned
    assert jspace(A).p_order is not None
    assert scans == []


def test_a_residuated_filter_congruence_is_the_product_kernel():
    # 0 < a < m < 1 with m·m = m and m·a = a·a = 0: [m) is a filter, and
    # m·x = m·y, not x ∧ m = y ∧ m, is its congruence
    labels, n = ["0", "a", "m", "1"], 4
    times = [[y if x == 3 else x if y == 3 else 2 if x == y == 2 else 0 for y in range(n)] for x in range(n)]
    implies = [[max(z for z in range(n) if times[z][x] <= y) for y in range(n)] for x in range(n)]
    table = lambda f: [[labels[f(x, y)] for y in range(n)] for x in range(n)]
    A = build_from_spec(
        {
            "kind": "residuated",
            "elements": labels,
            "operations": {
                "join": table(max),
                "meet": table(min),
                "times": table(lambda x, y: times[x][y]),
                "implies": table(lambda x, y: implies[x][y]),
            },
            "constants": {"bot": "0", "top": "1"},
        }
    )
    for F in filters(A):
        assert filter_congruence(A, F).block_of == matrix_filter_partition(A, F)
    assert filter_congruence(A, {2, 3}).block_string() == "0,a|m,1"
