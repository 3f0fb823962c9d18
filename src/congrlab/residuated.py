"""Element-level Boolean centers, BLP variants, filters/ideals, and the
finite reticulation of a residuated lattice.

Orientation of the reticulation: the carrier is the set of principal
filters, ordered by REVERSE inclusion — F <= G iff F is a superset of G —
so that the whole algebra (the filter generated by bottom) is the least
element and {top} is the greatest.  Join is then filter intersection and
meet is the filter generated by the union.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FiniteAlgebra, lattice_from_order, lattice_reduct
from .congruences import Congruence, all_congruences
from .errors import (
    AmbiguousComplement,
    KindError,
    NotAFilter,
    NotAnIdeal,
    NotDistributive,
    SizeCap,
)
from .lifting import quotient

FILTER_CAP = 12


@dataclass
class ElementBooleanCenter:
    """Complemented elements of a bounded lattice, with the involution."""

    algebra: FiniteAlgebra
    members: list[int]
    complement: dict[int, int]


def element_boolean_center(A: FiniteAlgebra) -> ElementBooleanCenter:
    """Scan every element for complements against bot/top.  An element with
    two complements (possible only in a non-distributive plain lattice) is
    an error, never a silent choice."""
    A.require_lattice()
    join, meet_t = A.tables["join"], A.tables["meet"]
    bot, top = A.bottom(), A.top()
    members = []
    complement = {}
    for a in range(A.n):
        comps = [
            b for b in range(A.n) if join[a][b] == top and meet_t[a][b] == bot
        ]
        if len(comps) > 1:
            raise AmbiguousComplement(A.labels[a], [A.labels[b] for b in comps])
        if comps:
            members.append(a)
            complement[a] = comps[0]
    return ElementBooleanCenter(A, members, complement)


def has_blp(A: FiniteAlgebra, theta: Congruence) -> bool:
    """Every complemented element of A/theta has a complemented element of A
    in its class."""
    Q = quotient(A, theta)
    center_q = element_boolean_center(Q.quotient)
    center_a = set(element_boolean_center(A).members)
    images = {Q.project(a) for a in center_a}
    return all(m in images for m in center_q.members)


def algebra_blp(A: FiniteAlgebra):
    """Conjunction of has_blp over all congruences; returns (ok, first
    failing congruence or None)."""
    for theta in all_congruences(A).elements:
        if not has_blp(A, theta):
            return False, theta
    return True, None


# -- filters and ideals -----------------------------------------------------


@dataclass
class FilterSet:
    algebra: FiniteAlgebra
    filters: list[frozenset]
    principal: list[bool]


@dataclass
class IdealSet:
    algebra: FiniteAlgebra
    ideals: list[frozenset]
    principal: list[bool]


def is_filter(A: FiniteAlgebra, F) -> bool:
    """Non-empty, upward closed, meet-closed; for the residuated kind also
    closed under the product operation."""
    F = set(F)
    if not F:
        return False
    meet_t = A.tables["meet"]
    for a in F:
        for b in range(A.n):
            if A.leq(a, b) and b not in F:
                return False
        for b in F:
            if meet_t[a][b] not in F:
                return False
    if A.signature.kind == "residuated":
        times = A.tables["times"]
        for a in F:
            for b in F:
                if times[a][b] not in F:
                    return False
    return True


def is_ideal(A: FiniteAlgebra, I) -> bool:
    I = set(I)
    if not I:
        return False
    join = A.tables["join"]
    for a in I:
        for b in range(A.n):
            if A.leq(b, a) and b not in I:
                return False
        for b in I:
            if join[a][b] not in I:
                return False
    return True


def principal_filter(A: FiniteAlgebra, x: int) -> frozenset:
    """[x): upward closure of the powers of x (powers matter only when the
    product is not idempotent)."""
    if A.signature.kind == "residuated":
        times = A.tables["times"]
        powers = {x}
        p = x
        while True:
            p = times[p][x]
            if p in powers:
                break
            powers.add(p)
        return frozenset(
            b for b in range(A.n) if any(A.leq(p, b) for p in powers)
        )
    return frozenset(b for b in range(A.n) if A.leq(x, b))


def filters(A: FiniteAlgebra) -> FilterSet:
    """All filters, by exhaustive subset scan (carrier capped)."""
    A.require_lattice()
    if A.n > FILTER_CAP:
        raise SizeCap(f"filter enumeration capped at carrier size {FILTER_CAP}")
    top = A.top()
    rest = [e for e in range(A.n) if e != top]
    found = []
    for bits in range(1 << len(rest)):
        F = {top} | {rest[i] for i in range(len(rest)) if bits >> i & 1}
        if is_filter(A, F):
            found.append(frozenset(F))
    found.sort(key=lambda F: (len(F), sorted(F)))
    principals = {principal_filter(A, x) for x in range(A.n)}
    return FilterSet(A, found, [F in principals for F in found])


def ideals(A: FiniteAlgebra) -> IdealSet:
    A.require_lattice()
    if A.n > FILTER_CAP:
        raise SizeCap(f"ideal enumeration capped at carrier size {FILTER_CAP}")
    bot = A.bottom()
    rest = [e for e in range(A.n) if e != bot]
    found = []
    for bits in range(1 << len(rest)):
        I = {bot} | {rest[i] for i in range(len(rest)) if bits >> i & 1}
        if is_ideal(A, I):
            found.append(frozenset(I))
    found.sort(key=lambda I: (len(I), sorted(I)))
    principals = {frozenset(b for b in range(A.n) if A.leq(b, x)) for x in range(A.n)}
    return IdealSet(A, found, [I in principals for I in found])


def maximal_filters(A: FiniteAlgebra) -> list[frozenset]:
    """Proper filters not contained in a larger proper filter."""
    fs = [F for F in filters(A).filters if len(F) < A.n]
    return [F for F in fs if not any(F < G for G in fs)]


def filter_congruence(A: FiniteAlgebra, F) -> Congruence:
    """The congruence a filter induces.  Residuated kind: x ~ y iff the
    biconditional (x -> y) ^ (y -> x) lands in the filter; distributive
    lattice kind: x ~ y iff x ^ a = y ^ a for some member a."""
    F = frozenset(F)
    if A.signature.kind != "residuated" and not A.is_distributive_lattice():
        raise NotDistributive(
            "filter congruences need a distributive (or residuated) lattice"
        )
    if not is_filter(A, F):
        raise NotAFilter(f"{sorted(A.labels[e] for e in F)} is not a filter")
    n = A.n
    meet_t = A.tables["meet"]
    related = [[False] * n for _ in range(n)]
    if A.signature.kind == "residuated":
        implies = A.tables["implies"]
        for x in range(n):
            for y in range(n):
                related[x][y] = meet_t[implies[x][y]][implies[y][x]] in F
    else:
        for x in range(n):
            for y in range(n):
                related[x][y] = any(meet_t[x][a] == meet_t[y][a] for a in F)
    return Congruence(A, _partition_of(related), check=True)


def ideal_congruence(A: FiniteAlgebra, I) -> Congruence:
    """x ~ y iff x v a = y v a for some member of the ideal.

    For the residuated kind the congruence is taken on the bounded-lattice
    reduct: joining against ideal elements respects join and meet but not
    the product or the implication."""
    I = frozenset(I)
    if A.signature.kind == "residuated":
        A = lattice_reduct(A, "bounded-lattice")
    if not A.is_distributive_lattice():
        raise NotDistributive(
            "ideal congruences need a distributive (or residuated) lattice"
        )
    if not is_ideal(A, I):
        raise NotAnIdeal(f"{sorted(A.labels[e] for e in I)} is not an ideal")
    n = A.n
    join = A.tables["join"]
    related = [
        [any(join[x][a] == join[y][a] for a in I) for y in range(n)]
        for x in range(n)
    ]
    return Congruence(A, _partition_of(related), check=True)


def _partition_of(related):
    """Partition from a relation matrix that is already an equivalence: the
    first element related to x is the least of x's block."""
    return tuple(row.index(True) for row in related)


def has_filt_blp(A: FiniteAlgebra) -> bool:
    return all(has_blp(A, filter_congruence(A, F)) for F in filters(A).filters)


def has_id_blp(A: FiniteAlgebra) -> bool:
    L = lattice_reduct(A, "bounded-lattice") if A.signature.kind == "residuated" else A
    return all(has_blp(L, ideal_congruence(L, I)) for I in ideals(L).ideals)


# -- reticulation -----------------------------------------------------------


def reticulation(R: FiniteAlgebra) -> FiniteAlgebra:
    """The bounded distributive lattice of principal filters of a finite
    residuated lattice, ordered by reverse inclusion (see module doc)."""
    if R.signature.kind != "residuated":
        raise KindError("reticulation is defined for the residuated kind")
    pf = {}
    for x in range(R.n):
        F = principal_filter(R, x)
        pf.setdefault(F, x)  # label by the first generator encountered
    elems = sorted(pf, key=lambda F: (-len(F), sorted(F)))
    labels = [f"[{R.labels[pf[F]]})" for F in elems]
    k = len(elems)
    leq = [[elems[j] <= elems[i] for j in range(k)] for i in range(k)]
    return lattice_from_order(
        leq, labels, kind="bounded-lattice", name=f"reticulation({R.name})" if R.name else None
    )


def blp_equivalence_check(A: FiniteAlgebra) -> dict:
    """Compute BLP / CBLP / FCLP together and check the expected pattern for
    the kind: all three agree on a residuated lattice; on a bounded
    distributive lattice, BLP = FCLP while CBLP always holds."""
    from .lifting import algebra_cblp, algebra_fclp

    blp, _ = algebra_blp(A)
    cblp = algebra_cblp(A)[0]
    fclp = algebra_fclp(A)[0]
    if A.signature.kind == "residuated":
        consistent = blp == cblp == fclp
    elif A.is_lattice and A.is_distributive_lattice():
        consistent = (blp == fclp) and cblp
    else:
        consistent = True  # no equivalence promised for other kinds
    return {
        "blp": blp,
        "cblp": cblp,
        "fclp": fclp,
        "consistent": consistent,
    }
