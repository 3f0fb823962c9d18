"""Element-level Boolean centers, BLP variants, filters/ideals, and the
finite reticulation of a residuated lattice.

Everything is decided on A's own tables.  A/theta joins and meets class
representatives, so the classes of r and s are complements in A/theta iff
(r v s) theta 1 and (r ^ s) theta 0: BLP needs no quotient.  Every filter
of a finite residuated lattice is principal (its meet is idempotent), so the
filters are the n principal filters and the ideals are the filters of the
order dual: no subset is scanned.

Orientation of the reticulation: the carrier is the set of principal
filters, ordered by REVERSE inclusion — F <= G iff F is a superset of G —
so that the whole algebra (the filter generated by bottom) is the least
element and {top} is the greatest.  Join is then filter intersection and
meet is the filter generated by the union.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FiniteAlgebra, delta_partition, dual, lattice_from_order, lattice_reduct
from .congruences import Congruence, all_congruences
from .errors import (
    AmbiguousComplement,
    KindError,
    NotAFilter,
    NotAnIdeal,
    NotDistributive,
    ParentMismatch,
    SizeCap,
)

FILTER_CAP = 12


@dataclass
class ElementBooleanCenter:
    """Complemented elements of a bounded lattice, with the involution."""

    algebra: FiniteAlgebra
    members: list[int]
    complement: dict[int, int]


def _complements(A: FiniteAlgebra, block_of) -> dict[int, int]:
    """{rep: complement rep} over the classes of block_of, each named by its
    least element (see module doc).  A class with two complements (possible
    only in a non-distributive plain lattice) is an error, never a silent
    choice; the message labels classes as the quotient does."""
    A.require_lattice()
    join, meet_t = A.tables["join"], A.tables["meet"]
    top, bot = block_of[A.top()], block_of[A.bottom()]
    reps = sorted(set(block_of))

    def label(r):
        return "+".join(A.labels[e] for e in range(A.n) if block_of[e] == r)

    complement = {}
    for r in reps:
        comps = [
            s for s in reps if block_of[join[r][s]] == top and block_of[meet_t[r][s]] == bot
        ]
        if len(comps) > 1:
            raise AmbiguousComplement(label(r), [label(s) for s in comps])
        if comps:
            complement[r] = comps[0]
    return complement


def element_boolean_center(A: FiniteAlgebra) -> ElementBooleanCenter:
    """The complemented elements of A: the complement scan at Δ."""
    complement = _complements(A, delta_partition(A.n))
    return ElementBooleanCenter(A, list(complement), complement)


def has_blp(A: FiniteAlgebra, theta: Congruence) -> bool:
    """Every complemented element of A/theta has a complemented element of A
    in its class.  Decided on A's tables: no quotient is built."""
    if theta.algebra != A:
        raise ParentMismatch("congruence does not belong to the algebra")
    complemented = _complements(A, theta.block_of)
    return _center_reaches(theta.block_of, complemented, element_boolean_center(A))


def _center_reaches(block_of, complemented, center: ElementBooleanCenter) -> bool:
    """Every class in complemented holds a member of A's center."""
    images = {block_of[a] for a in center.members}
    return all(r in images for r in complemented)


def algebra_blp(A: FiniteAlgebra):
    """Conjunction of has_blp over all congruences; returns (ok, first
    failing congruence or None).  A's center is computed once: Δ comes
    first, and at Δ the congruence's complement scan is A's own, so an
    ambiguous complement raises the same message as in has_blp."""
    thetas = all_congruences(A).elements
    center = element_boolean_center(A)
    for theta in thetas:
        if not _center_reaches(theta.block_of, _complements(A, theta.block_of), center):
            return False, theta
    return True, None


# -- filters and ideals -----------------------------------------------------


@dataclass
class FilterSet:
    """The filters of A.  principal[i] says filters[i] is principal, which is
    always True: every filter of a finite lattice is (see filters)."""

    algebra: FiniteAlgebra
    filters: list[frozenset]
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
    """All filters, smallest first.  A filter F of a finite lattice is the
    up-set of m = ^F; in a residuated lattice m*m is in F and m*m <= m, so m
    is idempotent and F = principal_filter(m).  Conversely every principal
    filter is a filter, so the filters are the n principal filters."""
    A.require_lattice()
    if A.n > FILTER_CAP:
        raise SizeCap(f"filter enumeration capped at carrier size {FILTER_CAP}")
    found = sorted(
        {principal_filter(A, x) for x in range(A.n)}, key=lambda F: (len(F), sorted(F))
    )
    return FilterSet(A, found, [True] * len(found))


def ideals(A: FiniteAlgebra) -> list[frozenset]:
    """All ideals, smallest first: the filters of the order dual."""
    A.require_lattice()
    if A.n > FILTER_CAP:
        raise SizeCap(f"ideal enumeration capped at carrier size {FILTER_CAP}")
    return filters(dual(lattice_reduct(A))).filters


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
    return all(has_blp(L, ideal_congruence(L, I)) for I in ideals(L))


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
