"""Element-level Boolean centers, BLP variants, filters/ideals, and the
finite reticulation of a residuated lattice.

Everything is decided on A's own tables.  A/theta joins and meets class
representatives, so the classes of r and s are complements in A/theta iff
(r v s) theta 1 and (r ^ s) theta 0: BLP needs no quotient.  A's own center
is that scan at Delta, memoized on A.

(f) continues (a)-(e) of item 6 in the lifting module doc, which read the
congruence side of a distributive lattice off P = J(L).  On a distributive
pure lattice L, BLP at theta holds iff the factor lifting does, and is read
off P with no class scanned.  The complemented elements of L are the
unions W of components of P (6c), and (6b) sends each to W ∖ S_theta in
L/theta ≅ O(P ∖ S_theta), whose complemented elements are the unions of
components of P ∖ S_theta.  Those are the images of the factor congruences
in (6d), so BLP at theta is the trace test there, and BLP at every theta
is FCLP, failing first at the same theta: every component of P is a chain
(6e).
Any other algebra A whose lattice reduct L is distributive, the residuated
kind among them, is read off the same P.  theta is a congruence of L too,
and A/theta has L/theta as its bounded-lattice reduct, so the complements
in A/theta are those of L/theta, as A's complemented elements are L's.
BLP at theta therefore depends on L/theta alone: it holds for A iff it
holds for L, which is the trace test on P = J(L).  A lattice whose reduct
is not distributive scans every class: the complements of A/theta are
listed first, which raises AmbiguousComplement on a class with two
complements, and BLP holds iff each complemented class holds a member of
A's center.

(g) On a distributive pure lattice L, Filt-BLP holds iff every component
of P has a least element, and Id-BLP iff every component has a greatest
element; no filter or ideal congruence is built.  The congruence of the
filter [m) has S_theta = {j in P : j ≰ m}: if j ≰ m then j^m < j, so
j^m ≤ j₊ and j₊^m = j^m; if j ≤ m it separates j₊ from j.  So
P ∖ S_theta = J(m), a down-set of P, and every down-set of P is some J(m).
By (f) BLP at theta is the trace test of (6d).  A component with a least
element puts it in every down-set that meets the component, and the trace
is connected; a component without one has two minimal elements, and the
down-set they form leaves a disconnected trace.  Dually, the congruence
of the ideal (m] has P ∖ S_theta = P ∖ J(m), an up-set: j ≤ j₊ v m would
force j ≤ m, as j is join-prime.  Every up-set of P is such a P ∖ J(m),
and the same argument runs with greatest elements.

(h) For the residuated kind the filters are the [e) with e idempotent, and
their congruences ker(e·-) are all of Con(A), as congruences correspond to
deductive filters (Galatos, Jipsen, Kowalski & Ono, Residuated Lattices,
2007).  So Filt-BLP is BLP, read as such when the lattice reduct is
distributive.  The ideal congruences are taken on the bounded-lattice
reduct, so Id-BLP is read by (g) off A's join and meet, which are the
reduct's, with no reduct built: P is read off them by `factor._p_order`,
memoized on A, the P that BLP reads (f).

Every filter F of a finite lattice is principal: m = ^F lies in F, so
F = [m).  In a residuated lattice m*m is in F and m*m <= m*1 = m, so m is
idempotent.  The filters are therefore the n principal filters, and the
ideals, dually, the n principal ideals (x].  Their congruences are kernels,
computed in O(n):

* x ^ a = y ^ a for some a in [m)  iff  x ^ m = y ^ m.  If x ^ a = y ^ a
  with m <= a, meet both sides with m; conversely take a = m.  Dually,
  x v a = y v a for some a in (m]  iff  x v m = y v m.
* For the residuated kind, (x -> y) ^ (y -> x) in [m)  iff  m*x = m*y.  By
  residuation m <= x -> y iff m*x <= y, which gives m*x = m*m*x <= m*y;
  the other conjunct gives m*y <= m*x.  Conversely m*x = m*y <= y gives
  m <= x -> y, and likewise m <= y -> x.

Orientation of the reticulation: the carrier is the set of principal
filters, ordered by REVERSE inclusion — F <= G iff F is a superset of G —
so that the whole algebra (the filter generated by bottom) is the least
element and {top} is the greatest.  Join is then filter intersection and
meet is the filter generated by the union.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .algebra import (
    FiniteAlgebra,
    _bits,
    _components,
    cached,
    delta_partition,
    join_classes,
    kernel,
    lattice_from_order,
    lattice_reduct,
)
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
from .factor import _p_order, jspace
from .lifting import Verdict, _holds, _lifting_failure

FILTER_CAP = 12


# Complemented elements of a bounded lattice, with the involution.
ElementBooleanCenter = namedtuple("ElementBooleanCenter", "algebra members complement")


def _complements(A: FiniteAlgebra, block_of) -> dict[int, int]:
    """{rep: complement rep} over the classes of block_of, each named by its
    least element (see module doc).  A class with two complements (possible
    only in a non-distributive plain lattice) is an error, never a silent
    choice; the message labels classes as the quotient does."""
    A.require_lattice()
    join, meet_t = A.tables["join"], A.tables["meet"]
    top, bot = block_of[A.top()], block_of[A.bottom()]
    reps = sorted(set(block_of))

    complement = {}
    for r in reps:
        comps = [
            s for s in reps if block_of[join[r][s]] == top and block_of[meet_t[r][s]] == bot
        ]
        if len(comps) > 1:
            label = Congruence(A, block_of).class_labels()
            raise AmbiguousComplement(label[r], [label[s] for s in comps])
        if comps:
            complement[r] = comps[0]
    return complement


@cached
def element_boolean_center(A: FiniteAlgebra) -> ElementBooleanCenter:
    """The complemented elements of A: the complement scan at Δ, memoized on
    A.  An ambiguous complement raises on every call."""
    complement = _complements(A, delta_partition(A.n))
    return ElementBooleanCenter(A, list(complement), complement)


def has_blp(A: FiniteAlgebra, theta: Congruence) -> bool:
    """Every complemented element of A/theta has a complemented element of A
    in its class.  Decided on A's tables: no quotient is built.  Where A's
    lattice reduct L is distributive it is the trace test on P = J(L)
    (module doc, f).  Elsewhere every class is scanned: the complements of
    A/theta first, so that an ambiguous one in the quotient is the one
    raised, then A's center, whose ambiguous complement raises too."""
    if theta.algebra != A:
        raise ParentMismatch("congruence does not belong to the algebra")
    order, block_of = _p_order(A), theta.block_of
    if order is not None:
        # P ∖ S_θ: the j with j₊ and j in two θ-classes, as bits in the order
        # of P (lifting module doc, 6a)
        rest = sum(1 << h for h, (a, j) in enumerate(join_classes(A).pairs) if block_of[a] != block_of[j])
        near, components = order
        return len(_components(near, rest)) == sum(1 for c in components if c & rest)
    complemented = _complements(A, block_of)
    return {block_of[a] for a in element_boolean_center(A).members}.issuperset(complemented)


@cached
def algebra_blp(A: FiniteAlgebra) -> Verdict:
    """Conjunction of has_blp over all congruences; reads (ok, first
    failing congruence or None).  On a distributive pure lattice it is
    FCLP's verdict, decided at the call, with FCLP's failing θ, read as an
    index on the first read of the evidence (module doc, f; Verdict), so
    it answers past the congruence cap whenever FCLP does.  Elsewhere the
    walk of has_blp over every θ but Δ, where BLP holds, gives both at the
    call.  Where the lattice reduct is not distributive A's center is
    scanned first, so that an ambiguous complement of A raises before any
    of a quotient's, with the same message on every call.  Memoized on A,
    as a report asks for it twice: once itself, once for Filt-BLP (h)."""
    if jspace(A).p_order is not None:
        ok = _holds(A, True)
        return Verdict(
            ok, lambda: (True, None) if ok else (False, all_congruences(A).elements[_lifting_failure(A, True)])
        )
    thetas = all_congruences(A).elements
    if _p_order(A) is None:
        element_boolean_center(A)
    theta = next((theta for theta in thetas if not theta.is_delta() and not has_blp(A, theta)), None)
    return Verdict(theta is None, lambda: (theta is None, theta))


# -- filters and ideals -----------------------------------------------------


def is_filter(A: FiniteAlgebra, F) -> bool:
    """Non-empty, upward closed, meet-closed; for the residuated kind also
    closed under the product operation."""
    products = ("meet", "times") if A.signature.kind == "residuated" else ("meet",)
    return _is_closed(A, F, A.order_masks()[0], products)


def is_ideal(A: FiniteAlgebra, I) -> bool:
    """Non-empty, downward closed, join-closed."""
    return _is_closed(A, I, A.order_masks()[1], ("join",))


def _is_closed(A: FiniteAlgebra, S, masks, operations) -> bool:
    """S is non-empty, contains masks[a] for each member a, and is closed
    under the named binary operations."""
    S = set(S)
    if not S:
        return False
    mask = sum(1 << e for e in S)
    if any(masks[a] & ~mask for a in S):
        return False
    return all(A.tables[f][a][b] in S for f in operations for a in S for b in S)


def principal_filter(A: FiniteAlgebra, x: int) -> frozenset:
    """[x): upward closure of the powers of x (powers matter only when the
    product is not idempotent)."""
    up = A.order_masks()[0]
    if A.signature.kind != "residuated":
        return frozenset(_bits(up[x]))
    times, mask, powers, p = A.tables["times"], 0, set(), x
    while p not in powers:
        powers.add(p)
        mask |= up[p]
        p = times[p][x]
    return frozenset(_bits(mask))


def filters(A: FiniteAlgebra) -> list[frozenset]:
    """All filters, smallest first: the n principal filters (module doc)."""
    _require_enumerable(A, "filter")
    return _smallest_first(principal_filter(A, x) for x in range(A.n))


def ideals(A: FiniteAlgebra) -> list[frozenset]:
    """All ideals, smallest first: the n principal ideals (module doc)."""
    _require_enumerable(A, "ideal")
    return _smallest_first(frozenset(_bits(d)) for d in A.order_masks()[1])


def _require_enumerable(A: FiniteAlgebra, what: str):
    A.require_lattice()
    if A.n > FILTER_CAP:
        raise SizeCap(f"{what} enumeration capped at carrier size {FILTER_CAP}")


def _smallest_first(sets) -> list[frozenset]:
    return sorted(set(sets), key=lambda S: (len(S), sorted(S)))


def filter_congruence(A: FiniteAlgebra, F) -> Congruence:
    """The congruence a filter F = [m) induces.  Residuated kind: x ~ y iff
    the biconditional (x -> y) ^ (y -> x) lands in F, which is m*x = m*y;
    a distributive lattice with no other operation: x ~ y iff x ^ a = y ^ a
    for some member a, which is x ^ m = y ^ m (module doc)."""
    F = frozenset(F)
    if A.signature.kind != "residuated":
        _require_distributive_lattice(A, "filter")
    if not is_filter(A, F):
        raise NotAFilter(f"{sorted(A.labels[e] for e in F)} is not a filter")
    meet_t = A.tables["meet"]
    m = functools.reduce(lambda a, b: meet_t[a][b], F)
    by = A.tables["times"] if A.signature.kind == "residuated" else meet_t
    return Congruence(A, kernel(by[m]), check=True)


def ideal_congruence(A: FiniteAlgebra, I) -> Congruence:
    """x ~ y iff x v a = y v a for some member of the ideal I = (m], which
    is x v m = y v m (module doc).

    For the residuated kind the congruence is taken on the bounded-lattice
    reduct: joining against ideal elements respects join and meet but not
    the product or the implication."""
    I = frozenset(I)
    if A.signature.kind == "residuated":
        A = lattice_reduct(A, "bounded-lattice")
    _require_distributive_lattice(A, "ideal")
    if not is_ideal(A, I):
        raise NotAnIdeal(f"{sorted(A.labels[e] for e in I)} is not an ideal")
    join = A.tables["join"]
    m = functools.reduce(lambda a, b: join[a][b], I)
    return Congruence(A, kernel(join[m]), check=True)


def _require_distributive_lattice(A: FiniteAlgebra, what: str):
    """A is a distributive lattice with no operation besides join, meet and
    constants, the lattices whose P = J(L) jspace reads: the kernels above
    are congruences of such a lattice, and another operation need not
    respect them."""
    if not A.is_distributive_lattice():
        raise NotDistributive(f"{what} congruences need a distributive (or residuated) lattice")
    if jspace(A).p_order is None:
        raise KindError(f"{what} congruences need a lattice with no other operation, or the residuated kind")


def filt_blp_failure(A: FiniteAlgebra) -> Congruence | None:
    """The first filter congruence, in filters(A) order, whose quotient
    fails BLP, or None if Filt-BLP holds.  The filters are walked only when
    the criterion of has_filt_blp fails or none applies."""
    if _filt_criterion(A):
        return None
    return _first_failure(A, (filter_congruence(A, F) for F in filters(A)))


def id_blp_failure(A: FiniteAlgebra) -> Congruence | None:
    """The first ideal congruence, in ideals(A) order, whose quotient fails
    BLP, or None if Id-BLP holds.  Residuated kind: on the lattice reduct.
    The ideals are walked only when the criterion of has_id_blp fails or
    none applies."""
    if _id_criterion(A):
        return None
    L = lattice_reduct(A, "bounded-lattice") if A.signature.kind == "residuated" else A
    return _first_failure(L, (ideal_congruence(L, I) for I in ideals(L)))


def _first_failure(A: FiniteAlgebra, thetas) -> Congruence | None:
    return next((theta for theta in thetas if not has_blp(A, theta)), None)


def has_filt_blp(A: FiniteAlgebra) -> bool:
    """BLP at every filter congruence: every component of P = J(L) has a
    least element on a distributive pure lattice (module doc, g), and BLP
    on the residuated kind with a distributive reduct (h); elsewhere the
    walk of filt_blp_failure."""
    ok = _filt_criterion(A)
    return filt_blp_failure(A) is None if ok is None else ok


def has_id_blp(A: FiniteAlgebra) -> bool:
    """BLP at every ideal congruence: every component of P = J(L) has a
    greatest element on a distributive pure lattice or reduct (module doc,
    g and h); elsewhere the walk of id_blp_failure."""
    ok = _id_criterion(A)
    return id_blp_failure(A) is None if ok is None else ok


def _filt_criterion(A: FiniteAlgebra) -> bool | None:
    """Filt-BLP by (g) or (h) of the module doc, or None where neither
    applies.  The kind and the cap are checked first, as filters(A) does."""
    _require_enumerable(A, "filter")
    if A.signature.kind == "residuated" and A.is_distributive_lattice():
        return algebra_blp(A)[0]
    return _components_bounded(A, 0)


def _id_criterion(A: FiniteAlgebra) -> bool | None:
    """Id-BLP by (g) and (h) of the module doc, or None where neither
    applies.  The kind and the cap are checked first, as ideals(A) does (a
    residuated A has its reduct's carrier)."""
    _require_enumerable(A, "ideal")
    return _components_bounded(A, 1)


def _components_bounded(A: FiniteAlgebra, side: int) -> bool | None:
    """Whether every component of P = J(L) has a least element (side 0) or
    a greatest one (side 1), read off L's up-set or down-set masks (module
    doc, g), where L is a distributive pure lattice, or the distributive
    lattice reduct of the residuated kind, whose P is read off A's own
    tables and memoized on A (h).  None elsewhere."""
    order = _p_order(A) if A.signature.kind == "residuated" else jspace(A).p_order
    if order is None:
        return None
    masks = A.order_masks()[side]
    js = [j for _, j in join_classes(A).pairs]
    for c in order[1]:
        members = [js[h] for h in _bits(c)]
        mask = sum(1 << j for j in members)
        if not any(masks[j] & mask == mask for j in members):
            return False
    return True


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
    the kind: all three agree on a residuated lattice; on a distributive
    lattice with no other operation, the lattices jspace reads P of,
    BLP = FCLP while CBLP always holds (module doc, f).  A lattice with
    another operation is promised nothing, whatever its reduct."""
    blp, cblp, fclp = algebra_blp(A)[0], _holds(A, False), _holds(A, True)
    if A.signature.kind == "residuated":
        consistent = blp == cblp == fclp
    elif jspace(A).p_order is not None:
        consistent = (blp == fclp) and cblp
    else:
        consistent = True  # no equivalence promised for other kinds
    return {"blp": blp, "cblp": cblp, "fclp": fclp, "consistent": consistent}
