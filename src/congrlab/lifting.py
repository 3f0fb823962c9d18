"""Quotients, congruence transport, and the lifting properties.

A congruence theta "lifts" factor congruences when the induced map
u(alpha) = (alpha v theta)/theta from the factor congruences of A onto those
of A/theta is surjective; the algebra has the property when every theta
does.  The same scheme with Boolean congruences instead of factor
congruences gives the second property.  Both are decided inside Con(A):
by the correspondence theorem Con(A/theta) is the interval [theta, ∇], so
u(alpha) is alpha v theta and no quotient is built.  One rule gives each
(property, theta) verdict and its evidence: theta lifts iff no atom of A's
center has a trace that holds two atoms of theta's, and the first target
not reached is the least one such atom joined to theta (5).  Each
property's verdicts are decided in one pass over the theta in index order,
into a column of pairs of integers kept on the lattice; a report fills
both columns whole, and a walk for the first failure fills its column only
that far and returns its index.  Evidence is rendered only where it is
printed or returned, in the class labels of A/theta, built once per
theta.  The algebra-level checks return a Verdict: the verdict at
the call, and the evidence on its first read.  Each property is then one
yes/no: fc-normality is FCLP and b-normality is CBLP (4 and 3), and no
verdict walks the θ: where no criterion below decides FCLP, the pairs of
maximal members of J do (7), and a pure lattice enumerates no Con(L) for
any verdict.

The Boolean property and both normality checks are read off the order of
J = J(Con A).  A center exists only on a distributive Con(A), and then
θ ↦ D_θ, the set of members of J below θ (its mask), is an isomorphism onto
the down-sets of J, with unions as joins and intersections as meets, and
J itself as ∇ (Davey & Priestley, ch. 5 and 10).  A component is a
connected component of J's comparability graph.  Every verdict reads J,
its order, P = J(L), the block counts and FC(A)'s atoms off one record per
algebra, `factor.jspace(A)`, whose constructor is picked by kind.  On a
pure lattice J and its order come from the J step, `algebra.join_classes`,
one pass with no Con(L) and no cover of L; every criterion below
that reads J or P = J(L) alone then decides before Con(L) is enumerated,
and only a failure enumerates it, for the evidence.  Max J is the set of
maximal members of J.

1. The Boolean elements are the unions of components.  D has a complement
   iff J ∖ D is a down-set too, that is iff no comparable pair has one end
   in D and one outside it.
2. θ has the Boolean property iff, for every component C, the trace
   C ∖ D_θ is empty or connected.  [θ, ∇] is the down-sets of J ∖ D_θ, so
   by 1 its Boolean elements are D_θ ∪ U, U a union of components of
   J ∖ D_θ.
   u sends the union W of components to D_θ ∪ (W ∖ D_θ), a union of
   traces.  Each component of J ∖ D_θ lies in one trace, so u is onto iff
   every non-empty trace is one component.  Every θ has the property iff
   every component has a greatest element: a non-empty trace holds that
   element, as D_θ is a down-set, and all of the trace is below it; and a
   component without one has two maximal m ≠ m', and the down-set
   J ∖ {m, m'} leaves them as a disconnected trace.
3. A is b-normal iff, for every φ, V ⊆ φ⁺, where V is the union of the
   components that meet J ∖ D_φ and φ⁺ = ↓(J ∖ D_φ).  φ ∨ ψ = ∇ iff
   D_ψ ⊇ J ∖ D_φ, so φ⁺ is the least such ψ.  A Boolean α = W, α' = J ∖ W,
   has φ ∨ α = ψ ∨ α' = ∇ iff J ∖ D_φ ⊆ W ⊆ D_ψ, and the least such W is V;
   so (φ, ψ) has a witness iff V ⊆ D_ψ, and every ψ has one iff φ⁺ does.
   So A is b-normal iff every component of J has a greatest element, as
   every θ has the Boolean property (2).  If a component C has a top t and
   meets J ∖ D_φ, then t ∉ D_φ, as D_φ is a down-set, so C ⊆ ↓t ⊆ φ⁺.  If C
   has two maximal m ≠ m', the down-set D_φ = J ∖ {m} puts m' in V but not
   in φ⁺ = ↓m.  Only a failure loops over the φ, for the first one.
4. A is fc-normal iff it has the factor property, so only a failure tries
   pairs, for the first failing one.  A factor congruence α, with factor
   complement α', is a witness for (φ, ψ) when φ ∨ α = ψ ∨ α' = ∇.
   The factor property gives fc-normality.  Let φ∘ψ = ∇ and θ = φ ∧ ψ.
   Then (φ, ψ) is a factor pair of [θ, ∇], that is of A/θ, so the factor
   property at θ gives an α with α ∨ θ = φ.  u keeps complements (5b),
   and complements in [θ, ∇] are unique, so α' ∨ θ = ψ.  Then α' is a
   witness: φ ∨ α' ⊇ α ∨ α' = ∇, and ψ ∨ α ⊇ α' ∨ α = ∇.
   fc-normality gives the factor property.  Let θ fail.  By 5(c) some trace
   X ∩ R is cut: it holds an atom F of θ's center and at least one other.
   Then ψ = D_θ ∪ F and φ = D_θ ∪ (R ∖ F) are a factor pair of A/θ, so
   φ∘ψ = ∇.  A witness α = W is a union of A's atoms.  φ ∨ α = ∇ needs
   D_φ ∪ W = J, so W ⊇ F, and W ⊇ X as F ⊆ X.  ψ ∨ α' = ∇ needs
   D_ψ ∪ (J ∖ W) = J, so W ∩ R ⊆ F.  But X ∩ R ⊋ F, so there is no witness.
   The first failing pair: let T_i be the set of j with θ_i ∨ θ_j = ∇.
   α is a witness for (i, j) iff α ∈ T_i and j ∈ T_α', so the j with a
   witness are the union of T_α' over the factor α in T_i.  Only the other
   j in T_i, the untested ones, can fail.  C_i, the set of j with
   θ_i∘θ_j = ∇, is an up-set: θ_j ≤ θ_k gives θ_i∘θ_j ⊆ θ_i∘θ_k.  So some
   untested j lies in C_i iff some maximal untested j does, and only those
   are tested.  The highest index left is maximal, as index order extends
   the order; each one tested drops its down-set.  Only when one of them
   is in C_i are the untested j scanned in index order, for the first
   failing pair.
   FC(A) = B(A), which the criterion of the factor property reads (5,
   end), is one factor pair per component of J: 2c block counts, however
   many the 2^c members of B(A) are (`factor.JSpace.center_is_factor`),
   each read on a pure lattice off its join table (`factor.JSpace.count`),
   with no Con(L), no cover and no partition.
5. One rule decides both properties at θ and gives the evidence.  Call
   FC(A) or B(A) A's center, the same center of [θ, ∇] θ's, and R = J ∖ D_θ.
   (a) A's center is a Boolean sublattice of Con(A).  B(A) is one in any
       distributive lattice.  For FC(A), let (α, α') be a factor pair, so
       A ≅ B × C.  Every θ is (θ ∨ α) ∧ (θ ∨ α'), by distributivity, so it
       is a product θ₁ × θ₂, and composition and meet are taken
       componentwise.  So a factor pair (β, β') splits into factor pairs
       (β₁, β₁') on B and (β₂, β₂') on C, and α ∧ β = Δ_B × β₂ has the
       factor complement ∇_B × β₂'.  Complements are unique, so FC(A) is
       also closed under ∨, by De Morgan.  Its atoms, the least members
       above Δ, partition J, and each member is the union of the atoms
       below it.  They are the components of J on the Boolean side (1),
       and the components of P for FC(L) of a distributive pure lattice
       (6d).  On any other pure lattice L's central elements give them
       with no Con(L) (7), and elsewhere one pass over the listing of
       FC(A) finds them (d): the record's fc_atoms.
   (b) u(α) = α ∨ θ is a lattice map, by distributivity, and it maps a
       complemented pair to a complemented pair of [θ, ∇]:
       (α ∨ θ) ∧ (α' ∨ θ) = (α ∧ α') ∨ θ = θ.  It keeps factor pairs, as
       (α ∨ θ)∘(α' ∨ θ) ⊇ α∘α' = ∇.  So u maps A's center into θ's, and on
       masks an atom X goes to D_θ ∪ (X ∩ R), its trace X ∩ R joined to
       D_θ.
   (c) The verdict.  [θ, ∇] is distributive, so θ's center is Boolean, by
       (a) applied to A/θ: its members are the 2^k unions of its k atoms,
       and the atoms, less D_θ, partition R.  They are the components of R
       on the Boolean side (1) and the components of P ∖ S_θ on the factor
       side of a distributive pure lattice (6c); elsewhere they are read
       off the one listing of [θ, ∇] that gives |FC(A/θ)| (d).  u(X) lies
       in θ's center (b), so each trace X ∩ R is a union of θ's atoms.
       Call a trace cut when it holds two or more of them.  The images of
       u are the unions of the traces, and the m non-empty traces are
       disjoint, so there are 2^m images.  The traces are disjoint unions
       of the k atoms, so 2^m = 2^k iff no trace is cut: θ has the
       property iff each of its atoms is a whole trace.  When every
       component of J has a top, no trace is cut (2), and no atom of θ's
       is needed: the size is 2^c for the c tops in R.
   (d) The evidence.  A member D_θ ∪ V of θ's center is u(α), for α a
       union of atoms, iff every trace lies inside V or misses it.  The α
       that reach it then hold every atom whose trace meets V, and the
       least of them, the union of those atoms, is found by one lookup of
       its mask; it is the first in index order, as index order extends
       ≤.  Suppose D_θ ∪ V is not reached.  Then some trace meets V and
       also leaves it, so it holds an atom F ⊆ V of θ's and another atom
       outside V.  That trace is cut, and D_θ ∪ F ≤ D_θ ∪ V is not reached
       either.  Conversely D_θ ∪ F is not reached for any atom F in a cut
       trace, and only D_θ lies below it.  So the minimal members not
       reached are exactly the D_θ ∪ F with F in a cut trace, and as index
       order extends ≤, the first member not reached is the least of
       these: one lookup per such F, and no member is listed.
       The atoms of a Boolean lattice of masks with bottom 0, taken in an
       order that extends inclusion (index order does), are the nonzero
       members that miss every atom taken before them.  A member that is
       not an atom holds strictly smaller atoms, and those come first; an
       atom misses every other atom.  One such pass over a listing of
       [θ, ∇] gives θ's atoms, and over FC(A) gives A's.
   Every θ has the factor property when |FC(A)| = |B(A)| and every θ has
   the Boolean one: FC(A) ⊆ B(A) gives FC(A) = B(A), and u then maps it
   onto B(A/θ) ⊇ FC(A/θ).
6. A distributive pure lattice L is decided on P = J(L), with no interval
   scanned.  L is the down-sets of P, x ↦ J(x) = ↓x ∩ P, and j₊ ≺ j adds j.
   (a) Con(L) is Boolean, and θ ↦ S_θ = {j ∈ P : j₊ θ j} is a bijection
       onto the subsets of P.  D* is trivial: j D k needs j ≤ k∨x and
       j ≰ k₊∨x, but j is join-prime, so j ≤ x, which is excluded, or
       j < k, which puts j below k₊.  So the classes of D* are single j,
       every subset of them is a down-set, and on the lattice path the
       h-th generator is Cg(j₊, j) for the h-th member j of P, in
       increasing j: S_θ is θ's generator mask.  So P and S_θ are read off
       L itself, with no Con(L).
   (b) L/θ ≅ O(P ∖ S_θ), where P ∖ S_θ carries the order induced from P.
       D ↦ D ∖ S is a lattice map from O(P) onto O(P ∖ S), as it keeps
       unions and intersections and a down-set E of P ∖ S is ↓E ∖ S.  It
       identifies j₊ with j iff j ∈ S, so by (a) its kernel is θ for
       S = S_θ.
   (c) The factor congruences of a bounded lattice are those of its central
       elements, and in a distributive lattice the central elements are
       the complemented ones.  The complemented down-sets of a poset Q are
       the unions of the components of Q's comparability graph, as in 1.
       So |FC(L/θ)| = 2^c, for the c components of P ∖ S_θ, and
       |B(L/θ)| = |↑θ|, as Con(L/θ) is Boolean.  Every θ has the Boolean
       property: J(Con L) is an antichain, so each component is one point,
       its own greatest element (2).
   (d) α ∈ FC(L) is θ_W for a union W of components of P, as O(P) is
       O(W) × O(P ∖ W) iff W is one, and by (b) u(α) = α ∨ θ is
       W ∖ S_θ in O(P ∖ S_θ).  So θ has the factor property iff every
       component of P meets P ∖ S_θ in a connected set or not at all: the
       argument of 2, with P in place of J(Con A).
   (e) Every S ⊆ P is some S_θ, so L has the factor property iff every
       component of P is a chain.  The traces of a chain are chains, hence
       connected; and two incomparable x, y in a component C are cut apart
       by S = C ∖ {x, y}.
   (f) L is fc-normal iff every component of P is a chain, by 4 and (e).
   The first θ without the factor property, and the target it fails to
   reach, are read off the components of P ∖ S_θ in Con(L), with no
   interval listed (5d), and the first failing pair by the walk of 4.
7. FCLP from pairs of coatoms.  For a ∈ Max J, J ∖ {a} is a down-set, and
   ψ_a = θ_{J∖{a}} is a coatom of Con(A); every coatom is one.  A fails
   FCLP iff some a ≠ b in Max J lie in one atom X of FC(A) and
   |A/θ_{J∖{a,b}}| = |A/ψ_a|·|A/ψ_b|, that is iff ψ_a∘ψ_b = ∇, as
   ψ_a ∧ ψ_b = θ_{J∖{a,b}} (`factor` module doc).  In words: two coatoms
   that both miss one atom of FC(A) permute.
   If.  Let θ = θ_{J∖{a,b}}, so R = {a, b}.  ψ_a and ψ_b meet in θ and
   permute, so (ψ_b, ψ_a) is a factor pair of [θ, ∇], that is of A/θ, and
   {a} and {b} are two atoms of θ's center.  Both lie in the one trace
   X ∩ R = R, which is then cut, so θ fails (5c).
   Only if.  Let θ fail, with a cut trace X ∩ R that holds atoms F ≠ F' of
   θ's center.  F is a union of components of R, as FC(A/θ) ⊆ B(A/θ), so
   it holds a maximal member a of R, and a ∈ Max J, as R is an up-set of
   J; likewise some b ∈ F' ∩ Max J, and a ≠ b, as F and F' are disjoint.
   Let θ' = θ_{J∖{a,b}} ≥ θ.  u from A/θ to A/θ' keeps factor pairs (5b),
   and it sends the factor pair (D_θ ∪ F, D_θ ∪ (R ∖ F)) to (ψ_b, ψ_a), as
   b ∉ F and a ∉ R ∖ F.  So ψ_a∘ψ_b = ∇, and a, b ∈ X, as F, F' ⊆ X.
   So FCLP costs |Max J| block counts for the ψ_a and one per pair.  A
   component of J is an atom of B(A) (1), so it lies in one atom of
   FC(A) ⊆ B(A) (5a): a permuting pair inside one component fails FCLP,
   and FC(A)'s atoms are read only when every permuting pair spans two
   components.  On a pure lattice the counts are read off the join table
   (`factor.JSpace.count`) and FC(L)'s atoms off central elements
   (`factor.JSpace.fc_atoms`), with no Con(L), no cover and no partition.

The normality checks read (True, None) or (False, the first failing pair
in index order).  Every verdict and its evidence is the one the scans
replaced here gave; the tests keep those scans, and the checks that built
their evidence with the verdict, as oracles.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .algebra import FiniteAlgebra, _bits, _components, cached, kernel, map_table
from .congruences import (
    ConLattice,
    Congruence,
    all_congruences,
    is_arithmetical,
    is_congruence_distributive,
    is_congruence_permutable,
    join,
    maximal_indices,
    prime_indices,
)
from .errors import ParentMismatch
from .factor import _atoms, _complemented, factor_congruences, jspace


class QuotientResult(namedtuple("QuotientResult", "quotient projection theta index_in_quotient")):
    """A/theta with its canonical projection.

    projection[e] = the minimum element of e's theta-block (an element of A);
    index_in_quotient maps those representatives to dense quotient indices.
    """

    def project(self, e: int) -> int:
        """Quotient index of an element of the original carrier."""
        return self.index_in_quotient[self.projection[e]]


def quotient(A: FiniteAlgebra, theta: Congruence) -> QuotientResult:
    """The quotient algebra: carrier = theta-blocks, operations induced.

    Block labels are the member labels joined with "+", so quotient elements
    stay readable in reports."""
    if theta.algebra != A:
        raise ParentMismatch("congruence does not belong to the algebra")
    names = theta.class_labels()
    index = {r: i for i, r in enumerate(names)}
    value = [index[r] for r in theta.block_of]
    tables = {f: map_table(A.tables[f], arity, names, value) for f, arity in A.signature.operations}
    name = f"{A.name}/{theta.block_string()}" if A.name else None
    Q = FiniteAlgebra._derived(len(names), tuple(names.values()), A.signature, tables, name)
    return QuotientResult(Q, theta.block_of, theta, index)


def u_map(A: FiniteAlgebra, theta: Congruence, alpha: Congruence) -> Congruence:
    """Transport alpha to the quotient: join with theta, then project."""
    if alpha.algebra != A or theta.algebra != A:
        raise ParentMismatch("congruences do not belong to the algebra")
    Q = quotient(A, theta)
    lifted = join(alpha, theta)
    # the reps are sorted, and the least member of an (α ∨ θ)-block is the
    # least member of one of its θ-blocks, so this is canonical
    index = Q.index_in_quotient
    reps = sorted(index, key=index.get)
    return Congruence(Q.quotient, [index[Q.projection[lifted.block_of[r]]] for r in reps])


def s_inverse(A: FiniteAlgebra, theta: Congruence, beta: Congruence) -> Congruence:
    """Pull a quotient congruence back through the projection."""
    Q = quotient(A, theta)
    if beta.algebra != Q.quotient:
        raise ParentMismatch("congruence does not belong to the quotient")
    return Congruence(A, kernel(beta.block_of[Q.project(e)] for e in range(A.n)))


class LiftEvidence:
    """Witnesses (target, source) per lifted congruence, or the first
    target congruence of the quotient that nothing maps onto."""

    __slots__ = ("witnesses", "unliftable")

    def __init__(self, witnesses: list[tuple[str, str]] | None = None, unliftable: str | None = None):
        self.witnesses = [] if witnesses is None else witnesses
        self.unliftable = unliftable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.witnesses, self.unliftable) == (other.witnesses, other.unliftable)

    def __repr__(self):
        return f"LiftEvidence(witnesses={self.witnesses!r}, unliftable={self.unliftable!r})"


class Verdict(Sequence):
    """A check's result as a read-only sequence: the verdict at the call,
    and the evidence on its first read.  Index 0 is the verdict, decided
    when the check is called.  Any other index, unpacking, iteration, ==,
    hash and repr read the whole tuple, verdict first, which evidence()
    computes once and which is then kept."""

    __slots__ = ("_ok", "_evidence", "_full")

    def __init__(self, ok: bool, evidence):
        self._ok, self._evidence, self._full = ok, evidence, None

    def _tuple(self) -> tuple:
        if self._full is None:
            self._full, self._evidence = self._evidence(), None
        return self._full

    def __getitem__(self, i):
        return self._ok if i == 0 else self._tuple()[i]

    def __len__(self) -> int:
        return len(self._tuple())

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other):
        return self._tuple() == (other._tuple() if isinstance(other, Verdict) else other)

    def __hash__(self):
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


def _lifting(cl: ConLattice, t: int, factor: bool) -> tuple[int, int | None]:
    """The size of the center of [θ_t, ∇] ≅ Con(A/θ_t), FC(A/θ_t) if factor
    and B(A/θ_t) otherwise, and the first member of it that no u(α)
    reaches, None if θ_t has the lifting: entry t of the side's column,
    filled up to t first (_column)."""
    return _column(cl, factor, t + 1)[t]


@cached
def _lifting_column(cl: ConLattice, factor: bool) -> list:
    """_lifting's entries for one side, in index order, as far as _column
    has filled them: a list kept on the lattice, as a report reads each
    verdict twice."""
    return []


def _column(cl: ConLattice, factor: bool, stop: int, to_failure: bool = False) -> list:
    """The side's column, filled in index order up to entry stop, or
    through its first failure if to_failure.  θ_t lifts iff no trace of an
    atom of A's center is cut, that is iff its center has 2^m members for
    the m non-empty traces; the first member not reached is the least
    D_t ∪ F over θ_t's atoms F in cut traces (module doc, 5c and 5d).
    [θ_t, ∇] is listed at most once, and only where JSpace.side gives no
    order whose components of J ∖ D_t are θ_t's atoms; where it gives one,
    the components counted for the size are the atoms of a failing θ_t."""
    column = _lifting_column(cl, factor)
    if len(column) >= stop or to_failure and any(bad is not None for _, bad in column):
        return column
    near, atoms, tops = jspace(cl.algebra).side(factor)
    gm, at = cl.gen_masks, cl._at
    nabla = gm[cl.index_of_nabla]
    for t in range(len(column), stop):
        rest = nabla & ~gm[t]
        if near is None:
            listed = _complemented(cl, t)[1]
            size = len(listed)
        elif tops is None:
            ours = _components(near, rest)
            size = 1 << len(ours)
        else:
            # rest meets each component of J in one component or not at
            # all, so no trace is cut (module doc, 2)
            size = 1 << (tops & rest).bit_count()
        bad = None
        # the 2^k members are the 2^m images iff no trace is cut (module doc, 5c)
        if tops is None and size != 1 << sum(1 for x in atoms if x & rest):
            if near is None:
                ours = _atoms([gm[b] & rest for b, _ in listed])
            # an atom of θ_t's center lies in one trace, cut iff it is not all of it
            bad = min(at[gm[t] | f] for f in ours if all(x & rest != f for x in atoms))
        column.append((size, bad))
        if to_failure and bad is not None:
            break
    return column


def _has_lifting(A, theta, factor: bool) -> tuple[bool, LiftEvidence]:
    """The lifting with its evidence, targets rendered in the labels of A/θ:
    each member before the first one not reached, with its least source,
    the union of the atoms whose trace meets it (module doc, 5d).  A member
    is reached iff the traces of its source are all of it, so [θ, ∇] is
    listed once, for the targets."""
    if theta.algebra != A:
        raise ParentMismatch("congruence does not belong to the algebra")
    cl = all_congruences(A)
    t = cl.index(theta)
    atoms = jspace(A).side(factor)[1]
    rest = cl.gen_masks[cl.index_of_nabla] & ~cl.gen_masks[t]
    ev = LiftEvidence()
    for b, _ in _complemented(cl, t)[factor]:
        target = cl.elements[b].block_string(over=theta)
        source = sum(x for x in atoms if x & rest & cl.gen_masks[b])
        if source & rest != cl.gen_masks[b] & rest:
            ev.unliftable = target
            return False, ev
        ev.witnesses.append((target, cl.elements[cl._at[source]].block_string()))
    return True, ev


def has_fclp(A: FiniteAlgebra, theta: Congruence) -> tuple[bool, LiftEvidence]:
    """Does every factor congruence of A/theta arise from one of A?"""
    return _has_lifting(A, theta, True)


def has_cblp(A: FiniteAlgebra, theta: Congruence) -> tuple[bool, LiftEvidence]:
    """Does every Boolean congruence of A/theta arise from one of A?"""
    return _has_lifting(A, theta, False)


def _lifting_failure(A: FiniteAlgebra, factor: bool) -> int | None:
    """The index in Con(A) of the first θ without the lifting, or None: the
    walk over Con(A), run for the evidence of a failure, as no verdict
    needs it.  The column is filled only through that θ."""
    cl = all_congruences(A)
    column = _column(cl, factor, len(cl), to_failure=True)
    return next((t for t, (_, bad) in enumerate(column) if bad is not None), None)


@cached
def _holds(A: FiniteAlgebra, factor: bool) -> bool:
    """Whether A has FCLP if factor, else CBLP: also its fc-normality, else
    its b-normality (module doc, 4 and 3).  CBLP is "every component of J
    has a top" (2).  FCLP holds when its criterion does, fails when it
    fails on a distributive pure lattice, where it is an iff (6e), and is
    the pair test of 7 anywhere else.  Memoized on A and factor, as FCLP
    and fc-normality both ask it, and so do CBLP and b-normality."""
    if not factor:
        return jspace(A).tops is not None
    return _factor_criterion(A) or (jspace(A).p_order is None and _no_permuting_coatoms(A))


def _no_permuting_coatoms(A: FiniteAlgebra) -> bool:
    """FCLP on a distributive Con(A): no two maximal members a ≠ b of J
    lie in one atom of FC(A) with ψ_a∘ψ_b = ∇, that is with
    |A/θ_{J∖{a,b}}| = |A/ψ_a|·|A/ψ_b| (module doc, 7).  The block counts
    come first.  A component of J, an atom of B(A), lies in one atom of
    FC(A) ⊆ B(A) (module doc, 5a), so a permuting pair inside one fails
    FCLP, and FC(A)'s atoms are read only when every permuting pair spans
    two components: on a pure lattice off its central elements, with no
    Con(L)."""
    J = jspace(A)
    down, near, count, full = J.down, J.near, J.count, sum(J.components)
    # a is maximal iff nothing is comparable to it but what lies below it
    maxes = [1 << a for a in _bits(full) if near[a] == down[a]]
    psi = [count(full & ~a) for a in maxes]
    pairs = [
        a | b
        for x, a in enumerate(maxes)
        for y, b in enumerate(maxes[x + 1 :], x + 1)
        if count(full & ~(a | b)) == psi[x] * psi[y]
    ]
    if any(p & ~c == 0 for p in pairs for c in J.components):
        return False
    return not any(p & ~x == 0 for p in pairs for x in J.fc_atoms)


def _algebra_lifting(A, factor: bool) -> Verdict:
    """The verdict, with the walk's first failing θ as the evidence of a
    failure; only that θ renders evidence."""
    ok = _holds(A, factor)

    def evidence():
        if ok:
            return True, None, None
        theta = all_congruences(A).elements[_lifting_failure(A, factor)]
        return False, _has_lifting(A, theta, factor)[1], theta

    return Verdict(ok, evidence)


def _factor_criterion(A: FiniteAlgebra) -> bool:
    """The criterion that gives FCLP, and so fc-normality, with no walk: on
    a distributive pure lattice, every component of P = J(L) is a chain,
    which is also necessary (module doc, 6e); on any other algebra,
    every component of J(Con A) has a top and FC(A) = B(A) (module doc, 5,
    end, and 4 on FC(L) = B(L)).  On a pure lattice no Con(L) is built."""
    J = jspace(A)
    if J.p_order is not None:
        near, components = J.p_order
        return all(near[g] & c == c for c in components for g in _bits(c))
    return J.tops is not None and J.center_is_factor


def algebra_fclp(A: FiniteAlgebra) -> Verdict:
    """Conjunction of has_fclp over all congruences: (ok, evidence, θ),
    with the evidence and the congruence of the first failure, or
    (True, None, None).  It holds without a walk over the θ when
    FC(A) = B(A) and every θ has the Boolean lifting (module doc, 5), and
    on a distributive pure lattice iff every component of P = J(L) is a
    chain (module doc, 6e).  Where neither criterion decides, it fails iff
    two permuting coatoms of Con(A) miss one atom of FC(A) (module doc, 7),
    so a pure lattice enumerates no Con(L) for the verdict, which is
    decided at the call; the evidence is computed on its first read
    (Verdict)."""
    return _algebra_lifting(A, True)


def algebra_cblp(A: FiniteAlgebra) -> Verdict:
    """The same conjunction for has_cblp.  It holds iff every component of
    J(Con A) has a greatest element (module doc, 2), so a pure lattice
    builds no Con(L) for the verdict.  The verdict is decided at the call,
    and the evidence, the walk over the θ for the first failure, on its
    first read (Verdict)."""
    return _algebra_lifting(A, False)


# -- normality conditions ---------------------------------------------------


@cached
def _joins_to_nabla(cl: ConLattice) -> list[int]:
    """Bit j of entry i is set iff θ_i ∨ θ_j = ∇.  In a distributive Con(A)
    that holds iff mask_j holds J(Con A) ∖ mask_i, so entry i is the AND of
    the up-sets of the generators outside mask_i.  Memoized on the lattice."""
    gm, full = cl.gen_masks, (1 << len(cl)) - 1
    nabla = gm[cl.index_of_nabla]
    out = []
    for m in gm:
        up = full
        for g in _bits(nabla & ~m):
            up &= cl._above[g]
        out.append(up)
    return out


def is_fc_normal(A: FiniteAlgebra) -> Verdict:
    """For every pair with compose(phi, psi) the full relation, a factor
    congruence alpha must exist with phi v alpha = psi v (complement of
    alpha) = the full congruence.  Reads (True, None) or (False, the first
    failing pair of block strings).

    fc-normality is FCLP (module doc, 4), so the verdict is algebra_fclp's,
    decided at the call, and no pair is tried for it.  The evidence is
    computed on its first read (Verdict): the trigger builds no
    composition, as phi∘psi is full iff every phi-block meets every
    psi-block, i.e. iff |A/(phi∧psi)| = |A/phi|·|A/psi|, and then phi v psi
    is full too.  So only the pairs joining to ∇ that have no witness are
    tried, and of those only the maximal ones (module doc, 4)."""
    return _normality(A, True)


def _normality(A: FiniteAlgebra, factor: bool) -> Verdict:
    """fc-normality if factor, else b-normality: the verdict of FCLP or
    CBLP, with the first failing pair, from the walk over Con(A), as the
    evidence of a failure."""
    ok = _holds(A, factor)
    walk = _fc_normal_walk if factor else _b_normal_walk
    return Verdict(ok, lambda: (True, None) if ok else walk(all_congruences(A)))


def _fc_normal_walk(cl: ConLattice):
    """is_fc_normal by the walk over each φ's maximal untested pairs
    (module doc, 4)."""
    fc = factor_congruences(cl)
    joins = _joins_to_nabla(cl)
    members = sum(1 << a for a in fc.members)
    for i, m in enumerate(joins):
        witnessed = 0
        for a in _bits(m & members):
            witnessed |= joins[fc.complement[a]]
        untested = rest = m & ~witnessed
        while rest:
            # the highest index left is maximal in untested (module doc, 4)
            j = rest.bit_length() - 1
            if cl.composes_to_nabla(i, j):
                j = next(j for j in _bits(untested) if cl.composes_to_nabla(i, j))
                return False, (cl.elements[i].block_string(), cl.elements[j].block_string())
            rest &= ~cl._down_masks[j]
    return True, None


def is_b_normal(A: FiniteAlgebra):
    """For every pair with phi v psi the full congruence, Boolean
    congruences alpha, beta meeting in the diagonal must exist with
    phi v alpha = psi v beta = the full congruence; the same return shape.

    beta may be taken to be the complement of alpha: alpha ^ beta =
    diagonal puts beta below the complement, and join is monotone.  It holds
    iff every component of J(Con A) has a greatest element, which is CBLP
    (module doc, 3), so a pure lattice builds no Con(L) for the verdict.
    The verdict is decided at the call, and the evidence on its first read
    (Verdict): the walk over the phi for the first failing one, where the
    pairs joining to ∇ are listed only to name the first psi of that phi."""
    return _normality(A, False)


def _b_normal_walk(cl: ConLattice):
    """is_b_normal by the loop over the φ (module doc, 3)."""
    J = jspace(cl.algebra)
    down, components, gm = J.down, J.components, cl.gen_masks
    nabla = gm[cl.index_of_nabla]
    for i, m in enumerate(gm):
        rest, plus = nabla & ~m, 0
        for g in _bits(rest):
            plus |= down[g]
        # V, the least Boolean α with θ_i ∨ α = ∇, is the least α that u
        # takes to ∇ in [θ_i, ∇]: the components that meet rest (5d)
        v = sum(c for c in components if c & rest)
        if v & ~plus:
            j = next(j for j in _bits(_joins_to_nabla(cl)[i]) if v & ~gm[j])
            return False, (cl.elements[i].block_string(), cl.elements[j].block_string())
    return True, None


# -- report assembly --------------------------------------------------------


LiftingReport = namedtuple("LiftingReport", "algebra_name flags per_congruence")


def lifting_report(A: FiniteAlgebra, name: str | None = None) -> LiftingReport:
    """Per-congruence verdicts plus algebra-level classification flags."""
    cl = all_congruences(A)
    maxes, primes = set(maximal_indices(cl)), set(prime_indices(cl))
    rows = []
    fc_column, b_column = _column(cl, True, len(cl)), _column(cl, False, len(cl))
    for t, theta in enumerate(cl.elements):
        (fc_size, fc_bad), (center_size, b_bad) = fc_column[t], b_column[t]
        # keys in sorted order, as dump_json writes them
        rows.append(
            {
                "blocks": cl.blocks[t],
                "cblp": b_bad is None,
                "cblp_unliftable": None if b_bad is None else cl.elements[b_bad].block_string(over=theta),
                "congruence": theta.block_string(),
                "fclp": fc_bad is None,
                "fclp_unliftable": None if fc_bad is None else cl.elements[fc_bad].block_string(over=theta),
                "maximal": t in maxes,
                "prime": t in primes,
                "quotient_center_size": center_size,
                "quotient_con_size": cl.up_size(t),
                "quotient_fc_size": fc_size,
                "quotient_size": cl.blocks[t],
            }
        )
    fclp, cblp = all(row["fclp"] for row in rows), all(row["cblp"] for row in rows)
    flags = {
        "con_size": len(cl),
        # Δ's row holds the sizes of A's own centers
        "center_size": b_column[cl.index_of_delta][0],
        "fc_size": fc_column[cl.index_of_delta][0],
        "fclp": fclp,
        "cblp": cblp,
        # fc-normality is FCLP and b-normality CBLP (module doc, 4 and 3)
        "fc_normal": fclp,
        "b_normal": cblp,
        "distributive": is_congruence_distributive(A),
        "permutable": is_congruence_permutable(A),
        "arithmetical": is_arithmetical(A),
        "local": A.n > 1 and len(maxes) == 1,
        "semilocal": A.n > 1,
    }
    return LiftingReport(name or A.name, flags, rows)
