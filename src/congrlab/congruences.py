"""Congruence generation, enumeration and classification.

A congruence is stored as a canonical partition (minimum-representative
array) tied to its parent algebra.  Every partition is built one of two
ways, and both give canonical form by construction: algebra.merge_pairs
merges pairs by a union-find whose roots are block minima, and
algebra.kernel maps each element to the least element with the same key.
Congruence's constructor checks the form, as the guard.

Principal (and finitely generated) congruences come from a closure in
rounds.  Each round merges the pending pairs into the partition p, giving
q.  Each block of p that q absorbs into a block with a smaller minimum
gives the pair (q[y], y) for its old least member y, and the images of
those pairs under every operation, one argument position at a time, are
the next round's pending pairs; the closure stops when a round absorbs
nothing.  Those pairs and p generate q, so the result is generated by the
pairs of all rounds, and the images of each of them lie in it.  An
equivalence is compatible once the images of a generating set of its
pairs lie inside it: a related pair is joined by a path of generating
pairs, whose images are joined by a path inside it.  Every pair merged is
forced by the seeds, so the result is their Cg.

Joins need no closure: Con(A) is a sublattice of Eq(A), so the join of two
congruences is the join of their partitions.  Con(A) is enumerated from
J(Con A) alone, each member a principal congruence, and a pure lattice
needs no closure and no join (below).

On an algebra with a lattice reduct (join and meet among its operations)
the generators are Cg(j₊, j) for the join-irreducible elements j, where
j₊ = ⋁{x : x < j} is j's one lower cover (Freese, Proc. AMS 125, 1997).
Cover pairs generate Con(A): Cg(a, b) = Cg(a∧b, a∨b), and for a < b it is
the join of the Cg's of the covers along a maximal chain from a to b.  Each
j₊ ≺ j is a cover pair, and every cover a ≺ b gives the same congruence as
one of them.  Take j minimal with j ≤ b and j ≰ a.  Every x < j then has
x ≤ a, so j₊ = j∧a ≠ j, and a < a∨j ≤ b gives a∨j = b.  A congruence
holding (a, b) holds (j∧a, j∧b) = (j₊, j), and one holding (j₊, j) holds
(a∨j₊, a∨j) = (a, b).  So Cg(a, b) = Cg(j₊, j).  Each is in J(Con A), as
the Cg of a cover a ≺ b is: if (a, b) ∈ α ∨ β, a path from a to b whose
steps each lie in α or in β maps under x ↦ (x∨a)∧b to a path in {a, b},
each step in the same α or β, and one step is (a, b), so α or β holds it.

With no lattice reduct the generators are Cg(a, b) for a < b, and q is
kept iff q ≠ ψ_q, the join of the generators strictly below q (found as
Cg(a, b) ≤ q iff a q b).  Every θ is the join of the generators below it,
so a join-irreducible θ is a generator; q = α ∨ β with α, β < q gives
ψ_q ≥ α ∨ β = q; and a join-irreducible q has ψ_q below its one lower
cover (Davey & Priestley, ch. 2; Freese, "Computing congruences
efficiently", Algebra Universalis 59, 2008).

A pure lattice L, whose only operations besides join and meet are
constants (which constrain no congruence), is enumerated with no closure and
no partition join.  For j, k ∈ J(L), the join-irreducible elements, let
j D k iff j ≠ k and some x has j ≤ k∨x but j ≰ k₊∨x, and let D* be the
reflexive-transitive closure of D.  Then Cg(j₊, j) ≤ Cg(k₊, k) iff j D* k
(Freese, Ježek & Nation, *Free Lattices*, ch. II).  The x can be taken
meet-irreducible, with k₊ ≤ x and k ≰ x: a maximal m ≥ k₊∨x with j ≰ m has
j ≤ k∨x ≤ k∨m, and m = u∧v with u, v > m would put j below u and v, hence
below m.  So D costs one mask operation per such pair (k, m), and D* comes
from Warshall's algorithm on bitmask rows.  j and k are D*-equivalent iff
their D*-down-sets are equal.  The classes, ordered by D*, are J(Con L), and
as Con(L) is distributive its members are the down-sets S of the classes.
The class of a cover a ≺ b is that of a minimal j ≤ b with j ≰ a, as
Cg(a, b) = Cg(j₊, j).

D is empty iff L is distributive.  If L is distributive, every j is
join-prime, so j ≤ k∨x gives j ≤ x, which j ≰ k₊∨x excludes, or j ≤ k,
and then j ≠ k puts j below k₊: no j D k.  If L is not distributive, some
j ∈ J(L) is not join-prime (Davey & Priestley, ch. 10), so j ≤ ⋁K for a
finite K ⊆ J(L) with j ≰ k for each k ∈ K (each element is the join of the
join-irreducibles below it).  Take such a K with ↓K ∩ J(L) least in size,
and then K least, so K is an antichain, and take any k ∈ K (K ≠ ∅, as j is
not the bottom) and x = ⋁(K ∖ {k}).  Then j ≤ k∨x and j ≠ k.  Were
j ≤ k₊∨x, the join-irreducibles below k₊ with K ∖ {k} would be such a set
that leaves out k, so its down-set would be smaller.  So j D k.  Hence
L is distributive iff every j is alone under D*, a class with no class
below it.

So Con(L) is built in two steps.  The J step, algebra.join_classes, is one
pass per lattice.  It reads J(L), each j₊ and the meet-irreducibles M(L)
off the irreducibles that L's lattice test kept (j ∈ J(L) iff ↓j ∖ {j} is
some ↓m, and then m = j₊; dually for M(L)), then D off the joins j∨m,
each the element whose up-set is ↑j ∩ ↑m, which decides distributivity
as above.  When D is empty
J(Con L) is an antichain, one class per j, and nothing more is read.  Otherwise D* comes by Warshall's algorithm, then
the classes with a seed pair (j₊, j) each and the classes below each one,
and J(Con L)'s order: the classes comparable to each one, the components
and their tops.  It finds no cover of L and builds no partition: J(Con L)
and its order are read off it with no Con(L), and so are the verdicts that
depend on that order alone (`lifting` module doc).  The second step reads
each class's pairs off the order masks, algebra.class_pairs: for each
j ∈ J(L) the pairs (y, j∨y) with j₊ ≤ y and j ≰ y, which lie in Cg(j₊, j)
and include every cover of L of j's class (its docstring has the proof).
No cover of L is found on either step.  The block counts of FC(L) = B(L)
and of the coatom pairs are read off the pairs' upper ends, which the
lattice test kept (`factor.JSpace.count`), and the enumeration merges the
pairs.

The partition of ⋁S is the union-find over the pairs of the classes in S,
as the covers of those classes ⊆ their pairs ⊆ ⋁S.  Each pair lies in its
class's congruence, which is below ⋁S, so the union-find gives at most ⋁S.
Conversely let a ⋁S b.  Then a ⋁S a∧b ⋁S b, so take a < b.  The blocks of a
lattice congruence are convex, so every cover on a maximal chain from a to
b lies in ⋁S.  Its Cg is join-irreducible, hence join-prime in the
distributive Con(L), so it lies below a member of S: its class is in S, and
the cover is one of that class's pairs.

Every algebra with a lattice reduct goes through one down-set routine,
_down_sets.  Its Con(A) is distributive (2 below), so S ↦ ⋁S is an
isomorphism from the down-sets of J(Con A) onto Con(A) (Birkhoff).  On a
pure lattice J(Con A) is the classes with their pairs; with other
operations it is the generators, ordered by Cg(a, b) ≤ q iff a q b, and
q's pairs are the (e, q[e]), whose merge is the partition join with q.  A
down-set plus a member c has the down-set's partition with c's pairs
merged, and the down-sets are counted against CON_CAP before any partition
is built.  With no lattice reduct the generators are closed under joins.

Both enumerations hand ConLattice each partition but Δ as a step (i, g),
partition i joined with member g, and each partition's mask, the members
below it: with a lattice reduct the down-set itself, as each member is
join-prime, else one seed lookup per member (a θ b) as each join is tried.
With above(g) the set of θ that hold g, ConLattice reads Con(A)'s order
off them by two identities.

1. ↑(θ ∨ g) = ↑θ ∩ above(g), as φ ≥ θ ∨ g iff φ ≥ θ and φ ≥ g.  One AND per
   congruence, on every algebra.
2. Con(A) is distributive for every A with a lattice reduct L (its join
   and meet), so no join-prime test runs on such an A.  Con(A) and Con(L)
   are sublattices of Eq(A) (below), and Con(A) ⊆ Con(L), so Con(A) is a
   sublattice of Con(L), which is distributive (Funayama & Nakayama, Proc.
   Imp. Acad. Tokyo 18, 1942), and so is each sublattice of a distributive
   lattice.

Con(A) is held as masks over J(Con A) on every algebra, as every θ is the
join of the members below it, mask(θ).  So:

- θ ≤ φ iff mask(θ) ⊆ mask(φ), and mask(θ ∧ φ) = mask(θ) ∩ mask(φ);
- if mask(θ) ∪ mask(φ) is the mask of some ψ, then ψ = θ ∨ φ.  When Con(A)
  is distributive it always is, as join-irreducibles are then join-prime
  (Davey & Priestley, *Introduction to Lattices and Order*, ch. 5 and 10);
- in a distributive Con(A), θ ≥ τ has a complement relative to τ in
  [τ, ∇] iff mask(τ) ∪ (J ∖ mask(θ)) is a mask, and that is its mask.

Each question about the order then has one test, on every algebra: Con(A)
is distributive iff every j ∈ J is join-prime, i.e. iff the union of the
masks without j is a mask (2 above answers it with a lattice reduct);
θ ≠ ∇ is prime iff the meet of the j ≰ θ is not below θ; θ ≺ φ iff
↑θ ∩ ↓φ = {θ, φ}, read off the up- and down-masks.

Composition of relations follows the convention

    compose(phi, psi) = { (a, b) | exists x with (a, x) in psi and (x, b) in phi }

i.e. ``compose(phi, psi)`` applies psi first.  The two textbook conventions
differ exactly on non-permuting pairs, so this is load-bearing: see the L3
example in the tests, where (0, 1) lies in one order of composition but not
the other.

Con(A)'s masks and block counts answer the two questions asked of
compositions most often without composing: θ∘φ = ∇ iff
|A/(θ∧φ)| = |A/θ|·|A/φ|, and Con(A) is permutable iff its join-irreducibles
pairwise permute.  θ and φ permute iff θ∘φ = θ∨φ, that is iff in each block
B of θ∨φ every θ-block meets every φ-block.  The blocks of θ∧φ are the
non-empty meets of a θ-block with a φ-block, and those two lie in one B.
So with a_B and b_B the numbers of θ- and φ-blocks inside B, θ and φ
permute iff Σ_B a_B·b_B = |A/(θ∧φ)|: one pass over A, counting each block
at its least member.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from functools import total_ordering
from types import MappingProxyType

from .algebra import (
    CON_CAP,
    FiniteAlgebra,
    _bits,
    block_masks,
    cached,
    class_pairs,
    cover_pairs,
    delta_partition,
    flat_table,
    join_classes,
    join_partitions,
    kernel,
    meet_partitions,
    merge_pairs,
    nabla_partition,
    partition_refines,
)
from .errors import (
    InvalidCongruence,
    ParentMismatch,
    SizeCap,
    TrivialAlgebra,
)

BRUTE_FORCE_CAP = 9


@total_ordering
class Congruence:
    """A canonical partition of an algebra's carrier, verified compatible."""

    __slots__ = ("algebra", "block_of", "_masks", "_labels")

    def __init__(self, algebra: FiniteAlgebra, block_of, check=False):
        """block_of is a list or tuple of n element indices, block_of[e]
        the least member of e's block; anything else raises
        InvalidCongruence."""
        if not isinstance(block_of, (list, tuple)):
            raise InvalidCongruence("a partition is a list or tuple of element indices")
        self.algebra = algebra
        self.block_of = block_of = tuple(block_of)
        self._masks = self._labels = None
        n = algebra.n
        if len(block_of) != n:
            raise InvalidCongruence("partition length does not match the carrier")
        for e, r in enumerate(block_of):
            if not (isinstance(r, int) and 0 <= r < n):
                raise InvalidCongruence(f"partition entry {r!r} is not an element index in 0..{n - 1}")
            if r > e or block_of[r] != r:
                raise InvalidCongruence("partition is not in canonical form")
        if check:
            bad = compatibility_violation(algebra, self.block_of)
            if bad is not None:
                f, a, b = bad
                raise InvalidCongruence(
                    f"not a congruence: {f}({algebra.labels[a]}) and "
                    f"{f}({algebra.labels[b]}) land in different blocks "
                    f"although {algebra.labels[a]} ~ {algebra.labels[b]}"
                )

    @classmethod
    def _canonical(cls, algebra: FiniteAlgebra, block_of: tuple):
        """The private constructor, for a canonical partition tuple that
        congrlab built itself: a ConLattice's members are made canonical,
        each a kernel or a union-find that roots a block at its least
        member, and so is a product congruence's fold, so nothing is
        checked again."""
        c = object.__new__(cls)
        c.algebra, c.block_of = algebra, block_of
        c._masks = c._labels = None
        return c

    # equality/order ignore the parent's identity beyond structure: congruences
    # of different algebras never meet in practice, and sorting must be cheap.
    def __eq__(self, other):
        return isinstance(other, Congruence) and self.block_of == other.block_of

    def __hash__(self):
        return hash(self.block_of)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (-self.num_blocks, self.block_of)

    def __repr__(self):
        return f"Congruence({self.block_string()})"

    @property
    def num_blocks(self) -> int:
        return len(set(self.block_of))

    def contains(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def masks(self) -> tuple[int, ...]:
        if self._masks is None:
            self._masks = block_masks(self.block_of)
        return self._masks

    def class_labels(self) -> MappingProxyType:
        """The label of each element of A/θ, keyed by its block's
        representative: the block's member labels, in index order, joined
        by "+".  Built once per congruence, and read-only."""
        if self._labels is None:
            blocks = _grouped(self.block_of, self.algebra.labels)
            self._labels = MappingProxyType({r: "+".join(blk) for r, blk in blocks.items()})
        return self._labels

    def refines(self, other: "Congruence") -> bool:
        return partition_refines(self.block_of, other.block_of)

    def is_delta(self) -> bool:
        return self.num_blocks == self.algebra.n

    def is_nabla(self) -> bool:
        return self.num_blocks == 1

    def block_string(self, over: "Congruence | None" = None) -> str:
        """Blocks as "a,b|c".  With over = θ ≤ self, render self/θ in the
        labels of A/θ, θ.class_labels().  A block's first member is its
        least, so the blocks come out grouped in one pass, in the order of
        their least members."""
        labels = self.algebra.labels
        if over is None:
            return "|".join(map(",".join, _grouped(self.block_of, labels).values()))
        name = over.class_labels()
        blocks = _grouped(self.block_of, map(name.get, range(len(labels))))
        return "|".join(",".join(x for x in blk if x is not None) for blk in blocks.values())


def _grouped(block_of, names) -> dict:
    """names[e] grouped by block_of[e], in order of first appearance."""
    blocks: dict = {}
    for r, x in zip(block_of, names):
        blocks.setdefault(r, []).append(x)
    return blocks


def delta(A: FiniteAlgebra) -> Congruence:
    return Congruence(A, delta_partition(A.n))


def nabla(A: FiniteAlgebra) -> Congruence:
    return Congruence(A, nabla_partition(A.n))


def compatibility_violation(A: FiniteAlgebra, block_of):
    """First instance (opname, result_a, result_b) breaking compatibility,
    or None.  Checked one argument position at a time, which suffices by
    composing substitutions, and for each operation in signature order on
    the pairs (r, e), r the least member of e's block, in increasing (r, e).
    That names the violation the scan of every related pair (a, b) in
    increasing order names first: if (a, b) breaks f, so does (r, a) or
    (r, b), and both come before (a, b) unless a = r.  Every operation is
    compared on its rows of _operations, which list the one-position images
    in that scan's order, so a symmetric binary table is compared once."""
    moved = sorted((r, e) for e, r in enumerate(block_of) if r != e)
    if not moved:
        return None
    block = block_of.__getitem__
    for fname, rows in _operations(A):
        images = {}
        for r, e in moved:
            want = images.get(r)
            if want is None:
                want = images[r] = list(map(block, rows[r]))
            got = list(map(block, rows[e]))
            if got != want:
                z = next(z for z, (u, v) in enumerate(zip(want, got)) if u != v)
                return (fname, rows[r][z], rows[e][z])
    return None


def parse_congruence(A: FiniteAlgebra, text: str) -> Congruence:
    """Parse the CLI block syntax, e.g. "0,m|1", against A's labels."""
    seen = [-1] * A.n
    for blk in text.split("|"):
        members = [m.strip() for m in blk.split(",") if m.strip()]
        if not members:
            raise InvalidCongruence("empty block in congruence string")
        idxs = [A.index_of(m) for m in members]
        rep = min(idxs)
        for e in idxs:
            if seen[e] != -1:
                raise InvalidCongruence(
                    f"element {A.labels[e]} appears in two blocks"
                )
            seen[e] = rep
    missing = [A.labels[e] for e in range(A.n) if seen[e] == -1]
    if missing:
        raise InvalidCongruence(f"elements not covered: {', '.join(missing)}")
    return Congruence(A, seen, check=True)


# -- Mal'cev closure --------------------------------------------------------


def _close(A: FiniteAlgebra, seed_pairs) -> tuple[int, ...]:
    """Cg of the seed pairs, in rounds (module doc)."""
    ops = _operations(A)
    p, pending = delta_partition(A.n), seed_pairs
    while True:
        q = merge_pairs(p, pending)
        moved = [(q[y], y) for y, r in enumerate(p) if r == y and q[y] != y]
        if not moved:
            return q
        pending = []
        for _, rows in ops:
            for x, y in moved:
                pending += zip(rows[x], rows[y])
        p = q


@cached
def _operations(A: FiniteAlgebra) -> list:
    """(name, rows) for each operation f of positive arity, in signature
    order.  rows[x] lists the values of f with x in one argument position:
    for each tuple rest of the other arguments, in increasing order, and
    each position i, f(rest[:i] + (x,) + rest[i:]).  x θ y must give
    rows[x][z] θ rows[y][z] for every z, and those are all the one-position
    images of (x, y), in the order the scan of every related pair takes
    them.  So a unary table gives (t[x],), and a binary one t[x][z], t[z][x]
    for z = 0, 1, ...; when a binary t is symmetric, as join and meet are,
    the two are equal, and rows is t itself, walked once.  Decided from the
    tables."""
    ops, n = [], A.n
    for f, arity in A.signature.operations:
        if not arity:
            continue
        rows = t = A.tables[f]
        if arity != 2 or tuple(zip(*t)) != t:
            flat = flat_table(t, arity)
            # f(args) is flat[Σ args[i]·w[i]]; each (rest, i) gives the
            # index with 0 at position i, and x adds x·w[i]
            w = [n ** (arity - 1 - i) for i in range(arity)]
            spots = [
                (sum(a * wa for a, wa in zip(rest[:i] + (0,) + rest[i:], w)), w[i])
                for rest in itertools.product(range(n), repeat=arity - 1)
                for i in range(arity)
            ]
            rows = tuple(tuple(flat[o + x * wi] for o, wi in spots) for x in range(n))
        ops.append((f, rows))
    return ops


def principal_congruence(A: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Smallest congruence identifying a and b (Mal'cev closure)."""
    return cg_generated(A, [(a, b)])


def cg_generated(A: FiniteAlgebra, pairs) -> Congruence:
    """Smallest congruence containing all the given pairs: a list or tuple
    of pairs of element indices in 0..n-1, else InvalidCongruence."""
    if not isinstance(pairs, (list, tuple)):
        raise InvalidCongruence("the pairs are not a list or tuple")
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(isinstance(x, int) and 0 <= x < A.n for x in pair)):
            raise InvalidCongruence(f"{pair!r} is not a pair of element indices in 0..{A.n - 1}")
    return Congruence(A, _close(A, pairs))


def _require_same_parent(theta: Congruence, phi: Congruence):
    if theta.algebra is not phi.algebra and theta.algebra != phi.algebra:
        raise ParentMismatch("congruences belong to different algebras")


def join(theta: Congruence, phi: Congruence) -> Congruence:
    """θ ∨ φ in Con(A).  Both arguments must be congruences: their join is
    then the partition join, as Con(A) is a sublattice of Eq(A).  For the
    congruence generated by arbitrary pairs, use cg_generated."""
    _require_same_parent(theta, phi)
    return Congruence(theta.algebra, join_partitions(theta.block_of, phi.block_of))


def meet(theta: Congruence, phi: Congruence) -> Congruence:
    _require_same_parent(theta, phi)
    return Congruence(theta.algebra, meet_partitions(theta.block_of, phi.block_of))


# -- relations --------------------------------------------------------------


class Relation:
    """Binary relation on a carrier, stored as per-row bitmasks.

    rows[a] has bit b set iff (a, b) is in the relation.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        self.n = n
        self.rows = tuple(rows)

    def __eq__(self, other):
        return isinstance(other, Relation) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __contains__(self, pair):
        a, b = pair
        return bool(self.rows[a] >> b & 1)

    def contains_relation(self, other: "Relation") -> bool:
        return all(r | s == r for r, s in zip(self.rows, other.rows))

    def transpose(self) -> "Relation":
        rows = [0] * self.n
        for a, r in enumerate(self.rows):
            for b in _bits(r):
                rows[b] |= 1 << a
        return Relation(self.n, rows)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_full(self) -> bool:
        full = (1 << self.n) - 1
        return all(r == full for r in self.rows)


def compose(phi: Congruence, psi: Congruence) -> Relation:
    """The relation phi o psi: apply psi first, then phi (see module doc)."""
    _require_same_parent(phi, psi)
    n = phi.algebra.n
    prow = phi.masks()
    srow = psi.masks()
    rows = []
    for a in range(n):
        acc = 0
        for x in _bits(srow[a]):
            acc |= prow[x]
        rows.append(acc)
    return Relation(n, rows)


def permutes(theta: Congruence, phi: Congruence) -> bool:
    return compose(theta, phi) == compose(phi, theta)


# -- enumeration ------------------------------------------------------------


class ConLattice:
    """The congruence lattice of a finite algebra.

    elements are sorted canonically: number of blocks descending, then
    lexicographically by partition array — so Δ is first and ∇ last, and
    blocks[i] = |A/θ_i|.  The g-th member of J(Con A) is Cg(a, b) for
    (a, b) = seeds[g], and gen_masks[i], θ_i's mask over J(Con A), has bit
    g set iff it lies below θ_i (module doc).  _above[g] is the set of
    indices of the θ above member g, and ↑θ_i and ↓θ_i are index masks.

    Both enumerations hand it each θ but Δ as a step, θ_i ∨ g for an
    earlier θ_i and a member g, and the mask of each θ (module doc), and it
    reads the rest off them, the same way on every algebra:

    - _above is the transpose of the masks;
    - ↑(θ_i ∨ g) = ↑θ_i ∩ _above[g] (module doc, 1): one AND per congruence;
    - member g is θ_e for e = _member_index[g], the lowest index in
      _above[g], as index order extends the order;
    - Con(A) is distributive when A has a lattice reduct, as it is a
      sublattice of the reduct's Con, which is distributive (Funayama &
      Nakayama): is_distributive folds nothing there.

    ↓θ, which only the covers of Con(A) and the fc-normal walk read, is
    made on its first read (_down_masks), as are the joins to ∇.  Those two
    and the primes are each one fold over the members outside each mask
    (_outside).
    """

    __slots__ = (
        "algebra",
        "elements",
        "blocks",
        "gen_masks",
        "seeds",
        "index_of_delta",
        "index_of_nabla",
        "_index",
        "_at",
        "_above",
        "_member_index",
        "_up_masks",
        "_downs",
        "_cache",
    )

    def __init__(self, algebra: FiniteAlgebra, partitions, seeds, steps, masks):
        """partitions are all of Con(A), partitions[0] being Δ; steps[x − 1]
        = (i, g) makes partitions[x] the join of partitions[i] with member g
        of J(Con A), and masks[x] is the set of members below partitions[x]
        (class doc)."""
        self.algebra = algebra
        self.seeds = seeds
        counts = [len(set(p)) for p in partitions]
        order = sorted(range(len(partitions)), key=lambda x: (-counts[x], partitions[x]))
        self.elements = [Congruence._canonical(algebra, partitions[x]) for x in order]
        self._index = {c.block_of: i for i, c in enumerate(self.elements)}
        self._cache = {}
        self.blocks = [counts[x] for x in order]
        self.gen_masks = masks = [masks[x] for x in order]
        self._at = {m: i for i, m in enumerate(masks)}
        self._above = above = _transpose(masks, len(seeds))
        self._member_index = [_lowest_bit(a) for a in above]
        ups = [(1 << len(order)) - 1]  # ↑(θ_i ∨ g) = ↑θ_i ∩ above[g]
        for i, g in steps:
            ups.append(ups[i] & above[g])
        self._up_masks = [ups[x] for x in order]
        self._downs = None
        self.index_of_delta = self._index[delta_partition(algebra.n)]
        self.index_of_nabla = self._index[nabla_partition(algebra.n)]

    @property
    def _down_masks(self) -> list[int]:
        """↓θ_i for each i, made on first read: θ_j ≤ θ_i iff no member of
        J(Con A) outside mask_i lies below θ_j, so ↓θ_i is the meet of the
        complements of above[g] over those g."""
        if self._downs is None:
            full = (1 << len(self)) - 1
            self._downs = self._outside([~a for a in self._above], full)
        return self._downs

    @cached
    def _joins_to_nabla(self) -> list[int]:
        """Bit j of entry i is set iff θ_i ∨ θ_j = ∇.  In a distributive
        Con(A) that holds iff mask_j holds J(Con A) ∖ mask_i, so entry i is
        the AND of the up-sets of the members outside mask_i."""
        return self._outside(self._above, (1 << len(self)) - 1)

    def _outside(self, per: list[int], start: int) -> list[int]:
        """For each θ_i, start ANDed with per[g] over the members g of
        J(Con A) outside mask_i: the one fold by which ↓θ, the joins to ∇
        and the primes are read off the masks."""
        nabla, out = self.gen_masks[self.index_of_nabla], []
        for m in self.gen_masks:
            acc = start
            for g in _bits(nabla & ~m):
                acc &= per[g]
            out.append(acc)
        return out

    def __len__(self):
        return len(self.elements)

    def index(self, theta: Congruence) -> int:
        try:
            return self._index[theta.block_of]
        except KeyError:
            raise InvalidCongruence(
                f"{theta.block_string()} is not a congruence of this algebra"
            ) from None

    def join(self, i: int, j: int) -> int:
        """θ_i ∨ θ_j: the θ whose mask is the union of theirs, if there is
        one, for it is then the least upper bound; else the lowest index
        above both, since index order extends the order."""
        hit = self._at.get(self.gen_masks[i] | self.gen_masks[j])
        return _lowest_bit(self._up_masks[i] & self._up_masks[j]) if hit is None else hit

    def meet(self, i: int, j: int) -> int:
        """θ_i ∧ θ_j: its mask is the intersection of theirs."""
        return self._at[self.gen_masks[i] & self.gen_masks[j]]

    def leq(self, i: int, j: int) -> bool:
        """θ_i ≤ θ_j: every generator below θ_i is below θ_j."""
        return self.gen_masks[i] & ~self.gen_masks[j] == 0

    def up_set(self, i: int) -> list[int]:
        return _bits(self._up_masks[i])

    def up_size(self, i: int) -> int:
        """|↑θ_i|, which is |Con(A/θ_i)| by the correspondence theorem."""
        return self._up_masks[i].bit_count()

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with θ_i ≺ θ_j, in index order."""
        return sorted(cover_pairs(self._up_masks, self._down_masks))

    @cached
    def is_distributive(self) -> bool:
        """True on an algebra with a lattice reduct (class doc).  Elsewhere
        each join-irreducible g must be join-prime: the θ not above g have a
        join not above g iff their masks' union is a mask (Davey &
        Priestley, ch. 10)."""
        if self.algebra.is_lattice:
            return True
        gm = self.gen_masks
        return all(
            functools.reduce(operator.or_, (m for m in gm if not m >> g & 1), 0) in self._at
            for g in _bits(gm[self.index_of_nabla])
        )

    def composes_to_nabla(self, i: int, j: int) -> bool:
        """θ_i∘θ_j = ∇, without composing: that holds iff every θ_i-block
        meets every θ_j-block, i.e. iff |A/(θ_i∧θ_j)| = |A/θ_i|·|A/θ_j|."""
        return self.blocks[self.meet(i, j)] == self.blocks[i] * self.blocks[j]

    def permutes(self, i: int, j: int) -> bool:
        """θ_i∘θ_j = θ_j∘θ_i, without composing: Σ_B a_B·b_B = |A/(θ_i∧θ_j)|
        over the blocks B of θ_i∨θ_j (module doc).  Each θ-block is counted
        at its least member."""
        join_of = self.elements[self.join(i, j)].block_of
        a, b = (
            Counter(join_of[r] for e, r in enumerate(self.elements[x].block_of) if r == e) for x in (i, j)
        )
        return sum(a[B] * b[B] for B in a) == self.blocks[self.meet(i, j)]

    @cached
    def is_permutable(self) -> bool:
        """Whether all congruences pairwise permute, tested on the
        join-irreducibles alone: if α, β, γ pairwise permute then
        α∨β = α∘β permutes with γ, so pairwise permuting join-irreducibles
        make every join of them, i.e. every congruence, permute."""
        ji = sorted(self._member_index)
        return all(self.permutes(i, j) for x, i in enumerate(ji) for j in ji[x + 1 :])


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _transpose(rows: list[int], width: int) -> list[int]:
    """The columns of a bit matrix: bit i of out[g] is bit g of rows[i].
    The rows are written out as width binary digits each, the last row
    first, so column g is every width-th digit from the (width − 1 − g)-th:
    one string slice a column, with no loop over the rows per column."""
    digits = "".join([format(r, f"0{width}b") for r in reversed(rows)])
    return [int(digits[width - 1 - g :: width], 2) for g in range(width)]


def is_pure_lattice(A: FiniteAlgebra) -> bool:
    """A lattice whose operations besides join and meet are constants, which
    constrain no congruence.  Read from the signature, not the kind: a
    lattice-kind spec may carry another operation, and that can shrink Con."""
    return A.is_lattice and all(f in ("join", "meet") or ar == 0 for f, ar in A.signature.operations)


def _enumerate_partitions(A: FiniteAlgebra) -> tuple:
    """ConLattice's arguments: Con(A)'s partitions, Δ first; one seed pair
    (a, b) per member Cg(a, b) of J(Con A); the step (i, g) that made each
    partition but Δ, the join of partition i with member g; and the mask of
    the members below each partition."""
    n = A.n
    if is_pure_lattice(A):
        # the classes of the J step, with the pairs read off the order
        step = join_classes(A)
        pairs = [[] for _ in step.seeds]
        for c, more in class_pairs(A):
            pairs[c] += more
        return _down_sets(n, step.under, pairs, step.seeds)
    # Cg(a, b) over cover pairs generates Con, and each cover pair gives the
    # same Cg as some (j₊, j) with j join-irreducible (module doc)
    gen_pairs = join_classes(A).pairs if A.is_lattice else itertools.combinations(range(n), 2)
    gens = {}
    for a, b in gen_pairs:
        gens.setdefault(_close(A, [(a, b)]), (a, b))
    if not A.is_lattice:
        return _close_under_joins(n, _join_irreducibles(n, gens))
    # each generator is join-irreducible and Con(A) is distributive (module
    # doc); Cg(a, b) ≤ q iff a q b, and q's pairs are its (e, q[e])
    seeds = tuple(gens.values())
    under = [sum(1 << h for h, (a, b) in enumerate(seeds) if h != g and q[a] == q[b]) for g, q in enumerate(gens)]
    pairs = [[(e, r) for e, r in enumerate(q) if r != e] for q in gens]
    return _down_sets(n, under, pairs, seeds)


def _join_irreducibles(n: int, gens: dict) -> dict:
    """The members of J(Con A) among the generators gens, each q ≠ ψ_q
    (module doc).  A generator already below the join so far is skipped."""
    kept = {}
    for q, seed in gens.items():
        psi = delta_partition(n)
        for p, (a, b) in gens.items():
            if q[a] == q[b] and p is not q and psi[a] != psi[b]:
                psi = join_partitions(psi, p)
        if psi != q:
            kept[q] = seed
    return kept


def _down_sets(n: int, under, pairs, seeds) -> tuple:
    """_enumerate_partitions with a lattice reduct: the down-sets of
    J(Con A) (module doc).  Member c has the seed pair seeds[c], the mask
    under[c] of the members strictly below it, and pairs[c], whose merge into
    the partition of a down-set S ⊇ under[c] gives that of S ∪ {c}.  Each
    down-set's step is (i, c), the earlier down-set i plus c, and the
    down-sets are the masks.  They are counted against CON_CAP before any
    partition is built."""
    # each down-set is an earlier one plus a member c, where the members
    # come in an order that puts c after every member below it
    made, sets = [], [0]
    for c in sorted(range(len(seeds)), key=lambda c: under[c].bit_count()):
        for i in range(len(sets)):
            if under[c] & ~sets[i] == 0:
                sets.append(sets[i] | 1 << c)
                made.append((i, c))
        if len(sets) > CON_CAP:
            raise SizeCap(f"congruence count exceeds cap {CON_CAP}")
    parts = [delta_partition(n)]
    for i, c in made:
        parts.append(merge_pairs(parts[i], pairs[c]))
    return parts, seeds, made, sets


def _close_under_joins(n: int, gens: dict) -> tuple:
    """_enumerate_partitions with no lattice reduct: Δ and every partition
    join of the members gens of J(Con A), each mapped to its seed pair
    (a, b), reached by joining every new partition with each member;
    p ∨ Cg(a, b) = p when a p b, so that join is skipped, and the members
    skipped are the mask of p."""
    parts, steps, masks = [delta_partition(n)], [], []
    found = set(parts)
    for i, p in enumerate(parts):  # parts grows as it is walked
        mask = 0
        for g, (q, (a, b)) in enumerate(gens.items()):
            if p[a] == p[b]:
                mask |= 1 << g
                continue
            r = join_partitions(p, q)
            if r not in found:
                found.add(r)
                parts.append(r)
                steps.append((i, g))
                if len(found) > CON_CAP:
                    raise SizeCap(f"congruence count exceeds cap {CON_CAP}")
        masks.append(mask)
    return parts, tuple(gens.values()), steps, masks


@cached
def all_congruences(A: FiniteAlgebra) -> ConLattice:
    """Enumerate Con(A): on a pure lattice from the dependency relation on
    J(L), else by closing the principal congruences under join (module doc).
    Memoized on A, so the lattice lives exactly as long as A does."""
    return ConLattice(A, *_enumerate_partitions(A))


def brute_force_congruences(A: FiniteAlgebra) -> list[Congruence]:
    """Independent oracle: filter every set partition of the carrier."""
    n = A.n
    if n > BRUTE_FORCE_CAP:
        raise SizeCap(f"brute force capped at carrier size {BRUTE_FORCE_CAP}")
    out = []
    for block_of in _all_partitions(n):
        if compatibility_violation(A, block_of) is None:
            out.append(Congruence(A, block_of))
    out.sort()
    return out


def _all_partitions(n):
    """All set partitions of 0..n-1 in canonical (min-representative) form,
    via restricted-growth strings."""
    rgs = [0] * n

    def gen(i, max_used):
        if i == n:
            yield kernel(rgs)
            return
        for v in range(max_used + 2):
            rgs[i] = v
            yield from gen(i + 1, max(max_used, v))

    yield from gen(1, 0) if n > 1 else iter([(0,) * n])


# -- classification ---------------------------------------------------------


def is_congruence_distributive(A: FiniteAlgebra) -> bool:
    return all_congruences(A).is_distributive()


def is_congruence_permutable(A: FiniteAlgebra) -> bool:
    return all_congruences(A).is_permutable()


def is_arithmetical(A: FiniteAlgebra) -> bool:
    cl = all_congruences(A)
    return cl.is_distributive() and cl.is_permutable()


def maximal_congruences(A: FiniteAlgebra) -> list[Congruence]:
    """Maximal elements of Con(A) minus ∇ (the coatoms' order filter floor)."""
    cl = all_congruences(A)
    if len(cl) == 1:
        raise TrivialAlgebra("the one-element algebra has no maximal congruence")
    return [cl.elements[i] for i in maximal_indices(cl)]


def maximal_indices(cl: ConLattice) -> list[int]:
    """The indices of the maximal congruences: θ_i ≠ ∇ with ↑θ_i = {θ_i, ∇}."""
    nb = cl.index_of_nabla
    return [i for i, up in enumerate(cl._up_masks) if up == 1 << i | 1 << nb and i != nb]


def prime_congruences(A: FiniteAlgebra) -> list[Congruence]:
    """θ ≠ ∇ such that α∩β ⊆ θ forces α ⊆ θ or β ⊆ θ: in a finite lattice,
    the θ with ⋀{α : α ≰ θ} ≰ θ.  Each α ≰ θ lies above a join-irreducible
    j ≰ θ, so that meet's mask is the AND of the masks of those j.  On ∇ the
    family is empty and its meet is ∇ itself, so ∇ is never prime."""
    cl = all_congruences(A)
    return [cl.elements[i] for i in prime_indices(cl)]


def prime_indices(cl: ConLattice) -> list[int]:
    """The indices of the prime congruences (see prime_congruences): the
    meet of the members outside θ's mask, each θ_e for its member index e,
    is not below θ."""
    gm = cl.gen_masks
    meets = cl._outside([gm[e] for e in cl._member_index], gm[cl.index_of_nabla])
    return [i for i, (below, m) in enumerate(zip(meets, gm)) if below & ~m]
