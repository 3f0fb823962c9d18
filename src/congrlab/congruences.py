"""Congruence generation, enumeration and classification.

A congruence is stored as a canonical partition (minimum-representative
array) tied to its parent algebra.  Principal (and finitely generated)
congruences come from a union-find with queue-driven compatibility
propagation: whenever two classes merge via the pair (x, y), every operation
is applied to x and y against all argument completions and the results are
merged too, until no queue entries remain.  Joins need no propagation: Con(A)
is a sublattice of Eq(A), so the join of two congruences is the join of their
partitions, and Con(A) is enumerated by joining with the principal
generators alone.

On an algebra with a lattice reduct (join and meet among its operations)
the generators are Cg(j₊, j) for the join-irreducible elements j, where
j₊ = ⋁{x : x < j} is j's one lower cover (Freese, Proc. AMS 125, 1997).
Cover pairs generate Con(A): Cg(a, b) = Cg(a∧b, a∨b), and for a < b it is
the join of the Cg's of the covers along a maximal chain from a to b.  Each
j₊ ≺ j is a cover pair, and every cover a ≺ b gives the same congruence as
one of them.  Take j minimal with j ≤ b and j ≰ a.  Every x < j then has
x ≤ a, so j₊ = j∧a ≠ j, and a < a∨j ≤ b gives a∨j = b.  A congruence
holding (a, b) holds (j∧a, j∧b) = (j₊, j), and one holding (j₊, j) holds
(a∨j₊, a∨j) = (a, b).  So Cg(a, b) = Cg(j₊, j).

Con(A) is ordered on generator masks, for every algebra.  Cg(a, b) ≤ θ iff
a θ b, so the mask of θ (bit g set iff the g-th distinct generator lies
below θ) costs one lookup per generator.  Every θ found is a join of
generators, so θ = ⋁{g : g ≤ θ}, and θ ≤ φ iff mask(θ) ⊆ mask(φ).

Composition of relations follows the convention

    compose(phi, psi) = { (a, b) | exists x with (a, x) in psi and (x, b) in phi }

i.e. ``compose(phi, psi)`` applies psi first.  The two textbook conventions
differ exactly on non-permuting pairs, so this is load-bearing: see the L3
example in the tests, where (0, 1) lies in one order of composition but not
the other.

Con(A)'s tables answer the two questions asked of compositions most often
without composing: θ∘φ = ∇ iff |A/(θ∧φ)| = |A/θ|·|A/φ|, and Con(A) is
permutable iff its join-irreducibles pairwise permute.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import total_ordering

from .algebra import (
    CON_CAP,
    FiniteAlgebra,
    block_masks,
    canonicalize,
    delta_partition,
    join_partitions,
    meet_partitions,
    nabla_partition,
    partition_blocks,
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

    __slots__ = ("algebra", "block_of", "_masks")

    def __init__(self, algebra: FiniteAlgebra, block_of, check=False):
        self.algebra = algebra
        self.block_of = tuple(block_of)
        self._masks = None
        if len(self.block_of) != algebra.n:
            raise InvalidCongruence("partition length does not match the carrier")
        for e, r in enumerate(self.block_of):
            if self.block_of[r] != r or r > e:
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

    def blocks(self) -> list[list[int]]:
        return partition_blocks(self.block_of)

    def masks(self) -> tuple[int, ...]:
        if self._masks is None:
            self._masks = block_masks(self.block_of)
        return self._masks

    def refines(self, other: "Congruence") -> bool:
        return partition_refines(self.block_of, other.block_of)

    def is_delta(self) -> bool:
        return self.num_blocks == self.algebra.n

    def is_nabla(self) -> bool:
        return self.num_blocks == 1

    def block_string(self, over: "Congruence | None" = None) -> str:
        """Blocks as "a,b|c".  With over = θ ≤ self, render self/θ in the
        labels of A/θ: each θ-block is one element, its members joined by "+"."""
        labels = self.algebra.labels
        if over is None:
            return "|".join(",".join(labels[e] for e in blk) for blk in self.blocks())
        name = {blk[0]: "+".join(labels[e] for e in blk) for blk in over.blocks()}
        return "|".join(",".join(name[e] for e in blk if e in name) for blk in self.blocks())


def delta(A: FiniteAlgebra) -> Congruence:
    return Congruence(A, delta_partition(A.n))


def nabla(A: FiniteAlgebra) -> Congruence:
    return Congruence(A, nabla_partition(A.n))


def compatibility_violation(A: FiniteAlgebra, block_of):
    """First instance (opname, result_a, result_b) breaking compatibility,
    or None.  Checked one argument position at a time, which suffices by
    composing substitutions."""
    n = A.n
    related = [
        (a, b) for a in range(n) for b in range(n) if a != b and block_of[a] == block_of[b]
    ]
    for fname, arity in A.signature.operations:
        if arity == 0:
            continue
        for a, b in related:
            if arity == 1:
                t = A.tables[fname]
                if block_of[t[a]] != block_of[t[b]]:
                    return (fname, t[a], t[b])
            elif arity == 2:
                t = A.tables[fname]
                ta, tb = t[a], t[b]
                for z in range(n):
                    if block_of[ta[z]] != block_of[tb[z]]:
                        return (fname, ta[z], tb[z])
                    if block_of[t[z][a]] != block_of[t[z][b]]:
                        return (fname, t[z][a], t[z][b])
            else:
                for rest in itertools.product(range(n), repeat=arity - 1):
                    for i in range(arity):
                        ra = A.op(fname, *rest[:i], a, *rest[i:])
                        rb = A.op(fname, *rest[:i], b, *rest[i:])
                        if block_of[ra] != block_of[rb]:
                            return (fname, ra, rb)
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
    return Congruence(A, canonicalize(seen), check=True)


# -- Mal'cev closure --------------------------------------------------------


def _close(A: FiniteAlgebra, seed_pairs) -> tuple[int, ...]:
    n = A.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = deque()

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx
            queue.append((rx, ry))

    for a, b in seed_pairs:
        union(a, b)
    unary = [A.tables[f] for f, ar in A.signature.operations if ar == 1]
    binary = _binary_rows(A)
    higher = [(f, ar) for f, ar in A.signature.operations if ar >= 3]
    while queue:
        x, y = queue.popleft()
        for t in unary:
            union(t[x], t[y])
        for t in binary:
            tx, ty = t[x], t[y]
            for z in range(n):
                union(tx[z], ty[z])
        for fname, arity in higher:
            for rest in itertools.product(range(n), repeat=arity - 1):
                for i in range(arity):
                    union(
                        A.op(fname, *rest[:i], x, *rest[i:]),
                        A.op(fname, *rest[:i], y, *rest[i:]),
                    )
    return canonicalize(parent)


def _binary_rows(A: FiniteAlgebra) -> list:
    """Each binary table, and its transpose unless the two are equal: x θ y
    must give t[x][z] θ t[y][z] on the rows of both.  A symmetric table,
    such as join or meet, is its own transpose and is walked once.  Decided
    from the tables, once per algebra."""
    rows = A._cache.get("binary_rows")
    if rows is None:
        rows = []
        for f, arity in A.signature.operations:
            if arity == 2:
                t = A.tables[f]
                tt = tuple(zip(*t))
                rows += [t] if tt == t else [t, tt]
        A._cache["binary_rows"] = rows
    return rows


def principal_congruence(A: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Smallest congruence identifying a and b (Mal'cev closure)."""
    return Congruence(A, _close(A, [(a, b)]))


def cg_generated(A: FiniteAlgebra, pairs) -> Congruence:
    """Smallest congruence containing all the given pairs."""
    return Congruence(A, _close(A, list(pairs)))


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
            while r:
                b = (r & -r).bit_length() - 1
                rows[b] |= 1 << a
                r &= r - 1
        return Relation(self.n, rows)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_full(self) -> bool:
        full = (1 << self.n) - 1
        return all(r == full for r in self.rows)

    def pairs(self):
        for a, r in enumerate(self.rows):
            while r:
                b = (r & -r).bit_length() - 1
                yield (a, b)
                r &= r - 1


def relation_of(theta: Congruence) -> Relation:
    return Relation(theta.algebra.n, theta.masks())


def compose(phi: Congruence, psi: Congruence) -> Relation:
    """The relation phi o psi: apply psi first, then phi (see module doc)."""
    _require_same_parent(phi, psi)
    n = phi.algebra.n
    prow = phi.masks()
    srow = psi.masks()
    rows = []
    for a in range(n):
        acc = 0
        r = srow[a]
        while r:
            x = (r & -r).bit_length() - 1
            acc |= prow[x]
            r &= r - 1
        rows.append(acc)
    return Relation(n, rows)


def permutes(theta: Congruence, phi: Congruence) -> bool:
    return compose(theta, phi) == compose(phi, theta)


# -- enumeration ------------------------------------------------------------


class ConLattice:
    """The congruence lattice of a finite algebra.

    elements are sorted canonically: number of blocks descending, then
    lexicographically by partition array — so Δ is first and ∇ last, and
    blocks[i] = |A/θ_i|.  gen_masks[i] has bit g set iff the g-th generator
    lies below θ_i, and orders Con(A) by inclusion (module doc).
    """

    __slots__ = (
        "algebra",
        "elements",
        "blocks",
        "gen_masks",
        "join_table",
        "meet_table",
        "index_of_delta",
        "index_of_nabla",
        "_index",
        "_up_masks",
        "_down_masks",
        "_cache",
    )

    def __init__(self, algebra: FiniteAlgebra, partitions, seeds):
        """partitions are all of Con(A), each a join of the generators
        Cg(a, b) with (a, b) in seeds."""
        self.algebra = algebra
        self.elements = [Congruence(algebra, p) for p in sorted(partitions, key=lambda p: (-len(set(p)), p))]
        self._index = {c.block_of: i for i, c in enumerate(self.elements)}
        self._cache = {}
        k = len(self.elements)
        self.blocks = [c.num_blocks for c in self.elements]
        # Cg(a, b) ≤ θ iff a θ b
        self.gen_masks = [
            sum(1 << g for g, (a, b) in enumerate(seeds) if c.block_of[a] == c.block_of[b])
            for c in self.elements
        ]
        # has[g]: the indices of the θ above generator g.  θ_i ≤ θ_j iff
        # every g below θ_i is below θ_j, so ↑θ_i is the meet of has[g] over
        # g in mask_i, and ↓θ_j that of the complements over g not in mask_j.
        full = (1 << k) - 1
        has = [
            sum(1 << i for i, m in enumerate(self.gen_masks) if m >> g & 1)
            for g in range(len(seeds))
        ]
        self._up_masks, self._down_masks = [], []
        for m in self.gen_masks:
            up = down = full
            for g, h in enumerate(has):
                if m >> g & 1:
                    up &= h
                else:
                    down &= ~h
            self._up_masks.append(up)
            self._down_masks.append(down)
        self.index_of_delta = self._index[delta_partition(algebra.n)]
        self.index_of_nabla = self._index[nabla_partition(algebra.n)]
        # g ≤ θ∧φ iff g ≤ θ and g ≤ φ, so the meet's mask is the AND; index
        # order is a linear extension of the order, so the join is the lowest
        # common upper bound
        at = {m: i for i, m in enumerate(self.gen_masks)}
        self.meet_table = [[at[m & x] for x in self.gen_masks] for m in self.gen_masks]
        ups = self._up_masks
        self.join_table = [[_lowest_bit(u & v) for v in ups] for u in ups]

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
        return self.join_table[i][j]

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def leq(self, i: int, j: int) -> bool:
        """θ_i ≤ θ_j: every generator below θ_i is below θ_j."""
        return self.gen_masks[i] & ~self.gen_masks[j] == 0

    def up_set(self, i: int) -> list[int]:
        up = self._up_masks[i]
        return [j for j in range(i, len(self.elements)) if up >> j & 1]

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with θ_i ≺ θ_j, in index order: the interval
        [θ_i, θ_j] = ↑θ_i ∩ ↓θ_j is {θ_i, θ_j} exactly."""
        ups, downs = self._up_masks, self._down_masks
        return [
            (i, j)
            for i, up in enumerate(ups)
            for j in range(i + 1, len(downs))
            if up & downs[j] == 1 << i | 1 << j
        ]

    def is_distributive(self) -> bool:
        if "distributive" not in self._cache:
            # Funayama–Nakayama: Con of a lattice is distributive, and so is
            # Con of a residuated lattice, a sublattice of its reduct's
            jt, mt, ks = self.join_table, self.meet_table, range(len(self.elements))
            self._cache["distributive"] = self.algebra.is_lattice or all(
                mt[a][jt[b][c]] == jt[mt[a][b]][mt[a][c]] for a in ks for b in ks for c in ks
            )
        return self._cache["distributive"]

    def composes_to_nabla(self, i: int, j: int) -> bool:
        """θ_i∘θ_j = ∇, without composing: that holds iff every θ_i-block
        meets every θ_j-block, i.e. iff |A/(θ_i∧θ_j)| = |A/θ_i|·|A/θ_j|."""
        return self.blocks[self.meet_table[i][j]] == self.blocks[i] * self.blocks[j]

    def is_permutable(self) -> bool:
        """Whether all congruences pairwise permute, tested on the
        join-irreducibles alone: if α, β, γ pairwise permute then
        α∨β = α∘β permutes with γ, so pairwise permuting join-irreducibles
        make every join of them, i.e. every congruence, permute."""
        if "permutable" not in self._cache:
            # j is join-irreducible iff its strict down-set is one element's
            els, down = self.elements, self._down_masks
            ji = [
                j
                for j, d in enumerate(down)
                if (below := d & ~(1 << j)) and down[below.bit_length() - 1] == below
            ]
            self._cache["permutable"] = all(
                permutes(els[i], els[j]) for x, i in enumerate(ji) for j in ji[x + 1 :]
            )
        return self._cache["permutable"]


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# in-memory memoization: congruence data depends only on the tables, so a
# label-independent structure key lets quotients of equal shape share work
_PARTITION_CACHE: dict = {}


def _enumerate_partitions(A: FiniteAlgebra) -> tuple:
    """Con(A)'s partitions, and one seed pair (a, b) per distinct generator
    Cg(a, b)."""
    key = A.structure_key()
    hit = _PARTITION_CACHE.get(key)
    if hit is not None:
        return hit
    n = A.n
    if A.is_lattice:
        # Cg(a, b) over cover pairs generates Con, and each cover pair gives
        # the same Cg as some (j₊, j) with j join-irreducible (module doc)
        gen_pairs = A.join_irreducible_pairs()
    else:
        gen_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    gens = {}
    for a, b in gen_pairs:
        gens.setdefault(_close(A, [(a, b)]), (a, b))
    hit = _PARTITION_CACHE[key] = (_close_under_joins(n, gens), tuple(gens.values()))
    return hit


def _close_under_joins(n: int, gens: dict) -> tuple:
    """Δ and every join of the principal congruences gens, each mapped to
    its seed pair (a, b).  Each join is a partition join, and joining every
    new partition with each generator reaches every join of generators;
    p ∨ Cg(a, b) = p when a p b, so that join is skipped."""
    found = {delta_partition(n)}
    worklist = list(found)
    while worklist:
        p = worklist.pop()
        for g, (a, b) in gens.items():
            if p[a] == p[b]:
                continue
            r = join_partitions(p, g)
            if r not in found:
                found.add(r)
                worklist.append(r)
                if len(found) > CON_CAP:
                    raise SizeCap(f"congruence count exceeds cap {CON_CAP}")
    return tuple(found)


def all_congruences(A: FiniteAlgebra) -> ConLattice:
    """Enumerate Con(A) by closing the principal congruences under join.
    The lattice is kept on A, so it lives exactly as long as A does."""
    if A._con is None:
        object.__setattr__(A, "_con", ConLattice(A, *_enumerate_partitions(A)))
    return A._con


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
            reps = {}
            out = [0] * n
            for e in range(n):
                out[e] = reps.setdefault(rgs[e], e)
            yield tuple(out)
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
    nb = cl.index_of_nabla
    # θ_i is maximal iff ↑θ_i is {θ_i, ∇}
    return [
        cl.elements[i] for i, up in enumerate(cl._up_masks) if up == 1 << i | 1 << nb and i != nb
    ]


def prime_congruences(A: FiniteAlgebra) -> list[Congruence]:
    """θ ≠ ∇ such that α∩β ⊆ θ forces α ⊆ θ or β ⊆ θ.  In a distributive
    Con(A) these are the meet-irreducibles: the θ whose strict up-set has a
    least element, the lowest index in it (index order extends the order)."""
    cl = all_congruences(A)
    if cl.is_distributive():
        ups = cl._up_masks
        return [
            cl.elements[t]
            for t, u in enumerate(ups)
            if (above := u & ~(1 << t)) and ups[_lowest_bit(above)] == above
        ]
    # otherwise θ_t ≠ ∇ is prime iff no two congruences outside ↓θ_t meet inside it
    mt, nb = cl.meet_table, cl.index_of_nabla
    out = []
    for t, down in enumerate(cl._down_masks):
        outside = [a for a in range(len(cl)) if not down >> a & 1]
        if t != nb and not any(down >> mt[a][b] & 1 for a in outside for b in outside):
            out.append(cl.elements[t])
    return out


def radical(A: FiniteAlgebra) -> Congruence:
    """Intersection of the maximal congruences."""
    maxes = maximal_congruences(A)
    out = maxes[0]
    for m in maxes[1:]:
        out = meet(out, m)
    return out


def is_local(A: FiniteAlgebra) -> bool:
    """Exactly one maximal congruence."""
    return len(maximal_congruences(A)) == 1


def is_semilocal(A: FiniteAlgebra) -> bool:
    """Finitely many maximal congruences — always true at finite scale, but
    exposed so property names line up with the reports."""
    return len(maximal_congruences(A)) >= 1
