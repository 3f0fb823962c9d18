"""Boolean centers, factor congruences, CRT tests and transport maps.

The Boolean center of a (distributive) bounded lattice is its sublattice of
complemented elements; applied to a congruence lattice its members are the
"Boolean congruences".  A factor congruence is a Boolean congruence theta
whose composition with its complement is already the full relation — these
are exactly the congruences inducing direct-product decompositions.

Both are read off an interval [t, ∇] of Con(A), which is Con(A/θ_t) by the
correspondence theorem: β/θ, γ/θ are complements iff β ∨ γ = ∇ and β ∧ γ = θ,
and (β/θ)∘(γ/θ) is full on A/θ iff β∘γ is full on A.  No composition is
built: β∘γ is full iff every β-block meets every γ-block, i.e. iff
|A/(β∧γ)| = |A/β|·|A/γ|, read off the block counts of Con(A).

Con(A) must be distributive.  By Birkhoff duality θ ↦ D_θ, the set of
join-irreducibles J = J(Con A) below θ (its mask), is then an isomorphism
onto the down-sets of J, with unions as joins, intersections as meets and
J as ∇ (Davey & Priestley, ch. 5 and 10).  A component of a set of
join-irreducibles is a connected component of the comparability graph of
J restricted to it.  The Boolean members of [θ_t, ∇] are listed, with no
scan of ↑θ_t, as follows.  Let R = J ∖ D_t, an up-set of J.

1. The members of [θ_t, ∇] are the D_t ∪ E, E a down-set of R.  A down-set
   of J holding D_t is D_t ∪ E with E ⊆ R, and D_t ∪ E is a down-set iff E
   is one within R: y < x ∈ E with y ∉ D_t puts y in R.
2. D_t ∪ E and D_t ∪ F are complements in [θ_t, ∇] iff E ∩ F = ∅ and
   E ∪ F = R, so F can only be R ∖ E.  R ∖ E is a down-set of R iff E is
   also an up-set of R, i.e. iff no comparable pair in R has one end in E
   and the other outside it, i.e. iff E is a union of components of R.
3. So the Boolean members are D_t ∪ U for the 2^c unions U of the c
   components of R, the complement of D_t ∪ U is D_t ∪ (R ∖ U), and
   |B(A/θ_t)| = 2^c.  Each is a down-set of J, hence some θ's mask, found by
   one lookup.  As their meet is θ_t, such a pair is a factor pair iff
   |A/θ_t| = |A/β|·|A/γ|.

J, P = J(L), the block counts and FC(A)'s atoms are one record per
algebra, jspace(A), and every center and verdict reads them off it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement, compress, product
from math import comb

from .algebra import (
    FiniteAlgebra,
    _DIGITS,
    _components,
    _j_order,
    cached,
    direct_product,
    join_classes,
    join_partitions,
    ordinal_sum_with_maps,
)
from .congruences import (
    ConLattice,
    Congruence,
    all_congruences,
    is_pure_lattice,
)
from .errors import (
    EncodingMismatch,
    NotASublattice,
    NotDistributive,
    ParentMismatch,
    SizeCap,
)

CRT_K_MAX = 3
# target tuples the direct CRT check may walk: L2^4's 3.4 M take about 3.5 s
CRT_TUPLE_CAP = 5_000_000


class Center(namedtuple("Center", "lattice members complement")):
    """Members of the interval [t, ∇] of a ConLattice that have a complement
    relative to t, with that complement: the Boolean congruences, or the
    factor congruences among them, of A/θ_t (of A itself when t is Δ)."""

    def congruences(self) -> list[Congruence]:
        return [self.lattice.elements[i] for i in self.members]


def boolean_center(cl: ConLattice, t: int = 0) -> Center:
    """Elements of [t, ∇] with a complement relative to t; t = 0 is Δ."""
    return _interval_centers(cl, t)[0]


def factor_congruences(cl: ConLattice, t: int = 0) -> Center:
    """Members of boolean_center(cl, t) that permute with their complement
    (equivalently: whose composition with the complement is already full)."""
    return _interval_centers(cl, t)[1]


@cached
def _interval_centers(cl: ConLattice, t: int) -> tuple[Center, Center]:
    """Both centers of [t, ∇] from one listing, memoized on the lattice."""
    bc, fc = map(dict, _complemented(cl, t))
    return Center(cl, list(bc), bc), Center(cl, list(fc), fc)


def _complemented(cl: ConLattice, t: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Each Boolean member of [t, ∇] with its complement relative to t, in
    index order, and the factor pairs among them: D_t ∪ U for each union U
    of components of R = J ∖ D_t, with D_t ∪ (R ∖ U) (module doc, 3).
    Requires Con(A) distributive."""
    at, gm, blocks = cl._at, cl.gen_masks, cl.blocks
    rest = gm[cl.index_of_nabla] & ~gm[t]
    near = jspace(cl.algebra).near
    masks = [gm[t]]
    for c in _components(near, rest):
        masks += [m | c for m in masks]
    pairs = sorted([(at[m], at[m ^ rest]) for m in masks])
    # θ_i ∧ θ_j = θ_t, so θ_i∘θ_j = ∇ iff |A/θ_t| = |A/θ_i|·|A/θ_j|
    return pairs, [(i, j) for i, j in pairs if blocks[i] * blocks[j] == blocks[t]]


class _kept:
    """A field computed on its first read and kept on the record: a
    cached_property without the lock Python takes before 3.12, so a first
    read costs 0.2 µs, not 0.58, of the 55 µs of a cold sweep lattice's
    four verdicts (Python 3.11, a 2-vCPU Xeon guest)."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.fn(record)
        return value


class JSpace:
    """J = J(Con A) of an algebra with a distributive Con(A), and what the
    verdicts read off it, each computed once, on its first read, except J's
    order (down, near, components, tops), which a pure lattice reads when
    its record is made, as every reader but P's needs it and it costs no
    cover.  A subclass per kind fills J, count, fc_atoms and p_order.

    - down[g] = ↓g, a mask over J, each bit one seed of the enumeration;
      near[g] = the members comparable to g; components, the connected
      components; tops, the mask of their greatest elements when every
      component has one, else None.
    - count(D) = |A/θ_D| for the mask D of a down-set of J.
    - fc_atoms: the atoms of FC(A) as masks (`lifting` module doc, 5a).
    - p_order: (near, components) of P = J(L), over the same bits, on a
      distributive pure lattice L (`lifting` module doc, 6a), else None."""

    p_order = None

    def __init__(self, A: FiniteAlgebra):
        self.algebra = A

    @_kept
    def center_is_factor(self) -> bool:
        """Whether every Boolean congruence of A is a factor congruence,
        that is FC(A) = B(A).  FC(A) is a Boolean sublattice of B(A)
        (`lifting` module doc, 5a), and the atoms of B(A) are the θ_C for
        the c components C of J (module doc, 3, at θ = Δ).  So FC(A) = B(A)
        iff each θ_C is a factor congruence, and its factor complement can
        only be its complement θ_{J∖C}: iff |A/θ_C|·|A/θ_{J∖C}| = |A| for
        each C.  With c ≤ 1, B(A) ⊆ {Δ, ∇} and nothing is counted; else 2c
        block counts, however many the 2^c Boolean congruences are."""
        components = self.components
        full = sum(components)
        return len(components) < 2 or all(
            self.count(c) * self.count(full & ~c) == self.algebra.n for c in components
        )

    def side(self, factor: bool) -> tuple[list[int] | None, list[int], int | None]:
        """(near, atoms, tops) for FC(A) if factor, else B(A) (`lifting`
        module doc, 5): the order whose components of J ∖ D_θ are θ's atoms
        (J's for B, P's for FC(L)), None where a listing of [θ, ∇] gives
        them; A's own atoms; and tops on the Boolean side, else None."""
        if not factor:
            return self.near, self.components, self.tops
        if self.p_order is not None:
            return (*self.p_order, None)
        return None, self.fc_atoms, None


class _LatticeJSpace(JSpace):
    """The record of a pure lattice L, read off its J step (join_classes)
    with no Con(L): class g is generator g, and ↓g is g with the classes
    under it.

    count(D) = n − |⋃_{c∈D} E_c|, E_c the mask of the upper ends of class
    c's pairs (algebra.class_pairs), the OR of those of its members j,
    which the lattice test kept (FiniteAlgebra.irreducibles): no cover
    found, no partition and no join looked up again.  Each
    block of a lattice congruence θ is closed under ∧ (a θ b gives
    a∧b θ b∧b) and convex, so it has a least element, and x is the least of
    its block iff no lower cover of x is collapsed: were y θ x for some
    y < x, a lower cover z of x with y ≤ z has z θ x, by convexity.  A
    cover y ≺ x is collapsed by θ_D iff Cg(y, x) ≤ θ_D.  Cg(y, x) is the
    join-irreducible of the cover's class, join-prime in the distributive
    Con(L), so that holds iff its class is in the down-set D, and then the
    cover is one of that class's pairs.  Conversely a pair (y, x) of a
    class in D lies in θ_D, with y < x.  So the x outside ⋃_{c∈D} E_c are
    the least elements of the blocks, one per block.  fc_atoms is read off
    L's central elements (_central_masks)."""

    def __init__(self, L: FiniteAlgebra):
        self.algebra = L
        step = join_classes(L)
        self.down, self.near, self.components, self.tops = step.down, step.near, step.components, step.tops
        if not step.distributive:  # P = J(L) is read on a distributive L alone
            self.p_order = None

    @_kept
    def _upper_ends(self) -> list[int]:
        L = self.algebra
        step = join_classes(L)
        ends = [0] * len(step.seeds)
        for (_, j), end in zip(step.pairs, L.irreducibles().ends):
            ends[step.classes[j]] |= end
        return ends

    def count(self, mask: int) -> int:
        upper_ends, collapsed = self._upper_ends, 0
        while mask:
            low = mask & -mask
            collapsed |= upper_ends[low.bit_length() - 1]
            mask ^= low
        return self.algebra.n - collapsed.bit_count()

    @_kept
    def fc_atoms(self) -> list[int]:
        return _atoms(sorted(_central_masks(self.algebra), key=int.bit_count))

    @_kept
    def p_order(self) -> tuple[list[int], list[int]] | None:
        return _p_order(self.algebra)


class _ConJSpace(JSpace):
    """The record of any other algebra, read off Con(A), whose every seed
    is a member g of J(Con A): g's own congruence is the lowest index of
    Con(A) above it, and its mask is ↓g; count reads
    Con(A)'s block counts, and fc_atoms the listing of FC(A) at Δ.  A first
    read of J raises NotDistributive unless Con(A) is distributive, as a
    lattice's always is; p_order reads no Con(A)."""

    @_kept
    def _cl(self) -> ConLattice:
        cl = all_congruences(self.algebra)
        if not cl.is_distributive():
            raise NotDistributive("congruence lattice is not distributive; complements would be ambiguous")
        return cl

    def __getattr__(self, name: str):
        # J's order is read off Con(A) on its first read, so that p_order,
        # None on this kind, enumerates nothing
        if name not in ("down", "near", "components", "tops"):
            raise AttributeError(name)
        cl = self._cl
        self.down = [cl.gen_masks[e] for e in cl._member_index]
        self.near, self.components, self.tops = _j_order(self.down, cl.gen_masks[cl.index_of_nabla])
        return getattr(self, name)

    def count(self, mask: int) -> int:
        return self._cl.blocks[self._cl._at[mask]]

    @_kept
    def fc_atoms(self) -> list[int]:
        cl = self._cl
        return _atoms([cl.gen_masks[a] for a in factor_congruences(cl).members])


@cached
def jspace(A: FiniteAlgebra) -> JSpace:
    """A's J(Con A) record, memoized on A, with its constructor picked by
    kind: a pure lattice reads its J step, any other algebra Con(A)."""
    return (_LatticeJSpace if is_pure_lattice(A) else _ConJSpace)(A)


@cached
def _p_order(L: FiniteAlgebra) -> tuple[list[int], list[int]] | None:
    """P = J(L) of a distributive lattice, or of an algebra's distributive
    lattice reduct, read off its order: near[h] = the members comparable to
    the h-th join-irreducible j, bit h being Cg(j₊, j) for the h-th seed of
    join_classes(L), each j being a class of its own, and the components
    (`lifting` module doc, 6a).  None unless L has a distributive lattice
    reduct.  Memoized on L."""
    if not (L.is_lattice and L.is_distributive_lattice()):
        return None
    up, down = L.order_masks()
    js = [j for _, j in join_classes(L).seeds]
    # each row of the order, written out most significant digit first, is
    # compressed onto J(L)'s digits in one string step: no pair of J(L)
    # costs a shift, and no more than a row is held
    width = f"0{L.n}b"
    on_j = format(sum([1 << j for j in js]), width).encode().translate(_DIGITS)
    near = [int("".join(compress(format(up[j] | down[j], width), on_j)), 2) for j in js]
    return near, _components(near, (1 << len(js)) - 1)


def _atoms(masks: list[int]) -> list[int]:
    """The atoms of a Boolean lattice of masks whose bottom is 0, listed in
    an order that extends inclusion, as index order does: the nonzero
    masks that miss every atom before them (`lifting` module doc, 5d)."""
    atoms = []
    for m in masks:
        if m and not m & sum(atoms):
            atoms.append(m)
    return atoms


def _central_masks(L: FiniteAlgebra) -> set[int]:
    """The masks over J(Con L) of the factor congruences of a pure lattice
    L, read off its central elements, with no Con(L).  A factor congruence
    of a bounded lattice is the kernel of x ↦ x∧z for a central element z
    (Grätzer, *Lattice Theory: Foundation*).  Complements z, w with
    x = (x∧z)∨(x∧w) = (x∨z)∧(x∨w) for every x make x ↦ (x∧z, x∧w) an
    isomorphism onto [0, z] × [0, w]: one-to-one and order-reflecting by the
    first identity, and onto, as the second at a ≤ z gives z∧(a∨w) = a, so
    (a∨b)∧z = a for every b ≤ w, and likewise (a∨b)∧w = b.  A central z
    and its complement pass, as they do in a product.  So |↓z|·|↓w| = n,
    and only the w of that size are tried.  Class g, seeded by (j₊, j),
    lies below the kernel iff j₊∧z = j∧z."""
    join, meet = L.tables["join"], L.tables["meet"]
    bot, top, n = L.bottom(), L.top(), L.n
    sizes = [d.bit_count() for d in L.order_masks()[1]]
    of_size = {}
    for w, size in enumerate(sizes):
        of_size.setdefault(size, []).append(w)
    central = set()
    for z, size in enumerate(sizes):
        for w in of_size.get(n // size, ()) if n % size == 0 else ():
            if w > z and meet[z][w] == bot and join[z][w] == top and all(
                join[meet[x][z]][meet[x][w]] == x == meet[join[x][z]][join[x][w]] for x in range(n)
            ):
                central.update((z, w))
    seeds = join_classes(L).seeds
    return {sum(1 << g for g, (jp, j) in enumerate(seeds) if meet[jp][z] == meet[j][z]) for z in central}


# -- CRT --------------------------------------------------------------------


def _omega_indices(cl: ConLattice, omega) -> list[int]:
    idxs = sorted({cl.index(t) for t in omega})
    if cl.index_of_delta not in idxs or cl.index_of_nabla not in idxs:
        raise NotASublattice("the congruence family must contain the bounds")
    sset = set(idxs)
    for i in idxs:
        for j in idxs:
            if cl.join(i, j) not in sset or cl.meet(i, j) not in sset:
                raise NotASublattice(
                    "the congruence family is not closed under join and meet"
                )
    return idxs


def crt_characterization(A: FiniteAlgebra, omega) -> bool:
    """Lattice-theoretic test: the family admits simultaneous congruence
    solving iff it is distributive and all of its pairs permute."""
    cl = all_congruences(A)
    idxs = _omega_indices(cl, omega)
    join, meet = cl.join, cl.meet
    for a in idxs:
        for b in idxs:
            for c in idxs:
                if meet(a, join(b, c)) != join(meet(a, b), meet(a, c)):
                    return False
    return all(cl.permutes(i, j) for x, i in enumerate(idxs) for j in idxs[x + 1 :])


def crt_direct_check(A: FiniteAlgebra, omega, k_max: int = 2):
    """Brute-force the simultaneous-solvability condition for all tuples of
    size <= k_max: pairwise compatible targets must admit a common solution.
    Returns (ok, witness) where a witness names (thetas, targets)."""
    if k_max > CRT_K_MAX:
        raise SizeCap(f"direct CRT check capped at tuples of size {CRT_K_MAX}")
    cl = all_congruences(A)
    idxs = _omega_indices(cl, omega)
    n = A.n
    # C(|Ω|+k−1, k) multisets of congruences, each with n^k target tuples
    tuples = sum(comb(len(idxs) + k - 1, k) * n**k for k in range(2, k_max + 1))
    if tuples > CRT_TUPLE_CAP:
        raise SizeCap(f"direct CRT check would walk {tuples} target tuples; capped at {CRT_TUPLE_CAP}")
    masks = {i: cl.elements[i].masks() for i in idxs}
    join_masks = {}
    for i in idxs:
        for j in idxs:
            join_masks[(i, j)] = cl.elements[cl.join(i, j)].masks()
    full = (1 << n) - 1
    for k in range(2, k_max + 1):
        # the condition is symmetric under permuting coordinates jointly,
        # so multisets of congruences suffice
        for thetas in combinations_with_replacement(idxs, k):
            th_masks = [masks[i] for i in thetas]
            jm = [
                [join_masks[(thetas[u], thetas[v])] for v in range(k)]
                for u in range(k)
            ]
            for targets in product(range(n), repeat=k):
                ok = True
                for u in range(k):
                    au = targets[u]
                    for v in range(u + 1, k):
                        if not jm[u][v][au] >> targets[v] & 1:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                sol = full
                for u in range(k):
                    sol &= th_masks[u][targets[u]]
                if sol == 0:
                    witness = (
                        [cl.elements[i] for i in thetas],
                        [A.labels[t] for t in targets],
                    )
                    return False, witness
    return True, None


# -- transport across products and ordinal sums -----------------------------


def product_congruence(P: FiniteAlgebra, factors, thetas) -> Congruence:
    """theta_1 x ... x theta_k on the product carrier: tuples related iff
    componentwise related.  P must use the standard mixed-radix encoding."""
    total = 1
    for F in factors:
        total *= F.n
    if P.n != total:
        raise EncodingMismatch("product carrier size does not match the factors")
    for F, t in zip(factors, thetas):
        if t.algebra != F:
            raise ParentMismatch("congruence does not belong to its factor")
    # (a, b) is a·n_B + b in the mixed radix, so its block is
    # rep(a)·n_B + rep(b); fold factor by factor, as direct_product folds the
    # tables.  The encoding is monotone in each coordinate, so that is the
    # least member of the block: canonical, with nothing to check
    block_of = [0]
    for F, t in zip(factors, thetas):
        block_of = [r * F.n + s for r in block_of for s in t.block_of]
    return Congruence._canonical(P, tuple(block_of))


def _glued_image(parts: list[ConLattice], whole: ConLattice, glue) -> dict | None:
    """Map each tuple of congruence indices of the parts to the index of
    the congruence that glue makes of those congruences, if that is an
    isomorphism of bounded lattices from the product of the parts (ordered,
    joined and met componentwise) onto Con of the whole; None otherwise.

    A bijection is checked on cover pairs alone.  In a finite order ≤ is the
    reflexive-transitive closure of the cover relation, so a map that keeps
    each cover pair in order is monotone.  A bijection that is monotone both
    ways is an order isomorphism, and an order isomorphism between lattices
    preserves joins, meets and bounds, which are defined by the order.  The
    covers of a tuple are the tuple with one coordinate stepped up one cover
    of its part, so the forward check costs one comparison per tuple and
    upper cover of each of its coordinates."""
    tuples = list(product(*[range(len(c)) for c in parts]))
    if len(tuples) != len(whole):
        return None
    image = {tup: whole.index(glue([c.elements[i] for c, i in zip(parts, tup)])) for tup in tuples}
    if len(set(image.values())) != len(whole):
        return None
    uppers = []
    for c in parts:
        up = [[] for _ in range(len(c))]
        for a, b in c.covers():
            up[a].append(b)
        uppers.append(up)
    leq = whole.leq
    for tup, v in image.items():
        for x, up in enumerate(uppers):
            for b in up[tup[x]]:
                if not leq(v, image[tup[:x] + (b,) + tup[x + 1 :]]):
                    return None
    preimage = {v: tup for tup, v in image.items()}
    for a, b in whole.covers():
        if not all(c.leq(x, y) for c, x, y in zip(parts, preimage[a], preimage[b])):
            return None
    return image


def _center_image(parts: list[ConLattice], image: dict, center_of) -> set[int]:
    """The images of the tuples whose every component is in center_of its part."""
    members = [set(center_of(c).members) for c in parts]
    return {v for tup, v in image.items() if all(x in m for x, m in zip(tup, members))}


def product_con_iso_check(As: list[FiniteAlgebra], P: FiniteAlgebra | None = None) -> bool:
    """Verify the tuple map Con(A_1) x ... x Con(A_k) -> Con(prod A_i):
    a bounded-lattice bijection that also restricts to bijections between
    the Boolean centers and between the factor congruences."""
    if P is None:
        P = direct_product(As)
    cls = [all_congruences(A) for A in As]
    clp = all_congruences(P)
    image = _glued_image(cls, clp, lambda thetas: product_congruence(P, As, thetas))
    return (
        image is not None
        and _center_image(cls, image, boolean_center) == set(boolean_center(clp).members)
        and _center_image(cls, image, factor_congruences) == set(factor_congruences(clp).members)
    )


def _glue(S, map_l, map_m, phi: Congruence, psi: Congruence) -> Congruence:
    """phi and psi glued on the sum S, into which map_l and map_m embed the
    summands: each part is a parent forest over S whose other elements are
    roots, and the glued partition is their join."""
    lower, upper = list(range(S.n)), list(range(S.n))
    for e, r in enumerate(phi.block_of):
        lower[map_l[e]] = map_l[r]
    for e, r in enumerate(psi.block_of):
        upper[map_m[e]] = map_m[r]
    return Congruence(S, join_partitions(lower, upper), check=True)


def osum_con_iso_check(L, M) -> bool:
    """Verify Con(L+M) is exactly the glued congruences and that the gluing
    is a bounded-lattice bijection which also matches the Boolean centers.

    Deliberately silent about factor congruences: gluing factor congruences
    of the parts need not produce the factor congruences of the sum (the X
    fixture is a counterexample, surfaced by osum_fc_comparison)."""
    S, map_l, map_m = ordinal_sum_with_maps(L, M)
    cll, clm, cls_ = all_congruences(L), all_congruences(M), all_congruences(S)
    image = _glued_image([cll, clm], cls_, lambda thetas: _glue(S, map_l, map_m, *thetas))
    return image is not None and _center_image([cll, clm], image, boolean_center) == set(
        boolean_center(cls_).members
    )


def osum_fc_comparison(L, M) -> dict:
    """Compare {phi glued with psi : both factor congruences} against the
    factor congruences of the sum.  The two sets can differ — that is the
    point of this function, so it reports rather than asserts."""
    S, map_l, map_m = ordinal_sum_with_maps(L, M)
    cls_ = all_congruences(S)
    fl = factor_congruences(all_congruences(L)).congruences()
    fm = factor_congruences(all_congruences(M)).congruences()
    glued = {cls_.index(_glue(S, map_l, map_m, phi, psi)) for phi in fl for psi in fm}
    actual = set(factor_congruences(cls_).members)
    return {
        "sum": S,
        "glued_count": len(glued),
        "fc_count": len(actual),
        "glued_equals_fc": glued == actual,
        "glued": sorted(cls_.elements[i].block_string() for i in glued),
        "fc": sorted(cls_.elements[i].block_string() for i in actual),
    }
