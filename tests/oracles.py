"""Reference implementations that the tests hold the library to.

Each function states one fact of the theory directly, the slow way, so
that a test can compare it with the path the calculator takes, or check
it on the fixtures: the radical of A, the maximal filters, the glued
congruence of an ordinal sum, the isomorphism from the complemented
elements of a bounded distributive lattice onto its factor congruences,
the splitting of A into the quotients by a family of factor congruences,
J(L) with each j₊ read off the down-sets, the covers of L of each J(Con L)
class, found by a descent under each cover, the block counts of a pure
lattice's congruences by union-find over those covers, the order and
tables of a cover relation by a search from every element, the J
step of a lattice in the three steps it once took, ConLattice's fields by
the seed scan and per-generator loops it once ran on every algebra, Con(A)
by closing every distinct principal generator under joins and testing
which generators are join-irreducible afterwards, as every algebra but a
pure lattice once had it, the join-prime fold for distributivity, the
lifting verdict of one θ as it was decided before the verdicts came in
columns, BLP at θ by the scan of every class of A/θ, with the walk of
that scan over Con(A), and the table routines one argument position per
call, as they were before they went level by level: the freeze and check
of a table given to FiniteAlgebra(...), the label map of a spec table,
the restriction of a table to some arguments, the fold of a product's
table and the label listing of emit_spec.
"""

import operator
from functools import reduce
from itertools import product

from congrlab import congruences
from congrlab.algebra import (
    FiniteAlgebra,
    _bits,
    _label_index,
    _components,
    cached,
    cover_pairs,
    delta_partition,
    join_classes,
    merge_pairs,
    nabla_partition,
    ordinal_sum_with_maps,
)
from congrlab.errors import NotALattice, TableError
from congrlab.congruences import (
    ConLattice,
    Congruence,
    _lowest_bit,
    all_congruences,
    maximal_congruences,
    meet,
    principal_congruence,
)
from congrlab.factor import _atoms, _complemented, _glue, factor_congruences, jspace
from congrlab.lifting import quotient
from congrlab.residuated import _complements, element_boolean_center, filters


def product_encode(tup, radix):
    """The index of a tuple in the mixed radix: sum e_i * radix[i]."""
    return sum(e * r for e, r in zip(tup, radix))


def radical(A: FiniteAlgebra) -> Congruence:
    """Intersection of the maximal congruences."""
    return reduce(meet, maximal_congruences(A))


def maximal_filters(A: FiniteAlgebra) -> list[frozenset]:
    """Proper filters not contained in a larger proper filter."""
    fs = [F for F in filters(A) if len(F) < A.n]
    return [F for F in fs if not any(F < G for G in fs)]


def osum_congruence(L, M, phi: Congruence, psi: Congruence, S=None) -> Congruence:
    """Glue phi (on L) and psi (on M) into a congruence of the ordinal sum
    S, by default ordinal_sum(L, M): the class of the shared element is the
    union of its two classes."""
    S_built, map_l, map_m = ordinal_sum_with_maps(L, M)
    return _glue(S_built if S is None else S, map_l, map_m, phi, psi)


def bdl_fc_isomorphism(L: FiniteAlgebra):
    """For a bounded distributive lattice: map each complemented element a
    to the principal congruence collapsing a with bottom, and verify this is
    a Boolean isomorphism onto the factor congruences.

    Returns (mapping element-index -> Congruence, verified flag)."""
    bot, top = L.bottom(), L.top()
    join_t, meet_t = L.tables["join"], L.tables["meet"]
    comp = element_boolean_center(L).complement
    mapping = {a: principal_congruence(L, a, bot) for a in comp}
    cl = all_congruences(L)
    fc = factor_congruences(cl)
    ok = {cl.index(c) for c in mapping.values()} == set(fc.members)
    ok = ok and len(set(mapping.values())) == len(mapping)
    for a in comp:
        for b in comp:
            if not ok:
                break
            ia, ib = cl.index(mapping[a]), cl.index(mapping[b])
            ok = (
                cl.join(ia, ib) == cl.index(mapping[join_t[a][b]])
                and cl.meet(ia, ib) == cl.index(mapping[meet_t[a][b]])
            )
    if ok:
        for a in comp:
            if cl.index(mapping[comp[a]]) != fc.complement[cl.index(mapping[a])]:
                ok = False
                break
        ok = ok and mapping[bot].is_delta() and mapping[top].is_nabla()
    return mapping, ok


def factorize(A: FiniteAlgebra, alphas: list[Congruence]):
    """Split A as a direct product of the quotients A/alpha_i, for factor
    congruences alpha_i of A that intersect to the diagonal and join
    pairwise to the full congruence."""
    quotients = [quotient(A, a) for a in alphas]
    # the canonical map a |-> (a/alpha_1, ..., a/alpha_n) must be a bijective
    # morphism onto the product of the quotients
    total = 1
    for q in quotients:
        total *= q.quotient.n
    images = {tuple(q.projection[e] for q in quotients) for e in range(A.n)}
    ok = (
        total == A.n
        and len(images) == A.n
        and all(
            q.project(A.op(f, *args)) == q.quotient.op(f, *map(q.project, args))
            for f, arity in A.signature.operations
            for args in product(range(A.n), repeat=arity)
            for q in quotients
        )
    )
    return quotients, ok


def join_irreducible_pairs(L: FiniteAlgebra) -> list[tuple[int, int]]:
    """(j₊, j) for each join-irreducible j of a lattice L, in increasing j:
    j is join-irreducible iff it has exactly one lower cover, and that cover
    is j₊ = ⋁{x : x < j}.  That holds iff ↓j ∖ {j} is some ↓m, as every
    x < j lies below a lower cover of j; then m = j₊."""
    down = L.order_masks()[1]
    at = {d: m for m, d in enumerate(down)}
    return [(at[d & ~(1 << j)], j) for j, d in enumerate(down) if d & ~(1 << j) in at]


def lattice_classes(L: FiniteAlgebra) -> tuple:
    """The J step's classes with the covers of L: (seeds, under, covers),
    seeds and under as in join_classes(L), and covers[c] the cover pairs
    a ≺ b of L whose Cg is class c's, each found by stepping down inside
    ↓b ∖ ↓a to a minimal member, which is in J(L) (`congruences` module
    doc)."""
    step = join_classes(L)
    up, down = L.order_masks()
    class_covers = [[] for _ in step.seeds]
    for a, b in cover_pairs(up, down):
        cand = down[b] & ~down[a]
        j = cand.bit_length() - 1
        while down[j] & cand != 1 << j:
            j = (down[j] & cand & ~(1 << j)).bit_length() - 1
        class_covers[step.classes[j]].append((a, b))
    return step.seeds, step.under, tuple(map(tuple, class_covers))


def union_find_block_counter(L: FiniteAlgebra):
    """D ↦ |L/θ_D| on the masks of the down-sets D of J(Con L), L a pure
    lattice: θ_D's partition merged from Δ by one union-find over the
    covers of D's classes, and its blocks counted."""
    class_covers = lattice_classes(L)[2]
    delta = delta_partition(L.n)
    return lambda mask: len(set(merge_pairs(delta, [pair for g in _bits(mask) for pair in class_covers[g]])))


def dfs_cover_closure(cover, labels):
    """The up-set mask of each element in the reflexive-transitive closure
    of the cover pairs over labels, by a search from every element, or the
    TableError of a malformed pair or of a cycle: an element on a cycle
    reaches itself, and the search from it pops it."""
    index = {lab: i for i, lab in enumerate(labels)}
    adj = [set() for _ in labels]
    for pair in cover:
        if not isinstance(pair, list) or len(pair) != 2:
            raise TableError(f"bad cover pair {pair!r}")
        lo, hi = str(pair[0]), str(pair[1])
        if lo not in index or hi not in index:
            raise TableError(f"cover pair ({lo}, {hi}) uses unknown labels")
        adj[index[lo]].add(index[hi])
    up = []
    for a in range(len(labels)):
        seen, stack = 1 << a, list(adj[a])
        while stack:
            b = stack.pop()
            if b == a:
                raise TableError(f"cover relation has a cycle through {labels[a]}")
            if not seen >> b & 1:
                seen |= 1 << b
                stack.extend(adj[b])
        up.append(seen)
    return up


def scanned_lattice(up, labels):
    """(down, join, meet) of the order whose up-set masks are up: up is
    scanned reflexive and transitive entry by entry, and each entry of join
    and meet is the element whose up- (down-) set is the intersection of
    two, or NotALattice names the first pair (a, b) in index order without
    one, join before meet."""
    n = len(up)
    down = [0] * n
    for a, m in enumerate(up):
        if not m >> a & 1:
            raise TableError(f"order is not reflexive at {labels[a]}")
        for c in range(n):
            if m >> c & 1:
                if up[c] & ~m:
                    raise TableError(f"order is not transitive at ({labels[a]}, {labels[c]})")
                down[c] |= 1 << a

    def element_of(masks):
        out = {}
        for e, m in enumerate(masks):
            out[m] = -1 if m in out else e
        return out

    by_up, by_down = element_of(up), element_of(down)
    join, meet = [], []
    for a in range(n):
        join.append(tuple(by_up.get(up[a] & u, -1) for u in up))
        meet.append(tuple(by_down.get(down[a] & d, -1) for d in down))
        for b in range(n):
            for row, what in ((join[a], "least upper bound"), (meet[a], "greatest lower bound")):
                if row[b] < 0:
                    raise NotALattice(labels[a], labels[b], what)
    return down, tuple(join), tuple(meet)


def join_dependency(L: FiniteAlgebra) -> tuple:
    """(j₊, j, {k : k D* j}) for each join-irreducible j, in increasing j,
    the set as a mask over the elements: Freese's D tested at the
    meet-irreducible m with j₊ ≤ m and j ≰ m, as k ≤ j∨m and k ≰ m, and D*
    by Warshall's algorithm on the rows, for every lattice, distributive
    or not."""
    up, down = L.order_masks()
    join, ups, at = L.tables["join"], set(up), {d: x for x, d in enumerate(down)}
    pairs = [(at[d & ~(1 << x)], x) for x, d in enumerate(down) if d & ~(1 << x) in at]
    meet_irreducible = sum(1 << m for m, u in enumerate(up) if u & ~(1 << m) in ups)
    js = sum(1 << j for _, j in pairs)
    jd = [d & js for d in down]
    below = {}
    for jp, j in pairs:
        acc = 1 << j
        for m in _bits(up[jp] & ~up[j] & meet_irreducible):
            acc |= jd[join[j][m]] & ~jd[m]
        below[j] = acc
    for i, bi in below.items():
        if bi & (bi - 1):
            for k, bk in below.items():
                if bk >> i & 1:
                    below[k] = bk | bi
    return tuple((jp, j, below[j]) for jp, j in pairs)


def j_step(L: FiniteAlgebra, dependency=None) -> dict:
    """Each field of algebra.join_classes(L), from the dependency pass
    (join_dependency(L) unless given): the classes of D* grouped by their
    rows, numbered by their least members, with the classes strictly below
    each; J(Con L)'s order read off the down-sets of the classes, its
    components grown one comparability at a time; and distributivity as
    "every row is j alone"."""
    if dependency is None:
        dependency = join_dependency(L)
    class_of, seeds, classes = {}, [], [None] * L.n
    for jp, j, below in dependency:
        if below not in class_of:
            class_of[below] = len(seeds)
            seeds.append((jp, j))
        classes[j] = class_of[below]
    down = [sum({1 << classes[k] for k in _bits(below)}) for below in class_of]
    near = [d | sum(1 << h for h, e in enumerate(down) if e >> g & 1) for g, d in enumerate(down)]
    components, left = [], (1 << len(down)) - 1
    while left:
        grown, c = 0, left & -left
        while grown != c:
            grown = c
            for g in _bits(grown):
                c |= near[g]
        components.append(c)
        left &= ~c
    tops = [g for c in components for g in _bits(c) if down[g] == c]
    return {
        "pairs": tuple((jp, j) for jp, j, _ in dependency),
        "seeds": tuple(seeds),
        "under": tuple(d & ~(1 << g) for g, d in enumerate(down)),
        "classes": tuple(classes),
        "down": down,
        "near": near,
        "components": components,
        "tops": sum(1 << g for g in tops) if len(tops) == len(components) else None,
        "distributive": all(below == 1 << j for _, j, below in dependency),
    }


def seed_scan(A: FiniteAlgebra, partitions, seeds) -> dict:
    """ConLattice's fields as its constructor read them on every algebra:
    the partitions sorted by block count descending, then by partition; the
    generators below each θ by a scan of the seeds (Cg(a, b) ≤ θ iff a θ
    b); the θ above each generator by a scan of the masks; ↑θ and ↓θ by a
    loop over every generator; and the join-irreducible generators, those
    whose own congruence, the lowest index above them, has a strict
    down-set with a top."""
    counts = [len(set(p)) for p in partitions]
    order = sorted(range(len(partitions)), key=lambda x: (-counts[x], partitions[x]))
    parts = [partitions[x] for x in order]
    k, full = len(parts), (1 << len(parts)) - 1
    masks = [sum(1 << g for g, (a, b) in enumerate(seeds) if p[a] == p[b]) for p in parts]
    above = [sum(1 << i for i, m in enumerate(masks) if m >> g & 1) for g in range(len(seeds))]
    ups, downs = [], []
    for m in masks:
        up = down = full
        for g, h in enumerate(above):
            if m >> g & 1:
                up &= h
            else:
                down &= ~h
        ups.append(up)
        downs.append(down)
    jbits = 0
    for g, h in enumerate(above):
        e = (h & -h).bit_length() - 1
        below = downs[e] & ~(1 << e)
        if below and downs[below.bit_length() - 1] == below:
            jbits |= 1 << g
    gen_masks = [m & jbits for m in masks]
    return {
        "partitions": parts,
        "blocks": [counts[x] for x in order],
        "seeds": seeds,
        "gen_masks": gen_masks,
        "above": above,
        "up": ups,
        "down": downs,
        "covers": sorted(cover_pairs(ups, downs)),
        "at": {m: i for i, m in enumerate(gen_masks)},
        "delta": parts.index(delta_partition(A.n)),
        "nabla": parts.index(nabla_partition(A.n)),
        "size": k,
    }


def closure_enumeration(A: FiniteAlgebra) -> tuple:
    """ConLattice's arguments as every algebra once had them: every distinct
    principal generator, Cg(j₊, j) for j ∈ J(L) with a lattice reduct L and
    Cg(a, b) for each a < b without one, closed under partition joins
    (congruences._close_under_joins)."""
    n = A.n
    pairs = join_irreducible_pairs(A) if A.is_lattice else [(a, b) for a in range(n) for b in range(a + 1, n)]
    gens = {}
    for a, b in pairs:
        gens.setdefault(congruences._close(A, [(a, b)]), (a, b))
    return congruences._close_under_joins(n, gens)


class ClosureConLattice(ConLattice):
    """Con(A) by the route every algebra but a pure lattice once took: the
    closure_enumeration, then a test in the constructor that keeps the bits
    of the join-irreducible generators alone.  Generator g is θ_e, e the
    lowest index above it, and is join-irreducible iff the join ψ of the
    other generators below θ_e, the lowest index in the meet of their ↑
    masks, is not θ_e.  Were ψ = θ_e, θ_e would be a join of the θ below
    it; if ψ < θ_e, each θ < θ_e is the join of the generators below it,
    none of them g, so θ ≤ ψ.  is_permutable reads the kept bits, as _above
    has a column for every generator."""

    __slots__ = ()

    def __init__(self, A):
        super().__init__(A, *closure_enumeration(A))
        full, above, jbits = (1 << len(self)) - 1, self._above, 0
        for g, h in enumerate(above):
            e, up = _lowest_bit(h), full
            for k in _bits(self.gen_masks[e] & ~(1 << g)):
                up &= above[k]
            if _lowest_bit(up) != e:
                jbits |= 1 << g
        self.gen_masks = [m & jbits for m in self.gen_masks]
        self._at = {m: i for i, m in enumerate(self.gen_masks)}

    @cached
    def is_permutable(self) -> bool:
        ji = sorted(_lowest_bit(self._above[g]) for g in _bits(self.gen_masks[self.index_of_nabla]))
        return all(self.permutes(i, j) for x, i in enumerate(ji) for j in ji[x + 1 :])


def join_prime_fold(cl) -> bool:
    """Whether Con(A) is distributive, by the test is_distributive once ran
    on every algebra: each join-irreducible g is join-prime, that is the
    masks of the θ not above g join to a mask (Davey & Priestley, ch. 10)."""
    gm = cl.gen_masks
    return all(
        reduce(operator.or_, (m for m in gm if not m >> g & 1), 0) in cl._at
        for g in _bits(gm[cl.index_of_nabla])
    )


def lifting_entry(cl, t: int, factor: bool) -> tuple:
    """lifting._lifting(cl, t, factor) as one θ was decided alone: the
    size of θ_t's center on that side, and the first member of it that no
    u(α) reaches, or None.  [θ_t, ∇] is listed where the side gives no
    order, and a failing θ_t counts its components again for its atoms."""
    near, atoms, tops = jspace(cl.algebra).side(factor)
    gm = cl.gen_masks
    rest = gm[cl.index_of_nabla] & ~gm[t]
    listed = [] if near is not None else _complemented(cl, t)[1]
    size = len(listed) or 1 << (len(_components(near, rest)) if tops is None else (tops & rest).bit_count())
    bad = None
    if tops is None and size != 1 << sum(1 for x in atoms if x & rest):
        ours = _atoms([gm[b] & rest for b, _ in listed]) if listed else _components(near, rest)
        bad = min(cl._at[gm[t] | f] for f in ours if all(x & rest != f for x in atoms))
    return size, bad


def scan_blp(A: FiniteAlgebra, theta: Congruence) -> bool:
    """has_blp by the full scan of the classes of A/θ: the complements of
    A/θ, which raise AmbiguousComplement on a class with two, then whether
    every complemented class holds a member of A's center."""
    block_of = theta.block_of
    complemented = _complements(A, block_of)
    reached = {block_of[a] for a in element_boolean_center(A).members}
    return all(r in reached for r in complemented)


def scan_blp_walk(A: FiniteAlgebra) -> tuple:
    """algebra_blp by the full scan: A's center first, then scan_blp at
    every θ but Δ, up to the first failure."""
    element_boolean_center(A)
    theta = next((t for t in all_congruences(A).elements if not t.is_delta() and not scan_blp(A, t)), None)
    return theta is None, theta


# -- the table routines, one argument position per call --------------------


def freeze_tables(tables):
    """Nested iterables as nested tuples, one entry per call, leaving an
    int, a string, bytes and anything not iterable as it is, for
    check_table to refuse.  Any iterable passes for a row: a mapping gives
    its keys, a set its iteration order."""

    def freeze(t):
        if isinstance(t, (int, str, bytes)):
            return t
        try:
            items = iter(t)
        except TypeError:
            return t
        return tuple(freeze(x) for x in items)

    return {name: freeze(t) for name, t in tables.items()}


def check_table(table, arity, n, fname):
    """A frozen table of this arity over n elements, checked depth first:
    each row a tuple of n items, each entry an int in 0..n-1."""
    if arity == 0:
        if not isinstance(table, int) or not 0 <= table < n:
            raise TableError(f"constant {fname} out of range")
        return
    if not isinstance(table, tuple) or len(table) != n:
        raise TableError(f"table for {fname} is not total")
    for row in table:
        check_table(row, arity - 1, n, fname)


def walked_table(table, arity, n, fname):
    """A table given to FiniteAlgebra(...), frozen and checked as the
    public constructor once did, depth first."""
    frozen = freeze_tables({fname: table})[fname]
    check_table(frozen, arity, n, fname)
    return frozen


def check_shape(table, arity, n, fname):
    """Each node of table above its entries is a list or tuple of n items,
    checked depth first, before any entry is read."""
    if arity:
        if not isinstance(table, (list, tuple)) or len(table) != n:
            raise TableError(f"table for {fname} is not total")
        for row in table:
            check_shape(row, arity - 1, n, fname)


def table_from_labels(raw, arity, index, fname):
    """The table of labels raw as indices, walked depth first, each entry
    mapped alone."""
    if arity == 0:
        return _label_index(raw, index, f"table for {fname}")
    if not isinstance(raw, list) or len(raw) != len(index):
        raise TableError(f"table for {fname} is not total")
    return tuple(table_from_labels(row, arity - 1, index, fname) for row in raw)


def map_table(t, arity, keys, value) -> tuple:
    """algebra.map_table, a row per call."""
    if arity > 1:
        return tuple([map_table(t[k], arity - 1, keys, value) for k in keys])
    return tuple([value[t[k]] for k in keys]) if arity else value[t]


def product_table(ta, na, tb, nb, arity):
    """algebra.product_table, a row per call: ta's values scaled by nb
    first, then tb's folded in."""

    def fold(sa, sb, arity):
        if arity > 1:
            return tuple([fold(x, y, arity - 1) for x in sa for y in sb])
        return tuple([x + y for x in sa for y in sb]) if arity else sa + sb

    return fold(map_table(ta, arity, range(na), list(range(0, na * nb, nb))), tb, arity)


def listed_table(t, arity, labels):
    """A table of this arity as emit_spec lists it, a row per call: nested
    lists of labels, a constant its label."""
    if arity == 0:
        return labels[t]
    return [listed_table(row, arity - 1, labels) for row in t] if arity > 1 else [labels[v] for v in t]
