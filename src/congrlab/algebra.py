"""Finite algebras over finite signatures, and lattice constructions.

Elements are dense integer indices 0..n-1 with separate labels; all
partition/set arithmetic is done on indices so that structural equality is
plain tuple equality.  Algebras are immutable after construction and every
operation here is a pure function.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, namedtuple

from .errors import (
    KindError,
    NestedTooDeeply,
    NotALattice,
    NotClosed,
    ResiduationViolation,
    SignatureMismatch,
    SizeCap,
    TableError,
)

# Size caps: everything downstream is exponential-ish, so fail loudly.
CARRIER_CAP = 4096
CON_CAP = 20000
# The residuation check compares n² pairs of table rows of n entries: a
# 128-element Gödel chain builds in about 0.4 s (README, Limits).
RESIDUATED_CAP = 128
# A spec table nests at most this deep: on two or more elements a table of
# arity 64 would have 2^64 entries, so only a one-element carrier reaches it.
ARITY_CAP = 64

# The (name, arity) pairs each kind requires, in signature order: the one
# statement of what a kind's algebra carries.
KIND_OPERATIONS = {"generic": (), "lattice": (("join", 2), ("meet", 2))}
KIND_OPERATIONS["bounded-lattice"] = KIND_OPERATIONS["lattice"] + (("bot", 0), ("top", 0))
KIND_OPERATIONS["residuated"] = KIND_OPERATIONS["bounded-lattice"] + (("times", 2), ("implies", 2))
KINDS = tuple(KIND_OPERATIONS)  # tested by ==, so an unhashable kind is merely unknown


def cached(fn):
    """fn(X, *args), computed once per object X and arguments and kept in
    X._cache under fn's name, with the arguments when there are any: the
    one memo of every fact derived from an algebra or its congruence
    lattice.  A raised exception is not kept, so each call raises it anew."""
    name = fn.__name__

    @functools.wraps(fn)
    def memo(X, *args):
        key, cache = (name, *args) if args else name, X._cache
        if key not in cache:
            cache[key] = fn(X, *args)
        return cache[key]

    return memo


class Signature(namedtuple("Signature", "operations kind")):
    """Operation descriptors (name, arity) plus a kind tag, checked when made."""

    __slots__ = ()

    def __new__(cls, operations: tuple[tuple[str, int], ...], kind: str = "generic"):
        names = [name for name, _ in operations]
        if len(set(names)) != len(names):
            raise TableError(f"duplicate operation names in signature: {names}")
        if kind not in KINDS:
            raise TableError(f"unknown kind {kind!r}")
        ops = dict(operations)
        for name, arity in KIND_OPERATIONS[kind]:
            if ops.get(name) != arity:
                raise TableError(f"kind {kind!r} requires operation {name!r} of arity {arity}")
        return super().__new__(cls, operations, kind)

    def arity(self, name: str) -> int:
        return dict(self.operations)[name]

    @property
    def is_lattice(self) -> bool:
        return bool(KIND_OPERATIONS[self.kind])  # every kind but generic has join and meet


def lattice_signature(kind: str = "lattice") -> Signature:
    """The signature of a lattice of this kind: the operations it requires.
    One frozen Signature per kind, built at import."""
    if kind not in KINDS:
        raise TableError(f"unknown kind {kind!r}")
    return _KIND_SIGNATURES[kind]


_KIND_SIGNATURES = {kind: Signature(ops, kind) for kind, ops in KIND_OPERATIONS.items()}


class FiniteAlgebra:
    """A finite algebra: carrier 0..n-1, labels, and total operation tables.

    Tables are nested tuples indexed by argument; a nullary operation's table
    is the element index itself.  Instances are immutable and hashable; two
    algebras are equal iff they agree table-for-table and label-for-label.
    """

    __slots__ = ("n", "labels", "signature", "tables", "name", "_hash", "_cache")

    def __new__(cls, n, labels, signature, tables, name=None):
        """The public constructor: the labels are checked, every table is
        read against the signature as _read_table reads it, ints in range,
        and the kind's axioms are proved.  congrlab's own constructions take
        _derived."""
        labels = _carrier_labels(n, labels)
        ops = dict(signature.operations)
        if set(ops) != set(tables):
            raise TableError(
                f"tables {sorted(tables)} do not match signature {sorted(ops)}"
            )
        tables = {fname: _read_table(tables[fname], arity, n, fname) for fname, arity in signature.operations}
        return _with_axioms_checked(n, labels, signature, tables, name)

    @classmethod
    def _derived(cls, n, labels, signature, tables, name=None, order_masks=None):
        """The private constructor, for an algebra congrlab derived itself:
        labels a tuple of n distinct strings, and tables frozen, in range,
        matching the signature and obeying the kind's axioms, by how they
        were made.  None of that is checked again.  order_masks, when
        given, are the (up, down) masks of order_masks(), kept as its memo:
        the one seed of a memo outside cached."""
        A = object.__new__(cls)
        object.__setattr__(A, "n", n)
        object.__setattr__(A, "labels", labels)
        object.__setattr__(A, "signature", signature)
        object.__setattr__(A, "tables", tables)
        object.__setattr__(A, "name", name)
        object.__setattr__(A, "_hash", None)
        # facts derived from the tables, kept by cached
        object.__setattr__(A, "_cache", {} if order_masks is None else {"order_masks": order_masks})
        return A

    def __setattr__(self, *a):
        raise AttributeError("FiniteAlgebra is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        return (
            self.n == other.n
            and self.labels == other.labels
            and self.signature == other.signature
            and self.tables == other.tables
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, self.labels, self.signature, tuple(sorted(self.tables.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        tag = self.name or self.signature.kind
        return f"<FiniteAlgebra {tag}: {self.n} elements>"

    # -- basic access -------------------------------------------------------

    def op(self, name: str, *args: int) -> int:
        t = self.tables[name]
        for a in args:
            t = t[a]
        return t

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise TableError(f"no element labelled {label!r}") from None

    def structure_key(self):
        """Label-independent key: congruence data depends on tables only."""
        return (self.n, self.signature, tuple(sorted(self.tables.items())))

    # -- lattice view -------------------------------------------------------

    @property
    def is_lattice(self) -> bool:
        return self.signature.is_lattice

    def require_lattice(self):
        if not self.is_lattice:
            raise KindError(f"operation requires a lattice, got kind {self.signature.kind!r}")

    def leq(self, a: int, b: int) -> bool:
        return self.op("meet", a, b) == a

    def bottom(self) -> int:
        self.require_lattice()
        if "bot" in self.tables:
            return self.tables["bot"]
        meet = self.tables["meet"]
        e = 0
        for x in range(1, self.n):
            e = meet[e][x]
        return e

    def top(self) -> int:
        self.require_lattice()
        if "top" in self.tables:
            return self.tables["top"]
        join = self.tables["join"]
        e = 0
        for x in range(1, self.n):
            e = join[e][x]
        return e

    @cached
    def order_masks(self) -> tuple[list[int], list[int]]:
        """The bitmasks of ↑a and ↓a for each a: b ∈ ↑a iff a∧b = a, and
        b ∈ ↓a iff a∨b = a.  The lattice check of a build leaves them in
        the cache."""
        self.require_lattice()
        return _up_masks(self.tables["meet"]), _up_masks(self.tables["join"])

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (a, b) with a covered by b, ordered by b, then a."""
        return cover_pairs(*self.order_masks())

    @cached
    def is_distributive_lattice(self) -> bool:
        """A finite lattice is distributive iff Freese's D is empty
        (`congruences` module doc), which join_classes reads.  On an algebra
        with other operations this is its lattice reduct's answer."""
        return join_classes(self).distributive

    # -- validation ---------------------------------------------------------

    def _validate_residuation(self):
        """top is a unit for times, which is commutative and associative,
        and a·b ≤ c iff a ≤ b → c.  Each (a, b) compares whole rows over c;
        only a failing pair is scanned, for the first failing c."""
        n = self.n
        if n > RESIDUATED_CAP:
            raise SizeCap(f"residuated carrier size {n} exceeds cap {RESIDUATED_CAP}")
        times, implies, top = self.tables["times"], self.tables["implies"], self.tables["top"]
        # le[x][c] says x ≤ c
        le = [tuple([m == x for m in row]) for x, row in enumerate(self.tables["meet"])]
        for a in range(n):
            ta, la = times[a], le[a]
            if ta[top] != a:
                raise TableError(f"top is not a unit for times at {self.labels[a]}")
            for b in range(n):
                ab = ta[b]
                if ab != times[b][a]:
                    raise TableError(
                        f"times not commutative at ({self.labels[a]}, {self.labels[b]})"
                    )
                tb, ib, tab, lab = times[b], implies[b], times[ab], le[ab]
                # (a·b)·c = a·(b·c), and a·b ≤ c iff a ≤ b → c, for every c
                if tab == tuple(map(ta.__getitem__, tb)) and lab == tuple(map(la.__getitem__, ib)):
                    continue
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise TableError(
                            f"times not associative at "
                            f"({self.labels[a]}, {self.labels[b]}, {self.labels[c]})"
                        )
                    if lab[c] != la[ib[c]]:
                        raise ResiduationViolation(
                            self.labels[a], self.labels[b], self.labels[c]
                        )


def _check_carrier(n):
    """The carrier cap, checked before any table of n elements is built."""
    if n > CARRIER_CAP:
        raise SizeCap(f"carrier size {n} exceeds cap {CARRIER_CAP}")


def _carrier_labels(n, labels) -> tuple[str, ...]:
    """labels as a tuple of n distinct strings, n in 1..CARRIER_CAP: the one
    check of labels given from outside, at every door.  A label must read
    back from the block syntax "a,b|c" of con and quotient --by, so it is
    not empty, has no surrounding whitespace and holds no ',' or '|'."""
    if n < 1:
        raise TableError("carrier must be non-empty")
    _check_carrier(n)
    labels = tuple(map(str, labels))
    if len(labels) != n:
        raise TableError("need exactly n distinct element labels")
    text = "".join(labels)
    if "," in text or "|" in text or "" in labels or tuple(map(str.strip, labels)) != labels:
        bad = next(lab for lab in labels if not lab or lab != lab.strip() or "," in lab or "|" in lab)
        raise TableError(f"element label {bad!r} is empty, has surrounding whitespace, or holds ',' or '|'")
    if len(set(labels)) != n:
        raise TableError("element labels are not distinct")
    return labels


def _with_axioms_checked(n, labels, signature, tables, name):
    """The algebra on frozen tables that are in range and match the
    signature, once its kind's axioms hold.  join and meet are a lattice's
    iff they are the least upper and greatest lower bounds of meet's order
    a ≤ b ⇔ a∧b = a (Davey & Priestley, ch. 2): that order is checked
    (_order_operations), and _order_lattice compares the tables with the
    ones it derives from it."""
    if not signature.is_lattice:
        return FiniteAlgebra._derived(n, labels, signature, tables, name)
    up = _up_masks(tables["meet"])
    return _order_lattice(labels, signature, name, up, _order_operations(up, labels), tables, tables)


# JSON's array and object, refused unread where a label belongs (_label_texts)
_NESTING_TYPES = frozenset((list, dict))
# the tables a lattice order determines (_order_lattice)
_ORDER_TABLES = frozenset(name for name, _ in KIND_OPERATIONS["bounded-lattice"])
# an explicit spec's signature order: the kinds' operations first, as the
# residuated kind, which requires them all, lists them; then the rest by name
_SPEC_ORDER = {name: i for i, (name, _) in enumerate(KIND_OPERATIONS["residuated"])}


def _read_table(raw, arity, n, fname, index=None):
    """The table raw of an operation fname of this arity over n elements,
    given from outside, as nested tuples: the one reader of both doors,
    FiniteAlgebra(...) and build_from_spec.  It goes level by level, as
    flat_table does.  Each node above the entries must be a list or tuple
    of n items, or the table is not total.  The entries, in argument order,
    are then mapped in one call: kept as they are when index is None, if
    all are ints in 0..n-1, else labels turned into indices through index.
    So a table with both a shape fault and a bad entry reports the shape
    fault, and a bad entry the first one in argument order."""
    flat = [raw]
    for _ in range(arity):
        if not all(isinstance(row, (list, tuple)) and len(row) == n for row in flat):
            raise TableError(f"table for {fname} is not total")
        flat = list(itertools.chain.from_iterable(flat))
    if index is None:
        if all(map(isinstance, flat, itertools.repeat(int))) and 0 <= min(flat) and max(flat) < n:
            return nest_table(flat, arity, n)
        raise TableError(f"constant {fname} out of range")
    try:  # index holds only str keys: any other entry raises
        return nest_table(map(index.__getitem__, flat), arity, n)
    except (KeyError, TypeError):
        bad = next(v for v in flat if not isinstance(v, str) or v not in index)
        _label_index(bad, index, f"table for {fname}")


# -- order-based construction ----------------------------------------------


def lattice_from_order(leq, labels, kind="lattice", name=None):
    """Build a lattice of kind lattice or bounded-lattice from a reflexive
    partial-order matrix: ``leq[a][b]`` is truthy iff a <= b.

    Every pair must have a unique least upper bound and greatest lower bound;
    otherwise NotALattice names an offending pair.  See _lattice_tables for
    how join and meet are derived.
    """
    if kind not in ("lattice", "bounded-lattice"):
        raise KindError(f"cannot build a lattice of kind {kind!r} from an order")
    n = len(leq)
    labels = _carrier_labels(n, labels)
    up = [sum(1 << c for c in range(n) if leq[a][c]) for a in range(n)]
    return _order_lattice(labels, lattice_signature(kind), name, up, _order_operations(up, labels), {})


def _order_lattice(labels, signature, name, up, down, extra, given=None):
    """The lattice of signature on the order whose up- and down-set masks
    are up and down, reflexive and transitive: the one routine by which an
    order becomes a lattice, which keeps the masks.  join and meet are
    derived from them (_lattice_tables), and bot and top, where the
    signature has them, are the elements whose up- and down-sets are
    everything.  The given tables of these, if any, must equal the derived
    ones.  extra holds the signature's other tables, frozen and in range,
    for which only residuation is checked."""
    join, meet = _lattice_tables(up, down, labels)
    tables = {"join": join, "meet": meet}
    for cname, masks in (("bot", up), ("top", down)):
        if (cname, 0) in signature.operations:
            tables[cname] = masks.index((1 << len(up)) - 1)
    if given is not None:
        for oname, what in (("join", "least upper bound"), ("meet", "greatest lower bound")):
            for a, (have, want) in enumerate(zip(given[oname], tables[oname])):
                if have != want:
                    b = next(b for b, (x, y) in enumerate(zip(have, want)) if x != y)
                    raise TableError(f"{oname} of ({labels[a]}, {labels[b]}) is not their {what} in meet's order")
        for cname, what in (("bot", "least"), ("top", "greatest")):
            if cname in tables and given[cname] != tables[cname]:
                raise TableError(f"declared {cname} is not the {what} element")
    tables.update(extra)
    A = FiniteAlgebra._derived(len(up), labels, signature, tables, name, (up, down))
    if signature.kind == "residuated":
        A._validate_residuation()
    return A


def _order_operations(up, labels) -> list[int]:
    """The down-set bitmasks of the order whose up-sets are the bitmasks up,
    for an order given from outside, an order matrix or meet's order of
    explicit tables: up is checked reflexive and transitive in O(n²) first.
    It is then antisymmetric too, or two elements share an up-set and
    _lattice_tables fails on their join."""
    n = len(up)
    down = [0] * n
    for a, m in enumerate(up):
        if not m >> a & 1:
            raise TableError(f"order is not reflexive at {labels[a]}")
        for c in _bits(m):
            if up[c] & ~m:
                raise TableError(f"order is not transitive at ({labels[a]}, {labels[c]})")
            down[c] |= 1 << a
    return down


def _lattice_tables(up, down, labels) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The join and meet tables of the partial order whose up- and down-set
    bitmasks are up and down: the one path by which every input is decided
    to be a lattice.  An element c with ↑c = ↑a ∩ ↑b is the least upper
    bound of a and b, and dually for the meet, so join and meet are the
    operations of the lattice the order is.  Otherwise NotALattice names
    the first pair (a, b), a ≤ b in index order, without a unique bound."""
    by_up, by_down = _element_of(up), _element_of(down)
    try:
        return (
            tuple([tuple([by_up[ua & u] for u in up]) for ua in up]),
            tuple([tuple([by_down[da & d] for d in down]) for da in down]),
        )
    except KeyError:  # not a lattice: find the pair, a row of both at a time
        pass
    for a, (ua, da) in enumerate(zip(up, down)):
        join = [by_up.get(ua & u, -1) for u in up]
        meet = [by_down.get(da & d, -1) for d in down]
        if -1 in join or -1 in meet:
            # a pair (b, a) with b < a would have failed at row b
            b = min(row.index(-1) for row in (join, meet) if -1 in row)
            what = "least upper bound" if join[b] < 0 else "greatest lower bound"
            raise NotALattice(labels[a], labels[b], what)


def _element_of(masks) -> dict[int, int]:
    """mask -> the element carrying it, for each mask no two elements share."""
    out = dict(zip(masks, itertools.count()))
    if len(out) < len(masks):
        for m, k in Counter(masks).items():
            if k > 1:
                del out[m]
    return out


def _up_masks(meet) -> list[int]:
    """The bitmask of ↑a = {b : a∧b = a} for each a."""
    return [sum(1 << b for b, m in enumerate(row) if m == a) for a, row in enumerate(meet)]


def _bits(mask: int) -> list[int]:
    """The indices of mask's set bits, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def cover_pairs(ups, downs) -> list[tuple[int, int]]:
    """The pairs a ≺ b of a finite order, ordered by b, then a, where ups[a]
    and downs[b] are the bitmasks of ↑a and ↓b.  The lower covers of b are
    the maximal elements of ↓b ∖ {b}.  From any member a of what is left,
    climb to a maximal one: while ↑a holds another member, step to the
    highest such.  A maximal element found is a cover; dropping its down-set
    leaves the other maximal elements and nothing below the found ones."""
    out = []
    for b, down in enumerate(downs):
        rest, lower = down & ~(1 << b), []
        while rest:
            a = rest.bit_length() - 1
            above = ups[a] & rest & ~(1 << a)
            while above:
                a = above.bit_length() - 1
                above = ups[a] & rest & ~(1 << a)
            lower.append(a)
            rest &= ~downs[a]
        out += [(a, b) for a in sorted(lower)]
    return out


# -- the J step -------------------------------------------------------------


# J(Con L) of a lattice L, read off its order and join table (join_classes).
# pairs lists (j₊, j) for each j ∈ J(L), in increasing j; seeds[c] is the
# pair of the least j of class c, so that Cg(j₊, j) is class c's congruence;
# under[c] is the mask of the classes strictly below c; classes[x], the
# class of x for x ∈ J(L), else None; down[c], under[c] with c; near[c], the
# classes comparable to c; components, the connected components; tops, the
# mask of their greatest elements when every component has one, else None;
# and distributive, whether D is empty.  The lists are shared by every
# reader and changed by none.
JClasses = namedtuple("JClasses", "pairs seeds under classes down near components tops distributive")


@cached
def join_classes(L: FiniteAlgebra) -> JClasses:
    """The J step of a lattice L, or of an algebra's lattice reduct, in one
    pass over its order masks and join table (`congruences` module doc).
    k D j is tested at the m ∈ M(L) with j₊ ≤ m and j ≰ m, as k ≤ j∨m and
    k ≰ m.  When D is empty, L is distributive and J(Con L) is an antichain
    with one class per j.  Otherwise D* comes from Warshall's algorithm on
    the rows {k : k D* j}, j and k share a class iff their rows are equal,
    the classes are numbered by their least members, and J(Con L)'s order
    is read off the classes' down-sets.  Memoized on L."""
    up, down = L.order_masks()
    join, ups, at = L.tables["join"], set(up), {d: x for x, d in enumerate(down)}
    pairs, js, meet_irreducible = [], 0, 0
    for x, (u, d) in enumerate(zip(up, down)):
        bit = 1 << x
        if u ^ bit in ups:
            meet_irreducible |= bit
        if d ^ bit in at:
            pairs.append((at[d ^ bit], x))
            js |= bit
    jd = [d & js for d in down]  # J(L) ∩ ↓x
    below, dependent = {}, False
    for jp, j in pairs:
        acc, row = 1 << j, join[j]
        ms = up[jp] & ~up[j] & meet_irreducible
        while ms:
            low = ms & -ms
            m = low.bit_length() - 1
            acc |= jd[row[m]] & ~jd[m]
            ms ^= low
        below[j] = acc
        if acc & (acc - 1):
            dependent = True
    classes = [None] * L.n
    if not dependent:
        # each j its own class, alone in its component and its top
        points = []
        for _, j in pairs:
            classes[j] = len(points)
            points.append(1 << classes[j])
        pairs, full = tuple(pairs), (1 << len(points)) - 1
        return JClasses(pairs, pairs, (0,) * len(points), tuple(classes), points, points, points, full, True)
    for i, bi in below.items():
        if bi & (bi - 1):
            bit = 1 << i
            for k, bk in below.items():
                if bk & bit:
                    below[k] = bk | bi
    class_of, seeds = {}, []
    for jp, j in pairs:
        c = classes[j] = class_of.setdefault(below[j], len(seeds))
        if c == len(seeds):
            seeds.append((jp, j))
    down = []
    for members in class_of:
        d = 0
        while members:
            low = members & -members
            d |= 1 << classes[low.bit_length() - 1]
            members ^= low
        down.append(d)
    under = tuple([d & ~(1 << c) for c, d in enumerate(down)])
    order = _j_order(down, (1 << len(down)) - 1)
    return JClasses(tuple(pairs), tuple(seeds), under, tuple(classes), down, *order, False)


def class_pairs(L: FiniteAlgebra):
    """Yield (c, row, ys) for each j ∈ J(L) of a lattice L, in increasing j:
    c the class of j in join_classes(L), row the join row of j, and ys the
    mask of the y with j₊ ≤ y and j ≰ y.  The pairs (y, row[y]) are class
    c's pairs, read off the join table with no cover found, and

        the covers of L of class c ⊆ class c's pairs ⊆ Cg(j₊, j).

    A pair lies in Cg(j₊, j): (y, j∨y) = (y∨j₊, y∨j).  A cover y ≺ x of
    class c has a minimal j ≤ x with j ≰ y, which is in J(L) and of class c
    (`congruences` module doc).  Every z < j has z ≤ x, so z ≤ y by j's
    minimality, and then j₊ ≤ y; and y < y∨j ≤ x gives j∨y = x, so (y, x) is one of j's pairs."""
    up, join, step = L.order_masks()[0], L.tables["join"], join_classes(L)
    for jp, j in step.pairs:
        yield step.classes[j], join[j], up[jp] & ~up[j]


def _j_order(down: list[int], within: int) -> tuple[list[int], list[int], int | None]:
    """(near, components, tops) of the order on the members of within whose
    down-sets are down: near[g], the members comparable to g; the connected
    components; and the mask of their greatest elements when every
    component has one, else None."""
    near = down[:]
    for h, below in enumerate(down):
        while below:
            low = below & -below
            near[low.bit_length() - 1] |= 1 << h
            below ^= low
    components, tops = _components(near, within), 0
    for g, d in enumerate(down):
        if d in components:  # g is the top of its component iff ↓g is all of it
            tops |= 1 << g
    return near, components, tops if tops.bit_count() == len(components) else None


def _components(near: list[int], within: int) -> list[int]:
    """The connected components of the members of within, each grown from
    its lowest member one step of near at a time."""
    components = []
    while within:
        reached = frontier = within & -within
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= near[low.bit_length() - 1]
                frontier ^= low
            frontier = step & within & ~reached
            reached |= frontier
        components.append(reached)
        within &= ~reached
    return components


# -- AlgebraSpec ------------------------------------------------------------


def build_from_spec(spec: dict) -> FiniteAlgebra:
    """Build a FiniteAlgebra from an on-disk spec (parsed JSON).

    Two shapes are accepted: a cover relation ("cover": [[lo, hi], ...]) from
    which join/meet are synthesized, with the "times" and "implies" tables of
    the residuated kind and no other table, or explicit "operations" tables
    (nested lists of labels) with optional "constants".  A table nested
    past ARITY_CAP raises NestedTooDeeply.
    """
    if not isinstance(spec, dict):
        raise TableError("algebra spec must be a JSON object")
    kind = spec.get("kind", "algebra")
    if kind == "algebra":
        # a cover can only describe a lattice
        kind = "lattice" if "cover" in spec else "generic"
    if kind not in KINDS:
        nested = type(kind) in _NESTING_TYPES  # refused unread, as _label_texts does
        raise TableError("spec field 'kind' holds a JSON array or object" if nested else f"unknown kind {kind!r}")
    labels = _label_texts(_spec_field(spec, "elements", list), "spec field 'elements'")
    n = len(labels)
    labels = _carrier_labels(n, labels)
    index = dict(zip(labels, itertools.count()))
    name = spec.get("name")
    if name is not None and not isinstance(name, str):
        raise TableError("spec field 'name' must be a JSON string")
    operations = _spec_field(spec, "operations", dict)

    if "cover" in spec:
        up, down = _close_cover(_spec_field(spec, "cover", list), labels, index)
        taken = {f: arity for f, arity in KIND_OPERATIONS[kind] if f not in _ORDER_TABLES}
        stray = sorted(set(operations).difference(taken)) + sorted(_spec_field(spec, "constants", dict))
        if stray:
            raise TableError(f"cover spec of kind {kind!r} carries tables it cannot use: {', '.join(stray)}")
        extra = {}
        for opname, arity in taken.items():
            if opname not in operations:
                raise TableError(f"{kind} spec requires a {opname!r} table")
            extra[opname] = _read_table(operations[opname], arity, n, opname, index)
        return _order_lattice(labels, lattice_signature(kind), name, up, down, extra)

    if "operations" not in spec and (n > 1 or kind != "generic"):
        raise TableError("spec needs either a cover relation or operation tables")

    tables = {}
    sig_ops = []
    for opname, raw in operations.items():
        arity = _table_arity(raw, opname)
        tables[opname] = _read_table(raw, arity, n, opname, index)
        sig_ops.append((opname, arity))
    for cname, lab in _spec_field(spec, "constants", dict).items():
        tables[cname] = _label_index(lab, index, f"constant {cname}")
        sig_ops.append((cname, 0))
    sig_ops.sort(key=lambda p: (_SPEC_ORDER.get(p[0], 99), p[0]))
    # _read_table builds the tables in range, matching the signature
    return _with_axioms_checked(n, labels, Signature(tuple(sig_ops), kind), tables, name)


def _spec_field(spec, key, shape):
    """spec[key], absent as an empty value, or TableError if it has the wrong shape."""
    value = spec.get(key, shape())
    if not isinstance(value, shape):
        raise TableError(f"spec field {key!r} must be a JSON {'list' if shape is list else 'object'}")
    return value


def _label_texts(values, what) -> tuple:
    """values, JSON strings or numbers, as labels.  A JSON array or object
    among them is refused unread: its str() or repr() walks it, and may
    recurse past the interpreter's limit."""
    if not _NESTING_TYPES.isdisjoint(map(type, values)):
        raise TableError(f"{what} holds a JSON array or object where a label belongs")
    return tuple(map(str, values))


def _label_index(lab, index, what):
    if not isinstance(lab, str) or lab not in index:
        _label_texts((lab,), what)
        raise TableError(f"{what} refers to unknown label {lab!r}")
    return index[lab]


def _close_cover(cover, labels, index):
    """The up- and down-set bitmasks of each element in the order the
    cover pairs generate, their reflexive-transitive closure (Davey &
    Priestley, ch. 1), in one topological pass (Kahn's algorithm): an
    element is taken once every element below it by a pair is, and hands
    its down-set on to those above it; then ↑a is a and the up-sets of the
    elements above a by a pair, in reverse order.  Both are reflexive and
    transitive by construction.  An element the pass never takes lies on
    or above a cycle; the first one in index order that its own search
    reaches again is named."""
    n = len(labels)
    # a pair listed twice is counted, and counted off, twice
    succ, waiting = [[] for _ in range(n)], [0] * n
    for pair in cover:
        if not isinstance(pair, list) or len(pair) != 2:
            if isinstance(pair, dict):
                raise TableError("spec field 'cover' holds a JSON object where a pair belongs")
            _label_texts(pair if isinstance(pair, list) else (), "spec field 'cover'")
            raise TableError(f"bad cover pair {pair!r}")
        lo, hi = pair if type(pair[0]) is type(pair[1]) is str else _label_texts(pair, "spec field 'cover'")
        a, b = index.get(lo), index.get(hi)
        if a is None or b is None:
            raise TableError(f"cover pair ({lo}, {hi}) uses unknown labels")
        succ[a].append(b)
        waiting[b] += 1
    down = [1 << a for a in range(n)]
    order = [a for a in range(n) if not waiting[a]]
    for a in order:
        below = down[a]
        for b in succ[a]:
            down[b] |= below
            waiting[b] -= 1
            if not waiting[b]:
                order.append(b)
    if len(order) < n:
        for a in range(n):
            if waiting[a] and _reaches_itself(succ, a):
                raise TableError(f"cover relation has a cycle through {labels[a]}")
    up = [0] * n
    for a in reversed(order):
        m = 1 << a
        for b in succ[a]:
            m |= up[b]
        up[a] = m
    return up, down


def _reaches_itself(succ, a) -> bool:
    """A path of one or more steps leads from a back to a."""
    seen, stack = 1 << a, list(succ[a])
    while stack:
        b = stack.pop()
        if b == a:
            return True
        if not seen >> b & 1:
            seen |= 1 << b
            stack.extend(succ[b])
    return False


def _table_arity(raw, fname):
    """The depth of raw's first entry: the arity its nesting claims, at most
    ARITY_CAP, read before its table is built."""
    arity = 0
    t = raw
    while isinstance(t, list):
        if not t:
            raise TableError(f"table for {fname} is not total")
        if arity == ARITY_CAP:
            raise NestedTooDeeply("spec tables are nested too deeply")
        arity += 1
        t = t[0]
    return arity


def emit_spec(algebra: FiniteAlgebra) -> dict:
    """Inverse of build_from_spec, as explicit operation tables."""
    labels = algebra.labels
    ops, consts = {}, {}
    for fname, arity in algebra.signature.operations:
        flat = map(labels.__getitem__, flat_table(algebra.tables[fname], arity))
        (ops if arity else consts)[fname] = nest_table(flat, arity, algebra.n, list)
    kind = algebra.signature.kind
    out = {
        "name": algebra.name,
        "kind": "algebra" if kind == "generic" else kind,
        "elements": list(labels),
        "operations": ops,
    }
    if consts:
        out["constants"] = consts
    return out


# -- constructions ----------------------------------------------------------


def lattice_reduct(A: FiniteAlgebra, kind: str = "lattice") -> FiniteAlgebra:
    """Forget everything but the lattice operations (and, for the
    bounded-lattice kind, the bounds)."""
    A.require_lattice()
    if kind not in ("lattice", "bounded-lattice"):
        raise KindError(f"cannot reduce to kind {kind!r}")
    tables = {"join": A.tables["join"], "meet": A.tables["meet"]}
    if kind == "bounded-lattice":
        tables["bot"] = A.bottom()
        tables["top"] = A.top()
    return FiniteAlgebra._derived(A.n, A.labels, lattice_signature(kind), tables, A.name)


def dual(L: FiniteAlgebra) -> FiniteAlgebra:
    """Order-dual lattice: join and meet (and bot/top) swapped, and with
    them L's up- and down-set masks."""
    L.require_lattice()
    if L.signature.kind == "residuated":
        raise KindError("the dual of a residuated lattice is not residuated")
    tables = dict(L.tables)
    tables["join"], tables["meet"] = L.tables["meet"], L.tables["join"]
    if "bot" in tables:
        tables["bot"], tables["top"] = L.tables["top"], L.tables["bot"]
    name = f"dual({L.name})" if L.name else None
    up, down = L.order_masks()
    return FiniteAlgebra._derived(L.n, L.labels, L.signature, tables, name, (down, up))


def product_radix(sizes: list[int]) -> list[int]:
    """Mixed-radix place values: index = sum e_i * radix[i]."""
    radix = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        radix[i] = radix[i + 1] * sizes[i + 1]
    return radix


def product_decode(idx, sizes, radix):
    return tuple((idx // r) % s for s, r in zip(sizes, radix))


def direct_product(algebras: list[FiniteAlgebra], name=None) -> FiniteAlgebra:
    """Componentwise product with fixed mixed-radix element encoding."""
    if not algebras:
        raise SignatureMismatch("empty product")
    sig = algebras[0].signature
    for A in algebras[1:]:
        if A.signature != sig:
            raise SignatureMismatch("product factors must share the signature")
    if sig.kind == "residuated":
        raise KindError("products of residuated fixtures are out of scope")
    sizes = [A.n for A in algebras]
    total = 1
    for s in sizes:
        total *= s
        if total > CARRIER_CAP:
            raise SizeCap(f"product carrier exceeds cap {CARRIER_CAP}")
    radix = product_radix(sizes)
    labels = []
    for idx in range(total):
        tup = product_decode(idx, sizes, radix)
        labels.append("(" + ";".join(A.labels[e] for A, e in zip(algebras, tup)) + ")")
    tables = {}
    for fname, arity in sig.operations:
        t, n = algebras[0].tables[fname], algebras[0].n
        for B in algebras[1:]:
            t = product_table(t, n, B.tables[fname], B.n, arity)
            n *= B.n
        tables[fname] = t
    masks = None
    if sig.is_lattice:
        # the order masks, folded as the tables are, with no table scanned
        masks = algebras[0].order_masks()
        for B in algebras[1:]:
            masks = tuple(_product_masks(ms, mb, B.n) for ms, mb in zip(masks, B.order_masks()))
    if name is None:
        parts = [A.name or "?" for A in algebras]
        name = "x".join(parts)
    return FiniteAlgebra._derived(total, tuple(labels), sig, tables, name, masks)


def _product_masks(ma: list[int], mb: list[int], nb: int) -> list[int]:
    """The up- (or down-) set masks of A×B from A's and B's, where (a, b) is
    a·nb + b: ↑(a, b) = ↑a × ↑b, B's mask placed at each a'·nb for a' ∈ ↑a,
    which is a product of integers, as nb bits hold each copy."""
    spread = [sum(1 << x * nb for x in _bits(m)) for m in ma]
    return [s * m for s in spread for m in mb]


def ordinal_sum(L: FiniteAlgebra, M: FiniteAlgebra, name=None) -> FiniteAlgebra:
    """Stack M on top of L, identifying top(L) with bot(M).

    Element encoding: L keeps its indices; the remaining M elements follow in
    increasing M-index order.  The shared element keeps L's label.
    """
    return ordinal_sum_with_maps(L, M, name=name)[0]


def ordinal_sum_with_maps(L, M, name=None):
    """ordinal_sum plus the two index embeddings (L-index -> sum-index,
    M-index -> sum-index); top(L) and bot(M) map to the same index.  The
    sum has L's kind: neither part may be residuated."""
    L.require_lattice()
    M.require_lattice()
    if L.signature.kind == "residuated" or M.signature.kind == "residuated":
        raise KindError("ordinal sums of residuated fixtures are out of scope")
    bot_m = M.bottom()
    m_rest = [j for j in range(M.n) if j != bot_m]
    n = L.n + M.n - 1
    _check_carrier(n)
    map_l, map_m = list(range(L.n)), [L.top()] * M.n
    for k, j in enumerate(m_rest):
        map_m[j] = L.n + k
    labels = list(L.labels)
    for j in m_rest:
        lab = M.labels[j]
        while lab in labels:
            lab += "'"
        labels.append(lab)
    # L keeps its indices and lies below the rest of M, which follows it
    (up_l, down_l), (up_m, down_m) = L.order_masks(), M.order_masks()
    rest, below = (1 << n) - (1 << L.n), (1 << L.n) - 1

    def moved(m):
        return sum(1 << map_m[b] for b in _bits(m))

    up = [m | rest for m in up_l] + [moved(up_m[j]) for j in m_rest]
    down = down_l + [below | moved(down_m[j]) for j in m_rest]
    if name is None and L.name and M.name:
        name = f"{L.name}+{M.name}"
    return _order_lattice(tuple(labels), lattice_signature(L.signature.kind), name, up, down, {}), map_l, map_m


def sublattice(L: FiniteAlgebra, subset, name=None) -> FiniteAlgebra:
    """Induced lattice on a join/meet-closed subset of L's carrier."""
    L.require_lattice()
    sub = sorted(set(subset))
    if not sub:
        raise NotClosed("", "", "empty")
    pos = {e: i for i, e in enumerate(sub)}
    join, meet = L.tables["join"], L.tables["meet"]
    for a in sub:
        for b in sub:
            if join[a][b] not in pos:
                raise NotClosed(L.labels[a], L.labels[b], "join")
            if meet[a][b] not in pos:
                raise NotClosed(L.labels[a], L.labels[b], "meet")
    tables = {"join": map_table(join, 2, sub, pos), "meet": map_table(meet, 2, sub, pos)}
    labels = [L.labels[e] for e in sub]
    return FiniteAlgebra._derived(len(sub), tuple(labels), lattice_signature(), tables, name)


# -- isomorphism ------------------------------------------------------------


def find_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra):
    """A bijection carrier(A) -> carrier(B) commuting with all operations,
    or None.  Backtracking over A's elements in index order, for desk-scale
    carriers.  Each entry f(args) = v of A's tables is put in the bucket of
    max(v, *args), the last of its elements to be mapped, and a bucket is
    checked against B's tables when its element is mapped.  So a complete
    mapping has had every entry checked, and commutes with every operation.
    An image is tried only if it is a value of each operation as often as
    the element is, which every isomorphism preserves; so A and B whose
    counts differ as multisets are refused before any search."""
    if A.n != B.n or A.signature.operations != B.signature.operations:
        return None
    n, ops = A.n, A.signature.operations

    def profile(X):
        counts = [Counter(flat_table(X.tables[f], arity)) for f, arity in ops]
        return [tuple(c[e] for c in counts) for e in range(n)]

    pa, pb = profile(A), profile(B)
    if sorted(pa) != sorted(pb):
        return None
    buckets = [[] for _ in range(n)]
    for f, arity in ops:
        tb = B.tables[f]
        for args, v in zip(itertools.product(range(n), repeat=arity), flat_table(A.tables[f], arity)):
            buckets[max((v, *args))].append((tb, args, v))
    mapping, used = [-1] * n, [False] * n

    def fits(e):
        for t, args, v in buckets[e]:
            for a in args:
                t = t[mapping[a]]
            if t != mapping[v]:
                return False
        return True

    def extend(e):
        if e == n:
            return True
        for img in range(n):
            if not used[img] and pa[e] == pb[img]:
                mapping[e] = img
                if fits(e):
                    used[img] = True
                    if extend(e + 1):
                        return True
                    used[img] = False
        return False

    return mapping if extend(0) else None


def flat_table(t, arity: int) -> list:
    """The values of an operation table of this arity, its argument tuples
    in lexicographic order; a constant gives [t]."""
    flat = [t]
    for _ in range(arity):
        flat = list(itertools.chain.from_iterable(flat))
    return flat


def nest_table(flat, arity: int, n: int, row=tuple):
    """The inverse of flat_table: the values of a table of this arity over
    n elements, in argument order, from any iterable, nested in rows of n,
    each made by row; a constant gives its one value.  Each level is read
    as it is nested, so no list of the values is made."""
    for _ in range(arity):
        flat = map(row, zip(*[iter(flat)] * n))
    return next(iter(flat))


def map_table(t, arity: int, keys, value) -> tuple:
    """The table t of this arity restricted to the argument tuples over
    keys, in keys' order, each entry v replaced by value[v], as nested
    tuples; a constant gives value[t].  It goes level by level to the
    rows, and maps a row in one pass."""
    if not arity:
        return value[t]
    rows = [t]
    for _ in range(arity - 1):
        rows = [row[k] for row in rows for k in keys]
    return nest_table([tuple([value[row[k]] for k in keys]) for row in rows], arity - 1, len(keys))


def product_table(ta, na: int, tb, nb: int, arity: int):
    """An operation's table on A×B from its tables ta on A and tb on B,
    where (a, b) is a·nb + b: f((a⃗, b⃗)) = f_A(a⃗)·nb + f_B(b⃗), as nested
    tuples.  ta's values are scaled once.  Then it goes level by level:
    each pair of a row of ta and a row of tb gives the pairs of their
    items, A's outer as the encoding orders them, and at the last level a
    row of the sums."""
    if not arity:
        return ta * nb + tb
    pairs = [(map_table(ta, arity, range(na), list(range(0, na * nb, nb))), tb)]
    for _ in range(arity - 1):
        pairs = [(x, y) for sa, sb in pairs for x in sa for y in sb]
    return nest_table([tuple([x + y for x in sa for y in sb]) for sa, sb in pairs], arity - 1, na * nb)


# -- partitions -------------------------------------------------------------


def partition_refines(p, q) -> bool:
    """True iff partition p is a refinement of q (p <= q as congruences)."""
    return all(q[e] == q[p[e]] for e in range(len(p)))


def kernel(keys) -> tuple[int, ...]:
    """The canonical partition of x ↦ keys[x]: each x joins the block of
    the least element with the same key."""
    first: dict = {}
    return tuple(map(first.setdefault, keys, itertools.count()))


def meet_partitions(p, q) -> tuple[int, ...]:
    """Common refinement of two partitions (their meet)."""
    return kernel(zip(p, q))


def join_partitions(p, q) -> tuple[int, ...]:
    """Finest partition coarser than both (their join), by union-find; p
    is canonical, q any parent forest."""
    return merge_pairs(p, enumerate(q))


def merge_pairs(p, pairs) -> tuple[int, ...]:
    """The canonical partition p with the blocks of a and b merged for each
    pair (a, b): the join of p with the equivalence the pairs generate.  The
    union-find runs on p's block minima alone, always linking the larger to
    the smaller, so each root stays the least member of its block."""
    link: dict[int, int] = {}
    for a, b in pairs:
        ra, rb = p[a], p[b]
        while ra in link:
            ra = link[ra]
        while rb in link:
            rb = link[rb]
        if ra < rb:
            link[rb] = ra
        elif rb < ra:
            link[ra] = rb
    for r, x in link.items():
        while x in link:
            x = link[x]
        link[r] = x
    return tuple(map(link.get, p, p))


def delta_partition(n) -> tuple[int, ...]:
    return tuple(range(n))


def nabla_partition(n) -> tuple[int, ...]:
    return (0,) * n


def block_masks(block_of) -> tuple[int, ...]:
    """Per-element bitmask of its block, for fast relation arithmetic."""
    n = len(block_of)
    mask: dict[int, int] = {}
    for e, r in enumerate(block_of):
        mask[r] = mask.get(r, 0) | (1 << e)
    return tuple(mask[block_of[e]] for e in range(n))
