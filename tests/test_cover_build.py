"""The build of a cover spec, and the private path of what congrlab derives.

A cover spec's order is the reflexive-transitive closure of its pairs,
made in one topological pass, so its up- and down-sets are reflexive and
transitive by construction and join and meet are read off them with no
second scan.  Here that path is held to the search from every element and
the entry-by-entry scan it replaced (oracles.dfs_cover_closure and
oracles.scanned_lattice), on the sweep, the fixtures, chains, L2^k, T×E and
seeded random cover relations with redundant and duplicate pairs,
self-loops and cycles.  Then every construction that skips the public
constructor's checks is shown to give tables those checks accept, and the
carrier cap is shown to come before any table is built.
"""

import json
import random

import pytest

from congrlab import algebra
from congrlab.algebra import (
    CARRIER_CAP,
    FiniteAlgebra,
    _up_masks,
    build_from_spec,
    direct_product,
    dual,
    emit_spec,
    lattice_from_order,
    lattice_reduct,
    ordinal_sum,
    sublattice,
)
from congrlab.cli import main
from congrlab.congruences import Congruence, all_congruences
from congrlab.errors import CongrlabError, SizeCap
from congrlab.fixtures import FIXTURE_NAMES, fixture, fixture_spec
from congrlab.lifting import quotient

from oracles import dfs_cover_closure, freeze_tables, scanned_lattice
from sweep import sweep
from test_distributive_lattices import boolean_spec, chain_spec


def cover_spec(A, name=None):
    """A lattice as the cover spec of its order."""
    labels = A.labels
    return {"name": name or A.name, "kind": "lattice", "elements": list(labels),
            "cover": [[labels[a], labels[b]] for a, b in A.covers()]}


def built(spec):
    """The order masks and lattice tables of the spec's build, or the name
    and text of the error it raises."""
    try:
        A = build_from_spec(spec)
    except CongrlabError as exc:
        return type(exc).__name__, str(exc)
    return A.order_masks(), A.tables["join"], A.tables["meet"]


def searched(spec):
    """built(spec) by the oracles: the search from every element, then the
    scan of the closure and the tables entry by entry."""
    labels = [str(x) for x in spec["elements"]]
    try:
        up = dfs_cover_closure(spec["cover"], labels)
        down, join, meet = scanned_lattice(up, labels)
    except CongrlabError as exc:
        return type(exc).__name__, str(exc)
    return (up, down), join, meet


def lattice_cover_specs():
    specs = [cover_spec(A, f"sweep{i}") for i, A in enumerate(sweep())]
    specs += [fixture_spec(name) for name in FIXTURE_NAMES]
    specs += [chain_spec(n) for n in (1, 2, 5, 16, 64)] + [boolean_spec(k) for k in range(1, 7)]
    return specs + [cover_spec(direct_product([fixture("T"), fixture("E")]))]


def test_the_topological_closure_builds_what_the_search_from_every_element_built():
    specs = lattice_cover_specs()
    assert len(specs) == 225 + 16 + 5 + 6 + 1
    for spec in specs:
        got = built(spec)
        assert got == searched(spec), spec["name"]
        assert len(got) == 3, (spec["name"], got)  # every one is a lattice


def random_cover_spec(rng):
    """A cover relation on 1-9 elements along a random order of them, often
    with a least and a greatest element, plus now and then a redundant
    (transitive) pair, a duplicate pair, a self-loop or a pair against the
    order, which closes a cycle."""
    n = rng.randint(1, 9)
    perm = rng.sample(range(n), n)
    p = rng.uniform(0.1, 0.6)
    pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    if rng.random() < 0.6:  # bounds, mostly redundant pairs
        pairs += [(perm[0], x) for x in perm[1:]] + [(x, perm[-1]) for x in perm[1:-1]]
    below = {b: {a for a, c in pairs if c == b} for b in range(n)}
    for _ in range(rng.choice((0, 0, 1, 2))):  # a redundant pair a < b < c
        chains = [(a, c) for b in range(n) for a in below[b] for c in range(n) if b in below[c]]
        if chains:
            pairs.append(rng.choice(chains))
    if pairs and rng.random() < 0.3:
        pairs.append(rng.choice(pairs))
    if rng.random() < 0.08:
        x = rng.randrange(n)
        pairs.append((x, x))
    if pairs and rng.random() < 0.08:
        a, b = rng.choice(pairs)
        pairs.append((b, a))
    rng.shuffle(pairs)
    labels = [f"v{i}" for i in range(n)]
    return {"name": "random", "kind": "lattice", "elements": labels,
            "cover": [[labels[a], labels[b]] for a, b in pairs]}


def test_random_cover_relations_close_and_fail_as_the_search_did():
    rng = random.Random(4040)
    seen = {"lattice": 0, "NotALattice": 0, "cycle": 0, "self-loop": 0}
    for _ in range(1500):
        spec = random_cover_spec(rng)
        labels = spec["elements"]
        index = {lab: i for i, lab in enumerate(labels)}
        try:
            want = dfs_cover_closure(spec["cover"], labels)
        except CongrlabError as exc:
            want = str(exc)
        try:
            up, down = algebra._close_cover(spec["cover"], labels, index)
        except CongrlabError as exc:
            got = str(exc)
        else:
            got = up
            assert down == [sum(1 << a for a, m in enumerate(up) if m >> c & 1) for c in range(len(up))], spec
        assert got == want, spec
        outcome = built(spec)
        assert outcome == searched(spec), spec
        if isinstance(want, str):
            loops = any(lo == hi for lo, hi in spec["cover"])
            seen["self-loop" if loops else "cycle"] += 1
        else:
            seen["lattice" if len(outcome) == 3 else outcome[0]] += 1
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize(
    "cover,error",
    [
        ([["a", "b"], ["b", "c"], ["c", "a"]], "TableError"),
        ([["a", "b"], ["b", "b"]], "TableError"),
        ([["a", "b"], ["b"]], "TableError"),
        ([["a", "b"], "bc"], "TableError"),
        ([["a", "z"]], "TableError"),
        ([[1, 2]], "TableError"),
        ([["a", "b"], ["a", "c"]], "NotALattice"),
        ([["a", "b"], ["a", "c"], ["b", "c"], ["a", "c"], ["a", "c"]], None),
    ],
)
def test_malformed_covers_fail_with_the_searchs_text(cover, error):
    spec = {"kind": "lattice", "elements": ["a", "b", "c"], "cover": cover}
    got = built(spec)
    assert got == searched(spec)
    assert got[0] == error if error else len(got) == 3


# -- the private path -----------------------------------------------------------


def derived_algebras():
    """(what, algebra) for each fixture's spec build and for what congrlab
    derives from it: dual, lattice reduct, product, sublattices, ordinal
    sum and every quotient."""
    out = []
    for name in FIXTURE_NAMES:
        A = build_from_spec(fixture_spec(name))
        out.append((f"{name}", A))
        out += [(f"{name}/{c.block_string()}", quotient(A, c).quotient) for c in all_congruences(A).elements]
        if not A.is_lattice:
            continue
        out.append((f"reduct({name})", lattice_reduct(A)))
        out.append((f"sublattice({name})", sublattice(A, range(A.n))))
        out.append((f"bounds({name})", sublattice(A, {A.bottom(), A.top()})))
        if A.signature.kind != "residuated":
            out.append((f"dual({name})", dual(A)))
            out.append((f"{name}+L3", ordinal_sum(A, fixture("L3"))))
            out.append((f"L2+{name}", ordinal_sum(fixture("L2"), A)))
            out.append((f"{name}x{name}", direct_product([A, A])))
    out.append(("L2xL3", direct_product([fixture("L2"), fixture("L3")])))
    return out


def test_what_congrlab_derives_passes_every_check_of_the_public_constructor():
    carried = set()
    for what, B in derived_algebras():
        assert freeze_tables(B.tables) == B.tables, what
        assert isinstance(B.labels, tuple) and all(isinstance(x, str) for x in B.labels), what
        copy = FiniteAlgebra(B.n, B.labels, B.signature, B.tables, B.name)
        assert copy == B and hash(copy) == hash(B), what
        assert build_from_spec(emit_spec(B)) == B, what
        if "order_masks" in B._cache:
            carried.add(what.split("(")[0] if "(" in what else what)
            assert B._cache["order_masks"] == (_up_masks(B.tables["meet"]), _up_masks(B.tables["join"])), what
    # the spec build, dual, ordinal sum and product carry the masks they derived
    assert {"P", "R0", "dual", "P+L3", "L2+P", "PxP", "L2xL3"} <= carried


def test_every_member_of_con_is_a_congruence_checked_in_full():
    for A in sweep() + [fixture(name) for name in FIXTURE_NAMES]:
        for c in all_congruences(A).elements:
            assert Congruence(A, c.block_of, check=True) == c


# -- the carrier cap ------------------------------------------------------------


def refuse(*args):
    raise AssertionError("a table was built for a carrier past the cap")


def test_the_carrier_cap_comes_before_any_table_is_built(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(algebra, "_close_cover", refuse)
    monkeypatch.setattr(algebra, "_read_table", refuse)
    spec = chain_spec(CARRIER_CAP + 1)
    message = f"carrier size {CARRIER_CAP + 1} exceeds cap {CARRIER_CAP}"
    with pytest.raises(SizeCap, match=f"^{message}$"):
        build_from_spec(spec)
    labels = spec["elements"]
    with pytest.raises(SizeCap, match=f"^{message}$"):
        build_from_spec({"kind": "algebra", "elements": labels, "operations": {"f": labels}})
    # at the cap itself the build goes on to close the cover
    with pytest.raises(AssertionError, match="past the cap"):
        build_from_spec(chain_spec(CARRIER_CAP))
    path = tmp_path / "C4097.json"
    path.write_text(json.dumps(spec))
    capsys.readouterr()
    assert main(["con", "--file", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_an_order_or_ordinal_sum_past_the_cap_builds_no_table(monkeypatch):
    monkeypatch.setattr(algebra, "CARRIER_CAP", 6)
    monkeypatch.setattr(algebra, "_order_operations", refuse)
    monkeypatch.setattr(algebra, "_lattice_tables", refuse)
    with pytest.raises(SizeCap, match="^carrier size 7 exceeds cap 6$"):
        lattice_from_order([[i <= j for j in range(7)] for i in range(7)], "abcdefg")
    with pytest.raises(SizeCap, match="^carrier size 7 exceeds cap 6$"):
        ordinal_sum(fixture("L2x2"), fixture("L2x2"))
