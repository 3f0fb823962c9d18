"""Inputs of the three workloads.

Everything here is plain data (JSON specs and order matrices), made without
the program under test, which only ever sees the finished inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

SRC_DATA = Path(__file__).resolve().parent.parent / "src" / "congrlab" / "data"

# Specs that the CLI must reject with exit code 2.  They do not depend on the
# seed, so the share of failed operations is the same in every run.
MALFORMED_SPECS = {
    "truncated": '{"name": "cut", "kind": "lattice", "elements": ["0", "1"], "cov',
    "cover_not_pairs": json.dumps({"kind": "lattice", "elements": ["0", "1"], "cover": [1]}),
    "empty_table": json.dumps({"kind": "algebra", "elements": ["0", "1"], "operations": {"f": []}}),
}


def fixture_spec(name: str) -> dict:
    return json.loads((SRC_DATA / f"{name}.json").read_text())


def _permute_table(raw, order):
    """Re-index a nested label table so that row i is the old row order[i]."""
    if not isinstance(raw, list):
        return raw
    return [_permute_table(raw[i], order) for i in order]


def relabelled(spec: dict, rng: random.Random) -> dict:
    """An isomorphic copy whose element order, and every operation table with
    it, is shuffled.  Labels travel with their elements."""
    n = len(spec["elements"])
    order = list(range(n))
    rng.shuffle(order)
    out = dict(spec)
    out["elements"] = [spec["elements"][i] for i in order]
    if "operations" in spec:
        out["operations"] = {f: _permute_table(t, order) for f, t in spec["operations"].items()}
    return out


# -- large algebras, as cover relations ----------------------------------------


def chain_spec(n: int) -> dict:
    labels = [f"c{i}" for i in range(n)]
    return {"name": f"C{n}", "kind": "lattice", "elements": labels,
            "cover": [[labels[i], labels[i + 1]] for i in range(n - 1)]}


def boolean_spec(k: int) -> dict:
    """L2^k as the subsets of a k-set; a cover adds one member."""
    label = lambda m: "".join("1" if m >> b & 1 else "0" for b in range(k))
    masks = range(1 << k)
    cover = [[label(m), label(m | 1 << b)] for m in masks for b in range(k) if not m >> b & 1]
    return {"name": f"L2^{k}", "kind": "lattice", "elements": [label(m) for m in masks], "cover": cover}


def product_spec(a: dict, b: dict) -> dict:
    """Cover relation of the product order: one coordinate steps up a cover."""
    elems = [f"{x}:{y}" for x in a["elements"] for y in b["elements"]]
    cover = [[f"{lo}:{y}", f"{hi}:{y}"] for lo, hi in a["cover"] for y in b["elements"]]
    cover += [[f"{x}:{lo}", f"{x}:{hi}"] for x in a["elements"] for lo, hi in b["cover"]]
    return {"name": f"{a['name']}x{b['name']}", "kind": "lattice", "elements": elems, "cover": cover}


# -- the lattice sweep -----------------------------------------------------------
# The same population as the repository's property tests: every lattice on up
# to 6 elements up to isomorphism, then 200 random 7-8 element lattices drawn
# from a fixed seed.  Orders are n x n boolean matrices, 0 = bottom.

SMALL_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
RANDOM_COUNT = 200
RANDOM_SEED = 20240817


def _strict_orders(m):
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    for bits in range(1 << len(pairs)):
        rel = [[False] * m for _ in range(m)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                rel[i][j] = True
        if any(rel[i][j] and rel[j][i] for i in range(m) for j in range(m)):
            continue
        if all(rel[i][k] for i in range(m) for j in range(m) if rel[i][j]
               for k in range(m) if rel[j][k]):
            yield rel


def _with_bounds(rel, m):
    n = m + 2
    leq = [[i == j or i == 0 or j == n - 1 for j in range(n)] for i in range(n)]
    for i in range(m):
        for j in range(m):
            if rel[i][j]:
                leq[i + 1][j + 1] = True
    return leq


def _is_lattice_order(leq):
    n = len(leq)
    for a in range(n):
        for b in range(a + 1, n):
            ubs = [c for c in range(n) if leq[a][c] and leq[b][c]]
            if sum(all(leq[c][d] for d in ubs) for c in ubs) != 1:
                return False
            lbs = [c for c in range(n) if leq[c][a] and leq[c][b]]
            if sum(all(leq[d][c] for d in lbs) for c in lbs) != 1:
                return False
    return True


def _order_key(leq):
    """Isomorphism-invariant key: the least matrix over all relabellings of
    the interior (the bounds stay at 0 and n - 1)."""
    n = len(leq)
    return min(
        tuple(leq[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in ((0, *q, n - 1) for q in itertools.permutations(range(1, n - 1)))
    )


def small_orders():
    found = [[[True]]]
    for n in range(2, 7):
        seen = set()
        for rel in _strict_orders(n - 2):
            leq = _with_bounds(rel, n - 2)
            if not _is_lattice_order(leq):
                continue
            key = _order_key(leq)
            if key not in seen:
                seen.add(key)
                found.append(leq)
    sizes = {}
    for leq in found:
        sizes[len(leq)] = sizes.get(len(leq), 0) + 1
    if sizes != SMALL_COUNTS:
        raise RuntimeError(f"small lattice enumeration is off: {sizes}")
    return found


def random_orders():
    rng = random.Random(RANDOM_SEED)
    out = []
    while len(out) < RANDOM_COUNT:
        n = rng.choice((7, 8))
        m = n - 2
        perm = list(range(m))
        rng.shuffle(perm)
        rel = [[False] * m for _ in range(m)]
        p = rng.uniform(0.15, 0.5)
        for a in range(m):
            for b in range(a + 1, m):
                if rng.random() < p:
                    rel[perm[a]][perm[b]] = True
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    if rel[i][k] and rel[k][j]:
                        rel[i][j] = True
        leq = _with_bounds(rel, m)
        if _is_lattice_order(leq):
            out.append(leq)
    return out


def permute_order(leq, perm):
    """The order with element i moved to position perm[i]."""
    n = len(leq)
    out = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = leq[i][j]
    return out
