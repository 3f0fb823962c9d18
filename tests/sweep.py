"""Lattice sweep used by the property-based tests.

Two populations:
  * every lattice on up to 6 elements, enumerated up to isomorphism by
    brute force over the strict orders on the interior elements;
  * a seeded batch of random lattices on 7-8 elements.

Everything returned is a FiniteAlgebra of kind "lattice" with generic
labels, built through the same order-to-tables path as user input.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from congrlab.algebra import FiniteAlgebra, find_isomorphism, lattice_from_order
from congrlab.errors import NotALattice

# lattices on 1..6 elements, counted up to isomorphism
EXPECTED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}


def _labels(n):
    return [f"e{i}" for i in range(n)]


def _try_lattice(leq, n):
    try:
        return lattice_from_order(leq, _labels(n), kind="lattice")
    except NotALattice:
        return None


def _strict_orders(m):
    """All transitive irreflexive antisymmetric relations on m points."""
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    for bits in range(1 << len(pairs)):
        rel = [[False] * m for _ in range(m)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                rel[i][j] = True
        ok = True
        for i in range(m):
            for j in range(m):
                if rel[i][j] and rel[j][i]:
                    ok = False
                    break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        transitive = True
        for i in range(m):
            for j in range(m):
                if not rel[i][j]:
                    continue
                for k in range(m):
                    if rel[j][k] and not rel[i][k]:
                        transitive = False
                        break
                if not transitive:
                    break
            if not transitive:
                break
        if transitive:
            yield rel


def _with_bounds(rel, m):
    """Order matrix on m+2 points: 0 = bottom, m+1 = top, interior shifted."""
    n = m + 2
    leq = [[i == j for j in range(n)] for i in range(n)]
    for j in range(n):
        leq[0][j] = True
    for i in range(n):
        leq[i][n - 1] = True
    for i in range(m):
        for j in range(m):
            if rel[i][j]:
                leq[i + 1][j + 1] = True
    return leq


@lru_cache(maxsize=1)
def small_lattices() -> list[FiniteAlgebra]:
    """All lattices on <= 6 elements up to isomorphism."""
    found: list[FiniteAlgebra] = []
    # one- and two-element lattices first
    found.append(lattice_from_order([[True]], ["e0"], kind="lattice"))
    for n in range(2, 7):
        m = n - 2
        candidates = []
        for rel in _strict_orders(m):
            L = _try_lattice(_with_bounds(rel, m), n)
            if L is not None:
                candidates.append(L)
        kept: list[FiniteAlgebra] = []
        for L in candidates:
            if not any(find_isomorphism(L, K) is not None for K in kept):
                kept.append(L)
        found.extend(kept)
    by_size: dict[int, int] = {}
    for L in found:
        by_size[L.n] = by_size.get(L.n, 0) + 1
    assert by_size == EXPECTED_COUNTS, by_size
    return found


@lru_cache(maxsize=1)
def random_lattices(count: int = 200, seed: int = 20240817) -> list[FiniteAlgebra]:
    """Seeded random lattices on 7-8 elements (not deduplicated)."""
    rng = random.Random(seed)
    out: list[FiniteAlgebra] = []
    while len(out) < count:
        n = rng.choice((7, 8))
        m = n - 2
        # random strict order on the interior: orient along a random
        # permutation so transitive closure cannot create cycles
        perm = list(range(m))
        rng.shuffle(perm)
        rel = [[False] * m for _ in range(m)]
        p = rng.uniform(0.15, 0.5)
        for a in range(m):
            for b in range(a + 1, m):
                if rng.random() < p:
                    rel[perm[a]][perm[b]] = True
        for k in range(m):  # transitive closure
            for i in range(m):
                for j in range(m):
                    if rel[i][k] and rel[k][j]:
                        rel[i][j] = True
        L = _try_lattice(_with_bounds(rel, m), n)
        if L is not None:
            out.append(L)
    return out


def sweep() -> list[FiniteAlgebra]:
    return small_lattices() + random_lattices()
