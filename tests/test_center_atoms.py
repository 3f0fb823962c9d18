"""Both liftings at θ by their cut traces, against the image lookup.

u(α) = α ∨ θ maps A's center, FC(A) or B(A), onto a Boolean subalgebra of
the center of [θ, ∇].  Each trace X ∩ (J ∖ D_θ) of an atom X of A's center
is a union of atoms of θ's center, and it is cut when it holds two or
more; θ has the lifting iff no trace is cut, that is iff the center of
[θ, ∇] has 2^m members for the m non-empty traces, and the first member
not reached is the least D_θ ∪ F over θ's atoms F in cut traces (lifting
module doc, 5).  The oracle here is the old lookup: the masks of u(α) for
every α in A's center, each mapped to its first α."""

import pytest

from congrlab import lifting
from congrlab.algebra import build_from_spec, ordinal_sum
from congrlab.congruences import all_congruences
from congrlab.factor import boolean_center, factor_congruences, jspace
from congrlab.fixtures import fixture
from congrlab.lifting import has_cblp, has_fclp

from test_distributive_lattices import report_inputs, residuated_inputs
from test_join_irreducible_masks import cold, mask_algebras, random_generic_algebras
from test_partition_join import chain, generic_copy


def population():
    """The algebras the count was checked on: mask_algebras(), the random
    generic algebras, the residuated and report inputs, P, H, X, T and D
    with a 6-chain on top, and generic copies of P, H and X with a 4-chain."""
    sums = [ordinal_sum(fixture(b), chain(6), name=f"{b}+C6") for b in "PHXTD"]
    copies = [generic_copy(ordinal_sum(fixture(b), chain(4), name=f"{b}+C4")) for b in "PHX"]
    reports = [build_from_spec(spec) for spec in report_inputs()]
    return mask_algebras() + random_generic_algebras() + residuated_inputs() + reports + sums + copies


@pytest.fixture(scope="module")
def kept():
    """The algebras of the population whose Con is distributive, the only
    ones with a center, built once for the three tests."""
    algebras = population()
    kept = [A for A in algebras if all_congruences(A).is_distributive()]
    assert (len(algebras), len(kept)) == (469, 450)
    return kept


def center(cl, factor_side, t=0):
    return (factor_congruences if factor_side else boolean_center)(cl, t).members


def images(cl, t, factor_side):
    """The old lookup: the mask of u(α) = α ∨ θ_t for each α in A's center,
    mapped to its first α."""
    gm = cl.gen_masks
    # read backwards, so that each image keeps its first α
    return {gm[a] | gm[t]: a for a in reversed(center(cl, factor_side))}


def image_lifting(cl, t, factor_side):
    """_lifting by the lookup: the size of the center of [θ_t, ∇] and its
    first member that no image is."""
    found, members = images(cl, t, factor_side), center(cl, factor_side, t)
    return len(members), next((b for b in members if cl.gen_masks[b] not in found), None)


def image_evidence(cl, t, factor_side):
    """has_fclp or has_cblp by the lookup: the verdict, each reached target
    with its first source, and the first unreached target."""
    theta, found, witnesses = cl.elements[t], images(cl, t, factor_side), []
    for b in center(cl, factor_side, t):
        target = cl.elements[b].block_string(over=theta)
        if cl.gen_masks[b] not in found:
            return False, witnesses, target
        witnesses.append((target, cl.elements[found[cl.gen_masks[b]]].block_string()))
    return True, witnesses, None


def test_the_centers_are_boolean_sublattices_whose_atoms_partition_j(kept):
    for A in kept:
        cl = all_congruences(A)
        for factor_side in (True, False):
            masks = {cl.gen_masks[a] for a in center(cl, factor_side)}
            assert all(a | b in masks and a & b in masks for a in masks for b in masks), (A.name, factor_side)
            atoms = jspace(A).side(factor_side)[1]
            assert sorted(atoms) == sorted(m for m in masks if m and not any(n and n != m and n & m == n for n in masks))
            # the atoms are disjoint and cover J
            assert sum(atoms) == cl.gen_masks[cl.index_of_nabla] == sum(set(atoms)), (A.name, factor_side)
            assert all(a & b == 0 for x, a in enumerate(atoms) for b in atoms[x + 1 :]), (A.name, factor_side)


def test_the_count_and_the_reach_test_are_the_image_lookup(kept):
    verdicts = failures = 0
    for A in kept:
        cl, B = all_congruences(A), cold(A)
        got = all_congruences(B)
        for t in range(len(cl)):
            for factor_side in (True, False):
                want = image_lifting(cl, t, factor_side)
                assert lifting._lifting(got, t, factor_side) == want, (A.name, t, factor_side)
                verdicts += 1
                failures += want[1] is not None
    assert (verdicts, failures) == (17198, 354)


def test_has_fclp_and_has_cblp_give_the_lookups_witnesses(kept):
    # C11 and C12 of the report inputs, the two with |Con| ≥ 1024, are left
    # out: their θ render 3^10 and 3^11 witnesses a side, and C7 to C10 are
    # chains too
    shared = 0
    for A in kept:
        cl, B = all_congruences(A), cold(A)
        if len(cl) >= 1024:
            continue
        for t, theta in enumerate(all_congruences(B).elements):
            for factor_side, has in ((True, has_fclp), (False, has_cblp)):
                ok, ev = has(B, theta)
                want = image_evidence(cl, t, factor_side)
                assert (ok, ev.witnesses, ev.unliftable) == want, (A.name, t, factor_side)
                # images that several α share, of which the first is named
                shared += ok and len(images(cl, t, factor_side)) < len(center(cl, factor_side))
    assert shared == 5075
