"""FCLP from pairs of maximal members of J = J(Con A), with no θ walked.

On a distributive Con(A), A fails FCLP iff two coatoms ψ_a, ψ_b of Con(A),
a ≠ b maximal in J, permute and lie over one atom of FC(A) (lifting module
doc, 7).  lifting._no_permuting_coatoms decides that from block counts, and
on a pure lattice reads FC(L)'s atoms off L's central elements, with no
Con(L).  The oracles are the walk over every θ (lifting._lifting_failure),
and the atoms of FC(L) listed on Con(L).
"""

import itertools
import json

import pytest

from congrlab import congruences, factor, lifting
from congrlab.algebra import build_from_spec, direct_product, lattice_reduct, ordinal_sum
from congrlab.congruences import all_congruences
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.lifting import algebra_fclp, is_fc_normal

from sweep import sweep
from test_distributive_lattices import chain_on_top_spec, residuated_inputs
from test_join_irreducible_masks import cold, random_generic_algebras
from test_partition_join import generic_copy


def small_lattices(largest):
    """The sweep's lattices with 2 to largest elements, one per
    isomorphism class."""
    return [L for L in sweep() if 2 <= L.n <= largest]


def ordinal_sums():
    """L⊕M for the 24 lattices with 2–6 elements, and L⊕M⊕N for the 4 with
    2–4."""
    two = [ordinal_sum(L, M) for L, M in itertools.product(small_lattices(6), repeat=2)]
    three = [ordinal_sum(ordinal_sum(L, M), N) for L, M, N in itertools.product(small_lattices(4), repeat=3)]
    return two + three


def products():
    """L×M for the 45 pairs of lattices with 2–5 elements."""
    return [direct_product([L, M]) for L, M in itertools.combinations_with_replacement(small_lattices(5), 2)]


def populations():
    """Each population with the number of its algebras that fail FCLP."""
    generic = [A for A in random_generic_algebras() if all_congruences(A).is_distributive()]
    sums = ordinal_sums()
    return {
        "sweep": (sweep(), 63),
        "fixtures": ([fixture(name) for name in FIXTURE_NAMES], 3),
        "random generic": (generic, 0),
        "residuated": (residuated_inputs(), 5),
        "generic copies": ([generic_copy(L) for L in sweep()[:120]], 33),
        "sums of two": (sums[:576], 432),
        "sums of three": (sums[576:], 37),
        "products": (products(), 24),
    }


def test_the_pair_test_is_the_walk_over_every_theta():
    sizes = {}
    for name, (algebras, failing) in populations().items():
        failed = 0
        for A in algebras:
            fresh = cold(A)
            got = lifting._no_permuting_coatoms(fresh)
            assert got == (lifting._lifting_failure(fresh, True) is None), (name, A.name)
            failed += not got
        sizes[name] = len(algebras)
        assert failed == failing, name
    assert sizes == {
        "sweep": 225,
        "fixtures": 16,
        "random generic": 62,
        "residuated": 111,
        "generic copies": 120,
        "sums of two": 576,
        "sums of three": 64,
        "products": 45,
    }


def test_the_central_elements_give_the_atoms_of_the_listed_fc():
    # the products, and 5 of the rest, have more than one atom
    lattices = sweep() + [lattice_reduct(fixture(name)) for name in FIXTURE_NAMES] + ordinal_sums() + products()
    several = 0
    for L in lattices:
        cl = all_congruences(L)
        listed = factor._atoms([cl.gen_masks[a] for a in factor.factor_congruences(cl).members])
        central = factor._atoms(sorted(factor._central_masks(cold(L)), key=int.bit_count))
        assert sorted(central) == sorted(listed), L.name
        several += len(listed) > 1
    assert several == 45 + 5


def refuse_enumeration(monkeypatch):
    def no_enumeration(A):
        raise AssertionError("Con(L) was enumerated for a verdict")

    monkeypatch.setattr(congruences, "_enumerate_partitions", no_enumeration)


@pytest.mark.parametrize("base", ["T", "X", "P", "H"])
def test_a_cold_verdict_on_a_sum_with_a_chain_enumerates_no_con(base, monkeypatch):
    # none of the four is distributive, and FCLP's criterion fails on each
    refuse_enumeration(monkeypatch)
    spec = chain_on_top_spec(base, 9)
    want = base in "TH"
    assert is_fc_normal(build_from_spec(spec))[0] == want
    assert algebra_fclp(build_from_spec(spec))[0] == want


@pytest.mark.parametrize("base,fclp", [("P", False), ("H", True)])
def test_past_the_cap_fc_normality_is_the_pair_test(base, fclp, monkeypatch):
    # 5·2^15 congruences each: the verdict needs none of them
    refuse_enumeration(monkeypatch)
    assert is_fc_normal(build_from_spec(chain_on_top_spec(base, 16)))[0] == fclp


@pytest.mark.parametrize(
    "base,prop,result",
    [
        # the verdict is "yes", so no θ is walked
        ("H", "fclp", (0, "FCLP: yes; CBLP: no\n", "")),
        ("H", "fc-normal", (0, "fc-normal: yes\n", "")),
        # "no": its failing θ needs Con(L), past the cap
        ("P", "fclp", (2, "", "error: congruence count exceeds cap 20000\n")),
        ("P", "cblp", (2, "", "error: congruence count exceeds cap 20000\n")),
    ],
)
def test_past_the_cap_a_check_walks_only_for_a_failure(base, prop, result, tmp_path, capsys):
    from congrlab.cli import main

    path = tmp_path / "L.json"
    path.write_text(json.dumps(chain_on_top_spec(base, 16)))
    capsys.readouterr()
    code = main(["check", prop, "--file", str(path)])
    assert (code, *capsys.readouterr()) == result
