"""A pure lattice's liftings and normality decided on J(Con L) before Con(L).

The J step (algebra.join_classes) gives J(Con L) and its order with
no partition built; the four verdicts decide by their criteria on it, or,
on a lattice that is not distributive and fails the criterion of FCLP, by
the pairs of maximal members of J (lifting module doc, 7), and Con(L) is
enumerated only for a failure's evidence.  The oracles are the
enumerated path: J(Con L)'s order read off the masks of Con(L), and the
walks over Con(L) that the criteria skip, which give every verdict with its
evidence.
"""

import json

import pytest

from congrlab import algebra, congruences, factor, lifting
from congrlab.algebra import _bits, direct_product, emit_spec, lattice_reduct, ordinal_sum
from congrlab.congruences import _lowest_bit, all_congruences
from congrlab.factor import jspace
from congrlab.fixtures import FIXTURE_NAMES, fixture
from congrlab.lifting import algebra_cblp, algebra_fclp, is_b_normal, is_fc_normal

from sweep import sweep
from test_distributive_lattices import chain_spec, down_set_spec
from test_join_irreducible_masks import cold, lifting_walk
from test_normality_criteria import criteria_algebras
from test_partition_join import chain, count_calls


def oracle_algebras():
    """The sweep, the 15 lattice fixtures with their bounded-lattice
    reducts, C7, C8, L2^4, L2^5 and T×E."""
    lattices = [fixture(name) for name in FIXTURE_NAMES if fixture(name).signature.kind == "lattice"]
    lattices += [lattice_reduct(L, "bounded-lattice") for L in lattices]
    powers = [direct_product([fixture("L2")] * k) for k in (4, 5)]
    return sweep() + lattices + [chain(7), chain(8)] + powers + [direct_product([fixture("T"), fixture("E")])]


def verdicts(A):
    return algebra_fclp(A), algebra_cblp(A), is_fc_normal(A), is_b_normal(A)


def walks(A):
    """The four verdicts by the walks over Con(A), with their evidence."""
    cl = all_congruences(A)
    return (
        lifting_walk(A, True),
        lifting_walk(A, False),
        lifting._fc_normal_walk(cl),
        lifting._b_normal_walk(cl),
    )


def con_down_sets(cl):
    """↓g for each generator g, read off Con(A): g's congruence is the
    lowest index above it, and its mask is ↓g."""
    return [cl.gen_masks[_lowest_bit(h)] for h in cl._above]


def test_the_j_step_gives_the_verdicts_of_the_enumerated_path():
    algebras = oracle_algebras()
    assert len(algebras) == 225 + 2 * 15 + 5
    held = set()
    for A in algebras:
        assert congruences.is_pure_lattice(A), A.name
        fresh, enumerated = cold(A), cold(A)
        J = jspace(fresh)
        down, components, tops = J.down, J.components, J.tops
        assert "all_congruences" not in fresh._cache, A.name
        step = algebra.join_classes(fresh)
        assert all(type(x) is tuple for x in (step.pairs, step.seeds, step.under, step.classes)), A.name
        cl = all_congruences(enumerated)
        assert down == con_down_sets(cl), A.name
        topped = all(any(down[g] == c for g in _bits(c)) for c in components)
        assert (tops is not None) == topped, A.name
        want = walks(enumerated)
        assert verdicts(fresh) == verdicts(enumerated) == want, A.name
        held.add(tuple(v[0] for v in want))
    # on a lattice FCLP goes with fc-normality and CBLP with b-normality
    assert held == {(f, c, f, c) for f in (True, False) for c in (True, False)}


def test_225_sweep_lattices_decide_without_enumerating(monkeypatch):
    # each verdict is one yes/no: CBLP and b-normality are "J is topped",
    # fc-normality is FCLP (lifting module doc, 4), and FCLP is its
    # criterion or, on a lattice that is not distributive and fails it, the
    # pair test of 7; no verdict enumerates Con(L) or walks the θ or the pairs
    enumerated, listing = [], congruences._enumerate_partitions
    monkeypatch.setattr(congruences, "_enumerate_partitions", lambda A: enumerated.append(A) or listing(A))
    paired, pair_test = [], lifting._no_permuting_coatoms
    monkeypatch.setattr(lifting, "_no_permuting_coatoms", lambda A: paired.append(A) or pair_test(A))
    counts = count_calls(monkeypatch, lifting, ["_lifting_failure", "_has_lifting", "_fc_normal_walk", "_b_normal_walk"])
    decided = {True: 0, False: 0}
    for A in map(cold, sweep()):
        [v[0] for v in verdicts(A)]
        if paired and paired[-1] is A:
            assert not A.is_distributive_lattice() and not lifting._factor_criterion(A), A.name
        decided[A.is_distributive_lattice()] += 1
    assert len(enumerated) == 0
    # 74 lattices reach the pair test, once each: FCLP and fc-normality
    # share the memo of lifting._holds
    assert len(set(map(id, paired))) == 74 and len(paired) == 74
    # every distributive lattice is decided on P = J(L), failing or not
    assert decided == {False: 196, True: 29}
    assert counts == {"_lifting_failure": 0, "_has_lifting": 0, "_fc_normal_walk": 0, "_b_normal_walk": 0}


def test_the_sweep_verdicts_build_no_partition(monkeypatch):
    # the block counts of FC(L) = B(L) and of the coatom pairs are read off
    # lower-cover masks (factor.JSpace.count): no partition is merged
    counts = count_calls(monkeypatch, algebra, ["merge_pairs"])
    # and in each module of the verdict path that imports it by name
    for module in (congruences, factor, lifting):
        if hasattr(module, "merge_pairs"):
            monkeypatch.setattr(module, "merge_pairs", algebra.merge_pairs)
    for A in map(cold, sweep()):
        [v[0] for v in verdicts(A)]
    assert counts == {"merge_pairs": 0}


def test_topped_with_fc_equal_to_b_is_fc_normal_with_no_pair_tried(monkeypatch):
    # lifting module doc, 5 (end) and 4: every θ then has the factor
    # property, which is fc-normality
    counts = count_calls(monkeypatch, lifting, ["_joins_to_nabla"])
    fired = 0
    for A in criteria_algebras():
        if not all_congruences(A).is_distributive():
            continue
        if jspace(A).tops is not None and jspace(A).center_is_factor:
            fired += 1
            assert is_fc_normal(cold(A)) == (True, None), A.name
            assert counts == {"_joins_to_nabla": 0}, A.name
            assert lifting._fc_normal_walk(all_congruences(A)) == (True, None), A.name
            counts["_joins_to_nabla"] = 0
    assert fired > 150


def test_the_boolean_members_built_from_the_j_step_are_the_center():
    # on a pure lattice FC(L) = B(L) is decided from block counts read off
    # lower-cover masks, and agrees with the centers listed on Con(L)
    checked = 0
    for A in sweep() + [fixture(name) for name in FIXTURE_NAMES if fixture(name).signature.kind == "lattice"]:
        cl = all_congruences(A)
        want = len(factor.factor_congruences(cl).members) == len(factor.boolean_center(cl).members)
        assert jspace(cold(A)).center_is_factor == want, A.name
        checked += want
    assert checked > 100


# -- past CON_CAP -----------------------------------------------------------


def refuse_partitions(monkeypatch):
    def no_partition(*args):
        raise AssertionError("a partition was built past the cap")

    monkeypatch.setattr(congruences, "merge_pairs", no_partition)


@pytest.mark.parametrize(
    "prop,line",
    [
        ("fclp", "FCLP: yes; CBLP: yes"),
        ("cblp", "FCLP: yes; CBLP: yes"),
        ("fc-normal", "fc-normal: yes"),
        ("b-normal", "b-normal: yes"),
        # BLP of a distributive pure lattice is its FCLP
        ("blp", "BLP: yes"),
    ],
)
def test_checks_past_the_cap_answer_from_j(prop, line, tmp_path, monkeypatch, capsys):
    # C20 has 2^19 congruences; its criteria read J(Con L) and P = J(L) alone
    from congrlab.cli import main

    path = tmp_path / "C20.json"
    path.write_text(json.dumps(chain_spec(20)))
    refuse_partitions(monkeypatch)
    capsys.readouterr()
    assert main(["check", prop, "--file", str(path)]) == 0
    assert capsys.readouterr() == (line + "\n", "")


def square_on_a_chain():
    """O(P) for P a 13-chain with two incomparable elements on top: one
    component of 15 that is no chain, so FCLP fails on this distributive
    lattice, and its evidence needs Con(L), with 2^15 members."""
    less = [(a, b) for b in range(13) for a in range(b)] + [(a, b) for b in (13, 14) for a in range(13)]
    spec = down_set_spec("C14+L2x2", 15, less)
    assert len(spec["elements"]) == 17
    return spec


@pytest.mark.parametrize("build", [square_on_a_chain], ids=["C14+L2x2"])
def test_a_failing_criterion_past_the_cap_still_exits_at_the_cap(build, tmp_path, monkeypatch, capsys):
    from congrlab.cli import main

    spec = build()
    path = tmp_path / "L.json"
    path.write_text(json.dumps(spec))
    refuse_partitions(monkeypatch)
    capsys.readouterr()
    for prop in ("fclp", "blp"):
        assert main(["check", prop, "--file", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: congruence count exceeds cap 20000\n")
    # b-normality and CBLP read the tops of J(Con L) alone, and the FCLP
    # verdict shown beside CBLP is read off P = J(L)
    assert main(["check", "b-normal", "--file", str(path)]) == 0
    assert capsys.readouterr() == ("b-normal: yes\n", "")
    assert main(["check", "cblp", "--file", str(path)]) == 0
    assert capsys.readouterr() == ("FCLP: no; CBLP: yes\n", "")


@pytest.mark.parametrize("base", ["D", "T"])
def test_past_the_cap_fc_equal_to_b_is_2c_block_counts(base, tmp_path, monkeypatch, capsys):
    # D⊕C16 has 2·2^15 congruences, and J(Con L) has 16 one-point
    # components, so its 2^16 Boolean congruences are past the cap too;
    # T⊕C16 likewise.  FC(L) = B(L) is two block counts per component, not a
    # listing of the 2^c (factor.JSpace.center_is_factor): it fails, and the
    # pairs of maximal members of J answer FCLP and fc-normality.  BLP, on a
    # lattice that is not distributive, still walks the θ and exits at the cap
    from congrlab.cli import main

    path = tmp_path / "L.json"
    path.write_text(json.dumps(emit_spec(ordinal_sum(fixture(base), chain(16)))))
    refuse_partitions(monkeypatch)
    capsys.readouterr()
    for prop, line in (("fclp", "FCLP: yes; CBLP: yes"), ("cblp", "FCLP: yes; CBLP: yes"), ("fc-normal", "fc-normal: yes")):
        assert main(["check", prop, "--file", str(path)]) == 0
        assert capsys.readouterr() == (line + "\n", "")
    assert main(["check", "blp", "--file", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: congruence count exceeds cap 20000\n")


def test_a_chain_on_top_of_d_or_t_gives_the_walks_fclp():
    # the same lattices within the cap: with a chain on top FC(L) = {Δ, ∇}
    # is no B(L), and the verdicts are the walk's over every θ
    for base in "DT":
        for k in range(2, 11):
            A = ordinal_sum(fixture(base), chain(k))
            J = jspace(cold(A))
            assert J.tops is not None and not J.center_is_factor, (base, k)
            walk = lifting._lifting_failure(A, True) is None
            assert algebra_fclp(cold(A))[0] == is_fc_normal(cold(A))[0] == walk, (base, k)
            assert walk, (base, k)
