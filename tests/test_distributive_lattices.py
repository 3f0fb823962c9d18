"""Distributive lattices decided on P = J(L).

A finite distributive lattice L is the lattice of down-sets of P, Con(L) is
Boolean on P, and each quotient L/θ is the down-sets of P ∖ S_θ.  The report
rows, FCLP and BLP read the factor side off P; the interval route, which
reads each [θ, ∇] off the centers of `factor._interval_centers` and the
center and images scans of `center_unliftable` and `images_unliftable`, and
the full class scan of BLP (`oracles.scan_blp`), are the oracles.  The
`report --format json` digests of distributive lattices were taken before
the J(L) route existed, and those of the pentagon and the diamond with a
chain on top before the centers of each interval were listed off the
components of J(Con A) ∖ D_θ.
"""

import hashlib
import json
import random

import pytest

from congrlab import cli, congruences, lifting, residuated
from congrlab.algebra import build_from_spec, dual, emit_spec, lattice_reduct
from congrlab.cli import main
from congrlab.congruences import Congruence, all_congruences
from congrlab.errors import CongrlabError
from congrlab.factor import _p_order, boolean_center, factor_congruences, jspace
from congrlab.fixtures import FIXTURE_NAMES, fixture, fixture_spec
from congrlab.report import build_report
from congrlab.residuated import FILTER_CAP

from oracles import scan_blp, scan_blp_walk
from sweep import sweep
from test_element_level import outcome as blp_outcome
from test_join_irreducible_masks import center_unliftable, cold, images_unliftable, lifting_walk
from test_partition_join import c3_with_a_reversal, count_calls
from test_residuated import RESIDUATED_CHAINS, residuated_chain

# -- specs ----------------------------------------------------------------------


def chain_spec(n):
    labels = [f"c{i}" for i in range(n)]
    return {"name": f"C{n}", "kind": "lattice", "elements": labels,
            "cover": [[labels[i], labels[i + 1]] for i in range(n - 1)]}


def down_set_spec(name, size, less):
    """O(Q) for the poset Q on 0..size-1 whose strict order is the set less
    of pairs (a, b), a < b, closed under transitivity: the down-sets of Q,
    ordered by inclusion, one element added per cover."""
    below = [sum(1 << a for a, b in less if b == x) for x in range(size)]
    sets = [m for m in range(1 << size) if all(below[x] & ~m == 0 for x in range(size) if m >> x & 1)]
    label = {m: "{" + ";".join(str(x) for x in range(size) if m >> x & 1) + "}" for m in sets}
    cover = [[label[m], label[m | 1 << x]] for m in sets for x in range(size) if (m | 1 << x) in label and not m >> x & 1]
    return {"name": name, "kind": "lattice", "elements": [label[m] for m in sets], "cover": cover}


def boolean_spec(k):
    """L2^k, the down-sets of a k-element antichain."""
    return down_set_spec(f"L2^{k}", k, [])


def product_spec(a, b):
    elems = [f"{x}:{y}" for x in a["elements"] for y in b["elements"]]
    cover = [[f"{lo}:{y}", f"{hi}:{y}"] for lo, hi in a["cover"] for y in b["elements"]]
    cover += [[f"{x}:{lo}", f"{x}:{hi}"] for x in a["elements"] for lo, hi in b["cover"]]
    return {"name": f"{a['name']}x{b['name']}", "kind": "lattice", "elements": elems, "cover": cover}


# ∨ has one minimal element below two maximal ones, ∧ the reverse, and N is
# a < c > b < d; each one's down-set lattice fails FCLP
VEE = down_set_spec("O(V)", 3, [(0, 1), (0, 2)])
WEDGE = down_set_spec("O(W)", 3, [(0, 2), (1, 2)])
N_SHAPE = down_set_spec("O(N)", 4, [(0, 2), (1, 2), (1, 3)])


# -- byte identity ----------------------------------------------------------------

# sha256 of `congrlab report --format json --file <spec>`, taken before the
# J(L) route; the goldens hold few distributive lattices.  The down-set
# lattices, L2^k and O(N), were taken again on the code just before spec
# labels holding ',' were refused, with their labels written {0;1}
REPORT_DIGESTS = {
    "C7": "b4177be987952003cbcb87f5dca3b9839b5973f66180cd5da45d29d15e1b4962",
    "C8": "0ad4cf73c984c0f26fe5cfe17089a6e9602e2292c4c95a168cc35cb8cab30bbd",
    "C9": "c8bbdbb28b67fb66cdb9a9f1782e221281479486c8fbd98243b78669536598eb",
    "C10": "81bded3b271af098ec04c6a316bd10bf85498439128fa84131298f27f8a6a82b",
    "C11": "586c4c20a5edc6a7b8dca3162d047697bb1402a6743aad4ea3dd014500425d4c",
    "C12": "6a79d232c0102df71e8c01cec41cf0ca433ad63d60a703bedcaf46074dee84d3",
    "L2^4": "d5d3a2997661d28bdb85a0c4f630adc7d78dbc94844556107f04ac5c24620882",
    "L2^5": "ab3aa2f1802cf5c76f3930bb263947498b832c14cd8182d97363747f2be12da4",
    "L2^6": "7d47d9334b9aa25e2637b8711de63f959b5b5c93d10f6429d54cd666c8b820e8",
    "L2^7": "c050187061c539763315527be9eac438505e7a6ff5d8b654462f19852390465d",
    "C3xC4": "0bf3383c9b1e66eb5d605b907f7e0d29c4b3c0ffb7a5f6bff3c7675bc322b4cc",
    "O(N)": "4efefa0192ea0ddf32037a722d653fc6e0ba518079cef1a0bed145b9c85d0812",
}


def report_inputs():
    specs = [chain_spec(n) for n in range(7, 13)] + [boolean_spec(k) for k in range(4, 8)]
    return specs + [product_spec(chain_spec(3), chain_spec(4)), N_SHAPE]


def report_digest(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["report", "--file", str(path), "--format", "json"]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("spec", report_inputs(), ids=lambda s: s["name"])
def test_report_json_is_byte_identical(spec, tmp_path, capsys):
    assert report_digest(spec, tmp_path, capsys) == REPORT_DIGESTS[spec["name"]]


def chain_on_top_spec(base, k):
    """The fixture base with a k-chain stacked on its top, as a cover spec:
    base⊕Ck, whose Con is Con(base) × Con(Ck)."""
    spec = fixture_spec(base)
    labels = ["1"] + [f"c{i}" for i in range(1, k)]
    cover = spec["cover"] + [[labels[i], labels[i + 1]] for i in range(k - 1)]
    return {"name": f"{base}+C{k}", "kind": "lattice", "elements": spec["elements"] + labels[1:], "cover": cover}


# the same digests of lattices that are not distributive, so that every row
# takes the interval route: the pentagon and the diamond with a 10-chain on
# top (|Con| = 2560 and 1024), and H and X with one, whose rows fail only
# CBLP (512 of 2560) and only FCLP (1 of 4096), so that each evidence column
# names an unreached member
INTERVAL_REPORT_DIGESTS = {
    "P+C10": "5ec8fe7077225a134df1128e7d7647a11cc47824cd5bd0538f23b149d1cae262",
    "D+C10": "f0aa0f976a7c65077ad7ccf57fe1f0e1cc52a63626854f6933ababa2b3532c37",
    "H+C10": "77201d4b163acfb5b858387784e00eddca412e2e6cdc3f3c0b8e1bcc09e6058f",
    "X+C10": "870034431c6fe3351fbd20c415f4497b4e2269b353824d5d6693f2fe10bd7d0f",
}


@pytest.mark.parametrize("base", ["P", "D", "H", "X"])
def test_interval_report_json_is_byte_identical(base, tmp_path, capsys):
    spec = chain_on_top_spec(base, 10)
    assert report_digest(spec, tmp_path, capsys) == INTERVAL_REPORT_DIGESTS[spec["name"]]


# -- the J(L) route against the interval route ------------------------------------


def distributive_lattices():
    """The sweep's distributive lattices and their duals, C1–C12, L2^1–L2^6,
    three products of chains, and the down-set lattices that fail FCLP."""
    found = [L for L in sweep() if L.is_distributive_lattice()]
    found += [dual(L) for L in found]
    specs = [chain_spec(n) for n in range(1, 13)] + [boolean_spec(k) for k in range(1, 7)]
    specs += [product_spec(chain_spec(3), chain_spec(4)), product_spec(chain_spec(2), chain_spec(5))]
    specs += [product_spec(boolean_spec(2), chain_spec(3))]
    specs += [VEE, WEDGE, N_SHAPE, product_spec(WEDGE, chain_spec(2))]
    return found + [build_from_spec(spec) for spec in specs]


def interval_columns(A):
    """The columns the J(L) route fills, read off each interval [θ, ∇]."""
    cl = all_congruences(A)
    rows = []
    for t, theta in enumerate(cl.elements):
        bad = center_unliftable(cl, t)
        rows.append(
            {
                "fclp": bad is None,
                "fclp_unliftable": None if bad is None else cl.elements[bad].block_string(over=theta),
                "cblp": images_unliftable(cl, t) is None,
                "quotient_center_size": len(boolean_center(cl, t).members),
                "quotient_fc_size": len(factor_congruences(cl, t).members),
            }
        )
    return rows


def test_report_rows_match_the_interval_route():
    algebras = distributive_lattices()
    assert len(algebras) == 2 * 29 + 25
    failing = 0
    for A in algebras:
        rows = lifting.lifting_report(A).per_congruence
        assert jspace(A).p_order is not None, A.name
        want = interval_columns(cold(A))
        assert [{key: row[key] for key in want[0]} for row in rows] == want, A.name
        failing += sum(not row["fclp"] for row in rows)
    assert failing > 0


def test_algebra_fclp_matches_the_interval_walk():
    verdicts = []
    for A in distributive_lattices():
        got = lifting.algebra_fclp(cold(A))
        assert got == lifting_walk(cold(A), True), A.name
        verdicts.append(got[0])
    # O(∨), O(∧), O(N) and O(∧)×C2 fail, each with a component that is no chain
    assert verdicts.count(False) >= 4 and True in verdicts


@pytest.mark.parametrize("spec", [VEE, WEDGE, N_SHAPE], ids=lambda s: s["name"])
def test_a_component_that_is_no_chain_fails_fclp(spec):
    # P = Q itself here: ∧ has a greatest element, yet FCLP fails
    A = build_from_spec(spec)
    near, components = jspace(A).p_order
    assert len(components) == 1
    assert lifting.algebra_fclp(A)[0] is False


# -- verdicts as indices, evidence rendered where it is printed ---------------------


@pytest.mark.parametrize(
    "build",
    [*(lambda s=s: build_from_spec(s) for s in (VEE, WEDGE, N_SHAPE)), lambda: cold(fixture("L2osumL2x2"))],
    ids=["O(V)", "O(W)", "O(N)", "L2osumL2x2"],
)
def test_a_report_renders_no_lifting_evidence(build, monkeypatch):
    # each one fails FCLP; the rows name their targets off the index walk,
    # and BLP, CBLP and FCLP are read as verdicts, so no witness is rendered
    counts = count_calls(monkeypatch, lifting, ["_has_lifting"])
    assert build_report(build())["flags"]["fclp"] is False
    assert counts == {"_has_lifting": 0}


@pytest.mark.parametrize(
    "prop,build,code,evidence,labels",
    [("fclp", lambda: cold(fixture("P")), 1, 0, 1), ("cblp", lambda: build_from_spec(VEE), 0, 0, 0)],
    ids=["fclp-P", "cblp-O(V)"],
)
def test_check_renders_evidence_for_its_own_failure_alone(prop, build, code, evidence, labels, monkeypatch, capsys):
    # the other property's column reads a verdict, and the checked
    # property's failure prints the target off the index walk, so no
    # LiftEvidence is built and the failing θ's class labels are built once
    # (each build wraps them read-only)
    A = build()
    monkeypatch.setattr(cli, "_load", lambda args: A)
    renders = count_calls(monkeypatch, lifting, ["_has_lifting"])
    builds = count_calls(monkeypatch, congruences, ["MappingProxyType"])
    assert main(["check", prop, "--file", "-"]) == code
    assert "FCLP: no" in capsys.readouterr().out
    assert (renders["_has_lifting"], builds["MappingProxyType"]) == (evidence, labels)


# -- BLP on the lattice reduct ---------------------------------------------------


def with_unary(L, table):
    """The lattice L as a lattice-kind table spec with the unary u."""
    spec = emit_spec(lattice_reduct(L))
    spec["operations"]["u"] = [L.labels[v] for v in table]
    return build_from_spec(spec)


def blp_algebras():
    """The distributive lattices above, the residuated inputs, the sweep,
    the 3-chain with a cycling u, and the fixtures and the sweep as
    lattice-kind specs with a seeded random unary u."""
    rng = random.Random(49)
    lattices = [fixture(name) for name in FIXTURE_NAMES] + sweep()
    with_u = [with_unary(L, [rng.randrange(L.n) for _ in range(L.n)]) for L in lattices]
    return distributive_lattices() + residuated_inputs() + sweep() + [build_from_spec(C3_WITH_A_CYCLE)] + with_u


def test_pruned_blp_matches_the_full_scan():
    # BLP at θ is the trace test on P = J(L) wherever the lattice reduct L
    # is distributive, whatever A's other operations (residuated module
    # doc, f), and the scan elsewhere
    thetas, verdicts, reducts = 0, set(), 0
    for A in blp_algebras():
        for theta in all_congruences(A).elements:
            got = blp_outcome(residuated.has_blp, A, theta)
            assert got == blp_outcome(scan_blp, A, theta), (A.name, theta.block_string())
            verdicts.add(got if isinstance(got, bool) else "AmbiguousComplement")
            thetas += 1
        assert blp_outcome(residuated.algebra_blp, cold(A)) == blp_outcome(scan_blp_walk, A), A.name
        reducts += jspace(A).p_order is None and _p_order(A) is not None
    assert verdicts == {True, False, "AmbiguousComplement"} and thetas > 9000 and reducts > 100


class Reads:
    """A binary table that records the (row, column) of each entry read."""

    def __init__(self, table, seen):
        self.table, self.seen = table, seen

    def __getitem__(self, r):
        row, seen = self.table[r], self.seen

        class Row:
            def __getitem__(self, s):
                seen.add((r, s))
                return row[s]

        return Row()


def test_pruned_blp_reads_only_pairs_of_unreached_classes():
    # a distributive pure lattice and the residuated kind on a distributive
    # reduct both read P = J(L) (residuated module doc, f), and no join or
    # meet entry, not even of the classes no center member reaches
    lattice = build_from_spec(dict(chain_spec(8), kind="bounded-lattice"))
    goedel = build_from_spec(residuated_chain(8, "godel"))
    reads = {}
    for A in (lattice, goedel):
        assert A.is_distributive_lattice() and len(residuated.element_boolean_center(A).members) == 2
        assert _p_order(A) is not None  # L's order, read before the tables are watched
        seen = set()
        tables = dict(A.tables, join=Reads(A.tables["join"], seen), meet=Reads(A.tables["meet"], seen))
        thetas = all_congruences(A).elements
        object.__setattr__(A, "_tables", tables)
        for theta in thetas:
            residuated.has_blp(A, theta)
        reads[A.name] = len(seen), len(thetas)
    assert reads == {"C8": (0, 128), "godel8": (0, 8)}


# -- Filt-BLP and Id-BLP read off P ---------------------------------------------------


def residuated_product(A, B):
    """A × B of two residuated algebras, componentwise, as explicit tables:
    direct_product refuses the residuated kind."""
    pairs = [(x, y) for x in range(A.n) for y in range(B.n)]
    labels = [f"{A.labels[x]}:{B.labels[y]}" for x, y in pairs]

    def table(f):
        a, b = A.tables[f], B.tables[f]
        return [[labels[a[x][u] * B.n + b[y][v]] for u, v in pairs] for x, y in pairs]

    return build_from_spec(
        {
            "name": f"{A.name}x{B.name}",
            "kind": "residuated",
            "elements": labels,
            "operations": {f: table(f) for f in ("join", "meet", "times", "implies")},
            "constants": {"bot": labels[A.bottom() * B.n + B.bottom()], "top": labels[A.top() * B.n + B.top()]},
        }
    )


def heyting(L):
    """The Heyting algebra of a distributive lattice L: the product is the
    meet, and a → b is the join of every z with z ∧ a ≤ b."""
    join, meet, down = L.tables["join"], L.tables["meet"], L.order_masks()[1]
    implies = [[L.bottom()] * L.n for _ in range(L.n)]
    for a in range(L.n):
        for b in range(L.n):
            for z in range(L.n):
                if down[b] >> meet[z][a] & 1:
                    implies[a][b] = join[implies[a][b]][z]
    table = lambda t: [[L.labels[e] for e in row] for row in t]
    return build_from_spec(
        {
            "name": f"H({L.name})",
            "kind": "residuated",
            "elements": list(L.labels),
            "operations": {"join": table(join), "meet": table(meet), "times": table(meet), "implies": table(implies)},
            "constants": {"bot": L.labels[L.bottom()], "top": L.labels[L.top()]},
        }
    )


def residuated_inputs():
    """The residuated chains, R0, their products of at most 12 elements,
    and the Heyting algebras of the sweep's distributive lattices."""
    base = [build_from_spec(residuated_chain(n, t)) for t, n in RESIDUATED_CHAINS] + [fixture("R0")]
    products = [
        residuated_product(A, B) for i, A in enumerate(base) for B in base[i:] if A.n * B.n <= FILTER_CAP
    ]
    return base + products + [heyting(L) for L in sweep() if L.is_distributive_lattice()]


def criteria_inputs():
    """Lattices of every kind the two verdicts meet, errors included: the
    sweep, the fixtures and their bounded-lattice reducts, the distributive
    lattices above (some past FILTER_CAP), a generic algebra, a lattice with
    an extra operation, and the residuated inputs."""
    found = sweep() + [fixture(name) for name in FIXTURE_NAMES]
    found += [lattice_reduct(A, "bounded-lattice") for A in found[-len(FIXTURE_NAMES) :] if A.is_lattice]
    generic = build_from_spec({"kind": "algebra", "elements": ["a", "b"], "operations": {"f": [["a", "b"], ["b", "a"]]}})
    return found + distributive_lattices() + [generic, c3_with_a_reversal()] + residuated_inputs()


def walk_filters(A):
    """The first filter congruence without BLP, by the walk over every one."""
    return residuated._first_failure(A, (residuated.filter_congruence(A, F) for F in residuated.filters(A)))


def walk_ideals(A):
    """The first ideal congruence without BLP, by the walk over every one."""
    L = lattice_reduct(A, "bounded-lattice") if A.signature.kind == "residuated" else A
    return residuated._first_failure(L, (residuated.ideal_congruence(L, I) for I in residuated.ideals(L)))


def outcome(f, A):
    """f(A) on a cold copy of A, a congruence as its blocks, or the error raised."""
    try:
        got = f(cold(A))
    except CongrlabError as exc:
        return type(exc).__name__, str(exc)
    return got.block_string() if isinstance(got, Congruence) else got


def test_filt_and_id_blp_criteria_match_the_walks():
    verdicts = {}
    for A in criteria_inputs():
        for has, failure, walk in (
            (residuated.has_filt_blp, residuated.filt_blp_failure, walk_filters),
            (residuated.has_id_blp, residuated.id_blp_failure, walk_ideals),
        ):
            want = outcome(walk, A)
            assert outcome(failure, A) == want, (A.name, has.__name__)
            verdict = want if isinstance(want, tuple) else want is None
            assert outcome(has, A) == verdict, (A.name, has.__name__)
            verdicts.setdefault(has.__name__, set()).add(verdict if isinstance(verdict, bool) else verdict[0])
    errors = {"NotDistributive", "SizeCap", "KindError"}
    assert verdicts["has_filt_blp"] == verdicts["has_id_blp"] == {True, False} | errors
    # a lattice with another operation is refused before any kernel is
    # taken for a congruence of it
    A = c3_with_a_reversal()
    for has, what in ((residuated.has_filt_blp, "filter"), (residuated.has_id_blp, "ideal")):
        message = f"{what} congruences need a lattice with no other operation, or the residuated kind"
        assert outcome(has, A) == ("KindError", message)


C3_WITH_A_CYCLE = {
    "kind": "lattice",
    "elements": ["0", "a", "1"],
    "operations": {
        "join": [["0", "a", "1"], ["a", "a", "1"], ["1", "1", "1"]],
        "meet": [["0", "0", "0"], ["0", "a", "a"], ["0", "a", "1"]],
        "u": ["1", "0", "a"],
    },
}


def test_filt_and_id_blp_are_not_reported_on_a_lattice_with_another_operation(tmp_path, capsys):
    # the 3-chain with a unary u that cycles its elements: the kernels of
    # its reduct's filters and ideals are no congruences of it, so the
    # report leaves both verdicts out and each check exits 2 with one line
    path = tmp_path / "c3u.json"
    path.write_text(json.dumps(C3_WITH_A_CYCLE))
    assert main(["report", "--format", "json", "--file", str(path)]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == "" and doc["flags"]["con_size"] == 2
    assert "filt_blp" not in doc and "id_blp" not in doc
    for verb, what in (("filt-blp", "filter"), ("id-blp", "ideal")):
        assert main(["check", verb, "--file", str(path)]) == 2
        message = f"error: {what} congruences need a lattice with no other operation, or the residuated kind\n"
        assert capsys.readouterr() == ("", message)


def test_a_lattice_with_another_operation_is_promised_no_blp_equivalence(tmp_path, capsys):
    # L2 × L3 with a unary u: its reduct is distributive, and BLP and FCLP
    # hold while CBLP fails.  BLP = FCLP with CBLP is promised on a
    # distributive lattice with no other operation alone (residuated module
    # doc, f), so the pattern is consistent
    A = with_unary(fixture("L2timesL3"), [4, 4, 4, 5, 5, 4])
    assert A.labels == ("0", "p", "q", "r", "s", "1") and A.is_distributive_lattice()
    assert residuated.blp_equivalence_check(A) == {"blp": True, "cblp": False, "fclp": True, "consistent": True}
    path = tmp_path / "l2l3u.json"
    path.write_text(json.dumps(emit_spec(A)))
    assert main(["report", "--format", "json", "--file", str(path)]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == "" and (doc["blp"], doc["flags"]["cblp"], doc["flags"]["fclp"]) == (True, False, True)
    assert doc["blp_equivalences_consistent"] is True


def test_the_filter_congruences_of_a_residuated_algebra_are_all_of_con():
    # congruences correspond to deductive filters (residuated module doc, h)
    inputs = residuated_inputs()
    for A in inputs:
        thetas = {residuated.filter_congruence(A, F) for F in residuated.filters(A)}
        assert thetas == set(all_congruences(A).elements), A.name
    assert len(inputs) > 100


@pytest.mark.parametrize("name", ["L2x3cube", "L2timesL3", "R0"])
def test_a_report_builds_no_filter_or_ideal_congruence(name, monkeypatch):
    counts = count_calls(monkeypatch, residuated, ["filter_congruence", "ideal_congruence"])
    doc = build_report(cold(fixture(name)), name=name)
    assert doc["filt_blp"] is True and doc["id_blp"] is (name != "R0")
    assert counts == {"filter_congruence": 0, "ideal_congruence": 0}


def test_a_residuated_report_decides_blp_once(monkeypatch):
    # the report's BLP, and its Filt-BLP, which is BLP on the residuated
    # kind, read one memoized walk: one has_blp per θ above Δ
    A = cold(fixture("R0"))
    counts = count_calls(monkeypatch, residuated, ["has_blp"])
    doc = build_report(A)
    assert doc["blp"] is doc["filt_blp"] is True
    assert len(all_congruences(A)) - 1 == counts["has_blp"] == 4


def test_check_filt_blp_builds_no_filter_congruence(monkeypatch, capsys):
    counts = count_calls(monkeypatch, residuated, ["filter_congruence"])
    assert main(["check", "filt-blp", "--fixture", "L2x3cube"]) == 0
    assert capsys.readouterr().out == "Filt-BLP: yes\n"
    assert counts == {"filter_congruence": 0}


def test_check_id_blp_walks_the_ideals_for_a_failure(monkeypatch, capsys):
    counts = count_calls(monkeypatch, residuated, ["ideal_congruence"])
    assert main(["check", "id-blp", "--fixture", "R0"]) == 1
    assert capsys.readouterr().out == "Id-BLP: no\nfailing congruence: 0,c|a|b|1\n"
    assert counts["ideal_congruence"] > 0
