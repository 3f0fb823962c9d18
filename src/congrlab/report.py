"""Rendering: human tables, stable JSON, and DOT diagrams.

JSON output is key-sorted and newline-terminated so identical inputs give
identical bytes; the golden files in the repository are byte-compared
against these renderings.
"""

from __future__ import annotations

import functools
import json

from .algebra import FiniteAlgebra, ordinal_sum
from .congruences import all_congruences
from .errors import AmbiguousComplement
from .factor import boolean_center, factor_congruences, jspace, osum_fc_comparison
from .fixtures import OSUM_PARTS, fixture
from .lifting import lifting_report
from .residuated import FILTER_CAP, blp_equivalence_check, has_filt_blp, has_id_blp


def yn(v) -> str:
    return "yes" if v else "no"


def dump_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", byte for byte, with
    each container of scalars encoded in one call of the C encoder.  An
    encoder with the item separator ",\n" and the next level's indent, and
    no indent of its own, lays such a container out as indent=2 does,
    bar its brackets.  A list of such dicts, like the report rows, is one
    call too: within a row each separator is followed by a key, which
    begins with '"', so the separators followed by "{" are the row
    boundaries, and encoded JSON holds no raw newline besides the
    separators.  The pure-Python encoder, where the C one is missing, gives
    the same bytes."""
    return _indented(obj, 0) + "\n"


_SCALARS = {str, int, float, bool, type(None)}


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """Sorted keys, one item per line at the given depth of indent."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def _indented(obj, depth: int) -> str:
    """obj as json.dumps(sort_keys=True, indent=2) lays it out at depth."""
    if isinstance(obj, dict):
        items, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        items, brackets = obj, "[]"
    else:
        return _encoder(0).encode(obj)
    if not obj:
        return brackets
    outer, inner = "  " * depth, "  " * (depth + 1)
    if _SCALARS.issuperset(map(type, items)):
        body = _encoder(depth + 1).encode(obj)[1:-1]
    elif brackets == "[]" and all(type(x) is dict and x and _SCALARS.issuperset(map(type, x.values())) for x in obj):
        rows = "  " * (depth + 2)
        body = _encoder(depth + 2).encode(obj)[2:-2].replace(f"}},\n{rows}{{", f"\n{inner}}},\n{inner}{{\n{rows}")
        body = f"{{\n{rows}{body}\n{inner}}}"
    elif brackets == "[]":
        body = f",\n{inner}".join(_indented(x, depth + 1) for x in obj)
    else:
        # a key as the encoder writes it, read off a one-item dict
        body = f",\n{inner}".join(
            _encoder(0).encode({k: 0})[1:-4] + ": " + _indented(v, depth + 1) for k, v in sorted(obj.items())
        )
    return f"{brackets[0]}\n{inner}{body}\n{outer}{brackets[1]}"


def summary_counts(A: FiniteAlgebra) -> tuple[int, int, int]:
    cl = all_congruences(A)
    return (
        len(cl),
        len(boolean_center(cl).members),
        len(factor_congruences(cl).members),
    )


def counts_line(A: FiniteAlgebra) -> str:
    c, b, f = summary_counts(A)
    return f"|Con|={c}, |B|={b}, |FC|={f}"


# -- congruence listings ----------------------------------------------------


def congruence_rows(A: FiniteAlgebra, member: str | None = None) -> list[dict]:
    """A row for each congruence, or, with member "boolean" or "factor",
    for each member of the Boolean center or of FC(A) alone: only the
    congruences listed are rendered."""
    cl = all_congruences(A)
    bc = set(boolean_center(cl).members)
    fc = set(factor_congruences(cl).members)
    rows = []
    for i, theta in enumerate(cl.elements):
        flags = {"boolean": i in bc, "factor": i in fc}
        if member is None or flags[member]:
            rows.append({"index": i, "congruence": theta.block_string(), "blocks": cl.blocks[i], **flags})
    return rows


def render_con_table(A: FiniteAlgebra, rows) -> str:
    width = max(len(r["congruence"]) for r in rows)
    out = [f"algebra: {A.name or '(unnamed)'} ({A.n} elements)"]
    out.append(counts_line(A))
    out.append(f"{'congruence':{width}}  blocks  boolean  factor")
    for r in rows:
        out.append(
            f"{r['congruence']:{width}}  {r['blocks']:>6}  "
            f"{yn(r['boolean']):>7}  {yn(r['factor']):>6}"
        )
    return "\n".join(out) + "\n"


# -- DOT --------------------------------------------------------------------


def render_dot(A: FiniteAlgebra) -> str:
    """Hasse diagram of the congruence lattice.  Boolean congruences are
    double-circled, factor congruences filled."""
    cl = all_congruences(A)
    bc = set(boolean_center(cl).members)
    fc = set(factor_congruences(cl).members)
    lines = [
        f'digraph "Con({A.name or "A"})" {{',
        "  // legend: doublecircle = Boolean congruence, filled = factor congruence",
        "  rankdir=BT;",
        '  node [shape=circle, fontsize=10];',
    ]
    for i, theta in enumerate(cl.elements):
        attrs = []
        if i in bc:
            attrs.append("shape=doublecircle")
        if i in fc:
            attrs.append('style=filled, fillcolor="lightgrey"')
        attr = (", " + ", ".join(attrs)) if attrs else ""
        lines.append(f'  n{i} [label="{theta.block_string()}"{attr}];')
    # cover edges of the congruence order
    lines += [f"  n{i} -> n{j};" for i, j in cl.covers()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_hasse_dot(A: FiniteAlgebra) -> str:
    """Hasse diagram of a lattice itself (not of its congruence lattice)."""
    A.require_lattice()
    lines = [f'digraph "{A.name or "L"}" {{', "  rankdir=BT;", "  node [shape=plaintext];"]
    for e in range(A.n):
        lines.append(f'  n{e} [label="{A.labels[e]}"];')
    for a, b in A.covers():
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- full report ------------------------------------------------------------


def build_report(A: FiniteAlgebra, name: str | None = None) -> dict:
    name = name or A.name
    rep = lifting_report(A, name=name)
    doc = {
        "algebra": name,
        "carrier_size": A.n,
        "kind": A.signature.kind,
        "flags": rep.flags,
        "per_congruence": rep.per_congruence,
    }
    # element-level verdicts where a bounded-lattice reduct makes sense
    if A.is_lattice:
        try:
            eq = blp_equivalence_check(A)
            doc["blp"] = eq["blp"]
            doc["blp_equivalences_consistent"] = eq["consistent"]
        except AmbiguousComplement as exc:
            doc["blp"] = None
            doc["blp_note"] = str(exc)
        # filter and ideal congruences are the residuated kind's, or those of
        # a distributive lattice with no other operation, whose P = J(L)
        # jspace reads
        distributive_enough = A.signature.kind == "residuated" or jspace(A).p_order is not None
        if A.n <= FILTER_CAP and distributive_enough:
            doc["filt_blp"] = has_filt_blp(A)
            doc["id_blp"] = has_id_blp(A)
    # how factor congruences move (or fail to) across an ordinal-sum split,
    # for the fixture itself and not for whatever else carries its name
    if name in OSUM_PARTS and A == fixture(name):
        parts = OSUM_PARTS[name]
        L = fixture(parts[0])
        for p in parts[1:-1]:
            L = ordinal_sum(L, fixture(p))
        M = fixture(parts[-1])
        cmp_ = osum_fc_comparison(L, M)
        doc["osum_fc_transport"] = {
            "parts": list(parts),
            "glued_count": cmp_["glued_count"],
            "fc_count": cmp_["fc_count"],
            "glued_equals_fc": cmp_["glued_equals_fc"],
            "glued": cmp_["glued"],
            "fc": cmp_["fc"],
        }
    return doc


def render_report_table(doc: dict) -> str:
    out = [f"algebra: {doc['algebra']} ({doc['carrier_size']} elements, kind {doc['kind']})"]
    fl = doc["flags"]
    out.append(f"|Con|={fl['con_size']}, |B|={fl['center_size']}, |FC|={fl['fc_size']}")
    out.append(f"CBLP: {yn(fl['cblp'])}, FCLP: {yn(fl['fclp'])}")
    out.append(
        f"fc-normal: {yn(fl['fc_normal'])}, b-normal: {yn(fl['b_normal'])}"
    )
    out.append(
        f"congruence-distributive: {yn(fl['distributive'])}, "
        f"congruence-permutable: {yn(fl['permutable'])}, "
        f"arithmetical: {yn(fl['arithmetical'])}"
    )
    out.append(f"local: {yn(fl['local'])}, semilocal: {yn(fl['semilocal'])}")
    if "blp" in doc:
        if doc["blp"] is None:
            out.append(f"BLP: n/a ({doc['blp_note']})")
        else:
            out.append(f"BLP: {yn(doc['blp'])}")
            if "filt_blp" in doc and doc["filt_blp"] is not None:
                out.append(
                    f"Filt-BLP: {yn(doc['filt_blp'])}, Id-BLP: {yn(doc['id_blp'])}"
                )
    rows = doc["per_congruence"]
    width = max(len(r["congruence"]) for r in rows)
    out.append("")
    out.append(
        f"{'congruence':{width}}  blocks  fclp  cblp  |A/t|  |Con|  |B|  |FC|  max  prime"
    )
    for r in rows:
        out.append(
            f"{r['congruence']:{width}}  {r['blocks']:>6}  {yn(r['fclp']):>4}  "
            f"{yn(r['cblp']):>4}  {r['quotient_size']:>5}  {r['quotient_con_size']:>5}  "
            f"{r['quotient_center_size']:>3}  {r['quotient_fc_size']:>3}  "
            f"{yn(r['maximal']):>3}  {yn(r['prime']):>5}"
        )
    for r in rows:
        if not r["fclp"]:
            out.append(
                f"unliftable factor congruence for {r['congruence']}: {r['fclp_unliftable']}"
            )
        if not r["cblp"]:
            out.append(
                f"unliftable Boolean congruence for {r['congruence']}: {r['cblp_unliftable']}"
            )
    if "osum_fc_transport" in doc:
        t = doc["osum_fc_transport"]
        out.append("")
        out.append(
            f"ordinal-sum split ({' + '.join(t['parts'])}): glued factor congruences: "
            f"{t['glued_count']}, factor congruences of the sum: {t['fc_count']} "
            f"-> {'equal' if t['glued_equals_fc'] else 'DIFFERENT'}"
        )
        if not t["glued_equals_fc"]:
            out.append(
                "  (gluing factor congruences of the parts does not generally "
                "produce the factor congruences of the sum)"
            )
    return "\n".join(out) + "\n"


def product_summary(As: list[FiniteAlgebra], P: FiniteAlgebra, iso_ok: bool) -> str:
    names = " x ".join(A.name or "?" for A in As)
    out = [f"product: {names} ({P.n} elements)"]
    out.append(counts_line(P))
    out.append(f"componentwise congruence map is a bounded-lattice isomorphism: {yn(iso_ok)}")
    return "\n".join(out) + "\n"
