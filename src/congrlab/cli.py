"""Command-line front end.

Exit-code contract (so shell scripts can assert properties):
  0  success, or the checked property holds
  1  the checked property fails (evidence printed on stdout)
  2  input or validation error
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from types import SimpleNamespace

from .algebra import FiniteAlgebra, build_from_spec, direct_product, dual, emit_spec, ordinal_sum
from .congruences import (
    all_congruences,
    is_congruence_distributive,
    is_congruence_permutable,
    parse_congruence,
)
from .errors import CongrlabError, NestedTooDeeply
from .factor import (
    crt_characterization,
    crt_direct_check,
    factor_congruences,
    osum_fc_comparison,
    product_con_iso_check,
)
from .fixtures import FIXTURE_NAMES, fixture
from .lifting import _holds, _lifting, _lifting_failure, is_b_normal, is_fc_normal, quotient
from .report import (
    build_report,
    congruence_rows,
    counts_line,
    dump_json,
    product_summary,
    render_con_table,
    render_dot,
    render_hasse_dot,
    render_report_table,
    yn,
)
from .residuated import algebra_blp, filt_blp_failure, id_blp_failure

CHECK_PROPERTIES = (
    "fclp",
    "cblp",
    "blp",
    "filt-blp",
    "id-blp",
    "fc-normal",
    "b-normal",
    "arithmetical",
    "crt",
)


def _read_spec(path: str, max_size: int | None = None) -> dict:
    """Parse a spec file, refusing it before anything is built when it lists
    more than max_size elements."""
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CongrlabError(f"{path} is not a valid JSON spec: {exc}") from None
    elements = spec.get("elements") if isinstance(spec, dict) else None
    if max_size is not None and isinstance(elements, list):
        _check_size(len(elements), max_size)
    return spec


def _check_size(n: int, max_size: int | None, what: str = "input"):
    if max_size is not None and n > max_size:
        raise CongrlabError(f"{what} has {n} elements, above the requested limit {max_size}")


def _load(args) -> FiniteAlgebra:
    if bool(args.fixture) == bool(args.file):
        raise CongrlabError("give exactly one of --fixture or --file")
    if args.fixture:
        A = fixture(args.fixture)
        _check_size(A.n, args.max_size)
        return A
    return _load_file(args.file, args.max_size)


def _load_operand(name_or_path: str, max_size: int | None) -> FiniteAlgebra:
    if name_or_path in FIXTURE_NAMES:
        A = fixture(name_or_path)
        _check_size(A.n, max_size)
        return A
    return _load_file(name_or_path, max_size)


def _load_file(path: str, max_size: int | None) -> FiniteAlgebra:
    """The algebra of a spec file.  A spec nested too deeply for the JSON
    reader or for the table builder is an input error, not a traceback."""
    try:
        return build_from_spec(_read_spec(path, max_size))
    except (RecursionError, NestedTooDeeply):
        raise CongrlabError(f"{path} is nested too deeply") from None


def _emit(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# An option is (flag, kind, default, help): kind is str, int, a tuple of
# choices, or bool for a store-true flag, and a REQUIRED default makes the
# option required.  A verb is (help, positional, options), its positional
# None or (dest, shape, help), the shape a tuple of choices for one value,
# "+" for one or more values, or 2 for exactly two.
REQUIRED = ...
FORMAT = ("--format", ("table", "json", "dot"), "table", None)
OUT = ("--out", str, None, "write output to a file instead of stdout")
MAX_SIZE = ("--max-size", int, None, "refuse larger inputs")
INPUT = (
    ("--fixture", str, None, "named example algebra"),
    ("--file", str, None, "path to an algebra spec (JSON)"),
    MAX_SIZE,
)
OPERANDS = "fixture names or spec files"
VERBS = {
    "con": ("list the congruence lattice", None, (FORMAT, OUT, *INPUT)),
    "center": ("list the Boolean congruences", None, (FORMAT, OUT, *INPUT)),
    "fc": ("list the factor congruences", None, (FORMAT, OUT, *INPUT)),
    "quotient": (
        "compute a quotient algebra",
        None,
        (FORMAT, OUT, *INPUT, ("--by", str, REQUIRED, 'congruence as blocks, e.g. "0,m|1"')),
    ),
    "product": ("direct product of algebras", ("operands", "+", OPERANDS), (FORMAT, OUT, MAX_SIZE)),
    "osum": ("ordinal sum of two lattices", ("operands", 2, OPERANDS), (FORMAT, OUT, MAX_SIZE)),
    "dual": ("order-dual of a lattice", None, (FORMAT, OUT, *INPUT)),
    "check": ("decide a property (exit 0 holds / 1 fails)", ("property", CHECK_PROPERTIES, None), (OUT, *INPUT)),
    "report": ("full lifting/classification report", None, (FORMAT, OUT, *INPUT)),
    "fixture": (
        "show a named fixture",
        ("name", FIXTURE_NAMES, None),
        (FORMAT, OUT, ("--emit-spec", bool, False, "print the full table spec")),
    ),
    "dot": ("Hasse diagram of the algebra itself (DOT)", None, (OUT, *INPUT)),
    "regen-goldens": ("recompute all golden files", None, (("--out", str, "goldens", "golden directory"),)),
}
# the kind of each option of each verb, by flag, for _parse
_KINDS = {verb: {flag: kind for flag, kind, _, _ in options} for verb, (_, _, options) in VERBS.items()}


@functools.cache
def make_parser():
    """The argparse parser of VERBS, built once per process: parse_args
    leaves it unchanged.  main asks it only for what _parse declines: help,
    usage and errors, and the argv shapes that _parse does not read.  This
    is the one place argparse is imported, so a plain argv never loads it."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="congrlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for name, (help, positional, options) in VERBS.items():
        p = sub.add_parser(name, help=help)
        if positional:
            dest, shape, what = positional
            if isinstance(shape, tuple):
                p.add_argument(dest, choices=shape, help=what)
            else:
                p.add_argument(dest, nargs=shape, help=what)
        for flag, kind, default, what in options:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=what)
            elif default is REQUIRED:
                p.add_argument(flag, required=True, help=what)
            else:
                choices = kind if isinstance(kind, tuple) else None
                p.add_argument(flag, type=int if kind is int else None, choices=choices, default=default, help=what)
    return ap


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The attributes of the Namespace make_parser().parse_args(argv)
    returns, as a SimpleNamespace read off VERBS with no parser built and
    argparse not imported, for an argv of the plain shape: the verb, its
    positionals in one run, then options of the verb, each by its exact
    name and at most once, each value present and not starting with "-",
    --max-size in ASCII digits.  None for any other argv (help, an
    abbreviation, --opt=value, a repeated option, --, a negative number, an
    unknown verb or choice, a missing required option), which the parser
    then reads or refuses in its own words."""
    if not argv or argv[0] not in VERBS:
        return None
    verb = argv[0]
    _, positional, options = VERBS[verb]
    kinds = _KINDS[verb]
    end = 1
    while end < len(argv) and not argv[end].startswith("-"):
        end += 1
    values = argv[1:end]
    args = {"verb": verb}
    if positional is None:
        if values:
            return None
    else:
        dest, shape, _ = positional
        if isinstance(shape, tuple):
            if len(values) != 1 or values[0] not in shape:
                return None
            args[dest] = values[0]
        elif not values or shape != "+" and len(values) != shape:
            return None
        else:
            args[dest] = values
    given = {}
    i = end
    while i < len(argv):
        flag = argv[i]
        if flag not in kinds or flag in given:
            return None
        kind = kinds[flag]
        if kind is bool:
            given[flag] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            value = int(value)
        elif isinstance(kind, tuple) and value not in kind:
            return None
        given[flag] = value
        i += 2
    for flag, _, default, _ in options:
        if flag not in given and default is REQUIRED:
            return None
        args[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**args)


def _listing(A, member, fmt):
    """The con, center or fc listing: the rows of member's congruences, or
    the DOT diagram of Con(A), which reads no row."""
    if fmt == "dot":
        return render_dot(A)
    rows = congruence_rows(A, member)
    if fmt == "json":
        return dump_json({"algebra": A.name, "counts": counts_line(A), "rows": rows})
    return render_con_table(A, rows)


def _algebra_output(A, fmt):
    if fmt == "json":
        return dump_json(emit_spec(A))
    if fmt == "dot":
        return render_hasse_dot(A)
    lines = [f"algebra: {A.name or '(unnamed)'} ({A.n} elements, kind {A.signature.kind})"]
    lines.append("elements: " + " ".join(A.labels))
    if A.is_lattice:
        covers = ", ".join(f"{A.labels[a]}<{A.labels[b]}" for a, b in A.covers())
        lines.append("covers: " + covers)
    return "\n".join(lines) + "\n"


def run(args) -> int:
    verb = args.verb
    if verb in ("con", "center", "fc"):
        A = _load(args)
        member = {"center": "boolean", "fc": "factor"}.get(verb)
        _emit(_listing(A, member, args.format), args.out)
        return 0
    if verb == "quotient":
        A = _load(args)
        theta = parse_congruence(A, args.by)
        Q = quotient(A, theta)
        _emit(_algebra_output(Q.quotient, args.format), args.out)
        return 0
    if verb == "product":
        As = [_load_operand(x, args.max_size) for x in args.operands]
        _check_size(math.prod(A.n for A in As), args.max_size, "the product")
        P = direct_product(As)
        ok = product_con_iso_check(As, P=P)
        if args.format == "json":
            c = counts_line(P)
            _emit(dump_json({"product": P.name, "counts": c, "iso_verified": ok}), args.out)
        elif args.format == "dot":
            _emit(render_hasse_dot(P), args.out)
        else:
            _emit(product_summary(As, P, ok), args.out)
        return 0 if ok else 1
    if verb == "osum":
        L, M = (_load_operand(x, args.max_size) for x in args.operands)
        _check_size(L.n + M.n - 1, args.max_size, "the ordinal sum")
        S = ordinal_sum(L, M)
        cmp_ = osum_fc_comparison(L, M)
        if args.format == "json":
            _emit(
                dump_json(
                    {
                        "sum": S.name,
                        "counts": counts_line(S),
                        "glued_fc_count": cmp_["glued_count"],
                        "fc_count": cmp_["fc_count"],
                        "glued_equals_fc": cmp_["glued_equals_fc"],
                    }
                ),
                args.out,
            )
        elif args.format == "dot":
            _emit(render_hasse_dot(S), args.out)
        else:
            text = _algebra_output(S, "table")
            text += counts_line(S) + "\n"
            text += (
                f"glued factor congruences: {cmp_['glued_count']}, "
                f"factor congruences of the sum: {cmp_['fc_count']} -> "
                f"{'equal' if cmp_['glued_equals_fc'] else 'DIFFERENT'}\n"
            )
            _emit(text, args.out)
        return 0
    if verb == "dual":
        A = _load(args)
        _emit(_algebra_output(dual(A), args.format), args.out)
        return 0
    if verb == "check":
        code, lines = _check(_load(args), args.property)
        _emit("".join(line + "\n" for line in lines), args.out)
        return code
    if verb == "report":
        A = _load(args)
        doc = build_report(A, name=args.fixture or A.name)
        if args.format == "json":
            _emit(dump_json(doc), args.out)
        elif args.format == "dot":
            _emit(render_dot(A), args.out)
        else:
            _emit(render_report_table(doc), args.out)
        return 0
    if verb == "fixture":
        A = fixture(args.name)
        if args.emit_spec:
            _emit(dump_json(emit_spec(A)), args.out)
        else:
            _emit(_algebra_output(A, args.format), args.out)
        return 0
    if verb == "dot":
        A = _load(args)
        _emit(render_hasse_dot(A), args.out)
        return 0
    if verb == "regen-goldens":
        return regen_goldens(args.out)
    raise CongrlabError(f"unknown verb {verb!r}")


def _check(A: FiniteAlgebra, prop: str) -> tuple[int, list[str]]:
    """The exit code of check prop on A, and the lines it prints."""
    if prop in ("fclp", "cblp"):
        # the checked property alone sets the exit code and the evidence; both
        # read one J(Con A) record, so neither is past a cap the other is not.
        # Only a failure walks Con(A), for its first failing θ
        factor = prop == "fclp"
        ok = _holds(A, factor)
        lines = [f"FCLP: {yn(_holds(A, True))}; CBLP: {yn(_holds(A, False))}"]
        if not ok:
            cl, t = all_congruences(A), _lifting_failure(A, factor)
            theta = cl.elements[t]
            target = cl.elements[_lifting(cl, t, factor)[1]].block_string(over=theta)
            lines.append(f"failing congruence: {theta.block_string()} (cannot reach {target})")
        return 0 if ok else 1, lines
    if prop in ("blp", "filt-blp", "id-blp"):
        name, failure = {
            "blp": ("BLP", lambda A: algebra_blp(A)[1]),
            "filt-blp": ("Filt-BLP", filt_blp_failure),
            "id-blp": ("Id-BLP", id_blp_failure),
        }[prop]
        theta = failure(A)
        lines = [f"{name}: {yn(theta is None)}"]
        if theta is not None:
            lines.append(f"failing congruence: {theta.block_string()}")
        return 0 if theta is None else 1, lines
    if prop in ("fc-normal", "b-normal"):
        ok, info = (is_fc_normal if prop == "fc-normal" else is_b_normal)(A)
        lines = [f"{prop}: {yn(ok)}"]
        if not ok:
            lines.append(f"failing pair: {info[0]} / {info[1]}")
        return 0 if ok else 1, lines
    if prop == "arithmetical":
        d = is_congruence_distributive(A)
        p = is_congruence_permutable(A)
        return 0 if d and p else 1, [f"congruence-distributive: {yn(d)}; congruence-permutable: {yn(p)}"]
    if prop == "crt":
        cl = all_congruences(A)
        fc = factor_congruences(cl).congruences()
        char = crt_characterization(A, fc)
        direct, witness = crt_direct_check(A, fc, k_max=3)
        lines = [f"CRT (factor congruences): characterization {yn(char)}, direct {yn(direct)}"]
        if witness:
            thetas, targets = witness
            lines.append(
                "counterexample: "
                + "; ".join(t.block_string() for t in thetas)
                + " with targets "
                + ", ".join(targets)
            )
        return 0 if char and direct else 1, lines
    raise CongrlabError(f"unknown property {prop!r}")


def regen_goldens(out: str) -> int:
    os.makedirs(out, exist_ok=True)
    for name in FIXTURE_NAMES:
        A = fixture(name)
        doc = build_report(A, name=name)
        _emit(render_report_table(doc), os.path.join(out, f"{name}.report.txt"))
        _emit(dump_json(doc), os.path.join(out, f"{name}.report.json"))
        _emit(render_dot(A), os.path.join(out, f"{name}.con.dot"))
    T, E = fixture("T"), fixture("E")
    P = direct_product([T, E])
    ok = product_con_iso_check([T, E], P=P)
    _emit(product_summary([T, E], P, ok), os.path.join(out, "TxE.txt"))
    print(f"wrote goldens for {len(FIXTURE_NAMES)} fixtures plus TxE into {os.path.normpath(out)}/")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        args = make_parser().parse_args(argv)
    try:
        return run(args)
    except (CongrlabError, OSError, UnicodeEncodeError) as exc:
        # UnicodeEncodeError: a label that stdout's encoding, or UTF-8, cannot write
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
