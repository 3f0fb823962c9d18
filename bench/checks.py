"""Correctness checks, each made apart from the program under test.

The expected figures for the fixtures are written down here by hand from the
paper's examples and from the structure of each algebra (a product of k
two-element chains has 2^k congruences, all of them factor congruences; an
n-element chain has 2^(n-1)); they do not come from running congrlab.  Every
other check recomputes what it needs from the partitions the program prints.
"""

from __future__ import annotations

# name: (|A|, |Con|, |B|, |FC|, FCLP, CBLP).  P fails both properties, X and
# L2osumL2x2 fail only FCLP, H fails only CBLP.
FIXTURES = {
    "L1": (1, 1, 1, 1, True, True),
    "L2": (2, 2, 2, 2, True, True),
    "L3": (3, 4, 4, 2, True, True),
    "L2x2": (4, 4, 4, 4, True, True),
    "L2x3cube": (8, 8, 8, 8, True, True),
    "L2timesL3": (6, 8, 8, 4, True, True),
    "D": (5, 2, 2, 2, True, True),
    "P": (5, 5, 2, 2, False, False),
    "S": (6, 4, 4, 2, True, True),
    "R": (7, 8, 8, 2, True, True),
    "T": (7, 8, 8, 2, True, True),
    "E": (6, 3, 2, 2, True, True),
    "X": (8, 8, 8, 2, False, True),
    "H": (8, 5, 2, 2, True, False),
    "R0": (5, 5, 2, 2, True, True),
    "L2osumL2x2": (5, 8, 8, 2, False, True),
}


def yn(flag: bool) -> str:
    return "yes" if flag else "no"


def parse_partition(text: str) -> frozenset:
    """'0,a|b' -> {{0, a}, {b}}, as a set of frozensets of labels."""
    return frozenset(frozenset(block.split(",")) for block in text.split("|"))


def refines(p: frozenset, q: frozenset) -> bool:
    """Every block of p lies inside a block of q."""
    return all(any(b <= c for c in q) for b in p)


def interval_sizes(partitions: list) -> list[int]:
    """For each theta, the number of listed partitions at or above it."""
    return [sum(refines(t, q) for q in partitions) for t in partitions]


def check_counts(where, got, want, problems):
    if tuple(got) != tuple(want):
        problems.append(f"{where}: got {tuple(got)}, expected {tuple(want)}")


def check_report_rows(where, rows, n, problems):
    """rows: (partition text, blocks, |A/t|, |Con(A/t)|) per congruence.

    Each partition must cover the carrier; |A/t| is its number of blocks, and
    by the correspondence theorem Con(A/t) is the interval [t, top] of Con(A).
    """
    parts = [parse_partition(r[0]) for r in rows]
    for p, (text, blocks, qsize, qcon), above in zip(parts, rows, interval_sizes(parts)):
        if sum(len(b) for b in p) != n or len(set().union(*p)) != n:
            problems.append(f"{where}: {text} is not a partition of {n} elements")
        if not (blocks == qsize == len(p)):
            problems.append(f"{where}: {text} has {len(p)} blocks, report says {blocks} and |A/t|={qsize}")
        if qcon != above:
            problems.append(f"{where}: |Con(A/{text})|={qcon} but [t, top] has {above} members")
    if len(set(parts)) != len(parts):
        problems.append(f"{where}: a congruence is listed twice")


def check_flags(where, flags, problems):
    """FCLP <=> fc-normal and CBLP <=> b-normal."""
    if flags["fclp"] != flags["fc_normal"]:
        problems.append(f"{where}: FCLP={flags['fclp']} but fc-normal={flags['fc_normal']}")
    if flags["cblp"] != flags["b_normal"]:
        problems.append(f"{where}: CBLP={flags['cblp']} but b-normal={flags['b_normal']}")


def check_report_json(where, doc, want, problems):
    """want: (|A|, |Con|, |B|, |FC|, FCLP or None, CBLP or None)."""
    n, con, b, fc, fclp, cblp = want
    flags = doc["flags"]
    if doc["carrier_size"] != n:
        problems.append(f"{where}: carrier {doc['carrier_size']}, expected {n}")
    got = (flags["con_size"], flags["center_size"], flags["fc_size"])
    check_counts(where, got, (con, b, fc), problems)
    check_flags(where, flags, problems)
    for key, value in (("fclp", fclp), ("cblp", cblp)):
        if value is not None and flags[key] != value:
            problems.append(f"{where}: {key}={flags[key]}, expected {value}")
    rows = doc["per_congruence"]
    if len(rows) != con:
        problems.append(f"{where}: {len(rows)} report rows for |Con|={con}")
    check_report_rows(where, [(r["congruence"], r["blocks"], r["quotient_size"],
                               r["quotient_con_size"]) for r in rows], n, problems)
    if all(r["fclp"] for r in rows) != flags["fclp"] or all(r["cblp"] for r in rows) != flags["cblp"]:
        problems.append(f"{where}: per-congruence verdicts disagree with the flags")


def check_report_table(where, text, want, problems):
    n, con, b, fc, fclp, cblp = want
    lines = text.splitlines()
    head = {
        1: f"|Con|={con}, |B|={b}, |FC|={fc}",
        2: f"CBLP: {yn(cblp)}, FCLP: {yn(fclp)}",
        3: f"fc-normal: {yn(fclp)}, b-normal: {yn(cblp)}",
    }
    for i, expect in head.items():
        if len(lines) <= i or lines[i] != expect:
            problems.append(f"{where}: line {i + 1} is not {expect!r}")
            return
    try:
        start = next(i for i, line in enumerate(lines) if line.startswith("congruence ")) + 1
    except StopIteration:
        problems.append(f"{where}: no congruence table")
        return
    rows = []
    for line in lines[start:start + con]:
        f = line.split()
        rows.append((f[0], int(f[1]), int(f[4]), int(f[5])))
    if len(rows) != con:
        problems.append(f"{where}: {len(rows)} table rows for |Con|={con}")
    check_report_rows(where, rows, n, problems)


def check_con_table(where, text, want, verb, problems):
    """`con`, `center` and `fc` listings: the counts line, then one row per
    congruence (con), Boolean congruence (center) or factor congruence (fc)."""
    n, con, b, fc = want[:4]
    lines = text.splitlines()
    if len(lines) < 2 or lines[1] != f"|Con|={con}, |B|={b}, |FC|={fc}":
        problems.append(f"{where}: counts line is not |Con|={con}, |B|={b}, |FC|={fc}")
    rows = [line.split() for line in lines[3:]]
    listed = {"con": (con, b, fc), "center": (b, b, fc), "fc": (fc, fc, fc)}[verb]
    got = (len(rows), sum(r[2] == "yes" for r in rows), sum(r[3] == "yes" for r in rows))
    check_counts(where, got, listed, problems)
    for r in rows:
        p = parse_partition(r[0])
        if len(p) != int(r[1]) or sum(len(blk) for blk in p) != n:
            problems.append(f"{where}: row {r[0]} does not match its block count {r[1]}")


def check_con_dot(where, text, count, booleans, factors, problems):
    """Nodes, markings, and edges = covers of the refinement order."""
    nodes = {}
    edges = set()
    marks = [0, 0]
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("n") and "[label=" in line:
            ident = line.split()[0]
            nodes[ident] = parse_partition(line.split('"')[1])
            marks[0] += "doublecircle" in line
            marks[1] += "filled" in line
        elif "->" in line:
            a, b = line.rstrip(";").split(" -> ")
            edges.add((a, b))
    check_counts(where, (len(nodes), *marks), (count, booleans, factors), problems)
    covers = set()
    for a, pa in nodes.items():
        for b, pb in nodes.items():
            if a != b and refines(pa, pb) and not any(
                m not in (a, b) and refines(pa, pm) and refines(pm, pb) for m, pm in nodes.items()
            ):
                covers.add((a, b))
    if covers != edges:
        problems.append(f"{where}: DOT edges are not the covers of Con")


def check_dual(where, text, spec, problems):
    """The dual lists the same elements with every cover reversed."""
    lines = text.splitlines()
    elements = lines[1].split()[1:] if len(lines) > 1 else []
    if sorted(elements) != sorted(spec["elements"]):
        problems.append(f"{where}: dual has elements {elements}")
    got = set()
    if len(spec["elements"]) > 1:
        covers = lines[2][len("covers: "):] if len(lines) > 2 else ""
        got = {tuple(c.split("<")) for c in covers.split(", ") if c}
    want = {(hi, lo) for lo, hi in spec.get("cover", [])}
    if got != want:
        problems.append(f"{where}: dual covers are not the reversed covers")


# -- brute-force congruence count ------------------------------------------------


def _partitions(n):
    """Set partitions of 0..n-1 as block-representative arrays."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def grow(i, used):
        if i == n:
            first = {}
            yield tuple(first.setdefault(v, e) for e, v in enumerate(rgs))
            return
        for v in range(used + 1):
            rgs[i] = v
            yield from grow(i + 1, used + (v == used))

    yield from grow(1, 1)


def brute_force_con_count(join, meet) -> int:
    """Count the partitions compatible with both lattice operations.

    It is enough to test each element against its block representative: if
    a ~ r and b ~ r then f(a, z) ~ f(r, z) ~ f(b, z)."""
    n = len(join)
    count = 0
    for rep in _partitions(n):
        ok = True
        for a in range(n):
            r = rep[a]
            if r == a:
                continue
            for t in (join, meet):
                ta, tr = t[a], t[r]
                if any(rep[ta[z]] != rep[tr[z]] for z in range(n)):
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count
