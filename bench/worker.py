"""One workload in a fresh process: set up, run the timed phase, check.

Started by run.py with the repository's src/ on PYTHONPATH.  Prints READY
once the inputs are ready (run.py times set-up up to that line), then, unless
--setup-only, one JSON line with the run's figures.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import congrlab
from congrlab import algebra, cli, congruences, lifting

import checks
import inputs
import spans
import speed

# Nominal length of one round of each workload on the 2-vCPU Xeon machine of
# the README's reference figures; a run
# does round(seconds / ROUND_S) whole rounds, so its work is fixed by
# --seconds alone and never by how fast the machine happens to be.
ROUND_S = {"cli_fixtures": 1.5, "sweep_check": 15.0, "large_reports": 21.0}

CLI_VERBS = [
    ["con"], ["center"], ["fc"], ["report"], ["report", "--format", "json"],
    ["con", "--format", "dot"], ["dual"], ["check", "fclp"], ["check", "cblp"],
    ["check", "fc-normal"], ["check", "b-normal"],
]


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_spec(workdir, name, spec):
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


class Workload:
    """The operations of one run, built from the seed and the number of rounds."""

    def prepare(self, i):
        """Called before operation i, outside its timing."""

    def is_expected_failure(self, i):
        return False


class CliFixtures(Workload):
    """One person at the terminal: every verb on relabelled fixture copies.

    Each operation's spec file is written just before the operation, outside
    its timing: creating thousands of files up front made set-up a measure
    of the file system rather than of congrlab."""

    def __init__(self, seed, rounds, workdir, smoke):
        rng = random.Random(seed)
        specs = {name: inputs.fixture_spec(name) for name in checks.FIXTURES}
        self.ops = []  # (argv, fixture name or malformed key, spec or None)
        self.files = []  # (path, text) written by prepare()
        for r in range(rounds):
            for name in specs:
                for v, verb in enumerate(CLI_VERBS):
                    spec = inputs.relabelled(specs[name], rng)
                    self._add(workdir / f"r{r}-{name}-{v}.json", json.dumps(spec), verb, name, spec)
            for key, text in inputs.MALFORMED_SPECS.items():
                self._add(workdir / f"r{r}-bad-{key}.json", text, ["con"], key, None)

    def _add(self, path, text, verb, name, spec):
        self.files.append((path, text))
        self.ops.append((verb + ["--file", str(path)], name, spec))

    def prepare(self, i):
        path, text = self.files[i]
        path.write_text(text)

    def calls(self):
        return [lambda argv=argv: call_main(argv) for argv, _, _ in self.ops]

    def is_expected_failure(self, i):
        return self.ops[i][2] is None

    def check_one(self, i, res, problems):
        argv, name, spec = self.ops[i]
        code, out, err = res
        where = f"{' '.join(argv[:-2])} on {name}"
        if spec is None:
            if code != 2 or not err.startswith("error: ") or err.count("\n") != 1:
                problems.append(f"{where}: malformed spec gave exit {code}, {err!r}")
            return
        want = checks.FIXTURES[name]
        n, con, b, fc, fclp, cblp = want
        verb = argv[0]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
        expect_code = 0
        if verb == "check":
            holds = {"fclp": fclp, "fc-normal": fclp, "cblp": cblp, "b-normal": cblp}[argv[1]]
            expect_code = 0 if holds else 1
            if argv[1] in ("fclp", "cblp"):
                first = out.splitlines()[0] if out else ""
                if first != f"FCLP: {checks.yn(fclp)}; CBLP: {checks.yn(cblp)}":
                    problems.append(f"{where}: printed {first!r}")
        elif verb == "dual" and name == "R0":
            expect_code = 2  # the dual of a residuated lattice is refused
            if not err.startswith("error: "):
                problems.append(f"{where}: no error line")
        elif verb == "dual":
            checks.check_dual(where, out, spec, problems)
        elif verb == "report" and fmt == "json":
            checks.check_report_json(where, json.loads(out), want, problems)
        elif verb == "report":
            checks.check_report_table(where, out, want, problems)
        elif fmt == "dot":
            checks.check_con_dot(where, out, con, b, fc, problems)
        else:
            checks.check_con_table(where, out, want, verb, problems)
        if code != expect_code:
            problems.append(f"{where}: exit {code}, expected {expect_code}")


class SweepCheck(Workload):
    """Counterexample search: decide FCLP, CBLP, fc- and b-normality for every
    lattice of the sweep, one lattice per operation."""

    SAMPLE = 10  # random 7-8 element lattices also counted by brute force

    def __init__(self, seed, rounds, workdir, smoke):
        small, rand = inputs.small_orders(), inputs.random_orders()
        self.base = small + (rand[:10] if smoke else rand)
        self.checked = set(range(len(small)))
        self.checked |= set(random.Random(seed).sample(range(len(small), len(self.base)), self.SAMPLE))
        self.verdicts = {}  # base index -> verdicts of its first round
        self.lattices = []  # (base index, algebra)
        for r in range(rounds):
            # Round 0 is the sweep as the tests build it; later rounds relabel
            # it, the same way in every run, so that the work of a run does
            # not depend on the seed.  One relabelling per carrier size keeps
            # identical lattices identical, so natural duplicates share work.
            perms = {n: fixed_relabelling(n, r) for n in range(1, 9)}
            for i, leq in enumerate(self.base):
                perm = perms[len(leq)]
                labels = [""] * len(leq)
                for e, p in enumerate(perm):
                    labels[p] = f"e{e}"
                A = algebra.lattice_from_order(inputs.permute_order(leq, perm), labels)
                self.lattices.append((i, A))

    def calls(self):
        def decide(A):
            return (lifting.algebra_fclp(A)[0], lifting.algebra_cblp(A)[0],
                    lifting.is_fc_normal(A)[0], lifting.is_b_normal(A)[0])

        return [lambda A=A: decide(A) for _, A in self.lattices]

    def check_one(self, op, res, problems):
        i, A = self.lattices[op]
        fclp, cblp, fcn, bn = res
        where = f"sweep lattice {i} ({A.n} elements)"
        if fclp != fcn or cblp != bn:
            problems.append(f"{where}: FCLP {fclp} / fc-normal {fcn}, CBLP {cblp} / b-normal {bn}")
        if self.verdicts.setdefault(i, res) != res:
            problems.append(f"{where}: verdicts change under relabelling")
        if i in self.checked and op < len(self.base):
            got = len(congruences.all_congruences(A))
            want = checks.brute_force_con_count(A.tables["join"], A.tables["meet"])
            if got != want:
                problems.append(f"{where}: |Con|={got}, brute force finds {want}")


class LargeReports(Workload):
    """One big algebra per operation, full JSON report through the CLI."""

    def __init__(self, seed, rounds, workdir, smoke):
        t, e = inputs.fixture_spec("T"), inputs.fixture_spec("E")
        tc, ec = checks.FIXTURES["T"], checks.FIXTURES["E"]
        txe = (42, tc[1] * ec[1], tc[2] * ec[2], tc[3] * ec[3])
        big = [
            (inputs.chain_spec(7), (7, 64, 64, 2)),
            (inputs.chain_spec(8), (8, 128, 128, 2)),
            (inputs.boolean_spec(4), (16, 16, 16, 16)),
            (inputs.boolean_spec(5), (32, 32, 32, 32)),
            (inputs.product_spec(t, e), txe),
        ]
        if smoke:
            big = [(inputs.chain_spec(5), (5, 16, 16, 2)), (inputs.boolean_spec(3), (8, 8, 8, 8)), big[-1]]
        self.ops = []  # (argv, expected (|A|, |Con|, |B|, |FC|))
        for r in range(rounds):
            for spec, want in big:
                if r:  # as in SweepCheck, later rounds relabel independently of the seed
                    spec = inputs.relabelled(spec, random.Random(r))
                path = write_spec(workdir, f"r{r}-{spec['name']}", spec)
                self.ops.append((["report", "--format", "json", "--file", path], want))
            self.ops.append((["product", "T", "E"], txe))

    def calls(self):
        return [lambda argv=argv: call_main(argv) for argv, _ in self.ops]

    def check_one(self, i, res, problems):
        argv, want = self.ops[i]
        code, out, err = res
        where = " ".join(argv)
        if code != 0:
            problems.append(f"{where}: exit {code}: {err.strip()}")
        elif argv[0] == "product":
            n, con, b, fc = want
            expect = [f"product: T x E ({n} elements)", f"|Con|={con}, |B|={b}, |FC|={fc}",
                      "componentwise congruence map is a bounded-lattice isomorphism: yes"]
            if out.splitlines() != expect:
                problems.append(f"{where}: printed {out!r}")
        else:
            checks.check_report_json(where, json.loads(out), (*want, None, None), problems)


def fixed_relabelling(n, r):
    """The identity for round 0, else a permutation fixed by (n, r) alone."""
    perm = list(range(n))
    if r:
        random.Random(r * 100 + n).shuffle(perm)
    return perm


WORKLOADS = {"cli_fixtures": CliFixtures, "sweep_check": SweepCheck, "large_reports": LargeReports}


def percentile(sorted_xs, p):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_percentile(count):
    """The highest of these percentiles with at least ten samples beyond it;
    None below 40 samples, where no percentile is a tail."""
    if count < 40:
        return None
    return max(p for p in (50, 90, 95, 99, 99.9) if count * (100 - p) / 100 >= 10)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--results", required=True, help="directory for spans and scratch files")
    args = ap.parse_args()
    protocol = sys.stdout

    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="specs-", dir=results_dir))
    try:
        rounds = 1 if args.smoke else max(1, round(args.seconds / ROUND_S[args.workload]))
        wl = WORKLOADS[args.workload](args.seed, rounds, workdir, args.smoke)
        calls = wl.calls()
        print("READY", file=protocol, flush=True)
        if args.setup_only:
            return 0

        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        ticks = speed.Ticks()
        ticks.start()
        results = [None] * len(calls)
        spans_at = [None] * len(calls)  # (start, end) of each operation
        failures = {}
        unexpected = []
        for i, call in enumerate(calls):
            wl.prepare(i)
            if tracer:
                tracer.op = i
            t0 = perf_counter()
            try:
                res = call()
            except Exception as exc:  # an operation that escapes the program
                t1 = perf_counter()
                reason = type(exc).__name__
                failures[reason] = failures.get(reason, 0) + 1
                if not wl.is_expected_failure(i):
                    unexpected.append(f"operation {i}: {reason}: {exc}")
            else:
                t1 = perf_counter()
                results[i] = res
            spans_at[i] = (t0, t1)
        ticks.stop()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()

        problems = list(unexpected)
        for i, res in enumerate(results):
            if res is not None:
                try:
                    wl.check_one(i, res, problems)
                except Exception as exc:  # output too malformed to parse
                    problems.append(f"operation {i}: output not checkable: {type(exc).__name__}: {exc}")
        # Failed operations count in the time of the timed phase, not in latency.
        raw = [ticks.raw(t0, t1) for t0, t1 in spans_at]
        scaled = [ticks.scale(t0, t1) for t0, t1 in spans_at]
        done = [i for i, res in enumerate(results) if res is not None]
        lat = sorted(scaled[i] for i in done)
        tail_p = tail_percentile(len(lat))
        ops_per_s = len(lat) / sum(scaled)
        if tracer:
            metrics = tracer.summarise()
            metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
            tracer.write_spans(results_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")
        else:
            p50 = statistics.median(lat)
            metrics = {
                "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                "latency_p50_s": {"value": p50, "unit": "s"},
                "latency_tail_s": {"value": p50 if tail_p is None else percentile(lat, tail_p), "unit": "s"},
                "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            }
        report = {
            "correct": not problems,
            "attempted": len(calls),
            "failed": len(calls) - len(lat),
            "metrics": metrics,
            "info": {
                "rounds": rounds,
                "timed_s": sum(raw),
                "raw_ops_per_s": len(lat) / sum(raw),
                "raw_latency_p50_s": statistics.median(raw[i] for i in done),
                "samples": len(lat),
                "tail_percentile": tail_p,
                "failures": failures,
                "problems": problems[:20],
                "loop_s": [min(ticks.loop_s), statistics.median(ticks.loop_s), max(ticks.loop_s)],
                "ticks": len(ticks.at),
                "op_latencies_s": raw,
                "op_scaled_s": scaled,
                "congrlab": congrlab.__version__,
            },
        }
        print(json.dumps(report), file=protocol, flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
