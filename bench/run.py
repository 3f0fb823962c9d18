"""Benchmark of congrlab: one workload per invocation, run from the
repository root.

    python3 bench/run.py --workload sweep_check --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each run starts fresh worker processes (CONGRLAB_CACHE unset): a few that
only set up, to time set-up, then one that sets up, runs the timed phase and
checks the outputs.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  Times are
rescaled to a fixed machine speed (speed.py).  Details of
the run go to bench/results/.  --smoke runs every workload, traced and not,
on a small slice, and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("cli_fixtures", "sweep_check", "large_reports")
SETUP_PROBES = 6  # set-up-only processes; with the measured one, 7 samples
TIMEOUT_S = 170  # the whole run must end within 180 s


def worker_env(seed):
    env = dict(os.environ)
    env.pop("CONGRLAB_CACHE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def start_worker(args, extra, procs):
    """Start a worker and wait for its READY line; returns (set-up seconds
    at the reference speed of speed.py, raw set-up seconds, process)."""
    ticks = speed.Ticks()
    ticks.add()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--results", str(RESULTS), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(args.seed), stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    line = proc.stdout.readline()
    t1 = perf_counter()
    ticks.add()
    if line.strip() != "READY":
        raise RuntimeError(f"the {args.workload} worker did not get ready")
    return ticks.scale(t0, t1), t1 - t0, proc


def run_workload(args):
    started = perf_counter()
    remaining = lambda: max(1.0, started + TIMEOUT_S - perf_counter())
    smoke = ["--smoke"] if args.smoke else []
    procs = []
    try:
        setups, raw_setups = [], []
        for _ in range(0 if args.smoke else SETUP_PROBES):
            setup_s, raw_s, proc = start_worker(args, ["--setup-only", *smoke], procs)
            proc.communicate(timeout=remaining())
            setups.append(setup_s)
            raw_setups.append(raw_s)
        setup_s, raw_s, proc = start_worker(args, smoke, procs)
        setups.append(setup_s)
        raw_setups.append(raw_s)
        out, _ = proc.communicate(timeout=remaining())
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"the {args.workload} worker exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    info = report.pop("info")
    info["setup_samples_s"] = setups
    info["raw_setup_samples_s"] = raw_setups
    info["run_wall_s"] = perf_counter() - started
    if not args.trace:
        report["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return report, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload and check, small slice")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "congrlab" / "__init__.py").is_file():
        print(f"error: no congrlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required without --smoke")
    RESULTS.mkdir(exist_ok=True)

    try:
        return smoke(args) if args.smoke else measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def smoke(args):
    ok = True
    for workload in WORKLOADS:
        for traced in (0, 1):
            run = argparse.Namespace(**{**vars(args), "workload": workload, "trace": traced})
            t0 = perf_counter()
            report, info = run_workload(run)
            ok &= report["correct"]
            print(f"{workload} trace={traced}: correct={report['correct']} "
                  f"attempted={report['attempted']} failed={report['failed']} {info['failures']} "
                  f"({perf_counter() - t0:.1f} s) {info['problems'][:3]}")
    return 0 if ok else 1


def measure(args):
    report, info = run_workload(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({**report, "info": info}, indent=1) + "\n")
    loop_min, loop_med, loop_max = (x * 1000 for x in info["loop_s"])
    print(f"# {args.workload}: {info['rounds']} round(s), {info['samples']} timed samples, "
          f"tail percentile {info['tail_percentile']}, raw {info['raw_ops_per_s']:.4g} ops/s, "
          f"speed loop {loop_min:.3f}/{loop_med:.3f}/{loop_max:.3f} ms in {info['ticks']} ticks, "
          f"failures {info['failures']}, problems {info['problems'][:3]}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
