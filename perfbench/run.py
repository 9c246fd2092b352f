"""tlammcox benchmark: three workloads, end-to-end metrics, and a traced
run for per-layer metrics.

    python3 perfbench/run.py --workload table1_serial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one at a time
    python3 perfbench/run.py --workload all --smoke    # tiny shapes, seconds long

Run from the repository root; the package is imported from ./src. The
default seed is 1; seed 9001 is held out for validating later claims.
Each run prints report lines (environment, every named metric with unit
and sample count, failed checks) and, last, one JSON line
{"correct", "attempted", "failed", "metrics"}; it exits 1 if any output
check failed. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("table1_serial", "cv_tune", "cohort_cli")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
SETUP_REPEATS = 7
SETUP_SEED = 7   # every set-up probe fits the same dataset of the workload's shape
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# seed-7 dataset (n=300, p=2400, s=10) at c=0.65 with SCAD: exact call
# counts per fit; any change to them is a change to the solver's work
CALIBRATION = {
    "tlamm": {"cox.nll": 73, "cox.vg": 38, "solver.line_search": 36, "steps": (6, 30)},
    "ilamm": {"cox.nll": 141, "cox.vg": 78, "solver.line_search": 69},
}


class Context:
    def __init__(self, seed, seconds, smoke, out_dir):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.out_dir = out_dir
        self.tracer = None
        self.probe = None
        self.checks = None


def nproc():
    return len(os.sched_getaffinity(0))


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "nproc": nproc(), "numpy": np.__version__,
            "python": platform.python_version()}


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure_setup(workload, ctx, repeats):
    """Median over fresh interpreters of import + first cold fit."""
    n, p = workload.cold_fit_shape()
    totals = []
    for k in range(repeats):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "cold_start.py"), str(n), str(p),
             str(SETUP_SEED)],
            capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        ctx.checks.record(f"cold fit {k}", [] if probe["finite"] else ["beta not finite"])
        totals.append(probe["import_s"] + probe["fit_s"])
    return statistics.median(totals), len(totals)


def calibrate(checks):
    """Traced seed-7 fits: exact counts, repeatability, and tracing overhead
    as the median over alternating pairs of traced minus untraced time."""
    from instrument import install_tracer
    from tlammcox import data, penalties, solver
    ds, _ = data.simulate_dataset(data.SimulationConfig(n=300, p=2400, s=10, seed=7))
    spec = penalties.scad(0.65 * math.sqrt(math.log(2400) / 300))
    overhead = 0.0
    for algo, expected in CALIBRATION.items():
        getattr(solver, algo)(ds, spec)
        diffs, seen = [], []
        for _ in range(5):
            t0 = perf_counter()
            getattr(solver, algo)(ds, spec)
            plain = perf_counter() - t0
            tr = install_tracer()
            try:
                t0 = perf_counter()
                fit = getattr(solver, algo)(ds, spec)
                diffs.append(perf_counter() - t0 - plain)
            finally:
                tr.uninstall()
            counts = Counter(tr.names[i] for i in tr.name)
            seen.append({k: counts[k] for k in expected if k != "steps"}
                        | {"steps": tuple(fit.iterations)})
        problems = []
        if any(s != seen[0] for s in seen):
            problems.append(f"traced counts differ between runs: {seen}")
        for key, want in expected.items():
            if seen[0][key] != want:
                problems.append(f"{key} {seen[0][key]} != {want}")
        checks.record(f"seed-7 {algo}-scad counts {seen[0]}", problems)
        overhead += statistics.median(diffs)
    return overhead * 1e3


def make_workload(name, ctx):
    import workloads as w
    return {"table1_serial": w.Table1, "cv_tune": w.CvTune,
            "cohort_cli": w.CohortCli}[name](ctx)


def measure(workload, ctx):
    """Run whole cycles of the workload's inputs, at least one, until the
    next cycle would overrun --seconds. Every run thus measures the same
    inputs, however fast the machine or the code."""
    t_end = perf_counter() + ctx.seconds
    i = 0
    while True:
        t0 = perf_counter()
        for _ in range(workload.cycle):
            workload.op(i)
            i += 1
        now = perf_counter()
        if ctx.smoke or now + (now - t0) > t_end:
            return


def run_one(args):
    from instrument import COMMON, SPECIFIC, FitProbe, install_tracer, layer_metrics
    from workloads import Checks, Table1

    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=args.workload + "-", dir=os.path.join(HERE, "out"))
    ctx = Context(args.seed, args.seconds, args.smoke, out_dir)
    ctx.checks = Checks()
    workload = make_workload(args.workload, ctx)
    workload.prepare()
    metrics, report = {}, {}
    try:
        if not args.trace:
            setup, setup_n = measure_setup(workload, ctx, 1 if args.smoke else SETUP_REPEATS)
            report["setup_s"] = (setup, "s", setup_n)
        ctx.probe = FitProbe().install()
        try:
            workload.warm_up()
        finally:
            ctx.probe.uninstall()
        ctx.checks.record("warm-up fits", ctx.probe.failures)
        if args.trace:
            report["trace.overhead_ms"] = (calibrate(ctx.checks), "ms", 10)
            ctx.tracer = install_tracer()
        ctx.probe = FitProbe(ctx.tracer).install()
        try:
            measure(workload, ctx)
            if args.trace:
                common, specific = layer_metrics(ctx.tracer, max(workload.units, 1))
                if isinstance(workload, Table1) and nproc() > 1 and workload.seeds:
                    report.update(workload.pool_pass(threads=min(2, nproc())))
            workload_report = workload.finish()
        finally:
            ctx.probe.uninstall()
            if ctx.tracer is not None:
                ctx.tracer.uninstall()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace:
        for name, (value, samples) in common.items():
            report[name] = (value, COMMON[name], samples)
        for name, (value, samples) in specific.items():
            report[name] = (value, SPECIFIC[name], samples)
        for name in COMMON:
            metrics[name] = report[name]
        metrics["trace.overhead_ms"] = report["trace.overhead_ms"]
    else:
        report.update(workload_report)
        report["ops_per_s"] = (workload.ops_per_s(), "1/s", workload.units)
        report["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
        for name in END_TO_END:
            metrics[name] = report[name]
    checks = ctx.checks
    report["fail_ratio"] = (checks.failed / max(checks.attempted, 1), "ratio",
                            checks.attempted)
    for name, (value, unit, samples) in report.items():
        print(f"metric {args.workload} {name} = {value!r} {unit} (n={samples})")
    for message in checks.messages:
        print(f"FAILED {args.workload} {message}")
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": checks.attempted, "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own interpreter, one after another, so peak
    memory and set-up are measured per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900,
                             cwd=ROOT)
        lines = out.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAILED {name}: no result line (exit {out.returncode})")
            total["correct"] = False
            code = 1
            continue
        code = code or out.returncode
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(total))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed; {HELD_OUT_SEED} is held out for "
                             "validating claims")
    parser.add_argument("--seconds", type=int, default=30,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes and one operation per workload")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "tlammcox", "__init__.py")):
        print(f"tlammcox sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import tlammcox
    if not os.path.abspath(tlammcox.__file__).startswith(SRC + os.sep):
        print(f"imported tlammcox from {tlammcox.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
