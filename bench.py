"""Before-and-after benchmark files: run perfbench on this checkout, or in
alternation with another checkout, and write each tree's runs to a
BENCH_<label>.json; then compare two such files.

    python bench.py --label cv_path --workload cv_tune --pairs 10 --against ../parent
    python bench.py --compare BENCH_baseline.json BENCH_cv_path.json

`--compare` prints, per end-to-end metric, whether B's median is within
the metric's bound of A's (the verdict a change that claims no gain
needs), and whether B's gain over A meets the claim rule: at least 10
pairs, B better in at least 9 of every 10, and the medians apart by more
than A's interquartile range. It refuses two files whose workload, smoke
flag or run seconds differ.

The workloads, the run length T and each end-to-end metric's direction
and bound are read from BENCHMARK.json. Each run is `python
perfbench/run.py --workload W --seed 1 --seconds T --trace 0` in the
tree's own root, so each tree measures its own sources.
With --against, each pair runs both trees, the first one first in even
pairs and the other first in odd pairs, so slow drift on the machine
falls on both alike; the other tree's runs go to BENCH_baseline.json.
The BENCH files are written to the current directory. A run records the
`# env` line, every `metric` line, the result JSON, its exit code, and
the wall and CPU seconds of the subprocess and its children. A file
names its tree by a digest of src/tlammcox/*.py, so two files measured on
one source show the same digest. Only files made on one machine in one
session compare.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
BASELINE = "baseline"     # the label of the --against tree's runs
SEED = 1                  # perfbench's seed in every run
MIN_PAIRS = 10            # fewer pairs than this never meet the claim rule


def source_digest(tree):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(tree, "src", "tlammcox", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def run_once(tree, args):
    """One perfbench run in `tree`: its parsed output and costs."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(SEED), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, timeout=1800)
    wall = perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    run = {"exit_code": out.returncode, "wall_s": wall,
           "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
           "env": None, "metrics": {}, "failed": [], "result": None}
    for line in out.stdout.splitlines():
        if line.startswith("# env "):
            run["env"] = json.loads(line[len("# env "):])
        elif line.startswith("metric "):
            # metric WORKLOAD NAME = VALUE UNIT (n=N)
            _, _, name, _, value, unit, samples = line.split()
            run["metrics"][name] = {"value": float(value), "unit": unit,
                                    "n": int(samples[len("(n="):-1])}
        elif line.startswith("FAILED "):
            run["failed"].append(line)
        elif line.startswith("{"):
            run["result"] = json.loads(line)
    return run


def summary(runs):
    """Per metric, the median and quartiles over runs."""
    names = sorted({name for run in runs for name in run["metrics"]})
    out = {}
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                       if len(values) > 1 else values * 3)
        out[name] = {"median": med, "q1": q1, "q3": q3, "runs": len(values)}
    return out


def write_bench(path, label, tree, args, runs, paired_with):
    doc = {"label": label, "source_sha256": source_digest(tree),
           "workload": args.workload, "seed": SEED, "seconds": BENCHMARK["run_seconds"],
           "smoke": args.smoke, "paired_with": paired_with,
           "runs": runs, "summary": summary(runs)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def measure(args):
    trees = [(args.label, ROOT)]
    if args.against:
        trees.append((BASELINE, os.path.abspath(args.against)))
    runs = {label: [] for label, _ in trees}
    for pair in range(args.pairs):
        for order, (label, tree) in enumerate(trees[::-1] if pair % 2 else trees):
            run = run_once(tree, args)
            run["pair"], run["order"] = pair, order
            runs[label].append(run)
            ops = run["metrics"].get("ops_per_s", {}).get("value")
            print(f"pair {pair} {label}: ops_per_s {ops} exit {run['exit_code']}",
                  file=sys.stderr, flush=True)
    for label, tree in trees:
        other = [name for name, _ in trees if name != label]
        write_bench(f"BENCH_{label}.json", label, tree, args,
                    runs[label], other[0] if other else None)
    return 0 if all(run["exit_code"] == 0 for rs in runs.values() for run in rs) else 1


def compare(path_a, path_b):
    """Each end-to-end metric: medians, B/A, A's quartile spread, in how
    many runs paired by index B is better, whether B's median is worse
    than A's by no more than the metric's bound, and whether B's gain
    meets the claim rule: at least MIN_PAIRS pairs, B better in at least 9
    of every 10 (ties count for neither side), and the medians apart by
    more than A's quartile spread."""
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    a, b = docs
    differ = [key for key in ("workload", "smoke", "seconds") if a[key] != b[key]]
    if differ:
        print(f"cannot compare: the files differ in {', '.join(differ)}", file=sys.stderr)
        return 1
    print(f"A {a['label']} ({a['source_sha256'][:12]})  B {b['label']} "
          f"({b['source_sha256'][:12]})  workload {a['workload']}")
    for metric in BENCHMARK["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        if name not in a["summary"] or name not in b["summary"]:
            continue
        sa, sb = a["summary"][name], b["summary"][name]
        higher = metric["better"] == "higher"
        pairs = [(ra["metrics"][name]["value"], rb["metrics"][name]["value"])
                 for ra, rb in zip(a["runs"], b["runs"])
                 if name in ra["metrics"] and name in rb["metrics"]]
        wins = sum((vb > va) if higher else (vb < va) for va, vb in pairs)
        ratio = sb["median"] / sa["median"] if sa["median"] else float("nan")
        iqr = sa["q3"] - sa["q1"]
        gain = sb["median"] - sa["median"] if higher else sa["median"] - sb["median"]
        met = len(pairs) >= MIN_PAIRS and 10 * wins >= 9 * len(pairs) and gain > iqr
        within = gain >= -bound * abs(sa["median"])
        print(f"{name}: A {sa['median']:.4g} B {sb['median']:.4g} B/A {ratio:.3f} "
              f"A IQR {iqr:.3g} B better in {wins} of {len(pairs)} pairs, "
              f"{'within' if within else 'outside'} the {bound:g} bound, "
              f"claim {'met' if met else 'not met'}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="names the file BENCH_<label>.json")
    parser.add_argument("--workload", default="cv_tune",
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--pairs", type=int, default=10, help="runs per tree")
    parser.add_argument("--smoke", action="store_true", help="perfbench's tiny shapes")
    parser.add_argument("--against", help="another checkout to alternate runs with")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.label:
        parser.error("--label is required unless --compare is given")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.against and args.label == BASELINE:
        parser.error(f"--label {BASELINE} names the --against tree's file")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
