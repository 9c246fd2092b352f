"""bench.py at perfbench's smoke shapes: the files' keys, not timings."""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]
RUN_KEYS = {"pair", "order", "exit_code", "wall_s", "cpu_s", "env", "metrics", "failed", "result"}


def test_bench_writes_paired_files_that_compare(tmp_path):
    # each tree runs from a fresh temporary copy, which is removed after
    # the runs: nothing is written into the measured trees
    parent, scratch = tmp_path / "parent", tmp_path / "tmp"
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), parent / name, ignore=skip)
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), parent)
    scratch.mkdir()
    bench = [sys.executable, os.path.join(ROOT, "bench.py")]
    subprocess.run(bench + ["--label", "after", "--against", str(parent),
                            "--workload", "cv_tune", "--pairs", "1", "--smoke"],
                   cwd=tmp_path, env={**os.environ, "TMPDIR": str(scratch)},
                   check=True, timeout=300)
    assert not list(scratch.iterdir())
    assert not list(parent.rglob("__pycache__")) and not (parent / "perfbench" / "out").exists()
    docs = {}
    for label, other, tree in (("after", "baseline", ROOT), ("baseline", "after", str(parent))):
        docs[label] = doc = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        assert doc["label"] == label and doc["paired_with"] == other
        assert doc["tree"] == tree
        assert doc["workload"] == "cv_tune" and doc["smoke"] is True
        assert doc["seconds"] == RUN_SECONDS
        [run] = doc["runs"]
        assert set(run) == RUN_KEYS and run["exit_code"] == 0 and not run["failed"]
        assert run["env"]["nproc"] >= 1 and run["result"]["correct"] is True
        assert run["wall_s"] > 0 and run["cpu_s"] > 0
        for name in ("setup_s", "ops_per_s", "peak_rss_mb", "fail_ratio"):
            assert set(run["metrics"][name]) == {"value", "unit", "n"}
            assert set(doc["summary"][name]) == {"median", "q1", "q3", "runs"}
    assert docs["after"]["source_sha256"] == docs["baseline"]["source_sha256"]
    out = subprocess.run(bench + ["--compare", str(tmp_path / "BENCH_baseline.json"),
                                  str(tmp_path / "BENCH_after.json")],
                         check=True, capture_output=True, text=True, timeout=60)
    lines = out.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[1:]] == ["setup_s", "ops_per_s", "peak_rss_mb"]
    assert all("in 1 of 1 pairs" in line or "in 0 of 1 pairs" in line for line in lines[1:])
    assert all(" bound, claim " in line for line in lines[1:])


def test_compare_states_the_claim_verdict():
    # the committed cv_path files: ops_per_s won 10 of 10 pairs, 0.631 ->
    # 1.189 against an A IQR of 0.084; setup_s won only 6 of 10
    out = subprocess.run([sys.executable, os.path.join(ROOT, "bench.py"), "--compare",
                          os.path.join(ROOT, "BENCH_baseline.json"),
                          os.path.join(ROOT, "BENCH_cv_path.json")],
                         check=True, capture_output=True, text=True, timeout=60)
    verdicts = {line.split(":")[0]: line.rsplit(", ", 1)[1]
                for line in out.stdout.splitlines()[1:]}
    assert verdicts["ops_per_s"] == "claim met"
    assert verdicts["setup_s"] == "claim not met"
    assert "10 of 10 pairs" in out.stdout and "6 of 10 pairs" in out.stdout


def _bench_file(path, label, values, **keys):
    runs = [{"metrics": {"ops_per_s": {"value": v, "unit": "1/s", "n": 1}}} for v in values]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    path.write_text(json.dumps({
        "label": label, "source_sha256": label * 12, "workload": "cv_tune",
        "smoke": False, "seconds": RUN_SECONDS, "runs": runs,
        "summary": {"ops_per_s": {"median": med, "q1": q1, "q3": q3, "runs": len(values)}},
        **keys}))
    return str(path)


def test_compare_needs_ten_pairs_to_meet_the_claim(tmp_path):
    # B is better in every pair and by far more than A's spread; only the
    # number of pairs differs between the two comparisons
    for pairs, verdict in ((3, "claim not met"), (10, "claim met")):
        a = _bench_file(tmp_path / f"a{pairs}.json", "a", [1.0 + 0.01 * k for k in range(pairs)])
        b = _bench_file(tmp_path / f"b{pairs}.json", "b", [2.0 + 0.01 * k for k in range(pairs)])
        out = subprocess.run([sys.executable, os.path.join(ROOT, "bench.py"), "--compare", a, b],
                             check=True, capture_output=True, text=True, timeout=60)
        [line] = out.stdout.splitlines()[1:]
        assert f"B better in {pairs} of {pairs} pairs" in line
        assert line.endswith(f", {verdict}")


@pytest.mark.parametrize("key, value", [("workload", "table1_serial"), ("smoke", True),
                                        ("seconds", 20)])
def test_compare_refuses_files_of_different_runs(tmp_path, key, value):
    a = _bench_file(tmp_path / "a.json", "a", [1.0, 1.1])
    b = _bench_file(tmp_path / "b.json", "b", [1.0, 1.1], **{key: value})
    out = subprocess.run([sys.executable, os.path.join(ROOT, "bench.py"), "--compare", a, b],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and not out.stdout
    assert f"the files differ in {key}" in out.stderr


def test_compare_states_the_bound_verdict(tmp_path):
    # ops_per_s is higher-better with a 0.25 bound: a median of 0.8 against
    # 1.0 is within it, 0.7 is not
    a = _bench_file(tmp_path / "a.json", "a", [0.99, 1.0, 1.01])
    for median, verdict in ((0.8, "within"), (0.7, "outside")):
        b = _bench_file(tmp_path / f"b{median}.json", "b", [median - 0.01, median, median + 0.01])
        out = subprocess.run([sys.executable, os.path.join(ROOT, "bench.py"), "--compare", a, b],
                             check=True, capture_output=True, text=True, timeout=60)
        [line] = out.stdout.splitlines()[1:]
        assert f", {verdict} the 0.25 bound, claim not met" in line
