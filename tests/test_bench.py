"""bench.py at perfbench's smoke shapes: the files' keys, not timings."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_KEYS = {"pair", "order", "exit_code", "wall_s", "cpu_s", "env", "metrics", "failed", "result"}


def test_bench_writes_paired_files_that_compare(tmp_path):
    bench = [sys.executable, os.path.join(ROOT, "bench.py")]
    subprocess.run(bench + ["--label", "after", "--against", ROOT, "--workload", "cv_tune",
                            "--pairs", "1", "--smoke"],
                   cwd=tmp_path, check=True, timeout=300)
    docs = {}
    for label, other in (("after", "baseline"), ("baseline", "after")):
        docs[label] = doc = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        assert doc["label"] == label and doc["paired_with"] == other
        assert doc["workload"] == "cv_tune" and doc["smoke"] is True
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
