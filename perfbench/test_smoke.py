"""Smoke test of the benchmark: every workload at tiny shapes, untraced and
traced, must pass its output checks and emit every metric with a unit.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# report lines each workload must add, untraced (0) and traced (1), to the
# metrics BENCHMARK.json declares for its result line
NAMED = {
    0: {"table1_serial": ["units_per_s", "fit_s_p50", "fit_s_p90", "l2_tlamm_p50",
                          "fp_tlamm_p50"],
        "cv_tune": ["cv_s", "fit_s_p50", "fit_s_p90"],
        "cohort_cli": ["cli_simulate_s", "cli_fit_s"]},
    1: {"table1_serial": [
            "cox.hessian.us", "cox.fit_restricted.s", "evaluation.unit.self_s",
            "evaluation.pool.fit_inflation", "evaluation.pool.busy_share"],
        "cv_tune": ["evaluation.cv.score_s"],
        "cohort_cli": [
            "cox.gradient.us", "evaluation.concordance.s", "evaluation.concordance.mb",
            "data.save_csv.s", "data.load_csv.s", "data.csv.mb", "cli.fit.load_s",
            "cli.fit.solve_s", "cli.fit.write_s", "cli.fit.summary_eval_s",
            "cli.self.s"]},
}


def run_smoke(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    report = {}
    for line in lines:
        if line.startswith("metric "):
            _, workload, name, _, value, unit, samples = line.split()
            report[workload, name] = (float(value), unit, samples)
    return json.loads(lines[-1]), report


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["per_layer" if trace else "end_to_end"]
    result, report = run_smoke(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in declared:
            entry = result["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"])
        for name in ["fail_ratio"] + NAMED[trace][workload]:
            value, unit, samples = report[workload, name]
            assert math.isfinite(value) and unit and samples.startswith("(n=")
