import json
import math

import numpy as np
import pytest

from tlammcox import CoxObjective, load_csv, omega
from tlammcox.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def sim_config(seed=42, n=60, p=8, s=3):
    return {"n": n, "p": p, "s": s,
            "signal": {"kind": "constant", "value": 0.8},
            "design": {"kind": "independent"},
            "censoring": [2, 3], "seed": seed}


@pytest.fixture
def sim_out(tmp_path):
    cfg = write_config(tmp_path, "sim.json", sim_config())
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_simulate_outputs_and_determinism(tmp_path, sim_out):
    csv = sim_out / "dataset.csv"
    truth = sim_out / "dataset.truth.json"
    assert csv.exists() and truth.exists()
    assert len(csv.read_text().strip().splitlines()) == 61   # header + n
    cfg = write_config(tmp_path, "sim2.json", sim_config())
    out2 = tmp_path / "sim2"
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert csv.read_bytes() == (out2 / "dataset.csv").read_bytes()
    payload = json.loads(truth.read_text())
    assert payload["seed"] == 42 and len(payload["true_beta"]) == 8


def test_fit_outputs_with_truth_metrics(tmp_path, sim_out):
    cfg = write_config(tmp_path, "fit.json", {
        "data": {"csv": str(sim_out / "dataset.csv")},
        "penalty": {"kind": "scad", "c": 0.65}})
    out = tmp_path / "fit"
    assert main(["fit", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] == [True, True]
    assert summary["status"] == "converged"
    assert "l2_error" in summary and "selection" in summary
    beta_lines = (out / "beta.csv").read_text().strip().splitlines()
    assert beta_lines[0] == "index,value"
    assert len(beta_lines) == summary["support_size"] + 1
    trace_lines = (out / "trace.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "stage,iter,F,omega,phi,step_norm,support"


def test_fit_kkt_zero_gives_empty_beta(tmp_path, sim_out):
    ds = load_csv(sim_out / "dataset.csv")
    g0 = CoxObjective(ds).gradient(np.zeros(ds.p))
    lam = 1.05 * float(np.abs(g0).max())
    assert omega(g0, np.zeros(ds.p), lam) == 0.0
    cfg = write_config(tmp_path, "kkt.json", {
        "data": {"csv": str(sim_out / "dataset.csv")},
        "penalty": {"kind": "lasso", "lambda": lam}})
    out = tmp_path / "kkt"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "beta.csv").read_text().strip() == "index,value"


def test_fit_ilamm_algorithm(tmp_path, sim_out):
    cfg = write_config(tmp_path, "il.json", {
        "data": {"csv": str(sim_out / "dataset.csv")},
        "algorithm": "ilamm",
        "penalty": {"kind": "mcp", "c": 0.8, "gamma": 3.0}})
    out = tmp_path / "il"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["algorithm"] == "ilamm"


def test_cv_outputs(tmp_path):
    cfg = write_config(tmp_path, "cv.json", {
        "data": {"simulate": sim_config(seed=7, n=90, p=10)},
        "penalty_kind": "lasso",
        "c_grid": [0.4], "folds": 3, "seed": 5})
    out = tmp_path / "cv"
    assert main(["cv", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "cv.csv").read_text().strip().splitlines()
    assert lines[0] == "c,criterion" and len(lines) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["chosen_c"] == 0.4
    assert summary["chosen_lambda"] == pytest.approx(
        0.4 * math.sqrt(math.log(10) / 90))
    assert summary["fold_statuses"] == [{"c": 0.4, "statuses": ["converged"] * 3}]
    out2 = tmp_path / "cv2"
    assert main(["cv", "--config", cfg, "--out", str(out2)]) == 0
    assert (out / "cv.csv").read_bytes() == (out2 / "cv.csv").read_bytes()


def test_cv_criterion_finite(tmp_path):
    cfg = write_config(tmp_path, "cvg.json", {
        "data": {"simulate": sim_config(seed=8, n=120, p=12)},
        "penalty_kind": "scad", "c_grid": [0.3, 0.6, 0.9], "seed": 2})
    out = tmp_path / "cvg"
    assert main(["cv", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "cv.csv").read_text().strip().splitlines()[1:]
    assert all(np.isfinite(float(r.split(",")[1])) for r in rows)


def test_experiment_single_cell_and_determinism(tmp_path):
    payload = {"grid": {"n": [60], "p": [8], "methods": ["tlamm-scad"],
                        "reps": 1, "s": 3, "c_by_penalty": {"scad": 0.6},
                        "seed": 3}}
    cfg = write_config(tmp_path, "exp.json", payload)
    out = tmp_path / "exp"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("design,penalty,n,p,rep,l2")
    out2 = tmp_path / "exp2"
    assert main(["experiment", "--config", cfg, "--out", str(out2)]) == 0
    strip = lambda p: [",".join(r.split(",")[:-1])
                       for r in (p / "results.csv").read_text().strip().splitlines()]
    assert strip(out) == strip(out2)


def test_experiment_threads_flag_same_rows(tmp_path):
    payload = {"grid": {"n": [60], "p": [8], "methods": ["oracle", "tlamm-mcp"],
                        "reps": 2, "s": 3, "c_by_penalty": {"mcp": 0.7},
                        "seed": 4}}
    cfg = write_config(tmp_path, "expt.json", payload)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["experiment", "--config", cfg, "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["experiment", "--config", cfg, "--out", str(out2),
                 "--threads", "2"]) == 0
    strip = lambda p: [",".join(r.split(",")[:-1])
                       for r in (p / "results.csv").read_text().strip().splitlines()]
    assert strip(out1) == strip(out2)


def test_experiment_partial_failure_exit_5(tmp_path):
    payload = {"grid": {"n": [40], "p": [5], "methods": ["tlamm-scad"],
                        "reps": 2, "s": 2, "c_by_penalty": {"scad": 0.6},
                        "censoring": [1e-9, 2e-9], "seed": 5}}
    cfg = write_config(tmp_path, "fail.json", payload)
    out = tmp_path / "fail"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 5
    # rows are flushed per rep, so the partial CSV is still well-formed
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["failures"]) == 2


def test_diagnose_outputs(tmp_path, sim_out):
    cfg = write_config(tmp_path, "diag.json", {
        "data": {"csv": str(sim_out / "dataset.csv")},
        "m": 2, "r": 0.3, "n_beta_samples": 2, "seed": 1})
    out = tmp_path / "diag"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "lse.json").read_text())
    assert set(report) == {"m", "r", "rho_minus", "rho_plus", "probe_count",
                           "beta_samples"}
    assert report["rho_minus"] <= report["rho_plus"]


def test_exit_code_config_error(tmp_path):
    cfg = write_config(tmp_path, "bad.json", dict(sim_config(), bogus=1))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("command, payload, key", [
    ("simulate", dict(sim_config(), n="abc"), "config.n"),
    ("fit", {"data": {"simulate": sim_config()}, "solver": {"phi0": "fast"},
             "penalty": {"kind": "scad", "c": 0.65}}, "solver.phi0"),
    ("fit", {"data": {"simulate": sim_config()},
             "penalty": {"kind": "scad", "c": None}}, "penalty.c"),
    ("experiment", {"grid": {"n": 300, "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": 0.6}}}, "grid.n"),
    # integer keys: a fractional number or a boolean is not truncated
    ("simulate", dict(sim_config(), n=60.9), "config.n"),
    ("simulate", dict(sim_config(), p=True), "config.p"),
    ("simulate", dict(sim_config(), seed=1.5), "config.seed"),
    ("fit", {"data": {"simulate": sim_config()}, "solver": {"max_iter_stage": 10.5},
             "penalty": {"kind": "scad", "c": 0.65}}, "solver.max_iter_stage"),
    ("cv", {"data": {"simulate": sim_config()}, "penalty_kind": "lasso",
            "folds": 2.5}, "config.folds"),
    ("experiment", {"grid": {"n": [300.5], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": 0.6}}}, "grid.n"),
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1.5, "c_by_penalty": {"scad": 0.6}}}, "grid.reps"),
    ("diagnose", {"data": {"simulate": sim_config()}, "m": 2.5, "r": 0.3},
     "config.m"),
    # float keys: a boolean is not read as 0.0 or 1.0
    ("fit", {"data": {"simulate": sim_config()},
             "penalty": {"kind": "scad", "c": True}}, "penalty.c"),
    ("fit", {"data": {"simulate": sim_config()}, "solver": {"eps1": True},
             "penalty": {"kind": "scad", "c": 0.65}}, "solver.eps1"),
    ("fit", {"data": {"simulate": sim_config()},
             "penalty": {"kind": "mcp", "c": 0.8, "gamma": False}}, "penalty.gamma"),
    ("simulate", dict(sim_config(), censoring=[2, True]), "config.censoring"),
    ("simulate", dict(sim_config(), design={"kind": "autoregressive", "rho": True}),
     "design.rho"),
    ("cv", {"data": {"simulate": sim_config()}, "penalty_kind": "lasso",
            "c_grid": [0.5, True]}, "config.c_grid"),
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": True}}},
     "grid.c_by_penalty"),
    ("diagnose", {"data": {"simulate": sim_config()}, "m": 2, "r": True},
     "config.r"),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, command, payload, key):
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_integral_float_config_value_accepted(tmp_path):
    cfg = write_config(tmp_path, "sim.json", dict(sim_config(), n=60.0))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "dataset.csv").read_text().strip().splitlines()) == 61


@pytest.mark.parametrize("kind, shape_key, value", [
    ("mcp", "a", 9.0), ("scad", "gamma", 3.0),
    ("lasso", "a", 3.7), ("lasso", "gamma", 3.0),
])
@pytest.mark.parametrize("command", ["fit", "cv"])
def test_foreign_penalty_shape_key_exits_2(tmp_path, capsys, command, kind,
                                           shape_key, value):
    data = {"simulate": sim_config()}
    if command == "fit":
        payload = {"data": data, "penalty": {"kind": kind, "c": 0.8, shape_key: value}}
        key = f"penalty.{shape_key}"
    else:
        payload = {"data": data, "penalty_kind": kind, "c_grid": [0.5],
                   shape_key: value}
        key = f"config.{shape_key}"
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_exit_code_data_error(tmp_path):
    cfg = write_config(tmp_path, "missing.json", {
        "data": {"csv": str(tmp_path / "nope.csv")},
        "penalty": {"kind": "lasso", "lambda": 0.1}})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "x")]) == 3


def test_exit_code_solver_failure(tmp_path, sim_out):
    cfg = write_config(tmp_path, "sf.json", {
        "data": {"csv": str(sim_out / "dataset.csv")},
        "penalty": {"kind": "lasso", "lambda": 0.01},
        "solver": {"phi0": 0.1, "max_phi": 0.15}})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "x")]) == 4


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path, "so.json", sim_config(seed=1))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a), "--seed", "9"]) == 0
    cfg2 = write_config(tmp_path, "so2.json", sim_config(seed=9))
    assert main(["simulate", "--config", cfg2, "--out", str(b)]) == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


def test_simulate_benchmark_scale_under_10s(tmp_path):
    cfg = write_config(tmp_path, "big.json", sim_config(seed=6, n=300, p=2400, s=10))
    out = tmp_path / "big"
    import time
    t0 = time.perf_counter()
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 10
    assert len((out / "dataset.csv").read_text().strip().splitlines()) == 301


def test_experiment_table1_csv_written(tmp_path):
    payload = {"grid": {"n": [300], "p": [2400],
                        "methods": ["oracle", "lasso", "tlamm-mcp", "tlamm-scad",
                                    "ilamm-mcp", "ilamm-scad"],
                        "reps": 1, "seed": 6,
                        "c_by_penalty": {"lasso": 0.45, "scad": 0.65, "mcp": 0.85}}}
    cfg = write_config(tmp_path, "t1.json", payload)
    out = tmp_path / "t1"
    assert main(["experiment", "--config", cfg, "--out", str(out),
                 "--threads", "2"]) == 0
    lines = (out / "table1.csv").read_text().strip().splitlines()
    assert lines[0] == "method,l2,tp,fp" and len(lines) == 7


def test_experiment_tune_block(tmp_path):
    payload = {"grid": {"n": [80], "p": [10], "methods": ["tlamm-scad"],
                        "reps": 1, "s": 3, "seed": 7,
                        "tune": {"n": 60, "p": 8, "seed": 3}}}
    cfg = write_config(tmp_path, "tune.json", payload)
    out = tmp_path / "tune"
    assert main(["experiment", "--config", cfg, "--out", str(out),
                 "--threads", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "scad" in summary["c_by_penalty"]
    assert 0.05 <= summary["c_by_penalty"]["scad"] <= 1.0
