import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from tlammcox import CoxObjective, DataError, SimulationConfig, cli, evaluation, load_csv, omega
from tlammcox.cli import main
from tlammcox.data import ConstantSignal
from tlammcox.penalties import PenaltySpec, shift_gradient, value


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def read_json(path):
    """The JSON file at path, parsed strictly: NaN and Infinity, which
    json.loads accepts by default, are errors."""
    return json.loads(path.read_text(), parse_constant=_not_json)


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
    summary = read_json(out / "summary.json")
    assert summary["converged"] == [True, True]
    assert summary["status"] == "converged"
    assert "l2_error" in summary and "selection" in summary
    beta_lines = (out / "beta.csv").read_text().strip().splitlines()
    assert beta_lines[0] == "index,value"
    assert len(beta_lines) == summary["support_size"] + 1
    trace_lines = (out / "trace.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "stage,iter,F,omega,phi,step_norm,support"
    # without a truth sidecar the same fit has no truth metrics
    (sim_out / "dataset.truth.json").unlink()
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "bare")]) == 0
    bare = read_json(tmp_path / "bare" / "summary.json")
    assert sorted(bare) == sorted(set(summary) - {"l2_error", "selection"})


def test_fit_summary_takes_one_eta_product(tmp_path, sim_out, monkeypatch):
    """The summary's final value and omega come from one sweep at the fitted
    beta and carry the bytes two separate sweeps give."""
    products, fits = [], []
    real_eta, real_tlamm = CoxObjective._eta, cli.tlamm

    def counted(self, beta):
        products.append(self)
        return real_eta(self, beta)

    def fit_then_count(*args):
        fits.append(real_tlamm(*args))
        products.clear()
        return fits[-1]

    monkeypatch.setattr(CoxObjective, "_eta", counted)
    monkeypatch.setattr(cli, "tlamm", fit_then_count)
    cfg = write_config(tmp_path, "fit.json", {
        "data": {"csv": str(sim_out / "dataset.csv")},
        "penalty": {"kind": "scad", "c": 0.65}})
    out = tmp_path / "fit"
    assert main(["fit", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    assert len(products) == 1
    summary = read_json(out / "summary.json")
    beta = fits[0].beta
    spec = PenaltySpec("scad", summary["lambda"])
    ds = load_csv(sim_out / "dataset.csv")
    grad = CoxObjective(ds).gradient(beta) + shift_gradient(spec, beta)
    assert summary["final_objective"] == CoxObjective(ds).nll(beta) + value(spec, beta)
    assert summary["final_omega"] == omega(grad, beta, spec.lam)


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
    assert read_json(out / "summary.json")["algorithm"] == "ilamm"


def test_cv_outputs(tmp_path):
    cfg = write_config(tmp_path, "cv.json", {
        "data": {"simulate": sim_config(seed=7, n=90, p=10)},
        "penalty_kind": "lasso",
        "c_grid": [0.4], "folds": 3, "seed": 5})
    out = tmp_path / "cv"
    assert main(["cv", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "cv.csv").read_text().strip().splitlines()
    assert lines[0] == "c,criterion" and len(lines) == 2
    summary = read_json(out / "summary.json")
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
    # at p = 8 BLAS never threads; the Table-1 grid (n = 300, p = 2400, all
    # six methods) is where a threaded BLAS could reorder a reduction
    small = {"n": [60], "p": [8], "methods": ["oracle", "tlamm-mcp"], "reps": 2,
             "s": 3, "c_by_penalty": {"mcp": 0.7}, "seed": 4}
    table1 = {"n": [300], "p": [2400], "methods": list(evaluation.METHODS), "reps": 2,
              "s": 10, "c_by_penalty": {"lasso": 0.45, "scad": 0.65, "mcp": 0.85},
              "seed": 909}
    strip = lambda p: [",".join(r.split(",")[:-1])
                       for r in (p / "results.csv").read_text().strip().splitlines()]
    for name, grid in (("small", small), ("table1", table1)):
        cfg = write_config(tmp_path, f"{name}.json", {"grid": grid})
        out1, out2 = tmp_path / f"{name}-t1", tmp_path / f"{name}-t2"
        assert main(["experiment", "--config", cfg, "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["experiment", "--config", cfg, "--out", str(out2),
                     "--threads", "2"]) == 0
        assert strip(out1) == strip(out2)
        if grid is table1:
            assert len(strip(out1)) == 1 + 2 * 6
            assert (out1 / "table1.csv").read_bytes() == (out2 / "table1.csv").read_bytes()


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
    summary = read_json(out / "summary.json")
    assert len(summary["failures"]) == 2


def test_undefined_rate_is_null_in_json_and_nan_in_csv(tmp_path):
    # at p = s no coordinate is a true negative, so specificity is 0/0;
    # with a zero signal no coordinate is a true positive, so sensitivity is
    sims = {"all": {"n": 60, "p": 3, "s": 3, "seed": 1},
            "none": dict(sim_config(), signal={"kind": "constant", "value": 0.0})}
    for name, sim in sims.items():
        cfg = write_config(tmp_path, f"{name}.json", {
            "data": {"simulate": sim}, "penalty": {"kind": "scad", "c": 0.65}})
        out = tmp_path / name
        assert main(["fit", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        sel = read_json(out / "summary.json")["selection"]
        undefined = "specificity" if name == "all" else "sensitivity"
        assert sel[undefined] is None
    cfg = write_config(tmp_path, "grid.json", {"grid": {
        "n": [60], "p": [3], "s": 3, "methods": ["tlamm-scad"], "reps": 1,
        "c_by_penalty": {"scad": 0.65}}})
    out = tmp_path / "grid"
    assert main(["experiment", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    assert read_json(out / "summary.json")["cells"][0]["median"]["spec"] is None
    header, row = (out / "results.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["spec"] == "nan"


def test_diagnose_outputs(tmp_path, sim_out, capsys):
    cfg = write_config(tmp_path, "diag.json", {
        "data": {"csv": str(sim_out / "dataset.csv")},
        "m": 2, "r": 0.3, "n_beta_samples": 2, "seed": 1})
    out = tmp_path / "diag"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out / "lse.json")
    assert set(report) == {"m", "r", "rho_minus", "rho_plus", "probe_count",
                           "beta_samples"}
    assert report["rho_minus"] <= report["rho_plus"]
    # with neither beta_star nor a truth sidecar there is no point to probe
    (sim_out / "dataset.truth.json").unlink()
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "bare")]) == 2
    assert "beta_star missing" in capsys.readouterr().err
    # the correlated designs go through simulate, fit and diagnose alike
    for kind in ("autoregressive", "constant_correlation"):
        sim = dict(sim_config(seed=2, n=80, p=12), design={"kind": kind, "rho": 0.5})
        data = tmp_path / kind
        assert main(["simulate", "--config", write_config(tmp_path, f"{kind}.json", sim),
                     "--out", str(data)]) == 0
        csv = {"csv": str(data / "dataset.csv")}
        cfg = write_config(tmp_path, f"{kind}_fit.json",
                           {"data": csv, "penalty": {"kind": "scad", "c": 0.65}})
        assert main(["fit", "--config", cfg, "--out", str(data), "--threads", "1"]) == 0
        assert read_json(data / "summary.json")["status"] == "converged"
        cfg = write_config(tmp_path, f"{kind}_diag.json",
                           {"data": csv, "m": 2, "r": 0.3, "n_beta_samples": 2})
        assert main(["diagnose", "--config", cfg, "--out", str(data)]) == 0
        report = read_json(data / "lse.json")
        assert report["rho_minus"] <= report["rho_plus"]


def test_exit_code_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", dict(sim_config(), bogus=1))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    # a config path that does not exist, or whose text is not JSON
    (tmp_path / "text.json").write_text("n = 60\n")
    for path, cause in ((tmp_path / "absent.json", "cannot open config"),
                        (tmp_path / "text.json", "is not valid JSON")):
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert cause in capsys.readouterr().err


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
    # NaN, which json.load accepts, is not a valid solver setting
    ("fit", {"data": {"simulate": sim_config()}, "solver": {"phi0": float("nan")},
             "penalty": {"kind": "scad", "c": 0.65}}, "phi0"),
    # keys of removed options
    ("fit", {"data": {"simulate": sim_config()}, "solver": {"stop_mode": "omega"},
             "penalty": {"kind": "scad", "c": 0.65}}, "unknown keys ['stop_mode']"),
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": 0.6},
                             "scad_a": 3.7}}, "unknown keys ['scad_a']"),
    # the grid's censoring window is checked where the simulate block's is
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": 0.6},
                             "censoring": [1.0]}}, "censoring window"),
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": 0.6},
                             "censoring": [2, 3, 99]}}, "censoring window"),
    ("diagnose", {"data": {"simulate": sim_config()}, "m": 2, "r": 0.3,
                  "beta_star": [0.8, 0.8]},
     "beta_star has shape (2,), expected (8,) for the data's p"),
    # methods are checked before the tuning CV
    ("experiment", {"grid": {"n": [30], "p": [10], "s": 3, "methods": ["magic"],
                             "reps": 1, "tune": {"n": 40, "p": 5}}},
     "unknown method 'magic'"),
    # values of the right type that no run can use
    ("diagnose", {"data": {"simulate": sim_config()}, "m": 2, "r": -0.5},
     "radius r must be non-negative"),
    ("experiment", {"grid": {"n": [], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": 0.6}}},
     "n_values must not be empty"),
    # one check of the penalty kind, PenaltySpec's, for fit and cv alike
    ("fit", {"data": {"simulate": sim_config()},
             "penalty": {"kind": "ridge", "c": 0.65}}, "unknown penalty kind 'ridge'"),
    ("cv", {"data": {"simulate": sim_config()}, "penalty_kind": "ridge",
            "c_grid": [0.5]}, "unknown penalty kind 'ridge'"),
    # grid values are checked before results.csv is opened
    ("experiment", {"grid": {"n": [0], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": 0.6}}},
     "n and p must be positive"),
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "s": 0, "c_by_penalty": {"scad": 0.6}}},
     "support size s=0"),
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": -0.6}}},
     "lambda must be a positive real"),
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": 0.6, "ridge": 1}}},
     "unknown penalty kind 'ridge'"),
    ("diagnose", {"data": {"simulate": sim_config()}, "m": 2, "r": 0.3,
                  "n_beta_samples": -3}, "n_beta_samples must be non-negative"),
    # a null key is an absent key; a non-string path or a key of another kind is an error
    ("fit", {"data": {"csv": None}, "penalty": {"kind": "scad", "c": 0.65}},
     "data: give exactly one of csv or simulate"),
    ("fit", {"data": {"csv": 5}, "penalty": {"kind": "scad", "c": 0.65}}, "data.csv"),
    ("simulate", dict(sim_config(s=2), signal={"kind": "decaying", "values": [1, 0.5],
                                               "value": 0.8}),
     "signal: unknown keys ['value']"),
    ("simulate", dict(sim_config(s=2), signal={"kind": "constant", "values": [1, 0.5]}),
     "signal: unknown keys ['values']"),
    # the top-level seed keys are gone: --seed sets data.simulate.seed or grid.seed
    ("fit", {"data": {"simulate": sim_config()}, "penalty": {"kind": "scad", "c": 0.65},
             "seed": 3}, "unknown keys ['seed']"),
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": 0.6}}, "seed": 3},
     "unknown keys ['seed']"),
    # values no fit or draw can use; json reads 1e999 as inf, as it does Infinity
    ("fit", {"data": {"simulate": sim_config()},
             "penalty": {"kind": "scad", "c": 0.65, "a": math.inf}}, "finite a > 2"),
    ("simulate", dict(sim_config(), censoring=[2, math.inf]), "censoring window"),
    ("simulate", dict(sim_config(), censoring=[-1, 2]), "censoring window"),
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": 0.6},
                             "censoring": [2, math.inf]}}, "censoring window"),
    ("diagnose", {"data": {"simulate": sim_config()}, "m": 2, "r": math.inf},
     "radius r must be non-negative and finite"),
    ("diagnose", {"data": {"simulate": sim_config()}, "m": 2, "r": math.nan},
     "radius r must be non-negative and finite"),
    ("simulate", dict(sim_config(), signal={"kind": "constant", "value": math.inf}),
     "signal value must be finite"),
    ("diagnose", {"data": {"simulate": sim_config()}, "m": 2, "r": 0.3,
                  "beta_star": [math.nan] + [0.0] * 7}, "beta_star has non-finite entries"),
    # one seed rule at every seeded entry point; a bad grid seed fails
    # before results.csv opens
    ("cv", {"data": {"simulate": sim_config()}, "penalty_kind": "lasso",
            "c_grid": [0.5], "seed": -1}, "seed must be an unsigned 64-bit integer"),
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": {"scad": 0.6}, "seed": -2}},
     "seed must be an unsigned 64-bit integer"),
    ("diagnose", {"data": {"simulate": sim_config()}, "m": 2, "r": 0.3, "seed": -4},
     "seed must be an unsigned 64-bit integer"),
    ("cv", {"data": {"simulate": sim_config()}, "penalty_kind": "lasso",
            "c_grid": [0.5, 0.5, 1.0]}, "c_grid must not repeat a value"),
    # the curvature cap is a constant, not a setting
    ("fit", {"data": {"simulate": sim_config()}, "solver": {"max_phi": 1},
             "penalty": {"kind": "scad", "c": 0.65}}, "unknown keys ['max_phi']"),
    # an infinite gamma_u stops every line search; an infinite eps2
    # passes any omega off as converged
    ("fit", {"data": {"simulate": sim_config()}, "solver": {"gamma_u": math.inf},
             "penalty": {"kind": "scad", "c": 0.65}}, "gamma_u must be finite"),
    ("fit", {"data": {"simulate": sim_config()}, "solver": {"eps1": math.inf},
             "penalty": {"kind": "scad", "c": 0.65}}, "must be positive and finite"),
    ("fit", {"data": {"simulate": sim_config()}, "solver": {"eps2": math.inf},
             "penalty": {"kind": "scad", "c": 0.65}}, "must be positive and finite"),
    ("fit", {"data": {"simulate": sim_config()}, "algorithm": "newton",
             "penalty": {"kind": "scad", "c": 0.65}}, "unknown algorithm 'newton'"),
    # a config that is not an object, required keys left out, and a map
    # given as a list
    ("fit", [sim_config()], "config: expected an object"),
    ("simulate", {k: v for k, v in sim_config().items() if k not in ("s", "seed")},
     "config: missing keys ['s', 'seed']"),
    ("experiment", {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                             "reps": 1, "c_by_penalty": [0.6]}},
     "grid.c_by_penalty: invalid value [0.6]"),
    # a JSON string is not a number, though int() and float() would parse it
    ("simulate", dict(sim_config(), n="60"), "config.n: invalid value '60'"),
    ("simulate", dict(sim_config(), seed="1"), "config.seed: invalid value '1'"),
    ("fit", {"data": {"simulate": sim_config()}, "penalty": {"kind": "scad", "c": "0.65"}},
     "penalty.c: invalid value '0.65'"),
    ("fit", {"data": {"simulate": sim_config()}, "solver": {"eps2": "1e-3"},
             "penalty": {"kind": "scad", "c": 0.65}}, "solver.eps2: invalid value '1e-3'"),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, command, payload, key):
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "x" / "results.csv").exists()


def test_null_rho_of_independent_design_is_absent(tmp_path):
    outputs = []
    for name, design in (("omit", {"kind": "independent"}),
                         ("null", {"kind": "independent", "rho": None})):
        cfg = write_config(tmp_path, f"{name}.json", dict(sim_config(), design=design))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "dataset.csv").read_bytes())
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("sidecar", ['{"true_beta": [0.8', '{"seed": 42}',
                                     '{"true_beta": [0.8, 0.8, 0.8]}',
                                     '{"true_beta": [NaN, 0, 0, 0, 0, 0, 0, 0]}'],
                         ids=["invalid-json", "no-true-beta", "wrong-length", "non-finite"])
def test_bad_truth_sidecar_is_a_data_error_before_the_fit(tmp_path, capsys, sim_out,
                                                           sidecar):
    (sim_out / "dataset.truth.json").write_text(sidecar)
    cfg = write_config(tmp_path, "fit.json", {
        "data": {"csv": str(sim_out / "dataset.csv")},
        "penalty": {"kind": "scad", "c": 0.65}})
    out = tmp_path / "fit"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "dataset.truth.json" in err
    assert not (out / "beta.csv").exists()


def test_c_at_one_covariate_exits_2_naming_lambda(tmp_path, capsys):
    data = {"simulate": dict(sim_config(), p=1, s=1)}
    cfg = write_config(tmp_path, "p1.json", {"data": data,
                                             "penalty": {"kind": "scad", "c": 0.65}})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "log p = 0 at p = 1" in err and "penalty.lambda" in err
    cfg = write_config(tmp_path, "p1l.json", {"data": data,
                                              "penalty": {"kind": "scad", "lambda": 0.1}})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "l")]) == 0
    cfg = write_config(tmp_path, "p1cv.json", {"data": data, "penalty_kind": "scad"})
    assert main(["cv", "--config", cfg, "--out", str(tmp_path / "cv")]) == 2
    assert "log p = 0" in capsys.readouterr().err


def test_exit_code_data_error(tmp_path):
    cfg = write_config(tmp_path, "missing.json", {
        "data": {"csv": str(tmp_path / "nope.csv")},
        "penalty": {"kind": "lasso", "lambda": 0.1}})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "x")]) == 3


def test_csv_that_is_not_utf8_exits_3(tmp_path, capsys):
    csv = tmp_path / "cp1252.csv"
    csv.write_bytes(b"time,status,x1\n1.0,1,0\x96\n")     # a cp1252 dash
    cfg = write_config(tmp_path, "fit.json", {
        "data": {"csv": str(csv)}, "penalty": {"kind": "lasso", "lambda": 0.1}})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cp1252.json"
    cfg.write_bytes(json.dumps(sim_config()).encode()[:-1] + b', "note": "a\x96b"}')
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_exit_code_solver_failure(tmp_path, sim_out, monkeypatch):
    monkeypatch.setattr("tlammcox.solver._MAX_PHI", 0.15)
    cfg = write_config(tmp_path, "sf.json", {
        "data": {"csv": str(sim_out / "dataset.csv")},
        "penalty": {"kind": "lasso", "lambda": 0.01},
        "solver": {"phi0": 0.1}})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "x")]) == 4


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path, "so.json", sim_config(seed=1))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a), "--seed", "9"]) == 0
    cfg2 = write_config(tmp_path, "so2.json", sim_config(seed=9))
    assert main(["simulate", "--config", cfg2, "--out", str(b)]) == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


def test_negative_seed_override_exits_2(tmp_path, capsys):
    configs = {
        "simulate": sim_config(),
        "cv": {"data": {"simulate": sim_config()}, "penalty_kind": "lasso", "c_grid": [0.5]},
        "experiment": {"grid": {"n": [30], "p": [10], "methods": ["tlamm-scad"],
                                "reps": 1, "c_by_penalty": {"scad": 0.6}}},
        "diagnose": {"data": {"simulate": sim_config()}, "m": 2, "r": 0.3},
    }
    for command, payload in configs.items():
        cfg = write_config(tmp_path, f"{command}.json", payload)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err
        assert not (out / "results.csv").exists()


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
    summary = read_json(out / "summary.json")
    assert "scad" in summary["c_by_penalty"]
    assert 0.05 <= summary["c_by_penalty"]["scad"] <= 1.0


def test_repeated_method_is_rejected_before_the_tuning_cv(tmp_path, capsys,
                                                          monkeypatch):
    calls = []

    def count(*args, **kwargs):
        calls.append(args)
        return types.SimpleNamespace(chosen_c=0.65)

    monkeypatch.setattr(cli, "cross_validate", count)
    payload = {"grid": {"n": [80], "p": [10], "methods": ["tlamm-scad", "tlamm-scad"],
                        "reps": 1, "s": 3, "tune": {"n": 60, "p": 8, "seed": 3}}}
    cfg = write_config(tmp_path, "tune.json", payload)
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
    assert "methods must not repeat" in capsys.readouterr().err
    assert calls == []


def test_tune_dataset_uses_the_grid_model(tmp_path, monkeypatch):
    built = []

    def capture(config):
        built.append(config)
        raise DataError("captured")

    monkeypatch.setattr(cli, "simulate_dataset", capture)
    payload = {"grid": {"n": [80], "p": [12], "methods": ["tlamm-scad"], "reps": 1,
                        "seed": 7, "s": 9, "signal": {"kind": "constant", "value": 0.6},
                        "censoring": [1.5, 2.5], "tune": {"n": 60, "p": 8, "seed": 3}}}
    cfg = write_config(tmp_path, "tune.json", payload)
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "t")]) == 3
    # s is clamped to the tune p, as in every grid cell
    assert built == [SimulationConfig(n=60, p=8, s=8, signal=ConstantSignal(0.6),
                                      censoring=(1.5, 2.5), seed=3)]


def _optional(mode, **defaults):
    """Optional config keys left out, set to null, or spelled out at their
    defaults."""
    if mode == "omit":
        return {}
    return {key: None if mode == "null" else value for key, value in defaults.items()}


def _defaults_config(command, mode):
    sim = {"n": 60, "p": 8, "s": 3, "seed": 42, **_optional(
        mode, signal={"kind": "constant", "value": 0.8},
        design={"kind": "independent"}, censoring=[2, 3])}
    solver = _optional(mode, solver={"phi0": 0.1, "gamma_u": 2.0, "eps1": 0.002,
                                     "eps2": 0.002, "max_iter_stage": 2000})
    if command == "simulate":
        return sim
    if command == "fit":
        return {"data": {"simulate": sim}, **solver,
                "penalty": {"kind": "scad", "c": 0.65, **_optional(mode, a=3.7)},
                **_optional(mode, algorithm="tlamm")}
    if command == "cv":
        return {"data": {"simulate": sim}, "penalty_kind": "mcp", **solver,
                **_optional(mode, gamma=3.0, folds=3, seed=0,
                            c_grid=[0.05 * k for k in range(1, 21)])}
    if command == "experiment":
        return {**solver, "grid": {
            "n": [60], "p": [8], "methods": ["oracle", "tlamm-scad"], "reps": 1,
            "c_by_penalty": {"scad": 0.6},
            **({"tune": None} if mode == "null" else {}),
            **_optional(mode, designs=[{"kind": "independent"}], seed=0, s=10,
                        signal={"kind": "constant", "value": 0.8}, censoring=[2, 3])}}
    return {"data": {"simulate": sim}, "m": 2, "r": 0.3,
            **_optional(mode, n_beta_samples=0, seed=0, beta_star=[0.8] * 3 + [0.0] * 5)}


def _without_wall_clock(path):
    if path.name == "results.csv":
        return [row.rsplit(",", 1)[0] for row in path.read_text().splitlines()]
    if path.name == "summary.json":
        summary = read_json(path)
        summary.pop("wall_seconds", None)
        for cell in summary.get("cells", []):
            cell["median"].pop("seconds", None)
        return summary
    return path.read_bytes()


@pytest.mark.parametrize("command, outputs", [
    ("simulate", ["dataset.csv", "dataset.truth.json"]),
    ("fit", ["beta.csv", "trace.csv", "summary.json"]),
    ("cv", ["cv.csv", "summary.json"]),
    ("experiment", ["results.csv", "summary.json"]),
    ("diagnose", ["lse.json"]),
])
def test_optional_keys_absent_null_or_spelled_out_give_same_outputs(tmp_path, command,
                                                                    outputs):
    got = {}
    for mode in ("omit", "null", "explicit"):
        cfg = write_config(tmp_path, f"{mode}.json", _defaults_config(command, mode))
        out = tmp_path / mode
        assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        got[mode] = [_without_wall_clock(out / name) for name in outputs]
    assert got["omit"] == got["null"] == got["explicit"]


@pytest.mark.parametrize("threads", ["0", "-4"])
@pytest.mark.parametrize("command", ["simulate", "fit", "cv", "experiment", "diagnose"])
def test_threads_below_one_exits_2(tmp_path, capsys, command, threads):
    # each config runs to exit 0 with --threads 1
    cfg = write_config(tmp_path, "cfg.json", _defaults_config(command, "omit"))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    assert f"config error: --threads must be at least 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_cold_import_loads_no_process_pool():
    # `evaluation._pmap` imports the pool only when it maps in parallel, so
    # a console-script start pays for neither module; a fresh interpreter,
    # because this one has imported concurrent.futures already
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, tlammcox, tlammcox.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"
