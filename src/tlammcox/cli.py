"""Command-line entry point: simulate, fit, cv, experiment, diagnose.

Each subcommand takes a JSON config (--config), writes its outputs under
--out, and is deterministic given the config and seed; wall-clock fields
in summaries are the only values that vary between reruns. Exit codes:
0 ok, 2 config error, 3 data error, 4 solver failure, 5 grid finished with
failed cells.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import evaluation
from .cox import CoxObjective
from .data import (Autoregressive, ConstantCorrelation, ConstantSignal,
                   DecayingSignal, Independent, SimulationConfig,
                   load_csv, save_csv, simulate_dataset, truth_sidecar_path)
from .diagnostics import lse_probe
from .errors import ConfigError, DataError, SolverError
from .evaluation import (ExperimentGrid, cross_validate, l2_error,
                         run_experiment, selection_metrics)
from .penalties import (DEFAULT_MCP_GAMMA, DEFAULT_SCAD_A, PenaltySpec,
                        shift_gradient)
from .penalties import value as penalty_value
from .solver import SolverConfig, ilamm, omega, tlamm


# ---------------------------------------------------------- config parsing

def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _parse_design(obj, where="design"):
    _require_keys(obj, {"kind", "rho"}, {"kind"}, where)
    kind = obj["kind"]
    if kind == "independent":
        if "rho" in obj:
            raise ConfigError(f"{where}: independent design takes no rho")
        return Independent()
    if kind == "constant_correlation":
        return ConstantCorrelation(float(obj["rho"]))
    if kind == "autoregressive":
        return Autoregressive(float(obj["rho"]))
    raise ConfigError(f"{where}: unknown design kind {kind!r}")


def _parse_signal(obj, where="signal"):
    _require_keys(obj, {"kind", "value", "values"}, {"kind"}, where)
    if obj["kind"] == "constant":
        return ConstantSignal(float(obj.get("value", 0.8)))
    if obj["kind"] == "decaying":
        return DecayingSignal([float(v) for v in obj["values"]])
    raise ConfigError(f"{where}: unknown signal kind {obj['kind']!r}")


def _parse_sim_config(obj, seed_override=None, where="simulate"):
    _require_keys(obj, {"n", "p", "s", "signal", "design", "censoring", "seed"},
                  {"n", "p", "s", "seed"}, where)
    censoring = obj.get("censoring", [2.0, 3.0])
    if not (isinstance(censoring, list) and len(censoring) == 2):
        raise ConfigError(f"{where}: censoring must be [low, high]")
    return SimulationConfig(
        n=int(obj["n"]), p=int(obj["p"]), s=int(obj["s"]),
        signal=_parse_signal(obj["signal"]) if "signal" in obj else ConstantSignal(0.8),
        design=_parse_design(obj["design"]) if "design" in obj else Independent(),
        censoring_low=float(censoring[0]), censoring_high=float(censoring[1]),
        seed=int(seed_override if seed_override is not None else obj["seed"]))


def _parse_solver(obj, where="solver"):
    if obj is None:
        return SolverConfig()
    allowed = {"phi0", "gamma_u", "eps1", "eps2", "max_iter_stage", "max_phi",
               "stop_mode"}
    _require_keys(obj, allowed, set(), where)
    defaults = SolverConfig()
    return SolverConfig(
        phi0=float(obj.get("phi0", defaults.phi0)),
        gamma_u=float(obj.get("gamma_u", defaults.gamma_u)),
        eps1=float(obj.get("eps1", defaults.eps1)),
        eps2=float(obj.get("eps2", defaults.eps2)),
        max_iter_stage=int(obj.get("max_iter_stage", defaults.max_iter_stage)),
        max_phi=float(obj.get("max_phi", defaults.max_phi)),
        stop_mode=str(obj.get("stop_mode", defaults.stop_mode)))


def _parse_penalty(obj, n, p, where="penalty"):
    _require_keys(obj, {"kind", "lambda", "c", "a", "gamma"}, {"kind"}, where)
    kind = obj["kind"]
    if kind not in ("lasso", "scad", "mcp"):
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    if ("lambda" in obj) == ("c" in obj):
        raise ConfigError(f"{where}: give exactly one of lambda or c")
    lam = float(obj["lambda"]) if "lambda" in obj else \
        float(obj["c"]) * math.sqrt(math.log(p) / n)
    shape = float("nan")
    if kind == "scad" and "a" in obj:
        shape = float(obj["a"])
    if kind == "mcp" and "gamma" in obj:
        shape = float(obj["gamma"])
    return PenaltySpec(kind, lam, shape)


def _load_data(obj, seed_override=None, where="data"):
    """Returns (dataset, true_beta or None)."""
    _require_keys(obj, {"csv", "simulate"}, set(), where)
    if ("csv" in obj) == ("simulate" in obj):
        raise ConfigError(f"{where}: give exactly one of csv or simulate")
    if "csv" in obj:
        dataset = load_csv(obj["csv"])
        truth = None
        sidecar = truth_sidecar_path(obj["csv"])
        if os.path.exists(sidecar):
            with open(sidecar, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            truth = np.asarray(payload["true_beta"], dtype=np.float64)
        return dataset, truth
    sim = _parse_sim_config(obj["simulate"], seed_override)
    dataset, beta = simulate_dataset(sim)
    return dataset, beta


def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------- subcommands

def cmd_simulate(cfg, out_dir, seed_override, threads):
    sim = _parse_sim_config(cfg, seed_override, where="config")
    dataset, beta = simulate_dataset(sim)
    csv_path = os.path.join(out_dir, "dataset.csv")
    save_csv(dataset, csv_path, true_beta=beta, seed=sim.seed)
    return 0


def cmd_fit(cfg, out_dir, seed_override, threads):
    _require_keys(cfg, {"data", "algorithm", "penalty", "solver", "seed"},
                  {"data", "penalty"}, "config")
    seed = seed_override if seed_override is not None else cfg.get("seed")
    dataset, truth = _load_data(cfg["data"], seed)
    solver_cfg = _parse_solver(cfg.get("solver"))
    spec = _parse_penalty(cfg["penalty"], dataset.n, dataset.p)
    algorithm = cfg.get("algorithm", "tlamm")
    if algorithm not in ("tlamm", "ilamm"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    fit = (tlamm if algorithm == "tlamm" else ilamm)(dataset, spec, solver_cfg)

    with open(os.path.join(out_dir, "beta.csv"), "w", encoding="utf-8") as fh:
        fh.write("index,value\n")
        for j in fit.support:
            fh.write(f"{j},{float(fit.beta[j])!r}\n")
    fit.trace.write_csv(os.path.join(out_dir, "trace.csv"))

    objective = CoxObjective(dataset)
    final_f = objective.nll(fit.beta) + penalty_value(spec, fit.beta)
    final_omega = omega(objective.gradient(fit.beta) + shift_gradient(spec, fit.beta),
                        fit.beta, spec.lam)
    summary = {
        "algorithm": algorithm,
        "lambda": spec.lam,
        "penalty": spec.kind,
        "iterations": list(fit.iterations),
        "converged": list(fit.converged),
        "final_objective": final_f,
        "final_omega": final_omega,
        "support_size": int(fit.support.size),
        "wall_seconds": fit.seconds,
    }
    if truth is not None:
        sel = selection_metrics(fit.beta, np.flatnonzero(truth != 0))
        summary["l2_error"] = l2_error(fit.beta, truth)
        summary["selection"] = {"tp": sel.tp, "fp": sel.fp, "fn": sel.fn,
                                "tn": sel.tn, "sensitivity": sel.sensitivity,
                                "specificity": sel.specificity}
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0


def cmd_cv(cfg, out_dir, seed_override, threads):
    _require_keys(cfg, {"data", "penalty_kind", "a", "gamma", "folds",
                        "c_grid", "solver", "seed"},
                  {"data", "penalty_kind"}, "config")
    dataset, _ = _load_data(cfg["data"])
    shape = float(cfg.get("a", cfg.get("gamma", float("nan"))))
    result = cross_validate(
        dataset, cfg["penalty_kind"], folds=int(cfg.get("folds", 3)),
        c_grid=cfg.get("c_grid"), config=_parse_solver(cfg.get("solver")),
        seed=int(seed_override if seed_override is not None else cfg.get("seed", 0)),
        shape=shape, threads=threads)
    with open(os.path.join(out_dir, "cv.csv"), "w", encoding="utf-8") as fh:
        fh.write("c,criterion\n")
        for c, crit in zip(result.c_grid, result.criteria):
            fh.write(f"{c!r},{crit!r}\n")
    _write_json(os.path.join(out_dir, "summary.json"), {
        "chosen_c": result.chosen_c,
        "chosen_lambda": result.chosen_lambda,
        "criterion": result.criterion,
        "fold_seed": result.fold_seed,
        "penalty_kind": cfg["penalty_kind"],
    })
    return 0


def _parse_grid(obj, seed_override, solver_cfg, threads):
    allowed = {"n", "p", "designs", "methods", "reps", "seed", "s", "signal",
               "censoring", "c_by_penalty", "tune", "scad_a", "mcp_gamma"}
    _require_keys(obj, allowed, {"n", "p", "methods", "reps"}, "grid")
    designs = tuple(_parse_design(d) for d in obj.get("designs",
                                                      [{"kind": "independent"}]))
    methods = tuple(obj["methods"])
    seed = int(seed_override if seed_override is not None else obj.get("seed", 0))
    c_by_penalty = {k: float(v) for k, v in obj.get("c_by_penalty", {}).items()}
    signal = _parse_signal(obj["signal"]) if "signal" in obj else ConstantSignal(0.8)
    scad_a = float(obj.get("scad_a", DEFAULT_SCAD_A))
    mcp_gamma = float(obj.get("mcp_gamma", DEFAULT_MCP_GAMMA))
    if "tune" in obj:
        tune = obj["tune"]
        _require_keys(tune, {"n", "p", "folds", "seed", "design"}, set(), "grid.tune")
        tune_design = _parse_design(tune["design"]) if "design" in tune else Independent()
        sim = SimulationConfig(n=int(tune.get("n", 200)), p=int(tune.get("p", 100)),
                               s=int(obj.get("s", 10)), signal=signal,
                               design=tune_design, seed=int(tune.get("seed", seed)))
        tune_data, _ = simulate_dataset(sim)
        kinds = {evaluation.method_penalty_kind(mth) for mth in methods} - {None}
        for kind in sorted(kinds - set(c_by_penalty)):
            shape = {"lasso": float("nan"), "scad": scad_a, "mcp": mcp_gamma}[kind]
            cv = cross_validate(tune_data, kind, folds=int(tune.get("folds", 3)),
                                config=solver_cfg, seed=seed, shape=shape,
                                threads=threads)
            c_by_penalty[kind] = cv.chosen_c
    grid = ExperimentGrid(
        n_values=tuple(int(v) for v in obj["n"]),
        p_values=tuple(int(v) for v in obj["p"]),
        designs=designs, methods=methods, reps=int(obj["reps"]), seed=seed,
        c_by_penalty=c_by_penalty,
        s=int(obj.get("s", 10)), signal=signal,
        censoring=tuple(obj.get("censoring", (2.0, 3.0))),
        scad_a=scad_a, mcp_gamma=mcp_gamma)
    return grid


def cmd_experiment(cfg, out_dir, seed_override, threads):
    _require_keys(cfg, {"grid", "solver", "seed"}, {"grid"}, "config")
    solver_cfg = _parse_solver(cfg.get("solver"))
    seed = seed_override if seed_override is not None else cfg.get("seed")
    grid = _parse_grid(cfg["grid"], seed, solver_cfg, threads)
    result = run_experiment(grid, solver_cfg, threads=threads,
                            out_csv=os.path.join(out_dir, "results.csv"))
    _write_json(os.path.join(out_dir, "summary.json"), {
        "cells": result.cell_medians,
        "failures": [{k: v for k, v in row.items()} for row in result.failures],
        "c_by_penalty": grid.c_by_penalty,
        "seed": grid.seed,
    })
    if (grid.n_values == (300,) and grid.p_values == (2400,)
            and set(grid.methods) == set(evaluation.METHODS)):
        with open(os.path.join(out_dir, "table1.csv"), "w", encoding="utf-8") as fh:
            fh.write("method,l2,tp,fp\n")
            for cell in result.cell_medians:
                med = cell["median"]
                if med:
                    fh.write(f"{cell['method']},{med['l2']!r},{med['tp']!r},"
                             f"{med['fp']!r}\n")
    return 5 if result.any_failed else 0


def cmd_diagnose(cfg, out_dir, seed_override, threads):
    _require_keys(cfg, {"data", "beta_star", "m", "r", "n_beta_samples", "seed"},
                  {"data", "m", "r"}, "config")
    dataset, truth = _load_data(cfg["data"])
    if "beta_star" in cfg and cfg["beta_star"] is not None:
        beta_star = np.asarray([float(v) for v in cfg["beta_star"]])
    elif truth is not None:
        beta_star = truth
    else:
        raise ConfigError("beta_star missing and no truth sidecar available")
    report = lse_probe(dataset, beta_star, m=int(cfg["m"]), r=float(cfg["r"]),
                       n_beta_samples=int(cfg.get("n_beta_samples", 0)),
                       seed=int(seed_override if seed_override is not None
                                else cfg.get("seed", 0)))
    _write_json(os.path.join(out_dir, "lse.json"), report.to_dict())
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "cv": cmd_cv,
    "experiment": cmd_experiment,
    "diagnose": cmd_diagnose,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tlammcox",
        description="Folded-concave penalized Cox regression via two-stage LAMM")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="parallel workers across reps/cells/folds")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _read_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        t0 = time.perf_counter()
        code = COMMANDS[args.command](cfg, args.out, args.seed, args.threads)
        print(f"{args.command}: done in {time.perf_counter() - t0:.2f}s "
              f"-> {args.out}", file=sys.stderr)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
