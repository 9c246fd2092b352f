"""Command-line entry point: simulate, fit, cv, experiment, diagnose.

Each subcommand takes a JSON config (--config), writes its outputs under
--out, and is deterministic given the config and seed; wall-clock fields
in summaries are the only values that vary between reruns. Exit codes:
0 ok, 2 config error, 3 data error, 4 solver failure, 5 grid finished with
failed cells.
"""

from __future__ import annotations

import argparse
import dataclasses
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


_REQUIRED = object()


def _read(obj, key, kind, where, default=_REQUIRED):
    """obj[key] converted by kind; an optional key that is absent or null
    gives default. A missing required key or a value kind rejects is a
    ConfigError naming where.key."""
    if obj.get(key) is None and default is not _REQUIRED:
        return default
    if key not in obj:
        raise ConfigError(f"{where}: missing key {key!r}")
    try:
        return kind(obj[key])
    except ConfigError:
        raise       # from a nested parser, whose message names the key
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}.{key}: invalid value {obj[key]!r}") from None


def _int(value):
    """int(value), rejecting booleans and fractional numbers, which int()
    would accept or truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("expected an integer")
    return int(value)


def _float(value):
    """float(value), rejecting booleans, which float() would take as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError("expected a number")
    return float(value)


def _seed(obj, seed_override, where, default=_REQUIRED):
    """The --seed override when given, else obj["seed"]."""
    if seed_override is not None:
        return seed_override
    return _read(obj, "seed", _int, where, default)


def _list_of(kind):
    """Converter of a JSON list to a tuple of kind(item)."""
    def convert(value):
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return tuple(kind(v) for v in value)
    return convert


def _float_map(value):
    if not isinstance(value, dict):
        raise TypeError("expected an object")
    return {k: _float(v) for k, v in value.items()}


def _parse_design(obj, where="design"):
    _require_keys(obj, {"kind", "rho"}, {"kind"}, where)
    kind = obj["kind"]
    if kind == "independent":
        if "rho" in obj:
            raise ConfigError(f"{where}: independent design takes no rho")
        return Independent()
    if kind == "constant_correlation":
        return ConstantCorrelation(_read(obj, "rho", _float, where))
    if kind == "autoregressive":
        return Autoregressive(_read(obj, "rho", _float, where))
    raise ConfigError(f"{where}: unknown design kind {kind!r}")


def _parse_signal(obj, where="signal"):
    _require_keys(obj, {"kind", "value", "values"}, {"kind"}, where)
    if obj["kind"] == "constant":
        return ConstantSignal(_read(obj, "value", _float, where, 0.8))
    if obj["kind"] == "decaying":
        return DecayingSignal(_read(obj, "values", _list_of(_float), where))
    raise ConfigError(f"{where}: unknown signal kind {obj['kind']!r}")


def _parse_sim_config(obj, seed_override=None, where="simulate"):
    _require_keys(obj, {"n", "p", "s", "signal", "design", "censoring", "seed"},
                  {"n", "p", "s", "seed"}, where)
    censoring = _read(obj, "censoring", _list_of(_float), where, (2.0, 3.0))
    if len(censoring) != 2:
        raise ConfigError(f"{where}: censoring must be [low, high]")
    return SimulationConfig(
        n=_read(obj, "n", _int, where), p=_read(obj, "p", _int, where),
        s=_read(obj, "s", _int, where),
        signal=_read(obj, "signal", _parse_signal, where, ConstantSignal(0.8)),
        design=_read(obj, "design", _parse_design, where, Independent()),
        censoring_low=censoring[0], censoring_high=censoring[1],
        seed=_seed(obj, seed_override, where))


def _parse_solver(obj, where="solver"):
    """SolverConfig from the keys, value types and defaults of its fields."""
    if obj is None:
        return SolverConfig()
    fields = dataclasses.fields(SolverConfig)
    _require_keys(obj, {f.name for f in fields}, set(), where)
    convert = {int: _int, float: _float, str: str}
    return SolverConfig(**{f.name: _read(obj, f.name, convert[type(f.default)], where,
                                         f.default)
                           for f in fields})


def _parse_penalty(obj, n, p, where="penalty"):
    _require_keys(obj, {"kind", "lambda", "c", "a", "gamma"}, {"kind"}, where)
    kind = obj["kind"]
    if kind not in ("lasso", "scad", "mcp"):
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    if ("lambda" in obj) == ("c" in obj):
        raise ConfigError(f"{where}: give exactly one of lambda or c")
    lam = _read(obj, "lambda", _float, where) if "lambda" in obj else \
        _read(obj, "c", _float, where) * math.sqrt(math.log(p) / n)
    return PenaltySpec(kind, lam, _read_shape(obj, kind, where))


def _read_shape(obj, kind, where):
    """SCAD's a or MCP's gamma (NaN takes the default); the shape key of
    another kind is a ConfigError."""
    key = {"scad": "a", "mcp": "gamma"}.get(kind)
    for other in ("a", "gamma"):
        if other != key and obj.get(other) is not None:
            raise ConfigError(f"{where}.{other}: not a shape of the {kind} penalty")
    return float("nan") if key is None else _read(obj, key, _float, where, float("nan"))


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
    dataset, truth = _load_data(cfg["data"], _seed(cfg, seed_override, "config", None))
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
        "status": fit.status,
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
    kind = _read(cfg, "penalty_kind", str, "config")
    shape = _read_shape(cfg, kind, "config")
    result = cross_validate(
        dataset, kind, folds=_read(cfg, "folds", _int, "config", 3),
        c_grid=_read(cfg, "c_grid", _list_of(_float), "config", None),
        config=_parse_solver(cfg.get("solver")),
        seed=_seed(cfg, seed_override, "config", 0),
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
        "fold_statuses": [{"c": c, "statuses": list(statuses)}
                          for c, statuses in zip(result.c_grid, result.statuses)],
        "penalty_kind": kind,
    })
    return 0


def _parse_grid(obj, seed_override, solver_cfg, threads):
    allowed = {"n", "p", "designs", "methods", "reps", "seed", "s", "signal",
               "censoring", "c_by_penalty", "tune", "scad_a", "mcp_gamma"}
    _require_keys(obj, allowed, {"n", "p", "methods", "reps"}, "grid")
    designs = _read(obj, "designs", _list_of(_parse_design), "grid", (Independent(),))
    methods = _read(obj, "methods", _list_of(str), "grid")
    seed = _seed(obj, seed_override, "grid", 0)
    c_by_penalty = _read(obj, "c_by_penalty", _float_map, "grid", {})
    s = _read(obj, "s", _int, "grid", 10)
    signal = _read(obj, "signal", _parse_signal, "grid", ConstantSignal(0.8))
    scad_a = _read(obj, "scad_a", _float, "grid", DEFAULT_SCAD_A)
    mcp_gamma = _read(obj, "mcp_gamma", _float, "grid", DEFAULT_MCP_GAMMA)
    # every value is read before the tuning CV, so a malformed one fails fast
    n_values = _read(obj, "n", _list_of(_int), "grid")
    p_values = _read(obj, "p", _list_of(_int), "grid")
    reps = _read(obj, "reps", _int, "grid")
    censoring = _read(obj, "censoring", _list_of(_float), "grid", (2.0, 3.0))
    if "tune" in obj:
        tune = obj["tune"]
        _require_keys(tune, {"n", "p", "folds", "seed", "design"}, set(), "grid.tune")
        sim = SimulationConfig(
            n=_read(tune, "n", _int, "grid.tune", 200),
            p=_read(tune, "p", _int, "grid.tune", 100), s=s, signal=signal,
            design=_read(tune, "design", _parse_design, "grid.tune", Independent()),
            seed=_read(tune, "seed", _int, "grid.tune", seed))
        folds = _read(tune, "folds", _int, "grid.tune", 3)
        tune_data, _ = simulate_dataset(sim)
        kinds = {evaluation.method_penalty_kind(mth) for mth in methods} - {None}
        for kind in sorted(kinds - set(c_by_penalty)):
            shape = {"lasso": float("nan"), "scad": scad_a, "mcp": mcp_gamma}[kind]
            cv = cross_validate(tune_data, kind, folds=folds, config=solver_cfg,
                                seed=seed, shape=shape, threads=threads)
            c_by_penalty[kind] = cv.chosen_c
    return ExperimentGrid(n_values=n_values, p_values=p_values, designs=designs,
                          methods=methods, reps=reps, seed=seed,
                          c_by_penalty=c_by_penalty, s=s, signal=signal,
                          censoring=censoring, scad_a=scad_a, mcp_gamma=mcp_gamma)


def cmd_experiment(cfg, out_dir, seed_override, threads):
    _require_keys(cfg, {"grid", "solver", "seed"}, {"grid"}, "config")
    solver_cfg = _parse_solver(cfg.get("solver"))
    grid = _parse_grid(cfg["grid"], _seed(cfg, seed_override, "config", None),
                       solver_cfg, threads)
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
    beta_star = _read(cfg, "beta_star", _list_of(_float), "config", truth)
    if beta_star is None:
        raise ConfigError("beta_star missing and no truth sidecar available")
    report = lse_probe(dataset, np.asarray(beta_star, dtype=np.float64),
                       m=_read(cfg, "m", _int, "config"), r=_read(cfg, "r", _float, "config"),
                       n_beta_samples=_read(cfg, "n_beta_samples", _int, "config", 0),
                       seed=_seed(cfg, seed_override, "config", 0))
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
