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
                   load_csv, read_truth, save_csv, simulate_dataset, write_rows)
from .diagnostics import lse_probe
from .errors import ConfigError, DataError, SolverError
from .evaluation import (ExperimentGrid, cross_validate, l2_error,
                         run_experiment, scaled_lambda, selection_metrics)
from .penalties import _SHAPES, PenaltySpec, shift_gradient
from .penalties import value as penalty_value
from .solver import SolverConfig, ilamm, omega, tlamm


# ---------------------------------------------------------- config parsing

def _block(obj, kinds, where, required=(), seed_override=None):
    """{key: kinds[key](obj[key])} for each key that obj sets and that is not
    null, so a key left absent or null takes the default of the signature it
    is passed to. kinds is both the block's allowed keys and its schema; an
    unknown key, an unset required key or a value its converter rejects is a
    ConfigError naming where.key. A --seed override replaces the seed."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(kinds)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = {key for key in required if obj.get(key) is None}
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    given = {}
    for key, kind in kinds.items():
        if obj.get(key) is not None:
            try:
                given[key] = kind(obj[key])
            except ConfigError:
                raise       # from a nested parser, whose message names the key
            except (LookupError, TypeError, ValueError, OverflowError):
                raise ConfigError(f"{where}.{key}: invalid value {obj[key]!r}") from None
    if seed_override is not None:
        given["seed"] = seed_override
    return given


def _later(value):
    """A nested block, parsed once the values it depends on are known."""
    return value


def _int(value):
    """int(value), rejecting booleans, strings and fractional numbers,
    which int() would accept, parse or truncate."""
    if (isinstance(value, (bool, str))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError("expected an integer")
    return int(value)


def _float(value):
    """float(value), rejecting booleans and strings, which float() would
    take as 0 or 1 or parse."""
    if isinstance(value, (bool, str)):
        raise ValueError("expected a number")
    return float(value)


def _str(value):
    if not isinstance(value, str):      # str() would format a number or list
        raise TypeError("expected a string")
    return value


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


def _kind_of(classes, kinds, where):
    """Converter of a {"kind": name, ...} block to classes[name] built from
    its other keys, which kinds converts for every class; the keys that
    class takes are its fields, and those without a default are required."""
    def convert(obj):
        given = _block(obj, {"kind": classes.__getitem__, **kinds}, where, ("kind",))
        cls = given.pop("kind")
        fields = dataclasses.fields(cls)
        return cls(**_block(given, {f.name: _later for f in fields}, where,
                            [f.name for f in fields if f.default is dataclasses.MISSING]))
    return convert


_parse_design = _kind_of(
    {cls.name: cls for cls in (Independent, ConstantCorrelation, Autoregressive)},
    {"rho": _float}, "design")
_parse_signal = _kind_of({"constant": ConstantSignal, "decaying": DecayingSignal},
                         {"value": _float, "values": _list_of(_float)}, "signal")

# the simulation model, read alike by the simulate block and the grid
_MODEL = {"s": _int, "signal": _parse_signal, "censoring": _list_of(_float)}
# each concave family's shape key (SCAD's a, MCP's gamma), read as a float
_SHAPE_KEYS = {name: _float for name, _bound, _default in _SHAPES.values()}


def _parse_sim_config(obj, seed_override=None, where="simulate"):
    return SimulationConfig(**_block(
        obj, {"n": _int, "p": _int, **_MODEL, "design": _parse_design, "seed": _int},
        where, ("n", "p", "s", "seed"), seed_override))


def _parse_solver(obj):
    """SolverConfig from the keys and value types of its fields."""
    kinds = {f.name: {int: _int, float: _float}[type(f.default)]
             for f in dataclasses.fields(SolverConfig)}
    return SolverConfig(**_block(obj, kinds, "solver"))


def _parse_penalty(obj, n, p):
    given = _block(obj, {"kind": _str, "lambda": _float, "c": _float, **_SHAPE_KEYS},
                   "penalty", ("kind",))
    if ("lambda" in given) == ("c" in given):
        raise ConfigError("penalty: give exactly one of penalty.lambda or penalty.c")
    if p == 1 and "c" in given:
        raise ConfigError("penalty.c: log p = 0 at p = 1, so give penalty.lambda instead")
    lam = given["lambda"] if "lambda" in given else scaled_lambda(given["c"], n, p)
    return PenaltySpec(given["kind"], lam, **_shape(given, given["kind"], "penalty"))


def _shape(given, kind, where):
    """{"shape": the value of kind's shape key} when given sets it, else {};
    pops every shape key from given, and the shape key of another kind is a
    ConfigError."""
    key = _SHAPES[kind][0] if kind in _SHAPES else None
    shapes = {name: given.pop(name) for name in _SHAPE_KEYS if name in given}
    foreign = sorted(set(shapes) - {key})
    if foreign:
        raise ConfigError(f"{where}.{foreign[0]}: not a shape of the {kind} penalty")
    return {"shape": shapes[key]} if key in shapes else {}


def _load_data(obj, seed_override=None):
    """Returns (dataset, true_beta or None)."""
    given = _block(obj, {"csv": _str, "simulate": _later}, "data")
    if ("csv" in given) == ("simulate" in given):
        raise ConfigError("data: give exactly one of csv or simulate")
    if "csv" in given:
        dataset = load_csv(given["csv"])      # a replaced cli.load_csv is the one called
        return dataset, read_truth(given["csv"], dataset.p)
    return simulate_dataset(_parse_sim_config(given["simulate"], seed_override))


def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _json_value(value):
    """value with every float NaN, an undefined rate, as None: JSON null."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return None if isinstance(value, float) and math.isnan(value) else value


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_value(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        write_rows(fh, rows)


# ------------------------------------------------------------- subcommands

def cmd_simulate(cfg, out_dir, seed_override, threads):
    sim = _parse_sim_config(cfg, seed_override, where="config")
    dataset, beta = simulate_dataset(sim)
    save_csv(dataset, os.path.join(out_dir, "dataset.csv"), true_beta=beta, seed=sim.seed)
    return 0


def cmd_fit(cfg, out_dir, seed_override, threads):
    given = _block(cfg, {"data": _later, "algorithm": _str, "penalty": _later,
                         "solver": _parse_solver}, "config", ("data", "penalty"))
    dataset, truth = _load_data(given["data"], seed_override)
    spec = _parse_penalty(given["penalty"], dataset.n, dataset.p)
    algorithm = given.get("algorithm", "tlamm")
    if algorithm not in ("tlamm", "ilamm"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    fit = (tlamm if algorithm == "tlamm" else ilamm)(
        dataset, spec, given.get("solver", SolverConfig()))

    _write_csv(os.path.join(out_dir, "beta.csv"), [("index", "value"), *zip(
        fit.support.tolist(), fit.beta[fit.support].tolist())])
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
        summary["l2_error"] = l2_error(fit.beta, truth)
        summary["selection"] = dataclasses.asdict(
            selection_metrics(fit.beta, np.flatnonzero(truth != 0)))
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0


def cmd_cv(cfg, out_dir, seed_override, threads):
    given = _block(cfg, {"data": _later, "penalty_kind": _str, **_SHAPE_KEYS,
                         "solver": _parse_solver, "folds": _int,
                         "c_grid": _list_of(_float), "seed": _int},
                   "config", ("data", "penalty_kind"), seed_override)
    dataset, _ = _load_data(given.pop("data"))
    kind = given.pop("penalty_kind")
    shape = _shape(given, kind, "config")
    result = cross_validate(dataset, kind, config=given.pop("solver", SolverConfig()),
                            threads=threads, **shape, **given)
    _write_csv(os.path.join(out_dir, "cv.csv"),
               [("c", "criterion"), *zip(result.c_grid, result.criteria)])
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
    given = _block(obj, {"n": _list_of(_int), "p": _list_of(_int),
                         "methods": _list_of(_str), "reps": _int, **_MODEL,
                         "designs": _list_of(_parse_design), "seed": _int,
                         "c_by_penalty": _float_map, "tune": _later},
                   "grid", ("n", "p", "methods", "reps"), seed_override)
    # every value is checked before the tuning CV, so a malformed one fails
    # fast; a kind the CV tunes is held at c = 1 until the CV picks its c
    methods, tune = given.pop("methods"), given.pop("tune", None)
    c_by_penalty = given.pop("c_by_penalty", {})
    kinds = {evaluation.method_penalty_kind(mth) for mth in methods} - {None}
    tuned = sorted(kinds - set(c_by_penalty)) if tune is not None else []
    grid = ExperimentGrid(n_values=given.pop("n"), p_values=given.pop("p"),
                          methods=methods, **given,
                          c_by_penalty={**dict.fromkeys(tuned, 1.0), **c_by_penalty})
    if tune is not None:
        tune = _block(tune, {"design": _parse_design, "n": _int, "p": _int,
                             "seed": _int, "folds": _int}, "grid.tune")
        folds = {"folds": tune.pop("folds")} if "folds" in tune else {}
        tune_data, _ = simulate_dataset(grid.simulation(**{
            "design": Independent(), "n": 200, "p": 100, "seed": grid.seed, **tune}))
        for kind in tuned:
            c_by_penalty[kind] = cross_validate(tune_data, kind, config=solver_cfg,
                                                seed=grid.seed, threads=threads,
                                                **folds).chosen_c
    return dataclasses.replace(grid, c_by_penalty=c_by_penalty)


def cmd_experiment(cfg, out_dir, seed_override, threads):
    given = _block(cfg, {"grid": _later, "solver": _parse_solver}, "config", ("grid",))
    solver_cfg = given.get("solver", SolverConfig())
    grid = _parse_grid(given["grid"], seed_override, solver_cfg, threads)
    result = run_experiment(grid, solver_cfg, threads=threads,
                            out_csv=os.path.join(out_dir, "results.csv"))
    _write_json(os.path.join(out_dir, "summary.json"), {
        "cells": result.cell_medians,
        "failures": result.failures,
        "c_by_penalty": grid.c_by_penalty,
        "seed": grid.seed,
    })
    if (grid.n_values == (300,) and grid.p_values == (2400,)
            and set(grid.methods) == set(evaluation.METHODS)):
        _write_csv(os.path.join(out_dir, "table1.csv"), [("method", "l2", "tp", "fp"), *(
            (cell["method"], *(cell["median"][k] for k in ("l2", "tp", "fp")))
            for cell in result.cell_medians if cell["median"])])
    return 5 if result.failures else 0


def cmd_diagnose(cfg, out_dir, seed_override, threads):
    given = _block(cfg, {"data": _later, "beta_star": _list_of(_float), "m": _int,
                         "r": _float, "n_beta_samples": _int, "seed": _int},
                   "config", ("data", "m", "r"), seed_override)
    dataset, truth = _load_data(given.pop("data"))
    beta_star = given.pop("beta_star", truth)
    if beta_star is None:
        raise ConfigError("beta_star missing and no truth sidecar available")
    report = lse_probe(dataset, beta_star, **given)
    _write_json(os.path.join(out_dir, "lse.json"), dataclasses.asdict(report))
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
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
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
