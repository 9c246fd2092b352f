"""The benchmark workloads and their output checks.

Each workload repeats one operation on seeded inputs: a batch of Table-1
grid units (table1_serial), a cross_validate call (cv_tune), or a CLI
pipeline simulate -> fit -> concordance (cohort_cli). A seed fixes a
cycle of `cycle` inputs, and operation i runs input i % cycle; runs
measure whole cycles only, so the inputs a run measures do not depend on
how fast the machine or the code is. `op(i)` runs the i-th operation,
records its checks, and passes the wall seconds of its steps, check time
left out, and the units it completed to `_record`. `finish()` runs the run-level
checks and returns the report metrics as name -> (value, unit, samples).
"""

from __future__ import annotations

import json
import math
import os
import shutil
from time import perf_counter

import numpy as np

from instrument import median, pct, untraced

from tlammcox import cli, data, evaluation
from tlammcox.data import SimulationConfig, simulate_dataset
from tlammcox.evaluation import ExperimentGrid
from tlammcox.solver import SolverConfig

METHODS = ("oracle", "lasso", "tlamm-scad", "tlamm-mcp", "ilamm-scad", "ilamm-mcp")
# CV picks on the acceptance tuning set (n=200, p=100, seed 101, folds seed 5)
C_BY_PENALTY = {"lasso": 0.45, "scad": 0.65, "mcp": 0.85}
# acceptance criterion 04 bands on the per-method medians (n=300, p=2400)
L2_BANDS = {"oracle": (0.19, 0.39), "tlamm-mcp": (0.19, 0.49),
            "tlamm-scad": (0.21, 0.51)}
S = 10

FULL = {
    "grid": {"n": 300, "p": 2400, "reps": 2, "cycle": 12},
    "cv": {"n": 200, "p": 100, "c_grid": None, "cycle": 4},
    "cohort": {"n": 10000, "p": 100, "cycle": 1},
}
SMOKE = {
    "grid": {"n": 60, "p": 40, "reps": 1, "cycle": 2},
    "cv": {"n": 60, "p": 20, "c_grid": [0.3, 0.6, 0.9], "cycle": 2},
    "cohort": {"n": 400, "p": 10, "cycle": 1},
}


def derive_seed(seed, stream, index) -> int:
    """Input seed for item `index` of `stream` (0 measured inputs, 1 warm-up,
    2 CV folds)."""
    ss = np.random.SeedSequence([int(seed), int(stream), int(index)])
    return int(ss.generate_state(1, np.uint32)[0])


class Checks:
    """Operations attempted and failed; a failed operation raised or failed
    an output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{label}: {'; '.join(problems)}")


class Workload:
    def __init__(self, ctx):
        self.ctx = ctx
        self.shape = (SMOKE if ctx.smoke else FULL)[self.shape_key]
        self.cycle = self.shape["cycle"]
        self.op_seconds = []
        self.units = 0
        self._best = {}         # input -> fastest repeat of each step, seconds
        self._input_units = {}  # input -> units one operation on it completes

    def prepare(self):
        """Make the inputs of one cycle; runs before anything is traced."""

    def _clock(self, fn):
        """(result, seconds without fit-check time, fit-check failures)."""
        probe = self.ctx.probe
        failures_before, check_before = len(probe.failures), probe.check_s
        t0 = perf_counter()
        result = fn()
        seconds = perf_counter() - t0 - (probe.check_s - check_before)
        return result, seconds, probe.failures[failures_before:]

    def _timed(self, label, fn):
        """`_clock(fn)`, or None after recording an exception as a failed
        operation."""
        try:
            return self._clock(fn)
        except Exception as exc:   # boundary: record and keep measuring
            self.ctx.checks.record(label, [f"{type(exc).__name__}: {exc}"])
            return None

    def cold_fit_shape(self):
        """(n, p) of the fit timed by the set-up probe."""
        return self.shape["n"], self.shape["p"]

    def _record(self, i, steps, units):
        k = i % self.cycle
        self.op_seconds.append(sum(steps))
        self.units += units
        best = self._best.get(k, steps)
        self._best[k] = [min(a, b) for a, b in zip(best, steps)]
        self._input_units[k] = units

    def ops_per_s(self):
        """Units of one cycle over its seconds, each step of each input
        timed by its fastest repeat: other load on the machine only ever
        slows a step down, so the fastest repeat is the steadiest estimate."""
        if not self._best:
            return 0.0
        return (sum(self._input_units.values())
                / sum(sum(steps) for steps in self._best.values()))


# ------------------------------------------------------------------ grid

class Table1(Workload):
    """Table-1 grid units at n=300, p=2400, all six methods, fixed c; an
    operation is one unit, run in batches of one run_experiment call. A
    cycle is `cycle` batches, each with its own grid seed."""

    shape_key = "grid"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.rows = []
        self.seeds = []

    def prepare(self):
        self.seeds = [derive_seed(self.ctx.seed, 0, k) for k in range(self.cycle)]

    def _batch(self, seed, threads):
        grid = ExperimentGrid(
            n_values=(self.shape["n"],), p_values=(self.shape["p"],),
            designs=(data.Independent(),), methods=METHODS,
            reps=self.shape["reps"], seed=seed, s=S,
            c_by_penalty=dict(C_BY_PENALTY))
        return evaluation.run_experiment(grid, SolverConfig(), threads=threads)

    def warm_up(self):
        self._batch(derive_seed(self.ctx.seed, 1, 0), 1)

    def op(self, i):
        seed = self.seeds[i % self.cycle]
        done = self._timed(f"batch seed {seed}", lambda: self._batch(seed, 1))
        if done is None:
            return
        result, seconds, fit_problems = done
        self._record(i, [seconds], len(result.rows))
        for row in result.rows:
            problems = []
            if "error" in row:
                problems.append(row["error"])
            elif not math.isfinite(row["l2"]):
                problems.append("non-finite l2")
            self.ctx.checks.record(f"{row['penalty']} rep {row['rep']} seed {seed}",
                                   problems)
        for problem in fit_problems:
            self.ctx.checks.record(f"fit in batch seed {seed}", [problem])
        self.rows.extend(result.rows)

    def pool_pass(self, threads):
        """The first batch of the cycle again through the evaluation process
        pool. Every pooled row must match its serial row; returns the pool
        metrics. Row seconds are the program's own timing of each fit,
        taken inside the worker."""
        serial = self.rows[:len(METHODS) * self.shape["reps"]]
        t0 = perf_counter()
        pooled = self._batch(self.seeds[0], threads).rows
        wall = perf_counter() - t0
        for a, b in zip(pooled, serial):
            problems = []
            if ("error" in a) != ("error" in b):
                problems.append("pooled and serial runs disagree on failure")
            elif "error" not in a and (
                    (a["tp"], a["fp"]) != (b["tp"], b["fp"])
                    or abs(a["l2"] - b["l2"]) > 1e-9 * max(1.0, b["l2"])):
                problems.append(f"pooled row differs from serial: {a} vs {b}")
            self.ctx.checks.record(f"pooled vs serial {a['penalty']} rep {a['rep']}",
                                   problems)
        pairs = [(a["seconds"], b["seconds"]) for a, b in zip(pooled, serial)
                 if "error" not in a and "error" not in b and a["penalty"] != "oracle"]
        busy = sum(a["seconds"] for a in pooled if "error" not in a)
        return {
            "evaluation.pool.fit_inflation": (
                median([a for a, _ in pairs]) / median([b for _, b in pairs]),
                "ratio", len(pairs)),
            "evaluation.pool.busy_share": (busy / (threads * wall), "ratio",
                                           len(pooled)),
        }

    def finish(self):
        # whole cycles repeat the same units, so medians are those of one cycle
        ok_rows = [r for r in self.rows if "error" not in r]
        med = {}
        for m in METHODS:
            cell = [r for r in ok_rows if r["penalty"] == m]
            if cell:
                med[m] = {k: float(np.median([r[k] for r in cell]))
                          for k in ("l2", "tp", "fp")}
        if not self.ctx.smoke:   # the bands hold at n=300, p=2400 only
            problems = [f"median TP of {m} is {v['tp']}" for m, v in med.items()
                        if v["tp"] != S]
            problems += [f"no successful {m} unit" for m in METHODS if m not in med]
            for m, (lo, hi) in L2_BANDS.items():
                if m in med and not lo <= med[m]["l2"] <= hi:
                    problems.append(f"median L2 of {m} {med[m]['l2']:.3f} "
                                    f"outside [{lo}, {hi}]")
            if {"lasso", "oracle"} <= set(med) and med["lasso"]["l2"] < 3 * med["oracle"]["l2"]:
                problems.append("lasso median L2 below 3x oracle")
            self.ctx.checks.record("criterion-04 TP and L2 bands", problems)
        tl = [r for r in ok_rows if r["penalty"].startswith("tlamm")]
        fits = self.ctx.probe.seconds
        report = {
            "units_per_s": (self.ops_per_s(), "1/s", self.units),
            "fit_s_p50": (median(fits), "s", len(fits)),
            "fit_s_p90": (pct(fits, 90), "s", len(fits)),
            "l2_tlamm_p50": (float(np.median([r["l2"] for r in tl])), "l2", len(tl)),
            "fp_tlamm_p50": (float(np.median([r["fp"] for r in tl])), "count", len(tl)),
        }
        for m, v in med.items():
            report[f"l2_p50.{m}"] = (v["l2"], "l2",
                                    sum(r["penalty"] == m for r in ok_rows))
        report["ilamm_kkt_exceed"] = (
            self.ctx.probe.ilamm_kkt_exceed, "count",
            sum(r["penalty"].startswith("ilamm") for r in ok_rows))
        return report


# -------------------------------------------------------------------- cv

class CvTune(Workload):
    """cross_validate at the acceptance tuning shape, scad and mcp in turn,
    each call on its own seeded dataset and folds. A call's cost depends
    strongly on its data (how many small-c fits diverge), so a cycle holds
    `cycle` calls and every run measures the whole cycle."""

    shape_key = "cv"
    kinds = ("scad", "mcp")

    def _dataset(self, stream, index):
        return data.simulate_dataset(SimulationConfig(
            n=self.shape["n"], p=self.shape["p"], s=S,
            seed=derive_seed(self.ctx.seed, stream, index)))[0]

    def prepare(self):
        self.inputs = [(self._dataset(0, k), self.kinds[k % 2],
                        derive_seed(self.ctx.seed, 2, k)) for k in range(self.cycle)]

    def _cv(self, ds, kind, fold_seed, c_grid):
        return evaluation.cross_validate(ds, kind, folds=3, c_grid=c_grid,
                                         config=SolverConfig(), seed=fold_seed,
                                         threads=1)

    def warm_up(self):
        self._cv(self._dataset(1, 0), "scad", 0, [0.5, 1.0])

    def op(self, i):
        ds, kind, fold_seed = self.inputs[i % self.cycle]
        label = f"cv {kind} op {i}"
        done = self._timed(label, lambda: self._cv(ds, kind, fold_seed,
                                                   self.shape["c_grid"]))
        if done is None:
            return
        res, seconds, problems = done
        self._record(i, [seconds], 1)
        problems = list(problems)
        if not all(math.isfinite(c) for c in res.criteria):
            problems.append("non-finite CV criterion")
        self.ctx.checks.record(label, problems)

    def finish(self):
        fits = self.ctx.probe.seconds
        return {
            "cv_s": (median(self.op_seconds), "s", len(self.op_seconds)),
            "fit_s_p50": (median(fits), "s", len(fits)),
            "fit_s_p90": (pct(fits, 90), "s", len(fits)),
        }


# -------------------------------------------------------------- cohort

class CohortCli(Workload):
    """Large-n cohort through the CLI: simulate (CSV write), fit (CSV read,
    fit, summary), then concordance_index of the coefficients the CLI
    wrote."""

    shape_key = "cohort"
    penalty = {"kind": "scad", "c": C_BY_PENALTY["scad"]}
    outputs = ("dataset.csv", "dataset.truth.json", "beta.csv", "trace.csv",
               "summary.json")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.parts = {"cli_simulate_s": [], "cli_fit_s": [], "concordance_s": []}

    def _pipeline(self, label, n, sim_seed):
        """Returns (seconds per step, problems)."""
        workdir = os.path.join(self.ctx.out_dir, label)
        os.makedirs(workdir)
        try:
            return self._run_pipeline(workdir, n, sim_seed)
        finally:
            shutil.rmtree(workdir)

    def _run_pipeline(self, workdir, n, sim_seed):
        p = self.shape["p"]
        sim_cfg = {"n": n, "p": p, "s": S, "seed": sim_seed}
        fit_cfg = {"data": {"csv": os.path.join(workdir, "dataset.csv")},
                   "algorithm": "tlamm", "penalty": self.penalty}
        paths = {}
        for name, cfg in (("simulate", sim_cfg), ("fit", fit_cfg)):
            paths[name] = os.path.join(workdir, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        loaded = []
        load_csv = cli.load_csv

        def capture(path):
            loaded.append(load_csv(path))
            return loaded[-1]

        problems, steps = [], []
        cli.load_csv = capture
        try:
            for cmd in ("simulate", "fit"):
                code, seconds, fit_problems = self._clock(
                    lambda: cli.main([cmd, "--config", paths[cmd], "--out", workdir,
                                      "--threads", "1"]))
                steps.append(seconds)
                problems += fit_problems
                if code != 0:
                    problems.append(f"cli {cmd} exited {code}")
        finally:
            cli.load_csv = load_csv
        for out in self.outputs:
            if not os.path.getsize(os.path.join(workdir, out)):
                problems.append(f"{out} empty")
        beta = np.zeros(p)
        with open(os.path.join(workdir, "beta.csv"), encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                j, v = line.split(",")
                beta[int(j)] = float(v)
        t0 = perf_counter()
        c_index = evaluation.concordance_index(beta, loaded[0])
        steps.append(perf_counter() - t0)
        if not 0.5 < c_index <= 1.0:
            problems.append(f"concordance {c_index} outside (0.5, 1]")
        with untraced(self.ctx.tracer):
            ref, _ = simulate_dataset(SimulationConfig(n=n, p=p, s=S, seed=sim_seed))
        if not all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in
                   ((loaded[0].times, ref.times), (loaded[0].status, ref.status),
                    (loaded[0].covariates, ref.covariates))):
            problems.append("load_csv(save_csv(ds)) differs from ds")
        return steps, problems

    def warm_up(self):
        self._pipeline("warm-up", min(self.shape["n"], 1000),
                       derive_seed(self.ctx.seed, 1, 0))

    def op(self, i):
        label = f"pipeline {i}"
        done = self._timed(label, lambda: self._pipeline(
            f"op-{i}", self.shape["n"], derive_seed(self.ctx.seed, 0, i % self.cycle)))
        if done is None:
            return
        (steps, problems), _, _ = done
        for key, seconds in zip(self.parts, steps):
            self.parts[key].append(seconds)
        self._record(i, steps, 1)
        self.ctx.checks.record(label, problems)

    def finish(self):
        report = {k: (median(v), "s", len(v)) for k, v in self.parts.items()}
        fits = self.ctx.probe.seconds
        report["fit_s_p50"] = (median(fits), "s", len(fits))
        return report

