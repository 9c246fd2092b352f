"""Estimation and selection metrics, concordance index, 3-fold tuning of
the penalty scale c in lambda = c sqrt(log p / n), and the simulation grid
runner behind the benchmark tables.

The cross-validation criterion is the held-out partial-likelihood deviance
sum_k [ n * nll_full(beta_k) - n_train * nll_train(beta_k) ]: subtracting
the training likelihood at the training fit avoids the bias a per-fold
partial likelihood picks up from fold-specific risk sets. A c with a
fold fit that did not converge (saturated, max_iter or stalled) is never
preferred to one whose fold fits all converged. Each fold's c grid is fit
as one path, largest c first, each smaller c warm from the previous fit.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .cox import CoxObjective, fit_restricted
from .data import (Independent, Signal, SimulationConfig, SurvivalDataset,
                   check_seed, check_support, is_integer, simulate_dataset,
                   write_rows)
from .errors import ConfigError, DataError, SolverError, UndefinedMetricError
from .penalties import PenaltySpec
from .solver import FitResult, SolverConfig, ilamm, tlamm

__all__ = ["SelectionMetrics", "CvResult", "ExperimentGrid",
           "ExperimentResult", "l2_error", "selection_metrics",
           "concordance_index", "cross_validate", "run_experiment",
           "default_c_grid", "scaled_lambda"]

METHODS = ("oracle", "lasso", "tlamm-scad", "tlamm-mcp", "ilamm-scad", "ilamm-mcp")
# cell-median keys; results.csv adds the unit's keys and status, seconds last
_METRICS = ("l2", "tp", "fp", "sens", "spec", "iters1", "iters2", "seconds")
_ROW_KEYS = ("design", "penalty", "n", "p", "rep", *_METRICS[:-1], "status", "seconds")


def default_c_grid():
    return [0.05 * k for k in range(1, 21)]


def scaled_lambda(c: float, n: int, p: int) -> float:
    """The penalty level lambda = c sqrt(log p / n) of scale c, for p > 1."""
    if p == 1:
        raise ConfigError("c cannot set lambda at p = 1, where log p = 0 makes it 0")
    return c * math.sqrt(math.log(p) / n)


# ----------------------------------------------------------------- metrics

def l2_error(beta_hat, beta_star) -> float:
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    beta_star = np.asarray(beta_star, dtype=np.float64)
    if beta_hat.shape != beta_star.shape:
        raise ValueError(f"length mismatch: {beta_hat.shape} vs {beta_star.shape}")
    return float(np.linalg.norm(beta_hat - beta_star))


@dataclass(frozen=True)
class SelectionMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    sensitivity: float
    specificity: float


def selection_metrics(beta_hat, true_support) -> SelectionMetrics:
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    p = beta_hat.size
    truth = np.zeros(p, dtype=bool)
    truth[check_support(true_support, p)] = True
    selected = np.abs(beta_hat) > 0.0
    tp = int(np.sum(selected & truth))
    fp = int(np.sum(selected & ~truth))
    fn = int(np.sum(~selected & truth))
    tn = int(np.sum(~selected & ~truth))
    sens = tp / (tp + fn) if tp + fn else float("nan")
    spec = tn / (tn + fp) if tn + fp else float("nan")
    return SelectionMetrics(tp, fp, fn, tn, sens, spec)


def concordance_index(beta_hat, dataset: SurvivalDataset) -> float:
    """Harrell's C: concordant / (concordant + discordant) over subject pairs.

    A pair is usable when the earlier observed time belongs to an event and
    the times differ; it is concordant when that subject has the strictly
    larger risk score, discordant when strictly smaller, and dropped from
    both counts on a tied score.

    Subjects are swept in descending time over a Fenwick tree of the dense
    ranks of the risk scores. Each tied-time group first queries its events
    against the strictly later subjects already inserted, then inserts
    itself, so tied times never pair. O(n log n) time, O(n) memory; the
    counts are exact integers.
    """
    eta = dataset.covariates @ np.asarray(beta_hat, dtype=np.float64)
    # a NaN score compares false both ways, so its subject is in no pair
    keep = ~np.isnan(eta)
    scores, rank = np.unique(eta[keep], return_inverse=True)
    order = np.argsort(dataset.times[keep])[::-1]
    times = dataset.times[keep][order].tolist()
    events = dataset.status[keep][order].tolist()
    ranks = (rank[order] + 1).tolist()       # 1-based tree positions
    size = scores.size
    tree = [0] * (size + 1)                  # Fenwick counts by rank
    at_rank = [0] * (size + 1)               # inserted count of each rank
    conc = disc = inserted = 0
    start, n = 0, len(times)
    while start < n:
        stop = start + 1
        while stop < n and times[stop] == times[start]:
            stop += 1
        for k in range(start, stop):
            if events[k]:
                r = ranks[k]
                below, i = 0, r - 1
                while i:
                    below += tree[i]
                    i &= i - 1
                conc += below
                disc += inserted - below - at_rank[r]
        for k in range(start, stop):
            r = i = ranks[k]
            at_rank[r] += 1
            while i <= size:
                tree[i] += 1
                i += i & -i
        inserted += stop - start
        start = stop
    if conc + disc == 0:
        raise UndefinedMetricError("no usable pairs: times or risk scores all tied")
    return conc / (conc + disc)


# ------------------------------------------------------------------- tuning

@dataclass(frozen=True)
class CvResult:
    c_grid: tuple
    criteria: tuple
    statuses: tuple            # per c, one FitResult.status per fold
    chosen_c: float            # least criterion among c whose folds all converged
    chosen_lambda: float
    fold_seed: int
    criterion = "held_out_partial_likelihood_deviance"


def _make_folds(n, n_folds, seed, status):
    """Seeded permutation partition; resplit (seed+1, ..., seed+9, mod
    2**64 so the seed used stays a valid seed) until every training part
    holds an event."""
    for attempt in range(10):
        fold_seed = (seed + attempt) % 2**64
        parts = np.array_split(np.random.default_rng(fold_seed).permutation(n), n_folds)
        if all(np.delete(status, part).any() for part in parts):
            return parts, fold_seed
    raise DataError(
        f"could not split into {n_folds} folds with events in every "
        "training part after 10 attempts")


def _cv_fit_task(train, spec, config, start):
    """One fold fit, warm from `start` (the previous c's fit) when given."""
    return tlamm(train, spec, config, start=start)


def _cv_fold_path(args):
    """One fold's c grid as a path: given the specs in c order, fits them
    from the largest c down, the first cold and each next one warm from the
    fit before it. Returns (beta, status) per spec, in c order."""
    train, specs, config = args
    fit, out = None, []
    for spec in reversed(specs):
        fit = _cv_fit_task(train, spec, config, fit)
        out.append((fit.beta, fit.status))
    return out[::-1]


def cross_validate(dataset: SurvivalDataset, penalty_kind: str,
                   folds: int = 3, c_grid=None,
                   config: SolverConfig = SolverConfig(), seed: int = 0,
                   shape: float = float("nan"), threads: int = 1) -> CvResult:
    """Tune c over the grid by k-fold held-out deviance; ties go to the
    smallest c, and a c with an unconverged fold fit loses to any c whose
    fold fits all converged. Every fold fit for a given c uses the same
    lambda_c = c sqrt(log p / n) with n the full-sample size.

    Each fold is one task: its fits run from the largest c down, each warm
    from the one before, so a fold fit depends on its neighbouring c, and
    a saturated fit leaves every smaller c of its fold saturated with no
    step. More threads than folds add nothing.
    """
    c_grid = sorted(default_c_grid() if c_grid is None else [float(c) for c in c_grid])
    if not c_grid or any(c <= 0 for c in c_grid):
        raise ConfigError("c grid must be non-empty and positive")
    if len(set(c_grid)) < len(c_grid):
        raise ConfigError(f"c_grid must not repeat a value, got {c_grid}")
    if not (is_integer(folds) and 2 <= folds <= dataset.n):
        raise ConfigError("folds must lie in [2, n]")
    check_seed(seed)
    _check_threads(threads)
    parts, fold_seed = _make_folds(dataset.n, folds, seed, dataset.status)
    full_obj = CoxObjective(dataset)
    trains = [dataset.subset(np.delete(np.arange(dataset.n), part)) for part in parts]
    train_objs = [CoxObjective(train) for train in trains]

    specs = [PenaltySpec(penalty_kind, scaled_lambda(c, dataset.n, dataset.p), shape)
             for c in c_grid]
    paths = list(_pmap(_cv_fold_path, [(train, specs, config) for train in trains], threads))

    criteria, statuses = [], []
    for i in range(len(c_grid)):
        total = 0.0
        c_statuses = []
        for train, train_obj, path in zip(trains, train_objs, paths):
            beta, status = path[i]
            c_statuses.append(status)
            total += dataset.n * full_obj.nll(beta) - train.n * train_obj.nll(beta)
        criteria.append(total)
        statuses.append(tuple(c_statuses))
    best = min(range(len(c_grid)),
               key=lambda i: (any(s != "converged" for s in statuses[i]), criteria[i]))
    chosen_c = c_grid[best]
    return CvResult(c_grid=tuple(c_grid), criteria=tuple(criteria),
                    statuses=tuple(statuses), chosen_c=chosen_c,
                    chosen_lambda=scaled_lambda(chosen_c, dataset.n, dataset.p),
                    fold_seed=fold_seed)


# -------------------------------------------------------------------- grid

@dataclass(frozen=True, kw_only=True)
class ExperimentGrid:
    n_values: tuple
    p_values: tuple
    designs: tuple = (Independent(),)
    methods: tuple
    reps: int
    seed: int = 0
    c_by_penalty: dict = field(default_factory=dict)
    # the simulation model; None takes SimulationConfig's default
    s: int = None
    signal: Signal = None
    censoring: tuple = None

    def __post_init__(self):
        for name in ("n_values", "p_values", "designs"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        # cells are matched by value and by design name, so none may repeat
        for name, keys in (("n_values", self.n_values), ("p_values", self.p_values),
                           ("designs", [d.name for d in self.designs]),
                           ("methods", self.methods)):
            if len(set(keys)) < len(keys):
                raise ConfigError(f"{name} must not repeat a value, got {list(keys)}")
        for m in self.methods:
            kind = method_penalty_kind(m)
            if kind is not None and kind not in self.c_by_penalty:
                raise ConfigError(f"method {m!r} needs c_by_penalty[{kind!r}]")
        if not (is_integer(self.reps) and self.reps >= 1):
            raise ConfigError("reps must be positive")
        check_seed(self.seed)
        # every cell's model and penalty levels are checked before any runs
        for design, n, p in itertools.product(self.designs, self.n_values, self.p_values):
            self.simulation(design, n, p, 0)
            for kind, c in self.c_by_penalty.items():
                try:
                    PenaltySpec(kind, scaled_lambda(c, n, p))
                except ConfigError as exc:
                    raise ConfigError(f"c_by_penalty[{kind!r}]: {exc}") from None

    def simulation(self, design, n: int, p: int, seed: int) -> SimulationConfig:
        """One dataset's SimulationConfig under the grid's model, s clamped to p."""
        return SimulationConfig(n=n, p=p, s=None if self.s is None else min(self.s, p),
                                signal=self.signal, design=design,
                                censoring=self.censoring, seed=seed)


@dataclass
class ExperimentResult:
    rows: list
    cell_medians: list
    failures: list


def method_penalty_kind(method: str):
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
    return None if method == "oracle" else method.split("-")[-1]


def _data_seed(master_seed, design_idx, n, p, rep) -> int:
    ss = np.random.SeedSequence([int(master_seed), design_idx, n, p, rep])
    return int(ss.generate_state(1, np.uint64)[0])


def _run_rep(args):
    """One (design, n, p, rep) dataset: simulate it once, then fit and
    score every method on it in grid order. Returns one row dict per
    method."""
    (grid, config, design_idx, design, n, p, rep) = args
    dataset, beta_star = simulate_dataset(
        grid.simulation(design, n, p, _data_seed(grid.seed, design_idx, n, p, rep)))
    true_support = np.flatnonzero(beta_star != 0)
    rows = []
    for method in grid.methods:
        row = {"design": design.name, "penalty": method, "n": n, "p": p, "rep": rep}
        rows.append(row)
        try:
            if method == "oracle":
                t0 = time.perf_counter()
                beta = fit_restricted(dataset, true_support)
                seconds = time.perf_counter() - t0
                iters1 = iters2 = 0
                status = "converged"      # fit_restricted raises otherwise
            else:
                kind = method_penalty_kind(method)
                spec = PenaltySpec(kind, scaled_lambda(grid.c_by_penalty[kind], n, p))
                fit: FitResult = (tlamm if method.startswith(("lasso", "tlamm"))
                                  else ilamm)(dataset, spec, config)
                beta, seconds, status = fit.beta, fit.seconds, fit.status
                iters1, iters2 = fit.iterations
        except (SolverError, DataError) as exc:
            row.update(error=f"{type(exc).__name__}: {exc}")
            continue
        sel = selection_metrics(beta, true_support)
        row.update(l2=l2_error(beta, beta_star), tp=sel.tp, fp=sel.fp,
                   sens=sel.sensitivity, spec=sel.specificity,
                   iters1=iters1, iters2=iters2, seconds=seconds, status=status)
    return rows


def _check_threads(threads):
    if not (is_integer(threads) and threads >= 1):
        raise ConfigError(f"threads must be a positive integer, got {threads!r}")


def _pmap(fn, tasks, threads):
    """fn over tasks, results yielded in task order as they are ready; a
    process pool of min(threads, len(tasks)) workers when both exceed 1."""
    if threads <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # kept out of a cold import
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        yield from pool.map(fn, tasks, chunksize=1)


def run_experiment(grid: ExperimentGrid,
                   config: SolverConfig = SolverConfig(),
                   threads: int = 1, out_csv=None) -> ExperimentResult:
    """Run every (design, method, n, p, rep) unit of the grid.

    One task simulates the (design, n, p, rep) dataset, seeded from those
    and the grid seed, once and fits every method on it, so all methods
    see identical data within a rep and results do not depend on the
    thread count. Rows are rep-major (design, n, p, rep, then method, each
    in grid order) and stream to out_csv rep by rep, where a failed unit's
    metrics and status read nan. Failed units are listed in `failures` and
    skipped in medians; each cell counts in `reps_nonconverged` the fits in
    its medians whose status is not "converged".
    """
    _check_threads(threads)
    tasks = [(grid, config, di, design, int(n), int(p), rep)
             for (di, design), n, p, rep in itertools.product(
                 enumerate(grid.designs), grid.n_values, grid.p_values,
                 range(grid.reps))]
    rows = []
    with open(out_csv or os.devnull, "w", encoding="utf-8") as fh:
        write_rows(fh, [_ROW_KEYS])
        for rep_rows in _pmap(_run_rep, tasks, threads):
            rows.extend(rep_rows)
            write_rows(fh, ([row.get(key, "nan") for key in _ROW_KEYS] for row in rep_rows))
            fh.flush()      # a long grid's finished reps persist as it runs

    failures = [r for r in rows if "error" in r]
    medians = []
    for design, method, n, p in itertools.product(
            grid.designs, grid.methods, grid.n_values, grid.p_values):
        n, p = int(n), int(p)
        cell_rows = [r for r in rows
                     if r["design"] == design.name and r["penalty"] == method
                     and r["n"] == n and r["p"] == p and "error" not in r]
        med = ({key: float(np.median([r[key] for r in cell_rows])) for key in _METRICS}
               if cell_rows else {})
        medians.append({"design": design.name, "method": method, "n": n,
                        "p": p, "reps_ok": len(cell_rows),
                        "reps_failed": grid.reps - len(cell_rows),
                        "reps_nonconverged": sum(r["status"] != "converged"
                                                 for r in cell_rows),
                        "median": med})
    return ExperimentResult(rows=rows, cell_medians=medians, failures=failures)
