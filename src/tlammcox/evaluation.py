"""Estimation and selection metrics, concordance index, 3-fold tuning of
the penalty scale c in lambda = c sqrt(log p / n), and the simulation grid
runner behind the benchmark tables.

The cross-validation criterion is the held-out partial-likelihood deviance
sum_k [ n * nll_full(beta_k) - n_train * nll_train(beta_k) ]: subtracting
the training likelihood at the training fit avoids the bias a per-fold
partial likelihood picks up from fold-specific risk sets. A c with a
saturated fold fit (support at least the training events) is never
preferred to one without.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cox import CoxObjective, fit_restricted
from .data import (ConstantSignal, Signal, SimulationConfig, SurvivalDataset,
                   simulate_dataset)
from .errors import ConfigError, DataError, SolverError, UndefinedMetricError
from .penalties import DEFAULT_MCP_GAMMA, DEFAULT_SCAD_A, PenaltySpec
from .solver import FitResult, SolverConfig, ilamm, tlamm

__all__ = ["SelectionMetrics", "CvResult", "ExperimentGrid",
           "ExperimentResult", "l2_error", "selection_metrics",
           "concordance_index", "cross_validate", "run_experiment",
           "default_c_grid", "EXPERIMENT_CSV_HEADER"]

CV_CRITERION_NAME = "held_out_partial_likelihood_deviance"
EXPERIMENT_CSV_HEADER = "design,penalty,n,p,rep,l2,tp,fp,sens,spec,iters1,iters2,seconds"
METHODS = ("oracle", "lasso", "tlamm-scad", "tlamm-mcp", "ilamm-scad", "ilamm-mcp")


def default_c_grid():
    return [0.05 * k for k in range(1, 21)]


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


def selection_metrics(beta_hat, true_support, zero_tol: float = 0.0) -> SelectionMetrics:
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    p = beta_hat.size
    truth = np.zeros(p, dtype=bool)
    truth[np.asarray(list(true_support), dtype=np.intp)] = True
    selected = np.abs(beta_hat) > zero_tol
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
    chosen_c: float
    chosen_lambda: float
    criterion: str = CV_CRITERION_NAME
    fold_seed: int = 0


def _make_folds(n, n_folds, seed, status, attempts=10):
    """Seeded permutation partition; resplit (seed+1, ...) until every
    training part holds an event."""
    for attempt in range(attempts):
        rng = np.random.default_rng(seed + attempt)
        parts = np.array_split(rng.permutation(n), n_folds)
        if all(np.delete(status, part).any() for part in parts):
            return [np.sort(part) for part in parts], seed + attempt
    raise DataError(
        f"could not split into {n_folds} folds with events in every "
        f"training part after {attempts} attempts")


def _cv_fit_task(args):
    train, spec, config = args
    fit = tlamm(train, spec, config)
    return fit.beta, fit.status


def cross_validate(dataset: SurvivalDataset, penalty_kind: str,
                   folds: int = 3, c_grid=None,
                   config: SolverConfig = SolverConfig(), seed: int = 0,
                   shape: float = float("nan"), threads: int = 1) -> CvResult:
    """Tune c over the grid by k-fold held-out deviance; ties go to the
    smallest c, and a c with a saturated fold fit loses to any c without
    one. Every fold fit for a given c uses the same
    lambda_c = c sqrt(log p / n) with n the full-sample size.
    """
    c_grid = sorted(default_c_grid() if c_grid is None else [float(c) for c in c_grid])
    if not c_grid or any(c <= 0 for c in c_grid):
        raise ConfigError("c grid must be non-empty and positive")
    if folds < 2 or folds > dataset.n:
        raise ConfigError("folds must lie in [2, n]")
    parts, fold_seed = _make_folds(dataset.n, folds, seed, dataset.status)
    full_obj = CoxObjective(dataset)
    trains, train_objs = [], []
    for part in parts:
        mask = np.ones(dataset.n, dtype=bool)
        mask[part] = False
        train = dataset.subset(np.flatnonzero(mask))
        trains.append(train)
        train_objs.append(CoxObjective(train))

    tasks = []
    for c in c_grid:
        lam = c * math.sqrt(math.log(dataset.p) / dataset.n)
        for train in trains:
            tasks.append((train, PenaltySpec(penalty_kind, lam, shape), config))
    fits = iter(list(_pmap(_cv_fit_task, tasks, threads)))

    criteria, statuses = [], []
    for _c in c_grid:
        total = 0.0
        c_statuses = []
        for train, train_obj in zip(trains, train_objs):
            beta, status = next(fits)
            c_statuses.append(status)
            total += dataset.n * full_obj.nll(beta) - train.n * train_obj.nll(beta)
        criteria.append(total)
        statuses.append(tuple(c_statuses))
    best = min(range(len(c_grid)),
               key=lambda i: ("saturated" in statuses[i], criteria[i]))
    chosen_c = c_grid[best]
    chosen_lambda = chosen_c * math.sqrt(math.log(dataset.p) / dataset.n)
    return CvResult(c_grid=tuple(c_grid), criteria=tuple(criteria),
                    statuses=tuple(statuses), chosen_c=chosen_c,
                    chosen_lambda=chosen_lambda, fold_seed=fold_seed)


# -------------------------------------------------------------------- grid

@dataclass(frozen=True)
class ExperimentGrid:
    n_values: tuple
    p_values: tuple
    designs: tuple
    methods: tuple
    reps: int
    seed: int
    c_by_penalty: dict
    s: int = 10
    signal: Signal = ConstantSignal(0.8)
    censoring: tuple = (2.0, 3.0)
    scad_a: float = DEFAULT_SCAD_A
    mcp_gamma: float = DEFAULT_MCP_GAMMA

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
            kind = method_penalty_kind(m)
            if kind is not None and kind not in self.c_by_penalty:
                raise ConfigError(f"method {m!r} needs c_by_penalty[{kind!r}]")
        if self.reps < 1:
            raise ConfigError("reps must be positive")


@dataclass
class ExperimentResult:
    rows: list
    cell_medians: list
    failures: list = field(default_factory=list)

    @property
    def any_failed(self) -> bool:
        return bool(self.failures)


def method_penalty_kind(method: str):
    if method == "oracle":
        return None
    if method == "lasso":
        return "lasso"
    return method.split("-", 1)[1]


def _data_seed(master_seed, design_idx, n, p, rep) -> int:
    ss = np.random.SeedSequence([int(master_seed), design_idx, n, p, rep])
    return int(ss.generate_state(1, np.uint64)[0])


def _run_rep(args):
    """One (design, n, p, rep) dataset: simulate it once, then fit and
    score every method on it in grid order. Returns one row dict per
    method."""
    (grid, config, design_idx, design, n, p, rep) = args
    sim = SimulationConfig(n=n, p=p, s=min(grid.s, p), signal=grid.signal,
                           design=design,
                           censoring_low=grid.censoring[0],
                           censoring_high=grid.censoring[1],
                           seed=_data_seed(grid.seed, design_idx, n, p, rep))
    dataset, beta_star = simulate_dataset(sim)
    true_support = np.flatnonzero(beta_star != 0)
    shapes = {"lasso": float("nan"), "scad": grid.scad_a, "mcp": grid.mcp_gamma}
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
                lam = grid.c_by_penalty[kind] * math.sqrt(math.log(p) / n)
                spec = PenaltySpec(kind, lam, shapes[kind])
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


def _pmap(fn, tasks, threads):
    """fn over tasks, results yielded in task order as they are ready; a
    process pool of `threads` workers when threads > 1."""
    if threads <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, tasks, chunksize=1)


def format_row(row) -> str:
    vals = [row["design"], row["penalty"], row["n"], row["p"], row["rep"]]
    if "error" in row:
        vals += ["nan"] * 8
    else:
        vals += [repr(float(row["l2"])), row["tp"], row["fp"],
                 repr(float(row["sens"])), repr(float(row["spec"])),
                 row["iters1"], row["iters2"], repr(float(row["seconds"]))]
    return ",".join(str(v) for v in vals)


def run_experiment(grid: ExperimentGrid,
                   config: SolverConfig = SolverConfig(),
                   threads: int = 1, out_csv=None) -> ExperimentResult:
    """Run every (design, method, n, p, rep) unit of the grid.

    One task simulates the (design, n, p, rep) dataset, seeded from those
    and the grid seed, once and fits every method on it, so all methods
    see identical data within a rep and results do not depend on the
    thread count. Rows are rep-major (design, n, p, rep, then method, each
    in grid order) and stream to out_csv rep by rep. Failed units are
    recorded and skipped in medians; each cell counts in
    `reps_nonconverged` the fits in its medians whose status is not
    "converged".
    """
    tasks = [(grid, config, di, design, int(n), int(p), rep)
             for (di, design), n, p, rep in itertools.product(
                 enumerate(grid.designs), grid.n_values, grid.p_values,
                 range(grid.reps))]
    fh = open(str(out_csv), "w", encoding="utf-8") if out_csv else None
    rows = []
    try:
        if fh:
            fh.write(EXPERIMENT_CSV_HEADER + "\n")
            fh.flush()
        for rep_rows in _pmap(_run_rep, tasks, threads):
            rows.extend(rep_rows)
            if fh:
                fh.writelines(format_row(row) + "\n" for row in rep_rows)
                fh.flush()
    finally:
        if fh:
            fh.close()

    failures = [r for r in rows if "error" in r]
    medians = []
    for design, method, n, p in itertools.product(
            grid.designs, grid.methods, grid.n_values, grid.p_values):
        n, p = int(n), int(p)
        cell_rows = [r for r in rows
                     if r["design"] == design.name and r["penalty"] == method
                     and r["n"] == n and r["p"] == p and "error" not in r]
        med = {}
        if cell_rows:
            for key in ("l2", "tp", "fp", "sens", "spec", "iters1", "iters2",
                        "seconds"):
                med[key] = float(np.median([r[key] for r in cell_rows]))
        medians.append({"design": design.name, "method": method, "n": n,
                        "p": p, "reps_ok": len(cell_rows),
                        "reps_failed": grid.reps - len(cell_rows),
                        "reps_nonconverged": sum(r["status"] != "converged"
                                                 for r in cell_rows),
                        "median": med})
    return ExperimentResult(rows=rows, cell_medians=medians, failures=failures)
