import concurrent.futures
import csv
import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tlammcox import (ConfigError, CoxObjective, DataError, Independent,
                      SimulationConfig, SolverConfig, SurvivalDataset,
                      UndefinedMetricError, concordance_index, cross_validate,
                      l2_error, lse_probe, selection_metrics, simulate_dataset)
from tlammcox import evaluation
from tlammcox.data import Autoregressive, check_seed
from tlammcox.errors import LineSearchError
from tlammcox.evaluation import (ExperimentGrid, default_c_grid,
                                 method_penalty_kind, run_experiment)
from conftest import brute_force_concordance, random_dataset, traced_peak


def test_l2_error_examples():
    b = np.arange(4.0)
    assert l2_error(b, b) == 0.0
    star = np.zeros(20)
    star[:10] = 0.8
    assert_allclose(l2_error(np.zeros(20), star), math.sqrt(10 * 0.64), rtol=1e-12)
    e = np.zeros(3)
    e[1] = 1.0
    assert l2_error(e, np.zeros(3)) == 1.0
    with pytest.raises(ValueError):
        l2_error(np.zeros(3), np.zeros(4))


def test_selection_metrics_examples():
    star_support = [0, 1, 2]
    beta = np.zeros(10)
    beta[[0, 1, 2]] = 1.0
    m = selection_metrics(beta, star_support)
    assert (m.tp, m.fp, m.sensitivity, m.specificity) == (3, 0, 1.0, 1.0)
    m = selection_metrics(np.zeros(10), star_support)
    assert (m.tp, m.sensitivity, m.specificity) == (0, 0.0, 1.0)
    # an empty true support, which numpy alone would read as float64
    m = selection_metrics(beta, [])
    assert (m.tp, m.fp, m.fn, m.tn) == (0, 3, 0, 7) and math.isnan(m.sensitivity)


@pytest.mark.parametrize("support", [[-1], [0.5, 1.5], [10], [True], np.array([1.0])],
                         ids=["negative", "fractions", "past-p", "bool", "float-array"])
def test_selection_metrics_refuses_a_support_outside_the_columns(support):
    # at p = 10, -1 would count column 9, 0.5 and 1.5 would truncate to 0
    # and 1, and True would count column 1
    with pytest.raises(ValueError, match=r"support indices out of range: .* in \[0, 10\)"):
        selection_metrics(np.ones(10), support)


def test_selection_metrics_identities():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = int(rng.integers(3, 30))
        s = int(rng.integers(1, p))
        beta = rng.standard_normal(p) * rng.integers(0, 2, p)
        m = selection_metrics(beta, range(s))
        assert m.tp + m.fn == s
        assert m.fp + m.tn == p - s
        assert m.sensitivity == m.tp / s
        assert m.specificity == m.tn / (p - s)


def test_selection_metrics_zero_tol():
    # the zero tolerance is exactly 0: every nonzero coefficient is selected
    beta = np.array([0.5, 1e-9, 0.0])
    assert selection_metrics(beta, [0]).fp == 1


def test_concordance_perfectly_ordered():
    # higher risk score fails first, no censoring: every pair concordant
    n = 12
    x = np.linspace(1, -1, n).reshape(-1, 1)
    times = np.arange(1.0, n + 1.0)
    ds = SurvivalDataset(times, np.ones(n), x)
    assert concordance_index(np.array([1.0]), ds) == 1.0


def test_concordance_constant_score_undefined():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, 10, 2)
    with pytest.raises(UndefinedMetricError):
        concordance_index(np.zeros(2), ds)


def test_concordance_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(4, 13))
        ds = random_dataset(rng, n, 2, censor_frac=0.4)
        beta = rng.standard_normal(2)
        expected = brute_force_concordance(beta, ds)
        if expected is None:
            with pytest.raises(UndefinedMetricError):
                concordance_index(beta, ds)
        else:
            assert concordance_index(beta, ds) == expected


def test_concordance_scale_invariance():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 25, 3)
    beta = rng.standard_normal(3)
    a = concordance_index(beta, ds)
    assert concordance_index(5.0 * beta, ds) == a


def test_concordance_ties_match_brute_force():
    # integer times and scores: tied event/event and event/censored times,
    # tied risk scores, and all-tied-score cases that must raise
    rng = np.random.default_rng(11)
    for case in range(200):
        n = int(rng.integers(2, 151))
        times = rng.integers(1, max(2, n // 4), size=n).astype(float)
        status = (rng.uniform(size=n) < 0.6).astype(int)
        x = rng.integers(-2, 3, size=(n, 3)).astype(float)
        beta = np.zeros(3) if case % 10 == 0 else rng.integers(-2, 3, size=3).astype(float)
        ds = SurvivalDataset(times, status, x)
        expected = brute_force_concordance(beta, ds)
        if case % 10 == 0:
            assert expected is None
        if expected is None:
            with pytest.raises(UndefinedMetricError):
                concordance_index(beta, ds)
        else:
            assert concordance_index(beta, ds) == expected


def test_concordance_nan_scores_pair_with_nothing():
    # inf * 0 makes some scores NaN; they compare false both ways
    rng = np.random.default_rng(12)
    x = rng.integers(-1, 2, size=(40, 2)).astype(float)
    ds = SurvivalDataset(rng.integers(1, 10, size=40).astype(float),
                         rng.integers(0, 2, size=40), x)
    beta = np.array([np.inf, 1.0])
    with np.errstate(invalid="ignore"):
        assert np.isnan(ds.covariates @ beta).any()
        expected = brute_force_concordance(beta, ds)
        assert expected is not None
        assert concordance_index(beta, ds) == expected


def test_concordance_memory_linear_in_n():
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 20000, 5)
    beta = rng.standard_normal(5)
    assert traced_peak(lambda: concordance_index(beta, ds)) < 16e6


def test_default_c_grid():
    grid = default_c_grid()
    assert len(grid) == 20
    assert_allclose(grid[0], 0.05)
    assert_allclose(grid[-1], 1.0)


def test_cross_validate_single_c():
    ds, _ = simulate_dataset(SimulationConfig(n=90, p=10, s=3, seed=4))
    res = cross_validate(ds, "lasso", c_grid=[0.4], seed=0)
    assert res.chosen_c == 0.4
    assert res.chosen_lambda == pytest.approx(0.4 * math.sqrt(math.log(10) / 90))
    assert len(res.criteria) == 1 and np.isfinite(res.criteria[0])


def test_cross_validate_tie_prefers_smaller_c():
    # both c values sit above the all-zero threshold, so every fold fit is
    # the zero vector and the criteria tie exactly
    ds, _ = simulate_dataset(SimulationConfig(n=60, p=5, s=2, seed=5))
    obj = CoxObjective(ds)
    lam_max = float(np.abs(obj.gradient(np.zeros(5))).max())
    c_floor = 2 * lam_max / math.sqrt(math.log(5) / 60)
    res = cross_validate(ds, "lasso", c_grid=[c_floor, 2 * c_floor], seed=0)
    assert res.criteria[0] == res.criteria[1]
    assert res.chosen_c == c_floor


def test_cross_validate_deterministic():
    ds, _ = simulate_dataset(SimulationConfig(n=90, p=10, s=3, seed=6))
    a = cross_validate(ds, "scad", c_grid=[0.3, 0.6], seed=3)
    b = cross_validate(ds, "scad", c_grid=[0.3, 0.6], seed=3)
    assert a.criteria == b.criteria and a.chosen_c == b.chosen_c


def test_cross_validate_never_prefers_a_saturated_c(monkeypatch):
    ds, _ = simulate_dataset(SimulationConfig(n=90, p=10, s=3, seed=6))
    grid = [0.2, 0.4, 0.6]
    plain = cross_validate(ds, "scad", c_grid=grid, seed=3)
    assert all(s == ("converged",) * 3 for s in plain.statuses)
    fit_task = evaluation._cv_fit_task
    marked = []

    def saturate_one_fold_of_best_c(*args):
        # the marked fit is handed on as the next c's start unchanged but
        # for its status, so every beta and criterion stays as it was
        fit = fit_task(*args)
        if args[1].lam == plain.chosen_lambda and not marked:
            marked.append(args)
            fit = dataclasses.replace(fit, status="saturated")
        return fit

    monkeypatch.setattr(evaluation, "_cv_fit_task", saturate_one_fold_of_best_c)
    res = cross_validate(ds, "scad", c_grid=grid, seed=3)
    assert marked and res.criteria == plain.criteria
    best = grid.index(plain.chosen_c)
    assert res.statuses[best].count("saturated") == 1
    rest = [i for i in range(len(grid)) if i != best]
    assert res.chosen_c == grid[min(rest, key=lambda i: res.criteria[i])]


def test_cross_validate_scores_only_finished_fits():
    # under a 14-step cap the first fold's fit at c = 0.6, the cold end of
    # its path (19 stage-2 steps uncapped), ends max_iter, and its
    # unfinished beta gives 0.6 the lower criterion; every fold fit at
    # c = 0.1, warm from its fold's 0.6 fit, converges in at most 13 steps
    ds, _ = simulate_dataset(SimulationConfig(n=90, p=10, s=3, seed=5))
    res = cross_validate(ds, "scad", c_grid=[0.1, 0.6], seed=3,
                         config=SolverConfig(max_iter_stage=14))
    assert res.statuses[0] == ("converged",) * 3 and "max_iter" in res.statuses[1]
    assert res.criteria[1] < res.criteria[0]
    assert res.chosen_c == 0.1


def test_cross_validate_is_alike_at_any_pool_size():
    # one task per fold path, so a pool of three runs each fold's path whole
    ds, _ = simulate_dataset(SimulationConfig(n=90, p=10, s=3, seed=6))
    one, three = (cross_validate(ds, "scad", c_grid=[0.2, 0.4, 0.6], seed=3, threads=t)
                  for t in (1, 3))
    assert one == three


def test_cross_validate_runs_each_fold_as_a_path(monkeypatch):
    # largest c first and cold, then warm down the grid; once a fold's fit
    # saturates, every smaller c of that fold starts saturated, takes no step
    ds, _ = simulate_dataset(SimulationConfig(n=80, p=60, s=4, seed=2))
    fits = []
    fit_tlamm = evaluation.tlamm

    def recording(train, spec, config, start=None):
        fit = fit_tlamm(train, spec, config, start=start)
        fits.append((spec.lam, start, fit))
        return fit

    monkeypatch.setattr(evaluation, "tlamm", recording)
    res = cross_validate(ds, "scad", c_grid=[0.1, 0.2, 0.3, 0.5], seed=1)
    assert len(fits) == 12
    paths = [fits[k:k + 4] for k in range(0, 12, 4)]
    for fold, path in enumerate(paths):
        assert [lam for lam, _, _ in path] == sorted((lam for lam, _, _ in path), reverse=True)
        assert path[0][1] is None and path[0][2].iterations[0] > 0
        assert all(start is prev for (_, start, _), (_, _, prev) in zip(path[1:], path))
        assert [fit.status for _, _, fit in path] == [s[fold] for s in res.statuses[::-1]]
    saturated = [[fit.status == "saturated" for _, _, fit in path] for path in paths]
    assert any(any(flags[:-1]) for flags in saturated)
    for path, flags in zip(paths, saturated):
        first = flags.index(True) if True in flags else len(flags)
        assert all(flags[first:])
        assert all(fit.iterations == (0, 0) for _, _, fit in path[first + 1:])


def test_cross_validate_fold_seed_wraps_at_the_top_of_the_range():
    # seed 2**64 - 1 puts both events in one fold, so the resplit seed wraps
    # to 0: a valid seed that, passed back, gives the same folds
    status = np.zeros(6)
    status[[0, 3]] = 1
    ds = SurvivalDataset(np.arange(1.0, 7.0), status,
                         np.random.default_rng(1).standard_normal((6, 2)))
    res = cross_validate(ds, "lasso", c_grid=[0.5, 1.0], seed=2**64 - 1)
    assert res.fold_seed == 0
    check_seed(res.fold_seed)
    again = cross_validate(ds, "lasso", c_grid=[0.5, 1.0], seed=res.fold_seed)
    assert again.fold_seed == 0 and again.criteria == res.criteria


def test_c_at_one_covariate_is_a_config_error_naming_log_p():
    # lambda = c sqrt(log p / n) is 0 at p = 1 whatever c is
    ds, _ = simulate_dataset(SimulationConfig(n=40, p=1, s=1, seed=2))
    with pytest.raises(ConfigError, match="p = 1, where log p = 0"):
        cross_validate(ds, "scad", c_grid=[0.5, 1.0])
    with pytest.raises(ConfigError, match=r"c_by_penalty\['scad'\]: .*log p = 0"):
        ExperimentGrid(n_values=(40,), p_values=(5, 1), methods=("tlamm-scad",),
                       reps=1, c_by_penalty={"scad": 0.6}, s=1)


def test_cross_validate_checks_seed_and_c_grid_before_any_fit(monkeypatch):
    def no_fit(*args):
        raise AssertionError("fitted")

    monkeypatch.setattr(evaluation, "tlamm", no_fit)
    ds, _ = simulate_dataset(SimulationConfig(n=60, p=5, s=2, seed=5))
    for seed in (-1, 0.5, 2**64):
        with pytest.raises(ConfigError, match="seed must be an unsigned 64-bit integer"):
            cross_validate(ds, "lasso", c_grid=[0.5], seed=seed)
    with pytest.raises(ConfigError,
                       match=r"c_grid must not repeat a value, got \[0.5, 0.5, 1.0\]"):
        cross_validate(ds, "lasso", c_grid=[1.0, 0.5, 0.5])
    for c_grid in ([], [0.5, 0.0], [-0.5]):
        with pytest.raises(ConfigError, match="c grid must be non-empty and positive"):
            cross_validate(ds, "lasso", c_grid=c_grid)
    for folds in (1, 61):
        with pytest.raises(ConfigError, match=r"folds must lie in \[2, n\]"):
            cross_validate(ds, "lasso", folds=folds, c_grid=[0.5])


_GRID = {"n_values": (40,), "p_values": (5,), "methods": ("lasso",), "reps": 1,
         "c_by_penalty": {"lasso": 0.45}}


@pytest.mark.parametrize("call, match", [
    (lambda ds: cross_validate(ds, "scad", folds=2.5, c_grid=[0.5]), "folds must lie in"),
    (lambda ds: run_experiment(ExperimentGrid(**{**_GRID, "n_values": (40.5,)})),
     "n and p must be positive"),
    (lambda ds: ExperimentGrid(**{**_GRID, "p_values": (5.0,)}), "n and p must be positive"),
    (lambda ds: ExperimentGrid(**{**_GRID, "reps": 1.5}), "reps must be positive"),
    (lambda ds: ExperimentGrid(**{**_GRID, "reps": True}), "reps must be positive"),
    (lambda ds: SimulationConfig(n=2.5, p=5), "n and p must be positive"),
    (lambda ds: SimulationConfig(n=True, p=5), "n and p must be positive"),
    (lambda ds: SimulationConfig(n=20, p=5, s=1.5), r"support size s=1.5 must satisfy"),
    (lambda ds: lse_probe(ds, np.zeros(5), m=2.0, r=0.1), r"m must lie in \[1, p\]"),
    (lambda ds: lse_probe(ds, np.zeros(5), m=2, r=0.1, n_beta_samples=1.5),
     "n_beta_samples must be non-negative"),
    (lambda ds: check_seed(True), "seed must be an unsigned 64-bit integer"),
], ids=["folds-fraction", "grid-n-fraction", "grid-p-float", "reps-fraction",
        "reps-bool", "n-fraction", "n-bool", "s-fraction", "m-float", "samples-fraction",
        "seed-bool"])
def test_integer_settings_refuse_fractions_and_booleans(call, match):
    # an int() cast would truncate 2.5 to 2, and a bool passes as 0 or 1
    ds, _ = simulate_dataset(SimulationConfig(n=40, p=5, s=2, seed=1))
    with pytest.raises(ConfigError, match=match):
        call(ds)


@pytest.mark.parametrize("threads", [2.5, True, 0, -1, "2"])
@pytest.mark.parametrize("entry", ["cross_validate", "run_experiment"])
def test_threads_must_be_a_positive_integer_before_any_fit(monkeypatch, tmp_path, entry,
                                                            threads):
    # 2.5 would reach the process pool as a float at three folds or reps,
    # and True, 0 and -1 would run serially
    def no_fit(*args):
        raise AssertionError("fitted")

    monkeypatch.setattr(evaluation, "tlamm", no_fit)
    ds, _ = simulate_dataset(SimulationConfig(n=40, p=5, s=2, seed=1))
    out_csv = tmp_path / "results.csv"
    with pytest.raises(ConfigError, match="threads must be a positive integer"):
        if entry == "cross_validate":
            cross_validate(ds, "lasso", folds=3, c_grid=[0.5], threads=threads)
        else:
            run_experiment(ExperimentGrid(**{**_GRID, "reps": 3}), threads=threads,
                           out_csv=out_csv)
    assert not out_csv.exists()


def test_cross_validate_eventless_fold_error():
    times = np.linspace(1, 2, 9)
    status = np.zeros(9)
    status[0] = 1
    ds = SurvivalDataset(times, status, np.random.default_rng(0).standard_normal((9, 2)))
    with pytest.raises(DataError, match="folds"):
        cross_validate(ds, "lasso", folds=3, c_grid=[0.5], seed=0)


def test_cross_validate_criterion_finite_on_grid():
    ds, _ = simulate_dataset(SimulationConfig(n=120, p=20, s=4, seed=7))
    res = cross_validate(ds, "mcp", c_grid=[0.2, 0.5, 0.8], seed=1)
    assert all(np.isfinite(v) for v in res.criteria)


def test_method_penalty_kind():
    assert method_penalty_kind("oracle") is None
    assert method_penalty_kind("lasso") == "lasso"
    assert method_penalty_kind("tlamm-scad") == "scad"
    assert method_penalty_kind("ilamm-mcp") == "mcp"


def test_grid_validation():
    with pytest.raises(ConfigError):
        ExperimentGrid(n_values=(50,), p_values=(10,), designs=(Independent(),),
                       methods=("magic",), reps=1, seed=0, c_by_penalty={})
    with pytest.raises(ConfigError):
        ExperimentGrid(n_values=(50,), p_values=(10,), designs=(Independent(),),
                       methods=("tlamm-scad",), reps=1, seed=0, c_by_penalty={})
    for empty in ({"n_values": ()}, {"p_values": ()}, {"designs": ()}):
        with pytest.raises(ConfigError, match="must not be empty"):
            ExperimentGrid(**{"n_values": (50,), "p_values": (10,),
                              "designs": (Independent(),), "methods": ("lasso",),
                              "reps": 1, "c_by_penalty": {"lasso": 0.45}, **empty})
    for seed in (-2, 1.5, 2**64):
        with pytest.raises(ConfigError, match="seed must be an unsigned 64-bit integer"):
            ExperimentGrid(n_values=(30,), p_values=(10,), methods=("lasso",),
                           reps=1, seed=seed, c_by_penalty={"lasso": 0.45})
    with pytest.raises(ConfigError, match="reps must be positive"):
        ExperimentGrid(n_values=(30,), p_values=(10,), methods=("lasso",),
                       reps=0, c_by_penalty={"lasso": 0.45})


def test_grid_rejects_repeated_values():
    # cells are matched by value and design name, so a repeat would merge two
    base = {"n_values": (50,), "p_values": (10,), "designs": (Independent(),),
            "methods": ("lasso",), "reps": 1, "c_by_penalty": {"lasso": 0.45}}
    for name, values in (("n_values", (50, 50)), ("p_values", (10, 10)),
                         ("methods", ("lasso", "lasso")),
                         ("designs", (Autoregressive(0.2), Autoregressive(0.8)))):
        with pytest.raises(ConfigError, match=f"{name} must not repeat"):
            ExperimentGrid(**{**base, name: values})


def test_grid_names_a_nonpositive_c_by_its_key_and_kind():
    with pytest.raises(ConfigError, match=r"c_by_penalty\['scad'\]: lambda must be"):
        ExperimentGrid(n_values=(30,), p_values=(10,), methods=("tlamm-scad",),
                       reps=1, c_by_penalty={"scad": -0.6})


def test_grid_names_an_unknown_c_kind_by_its_key():
    with pytest.raises(ConfigError,
                       match=r"c_by_penalty\['ridge'\]: unknown penalty kind 'ridge'"):
        ExperimentGrid(n_values=(30,), p_values=(10,), methods=("tlamm-scad",),
                       reps=1, c_by_penalty={"scad": 0.6, "ridge": 1.0})


def test_run_experiment_single_cell(tmp_path):
    grid = ExperimentGrid(n_values=(80,), p_values=(10,),
                          designs=(Independent(),), methods=("tlamm-scad",),
                          reps=1, seed=11, c_by_penalty={"scad": 0.6}, s=3)
    out = tmp_path / "r.csv"
    res = run_experiment(grid, SolverConfig(), out_csv=out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("design,penalty,n,p,rep,l2,tp,fp,sens,spec,iters1,iters2,"
                        "status,seconds")
    assert len(lines) == 2
    assert len(res.rows) == 1 and not res.failures
    assert res.cell_medians[0]["median"]["tp"] <= 3
    assert res.rows[0]["status"] == "converged"
    assert res.cell_medians[0]["reps_nonconverged"] == 0


def test_cell_medians_count_nonconverged_fits():
    grid = ExperimentGrid(n_values=(60,), p_values=(8,),
                          designs=(Independent(),),
                          methods=("oracle", "tlamm-scad"),
                          reps=2, seed=12, c_by_penalty={"scad": 0.6}, s=3)
    res = run_experiment(grid, SolverConfig(max_iter_stage=2))
    assert [r["status"] for r in res.rows] == ["converged", "max_iter"] * 2
    oracle, capped = res.cell_medians
    assert (oracle["reps_ok"], oracle["reps_nonconverged"]) == (2, 0)
    assert (capped["reps_ok"], capped["reps_nonconverged"]) == (2, 2)


def test_run_experiment_deterministic_modulo_seconds(tmp_path):
    grid = ExperimentGrid(n_values=(60,), p_values=(8,),
                          designs=(Independent(),),
                          methods=("oracle", "tlamm-mcp"),
                          reps=2, seed=12, c_by_penalty={"mcp": 0.6}, s=3)
    texts = []
    for name in ("a.csv", "b.csv"):
        run_experiment(grid, SolverConfig(), out_csv=tmp_path / name)
        rows = (tmp_path / name).read_text().strip().splitlines()
        # seconds is a measurement; everything else must reproduce exactly
        texts.append([",".join(r.split(",")[:-1]) for r in rows])
    assert texts[0] == texts[1]


def test_run_experiment_threads_match_serial(tmp_path):
    grid = ExperimentGrid(n_values=(60,), p_values=(8,),
                          designs=(Independent(),),
                          methods=("tlamm-scad", "ilamm-scad"),
                          reps=2, seed=13, c_by_penalty={"scad": 0.6}, s=3)
    run_experiment(grid, SolverConfig(), threads=1, out_csv=tmp_path / "s.csv")
    run_experiment(grid, SolverConfig(), threads=2, out_csv=tmp_path / "p.csv")
    strip = lambda path: [",".join(r.split(",")[:-1])
                          for r in path.read_text().strip().splitlines()]
    assert strip(tmp_path / "s.csv") == strip(tmp_path / "p.csv")


@pytest.mark.parametrize("threads", [1, 2])
def test_two_method_grid_rows_equal_one_method_grids(threads):
    # one simulation per rep serves every method, so a method's rows do not
    # depend on which other methods share the grid; rows come rep-major
    def rows(methods):
        grid = ExperimentGrid(n_values=(60,), p_values=(8,),
                              designs=(Independent(),), methods=methods,
                              reps=2, seed=16, c_by_penalty={"mcp": 0.6}, s=3)
        res = run_experiment(grid, SolverConfig(), threads=threads)
        return [{k: v for k, v in r.items() if k != "seconds"} for r in res.rows]

    both = rows(("tlamm-mcp", "oracle"))
    assert [(r["rep"], r["penalty"]) for r in both] == [
        (0, "tlamm-mcp"), (0, "oracle"), (1, "tlamm-mcp"), (1, "oracle")]
    assert both[0::2] == rows(("tlamm-mcp",))
    assert both[1::2] == rows(("oracle",))


def test_run_experiment_failures_marked(tmp_path):
    # a censoring window this tight censors everything, so every fit fails
    # with a no-events error; the run continues and marks the cell
    grid = ExperimentGrid(n_values=(40,), p_values=(5,),
                          designs=(Independent(),), methods=("tlamm-scad",),
                          reps=2, seed=14, c_by_penalty={"scad": 0.6}, s=2,
                          censoring=(1e-9, 2e-9))
    out = tmp_path / "f.csv"
    res = run_experiment(grid, SolverConfig(), out_csv=out)
    assert len(res.failures) == 2
    assert res.cell_medians[0]["reps_failed"] == 2
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3 and lines[1].endswith("nan")


def test_results_csv_carries_each_unit_status(tmp_path, monkeypatch):
    # the oracle unit is fitted and the TLAMM unit is made to fail
    def fail(*args):
        raise LineSearchError("forced")

    monkeypatch.setattr(evaluation, "tlamm", fail)
    grid = ExperimentGrid(n_values=(60,), p_values=(8,), methods=("oracle", "tlamm-scad"),
                          reps=1, seed=3, c_by_penalty={"scad": 0.6}, s=3)
    out = tmp_path / "s.csv"
    res = run_experiment(grid, SolverConfig(), out_csv=out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[-2:] == ["status", "seconds"]
    assert [(r["penalty"], r["status"]) for r in rows] == [
        ("oracle", "converged"), ("tlamm-scad", "nan")]
    assert rows[0]["l2"] == str(res.rows[0]["l2"]) and rows[1]["l2"] == "nan"
    assert "status" not in res.cell_medians[0]["median"]


def test_oracle_method_row():
    grid = ExperimentGrid(n_values=(200,), p_values=(12,),
                          designs=(Independent(),), methods=("oracle",),
                          reps=2, seed=15, c_by_penalty={}, s=4)
    res = run_experiment(grid, SolverConfig())
    for row in res.rows:
        assert row["tp"] == 4 and row["fp"] == 0
        assert row["l2"] < 1.0


def test_lasso_overselects_at_benchmark_scale():
    # l1 at a tuned-scale penalty keeps all signals but drags in dozens of
    # false positives (target 116; wide band, solver differences)
    grid = ExperimentGrid(n_values=(300,), p_values=(2400,),
                          designs=(Independent(),), methods=("lasso",),
                          reps=12, seed=606, c_by_penalty={"lasso": 0.35})
    res = run_experiment(grid, SolverConfig(), threads=2)
    fp = float(np.median([r["fp"] for r in res.rows]))
    tp = float(np.median([r["tp"] for r in res.rows]))
    assert tp == 10
    assert 50 <= fp <= 250


def test_pmap_starts_at_most_one_worker_per_task(monkeypatch):
    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor and starts no process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert list(evaluation._pmap(abs, [-1, -2], 64)) == [1, 2]
    assert list(evaluation._pmap(abs, [-1, -2, -3], 2)) == [1, 2, 3]
    assert started == [2, 2]
