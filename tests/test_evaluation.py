import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tlammcox import (ConfigError, CoxObjective, DataError, Independent,
                      SimulationConfig, SolverConfig, SurvivalDataset,
                      UndefinedMetricError, concordance_index, cross_validate,
                      l2_error, selection_metrics, simulate_dataset)
from tlammcox import evaluation
from tlammcox.evaluation import (EXPERIMENT_CSV_HEADER, ExperimentGrid,
                                 default_c_grid, method_penalty_kind,
                                 run_experiment)
from conftest import random_dataset


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
    beta = np.array([0.5, 1e-9, 0.0])
    assert selection_metrics(beta, [0], zero_tol=0.0).fp == 1
    assert selection_metrics(beta, [0], zero_tol=1e-6).fp == 0


def brute_force_concordance(beta, ds):
    eta = ds.covariates @ beta
    conc = disc = 0
    for i in range(ds.n):
        for j in range(ds.n):
            if i == j or ds.times[i] >= ds.times[j] or ds.status[i] != 1:
                continue
            if eta[i] > eta[j]:
                conc += 1
            elif eta[i] < eta[j]:
                disc += 1
    if conc + disc == 0:
        return None
    return conc / (conc + disc)


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
    tracemalloc.start()
    try:
        concordance_index(beta, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


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

    def saturate_one_fold_of_best_c(args):
        beta, status = fit_task(args)
        if args[1].lam == plain.chosen_lambda and not marked:
            marked.append(args)
            status = "saturated"
        return beta, status

    monkeypatch.setattr(evaluation, "_cv_fit_task", saturate_one_fold_of_best_c)
    res = cross_validate(ds, "scad", c_grid=grid, seed=3)
    assert marked and res.criteria == plain.criteria
    best = grid.index(plain.chosen_c)
    assert res.statuses[best].count("saturated") == 1
    rest = [i for i in range(len(grid)) if i != best]
    assert res.chosen_c == grid[min(rest, key=lambda i: res.criteria[i])]


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


def test_run_experiment_single_cell(tmp_path):
    grid = ExperimentGrid(n_values=(80,), p_values=(10,),
                          designs=(Independent(),), methods=("tlamm-scad",),
                          reps=1, seed=11, c_by_penalty={"scad": 0.6}, s=3)
    out = tmp_path / "r.csv"
    res = run_experiment(grid, SolverConfig(), out_csv=out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == EXPERIMENT_CSV_HEADER
    assert len(lines) == 2
    assert len(res.rows) == 1 and not res.any_failed
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
    assert res.any_failed and len(res.failures) == 2
    assert res.cell_medians[0]["reps_failed"] == 2
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3 and lines[1].endswith("nan")


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
