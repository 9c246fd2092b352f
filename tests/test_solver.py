import collections
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tlammcox import (ConfigError, CoxObjective, LineSearchError,
                      SimulationConfig, SolverConfig, fit_restricted, ilamm,
                      lasso, mcp, omega, scad, simulate_dataset, tlamm)
from tlammcox import solver
from tlammcox.solver import lamm_step, line_search, stage1_lasso, stage2
from conftest import random_dataset


def brute_force_omega(grad, beta, lam, points=21):
    """Exhaustive product grid over the l1 subdifferential."""
    grad = np.asarray(grad, float)
    beta = np.asarray(beta, float)
    choices = []
    for b in beta:
        if b > 0:
            choices.append(np.array([1.0]))
        elif b < 0:
            choices.append(np.array([-1.0]))
        else:
            choices.append(np.linspace(-1.0, 1.0, points))
    best = np.inf
    for xi in itertools.product(*choices):
        best = min(best, np.abs(grad + lam * np.asarray(xi)).max())
    return best


def test_omega_examples():
    lam = 0.8
    # beta = 0, ||g||_inf <= lam: xi = -g/lam is feasible
    assert omega(np.array([0.5, -0.3]), np.zeros(2), lam) == 0.0
    # mixed zero/nonzero closed form, against the exhaustive grid
    g = np.array([-lam, 2 * lam])
    b = np.array([1.0, 0.0])
    w = omega(g, b, lam)
    assert_allclose(w, lam, rtol=1e-12)
    assert abs(w - brute_force_omega(g, b, lam, points=201)) <= lam * 0.01
    # subgradient exactly cancels
    assert omega(np.array([lam]), np.array([-1.0]), lam) == 0.0


def test_omega_matches_brute_force_grid():
    rng = np.random.default_rng(0)
    for _ in range(60):
        p = int(rng.integers(1, 5))
        beta = rng.standard_normal(p) * rng.integers(0, 2, p)
        g = rng.standard_normal(p)
        lam = float(rng.uniform(0.2, 2.0))
        w = omega(g, beta, lam)
        bf = brute_force_omega(g, beta, lam, points=21)
        assert w <= bf + 1e-12
        assert bf - w <= lam * (2 / 20) / 2 + 1e-12   # grid resolution


def where_omega(grad, beta, lam):
    """omega's np.where form over every coordinate, kept as the reference."""
    grad = np.asarray(grad, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    zero = beta == 0.0
    per = np.where(zero,
                   np.maximum(np.abs(grad) - lam, 0.0),
                   np.abs(grad + lam * np.sign(beta)))
    return float(per.max()) if per.size else 0.0


@pytest.mark.parametrize("weighted", [False, True])
def test_omega_bitwise_equal_to_where_formula(weighted):
    rng = np.random.default_rng(21)
    assert omega(np.empty(0), np.empty(0), 0.3) == where_omega(
        np.empty(0), np.empty(0), 0.3) == 0.0
    assert omega(np.empty(0), np.empty(0), np.empty(0)) == 0.0
    for trial in range(200):
        p = int(rng.integers(1, 60))
        lam = rng.uniform(0.05, 0.5, size=p) if weighted else 0.3
        lam_vec = np.broadcast_to(lam, (p,))
        beta = rng.standard_normal(p)
        beta[rng.uniform(size=p) < 0.5] = 0.0
        picks = rng.integers(0, p, size=min(p, 6))
        beta[picks] = rng.choice([0.0, -0.0, 1.0, -1.0], size=picks.size)
        if trial == 0:
            beta[:] = 0.0
        grad = rng.standard_normal(p) * 0.4
        # |g| exactly at the weight, with either sign, on and off the support
        at = rng.uniform(size=p) < 0.3
        grad[at] = rng.choice([-1.0, 1.0], size=at.sum()) * lam_vec[at]
        assert omega(grad, beta, lam) == where_omega(grad, beta, lam)
        for j in range(p):
            one = (grad[j:j + 1], beta[j:j + 1], lam_vec[j:j + 1] if weighted else lam)
            assert omega(*one) == where_omega(*one)


def test_omega_weighted():
    w = omega(np.array([0.5, 0.4]), np.array([0.0, -1.0]),
              np.array([0.6, 0.4]))
    assert_allclose(w, 0.0, atol=1e-15)


def test_lamm_step_pure_shrinkage():
    beta = np.array([0.3, -0.2, 0.1])
    out = lamm_step(beta, np.zeros(3), phi=1.0, lam=0.5)
    assert_allclose(out, 0.0)


def test_lamm_step_vanishing():
    rng = np.random.default_rng(1)
    beta = rng.standard_normal(4)
    g = rng.standard_normal(4)
    out = lamm_step(beta, g, phi=1e10, lam=0.3)
    assert np.abs(out - beta).max() <= 1e-8 * (1 + np.abs(g).max())


def test_lamm_step_matches_grid_search():
    # the majorizer plus l1 is separable, so a dense per-coordinate grid is
    # an exhaustive search of the 3-d problem
    rng = np.random.default_rng(2)
    for _ in range(5):
        beta = rng.standard_normal(3)
        g = rng.standard_normal(3)
        phi = float(rng.uniform(0.5, 3.0))
        lam = float(rng.uniform(0.1, 1.0))
        step = lamm_step(beta, g, phi, lam)
        for j in range(3):
            span = abs(beta[j]) + abs(g[j]) / phi + lam / phi + 1.0
            grid = np.arange(-span, span, 5e-4)
            vals = (g[j] * (grid - beta[j]) + 0.5 * phi * (grid - beta[j]) ** 2
                    + lam * np.abs(grid))
            assert abs(grid[np.argmin(vals)] - step[j]) <= 1e-3


def test_line_search_quadratic_toy():
    # curvature-1 toy loss: smallest 0.1 * 2^m that majorizes is 1.6
    cfg = SolverConfig()
    beta = np.array([1.0])
    cand, phi, loss, step, gap = line_search(
        lambda b: 0.5 * float(b @ b), beta, 0.5, beta.copy(),
        cfg.phi0, 0.0, cfg)
    assert phi == pytest.approx(1.6)
    assert gap >= 0.0


def test_line_search_first_trial_rule():
    cfg = SolverConfig()
    calls = []

    def quad_loss(b):
        return 0.5 * float(b @ b)

    # phi_prev huge: first trial is phi_prev / gamma_u, and acceptance sits
    # on the geometric ladder from there
    beta = np.array([1.0])
    _, phi, _, _, _ = line_search(quad_loss, beta, 0.5, beta.copy(), 1e6, 0.0, cfg)
    start = max(cfg.phi0, 1e6 / cfg.gamma_u)
    ratio = math.log(phi / start, cfg.gamma_u)
    assert abs(ratio - round(ratio)) < 1e-9 and phi >= 1.0 - 1e-12


def test_line_search_majorizes_cox():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 50, 10)
    obj = CoxObjective(ds)
    beta = 0.2 * rng.standard_normal(10)
    loss, grad = obj.value_and_gradient(beta)
    cfg = SolverConfig()
    cand, phi, cand_loss, step, gap = line_search(
        obj.nll, beta, loss, grad, cfg.phi0, 0.05, cfg)
    model = loss + grad @ (cand - beta) + 0.5 * phi * float((cand - beta) @ (cand - beta))
    assert cand_loss <= model + 1e-12


def test_line_search_failure():
    cfg = SolverConfig(phi0=0.1, max_phi=0.2)
    beta = np.array([1.0])
    with pytest.raises(LineSearchError):
        line_search(lambda b: 0.5 * float(b @ b), beta, 0.5, beta.copy(),
                    cfg.phi0, 0.0, cfg)


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(gamma_u=1.0)
    with pytest.raises(ConfigError):
        SolverConfig(phi0=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(phi0=2.0, max_phi=1.0)
    with pytest.raises(ConfigError):
        SolverConfig(stop_mode="magic")


def test_stage1_kkt_at_zero():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, 40, 6)
    obj = CoxObjective(ds)
    g0 = obj.gradient(np.zeros(6))
    lam = float(np.abs(g0).max()) * 1.01
    assert omega(g0, np.zeros(6), lam) == 0.0     # KKT certificate at zero
    beta, steps, ok, trace, _ = stage1_lasso(obj, lam, SolverConfig())
    assert_allclose(beta, 0.0)
    assert steps <= 1 and ok


def test_stage1_sanity_and_descent():
    ds, beta_star = simulate_dataset(SimulationConfig(n=200, p=100, s=10, seed=8))
    obj = CoxObjective(ds)
    lam = 0.5 * math.sqrt(math.log(100) / 200)
    beta, steps, ok, trace, _ = stage1_lasso(obj, lam, SolverConfig())
    assert ok
    assert np.linalg.norm(beta - beta_star) < np.linalg.norm(beta_star)
    assert np.count_nonzero(beta) <= ds.n
    f = [r.objective for r in trace.records]
    assert all(b <= a + 1e-10 for a, b in zip(f, f[1:]))


def test_stage2_lasso_degenerate_shift():
    # with the l1 "penalty" the shift is zero, so stage 2 continues stage 1
    ds, _ = simulate_dataset(SimulationConfig(n=100, p=20, s=4, seed=9))
    obj = CoxObjective(ds)
    lam = 0.08
    cfg = SolverConfig()
    b1, k1, ok1, tr1, phi1 = stage1_lasso(obj, lam, cfg)
    b2, k2, ok2, tr2, _ = stage2(obj, lasso(lam), cfg, init=b1, phi_init=phi1)
    assert np.abs(b2 - b1).max() <= 1e-8
    assert k2 == 0


def test_tlamm_lasso_equals_single_stage():
    ds, _ = simulate_dataset(SimulationConfig(n=120, p=30, s=5, seed=10))
    obj = CoxObjective(ds)
    lam = 0.1
    single, *_ = stage1_lasso(obj, lam, SolverConfig(eps1=1e-6))
    fit = tlamm(ds, lasso(lam), SolverConfig(eps1=0.002, eps2=1e-6))
    assert np.abs(fit.beta - single).max() <= 1e-8


def test_ilamm_lasso_fixed_point():
    ds, _ = simulate_dataset(SimulationConfig(n=120, p=30, s=5, seed=11))
    cfg = SolverConfig()
    a = tlamm(ds, lasso(0.1), cfg)
    b = ilamm(ds, lasso(0.1), cfg)
    assert np.abs(a.beta - b.beta).max() <= 1e-8
    assert a.status == b.status == "converged"


def test_trace_invariants_benchmark_fit():
    # majorization gap, per-step descent, and phi bookkeeping on a real fit
    ds, _ = simulate_dataset(SimulationConfig(n=200, p=400, s=10, seed=12))
    cfg = SolverConfig()
    lam = 0.65 * math.sqrt(math.log(400) / 200)
    fit = tlamm(ds, scad(lam), cfg)
    obj = CoxObjective(ds)
    stages = {r.stage for r in fit.trace.records}
    for stage in stages:
        recs = fit.trace.stage_records(stage)
        if stage == 1:
            f_prev = obj.nll(np.zeros(ds.p))
            phi_prev = cfg.phi0
        else:
            from tlammcox.penalties import value as penalty_value
            f_prev = obj.nll(fit.stage1_beta) + penalty_value(scad(lam), fit.stage1_beta)
            phi_prev = fit.trace.stage_records(1)[-1].phi
        for r in recs:
            assert r.majorization_gap >= -1e-10
            drop = f_prev - r.objective
            assert drop >= 0.5 * r.phi * r.step_norm**2 - 1e-10
            assert cfg.phi0 <= r.phi <= cfg.max_phi
            start = max(cfg.phi0, phi_prev / cfg.gamma_u)
            ladder = math.log(r.phi / start, cfg.gamma_u)
            assert abs(ladder - round(ladder)) < 1e-9 and round(ladder) >= 0
            f_prev, phi_prev = r.objective, r.phi


def test_stepnorm_stopping_soundness():
    ds, _ = simulate_dataset(SimulationConfig(n=150, p=30, s=5, seed=13))
    obj = CoxObjective(ds)
    lam = 0.1
    cfg = SolverConfig(stop_mode="stepnorm", eps1=1e-3, eps2=1e-3)
    beta, steps, ok, trace, _ = stage1_lasso(obj, lam, cfg)
    assert ok and steps >= 1
    last = trace.records[-1]
    assert last.omega <= (1 + cfg.gamma_u) * last.phi * last.step_norm + 1e-12


def test_float_floor_stall_is_flagged():
    # at eps below the float64 floor the run must stop early, unconverged
    ds, _ = simulate_dataset(SimulationConfig(n=60, p=6, s=2, seed=14))
    obj = CoxObjective(ds)
    cfg = SolverConfig(eps1=1e-14, max_iter_stage=5000)
    beta, steps, ok, trace, _ = stage1_lasso(obj, 0.05, cfg)
    assert steps < 5000
    if not ok:
        assert trace.records[-1].step_norm == 0.0
    # a fit whose last stage ends on such a zero step reports it as stalled
    fit = tlamm(ds, scad(0.05), SolverConfig(eps1=1e-14, eps2=1e-14,
                                             max_iter_stage=5000))
    last = fit.trace.records[-1]
    assert fit.status == "stalled" and not fit.converged[1]
    assert last.stage == 2 and last.step_norm == 0.0 and last.omega > 1e-14


def test_max_iter_flagged_not_raised():
    ds, _ = simulate_dataset(SimulationConfig(n=100, p=20, s=4, seed=15))
    fit = tlamm(ds, scad(0.08), SolverConfig(max_iter_stage=2))
    assert fit.converged == (False, False)
    assert fit.iterations == (2, 2)
    fit = tlamm(ds, scad(0.08), SolverConfig(max_iter_stage=5))
    assert fit.iterations == (5, 5) and fit.status == "max_iter"
    # an earlier capped stage decides the status when the last one converges
    fit = ilamm(ds, scad(0.08), SolverConfig(max_iter_stage=2))
    assert fit.converged == (False, False) and fit.status == "max_iter"
    ds, _ = simulate_dataset(SimulationConfig(n=100, p=20, s=4, seed=20))
    fit = tlamm(ds, scad(0.3 * math.sqrt(math.log(20) / 100)),
                SolverConfig(max_iter_stage=8))
    assert fit.converged == (False, True) and fit.iterations == (8, 7)
    assert fit.status == "max_iter"


def test_ilamm_stage_cap_clears_convergence_flag():
    # the seed-7 benchmark fit needs more than one reweighted stage to
    # settle, so a cap of two stages cuts the loop off unconverged
    ds, _ = simulate_dataset(SimulationConfig(n=300, p=2400, s=10, seed=7))
    spec = scad(0.65 * math.sqrt(math.log(2400) / 300))
    capped = ilamm(ds, spec, SolverConfig(), max_stages=2)
    assert capped.converged == (True, False) and capped.status == "max_iter"
    settled = ilamm(ds, spec, SolverConfig())
    assert settled.converged == (True, True) and settled.status == "converged"


def saturating_input():
    """80 subjects, 49 events, p=60: SCAD at c=0.15 leaves stage 1 with 36
    coordinates and grows past the event count in stage 2."""
    ds, _ = simulate_dataset(SimulationConfig(n=80, p=60, s=4, seed=2))
    return ds, scad(0.15 * math.sqrt(math.log(60) / 80))


def test_saturated_stage2_stops_at_first_saturated_record():
    ds, spec = saturating_input()
    fit = tlamm(ds, spec, SolverConfig())
    support = [r.support for r in fit.trace.stage_records(2)]
    assert fit.status == "saturated" and fit.converged[1] is False
    assert np.count_nonzero(fit.stage1_beta) < ds.n_events
    assert fit.iterations[1] == len(support) > 1
    assert support[-1] >= ds.n_events > max(support[:-1])
    assert fit.support.size == support[-1]


def test_saturated_stage1_output_takes_no_stage2_step():
    # p > n: the l1 burn-in already ends with more coordinates than events
    ds, _ = simulate_dataset(SimulationConfig(n=60, p=80, s=4, seed=3))
    spec = scad(0.1 * math.sqrt(math.log(80) / 60))
    for method in (tlamm, ilamm):
        fit = method(ds, spec, SolverConfig())
        assert np.count_nonzero(fit.stage1_beta) >= ds.n_events
        assert fit.iterations[1] == 0 and fit.status == "saturated"
        assert fit.converged == (True, False)
        assert np.array_equal(fit.beta, fit.stage1_beta)
        assert {r.stage for r in fit.trace.records} == {1}


def test_ilamm_stops_at_saturated_stage():
    ds, spec = saturating_input()
    fit = ilamm(ds, spec, SolverConfig())
    later = [r for r in fit.trace.records if r.stage > 1]
    assert fit.status == "saturated" and fit.converged[1] is False
    assert later[-1].stage > 2      # the earlier reweighted stages ran unsaturated
    assert later[-1].support >= ds.n_events
    assert all(r.support < ds.n_events for r in later[:-1])
    assert fit.support.size == later[-1].support


def test_line_search_failure_propagates_from_fit():
    ds, _ = simulate_dataset(SimulationConfig(n=100, p=10, s=3, seed=16))
    with pytest.raises(LineSearchError):
        tlamm(ds, lasso(0.01), SolverConfig(phi0=0.1, max_phi=0.15))


def test_stage2_support_recovery_strong_signal():
    # folded-concave stage 2 recovers the exact support on strong signals;
    # MCP's derivative decays from zero so it can re-activate coordinates
    # the burn-in dropped (acceptance pins the full-scale version)
    hits = 0
    for rep in range(15):
        seed = int(np.random.SeedSequence([606, rep]).generate_state(1, np.uint64)[0])
        ds, _ = simulate_dataset(SimulationConfig(n=400, p=200, s=10, seed=seed))
        fit = tlamm(ds, mcp(0.13), SolverConfig(eps2=1e-6, max_iter_stage=5000))
        if set(fit.support.tolist()) == set(range(10)):
            hits += 1
    assert hits >= 12


def test_strong_oracle_agreement_conditional():
    # whenever stage 2 lands on the true support at tight eps2, it must
    # coincide with the support-restricted fit
    checked = 0
    for rep in range(8):
        seed = int(np.random.SeedSequence([606, rep]).generate_state(1, np.uint64)[0])
        ds, _ = simulate_dataset(SimulationConfig(n=400, p=200, s=10, seed=seed))
        fit = tlamm(ds, mcp(0.13), SolverConfig(eps2=1e-8, max_iter_stage=20000))
        if set(fit.support.tolist()) == set(range(10)):
            oracle = fit_restricted(ds, np.arange(10))
            assert np.abs(fit.beta - oracle).max() <= 1e-6
            checked += 1
    assert checked >= 5


def test_ilamm_benchmark_scad():
    # adaptive weighted-l1 baseline at the tuned scale c=0.65
    rows = []
    for rep in range(10):
        seed = int(np.random.SeedSequence([707, rep]).generate_state(1, np.uint64)[0])
        ds, beta_star = simulate_dataset(SimulationConfig(n=300, p=2400, s=10, seed=seed))
        lam = 0.65 * math.sqrt(math.log(2400) / 300)
        fit = ilamm(ds, scad(lam), SolverConfig())
        supp = fit.support
        rows.append((float(np.linalg.norm(fit.beta - beta_star)),
                     int(np.sum(supp < 10)), int(np.sum(supp >= 10))))
    l2 = float(np.median([r[0] for r in rows]))
    tp = float(np.median([r[1] for r in rows]))
    fp = float(np.median([r[2] for r in rows]))
    assert 0.17 <= l2 <= 0.47       # target 0.32, wide band
    assert tp == 10
    assert 2 <= fp <= 60            # target 10, solver-dependent


def test_fit_result_support_and_trace_csv(tmp_path):
    ds, _ = simulate_dataset(SimulationConfig(n=80, p=10, s=3, seed=17))
    fit = tlamm(ds, scad(0.1), SolverConfig())
    assert np.all(fit.beta[fit.support] != 0)
    path = tmp_path / "trace.csv"
    fit.trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "stage,iter,F,omega,phi,step_norm,support"
    assert len(lines) == len(fit.trace.records) + 1


@pytest.mark.parametrize("method", [tlamm, ilamm])
def test_work_per_step_is_pinned(monkeypatch, method):
    """Omega stopping: omega once per accepted step plus once per stage, the
    shift value once per line-search trial plus once per stage-2 start, one
    nll per trial and one value_and_gradient per step plus one per stage."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("omega", "shift_value", "lamm_step"):
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    for name in ("nll", "value_and_gradient"):
        monkeypatch.setattr(CoxObjective, name,
                            counting(name, getattr(CoxObjective, name)))
    stages = []     # (shifted, accepted steps, line-search trials) per stage
    lamm_loop = solver._lamm_loop

    def recording_loop(*args, **kwargs):
        trials_before = counts["lamm_step"]
        out = lamm_loop(*args, **kwargs)
        stages.append((kwargs.get("shift") is not None, out[1],
                       counts["lamm_step"] - trials_before))
        return out

    monkeypatch.setattr(solver, "_lamm_loop", recording_loop)
    ds, _ = simulate_dataset(SimulationConfig(n=120, p=30, s=5, seed=11))
    fit = method(ds, scad(0.65 * math.sqrt(math.log(30) / 120)), SolverConfig())
    steps = sum(k for _, k, _ in stages)
    trials = sum(t for _, _, t in stages)
    shifted = [(k, t) for shift, k, t in stages if shift]
    assert steps == sum(fit.iterations) and fit.iterations[1] > 0
    assert counts["omega"] == steps + len(stages)
    assert counts["shift_value"] == sum(t + 1 for _, t in shifted)
    assert counts["nll"] == trials == counts["lamm_step"]
    assert counts["value_and_gradient"] == steps + len(stages)
