import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tlammcox import (CapabilityError, ConfigError, CoxObjective,
                      SimulationConfig, lse_probe, simulate_dataset)
from conftest import gradient_sup_norm_scaling, random_dataset


def test_lse_m1_equals_diagonal_extremes():
    ds, beta_star = simulate_dataset(SimulationConfig(n=200, p=6, s=2, seed=0))
    rep = lse_probe(ds, beta_star, m=1, r=0.4, n_beta_samples=4, seed=7)
    # oracle: recompute the probed Hessians and take diagonal extremes
    rng = np.random.default_rng(7)
    points = [beta_star]
    for _ in range(4):
        w = rng.dirichlet(np.ones(6))
        signs = rng.choice((-1.0, 1.0), size=6)
        points.append(beta_star + 0.4 * w * signs)
    obj = CoxObjective(ds)
    diags = np.concatenate([np.diag(obj.hessian(b)) for b in points])
    assert_allclose(rep.rho_minus, diags.min(), rtol=1e-12)
    assert_allclose(rep.rho_plus, diags.max(), rtol=1e-12)


def test_lse_center_only_matches_dense_eigensolver():
    ds, beta_star = simulate_dataset(SimulationConfig(n=150, p=5, s=2, seed=1))
    rep = lse_probe(ds, beta_star, m=5, r=0.0, n_beta_samples=0)
    eig = np.linalg.eigvalsh(CoxObjective(ds).hessian(beta_star))
    assert_allclose(rep.rho_minus, eig[0], rtol=1e-12)
    assert_allclose(rep.rho_plus, eig[-1], rtol=1e-12)
    assert rep.probe_count == 1


def test_lse_monotone_in_m():
    ds, beta_star = simulate_dataset(SimulationConfig(n=150, p=6, s=2, seed=2))
    reports = [lse_probe(ds, beta_star, m=m, r=0.3, n_beta_samples=3, seed=5)
               for m in (1, 2, 3, 4)]
    for a, b in zip(reports, reports[1:]):
        assert b.rho_plus >= a.rho_plus - 1e-12
        assert b.rho_minus <= a.rho_minus + 1e-12


def test_lse_monotone_in_r_shared_seed():
    # shared seed reuses the same sphere directions at growing radius; the
    # wider probe dominates on this instance
    ds, beta_star = simulate_dataset(SimulationConfig(n=150, p=6, s=2, seed=3))
    a = lse_probe(ds, beta_star, m=2, r=0.1, n_beta_samples=5, seed=9)
    b = lse_probe(ds, beta_star, m=2, r=0.6, n_beta_samples=5, seed=9)
    assert b.rho_plus >= a.rho_plus - 1e-9
    assert b.rho_minus <= a.rho_minus + 1e-9


def test_lse_caps():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, 30, 21)
    with pytest.raises(CapabilityError):
        lse_probe(ds, np.zeros(21), m=2, r=0.1)
    ds = random_dataset(rng, 30, 5)
    with pytest.raises(CapabilityError):
        lse_probe(ds, np.zeros(5), m=6, r=0.1)
    for r in (-0.5, math.inf, math.nan):
        with pytest.raises(ConfigError, match="radius"):
            lse_probe(ds, np.zeros(5), m=2, r=r)
    for seed in (-4, 0.5):
        with pytest.raises(ConfigError, match="seed must be an unsigned 64-bit integer"):
            lse_probe(ds, np.zeros(5), m=2, r=0.1, seed=seed)


def test_lse_rejects_malformed_beta_star():
    ds = random_dataset(np.random.default_rng(4), 30, 5)
    for beta_star in (np.zeros(4), np.zeros((5, 1))):
        with pytest.raises(ConfigError, match=r"beta_star has shape .*, expected \(5,\)"):
            lse_probe(ds, beta_star, m=2, r=0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="beta_star has non-finite entries"):
            lse_probe(ds, [0.0, bad, 0.0, 0.0, 0.0], m=2, r=0.1)


def test_lse_positivity_well_sampled():
    ds, beta_star = simulate_dataset(SimulationConfig(n=500, p=15, s=3, seed=99))
    rep = lse_probe(ds, beta_star, m=3, r=0.5, n_beta_samples=3, seed=3)
    assert rep.rho_minus > 0.0
    assert dataclasses.asdict(rep)["m"] == 3


def test_gradient_scaling_in_n():
    # quadrupling n should roughly halve the median sup-norm
    med_n = dict(gradient_sup_norm_scaling(reps=60, n=250, p_list=[50], seed=1))
    med_4n = dict(gradient_sup_norm_scaling(reps=60, n=1000, p_list=[50], seed=2))
    ratio = med_4n[50] / med_n[50]
    assert 0.35 < ratio < 0.65


def test_gradient_scaling_null_single_covariate():
    med = dict(gradient_sup_norm_scaling(reps=40, n=10_000, p_list=[1],
                                         seed=3, s=1, signal=0.0))
    assert med[1] < 0.02


def test_gradient_scaling_clamps_s_as_the_grid_does():
    # s is clamped to p and not raised to 1, so s = 0 is SimulationConfig's error
    with pytest.raises(ConfigError, match="support size s=0"):
        gradient_sup_norm_scaling(reps=1, n=20, p_list=[5], s=0)


def test_gradient_scaling_in_p():
    table = dict(gradient_sup_norm_scaling(reps=100, n=500, p_list=[10, 1000],
                                           seed=4))
    ratio = table[1000] / table[10]
    expected = np.sqrt(np.log(1000) / np.log(10))
    assert abs(ratio - expected) <= 0.4 * expected
