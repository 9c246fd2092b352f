import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from tlammcox import cox
from tlammcox import (CapabilityError, CoxObjective, DataError,
                      IterationLimitError, NonFiniteError, SimulationConfig,
                      SurvivalDataset, fit_restricted, simulate_dataset)
from tlammcox.data import ConstantSignal
from conftest import random_dataset


def fd_gradient(obj, beta, h=1e-5):
    g = np.empty_like(beta)
    for j in range(beta.size):
        e = np.zeros_like(beta)
        e[j] = h
        g[j] = (obj.nll(beta + e) - obj.nll(beta - e)) / (2 * h)
    return g


def test_nll_two_point(two_point):
    obj = CoxObjective(two_point)
    # hand enumeration: risk sets {0,1} then {1}; value (log 2)/2 at beta=0
    assert_allclose(obj.nll(np.zeros(1)), math.log(2) / 2, rtol=1e-12)


def test_nll_log_k_sum():
    rng = np.random.default_rng(1)
    n = 9
    ds = SurvivalDataset(np.arange(1, n + 1, dtype=float), np.ones(n),
                         rng.standard_normal((n, 4)))
    # direct enumeration oracle: risk set sizes n, n-1, ..., 1 at beta = 0
    expected = sum(math.log(k) for k in range(1, n + 1)) / n
    assert_allclose(CoxObjective(ds).nll(np.zeros(4)), expected, rtol=1e-12)


def test_nll_single_latest_event_is_zero():
    rng = np.random.default_rng(2)
    ds = SurvivalDataset([1.0, 2.0, 5.0], [0, 0, 1], rng.standard_normal((3, 2)))
    for _ in range(5):
        beta = rng.standard_normal(2)
        assert_allclose(CoxObjective(ds).nll(beta), 0.0, atol=1e-12)


def test_gradient_two_point(two_point):
    obj = CoxObjective(two_point)
    assert_allclose(obj.gradient(np.zeros(1)), [-0.25], rtol=1e-12)


def test_gradient_constant_covariates():
    ds = SurvivalDataset([1.0, 2.0, 3.0], [1, 1, 0], np.full((3, 2), 1.7))
    obj = CoxObjective(ds)
    rng = np.random.default_rng(3)
    for _ in range(5):
        assert_allclose(obj.gradient(rng.standard_normal(2)), 0.0, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ds = random_dataset(rng, int(rng.integers(5, 31)), int(rng.integers(1, 6)))
        obj = CoxObjective(ds)
        beta = rng.standard_normal(ds.p)
        g = obj.gradient(beta)
        fd = fd_gradient(obj, beta)
        assert np.abs(g - fd).max() <= 1e-6 * (1 + np.abs(g).max())


def test_hessian_two_point(two_point):
    obj = CoxObjective(two_point)
    # weighted covariate variance 0.25 at t=1, 0 at t=2, averaged over n=2
    assert_allclose(obj.hessian(np.zeros(1)), [[0.125]], rtol=1e-12)


def test_hessian_constant_covariates():
    ds = SurvivalDataset([1.0, 2.0, 3.0], [1, 1, 1], np.full((3, 2), -0.3))
    assert_allclose(CoxObjective(ds).hessian(np.zeros(2)), 0.0, atol=1e-12)


def test_hessian_psd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ds = random_dataset(rng, 30, 4)
        h = CoxObjective(ds).hessian(rng.standard_normal(4))
        assert np.linalg.eigvalsh(h)[0] >= -1e-10


def test_hessian_matches_gradient_differences():
    rng = np.random.default_rng(6)
    for _ in range(8):
        ds = random_dataset(rng, int(rng.integers(10, 51)), int(rng.integers(2, 7)))
        obj = CoxObjective(ds)
        beta = 0.5 * rng.standard_normal(ds.p)
        hess = obj.hessian(beta)
        h = 1e-5
        for j in range(ds.p):
            e = np.zeros(ds.p)
            e[j] = h
            col = (obj.gradient(beta + e) - obj.gradient(beta - e)) / (2 * h)
            assert np.abs(col - hess[:, j]).max() <= 1e-4 * (1 + np.abs(hess).max())


def test_hessian_p_cap():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 10, 6)
    with pytest.raises(CapabilityError):
        CoxObjective(ds).hessian(np.zeros(6), p_cap=5)


def test_value_gradient_directional_consistency():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ds = random_dataset(rng, 25, 4)
        obj = CoxObjective(ds)
        beta = rng.standard_normal(4)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        h = 1e-5
        dd = (obj.nll(beta + h * u) - obj.nll(beta - h * u)) / (2 * h)
        ip = float(obj.gradient(beta) @ u)
        assert abs(dd - ip) <= 1e-5 * (1 + abs(ip))


def test_convexity_along_lines():
    rng = np.random.default_rng(9)
    ds = random_dataset(rng, 40, 3)
    obj = CoxObjective(ds)
    for _ in range(10):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        mid = obj.nll((a + b) / 2)
        assert mid <= (obj.nll(a) + obj.nll(b)) / 2 + 1e-12


def test_subject_order_invariance():
    rng = np.random.default_rng(10)
    ds = random_dataset(rng, 30, 3)
    perm = rng.permutation(30)
    ds_perm = SurvivalDataset(ds.times[perm], ds.status[perm], ds.covariates[perm])
    beta = rng.standard_normal(3)
    a, b = CoxObjective(ds), CoxObjective(ds_perm)
    assert_allclose(a.nll(beta), b.nll(beta), atol=1e-12)
    assert_allclose(a.gradient(beta), b.gradient(beta), atol=1e-12)


def test_tied_times_share_risk_set():
    # Breslow: both events at t=1 use the full risk set in the denominator
    x = np.array([[1.0], [-1.0], [0.5]])
    ds = SurvivalDataset([1.0, 1.0, 2.0], [1, 1, 0], x)
    obj = CoxObjective(ds)
    beta = np.array([0.4])
    eta = (x @ beta).ravel()
    denom = np.exp(eta).sum()
    expected = (2 * math.log(denom) - eta[0] - eta[1]) / 3
    assert_allclose(obj.nll(beta), expected, rtol=1e-12)


def dense_reference(ds, beta):
    """(value, gradient) by explicit risk-set sums over an events x subjects
    membership matrix, dense X @ beta throughout."""
    x, t = ds.covariates, ds.times
    ev = np.flatnonzero(ds.status == 1)
    eta = x @ beta
    w = np.exp(eta - eta.max())
    at_risk = (t[None, :] >= t[ev][:, None]).astype(float)
    s0 = at_risk @ w
    s1 = at_risk @ (w[:, None] * x)
    value = (np.sum(np.log(s0) + eta.max()) - eta[ev].sum()) / ds.n
    grad = ((s1 / s0[:, None]).sum(axis=0) - x[ev].sum(axis=0)) / ds.n
    return value, grad


@pytest.mark.parametrize("support_size", [25, 2400])
def test_gather_and_dense_eta_match_dense_reference(monkeypatch, support_size):
    ds, _ = simulate_dataset(SimulationConfig(n=300, p=2400, s=10, seed=7))
    rng = np.random.default_rng(17)
    beta = np.zeros(ds.p)
    beta[rng.choice(ds.p, support_size, replace=False)] = 0.3 * rng.standard_normal(support_size)
    ref_value, ref_grad = dense_reference(ds, beta)
    # entries near zero come out of cancellation, so their error is judged
    # against the gradient's scale
    atol = 1e-12 * np.abs(ref_grad).max()
    obj = CoxObjective(ds)
    # the default rule gathers a 25-column support at p=2400 and takes the
    # dense product on a full one; raising the size floor forces dense
    for min_p in (cox._GATHER_MIN_P, ds.p + 1):
        monkeypatch.setattr(cox, "_GATHER_MIN_P", min_p)
        value, grad = obj.value_and_gradient(beta)
        assert_allclose(obj.nll(beta), ref_value, rtol=1e-12)
        assert_allclose(obj.gradient(beta), ref_grad, rtol=1e-12, atol=atol)
        assert_allclose(value, ref_value, rtol=1e-12)
        assert_allclose(grad, ref_grad, rtol=1e-12, atol=atol)


def hessian_case(name):
    """(dataset, beta) for the explicit risk-set reference below."""
    rng = np.random.default_rng(18)
    if name == "oracle":
        # the restricted Newton fit's shape: n=300 on a 10-column support
        ds, beta_star = simulate_dataset(SimulationConfig(n=300, p=10, s=10, seed=4))
        return ds, beta_star
    n, p = 40, 5
    times = rng.integers(1, 15, size=n).astype(float)   # many tied times
    status = (rng.uniform(size=n) > 0.3).astype(int)
    x = rng.standard_normal((n, p))
    beta = 0.4 * rng.standard_normal(p)
    if name == "censored_tail":
        times = rng.uniform(1, 10, size=n)
        status[times > np.quantile(times, 0.7)] = 0
    elif name == "single_group":
        status[:] = 0
        status[times == times.min()] = 1
        status[0], times[0] = 1, times.min()
    elif name == "large_eta":
        # eta spans about +-300, so only the max offset keeps exp finite
        beta *= 300.0 / np.abs(x @ beta).max()
    return SurvivalDataset(times, status, x), beta


@pytest.mark.parametrize("name", ["ties", "oracle", "censored_tail",
                                  "single_group", "large_eta"])
def test_hessian_matches_explicit_risk_set_sums(name):
    ds, beta = hessian_case(name)
    times, x = ds.times, ds.covariates
    eta = x @ beta
    w = np.exp(eta - eta.max())
    expected = np.zeros((ds.p, ds.p))
    for i in np.flatnonzero(ds.status == 1):
        risk = times >= times[i]
        s0 = w[risk].sum()
        xbar = (w[risk] @ x[risk]) / s0
        s2 = (x[risk] * w[risk][:, None]).T @ x[risk]
        expected += s2 / s0 - np.outer(xbar, xbar)
    assert_allclose(CoxObjective(ds).hessian(beta), expected / ds.n,
                    rtol=1e-12, atol=1e-15)


def test_objective_holds_no_copy_of_covariates():
    ds, _ = simulate_dataset(SimulationConfig(n=80, p=30, s=4, seed=8))
    obj = CoxObjective(ds)
    arrays = [v for v in list(vars(obj).values()) + list(vars(obj.cache).values())
              if isinstance(v, np.ndarray)]
    assert obj.dataset.covariates is ds.covariates
    assert all(a.size < ds.n * ds.p for a in arrays)


def test_nonfinite_error_reports_norm():
    # the max-eta offset lives on the small-time subject here, so the
    # late risk set underflows to an empty exponential sum
    ds = SurvivalDataset([1.0, 2.0], [1, 1], np.array([[1.0], [-1.0]]))
    obj = CoxObjective(ds)
    with pytest.raises(NonFiniteError, match="beta"):
        obj.nll(np.array([800.0]))
    with pytest.raises(NonFiniteError):
        obj.gradient(np.array([800.0]))


def test_fit_restricted_matches_scalar_search():
    # 3 subjects with a discordant pair so the restricted likelihood has an
    # interior minimizer (any 2-point no-tie instance is monotone)
    ds = SurvivalDataset([1.0, 2.0, 3.0], [1, 1, 1],
                         np.array([[0.0], [1.0], [0.0]]))
    beta = fit_restricted(ds, [0])
    obj = CoxObjective(ds)
    res = minimize_scalar(lambda b: obj.nll(np.array([b])),
                          bracket=(-3.0, 0.0, 3.0), method="golden",
                          options={"xtol": 1e-12})
    assert abs(beta[0] - res.x) <= 1e-6


def test_fit_restricted_monotone_likelihood(two_point):
    # perfectly concordant pair: no finite minimizer. The likelihood
    # flattens so fast that the gradient tolerance is met at a huge
    # coefficient; a tight iteration cap surfaces the limit error instead.
    beta = fit_restricted(two_point, [0])
    assert beta[0] > 10.0
    with pytest.raises(IterationLimitError) as exc:
        fit_restricted(two_point, [0], max_iter=3)
    assert exc.value.last_beta is not None


def test_fit_restricted_null_consistency():
    ds, _ = simulate_dataset(SimulationConfig(
        n=10_000, p=2, s=1, signal=ConstantSignal(0.0), seed=21))
    beta = fit_restricted(ds, [0])
    assert abs(beta[0]) <= 0.3
    assert beta[1] == 0.0


def test_fit_restricted_oracle_error_benchmark_band():
    # median estimation error of the support-restricted fit across seeds
    errs = []
    for seed in range(50):
        ds, beta_star = simulate_dataset(SimulationConfig(n=300, p=20, s=10, seed=seed))
        beta = fit_restricted(ds, np.arange(10))
        errs.append(np.linalg.norm(beta - beta_star))
    med = float(np.median(errs))
    assert 0.19 <= med <= 0.39


def test_fit_restricted_validates_support():
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, 15, 3)
    with pytest.raises(ValueError):
        fit_restricted(ds, [])
    with pytest.raises(ValueError):
        fit_restricted(ds, [5])


def test_no_events_raises():
    ds = SurvivalDataset([1.0, 2.0], [0, 0], np.zeros((2, 1)))
    with pytest.raises(DataError, match="no events"):
        CoxObjective(ds)
