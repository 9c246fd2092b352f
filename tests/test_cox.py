import math
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from tlammcox import cox
from tlammcox import (CapabilityError, CoxObjective, DataError,
                      IterationLimitError, NonFiniteError, RankError, SimulationConfig,
                      SurvivalDataset, fit_restricted, simulate_dataset)
from tlammcox.data import ConstantSignal
from conftest import central_differences, random_dataset, traced_peak


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
        fd = central_differences(obj.nll, beta)
        assert np.abs(g - fd).max() <= 1e-6 * (1 + np.abs(g).max())


def test_gradient_matches_finite_differences_at_n25_p4():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ds = random_dataset(rng, 25, 4)
        obj = CoxObjective(ds)
        beta = rng.standard_normal(4)
        g = obj.gradient(beta)
        fd = central_differences(obj.nll, beta)
        assert np.abs(g - fd).max() <= 1e-6 * (1 + np.abs(g).max())


def test_constant_covariate_gradient_matches_finite_differences():
    # analytic side is exactly zero; the difference quotient leaves only
    # cancellation dust
    ds = SurvivalDataset([1.0, 2.0, 3.0], [1, 1, 0], np.full((3, 2), 0.5))
    obj = CoxObjective(ds)
    g = obj.gradient(np.zeros(2))
    assert_allclose(g, 0.0, atol=1e-12)
    fd = central_differences(obj.nll, np.zeros(2))
    assert np.abs(g - fd).max() <= 1e-12 * (1 + np.abs(g).max())


def test_finite_differences_detect_a_corrupted_gradient():
    # negative control: the finite-difference check sees a 0.01 error
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, 25, 4)
    obj = CoxObjective(ds)
    beta = rng.standard_normal(4)
    corrupted = obj.gradient(beta) + np.array([0.01, 0, 0, 0])
    fd = central_differences(obj.nll, beta)
    assert np.abs(corrupted - fd).max() > 1e-3 * (1 + np.abs(corrupted).max())


def test_gradient_where_a_risk_sum_underflows_matches_finite_differences():
    # eta = (0, 356, -356): the latest risk set's exponential sum is
    # e^-712, a subnormal, so d / S0 overflows and the gradient is taken
    # in the log domain
    ds = SurvivalDataset([1.0, 2.0, 3.0], [1, 1, 1], np.array([[0.0], [1.0], [-1.0]]))
    obj = CoxObjective(ds)
    beta = np.array([356.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_allclose(obj.nll(beta), 356.0 / 3, rtol=1e-12)
        g = obj.gradient(beta)
        fd = central_differences(obj.nll, beta)
        assert np.abs(g - fd).max() <= 1e-6 * (1 + np.abs(g).max())
        assert_allclose(obj.value_and_gradient(beta.copy())[1], g, rtol=0)


def test_hessian_where_a_risk_sum_underflows_matches_gradient_differences():
    # the reproducer above: the plain d / S0 overflows, so the Hessian is
    # weighted by w c from the log domain
    ds = SurvivalDataset([1.0, 2.0, 3.0], [1, 1, 1], np.array([[0.0], [1.0], [-1.0]]))
    obj = CoxObjective(ds)
    beta = np.array([356.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        hess = obj.hessian(beta)
        fd = central_differences(obj.gradient, beta)
    assert np.abs(hess - fd).max() <= 1e-6 * (1 + np.abs(hess).max())


@pytest.mark.parametrize("name", ["ties", "censored_tail", "large_eta"])
def test_log_domain_hessian_matches_the_plain_one(name, monkeypatch):
    ds, beta = hessian_case(name)
    plain = CoxObjective(ds)
    plain_hessian, plain_gradient = plain.hessian(beta), plain.gradient(beta)
    monkeypatch.setattr(CoxObjective, "_risk_weights",
                        lambda self, eta, offset, w, s0: self._log_risk_weights(eta, offset))
    logged = CoxObjective(ds)
    assert_allclose(logged.hessian(beta), plain_hessian, rtol=1e-10, atol=1e-14)
    assert_allclose(logged.gradient(beta), plain_gradient, rtol=1e-10, atol=1e-14)


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
        fd = central_differences(obj.gradient, beta)
        assert np.abs(fd - hess).max() <= 1e-4 * (1 + np.abs(hess).max())


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
    # the default rule gathers a 25-column support at p=2400 and takes the
    # dense product on a full one; raising the size floor forces dense. Each
    # pass has its own objective, so no pass is served by the last sweep
    for min_p in (cox._GATHER_MIN_P, ds.p + 1):
        monkeypatch.setattr(cox, "_GATHER_MIN_P", min_p)
        obj = CoxObjective(ds)
        value, grad = obj.value_and_gradient(beta)
        assert_allclose(obj.nll(beta), ref_value, rtol=1e-12)
        assert_allclose(obj.gradient(beta), ref_grad, rtol=1e-12, atol=atol)
        assert_allclose(value, ref_value, rtol=1e-12)
        assert_allclose(grad, ref_grad, rtol=1e-12, atol=atol)


def count_eta_products(monkeypatch):
    """List that gains one entry per product X @ beta any objective takes."""
    products = []
    real_eta = CoxObjective._eta

    def counted(self, beta):
        products.append(self)
        return real_eta(self, beta)

    monkeypatch.setattr(CoxObjective, "_eta", counted)
    return products


def sparse_point(ds, size, seed):
    rng = np.random.default_rng(seed)
    beta = np.zeros(ds.p)
    beta[rng.choice(ds.p, size, replace=False)] = 0.3 * rng.standard_normal(size)
    return beta


# (n, p, support size): the gather path at 300x2400, the dense one at 200x100
SWEEP_SHAPES = [(300, 2400, 25), (200, 100, 40)]


@pytest.mark.parametrize("n, p, size", SWEEP_SHAPES)
def test_gradient_after_value_reuses_the_sweep_bit_for_bit(monkeypatch, n, p, size):
    ds, _ = simulate_dataset(SimulationConfig(n=n, p=p, s=10, seed=7))
    beta = sparse_point(ds, size, 19)
    fresh_value, fresh_grad = CoxObjective(ds).value_and_gradient(beta.copy())
    products = count_eta_products(monkeypatch)
    obj = CoxObjective(ds)
    value = obj.nll(beta)
    again, grad = obj.value_and_gradient(beta)
    assert len(products) == 1
    assert value == again == fresh_value
    assert grad.tobytes() == fresh_grad.tobytes()
    assert obj.gradient(beta).tobytes() == fresh_grad.tobytes()
    assert len(products) == 1


@pytest.mark.parametrize("n, p, size", SWEEP_SHAPES)
def test_mutated_point_or_gradient_never_gives_a_stale_result(n, p, size):
    ds, _ = simulate_dataset(SimulationConfig(n=n, p=p, s=10, seed=7))
    beta = sparse_point(ds, size, 20)
    obj = CoxObjective(ds)
    grad = obj.gradient(beta)
    expected = grad.copy()
    grad[:] = 0.0
    assert obj.gradient(beta).tobytes() == expected.tobytes()
    _, grad = obj.value_and_gradient(beta)
    grad *= 2.0
    assert obj.value_and_gradient(beta)[1].tobytes() == expected.tobytes()
    obj.nll(beta)
    beta[np.flatnonzero(beta)[0]] += 0.5   # in place: same object, new bytes
    fresh_value, fresh_grad = CoxObjective(ds).value_and_gradient(beta.copy())
    value, grad = obj.value_and_gradient(beta)
    assert value == fresh_value and grad.tobytes() == fresh_grad.tobytes()
    beta[np.flatnonzero(beta == 0.0)[0]] = 0.25   # in place, support grows
    assert obj.nll(beta) == CoxObjective(ds).nll(beta.copy())


def test_nonfinite_sweep_caches_nothing(monkeypatch):
    ds = SurvivalDataset([1.0, 2.0], [1, 1], np.array([[1.0], [-1.0]]))
    products = count_eta_products(monkeypatch)
    obj = CoxObjective(ds)
    bad = np.array([800.0])
    for call in (obj.nll, obj.gradient, obj.value_and_gradient):
        with pytest.raises(NonFiniteError):
            call(bad)
        assert obj._last_sweep is None
    assert len(products) == 3
    good = np.array([0.5])
    value = obj.nll(good)
    with pytest.raises(NonFiniteError):
        obj.nll(bad)
    assert obj._last_sweep[0] is good
    assert obj.value_and_gradient(good)[0] == value
    assert len(products) == 5


def test_concurrent_calls_on_one_objective_stay_consistent():
    """Threads sharing one objective each get the bits a lone caller gets:
    no result mixes one point's sweep with another's."""
    ds, _ = simulate_dataset(SimulationConfig(n=300, p=2400, s=10, seed=7))
    points = [sparse_point(ds, 10 + 5 * i, 30 + i) for i in range(4)]
    expected = [CoxObjective(ds).value_and_gradient(b.copy()) for b in points]
    obj = CoxObjective(ds)
    errors = []

    def work(i):
        beta = points[i]
        for _ in range(40):
            v = obj.nll(beta)
            value, grad = obj.value_and_gradient(beta)
            if not (v == value == expected[i][0]
                    and grad.tobytes() == expected[i][1].tobytes()):
                errors.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


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


def test_first_objective_allocates_no_design_sized_copy():
    # the objective's own state is O(n): no copy of this 5.76 MB design
    ds, _ = simulate_dataset(SimulationConfig(n=300, p=2400, s=10, seed=8))
    assert traced_peak(lambda: CoxObjective(ds)) < 0.5e6


@pytest.mark.parametrize("beta, match", [
    (np.zeros(2), r"beta must have length 1, got shape \(2,\)"),
    (np.zeros((1, 1)), r"beta must have length 1, got shape \(1, 1\)"),
    (np.array([np.nan]), "beta contains non-finite entries"),
    (np.array([-np.inf]), "beta contains non-finite entries"),
])
def test_objective_rejects_a_malformed_beta(two_point, beta, match):
    obj = CoxObjective(two_point)
    for call in (obj.nll, obj.gradient, obj.value_and_gradient):
        with pytest.raises(ValueError, match=match):
            call(beta)


def test_nonfinite_error_reports_norm():
    # the max-eta offset lives on the small-time subject here, so the
    # late risk set underflows to an empty exponential sum
    ds = SurvivalDataset([1.0, 2.0], [1, 1], np.array([[1.0], [-1.0]]))
    obj = CoxObjective(ds)
    with pytest.raises(NonFiniteError, match="beta"):
        obj.nll(np.array([800.0]))
    with pytest.raises(NonFiniteError):
        obj.gradient(np.array([800.0]))
    with pytest.raises(NonFiniteError, match="partial likelihood.*beta"):
        obj.value_and_gradient(np.array([800.0]))
    # several tied and untied event groups, and only the latest risk set
    # (the two subjects at t=5, both far below the max eta) underflows
    ds = SurvivalDataset([1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 5.0], [1, 1, 1, 0, 1, 1, 1],
                         np.array([[0.0], [1.0], [0.5], [0.2], [0.1], [-1.0], [-2.0]]))
    obj = CoxObjective(ds)
    beta = np.array([800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call, what in ((obj.nll, "partial likelihood"), (obj.gradient, "gradient"),
                           (obj.value_and_gradient, "partial likelihood")):
            with pytest.raises(NonFiniteError, match=f"{what} is non-finite at "
                               r"\|\|beta\|\|_2 = 800"):
                call(beta)
        assert obj._last_sweep is None
        # the earlier risk sets are positive: a smaller beta is finite
        value, grad = obj.value_and_gradient(np.array([1.0]))
        assert math.isfinite(value) and np.all(np.isfinite(grad))
    # S0 stays positive, yet covariates near the float maximum overflow the
    # value's sums, the score X^T r, and at beta = 0 the Hessian (numpy
    # warns of the overflow before the guard raises)
    with np.errstate(over="ignore", invalid="ignore"):
        obj = CoxObjective(SurvivalDataset([1.0, 2.0], [1, 1], np.array([[1e308], [1e308]])))
        with pytest.raises(NonFiniteError, match="partial likelihood is non-finite"):
            obj.nll(np.array([1.0]))
        x = np.array([[-1.7e308], [-1.7e308], [1.7e308], [1.7e308]])
        obj = CoxObjective(SurvivalDataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], x))
        assert math.isfinite(obj.nll(np.zeros(1)))
        with pytest.raises(NonFiniteError, match="gradient is non-finite"):
            obj.gradient(np.zeros(1))
        obj = CoxObjective(SurvivalDataset([1.0, 2.0, 3.0], [1, 1, 1],
                                           np.array([[1e200], [-1e200], [1e200]])))
        assert np.all(np.isfinite(obj.gradient(np.zeros(1))))
        with pytest.raises(NonFiniteError, match="hessian is non-finite"):
            obj.hessian(np.zeros(1))


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


def test_fit_restricted_monotone_likelihood(two_point, monkeypatch):
    # perfectly concordant pair: no finite minimizer. The likelihood
    # flattens so fast that the gradient tolerance is met at a huge
    # coefficient; a tight iteration cap surfaces the limit error instead.
    beta = fit_restricted(two_point, [0])
    assert beta[0] > 10.0
    # the tolerance is met on the 17th Newton step (gradient 6.2e-9, after
    # 1.7e-8): a cap of 17 returns the same point, one step less raises
    monkeypatch.setattr(cox, "_NEWTON_MAX_ITER", 17)
    assert fit_restricted(two_point, [0]) == beta
    for cap in (16, 3):
        monkeypatch.setattr(cox, "_NEWTON_MAX_ITER", cap)
        with pytest.raises(IterationLimitError) as exc:
            fit_restricted(two_point, [0])
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


@pytest.mark.parametrize("support", [[0.7, 1.2, 2.9], [True, 2], np.array([0.0, 1.0])],
                         ids=["fractions", "bool", "float-array"])
def test_fit_restricted_refuses_indices_that_are_not_integers(support):
    # an int() cast would fit {0, 1, 2}, {1, 2} and {0, 1}
    ds = random_dataset(np.random.default_rng(12), 15, 3)
    with pytest.raises(ValueError, match=r"support indices out of range: .* in \[0, 3\)"):
        fit_restricted(ds, support)


def _newton_trials(monkeypatch, spoil):
    """Patch CoxObjective.value_and_gradient so that `spoil(trial, value)`
    rewrites each Newton trial's value (the first call, at zero, is kept);
    returns the list the trial points are appended to."""
    trials, real = [], CoxObjective.value_and_gradient

    def patched(self, beta):
        value, grad = real(self, beta)
        if not np.any(beta):
            return value, grad
        trials.append(beta.copy())
        return spoil(len(trials), value), grad

    monkeypatch.setattr(CoxObjective, "value_and_gradient", patched)
    return trials


def test_fit_restricted_halves_a_failed_trial(monkeypatch):
    # a first trial that is non-finite, or whose value rises, is retried
    # at half the step; Newton starts at zero, so the retry is at exactly
    # half the first trial, and the fit ends at the same minimizer
    ds, _ = simulate_dataset(SimulationConfig(n=200, p=6, s=3, seed=5))
    reference = fit_restricted(ds, [0, 1, 2])

    def nonfinite(k, value):
        if k == 1:
            raise NonFiniteError("partial likelihood is non-finite")
        return value

    for spoil in (nonfinite, lambda k, value: value + 1.0 if k == 1 else value):
        with monkeypatch.context() as m:
            trials = _newton_trials(m, spoil)
            beta = fit_restricted(ds, [0, 1, 2])
        assert np.array_equal(trials[1], 0.5 * trials[0])
        assert_allclose(beta, reference, atol=1e-8)


def test_fit_restricted_raises_when_no_halving_decreases(monkeypatch):
    ds, _ = simulate_dataset(SimulationConfig(n=200, p=6, s=3, seed=5))
    trials = _newton_trials(monkeypatch, lambda k, value: value + 1.0)
    with pytest.raises(IterationLimitError, match="no decrease after step halving") as exc:
        fit_restricted(ds, [0, 1, 2])
    assert len(trials) == cox._NEWTON_HALVINGS
    assert np.array_equal(exc.value.last_beta, np.zeros(6))


def test_fit_restricted_singular_hessian_raises_rank_error():
    # an all-zero column gives the restricted Hessian an exactly zero row
    ds = SurvivalDataset([1.0, 2.0, 3.0], [1, 1, 1],
                         np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(RankError, match="singular restricted hessian"):
        fit_restricted(ds, [0, 1])


def test_fit_restricted_widens_the_hessian_cap_to_its_support(monkeypatch):
    # the oracle's Newton steps take a Hessian as wide as the support, so
    # a support wider than the cap is fitted, not refused
    ds, _ = simulate_dataset(SimulationConfig(n=200, p=8, s=3, seed=5))
    reference = fit_restricted(ds, range(5))
    monkeypatch.setattr(cox, "HESSIAN_P_CAP", 3)
    assert np.array_equal(fit_restricted(ds, range(5)), reference)


def test_no_events_raises():
    ds = SurvivalDataset([1.0, 2.0], [0, 0], np.zeros((2, 1)))
    with pytest.raises(DataError, match="no events"):
        CoxObjective(ds)
