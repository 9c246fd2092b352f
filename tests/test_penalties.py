import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from tlammcox import ConfigError, PenaltySpec, lasso, mcp, scad
from tlammcox.penalties import (derivative, shift_gradient, shift_value,
                                soft_threshold, value)


def test_spec_validation():
    with pytest.raises(ConfigError):
        PenaltySpec("scad", 1.0, 2.0)       # a must exceed 2
    with pytest.raises(ConfigError):
        PenaltySpec("mcp", 1.0, 1.0)        # gamma must exceed 1
    with pytest.raises(ConfigError):
        PenaltySpec("scad", 0.0)
    with pytest.raises(ConfigError):
        PenaltySpec("ridge", 1.0)
    assert scad(1.0).shape == 3.7
    assert mcp(1.0).shape == 3.0
    assert lasso(1.0).shape == np.inf


def test_derivative_examples():
    s = scad(1.0)
    assert derivative(s, 0.0) == 1.0            # limit lambda at 0+
    assert derivative(s, 4.0) == 0.0            # zero beyond shape*lambda
    m = mcp(1.0)
    # (1 - 1.5/3)+ = 0.5, cross-checked against the primitive numerically
    assert_allclose(derivative(m, 1.5), 0.5, rtol=1e-12)
    h = 1e-6
    fd = (value(m, [1.5 + h]) - value(m, [1.5 - h])) / (2 * h)
    assert_allclose(fd, 0.5, atol=1e-6)
    assert derivative(lasso(0.7), 123.0) == 0.7
    with pytest.raises(ValueError):
        derivative(s, -0.1)


def test_derivative_continuity_at_kink():
    s = scad(1.0)
    assert_allclose(derivative(s, 1.0), derivative(s, 1.0 + 1e-12), atol=1e-9)


def test_value_examples():
    lam = 0.6
    assert_allclose(value(lasso(lam), [1.0, -2.0]), 3 * lam, rtol=1e-12)
    m = mcp(1.0, 3.0)
    # integral of (1 - u/3)+ saturates at gamma*lambda^2/2 = 1.5
    expected, _ = quad(lambda u: derivative(m, u), 0.0, 3.0)
    assert_allclose(expected, 1.5, atol=1e-9)
    assert_allclose(value(m, [3.0]), 1.5, rtol=1e-12)
    assert_allclose(value(m, [-7.2]), 1.5, rtol=1e-12)
    for spec in (lasso(1.0), scad(0.5), mcp(0.5)):
        assert value(spec, np.zeros(4)) == 0.0


def test_value_matches_quadrature():
    rng = np.random.default_rng(0)
    for spec in (scad(0.8, 3.7), mcp(0.8, 3.0), lasso(0.8)):
        bound = 2 * (spec.shape if np.isfinite(spec.shape) else 3.0) * spec.lam
        kinks = [k for k in (spec.lam, spec.shape * spec.lam) if np.isfinite(k)]
        for _ in range(10):
            t = float(rng.uniform(0, bound))
            pts = [k for k in kinks if k < t] or None
            expected, _ = quad(lambda u: derivative(spec, u), 0.0, t,
                               points=pts, limit=200)
            assert_allclose(value(spec, [t]), expected, atol=1e-8)
            assert_allclose(value(spec, [-t]), expected, atol=1e-8)  # even


def test_derivative_non_increasing():
    rng = np.random.default_rng(1)
    for spec in (scad(0.7), mcp(0.7), lasso(0.7)):
        hi = 3 * spec.lam * (spec.shape if np.isfinite(spec.shape) else 4.0)
        t = np.sort(rng.uniform(0, hi, size=50))
        d = derivative(spec, t)
        assert np.all(np.diff(d) <= 1e-12)


def test_shift_gradient_examples():
    lam = 1.0
    assert_allclose(shift_gradient(lasso(lam), [0.3, -2.0, 0.0]), 0.0)
    s = scad(lam, 3.7)
    # beyond shape*lambda the shift cancels the l1 term entirely
    assert_allclose(shift_gradient(s, [5.0]), [-1.0], rtol=1e-12)
    m = mcp(lam, 3.0)
    assert_allclose(shift_gradient(m, [-1.5]), [0.5], rtol=1e-12)
    assert shift_gradient(m, [0.0])[0] == 0.0


def test_shift_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for spec in (scad(0.9), mcp(0.9)):
        kinks = {spec.lam, spec.shape * spec.lam}
        checked = 0
        while checked < 20:
            b = float(rng.uniform(-2.5 * spec.shape * spec.lam,
                                  2.5 * spec.shape * spec.lam))
            if any(abs(abs(b) - k) < 1e-3 for k in kinks) or abs(b) < 1e-3:
                continue
            h = 1e-7
            fd = (shift_value(spec, [b + h]) - shift_value(spec, [b - h])) / (2 * h)
            assert_allclose(shift_gradient(spec, [b])[0], fd, atol=1e-6)
            checked += 1


def test_shift_concavity_bounds():
    # numeric second differences of h lie in [-max_concavity, ~0]
    rng = np.random.default_rng(3)
    for spec, bound in ((scad(1.0, 3.7), 1 / 2.7), (mcp(1.0, 3.0), 1 / 3.0)):
        for _ in range(200):
            b = float(rng.uniform(-5, 5))
            h = 1e-4
            second = (shift_value(spec, [b + h]) - 2 * shift_value(spec, [b])
                      + shift_value(spec, [b - h])) / h**2
            assert -bound - 1e-6 <= second <= 1e-6


def test_soft_threshold_examples():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(-2.0, 0.5) == -1.5
    assert_allclose(soft_threshold(np.array([3.0, -0.5, -2.0]),
                                   np.array([1.0, 1.0, 0.5])),
                    [2.0, 0.0, -1.5])


# verbatim nested np.where formulas of the closed forms; the package must
# give the same bits
def where_derivative(spec, t):
    t = np.asarray(t, dtype=np.float64)
    lam = spec.lam
    if spec.kind == "lasso":
        out = np.full_like(t, lam)
    elif spec.kind == "scad":
        a = spec.shape
        out = np.where(t <= lam, lam, np.maximum(a * lam - t, 0.0) / (a - 1.0))
    else:
        out = np.maximum(lam - t / spec.shape, 0.0)
    return out if out.ndim else float(out)


def where_value(spec, beta):
    t = np.abs(np.asarray(beta, dtype=np.float64))
    lam = spec.lam
    if spec.kind == "lasso":
        return float(lam * t.sum())
    if spec.kind == "scad":
        a = spec.shape
        inner = lam * t
        middle = (2 * a * lam * t - t * t - lam * lam) / (2 * (a - 1))
        flat = lam * lam * (a + 1) / 2
        per = np.where(t <= lam, inner, np.where(t <= a * lam, middle, flat))
        return float(per.sum())
    g = spec.shape
    per = np.where(t <= g * lam, lam * t - t * t / (2 * g), g * lam * lam / 2)
    return float(per.sum())


def where_shift_value(spec, beta):
    if spec.kind == "lasso":
        return 0.0
    beta = np.asarray(beta, dtype=np.float64)
    return where_value(spec, beta) - spec.lam * float(np.abs(beta).sum())


def where_shift_gradient(spec, beta):
    beta = np.asarray(beta, dtype=np.float64)
    if spec.kind == "lasso":
        return np.zeros_like(beta)
    return (where_derivative(spec, np.abs(beta)) - spec.lam) * np.sign(beta)


@pytest.mark.parametrize("spec", [scad(0.3), scad(0.45, 2.5), mcp(0.3),
                                  mcp(0.45, 1.5), lasso(0.3)])
def test_penalty_values_bitwise_equal_to_where_formulas(spec):
    rng = np.random.default_rng(9)
    lam = spec.lam
    kinks = [lam] + ([spec.shape * lam] if np.isfinite(spec.shape) else [])
    special = np.array([0.0, -0.0] + kinks + [-k for k in kinks])
    for trial in range(200):
        p = int(rng.integers(1, 60))
        beta = rng.standard_normal(p) * rng.choice([0.1, 1.0, 5.0]) * lam
        beta[rng.uniform(size=p) < 0.4] = 0.0
        picks = rng.integers(0, p, size=min(p, 6))
        beta[picks] = rng.choice(special, size=picks.size)
        if trial == 0:
            beta = special.copy()
        assert value(spec, beta) == where_value(spec, beta)
        assert shift_value(spec, beta) == where_shift_value(spec, beta)
        assert (shift_gradient(spec, beta).tobytes()
                == where_shift_gradient(spec, beta).tobytes())
