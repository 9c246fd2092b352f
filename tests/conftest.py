"""Shared fixtures, the traced-memory probe, and the one brute-force,
finite-difference or direct-formula reference for each quantity the tests
check against: omega, the Cox derivatives, Harrell's C, the correlated
designs and the gradient sup-norm scaling table."""

import tracemalloc

import numpy as np
import pytest

from tlammcox import CoxObjective, SimulationConfig, SurvivalDataset, simulate_dataset
from tlammcox.data import ConstantSignal, Independent


@pytest.fixture
def two_point():
    """times (1,2), both events, single covariate (1,0): risk sets {0,1}, {1}."""
    return SurvivalDataset([1.0, 2.0], [1, 1], np.array([[1.0], [0.0]]))


def random_dataset(rng, n, p, censor_frac=0.3):
    """Small random instance with mixed censoring and no tied times."""
    times = rng.exponential(1.0, size=n) + 1e-3
    status = (rng.uniform(size=n) > censor_frac).astype(int)
    if status.sum() == 0:
        status[int(rng.integers(n))] = 1
    x = rng.standard_normal((n, p))
    return SurvivalDataset(times, status, x)


def grid_omega(grad, beta, lam, ticks):
    """min ||grad + lam xi||_inf over the product grid of l1 subgradients:
    xi_j = sign(beta_j) where beta_j != 0, else each of the ticks. One
    vectorized pass per choice of the first coordinate, so the whole grid
    is never held at once."""
    choices = [ticks if b == 0 else np.array([np.sign(b)]) for b in beta]
    rest = np.meshgrid(*choices[1:], indexing="ij")
    rest = np.column_stack([c.ravel() for c in rest]) if rest else np.empty((1, 0))
    best = np.inf
    for x0 in choices[0]:
        xi = np.column_stack([np.full(len(rest), x0), rest])
        best = min(best, float(np.abs(grad + lam * xi).max(axis=1).min()))
    return best


def central_differences(f, beta, h=1e-5):
    """(f(beta + h e_j) - f(beta - h e_j)) / 2h for each j: the gradient of
    a scalar f, or the Jacobian (column j per e_j) of a vector f."""
    cols = []
    for j in range(beta.size):
        e = np.zeros(beta.size)
        e[j] = h
        cols.append((f(beta + e) - f(beta - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def brute_force_concordance(beta, ds):
    """Harrell's C by counting every ordered pair (i, j) with i an event
    before t_j: concordant if eta_i > eta_j, discordant if eta_i < eta_j.
    None when no pair is either."""
    eta = ds.covariates @ beta
    comparable = (ds.status[:, None] == 1) & (ds.times[:, None] < ds.times[None, :])
    conc = int((comparable & (eta[:, None] > eta[None, :])).sum())
    disc = int((comparable & (eta[:, None] < eta[None, :])).sum())
    if conc + disc == 0:
        return None
    return conc / (conc + disc)


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while fn() runs (numpy
    registers its buffers with it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def constant_correlation_design(rho, n, p, seed):
    """x = sqrt(rho) z 1 + sqrt(1-rho) eps, drawing z then eps."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 1))
    eps = rng.standard_normal((n, p))
    return np.sqrt(rho) * z + np.sqrt(1.0 - rho) * eps


def autoregressive_design(rho, n, p, seed):
    """x_1 = eps_1, x_j = rho x_{j-1} + sqrt(1-rho^2) eps_j, into a new array."""
    eps = np.random.default_rng(seed).standard_normal((n, p))
    x = np.empty((n, p))
    x[:, 0] = eps[:, 0]
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        x[:, j] = rho * x[:, j - 1] + scale * eps[:, j]
    return x


def gradient_sup_norm_scaling(reps, n, p_list, seed=0, s=None, signal=None,
                              design=Independent()):
    """Median ||grad at the generating coefficients||_inf per p, for
    eyeballing the sqrt(log p / n) rate. s (clamped to p) and the constant
    signal default to SimulationConfig's model."""
    out = []
    for pi, p in enumerate(p_list):
        norms = []
        for rep in range(reps):
            ss = np.random.SeedSequence([int(seed), pi, rep])
            cfg = SimulationConfig(n=n, p=int(p),
                                   s=None if s is None else min(s, int(p)),
                                   signal=None if signal is None else ConstantSignal(signal),
                                   design=design,
                                   seed=int(ss.generate_state(1, np.uint64)[0]))
            dataset, beta_star = simulate_dataset(cfg)
            g = CoxObjective(dataset).gradient(beta_star)
            norms.append(float(np.abs(g).max()))
        out.append((int(p), float(np.median(norms))))
    return out
