"""Shared fixtures and the one brute-force or finite-difference reference
for each quantity the tests check against: omega, the Cox derivatives and
Harrell's C."""

import numpy as np
import pytest

from tlammcox import SurvivalDataset


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
