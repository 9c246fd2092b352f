"""Numerical verification tool: a brute-force localized-sparse-eigenvalue
probe on small instances.

The probe enumerates supports exhaustively but can only sample the l1 ball
of coefficient vectors, so rho_plus is a lower bound on the true sup and
rho_minus an upper bound on the true inf; treat the output as a
qualitative positivity diagnostic, not a certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cox import CoxObjective
from .data import SurvivalDataset, check_seed, is_integer
from .errors import CapabilityError, ConfigError

__all__ = ["LseReport", "lse_probe"]

LSE_P_CAP = 20


@dataclass(frozen=True)
class LseReport:
    m: int
    r: float
    rho_minus: float
    rho_plus: float
    probe_count: int
    beta_samples: str


def _l1_sphere_sample(rng, p, radius):
    # Dirichlet(1,..,1) magnitudes with random signs are uniform on the
    # l1 sphere of the given radius
    w = rng.dirichlet(np.ones(p))
    signs = rng.choice((-1.0, 1.0), size=p)
    return radius * w * signs


def lse_probe(dataset: SurvivalDataset, beta_star, m: int, r: float,
              n_beta_samples: int = 0, seed: int = 0) -> LseReport:
    """Extreme eigenvalues of m-column Hessian submatrices over probed
    coefficient points within l1 distance r of beta_star.

    Supports are enumerated exhaustively at size m; by eigenvalue
    interlacing that already attains the extrema over all supports of size
    <= m. Probed points are beta_star plus n_beta_samples draws on the l1
    sphere of radius r.
    """
    p = dataset.p
    if p > LSE_P_CAP:
        raise CapabilityError(f"lse_probe capped at p <= {LSE_P_CAP}, got {p}")
    if not (is_integer(m) and 1 <= m <= p):
        raise CapabilityError(f"m must lie in [1, p]; got m={m}, p={p}")
    if not (math.isfinite(r) and r >= 0):
        raise ConfigError(f"radius r must be non-negative and finite, got r={r}")
    if not (is_integer(n_beta_samples) and n_beta_samples >= 0):
        raise ConfigError(f"n_beta_samples must be non-negative, got {n_beta_samples}")
    check_seed(seed)
    beta_star = np.asarray(beta_star, dtype=np.float64)
    if beta_star.shape != (p,):
        raise ConfigError(f"beta_star has shape {beta_star.shape}, expected ({p},) "
                          "for the data's p")
    if not np.isfinite(beta_star).all():
        raise ConfigError("beta_star has non-finite entries")

    rng = np.random.default_rng(seed)
    points = [beta_star]
    if r > 0:
        points += [beta_star + _l1_sphere_sample(rng, p, r)
                   for _ in range(n_beta_samples)]

    obj = CoxObjective(dataset)
    rho_minus = np.inf
    rho_plus = -np.inf
    probes = 0
    for beta in points:
        hess = obj.hessian(beta)
        for support in itertools.combinations(range(p), m):
            idx = np.asarray(support, dtype=np.intp)
            sub = hess[np.ix_(idx, idx)]
            eig = np.linalg.eigvalsh(sub)
            rho_minus = min(rho_minus, float(eig[0]))
            rho_plus = max(rho_plus, float(eig[-1]))
            probes += 1
    desc = f"center + {len(points) - 1} l1-sphere samples (seed={seed})"
    return LseReport(m=m, r=float(r), rho_minus=rho_minus, rho_plus=rho_plus,
                     probe_count=probes, beta_samples=desc)
