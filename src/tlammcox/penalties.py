"""Penalty families (Lasso, SCAD, MCP), their derivatives, and the concave
shift that turns the penalized objective into shifted-loss + l1.

Every family satisfies: p'(0+) = lambda, p' non-increasing and continuous
on [0, inf), and p'(t) = 0 for t > shape * lambda with shape = a (SCAD),
gamma (MCP), inf (Lasso). Lasso is carried as the shape = inf member so
the same solver covers all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["PenaltySpec", "lasso", "scad", "mcp", "derivative", "value",
           "shift_value", "shift_gradient", "soft_threshold"]

DEFAULT_SCAD_A = 3.7
DEFAULT_MCP_GAMMA = 3.0
# the shape parameter of each concave family: (name, lower bound, default)
_SHAPES = {"scad": ("a", 2, DEFAULT_SCAD_A), "mcp": ("gamma", 1, DEFAULT_MCP_GAMMA)}


@dataclass(frozen=True)
class PenaltySpec:
    kind: str                  # "lasso" | "scad" | "mcp"
    lam: float
    shape: float = float("nan")

    def __post_init__(self):
        if self.kind not in ("lasso", *_SHAPES):
            raise ConfigError(f"unknown penalty kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ConfigError("lambda must be a positive real")
        shape = np.inf
        if self.kind in _SHAPES:
            name, bound, default = _SHAPES[self.kind]
            shape = default if np.isnan(self.shape) else self.shape
            if not bound < shape < np.inf:
                raise ConfigError(f"{self.kind.upper()} requires a finite {name} > "
                                  f"{bound}, got {shape}")
        object.__setattr__(self, "shape", float(shape))


def lasso(lam: float) -> PenaltySpec:
    return PenaltySpec("lasso", lam)


def scad(lam: float, a: float = DEFAULT_SCAD_A) -> PenaltySpec:
    return PenaltySpec("scad", lam, a)


def mcp(lam: float, gamma: float = DEFAULT_MCP_GAMMA) -> PenaltySpec:
    return PenaltySpec("mcp", lam, gamma)


def derivative(spec: PenaltySpec, t):
    """p'(t) for t >= 0 (scalar or array)."""
    t = np.asarray(t, dtype=np.float64)
    if (t < 0).any():
        raise ValueError("penalty derivative is defined on t >= 0")
    return _derivative(spec, t) if t.ndim else float(_derivative(spec, t))


def _derivative(spec: PenaltySpec, t) -> np.ndarray:
    """p'(t) on a float64 array t >= 0, unchecked."""
    lam, a = spec.lam, spec.shape
    if spec.kind == "lasso":
        return np.full_like(t, lam)
    if spec.kind == "scad":
        return np.where(t <= lam, lam, np.maximum(a * lam - t, 0.0) / (a - 1.0))
    return np.maximum(lam - t / a, 0.0)


def _per_coordinate(spec: PenaltySpec, t) -> np.ndarray:
    """p(t) per coordinate of t = |beta| for SCAD and MCP; SCAD's middle
    and flat pieces are evaluated only where t > lambda."""
    lam, a = spec.lam, spec.shape
    if spec.kind == "scad":
        per = lam * t
        above = t > lam
        tb = t[above]
        if tb.size:
            middle = (2 * a * lam * tb - tb * tb - lam * lam) / (2 * (a - 1))
            per[above] = np.where(tb <= a * lam, middle, lam * lam * (a + 1) / 2)
        return per
    return np.where(t <= a * lam, lam * t - t * t / (2 * a), a * lam * lam / 2)


def value(spec: PenaltySpec, beta) -> float:
    """sum_k p(|beta_k|), closed form per family."""
    t = np.abs(np.asarray(beta, dtype=np.float64).ravel())
    if spec.kind == "lasso":
        return float(spec.lam * t.sum())
    return float(_per_coordinate(spec, t).sum())


def shift_value(spec: PenaltySpec, beta) -> float:
    """h(beta) = sum_k p(|beta_k|) - lambda ||beta||_1 (concave, <= 0)."""
    if spec.kind == "lasso":
        return 0.0
    t = np.abs(np.asarray(beta, dtype=np.float64).ravel())
    return float(np.add.reduce(_per_coordinate(spec, t))) - spec.lam * float(np.add.reduce(t))


def shift_gradient(spec: PenaltySpec, beta) -> np.ndarray:
    """Gradient of h; component j is (p'(|b_j|) - lambda) sign(b_j), which
    is 0 at b_j = 0 since p'(0+) = lambda."""
    beta = np.asarray(beta, dtype=np.float64)
    if spec.kind == "lasso":
        return np.zeros_like(beta)
    return (_derivative(spec, np.abs(beta)) - spec.lam) * np.sign(beta)


def soft_threshold(x, t):
    """sign(x) * max(|x| - t, 0), elementwise; t may be a vector."""
    x = np.asarray(x, np.float64)
    out = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    return out if out.ndim else float(out)
