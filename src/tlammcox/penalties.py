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


@dataclass(frozen=True)
class PenaltySpec:
    kind: str                  # "lasso" | "scad" | "mcp"
    lam: float
    shape: float = float("nan")

    def __post_init__(self):
        if self.kind not in ("lasso", "scad", "mcp"):
            raise ConfigError(f"unknown penalty kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ConfigError("lambda must be a positive real")
        if self.kind == "lasso":
            object.__setattr__(self, "shape", float("inf"))
        elif self.kind == "scad":
            shape = DEFAULT_SCAD_A if np.isnan(self.shape) else self.shape
            if not shape > 2:
                raise ConfigError(f"SCAD requires a > 2, got {shape}")
            object.__setattr__(self, "shape", float(shape))
        else:
            shape = DEFAULT_MCP_GAMMA if np.isnan(self.shape) else self.shape
            if not shape > 1:
                raise ConfigError(f"MCP requires gamma > 1, got {shape}")
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
    if np.any(t < 0):
        raise ValueError("penalty derivative is defined on t >= 0")
    lam = spec.lam
    if spec.kind == "lasso":
        out = np.full_like(t, lam)
    elif spec.kind == "scad":
        a = spec.shape
        out = np.where(t <= lam, lam, np.maximum(a * lam - t, 0.0) / (a - 1.0))
    else:
        out = np.maximum(lam - t / spec.shape, 0.0)
    return out if out.ndim else float(out)


def value(spec: PenaltySpec, beta) -> float:
    """sum_k p(|beta_k|), closed form per family."""
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


def shift_value(spec: PenaltySpec, beta) -> float:
    """h(beta) = sum_k p(|beta_k|) - lambda ||beta||_1 (concave, <= 0)."""
    if spec.kind == "lasso":
        return 0.0
    beta = np.asarray(beta, dtype=np.float64)
    return value(spec, beta) - spec.lam * float(np.abs(beta).sum())


def shift_gradient(spec: PenaltySpec, beta) -> np.ndarray:
    """Gradient of h; component j is (p'(|b_j|) - lambda) sign(b_j), which
    is 0 at b_j = 0 since p'(0+) = lambda."""
    beta = np.asarray(beta, dtype=np.float64)
    if spec.kind == "lasso":
        return np.zeros_like(beta)
    return (derivative(spec, np.abs(beta)) - spec.lam) * np.sign(beta)


def soft_threshold(x, t):
    """sign(x) * max(|x| - t, 0), elementwise; t may be a vector."""
    x = np.asarray(x, dtype=np.float64)
    out = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    return out if out.ndim else float(out)
