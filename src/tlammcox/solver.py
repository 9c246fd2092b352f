"""LAMM proximal steps with adaptive curvature search, the omega optimality
measure, the two-stage TLAMM driver, and the iterative weighted-l1 (I-LAMM)
baseline.

One LAMM step minimizes the isotropic quadratic model of the smooth part
plus the l1 term, i.e. a soft-threshold of beta - grad/phi at lambda/phi.
The curvature phi starts each iteration at max(phi0, phi_prev/gamma_u) and
is inflated by gamma_u until the model majorizes the smooth loss at the
candidate. Stage 1 runs on the raw loss (l1 relaxation); stage 2 runs on
the shifted loss whose gradient adds the concave penalty shift, so its
fixed points solve the folded-concave problem.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cox import CoxObjective
from .data import SurvivalDataset
from .errors import ConfigError, LineSearchError, NonFiniteError
from .penalties import PenaltySpec, derivative, shift_gradient, shift_value, soft_threshold

__all__ = ["SolverConfig", "SolverTrace", "TraceRecord", "FitResult",
           "omega", "lamm_step", "line_search", "stage1_lasso", "stage2",
           "tlamm", "ilamm"]


@dataclass(frozen=True)
class SolverConfig:
    phi0: float = 0.1
    gamma_u: float = 2.0
    eps1: float = 0.002
    eps2: float = 0.002
    max_iter_stage: int = 2000
    max_phi: float = 1e12
    stop_mode: str = "omega"        # "omega" | "stepnorm"

    def __post_init__(self):
        if not self.gamma_u > 1:
            raise ConfigError("gamma_u must exceed 1")
        if self.phi0 <= 0 or self.eps1 <= 0 or self.eps2 <= 0:
            raise ConfigError("phi0, eps1, eps2 must be positive")
        if self.phi0 > self.max_phi:
            raise ConfigError("phi0 must not exceed max_phi")
        if self.max_iter_stage < 1:
            raise ConfigError("max_iter_stage must be positive")
        if self.stop_mode not in ("omega", "stepnorm"):
            raise ConfigError(f"unknown stop_mode {self.stop_mode!r}")


@dataclass(frozen=True)
class TraceRecord:
    stage: int
    k: int
    objective: float          # F = smooth loss + l1 term at the new iterate
    omega: float
    phi: float
    step_norm: float
    support: int
    majorization_gap: float   # Psi(candidate) - loss(candidate) at acceptance


@dataclass
class SolverTrace:
    records: list = field(default_factory=list)

    def stage_records(self, stage: int):
        return [r for r in self.records if r.stage == stage]

    def write_csv(self, path):
        with open(str(path), "w", encoding="utf-8") as fh:
            fh.write("stage,iter,F,omega,phi,step_norm,support\n")
            for r in self.records:
                fh.write(f"{r.stage},{r.k},{float(r.objective)!r},"
                         f"{float(r.omega)!r},{float(r.phi)!r},"
                         f"{float(r.step_norm)!r},{r.support}\n")


@dataclass
class FitResult:
    beta: np.ndarray
    lam: float
    stage1_beta: np.ndarray
    iterations: tuple                 # accepted steps per stage: (k1, k2)
    trace: SolverTrace
    converged: tuple                  # (stage1, stage2)
    seconds: float = 0.0

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.beta != 0.0)


def omega(grad, beta, lam) -> float:
    """min over l1 subgradients xi of ||grad + lam * xi||_inf.

    Coordinate-wise closed form: |g_j + lam sign(b_j)| where b_j != 0 and
    max(|g_j| - lam, 0) where b_j = 0. lam may be a vector of per-
    coordinate weights.
    """
    grad = np.asarray(grad, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    zero = beta == 0.0
    per = np.where(zero,
                   np.maximum(np.abs(grad) - lam, 0.0),
                   np.abs(grad + lam * np.sign(beta)))
    return float(per.max()) if per.size else 0.0


def lamm_step(beta, grad, phi, lam) -> np.ndarray:
    """Minimizer of the phi-isotropic model plus the l1 term."""
    return soft_threshold(beta - grad / phi, np.asarray(lam) / phi)


def line_search(loss_fn, beta, loss_at_beta, grad_at_beta, phi_prev, lam,
                config: SolverConfig):
    """Inflate phi by gamma_u until the quadratic model majorizes the
    smooth loss at the proximal candidate.

    Returns (candidate, phi, loss(candidate), step_norm, majorization_gap).
    Non-finite candidate losses count as failed majorization.
    """
    phi = max(config.phi0, phi_prev / config.gamma_u)
    while True:
        cand = lamm_step(beta, grad_at_beta, phi, lam)
        delta = cand - beta
        sq = float(delta @ delta)
        model = loss_at_beta + float(grad_at_beta @ delta) + 0.5 * phi * sq
        try:
            cand_loss = loss_fn(cand)
        except NonFiniteError:
            cand_loss = np.inf
        if np.isfinite(cand_loss) and cand_loss <= model:
            return cand, phi, float(cand_loss), float(np.sqrt(sq)), float(model - cand_loss)
        phi *= config.gamma_u
        if phi > config.max_phi:
            raise LineSearchError(
                f"no majorizing phi below {config.max_phi:g}; "
                "loss landscape non-finite or gradient inconsistent")


def _lamm_loop(objective: CoxObjective, weights, init, *, config: SolverConfig,
               stage: int, trace: SolverTrace, phi_init=None,
               shift: PenaltySpec | None = None):
    """One LAMM stage on loss + sum_j w_j |b_j| from init: appends one
    TraceRecord per accepted step and returns (beta, steps, converged, phi).

    Stage 1 (the l1 relaxation), stage 2 and every I-LAMM stage are this
    routine. `weights` is lambda or a per-coordinate vector. The loss is
    `objective.nll`, plus the concave shift of the penalty `shift` when one
    is given (stage 2). The tolerance is eps1 in stage 1 and eps2 after it.

    Under omega stopping the current iterate is tested before stepping, so
    an init that is already eps-optimal is returned unchanged; stepnorm
    mode (consecutive-iterate distance) always takes at least one step.
    phi_init carries the accepted curvature across stages so a follow-on
    stage continues exactly where a single longer run would be.
    """
    eps = config.eps1 if stage == 1 else config.eps2

    def l1_term(b):
        if np.ndim(weights):
            return float(weights @ np.abs(b))
        return weights * float(np.abs(b).sum())

    if shift is None:
        loss_fn, value_grad_fn = objective.nll, objective.value_and_gradient
    else:
        def loss_fn(b):
            return objective.nll(b) + shift_value(shift, b)

        def value_grad_fn(b):
            v, g = objective.value_and_gradient(b)
            return v + shift_value(shift, b), g + shift_gradient(shift, b)

    beta = np.asarray(init, dtype=np.float64).copy()
    loss, grad = value_grad_fn(beta)
    phi_prev = config.phi0 if phi_init is None else phi_init
    for k in range(1, config.max_iter_stage + 1):
        if config.stop_mode == "omega":
            w = omega(grad, beta, weights)
            if w <= eps:
                return beta, k - 1, True, phi_prev
        beta, phi, loss, step_norm, gap = line_search(
            loss_fn, beta, loss, grad, phi_prev, weights, config)
        _, grad = value_grad_fn(beta)
        phi_prev = phi
        w = omega(grad, beta, weights)
        trace.records.append(TraceRecord(
            stage=stage, k=k, objective=loss + l1_term(beta), omega=w,
            phi=phi, step_norm=step_norm,
            support=int(np.count_nonzero(beta)),
            majorization_gap=gap))
        if config.stop_mode == "stepnorm" and step_norm <= eps:
            return beta, k, True, phi_prev
        if config.stop_mode == "omega" and w <= eps:
            return beta, k, True, phi_prev
        if step_norm == 0.0:
            # bitwise fixed point of the update map: below max_phi a zero
            # step is only reachable once omega sits at the float64 floor,
            # so no representable descent remains
            return beta, k, w <= eps, phi_prev
    return beta, config.max_iter_stage, False, phi_prev


def stage1_lasso(objective: CoxObjective, lam: float, config: SolverConfig):
    """l1-penalized burn-in on the raw loss from zero; returns (beta, steps,
    converged, trace, phi)."""
    if lam <= 0:
        raise ConfigError("lambda must be positive")
    trace = SolverTrace()
    beta, steps, ok, phi = _lamm_loop(objective, lam, np.zeros(objective.p),
                                      config=config, stage=1, trace=trace)
    return beta, steps, ok, trace, phi


def stage2(objective: CoxObjective, spec: PenaltySpec, config: SolverConfig,
           init, phi_init=None):
    """LAMM on the shifted loss (raw loss + concave shift) with l1 weight
    lambda; returns (beta, steps, converged, trace, phi)."""
    trace = SolverTrace()
    beta, steps, ok, phi = _lamm_loop(objective, spec.lam, init, config=config,
                                      stage=2, trace=trace, phi_init=phi_init,
                                      shift=spec)
    return beta, steps, ok, trace, phi


def tlamm(dataset: SurvivalDataset, spec: PenaltySpec,
          config: SolverConfig = SolverConfig()) -> FitResult:
    """Two-stage fit: l1 burn-in at lambda, then direct LAMM on the shifted
    folded-concave objective from the stage-1 iterate."""
    t0 = time.perf_counter()
    objective = CoxObjective(dataset)
    b1, k1, ok1, trace, phi1 = stage1_lasso(objective, spec.lam, config)
    b2, k2, ok2, tr2, _ = stage2(objective, spec, config, init=b1, phi_init=phi1)
    trace.records.extend(tr2.records)
    return FitResult(beta=b2, lam=spec.lam, stage1_beta=b1,
                     iterations=(k1, k2), trace=trace, converged=(ok1, ok2),
                     seconds=time.perf_counter() - t0)


def ilamm(dataset: SurvivalDataset, spec: PenaltySpec,
          config: SolverConfig = SolverConfig(),
          max_stages: int = 20) -> FitResult:
    """Iterative weighted-l1 baseline: after the burn-in, repeatedly solve
    an adaptive Lasso whose weights are the penalty derivative at the
    previous stage's coefficients; stops early once consecutive stage
    outputs are within eps2 in l2; running out of max_stages first clears
    converged[1]."""
    t0 = time.perf_counter()
    objective = CoxObjective(dataset)
    b1, k1, ok1, trace, phi = stage1_lasso(objective, spec.lam, config)
    b_prev = b1
    total_steps = 0
    ok_tighten = True
    for ell in range(2, max_stages + 1):
        weights = np.asarray(derivative(spec, np.abs(b_prev)), dtype=np.float64)
        b_next, steps, ok, phi = _lamm_loop(objective, weights, b_prev,
                                            config=config, stage=ell,
                                            trace=trace, phi_init=phi)
        total_steps += steps
        ok_tighten = ok_tighten and ok
        gap = float(np.linalg.norm(b_next - b_prev))
        b_prev = b_next
        if gap <= config.eps2:
            break
    else:
        ok_tighten = False
    return FitResult(beta=b_prev, lam=spec.lam, stage1_beta=b1,
                     iterations=(k1, total_steps), trace=trace,
                     converged=(ok1, ok_tighten),
                     seconds=time.perf_counter() - t0)
