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

Every stage after stage 1 also stops once the iterate's support reaches
the number of events: past that point the partial likelihood can flatten
along a diverging direction (monotone likelihood), so further steps buy
nothing. Each fit reports how it ended in `FitResult.status`: converged
only when every stage converged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cox import CoxObjective
from .data import SurvivalDataset, is_integer, write_rows
from .errors import ConfigError, LineSearchError, NonFiniteError
from .penalties import PenaltySpec, derivative, shift_gradient, shift_value, soft_threshold

__all__ = ["SolverConfig", "SolverTrace", "TraceRecord", "FitResult",
           "omega", "lamm_step", "line_search", "stage1_lasso", "stage2",
           "tlamm", "ilamm"]

_MAX_STAGES = 20          # I-LAMM's stage budget, the burn-in included
_MAX_PHI = 1e12           # the line search's curvature cap


@dataclass(frozen=True)
class SolverConfig:
    phi0: float = 0.1
    gamma_u: float = 2.0
    eps1: float = 0.002
    eps2: float = 0.002
    max_iter_stage: int = 2000

    def __post_init__(self):
        # each test is written so that a NaN or an infinity fails it
        if not 1 < self.gamma_u < math.inf:
            raise ConfigError("gamma_u must be finite and exceed 1")
        if not (self.phi0 > 0 and 0 < self.eps1 < math.inf and 0 < self.eps2 < math.inf):
            raise ConfigError("phi0, eps1, eps2 must be positive and finite")
        if not self.phi0 <= _MAX_PHI:
            raise ConfigError(f"phi0 must not exceed {_MAX_PHI:g}")
        cap = self.max_iter_stage
        if not (is_integer(cap) and cap >= 1):
            raise ConfigError(f"max_iter_stage must be a positive integer, got {cap!r}")


class TraceRecord(NamedTuple):
    stage: int
    k: int
    objective: float          # F = smooth loss + l1 term at the new iterate
    omega: float
    phi: float
    step_norm: float
    support: int
    majorization_gap: float   # Psi(candidate) - loss(candidate) at acceptance


class StageWork(NamedTuple):
    stage: int                # one `_lamm_loop` run: its stage, how it ended, its work
    exit: str                 # "converged", "saturated", "stalled" or "max_iter"
    loss_sweeps: int          # objective.nll calls, one per line-search trial
    vg_hits: int              # value_and_gradient calls the last sweep served
    vg_fresh: int             # value_and_gradient calls that swept afresh
    steps: int                # accepted steps
    seconds: float


@dataclass
class SolverTrace:
    records: list = field(default_factory=list)
    work: list = field(default_factory=list)      # one StageWork per stage, in order

    def write_csv(self, path):
        with open(str(path), "w", encoding="utf-8") as fh:
            write_rows(fh, [("stage", "iter", "F", "omega", "phi", "step_norm", "support"),
                            *((r.stage, r.k, *map(float, r[2:6]), r.support)
                              for r in self.records)])


@dataclass
class FitResult:
    beta: np.ndarray
    stage1_beta: np.ndarray           # where stage 2 started: stage 1's output or a warm start
    iterations: tuple                 # accepted steps per stage: (k1, k2)
    trace: SolverTrace
    converged: tuple                  # (stage1, stage2); a warm fit runs no stage 1 to fail
    # how the fit ended: the last stage exit in trace.work that is not
    # "converged", else "converged"; I-LAMM out of stages gives "max_iter"
    status: str
    seconds: float

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.beta != 0.0)


def omega(grad, beta, lam) -> float:
    """min over l1 subgradients xi of ||grad + lam * xi||_inf.

    Coordinate-wise closed form: |g_j + lam sign(b_j)| where b_j != 0 and
    max(|g_j| - lam, 0) where b_j = 0. lam may be a vector of per-
    coordinate weights. Both forms are taken everywhere and the zero
    pattern of beta picks between them.
    """
    grad, beta = np.asarray(grad, dtype=np.float64), np.asarray(beta, dtype=np.float64)
    per = np.where(beta == 0.0, np.maximum(np.abs(grad) - lam, 0.0),
                   np.abs(grad + lam * np.sign(beta)))
    return float(np.maximum.reduce(per)) if per.size else 0.0


def lamm_step(beta, grad, phi, lam) -> np.ndarray:
    """Minimizer of the phi-isotropic model plus the l1 term."""
    return soft_threshold(beta - grad / phi, lam / phi)


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
            cand_loss = float(loss_fn(cand))
        except NonFiniteError:
            cand_loss = math.inf
        if math.isfinite(cand_loss) and cand_loss <= model:
            return cand, phi, cand_loss, math.sqrt(sq), model - cand_loss
        phi *= config.gamma_u
        if phi > _MAX_PHI:
            raise LineSearchError(
                f"no majorizing phi below {_MAX_PHI:g}; "
                "loss landscape non-finite or gradient inconsistent")


def _lamm_loop(objective: CoxObjective, weights, init, *, config: SolverConfig,
               stage: int, trace: SolverTrace, phi_init=None,
               shift: PenaltySpec | None = None):
    """One LAMM stage on loss + sum_j w_j |b_j| from init: appends one
    TraceRecord per accepted step and its StageWork (the reason it stopped
    and its counts, read off the objective's counters) to the trace, and
    returns (beta, steps, converged, phi).

    Stage 1 (the l1 relaxation), stage 2 and every I-LAMM stage are this
    routine. `weights` is lambda or a per-coordinate vector. The loss is
    `objective.nll`, plus the concave shift of the penalty `shift` when one
    is given (stage 2). The tolerance is eps1 in stage 1 and eps2 after it.

    A stage converges once omega <= eps. The current iterate is tested
    before stepping, so an init that is already eps-optimal is returned
    unchanged. A zero step with omega > eps stops it as stalled, as does a
    failed line search after a step whose predicted decrease 0.5 phi
    ||step||^2 was below one ulp of the loss (the float floor); any other
    failed search raises. max_iter_stage steps stop it as max_iter. init is
    not copied (a stage that takes no step returns a copy), so a stage
    handed the previous stage's last array starts on its sweep, and
    phi_init carries the curvature: a follow-on stage continues exactly
    where a single longer run would be.

    Every stage after stage 1 stops, unconverged, once the support is at
    least the number of events: at the start, so a saturated init takes no
    step, and after each accepted step. Stage 1 is not tested, since the
    l1 burn-in at small lambda passes through saturated iterates early on
    and then leaves them.
    """
    eps = config.eps1 if stage == 1 else config.eps2
    saturation = objective.dataset.n_events if stage > 1 else None

    if np.ndim(weights):
        def l1_term(b):
            return float(weights @ np.abs(b))
    else:
        def l1_term(b):
            return weights * float(np.add.reduce(np.abs(b)))

    if shift is None:
        loss_fn = objective.nll
    else:
        def loss_fn(b):
            return objective.nll(b) + shift_value(shift, b)

    t0 = time.perf_counter()
    start = (objective.loss_sweeps, objective.vg_hits, objective.vg_fresh)

    def done(steps, why):
        trace.work.append(StageWork(stage, why, objective.loss_sweeps - start[0],
                                    objective.vg_hits - start[1],
                                    objective.vg_fresh - start[2],
                                    steps, time.perf_counter() - t0))
        return (beta if steps else beta.copy()), steps, why == "converged", phi_prev

    beta = np.asarray(init, dtype=np.float64)
    phi_prev = config.phi0 if phi_init is None else phi_init
    if saturation is not None and np.count_nonzero(beta) >= saturation:
        return done(0, "saturated")
    loss, grad = objective.value_and_gradient(beta)
    if shift is not None:
        loss += shift_value(shift, beta)
        grad = grad + shift_gradient(shift, beta)
    # omega of the accepted iterate is the next step's pre-step test, so
    # it is computed once per step plus once here
    if omega(grad, beta, weights) <= eps:
        return done(0, "converged")
    for k in range(1, config.max_iter_stage + 1):
        try:
            beta, phi, loss, step_norm, gap = line_search(
                loss_fn, beta, loss, grad, phi_prev, weights, config)
        except LineSearchError:
            if k == 1 or 0.5 * phi_prev * step_norm * step_norm >= np.spacing(abs(loss)):
                raise
            return done(k - 1, "stalled")
        # the accepted loss is line_search's, so no shift value is needed here
        grad = objective.value_and_gradient(beta)[1]
        if shift is not None:
            grad = grad + shift_gradient(shift, beta)
        phi_prev = phi
        w = omega(grad, beta, weights)
        support = int(np.count_nonzero(beta))
        trace.records.append(TraceRecord(stage, k, loss + l1_term(beta), w, phi,
                                         step_norm, support, gap))
        if saturation is not None and support >= saturation:
            return done(k, "saturated")
        if w <= eps:
            return done(k, "converged")
        if step_norm == 0.0:
            # bitwise fixed point of the update map: below _MAX_PHI a zero
            # step is only reachable once omega sits at the float64 floor,
            # so no representable descent remains
            return done(k, "stalled")
    return done(config.max_iter_stage, "max_iter")


def _fit_result(beta, stage1_beta, trace, t0, out_of_stages=False):
    """FitResult read from the trace's stage records by one rule: steps
    are (stage 1's, the rest's); stage 1 converged when its exit did
    (vacuously in a warm fit, which runs none), the later stages when all
    theirs did and I-LAMM did not run out of stages."""
    k1 = sum(w.steps for w in trace.work if w.stage == 1)
    status = "max_iter" if out_of_stages else next(
        (w.exit for w in reversed(trace.work) if w.exit != "converged"), "converged")
    first_ok = all(w.exit == "converged" for w in trace.work if w.stage == 1)
    later_ok = not out_of_stages and all(w.exit == "converged"
                                         for w in trace.work if w.stage > 1)
    return FitResult(beta=beta, stage1_beta=stage1_beta,
                     iterations=(k1, sum(w.steps for w in trace.work) - k1), trace=trace,
                     converged=(first_ok, later_ok),
                     status=status, seconds=time.perf_counter() - t0)


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
          config: SolverConfig = SolverConfig(), start: FitResult | None = None) -> FitResult:
    """Two-stage fit: l1 burn-in at lambda, then direct LAMM on the shifted
    folded-concave objective from the stage-1 iterate, on one trace.

    Given `start`, a fit at a neighbouring lambda on the same data (a warm
    start along a path), stage 1 is skipped: stage 2 runs from start.beta
    at start's last curvature, and the fit reports only that stage. The
    curvature falls back to phi0 when start took no step, or stalled, which
    leaves phi near the line search's cap."""
    t0 = time.perf_counter()
    objective = CoxObjective(dataset)
    if start is None:
        b1, _, _, trace, phi = stage1_lasso(objective, spec.lam, config)
    else:
        b1, trace = start.beta, SolverTrace()
        records = start.trace.records
        phi = records[-1].phi if records and start.status != "stalled" else None
    beta, _, _, trace2, _ = stage2(objective, spec, config, b1, phi)
    trace.records += trace2.records
    trace.work += trace2.work
    return _fit_result(beta, b1, trace, t0)


def ilamm(dataset: SurvivalDataset, spec: PenaltySpec,
          config: SolverConfig = SolverConfig()) -> FitResult:
    """Iterative weighted-l1 baseline: after the burn-in, repeatedly solve
    an adaptive Lasso whose weights are the penalty derivative at the
    previous stage's coefficients; stops early once consecutive stage
    outputs are within eps2 in l2, or once a stage saturates or stalls;
    running out of _MAX_STAGES (burn-in included) first clears
    converged[1] and gives status max_iter."""
    t0 = time.perf_counter()
    objective = CoxObjective(dataset)
    b1, _, _, trace, phi = stage1_lasso(objective, spec.lam, config)
    beta = b1
    for ell in range(2, _MAX_STAGES + 1):
        b_prev = beta
        weights = derivative(spec, np.abs(b_prev))
        beta, _, _, phi = _lamm_loop(objective, weights, b_prev, config=config,
                                     stage=ell, trace=trace, phi_init=phi)
        # a stage stalled at the float floor leaves phi so large that the
        # next stage's predicted decrease is below one ulp of the loss
        gap = np.linalg.norm(beta - b_prev)
        if trace.work[-1].exit in ("saturated", "stalled") or gap <= config.eps2:
            return _fit_result(beta, b1, trace, t0)
    return _fit_result(beta, b1, trace, t0, out_of_stages=True)
