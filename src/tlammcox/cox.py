"""Cox partial likelihood: averaged negative log partial likelihood, its
analytic gradient and Hessian, and the support-restricted Newton fit.

All sums run over subjects sorted by descending time, so every risk set is
a prefix of that ordering. Tied event times share one risk set and
contribute a summed linear term (Breslow). Exponentials are offset by the
sample-wide max of eta before accumulation. The gradient is the Cox score
X^T (w c - delta) / n: the covariates times the martingale residuals.
"""

from __future__ import annotations

import math

import numpy as np

from .data import SurvivalDataset, build_risk_cache, check_support
from .errors import (CapabilityError, DataError, IterationLimitError,
                     NonFiniteError, RankError)

__all__ = ["CoxObjective", "fit_restricted"]

HESSIAN_P_CAP = 500
_FLOAT_MAX = float(np.finfo(np.float64).max)
# eta = X[:, S] @ beta[S] when p >= _GATHER_MIN_P and |S| * _GATHER_RATIO <= p,
# else dense X @ beta: at 300x2400 the gather takes 21 us (|S|=25) to 87 us
# (|S|=100) against 98 us dense; at 200x100 dense wins at any |S|.
_GATHER_RATIO = 32
_GATHER_MIN_P = 500
_NEWTON_TOL = 1e-8
_NEWTON_HALVINGS = 30
_NEWTON_MAX_ITER = 100


class CoxObjective:
    """Value/gradient/Hessian of the averaged negative log partial
    likelihood at arbitrary coefficient vectors.

    The instance is read-only over the dataset, owns its risk sets and
    reuses its last sweep (eta, its offset, exp weights, risk sums, value
    and gradient) for a later call made with the same array object whose
    bytes have not changed since, so a gradient at a point whose value was
    just taken costs no second product X @ beta. A gathered block X[:, S]
    lives only for its product.

    A sweep that raises caches nothing, and a returned gradient is a copy.
    The cache entry is one tuple that is replaced whole, and evaluations
    otherwise use call-local scratch, so concurrent calls on one instance
    are safe: a race can only cost a recomputation, or a count in the
    work counters, which are plain unlocked adds.
    """

    def __init__(self, dataset: SurvivalDataset):
        if dataset.n_events == 0:
            raise DataError("no events: every subject is censored, nothing to fit")
        self.dataset = dataset
        self.n = dataset.n
        self.p = dataset.p
        self.cache = build_risk_cache(dataset)
        self._d = self.cache.tie_counts.astype(np.float64)   # tie counts as floats
        self._risk_last = self.cache.risk_sizes - 1          # each group's prefix end
        self._last_sweep = None    # (beta, its bytes, eta, offset, w, s0, value, grad)
        # work counts, read per stage by the solver: nll calls, and the
        # value_and_gradient calls the last sweep served or that swept afresh
        self.loss_sweeps = self.vg_hits = self.vg_fresh = 0

    # ---------------------------------------------------------- internals

    def _state(self, beta):
        """(beta, its bytes, eta, offset, w, s0, value, grad) at beta: the
        last sweep's entry when beta is that sweep's array unchanged, else
        a fresh one whose value and grad are None."""
        beta = np.asarray(beta, dtype=np.float64)
        last = self._last_sweep
        if last is not None and last[0] is beta and last[1] == beta.tobytes():
            return last
        if beta.shape != (self.p,):
            raise ValueError(f"beta must have length {self.p}, got shape {beta.shape}")
        if not np.logical_and.reduce(np.isfinite(beta)):
            raise ValueError("beta contains non-finite entries")
        eta = self._eta(beta)
        # exp weights in descending-time order, offset by max eta; S0 at risk boundaries
        offset = float(np.maximum.reduce(eta))
        w = np.exp(eta[self.cache.order] - offset)
        s0 = w.cumsum()[self._risk_last]
        return (beta, beta.tobytes(), eta, offset, w, s0, None, None)

    def _eta(self, beta):
        if self.p >= _GATHER_MIN_P:
            support = (beta != 0.0).nonzero()[0]
            if support.size * _GATHER_RATIO <= self.p:
                return self.dataset.covariates[:, support] @ beta[support]
        return self.dataset.covariates @ beta

    def _risk_weights(self, eta, offset, w, s0):
        """w_q c_q in descending-time order, with c_q the sum of d_g / S0_g
        over the groups whose risk prefix covers position q: a reverse
        cumsum of boundary marks (boundaries are distinct). Taken in the
        log domain where c overflows; w c is at most the event count."""
        marks = np.zeros(self.n)
        if s0[-1] > 2 * self.n / _FLOAT_MAX:   # the marks sum to at most n / min S0
            marks[self._risk_last] = self._d / s0
            return w * marks[::-1].cumsum()[::-1]
        with np.errstate(over="ignore"):
            marks[self._risk_last] = self._d / s0
            c = marks[::-1].cumsum()[::-1]
        # c[0] sums every mark
        return w * c if np.isfinite(c[0]) else self._log_risk_weights(eta, offset)

    def _log_risk_weights(self, eta, offset):
        """w * c taken in the log domain, finite where c overflows."""
        log_w, last = eta[self.cache.order] - offset, self._risk_last
        marks = np.full(self.n, -np.inf)       # log d - log S0 at the boundaries
        marks[last] = np.log(self._d) - np.logaddexp.accumulate(log_w)[last]
        return np.exp(log_w + np.logaddexp.accumulate(marks[::-1])[::-1])

    def _sweep(self, beta, want_value, want_grad):
        """One descending-time sweep, or what of it the last sweep left;
        returns (value or None, grad or None)."""
        state = self._state(beta)
        if not want_grad:
            self.loss_sweeps += 1
        elif want_value and state is self._last_sweep:
            self.vg_hits += 1
        elif want_value:
            self.vg_fresh += 1
        beta, key, eta, offset, w, s0, value, grad = state
        # groups run forward in time, so S0's last entry is its least; NaN fails too
        if not s0[-1] > 0:
            self._raise_nonfinite("partial likelihood" if want_value else "gradient", beta)
        if want_value and value is None:
            value = float((np.add.reduce(self._d * (np.log(s0) + offset))
                           - np.add.reduce(eta[self.cache.event_rows])) / self.n)
            if not math.isfinite(value):
                self._raise_nonfinite("partial likelihood", beta)
        if want_grad and grad is None:
            # the martingale residuals w c - delta, in data order
            r = np.empty(self.n)
            r[self.cache.order] = self._risk_weights(eta, offset, w, s0)
            r -= self.dataset.status
            grad = self.dataset.covariates.T @ r / self.n
            if not np.logical_and.reduce(np.isfinite(grad)):
                self._raise_nonfinite("gradient", beta)
        self._last_sweep = (beta, key, eta, offset, w, s0, value, grad)
        return value, (grad.copy() if want_grad else None)

    def _raise_nonfinite(self, what, beta):
        norm = float(np.linalg.norm(beta))
        raise NonFiniteError(f"{what} is non-finite at ||beta||_2 = {norm:.6g}")

    # ------------------------------------------------------------- public

    def nll(self, beta) -> float:
        """(1/n) sum over events of [log sum_{t_j >= t_i} e^{eta_j} - eta_i]."""
        return self._sweep(beta, True, False)[0]

    def gradient(self, beta) -> np.ndarray:
        """Exact gradient in one descending-time sweep, O(n p)."""
        return self._sweep(beta, False, True)[1]

    def value_and_gradient(self, beta):
        return self._sweep(beta, True, True)

    def hessian(self, beta, p_cap: int = HESSIAN_P_CAP) -> np.ndarray:
        """(1/n) sum over events of S2/S0 - (S1/S0)^{x2}, in closed form over
        the time-sorted design X_o:

            H = (X_o^T diag(w c) X_o - Xbar^T diag(d) Xbar) / n,

        with w c the risk weights of the gradient and Xbar the prefix sums
        of w X_o at each group's risk boundary over S0. O(n p^2) time,
        O(n p) memory. Used by `fit_restricted`'s Newton steps and by the
        curvature diagnostics; capped at p <= p_cap."""
        if self.p > p_cap:
            raise CapabilityError(
                f"hessian materialization capped at p <= {p_cap}, got p = {self.p}")
        eta, offset, w, s0 = self._state(beta)[2:6]
        x_ord = self.dataset.covariates[self.cache.order]
        with np.errstate(divide="ignore", invalid="ignore"):
            weighted = x_ord * w[:, None]
            xbar = weighted.cumsum(axis=0)[self._risk_last] / s0[:, None]
            np.multiply(x_ord, self._risk_weights(eta, offset, w, s0)[:, None], out=weighted)
            h = (weighted.T @ x_ord - (xbar * self._d[:, None]).T @ xbar) / self.n
        if not np.all(np.isfinite(h)):
            self._raise_nonfinite("hessian", beta)
        return h


def fit_restricted(dataset: SurvivalDataset, support) -> np.ndarray:
    """Minimize the partial likelihood over coordinates in `support`
    (everything else pinned to exactly 0) by damped Newton.

    Stops at ||restricted gradient||_inf <= _NEWTON_TOL; raises RankError on a
    singular restricted Hessian and IterationLimitError (carrying the last
    iterate) if _NEWTON_MAX_ITER steps are exhausted, which happens e.g.
    under monotone likelihood where no finite minimizer exists.
    """
    support = np.unique(check_support(support, dataset.p))
    if support.size == 0:
        raise ValueError("support must contain at least one index")
    sub = SurvivalDataset(dataset.times, dataset.status,
                          dataset.covariates[:, support])
    obj = CoxObjective(sub)
    b = np.zeros(support.size)

    def expand(b_sub):
        beta = np.zeros(dataset.p)
        beta[support] = b_sub
        return beta

    value, grad = obj.value_and_gradient(b)
    for _ in range(_NEWTON_MAX_ITER):
        if np.abs(grad).max() <= _NEWTON_TOL:
            return expand(b)
        hess = obj.hessian(b, p_cap=max(HESSIAN_P_CAP, support.size))
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise RankError(
                f"singular restricted hessian on support of size {support.size}") from exc
        step = 1.0
        for _ in range(_NEWTON_HALVINGS):
            cand = b + step * direction
            try:
                cand_value, cand_grad = obj.value_and_gradient(cand)
            except NonFiniteError:
                step *= 0.5
                continue
            if cand_value <= value:
                # the next hessian(b) reuses this sweep's weights
                b, value, grad = cand, cand_value, cand_grad
                break
            step *= 0.5
        else:
            raise IterationLimitError(
                "restricted Newton stalled: no decrease after step halving",
                last_beta=expand(b))
    if np.abs(grad).max() <= _NEWTON_TOL:
        return expand(b)
    raise IterationLimitError(
        f"restricted Newton did not reach tol={_NEWTON_TOL} in {_NEWTON_MAX_ITER} iterations",
        last_beta=expand(b))
