"""Cox partial likelihood: averaged negative log partial likelihood, its
analytic gradient and Hessian, and the support-restricted Newton fit.

All sums run over subjects sorted by descending time, so every risk set is
a prefix of that ordering. Tied event times share one risk set and
contribute a summed linear term (Breslow). Exponentials are offset by the
sample-wide max of eta before accumulation.
"""

from __future__ import annotations

import math

import numpy as np

from .data import SurvivalDataset, build_risk_cache
from .errors import (CapabilityError, DataError, IterationLimitError,
                     NonFiniteError, RankError)

__all__ = ["CoxObjective", "fit_restricted"]

HESSIAN_P_CAP = 500
# eta = X[:, S] @ beta[S] when p >= _GATHER_MIN_P and |S| * _GATHER_RATIO <= p,
# else dense X @ beta: at 300x2400 the gather takes 21 us (|S|=25) to 87 us
# (|S|=100) against 98 us dense; at 200x100 dense wins at any |S|.
_GATHER_RATIO = 32
_GATHER_MIN_P = 500


class CoxObjective:
    """Value/gradient/Hessian of the averaged negative log partial
    likelihood at arbitrary coefficient vectors.

    The instance is read-only over the dataset; each evaluation uses
    call-local scratch, so concurrent calls on one instance are safe.
    """

    def __init__(self, dataset: SurvivalDataset):
        if dataset.n_events == 0:
            raise DataError("no events: every subject is censored, nothing to fit")
        self.dataset = dataset
        self.cache = build_risk_cache(dataset)
        self.n = dataset.n
        self.p = dataset.p
        self._x_event_sum = dataset.covariates[self.cache.event_rows].sum(axis=0)
        self._d = self.cache.tie_counts.astype(np.float64)
        self._risk_last = self.cache.risk_sizes - 1   # prefix end of each group

    # ---------------------------------------------------------- internals

    def _eta(self, beta):
        beta = np.asarray(beta, dtype=np.float64)
        if beta.shape != (self.p,):
            raise ValueError(f"beta must have length {self.p}, got shape {beta.shape}")
        if not np.isfinite(beta).all():
            raise ValueError("beta contains non-finite entries")
        x = self.dataset.covariates
        if self.p >= _GATHER_MIN_P:
            support = (beta != 0.0).nonzero()[0]
            if support.size * _GATHER_RATIO <= self.p:
                return x[:, support] @ beta[support]
        return x @ beta

    def _risk_sums(self, eta):
        """Offset exp weights in descending-time order plus the prefix sums
        S0 at each event group's risk boundary."""
        offset = float(eta.max())
        w = np.exp(eta[self.cache.order] - offset)
        s0 = w.cumsum()[self._risk_last]
        return offset, w, s0

    def _risk_coefficients(self, s0):
        """c_q = sum over groups whose risk prefix covers sorted position q
        of d_g / S0_g: a reverse cumsum of boundary marks (boundaries are
        distinct), in descending-time order."""
        marks = np.zeros(self.n)
        marks[self._risk_last] = self._d / s0
        return marks[::-1].cumsum()[::-1]

    def _sweep(self, beta, want_value, want_grad):
        """One descending-time sweep; returns (value or None, grad or None)."""
        eta = self._eta(beta)
        offset, w, s0 = self._risk_sums(eta)
        value = grad = None
        with np.errstate(divide="ignore", invalid="ignore"):
            if want_value:
                log_terms = self._d * (np.log(s0) + offset)
                value = float((log_terms.sum() - eta[self.cache.event_rows].sum()) / self.n)
                if not math.isfinite(value):
                    self._raise_nonfinite("partial likelihood", beta)
            if want_grad:
                r = np.empty(self.n)
                r[self.cache.order] = w * self._risk_coefficients(s0)
                grad = (self.dataset.covariates.T @ r - self._x_event_sum) / self.n
                if not np.isfinite(grad).all():
                    self._raise_nonfinite("gradient", beta)
        return value, grad

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

        with c the risk coefficients of the gradient and Xbar the prefix
        sums of w X_o at each group's risk boundary over S0. O(n p^2) time,
        O(n p) memory. Used by `fit_restricted`'s Newton steps and by the
        curvature diagnostics; capped at p <= p_cap."""
        if self.p > p_cap:
            raise CapabilityError(
                f"hessian materialization capped at p <= {p_cap}, got p = {self.p}")
        eta = self._eta(beta)
        _, w, s0 = self._risk_sums(eta)
        x_ord = self.dataset.covariates[self.cache.order]
        with np.errstate(divide="ignore", invalid="ignore"):
            weighted = x_ord * w[:, None]
            xbar = weighted.cumsum(axis=0)[self._risk_last] / s0[:, None]
            weighted *= self._risk_coefficients(s0)[:, None]
            h = (weighted.T @ x_ord - (xbar * self._d[:, None]).T @ xbar) / self.n
        if not np.all(np.isfinite(h)):
            self._raise_nonfinite("hessian", beta)
        return h


def fit_restricted(dataset: SurvivalDataset, support, tol: float = 1e-8,
                   max_iter: int = 100, max_halvings: int = 30) -> np.ndarray:
    """Minimize the partial likelihood over coordinates in `support`
    (everything else pinned to exactly 0) by damped Newton.

    Stops at ||restricted gradient||_inf <= tol; raises RankError on a
    singular restricted Hessian and IterationLimitError (carrying the last
    iterate) if max_iter is exhausted, which happens e.g. under monotone
    likelihood where no finite minimizer exists.
    """
    support = np.asarray(sorted(set(int(j) for j in support)), dtype=np.intp)
    if support.size == 0:
        raise ValueError("support must contain at least one index")
    if support.min() < 0 or support.max() >= dataset.p:
        raise ValueError("support indices out of range")
    sub = SurvivalDataset(dataset.times, dataset.status,
                          dataset.covariates[:, support])
    obj = CoxObjective(sub)
    b = np.zeros(support.size)

    def expand(b_sub):
        beta = np.zeros(dataset.p)
        beta[support] = b_sub
        return beta

    value, grad = obj.value_and_gradient(b)
    for _ in range(max_iter):
        if np.abs(grad).max() <= tol:
            return expand(b)
        hess = obj.hessian(b, p_cap=max(HESSIAN_P_CAP, support.size))
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise RankError(
                f"singular restricted hessian on support of size {support.size}") from exc
        step = 1.0
        for _ in range(max_halvings):
            try:
                cand_value, cand_grad = obj.value_and_gradient(b + step * direction)
            except NonFiniteError:
                step *= 0.5
                continue
            if cand_value <= value:
                b = b + step * direction
                value, grad = cand_value, cand_grad
                break
            step *= 0.5
        else:
            raise IterationLimitError(
                "restricted Newton stalled: no decrease after step halving",
                last_beta=expand(b))
    if np.abs(grad).max() <= tol:
        return expand(b)
    raise IterationLimitError(
        f"restricted Newton did not reach tol={tol} in {max_iter} iterations",
        last_beta=expand(b))
