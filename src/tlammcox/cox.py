"""Cox partial likelihood: averaged negative log partial likelihood, its
analytic gradient and Hessian, and the support-restricted Newton fit.

All sums run over subjects sorted by descending time, so every risk set is
a prefix of that ordering. Tied event times share one risk set and
contribute a summed linear term (Breslow). Exponentials are offset by the
sample-wide max of eta before accumulation.
"""

from __future__ import annotations

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

    # ---------------------------------------------------------- internals

    def _eta(self, beta):
        beta = np.asarray(beta, dtype=np.float64)
        if beta.shape != (self.p,):
            raise ValueError(f"beta must have length {self.p}, got shape {beta.shape}")
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta contains non-finite entries")
        x = self.dataset.covariates
        if self.p >= _GATHER_MIN_P:
            support = np.flatnonzero(beta)
            if support.size * _GATHER_RATIO <= self.p:
                return x[:, support] @ beta[support]
        return x @ beta

    def _risk_sums(self, eta):
        """Offset exp weights in descending-time order plus the prefix sums
        S0 at each event group's risk boundary."""
        offset = float(eta.max())
        w = np.exp(eta[self.cache.order] - offset)
        cum = np.cumsum(w)
        s0 = cum[self.cache.risk_sizes - 1]
        return offset, w, s0

    def _sweep(self, beta, want_value, want_grad):
        """One descending-time sweep; returns (value or None, grad or None)."""
        eta = self._eta(beta)
        offset, w, s0 = self._risk_sums(eta)
        value = grad = None
        if want_value:
            with np.errstate(divide="ignore"):
                log_terms = self._d * (np.log(s0) + offset)
            value = float((log_terms.sum() - eta[self.cache.event_rows].sum()) / self.n)
            if not np.isfinite(value):
                self._raise_nonfinite("partial likelihood", beta)
        if want_grad:
            # coefficient c_q = sum over groups whose risk prefix covers sorted
            # position q of d_g / S0_g: a reverse cumsum of boundary marks
            # (boundaries are distinct), scattered back to row order
            marks = np.zeros(self.n)
            r = np.empty(self.n)
            with np.errstate(divide="ignore", invalid="ignore"):
                marks[self.cache.risk_sizes - 1] = self._d / s0
                r[self.cache.order] = w * np.cumsum(marks[::-1])[::-1]
                grad = (self.dataset.covariates.T @ r - self._x_event_sum) / self.n
            if not np.all(np.isfinite(grad)):
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
        """(1/n) sum over events of S2/S0 - (S1/S0)^{x2}, accumulated
        group-by-group from the largest time down. Diagnostics only."""
        if self.p > p_cap:
            raise CapabilityError(
                f"hessian materialization capped at p <= {p_cap}, got p = {self.p}")
        eta = self._eta(beta)
        _, w, s0_groups = self._risk_sums(eta)
        h = np.zeros((self.p, self.p))
        s1 = np.zeros(self.p)
        s2 = np.zeros((self.p, self.p))
        s0 = 0.0
        filled = 0
        for g in range(len(self._d) - 1, -1, -1):
            boundary = self.cache.risk_sizes[g]
            if boundary > filled:
                block = self.dataset.covariates[self.cache.order[filled:boundary]]
                wb = w[filled:boundary]
                s0 += wb.sum()
                s1 += block.T @ wb
                s2 += (block * wb[:, None]).T @ block
                filled = boundary
            xbar = s1 / s0
            h += self._d[g] * (s2 / s0 - np.outer(xbar, xbar))
        h /= self.n
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
