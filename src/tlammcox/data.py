"""Right-censored survival datasets: containers, CSV I/O, risk-set
preprocessing, and the synthetic data generator used by the benchmarks.

A dataset holds follow-up times Z_i > 0, event indicators delta_i in {0,1}
and an n x p covariate matrix. The simulator draws failure times from an
exponential hazard exp(beta' x) (baseline hazard fixed at 1) and censoring
times from an exponential whose mean is U * exp(beta' x) with U uniform on
a configurable window.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from array import array
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, CsvParseError, DataError

__all__ = [
    "SurvivalDataset",
    "RiskSetCache",
    "SimulationConfig",
    "Independent",
    "ConstantCorrelation",
    "Autoregressive",
    "ConstantSignal",
    "DecayingSignal",
    "generate_covariates",
    "simulate_dataset",
    "build_risk_cache",
    "load_csv",
    "save_csv",
]


# ------------------------------------------------------------------ designs

@dataclass(frozen=True)
class Independent:
    name = "independent"


@dataclass(frozen=True)
class _Correlated:
    rho: float

    def __post_init__(self):
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError(f"correlation rho must lie in [0, 1), got {self.rho}")


@dataclass(frozen=True)
class ConstantCorrelation(_Correlated):
    name = "constant_correlation"


@dataclass(frozen=True)
class Autoregressive(_Correlated):
    name = "autoregressive"


Design = Union[Independent, ConstantCorrelation, Autoregressive]


@dataclass(frozen=True)
class ConstantSignal:
    value: float = 0.8

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConfigError(f"signal value must be finite, got {self.value}")


@dataclass(frozen=True)
class DecayingSignal:
    values: tuple

    def __init__(self, values: Sequence[float]):
        values = tuple(float(v) for v in values)
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"signal values must be finite, got {list(values)}")
        object.__setattr__(self, "values", values)


Signal = Union[ConstantSignal, DecayingSignal]


# ----------------------------------------------------------------- dataset

class SurvivalDataset:
    """Immutable container of right-censored observations.

    Zero-event datasets are constructible (so censored-only files load);
    fitting code rejects them separately.
    """

    def __init__(self, times, status, covariates):
        times = np.ascontiguousarray(times, dtype=np.float64)
        status = np.ascontiguousarray(status)
        covariates = np.ascontiguousarray(covariates, dtype=np.float64)
        if covariates.ndim != 2:
            raise DataError("covariates must be a 2-d array")
        n = covariates.shape[0]
        if times.shape != (n,) or status.shape != (n,):
            raise DataError(
                f"length mismatch: {times.shape[0]} times, {status.shape[0]} "
                f"status, {n} covariate rows"
            )
        if n == 0:
            raise DataError("empty dataset")
        if not np.all(np.isfinite(times)) or np.any(times <= 0):
            raise DataError("times must be finite and strictly positive")
        status_f = np.asarray(status, dtype=np.float64)
        if not np.all(np.isfinite(status_f)) or not np.all(np.isin(status_f, (0.0, 1.0))):
            raise DataError("status entries must be 0 or 1")
        # NaN propagates through min and +-inf is an extreme, so the two
        # reductions check X without an n x p mask; a p = 0 design passes
        if covariates.size and not (math.isfinite(covariates.min())
                                    and math.isfinite(covariates.max())):
            raise DataError("covariates contain non-finite values")
        self.times = times
        self.status = status_f.astype(np.int8)
        self.covariates = covariates
        self.times.setflags(write=False)
        self.status.setflags(write=False)
        self.covariates.setflags(write=False)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.status.sum())

    def subset(self, rows) -> "SurvivalDataset":
        rows = np.asarray(rows, dtype=np.intp)
        return SurvivalDataset(self.times[rows], self.status[rows],
                               self.covariates[rows])

    def __repr__(self):
        return (f"SurvivalDataset(n={self.n}, p={self.p}, "
                f"events={self.n_events})")


@dataclass(frozen=True)
class RiskSetCache:
    """Time-ordered index arrays backing the partial-likelihood sums.

    order sorts subjects by descending time, so the risk set of any event
    time is a prefix of order. Events at one exact time form a group that
    shares one risk set (Breslow convention); groups run in ascending time.
    event_rows lists the event subjects group by group, tie_counts[g] is
    the size of group g (its rows are the next tie_counts[g] entries of
    event_rows) and risk_sizes[g] counts the subjects still at risk at its
    time. A dataset without events gives empty arrays.
    """

    order: np.ndarray                 # permutation, descending times
    event_rows: np.ndarray            # event subjects, ascending time
    tie_counts: np.ndarray            # events per group
    risk_sizes: np.ndarray            # |{j : t_j >= group time}| per group


def build_risk_cache(dataset: SurvivalDataset) -> RiskSetCache:
    times = dataset.times
    order = np.argsort(-times, kind="stable")
    events = np.flatnonzero(dataset.status == 1)
    event_rows = events[np.argsort(times[events], kind="stable")]
    event_times = times[event_rows]
    # times are positive, so the first event always opens a group
    starts = np.flatnonzero(np.diff(event_times, prepend=0.0))
    tie_counts = np.diff(np.append(starts, event_rows.size))
    risk_sizes = dataset.n - np.searchsorted(np.sort(times), event_times[starts],
                                             side="left")
    return RiskSetCache(order=order, event_rows=event_rows,
                        tie_counts=tie_counts, risk_sizes=risk_sizes)


# --------------------------------------------------------------- simulator

def is_integer(value) -> bool:
    """The one test of an integer setting: an Integral that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """The one seed rule of every seeded entry point: an integer in [0, 2**64)."""
    if not (is_integer(seed) and 0 <= seed < 2**64):
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


def check_support(support, p) -> np.ndarray:
    """The column indices in support as an intp array; each must be an
    integer in [0, p), which rules out bools and the floats numpy would
    truncate."""
    support = list(support)
    if not all(is_integer(j) and 0 <= j < p for j in support):
        raise ValueError(f"support indices out of range: each must be an integer in [0, {p})")
    return np.asarray(support, dtype=np.intp)


@dataclass(frozen=True)
class SimulationConfig:
    """A model field left None takes the benchmark protocol's value: s =
    min(10, p), ConstantSignal() and the censoring window U[2, 3]."""

    n: int
    p: int
    s: int = None
    signal: Signal = None
    design: Design = Independent()
    censoring: tuple = None       # (low, high)
    seed: int = 0

    def __post_init__(self):
        if not all(is_integer(v) and v >= 1 for v in (self.n, self.p)):
            raise ConfigError("n and p must be positive")
        for key, value in (("s", min(10, self.p)), ("signal", ConstantSignal()),
                           ("censoring", (2.0, 3.0))):
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        if not (is_integer(self.s) and 1 <= self.s <= self.p):
            raise ConfigError(f"support size s={self.s} must satisfy 1 <= s <= p={self.p}")
        if isinstance(self.signal, DecayingSignal) and len(self.signal.values) != self.s:
            raise ConfigError("decaying signal must supply exactly s values")
        if len(self.censoring) != 2 or not 0 <= self.censoring[0] < self.censoring[1] < math.inf:
            raise ConfigError("censoring window must be (low, high) with "
                              f"0 <= low < high < inf, got {tuple(self.censoring)}")
        check_seed(self.seed)

    def true_beta(self) -> np.ndarray:
        beta = np.zeros(self.p)
        if isinstance(self.signal, ConstantSignal):
            beta[: self.s] = self.signal.value
        else:
            beta[: self.s] = self.signal.values
        return beta


def generate_covariates(design: Design, n: int, p: int, seed) -> np.ndarray:
    """Draw n i.i.d. rows from N(0, Sigma) with Sigma set by the design.

    Constant correlation uses the one-factor form x = sqrt(rho) z 1 +
    sqrt(1-rho) eps; autoregressive uses the lag-one recursion
    x_j = rho x_{j-1} + sqrt(1-rho^2) eps_j, so every marginal is exactly
    standard normal.
    """
    if n < 1 or p < 1:
        raise ConfigError("n and p must be positive")
    rng = np.random.default_rng(seed)
    if isinstance(design, Independent):
        return rng.standard_normal((n, p))
    # each design is built in place in its one n x p draw
    rho = design.rho
    if isinstance(design, ConstantCorrelation):
        z = rng.standard_normal((n, 1))
        x = rng.standard_normal((n, p))
        x *= np.sqrt(1.0 - rho)
        x += np.sqrt(rho) * z
        return x
    x = rng.standard_normal((n, p))
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        x[:, j] *= scale
        x[:, j] += rho * x[:, j - 1]
    return x


def simulate_dataset(config: SimulationConfig):
    """Simulate one dataset; returns (SurvivalDataset, true_beta).

    Failure times are Exponential with rate exp(beta' x); censoring times
    are Exponential with mean U_i exp(beta' x), U_i ~ Uniform[low, high].
    Draw order is fixed (covariates, T, U, C) so a seed pins the bytes.
    """
    beta = config.true_beta()
    x = generate_covariates(config.design, config.n, config.p, config.seed)
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 1]))
    eta = x @ beta
    t_fail = rng.exponential(scale=np.exp(-eta))
    u = rng.uniform(*config.censoring, size=config.n)
    t_cens = rng.exponential(scale=u * np.exp(eta))
    times = np.minimum(t_fail, t_cens)
    status = (t_fail <= t_cens).astype(np.int8)
    return SurvivalDataset(times, status, x), beta


# ------------------------------------------------------------------ CSV I/O

def write_rows(fh, rows) -> None:
    """The CSV writer of every table: str gives a float's shortest round-trip repr."""
    fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def save_csv(dataset: SurvivalDataset, path, true_beta=None, seed=None) -> None:
    """Write `time,status,x1,...,xp`, which load_csv reads back bit for bit,
    and with true_beta a `<stem>.truth.json` sidecar holding it and the seed."""
    with open(path, "w", encoding="utf-8") as fh:
        write_rows(fh, [("time", "status", *(f"x{j+1}" for j in range(dataset.p)))])
        # a row of Python numbers at a time: O(n + p) memory, not O(n p); for
        # a float or an int repr is write_rows' str without the type call
        fh.writelines(",".join(map(repr, [t, d, *row.tolist()])) + "\n" for t, d, row in zip(
            dataset.times.tolist(), dataset.status.tolist(), dataset.covariates))
    if true_beta is not None:
        payload = {"true_beta": [float(v) for v in true_beta],
                   "seed": None if seed is None else int(seed)}
        with open(truth_sidecar_path(path), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")


def truth_sidecar_path(csv_path) -> str:
    return str(csv_path).removesuffix(".csv") + ".truth.json"


def read_truth(csv_path, p):
    """true_beta, p numbers, from the truth sidecar of csv_path; None without one."""
    path = truth_sidecar_path(csv_path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            truth = np.asarray(json.load(fh)["true_beta"], dtype=np.float64)
    except FileNotFoundError:
        return None
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"truth sidecar {path}: unreadable ({exc!r})") from exc
    if truth.shape != (p,):
        raise DataError(f"truth sidecar {path}: true_beta has shape {truth.shape}, "
                        f"expected ({p},) for the data's p")
    if not np.isfinite(truth).all():
        raise DataError(f"truth sidecar {path}: true_beta has non-finite entries")
    return truth


def load_csv(path) -> SurvivalDataset:
    """Parse `time,status,x1,...,xp`. Errors name the offending data row
    (1-based, excluding the header)."""
    try:
        fh = open(str(path), "r", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    try:
        with fh:
            header = fh.readline()
            if not header:
                raise DataError(f"{path}: empty file")
            cols = [c.strip() for c in header.rstrip("\n").split(",")]
            p = len(cols) - 2
            if cols[:2] != ["time", "status"] or p < 1:
                raise DataError(f"{path}: header must be time,status,x1,...,xp")
            if cols[2:] != [f"x{j+1}" for j in range(p)]:
                raise DataError(f"{path}: covariate columns must be x1..x{p} in order")
            body = fh.tell()
            # decode the body once to bound its rows by its lines, so numpy
            # allocates the table once instead of growing it
            lines = 1 + sum(chunk.count("\n") for chunk in iter(lambda: fh.read(1 << 16), ""))
            fh.seek(body)
            try:
                return _parse_table(fh, p, lines)
            except (ValueError, Warning):       # DataError is a ValueError
                # the row loop names the first bad row, or reads what only
                # float() takes (a whitespace-only line, "1_0")
                fh.seek(body)
                return _parse_rows(fh, p, path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


_MOVE_ELEMENTS = 4096      # covariates moved per block: 32 KB of buffered overlap


def _parse_table(fh, p, max_rows) -> SurvivalDataset:
    """The body by numpy's C reader, whose float parse is float()'s; it
    raises (or, for a body without rows, warns) on anything else."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, max_rows=max_rows)
    n, width = table.shape
    if width != p + 2:
        raise DataError(f"expected {p + 2} fields, got {width}")
    times, status = table[:, 0].copy(), table[:, 1].copy()
    # shift each row's covariates to the front of the table's own buffer,
    # so the design is a view and never exists twice
    flat = table.reshape(-1)
    rows = max(1, _MOVE_ELEMENTS // p)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        flat[a * p:b * p].reshape(b - a, p)[...] = table[a:b, 2:]
    return SurvivalDataset(times, status, flat[:n * p].reshape(n, p))


def _parse_rows(fh, p, path) -> SurvivalDataset:
    """The body a line at a time, naming the first bad row."""
    times, status, rows = array("d"), array("b"), array("d")
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != p + 2:
            raise CsvParseError(lineno, f"expected {p + 2} fields, got {len(parts)}")
        try:
            vals = list(map(float, parts))
        except ValueError:
            raise CsvParseError(lineno, "non-numeric field") from None
        if not all(map(math.isfinite, vals)):
            raise CsvParseError(lineno, "non-finite value")
        t, d = vals[0], vals[1]
        if t <= 0:
            raise CsvParseError(lineno, f"time must be > 0, got {t}")
        if d not in (0.0, 1.0):
            raise CsvParseError(lineno, f"status must be 0 or 1, got {d}")
        times.append(t)
        status.append(int(d))
        rows.extend(vals[2:])
    if not times:
        raise DataError(f"{path}: no data rows")
    return SurvivalDataset(np.frombuffer(times), np.frombuffer(status, dtype=np.int8),
                           np.frombuffer(rows).reshape(-1, p))
