"""Two-stage LAMM (TLAMM) for folded-concave penalized Cox regression.

Public surface: the dataset container, simulator and CSV I/O, the
partial-likelihood objective and the oracle fit, the penalty families,
the TLAMM / I-LAMM solvers, cross-validation, the experiment grid, the
metrics, the sparse-eigenvalue probe and the error types. Everything
else is imported from its submodule.
"""

from .cox import CoxObjective, fit_restricted
from .data import (Independent, SimulationConfig, SurvivalDataset, load_csv,
                   save_csv, simulate_dataset)
from .diagnostics import lse_probe
from .errors import (CapabilityError, ConfigError, CsvParseError, DataError,
                     IterationLimitError, LineSearchError, NonFiniteError,
                     RankError, SolverError, UndefinedMetricError)
from .evaluation import (concordance_index, cross_validate, l2_error,
                         run_experiment, selection_metrics)
from .penalties import PenaltySpec, lasso, mcp, scad
from .solver import FitResult, SolverConfig, ilamm, omega, tlamm

__version__ = "0.1.0"
