"""Elitist (1+1) evolution strategy with the one-fifth success rule on the
sphere, plus the numerical machinery for drift-style runtime analysis."""

from .core import ESState, RunTrace, hitting_times, initial_state, run_until
from .errors import ConfigurationError, ConvergenceError
from .estimates import MeanEstimate, Z99
from .hitandrun import expected_log_progress_exact, expected_log_progress_mc
from .kernels import LOG_PROGRESS_CAP
from .potential import (DriftConstants, Regime, derive_constants, drift_map,
                        hitting_time_bounds, lower_bound_thm2,
                        minimize_psucc_over_band, upper_bound_thm1)
from .streams import derive_stream
from .success import psucc0_inverse, psucc_exact, psucc_limit

__version__ = "0.1.0"

__all__ = [
    "LOG_PROGRESS_CAP", "Z99", "__version__",
    "ConfigurationError", "ConvergenceError",
    "ESState", "RunTrace", "hitting_times", "initial_state", "run_until",
    "MeanEstimate",
    "expected_log_progress_exact", "expected_log_progress_mc",
    "DriftConstants", "Regime", "derive_constants", "drift_map",
    "hitting_time_bounds", "lower_bound_thm2", "minimize_psucc_over_band",
    "upper_bound_thm1",
    "derive_stream",
    "psucc0_inverse", "psucc_exact", "psucc_limit",
]
