"""Elitist (1+1) evolution strategy with the one-fifth success rule on the
sphere, plus the numerical machinery for drift-style runtime analysis."""

from .core import (ESParams, ESState, RunTrace, StepOutcome, es_step,
                   hitting_times, initial_state, run_until)
from .errors import ConfigurationError, ConvergenceError
from .estimates import MeanEstimate, ProbEstimate, Z99
from .hitandrun import (HarSample, expected_log_progress_exact,
                        expected_log_progress_mc, har_step, optimal_gamma,
                        sample_angle)
from .kernels import LOG_PROGRESS_CAP
from .potential import (DriftConstants, DriftMapRow, Regime, derive_constants,
                        drift_map, hitting_time_bounds,
                        minimize_psucc_over_band, potential)
from .streams import derive_stream
from .success import (psucc0_inverse, psucc_exact, psucc_limit, psucc_mc,
                      std_normal_cdf)
from .theorems import (TruncatedSeries, first_hitting_time, lower_bound_thm2,
                       simulate_jump_process, truncate_series,
                       upper_bound_thm1)

__version__ = "0.1.0"

__all__ = [
    "LOG_PROGRESS_CAP", "Z99", "__version__",
    "ConfigurationError", "ConvergenceError",
    "ESParams", "ESState", "RunTrace", "StepOutcome",
    "es_step", "hitting_times", "initial_state", "run_until",
    "MeanEstimate", "ProbEstimate",
    "HarSample", "expected_log_progress_exact", "expected_log_progress_mc",
    "har_step", "optimal_gamma", "sample_angle",
    "DriftConstants", "DriftMapRow", "Regime", "derive_constants", "drift_map",
    "hitting_time_bounds", "minimize_psucc_over_band", "potential",
    "derive_stream",
    "psucc0_inverse", "psucc_exact", "psucc_limit", "psucc_mc", "std_normal_cdf",
    "TruncatedSeries", "first_hitting_time", "lower_bound_thm2",
    "simulate_jump_process", "truncate_series", "upper_bound_thm1",
]
