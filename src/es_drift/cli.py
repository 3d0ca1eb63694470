"""Command-line experiment drivers.

Subcommands reproduce the study end to end: ``success-curve`` tabulates
exact success probabilities against their large-dimension limit,
``drift-map`` verifies the truncated-drift bound across step-size
regimes, ``hitting-scaling`` compares empirical hitting times with the
theoretical sandwich, ``bounds`` dumps the derived constant pipeline,
``har-check`` validates the line-search progress ceiling, and ``run``
traces a single strategy run. Outputs are CSV/JSON with a schema_version
marker; identical configs and seeds give byte-identical files.
``--workers`` has no effect; it goes once the benchmark stops passing it.

Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import kernels
from .config import _PARSERS, ExperimentConfig, build_config
from .core import ESParams, hitting_times, initial_state, run_until
from .errors import ConfigurationError
from .estimates import mean_estimate
from .hitandrun import expected_log_progress_exact, expected_log_progress_mc
from .potential import derive_constants, drift_map, hitting_time_bounds, potential
from .streams import derive_stream
from .success import psucc_exact, psucc_limit

SCHEMA_VERSION = 1


def _log_grid(lo: float, hi: float, points: int) -> np.ndarray:
    return np.exp(np.linspace(math.log(lo), math.log(hi), points))


CURVE_D_VALUES = (2, 4, 8, 16, 32, 64, 128, 256)
CURVE_RHO_VALUES = (0.0, 1.0)
CURVE_SIGMA_BARS = _log_grid(0.125, 8.0, 64)
# drift-map's grid of a d runs from DRIFT_SPAN[0] * ell to DRIFT_SPAN[1] * u
DRIFT_SPAN = (0.01, 100.0)
DRIFT_GRID_POINTS = 32
HAR_D_VALUES = (2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class HittingTimeReport:
    """Empirical mean hitting time with its theoretical sandwich.

    mean_T and ci_halfwidth are NaN when any run is censored;
    mean_T_lower = mean(min(T, max_iter)) is a lower bound on the mean
    either way, and equals mean_T when no run is censored.
    """

    d: int
    epsilon: float
    mean_T: float
    ci_halfwidth: float
    mean_T_lower: float
    lower_bound: float
    upper_bound: float
    within_bounds: bool
    censored_runs: int


def _format(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value)) if isinstance(value, np.integer) else str(value)


def _format_column(values: tuple) -> list[str]:
    """_format of every value, one string method for a column of one kind."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64}:
        return list(map(float.__repr__, values))
    if kinds <= {bool, np.bool_}:
        return ["true" if v else "false" for v in values]
    if kinds <= {int, str}:
        return list(map(str, values))
    return list(map(_format, values))


def _write_csv(path: Path, columns: list[str], rows: list[tuple],
               trailing_comments: Optional[list[str]] = None) -> None:
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(columns)]
    lines.extend(map(",".join, zip(*map(_format_column, zip(*rows)))))
    lines.extend(trailing_comments or [])
    path.write_text("\n".join(lines) + "\n")


def _out_path(config: ExperimentConfig, default_name: str) -> Path:
    return Path(config.output_path) if config.output_path else Path(default_name)


# ---------------------------------------------------------------------------
# success-curve
# ---------------------------------------------------------------------------

def cmd_success_curve(config: ExperimentConfig) -> list[tuple]:
    """Exact vs limit success probabilities on a step-size grid."""
    rows = []
    for rho in CURVE_RHO_VALUES:
        for d in CURVE_D_VALUES:
            exact = psucc_exact(d, rho / d, CURVE_SIGMA_BARS).tolist()
            for sigma_bar, p_exact in zip(CURVE_SIGMA_BARS.tolist(), exact):
                limit = psucc_limit(rho, sigma_bar)
                rows.append((rho, d, sigma_bar, p_exact, limit,
                             abs(p_exact - limit)))
    _write_csv(_out_path(config, "success_curve.csv"),
               ["rho", "d", "sigma_bar", "p_exact", "p_limit", "abs_gap"], rows)
    return rows


# ---------------------------------------------------------------------------
# drift-map
# ---------------------------------------------------------------------------

def cmd_drift_map(config: ExperimentConfig) -> list[tuple]:
    """Truncated-drift verification grid for every configured dimension."""
    rows = []
    for d_index, d in enumerate(config.d_list):
        constants = derive_constants(d, config.alpha, config.p_u, config.p_l)
        grid = _log_grid(DRIFT_SPAN[0] * constants.ell, DRIFT_SPAN[1] * constants.u,
                         DRIFT_GRID_POINTS)
        rng = derive_stream(config.master_seed, 1, d_index)
        for row in drift_map(constants, grid, config.mc_samples, rng):
            rows.append((d, row.sigma_bar, row.regime, row.drift_mean,
                         row.ci_halfwidth, row.bound_B, row.satisfied))
    _write_csv(_out_path(config, "drift_map.csv"),
               ["d", "sigma_bar", "regime", "drift_mean", "ci_halfwidth",
                "bound_B", "satisfied"], rows)
    return rows


# ---------------------------------------------------------------------------
# hitting-scaling
# ---------------------------------------------------------------------------

def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    # a NaN mean_T (a censored cell) makes ss_tot, and so r_squared, NaN
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def cmd_hitting_scaling(config: ExperimentConfig) -> list[HittingTimeReport]:
    """Replicated hitting times per (d, epsilon) against the sandwich bounds."""
    eps_values = config.epsilons
    reps = config.replicates
    # a configuration the bounds reject fails before any chain runs
    constants = [derive_constants(d, config.alpha, config.p_u, config.p_l)
                 for d in config.d_list]
    # one chain per (d_index, replicate) gives the first passages below
    # every epsilon; the replicates of a d share stream (seed, 2, d_index),
    # each stepped by its own column of that stream's draw blocks
    results = hitting_times(
        [initial_state(d, config.m0_norm, config.sigma_bar0)
         for d in config.d_list for _ in range(reps)],
        config.alpha, eps_values, config.max_iter,
        [rng for d_index in range(len(config.d_list))
         for rng in [derive_stream(config.master_seed, 2, d_index)] * reps])

    reports = []
    for d_index, (d, c) in enumerate(zip(config.d_list, constants)):
        state0 = initial_state(d, config.m0_norm, config.sigma_bar0)
        runs = results[d_index * reps:(d_index + 1) * reps]
        for j, eps in enumerate(eps_values):
            times = [run[j] for run in runs]
            censored = times.count(None)
            capped = np.array([config.max_iter if t is None else t for t in times],
                              dtype=float)
            total = float(capped.sum())
            if censored:
                # a mean of the finished runs alone would be biased low
                mean, halfwidth = math.nan, math.nan
            else:
                est = mean_estimate(total, float((capped * capped).sum()), reps)
                mean, halfwidth = est.mean, est.half_width
            lower, upper = hitting_time_bounds(state0, c, eps)
            within = bool(lower <= mean - halfwidth and mean + halfwidth <= upper)
            reports.append(HittingTimeReport(
                d=d, epsilon=eps, mean_T=mean, ci_halfwidth=halfwidth,
                mean_T_lower=total / reps, lower_bound=lower, upper_bound=upper,
                within_bounds=within, censored_runs=censored))

    comments = []
    # a line through fewer than 3 distinct epsilons is exact or singular
    if len(set(eps_values)) >= 3:
        x = np.log(1.0 / np.array(eps_values))
        for d in config.d_list:
            y = np.array([r.mean_T for r in reports if r.d == d])
            slope, intercept, r_squared = _linear_fit(x, y)
            comments.append(f"# fit d={d}: slope={slope!r} intercept={intercept!r}"
                            f" r_squared={r_squared!r}")
    if len(config.d_list) >= 2:
        for eps in eps_values:
            per_d = np.array([r.mean_T / r.d for r in reports if r.epsilon == eps])
            comments.append(f"# rate_band epsilon={eps!r}:"
                            f" max_over_min_T_per_d={float(per_d.max() / per_d.min())!r}")
    _write_csv(_out_path(config, "hitting_scaling.csv"),
               ["d", "epsilon", "replicates", "mean_T", "ci_halfwidth",
                "mean_T_lower", "lower_bound", "upper_bound", "within_bounds",
                "censored_runs"],
               [(r.d, r.epsilon, reps, r.mean_T, r.ci_halfwidth, r.mean_T_lower,
                 r.lower_bound, r.upper_bound, r.within_bounds, r.censored_runs)
                for r in reports],
               comments)
    return reports


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(config: ExperimentConfig) -> dict:
    """Full constant pipeline plus hitting-time bounds, as JSON."""
    entries = []
    for d in config.d_list:
        constants = derive_constants(d, config.alpha, config.p_u, config.p_l)
        state0 = initial_state(d, config.m0_norm, config.sigma_bar0)
        lower, upper = hitting_time_bounds(state0, constants, config.epsilon)
        entries.append({
            "d": d,
            "constants": constants.as_dict(),
            "potential_at_start": potential(state0, constants),
            "lower_bound": lower,
            "upper_bound": upper,
        })
    payload = {
        "schema_version": SCHEMA_VERSION,
        "alpha": config.alpha,
        "p_u": config.p_u,
        "p_l": config.p_l,
        "epsilon": config.epsilon,
        "m0_norm": config.m0_norm,
        "sigma_bar0": config.sigma_bar0,
        "instances": entries,
    }
    path = _out_path(config, "bounds.json")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# ---------------------------------------------------------------------------
# har-check
# ---------------------------------------------------------------------------

def cmd_har_check(config: ExperimentConfig) -> list[tuple]:
    """Line-search progress ceiling 1/d: Monte Carlo and closed form per d.

    Every d of HAR_D_VALUES scores one pool of draws from stream
    (master_seed, 3, 0), so the rows are correlated; each row's
    ``mc_ci_halfwidth`` is its own (marginal) 99% interval. The closed form
    goes in the column named ``quadrature``, the name the file has always
    used.
    """
    rows = []
    estimates = expected_log_progress_mc(HAR_D_VALUES, config.mc_samples,
                                         derive_stream(config.master_seed, 3, 0))
    for d, mc in zip(HAR_D_VALUES, estimates):
        exact = expected_log_progress_exact(d)
        bound = 1.0 / d
        sigma = mc.std_error
        gap_sigmas = abs(mc.mean - exact) / sigma if sigma > 0.0 else 0.0
        passed = bool(mc.mean - mc.half_width <= bound
                      and exact <= bound and gap_sigmas < 4.0)
        rows.append((d, mc.mean, mc.half_width, exact, bound,
                     gap_sigmas, passed))
    _write_csv(_out_path(config, "har_check.csv"),
               ["d", "mc_mean", "mc_ci_halfwidth", "quadrature", "bound",
                "gap_sigmas", "passed"], rows)
    return rows


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(config: ExperimentConfig) -> dict:
    """One traced run of the strategy at the first configured dimension."""
    d = config.d_list[0]
    c = derive_constants(d, config.alpha, config.p_u, config.p_l)
    state0 = initial_state(d, config.m0_norm, config.sigma_bar0)
    rng = derive_stream(config.master_seed, 4, 0)
    trace = run_until(state0, ESParams(config.alpha, d), config.epsilon,
                      config.max_iter, rng, record_every=config.record_every)
    potentials = kernels.potential_value(trace.norms, trace.sigmas, d, c.alpha,
                                         c.ell, c.u, c.v)
    rows = list(zip(trace.ts.tolist(), trace.norms.tolist(), trace.sigmas.tolist(),
                    trace.sigma_bars.tolist(), trace.successes.tolist(),
                    potentials.tolist()))
    summary = {
        "hitting_time": trace.hitting_time,
        "iterations": trace.iterations,
        "n_success": trace.n_success,
    }
    _write_csv(_out_path(config, "run_trace.csv"),
               ["t", "norm_m", "sigma", "sigma_bar", "success", "potential"],
               rows,
               [f"# hitting_time={trace.hitting_time}",
                f"# iterations={trace.iterations}",
                f"# n_success={trace.n_success}"])
    return summary


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "success-curve": cmd_success_curve,
    "drift-map": cmd_drift_map,
    "hitting-scaling": cmd_hitting_scaling,
    "bounds": cmd_bounds,
    "har-check": cmd_har_check,
    "run": cmd_run,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int, dest="master_seed",
                        help="master seed for all derived streams")
    common.add_argument("--out", dest="output_path", help="output file path")
    common.add_argument("--d", type=int, help="single dimension (overrides d_list)")
    common.add_argument("--alpha", type=float, help="step-size multiplier (> 1)")
    common.add_argument("--epsilon", type=float, help="target distance to the optimum")
    common.add_argument("--replicates", type=int, help="runs per configuration")
    common.add_argument("--mc-samples", type=int, dest="mc_samples",
                        help="Monte Carlo samples per estimate")
    common.add_argument("--workers", type=int,
                        help="no effect; goes once perfbench stops passing it")

    parser = argparse.ArgumentParser(
        prog="es-drift",
        description="experiments for the elitist evolution strategy with the "
                    "one-fifth success rule on the sphere")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("success-curve", parents=[common],
                   help="exact success probabilities vs the large-d limit")
    sub.add_parser("drift-map", parents=[common],
                   help="truncated-drift verification across step-size regimes")
    scaling = sub.add_parser("hitting-scaling", parents=[common],
                             help="hitting times vs theoretical bounds")
    scaling.add_argument("--eps-list", dest="eps_list",
                         help="comma-separated epsilon sweep")
    sub.add_parser("bounds", parents=[common],
                   help="derived constants and hitting-time bounds as JSON")
    sub.add_parser("har-check", parents=[common],
                   help="line-search progress ceiling checks")
    runp = sub.add_parser("run", parents=[common], help="single traced run")
    runp.add_argument("--record-every", type=int, dest="record_every",
                      help="trace thinning stride")
    runp.add_argument("--max-iter", type=int, dest="max_iter",
                      help="iteration budget")
    runp.add_argument("--m0-norm", type=float, dest="m0_norm",
                      help="starting distance to the optimum")
    runp.add_argument("--sigma-bar0", type=float, dest="sigma_bar0",
                      help="starting normalized step size")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "d") and v is not None}
    if getattr(args, "d", None) is not None:
        overrides["d_list"] = (args.d,)
    if isinstance(overrides.get("eps_list"), str):
        try:
            overrides["eps_list"] = _PARSERS["eps_list"](overrides["eps_list"])
        except ValueError as exc:
            raise ConfigurationError(f"bad value for --eps-list: {exc}") from exc
    return build_config(args.config, overrides)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        _COMMANDS[args.command](config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
