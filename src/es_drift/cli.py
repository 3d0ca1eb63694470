"""Command-line experiment drivers.

Six commands reproduce the study end to end: ``success-curve`` tabulates
exact success probabilities against their large-dimension limit,
``drift-map`` verifies the truncated-drift bound across step-size
regimes, ``hitting-scaling`` compares empirical hitting times with the
theoretical sandwich, ``bounds`` dumps the derived constant pipeline,
``har-check`` validates the line-search progress ceiling, and ``run``
traces a single strategy run. Outputs are CSV/JSON with a schema_version
marker; identical configs and seeds give byte-identical files. A CSV
table is an ordered dict of named columns from the driver to the file,
and each column holds one kind of value: floats, bools, or ints and
strings. The writer raises TypeError on a column that mixes kinds.
Every config key is a flag of every command, parsed as its file value
is; a command ignores the keys it does not read. ``--workers`` is parsed
and ignored, and is no config key; it goes once the benchmark stops
passing it.

Exit codes: 0 success, 2 configuration error, 1 runtime error. Every
argparse error (a malformed flag value, an unknown flag or command, a
missing command, a stray argument) is a configuration error, as are an
unreadable config file, an empty list and an empty output path;
``--help`` exits 0.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import NoReturn, Optional

import numpy as np

from . import kernels
from .config import SETTINGS, ExperimentConfig, build_config
from .core import hitting_times, initial_state, run_until
from .errors import ConfigurationError
from .estimates import mean_estimate
from .hitandrun import expected_log_progress_exact, expected_log_progress_mc
from .potential import derive_constants, drift_map, hitting_time_bounds
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


def _format_column(values) -> list[str]:
    """The text of every value of a column of one kind."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64}:
        # each distinct IEEE bit pattern once, so 0.0, -0.0 and NaN keep their own text
        bits = np.array(values, dtype=float).view(np.uint64)
        distinct, which = np.unique(bits, return_inverse=True)
        texts = np.array(list(map(float.__repr__, distinct.view(float).tolist())),
                         dtype=object)
        return texts[which].tolist()
    if kinds <= {bool, np.bool_}:
        return ["true" if v else "false" for v in values]
    if kinds <= {int, str}:
        return list(map(str, values))
    raise TypeError("a CSV column mixes "
                    + ", ".join(sorted(kind.__name__ for kind in kinds)))


def _write_csv(path: Path, table: dict[str, list],
               comments: Optional[list[str]] = None) -> None:
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(table)]
    lines.extend(map(",".join, zip(*map(_format_column, table.values()))))
    lines.extend(comments or [])
    path.write_text("\n".join(lines) + "\n")


def _table(names, *columns) -> dict[str, list]:
    """Named columns from arrays broadcast together, each flattened in C order."""
    return {name: column.ravel().tolist()
            for name, column in zip(names, np.broadcast_arrays(*columns), strict=True)}


# ---------------------------------------------------------------------------
# success-curve
# ---------------------------------------------------------------------------

def cmd_success_curve(config: ExperimentConfig) -> dict[str, list]:
    """Exact vs limit success probabilities on a step-size grid."""
    rhos = np.array(CURVE_RHO_VALUES)[:, None, None]
    dims = np.array(CURVE_D_VALUES)[:, None]
    # one call each for the whole (rho, d, sigma_bar) grid
    exact = psucc_exact(dims, rhos / dims, CURVE_SIGMA_BARS)
    limits = psucc_limit(rhos, CURVE_SIGMA_BARS)
    table = _table(("rho", "d", "sigma_bar", "p_exact", "p_limit", "abs_gap"),
                   rhos, dims, CURVE_SIGMA_BARS, exact, limits, np.abs(exact - limits))
    _write_csv(Path(config.output_path or "success_curve.csv"), table)
    return table


# ---------------------------------------------------------------------------
# drift-map
# ---------------------------------------------------------------------------

def cmd_drift_map(config: ExperimentConfig) -> dict[str, list]:
    """Truncated-drift verification grid for every configured dimension."""
    all_constants = derive_constants(config.d_list, config.alpha, config.p_u, config.p_l)
    grids, regimes, means, halfwidths = [], [], [], []
    for d_index, c in enumerate(all_constants):
        grid = _log_grid(DRIFT_SPAN[0] * c.ell, DRIFT_SPAN[1] * c.u, DRIFT_GRID_POINTS)
        est = drift_map(c, grid, config.mc_samples,
                        derive_stream(config.master_seed, 1, d_index))
        grids.append(grid)
        # ell and u themselves are in the band
        regimes.append(np.select([grid < c.ell, grid > c.u], ["small_sigma", "large_sigma"],
                                 "reasonable_sigma"))
        means.append(est.mean)
        halfwidths.append(est.half_width)
    # one row of the (d, sigma_bar) grid per d
    means, halfwidths = np.array(means), np.array(halfwidths)
    bounds = np.array([c.B for c in all_constants])[:, None]
    table = _table(("d", "sigma_bar", "regime", "drift_mean", "ci_halfwidth",
                    "bound_B", "satisfied"),
                   np.array(config.d_list)[:, None], np.array(grids), np.array(regimes),
                   means, halfwidths, bounds, means + halfwidths <= -bounds)
    _write_csv(Path(config.output_path or "drift_map.csv"), table)
    return table


# ---------------------------------------------------------------------------
# hitting-scaling
# ---------------------------------------------------------------------------

def cmd_hitting_scaling(config: ExperimentConfig) -> dict[str, list]:
    """Replicated hitting times per (d, epsilon) against the sandwich bounds;
    mean_T_lower = mean(min(T, max_iter)) is the one mean a censored cell has."""
    eps_values = config.epsilons
    reps = config.replicates
    # a configuration the bounds reject fails before any chain runs
    constants = derive_constants(config.d_list, config.alpha, config.p_u, config.p_l)
    # one chain per replicate gives the first passages below every epsilon;
    # the replicates of a d share stream (seed, 2, d_index), each stepped by
    # its own column of that stream's draw blocks
    states = [initial_state(d, config.m0_norm, config.sigma_bar0) for d in config.d_list]
    times = hitting_times(
        states, reps, config.alpha, eps_values, config.max_iter,
        [derive_stream(config.master_seed, 2, d_index)
         for d_index in range(len(config.d_list))])

    # replicates on the last, contiguous axis: each cell sums in the pairwise
    # order of a 1-d sum, to the bit even where the squares pass 2**53
    unfinished = times < 0
    censored = unfinished.sum(axis=1)
    capped = np.ascontiguousarray(
        np.where(unfinished, config.max_iter, times).transpose(0, 2, 1), dtype=float)
    total = capped.sum(axis=2)
    # a mean of the finished runs alone would be biased low
    est = mean_estimate(np.where(censored > 0, math.nan, total),
                        (capped * capped).sum(axis=2), reps)
    bounds = np.array([[hitting_time_bounds(state0, c, eps) for eps in eps_values]
                       for state0, c in zip(states, constants)])
    lower, upper = bounds[..., 0], bounds[..., 1]
    within = (lower <= est.mean - est.half_width) & (est.mean + est.half_width <= upper)
    table = _table(("d", "epsilon", "replicates", "mean_T", "ci_halfwidth",
                    "mean_T_lower", "lower_bound", "upper_bound", "within_bounds",
                    "censored_runs"),
                   np.array(config.d_list)[:, None], np.array(eps_values), reps, est.mean,
                   est.half_width, total / reps, lower, upper, within, censored)

    comments = []
    # a line through fewer than 3 epsilons is exact or singular
    if len(eps_values) >= 3:
        x = np.log(1.0 / np.array(eps_values))
        # a least-squares slope is the projection of y on the centred x; the
        # slope's error bar is the standard error of the mean of the
        # per-chain slopes, NaN for a censored d or one chain
        xc = x - x.mean()
        weights = xc / (xc @ xc)
        slopes = times @ weights
        slope_se = (slopes.std(axis=1, ddof=1) / math.sqrt(reps) if reps > 1
                    else np.full(len(slopes), math.nan))
        slope_se = np.where(censored.any(axis=1), math.nan, slope_se).tolist()
        for d, y, se in zip(config.d_list, est.mean, slope_se):
            slope = float(y @ weights)
            intercept = float(y.mean() - slope * x.mean())
            ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
            ss_tot = float(((y - y.mean()) ** 2).sum())
            # a NaN mean_T (a censored cell) makes every fit value NaN, and
            # equal means (every run hit at t = 0) make r_squared 0 / 0: NaN
            r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else math.nan
            comments.append(f"# fit d={d}: slope={slope!r} intercept={intercept!r}"
                            f" r_squared={r_squared!r} slope_se={se!r}")
    if len(config.d_list) >= 2:
        per_d = est.mean / np.array(config.d_list)[:, None]
        lo = per_d.min(axis=0)
        # an epsilon at or above m0_norm is hit at t = 0 at every d, so 0 / 0: NaN
        bands = np.divide(per_d.max(axis=0), lo, out=np.full_like(lo, math.nan),
                          where=lo > 0.0)
        for eps, band in zip(eps_values, bands.tolist()):
            comments.append(f"# rate_band epsilon={eps!r}: max_over_min_T_per_d={band!r}")
    _write_csv(Path(config.output_path or "hitting_scaling.csv"), table, comments)
    return table


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(config: ExperimentConfig) -> dict:
    """Full constant pipeline plus hitting-time bounds, as JSON."""
    entries = []
    all_constants = derive_constants(config.d_list, config.alpha, config.p_u, config.p_l)
    for d, constants in zip(config.d_list, all_constants):
        state0 = initial_state(d, config.m0_norm, config.sigma_bar0)
        lower, upper = hitting_time_bounds(state0, constants, config.epsilon)
        entries.append({
            "d": d,
            "constants": dataclasses.asdict(constants),
            "potential_at_start": constants.potential_of(state0.norm, state0.sigma),
            "lower_bound": lower,
            "upper_bound": upper,
        })
    payload = {key: getattr(config, key)
               for key in ("alpha", "p_u", "p_l", "epsilon", "m0_norm", "sigma_bar0")}
    payload |= {"schema_version": SCHEMA_VERSION, "instances": entries}
    path = Path(config.output_path or "bounds.json")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# ---------------------------------------------------------------------------
# har-check
# ---------------------------------------------------------------------------

def cmd_har_check(config: ExperimentConfig) -> dict[str, list]:
    """Line-search progress ceiling 1/d: Monte Carlo and closed form per d.

    Every d of HAR_D_VALUES scores one pool of draws from stream
    (master_seed, 3, 0), so the rows are correlated; each row's
    ``mc_ci_halfwidth`` is its own (marginal) 99% interval. The closed form
    goes in the column named ``quadrature``, the name the file has always
    used.
    """
    mc = expected_log_progress_mc(HAR_D_VALUES, config.mc_samples,
                                  derive_stream(config.master_seed, 3, 0))
    exact = np.array(list(map(expected_log_progress_exact, HAR_D_VALUES)))
    bound = 1.0 / np.array(HAR_D_VALUES)
    sigma = mc.std_error
    # a zero standard error gives a zero gap
    gap_sigmas = np.divide(np.abs(mc.mean - exact), sigma, out=np.zeros_like(sigma),
                           where=sigma > 0.0)
    passed = (mc.mean - mc.half_width <= bound) & (exact <= bound) & (gap_sigmas < 4.0)
    table = _table(("d", "mc_mean", "mc_ci_halfwidth", "quadrature", "bound",
                    "gap_sigmas", "passed"),
                   np.array(HAR_D_VALUES), mc.mean, mc.half_width, exact, bound,
                   gap_sigmas, passed)
    _write_csv(Path(config.output_path or "har_check.csv"), table)
    return table


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(config: ExperimentConfig) -> dict[str, list]:
    """One traced run of the strategy at the first configured dimension."""
    d = config.d_list[0]
    c = derive_constants(d, config.alpha, config.p_u, config.p_l)
    state0 = initial_state(d, config.m0_norm, config.sigma_bar0)
    rng = derive_stream(config.master_seed, 4, 0)
    trace = run_until(state0, config.alpha, config.epsilon, config.max_iter, rng,
                      record_every=config.record_every)
    potentials = kernels.potential_value(trace.norms, trace.sigmas, d, c.alpha,
                                         c.ell, c.u, c.v)
    table = _table(("t", "norm_m", "sigma", "sigma_bar", "success", "potential"),
                   trace.ts, trace.norms, trace.sigmas, trace.sigma_bars,
                   trace.successes, potentials)
    _write_csv(Path(config.output_path or "run_trace.csv"), table,
               [f"# hitting_time={trace.hitting_time}",
                f"# iterations={trace.iterations}",
                f"# n_success={trace.n_success}"])
    return table


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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every error is a ConfigurationError, not a
    usage block and SystemExit(2)."""

    def error(self, message: str) -> NoReturn:
        raise ConfigurationError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The es-drift argument parser, built once per process: the command,
    then one flag per config key; a flag left out is no attribute."""
    parser = _Parser(prog="es-drift", argument_default=argparse.SUPPRESS,
                     description="experiments for the elitist evolution strategy with "
                                 "the one-fifth success rule on the sphere")
    parser.add_argument("command", choices=_COMMANDS, help="the experiment to run")
    parser.add_argument("--config", help="key=value config file")
    for key, (parse, flag, text) in SETTINGS.items():
        parser.add_argument(flag, dest=key, type=parse, help=text)
    parser.add_argument("--workers", type=int,
                        help="no effect; goes once perfbench stops passing it")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # --workers is parsed only because the benchmark's command lines still
    # pass it; it has no effect and no config key, so it is dropped here
    overrides = {k: v for k, v in vars(args).items() if k in SETTINGS}
    return build_config(getattr(args, "config", None), overrides)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _config_from_args(args)
        # found before any work; ExperimentConfig.validate reads no file system
        out = Path(config.output_path or ".")
        if config.output_path and (out.is_dir() or not out.parent.is_dir()):
            raise ConfigurationError(f"--out {out} names no file in an existing directory")
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
