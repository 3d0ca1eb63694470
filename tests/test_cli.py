import functools
import json
import math
import operator
import re
import shlex
import statistics
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from es_drift import (MeanEstimate, cli, derive_constants, derive_stream,
                      expected_log_progress_exact, hitting_time_bounds, hitting_times,
                      initial_state)
from es_drift.cli import (_write_csv, build_parser, cmd_bounds, cmd_drift_map, cmd_har_check,
                          cmd_hitting_scaling, cmd_run, cmd_success_curve, main)
from es_drift.config import ExperimentConfig, build_config, parse_config_file
from es_drift.errors import ConfigurationError
from es_drift.estimates import MIN_MC_SAMPLES, mean_estimate
from reference import RecordingStream


def _format(value) -> str:
    """The text the CSV writer gives one value: the per-value oracle."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value)) if isinstance(value, np.integer) else str(value)


def _read_csv(path):
    header, rows, comments = None, [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, comments


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""
# comment line
d_list = 5, 10
alpha = 1.4   # inline comment
replicates = 7
eps_list = 1e-2, 1e-4
""")
    parsed = parse_config_file(cfg)
    assert parsed == {"d_list": (5, 10), "alpha": 1.4, "replicates": 7,
                      "eps_list": (0.01, 0.0001)}
    config = build_config(cfg, {"alpha": 1.6})
    assert config.alpha == 1.6 and config.d_list == (5, 10)


def test_config_file_rejects_unknown_keys(tmp_path):
    # through main: the unknown_key_* rows of _FAILURES
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 3\n")
    with pytest.raises(ConfigurationError, match="unknown config key"):
        parse_config_file(cfg)


def test_config_file_sets_each_key_once(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("alpha = 1.5\nd_list = 8\nalpha = 2.0\n")
    with pytest.raises(ConfigurationError, match="twice.cfg:3: config key 'alpha' is set again"):
        parse_config_file(cfg)


def test_workers_is_no_config_key():
    # --workers is parsed and dropped (test_byte_identical_across_worker_counts)
    assert "workers" not in {f.name for f in fields(ExperimentConfig)}


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(replicates=0).validate()
    with pytest.raises(ConfigurationError):
        ExperimentConfig(d_list=(1,)).validate()
    # a repeated d would give duplicate rows, and a singular hitting-scaling fit
    with pytest.raises(ConfigurationError, match="d_list entries must be distinct"):
        ExperimentConfig(d_list=(4, 8, 4)).validate()
    ExperimentConfig().validate()
    with pytest.raises(ConfigurationError, match="mc_samples must be at least"):
        ExperimentConfig(mc_samples=MIN_MC_SAMPLES - 1).validate()
    ExperimentConfig(mc_samples=MIN_MC_SAMPLES).validate()
    # epsilon and eps_list entries must be normal floats
    tiny = np.finfo(float).tiny
    for bad in (dict(epsilon=tiny / 2), dict(eps_list=(1e-3, tiny / 2))):
        with pytest.raises(ConfigurationError, match="smallest normal float"):
            ExperimentConfig(**bad).validate()
    ExperimentConfig(epsilon=tiny, eps_list=(tiny,)).validate()
    # so must the start step size sigma_bar0 * m0_norm / d, at every d
    with pytest.raises(ConfigurationError, match="start step size"):
        ExperimentConfig(d_list=(2, 4), m0_norm=tiny, sigma_bar0=2.0).validate()
    ExperimentConfig(d_list=(2, 4), m0_norm=tiny, sigma_bar0=4.0).validate()
    # and finite at every d
    for bad in (dict(m0_norm=1e300, sigma_bar0=1e10), dict(m0_norm=1e308, sigma_bar0=2.0)):
        with pytest.raises(ConfigurationError, match=r"sigma_bar0 \* m0_norm / d must be finite"):
            ExperimentConfig(d_list=(8, 16), **bad).validate()
    ExperimentConfig(d_list=(8, 16), m0_norm=1e308, sigma_bar0=1.75).validate()


_POSITIVE = st.floats(1e-300, 1e300)
_COUNT = st.integers(1, 2 ** 31)
_MC_COUNT = st.integers(MIN_MC_SAMPLES, 2 ** 31)


@st.composite
def _configs(draw):
    config = ExperimentConfig(
        d_list=tuple(draw(st.lists(st.integers(2, 2 ** 20), min_size=1, max_size=5,
                                   unique=True))),
        eps_list=draw(st.none() | st.lists(_POSITIVE, min_size=1, max_size=4,
                                           unique=True).map(tuple)),
        alpha=draw(_POSITIVE), p_u=draw(_POSITIVE), p_l=draw(_POSITIVE),
        epsilon=draw(_POSITIVE), m0_norm=draw(_POSITIVE), sigma_bar0=draw(_POSITIVE),
        replicates=draw(_COUNT), master_seed=draw(st.integers(0, 2 ** 64)),
        mc_samples=draw(_MC_COUNT),
        output_path=draw(st.none() | st.text("abc019._-/", min_size=1, max_size=20)),
        max_iter=draw(_COUNT), record_every=draw(_COUNT))
    # a valid config also has a normal start step size sigma_bar0 * m0_norm / d
    assume(config.sigma_bar0 * config.m0_norm / max(config.d_list)
           >= np.finfo(float).tiny)
    # and a finite one
    assume(math.isfinite(config.sigma_bar0 * config.m0_norm))
    return config


def _config_line(name, value):
    if isinstance(value, tuple):
        return f"{name} = {', '.join(repr(v) for v in value)}"
    return f"{name} = {value if isinstance(value, str) else repr(value)}"


@settings(max_examples=100)
@given(config=_configs())
def test_config_round_trips_through_key_value_file(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("config") / "exp.cfg"
    lines = [_config_line(f.name, getattr(config, f.name))
             for f in fields(ExperimentConfig) if getattr(config, f.name) is not None]
    path.write_text("\n".join(lines) + "\n")
    assert build_config(str(path)) == config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_success_curve_rows(tmp_path):
    out = tmp_path / "curve.csv"
    config = ExperimentConfig(output_path=str(out))
    table = cmd_success_curve(config)
    header, raw, _ = _read_csv(out)
    assert header == ["rho", "d", "sigma_bar", "p_exact", "p_limit", "abs_gap"]
    # 64 step sizes from 1/8 to 8 for each of 2 rates and 8 dimensions
    assert len(raw) == len(table["sigma_bar"]) == 1024
    grid = table["sigma_bar"][:64]
    assert grid[0] == pytest.approx(0.125, rel=1e-15)
    assert grid[-1] == pytest.approx(8.0, rel=1e-15)
    assert all(s == grid[k % 64] for k, s in enumerate(table["sigma_bar"]))
    for rho, d, sigma_bar, p_exact, p_limit, gap in zip(*table.values()):
        assert sigma_bar > 0.0
        assert 0.0 <= p_exact <= 1.0
        if rho == 0.0:
            assert 0.0 < p_exact < 0.5
            assert p_limit == pytest.approx(ndtr(-sigma_bar / 2.0))
        if d == 256:
            assert gap < 1e-2


def test_drift_map_rows(tmp_path):
    out = tmp_path / "dm.csv"
    config = ExperimentConfig(output_path=str(out), d_list=(5,), mc_samples=2000)
    table = cmd_drift_map(config)
    header, raw, _ = _read_csv(out)
    assert header == ["d", "sigma_bar", "regime", "drift_mean", "ci_halfwidth",
                      "bound_B", "satisfied"]
    # 32 step sizes from ell / 100 to 100 u
    c = derive_constants(5)
    assert len(raw) == len(table["sigma_bar"]) == 32
    assert table["sigma_bar"][0] == pytest.approx(c.ell / 100.0, rel=1e-14)
    assert table["sigma_bar"][-1] == pytest.approx(100.0 * c.u, rel=1e-14)
    assert all(table["satisfied"])
    assert table["regime"] == ["small_sigma" if s < c.ell else
                               "large_sigma" if s > c.u else "reasonable_sigma"
                               for s in table["sigma_bar"]]
    assert (table["regime"][0], table["regime"][-1]) == ("small_sigma", "large_sigma")
    assert table["bound_B"] == [c.B] * 32


def test_drift_map_satisfied_needs_the_whole_interval_below_minus_b(tmp_path, monkeypatch,
                                                                   rng_for):
    # at d = 2 and large step sizes, 1000 transitions give 99% intervals
    # that straddle -B on this stream; such a row is not satisfied
    monkeypatch.setattr("es_drift.cli._log_grid", lambda *args: np.linspace(40.0, 70.0, 16))
    monkeypatch.setattr("es_drift.cli.derive_stream", lambda *key: rng_for(1))
    table = cmd_drift_map(ExperimentConfig(output_path=str(tmp_path / "dm.csv"),
                                           d_list=(2,), mc_samples=1000))
    rows = list(zip(table["drift_mean"], table["ci_halfwidth"], table["bound_B"],
                    table["satisfied"]))
    assert len(rows) == 16
    assert any(m - h <= -b < m + h for m, h, b, _ in rows)
    for mean, halfwidth, bound_b, satisfied in rows:
        assert satisfied == (mean + halfwidth <= -bound_b)


def test_hitting_scaling_report(tmp_path):
    out = tmp_path / "hs.csv"
    config = ExperimentConfig(output_path=str(out), d_list=(4, 8),
                              eps_list=(1e-2, 1e-3, 1e-4), replicates=10)
    table = cmd_hitting_scaling(config)
    _, raw, comments = _read_csv(out)
    assert len(table["d"]) == len(raw) == 6
    assert table["censored_runs"] == [0] * 6
    assert table["mean_T_lower"] == table["mean_T"]
    assert all(table["within_bounds"])
    fit_lines = [c for c in comments if c.startswith("# fit")]
    assert len(fit_lines) == 2
    assert all("r_squared=" in line for line in fit_lines)


def test_hitting_scaling_fits_only_three_distinct_epsilons(tmp_path):
    # a line through two epsilons is exact: no fit, and no warning
    out = tmp_path / "hs.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["hitting-scaling", "--d", "4", "--replicates", "3",
                     "--eps-list", "1e-2,1e-3", "--out", str(out)])
    assert code == 0
    _, raw, comments = _read_csv(out)
    assert len(raw) == 2
    assert not [c for c in comments if c.startswith("# fit")]


def test_hitting_scaling_fit_is_nan_when_every_run_is_censored(tmp_path):
    cfg = tmp_path / "censored.cfg"
    cfg.write_text("max_iter = 5\n")
    out = tmp_path / "hs.csv"
    code = main(["hitting-scaling", "--config", str(cfg), "--eps-list",
                 "1e-2,1e-4,1e-6", "--d", "4", "--replicates", "3", "--out", str(out)])
    assert code == 0
    _, _, comments = _read_csv(out)
    assert "# fit d=4: slope=nan intercept=nan r_squared=nan slope_se=nan" in comments


def test_hitting_scaling_fit_of_runs_all_hit_at_the_start_has_no_r_squared(tmp_path):
    # every epsilon at or above m0_norm is hit at t = 0: a flat line with
    # no spread, whose r_squared is 0 / 0, NaN without a RuntimeWarning
    out = tmp_path / "hs.csv"
    config = ExperimentConfig(output_path=str(out), d_list=(4,), replicates=5,
                              eps_list=(3.0, 2.0, 1.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cmd_hitting_scaling(config)
        _assert_hitting_scaling_file(out, config, np.zeros((1, 5, 3), dtype=int))
    _, _, comments = _read_csv(out)
    assert "# fit d=4: slope=0.0 intercept=0.0 r_squared=nan slope_se=0.0" in comments


def test_hitting_scaling_rate_band_is_nan_at_an_epsilon_hit_at_the_start(tmp_path):
    # an epsilon at or above m0_norm is hit at t = 0 at every d, and 0 / 0
    # gives NaN without a RuntimeWarning
    out = tmp_path / "hs.csv"
    code = main(["hitting-scaling", "--eps-list", "2,1e-2,1e-4", "--replicates", "5",
                 "--out", str(out)])
    assert code == 0
    _, _, comments = _read_csv(out)
    assert "# rate_band epsilon=2.0: max_over_min_T_per_d=nan" in comments


def test_hitting_scaling_with_one_replicate_has_no_interval(tmp_path):
    # one run shows no spread: a NaN half-width, so no cell is within the
    # bounds, as a censored cell is not
    out = tmp_path / "hs.csv"
    assert main(["hitting-scaling", "--d", "4", "--replicates", "1", "--eps-list",
                 "1e-2,1e-4,1e-6", "--out", str(out)]) == 0
    header, raw, _ = _read_csv(out)
    rows = [dict(zip(header, row)) for row in raw]
    assert len(rows) == 3
    assert all(row["censored_runs"] == "0" and row["ci_halfwidth"] == "nan"
               and row["within_bounds"] == "false" for row in rows)


def test_a_start_inside_the_target_runs_quietly_with_vacuous_bounds(tmp_path, capsys):
    # epsilon = 2 > m0_norm = 1: the files hold a lower bound below -1/2 and
    # an upper bound of 0, and stderr holds nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bounds", "--d", "8", "--epsilon", "2",
                     "--out", str(tmp_path / "b.json")]) == 0
        assert main(["hitting-scaling", "--eps-list", "2,1e-2,1e-4", "--replicates", "5",
                     "--out", str(tmp_path / "hs.csv")]) == 0
    assert capsys.readouterr().err == ""
    (instance,) = json.loads((tmp_path / "b.json").read_text())["instances"]
    header, raw, _ = _read_csv(tmp_path / "hs.csv")
    rows = [dict(zip(header, row)) for row in raw if row[1] == "2.0"]
    assert [row["d"] for row in rows] == ["4", "8", "16"]
    for d, lower, upper in [(8, instance["lower_bound"], instance["upper_bound"]),
                            *((int(r["d"]), float(r["lower_bound"]), float(r["upper_bound"]))
                              for r in rows)]:
        assert lower == pytest.approx(-math.log(2.0) * d / 4.0 - 0.5, rel=1e-15)
        assert upper == 0.0


def test_hitting_scaling_partly_censored_cell_has_no_mean(tmp_path):
    # the d = 4 runs are replicates 0..9 sharing stream (seed, 2, 0), one
    # chain each for both epsilons; a budget of 260 censors exactly those
    # whose uncensored time to 1e-4 exceeds it, and a mean of the finished
    # runs alone would be biased low
    (runs,) = hitting_times([initial_state(4, 1.0, 2.0)], 10, 1.5, [1e-2, 1e-4],
                            10 ** 7, [derive_stream(20180715, 2, 0)])
    uncensored = [times[1] for times in runs]
    over_budget = sum(t > 260 for t in uncensored)
    assert 0 < over_budget < 10
    cfg = tmp_path / "partly.cfg"
    cfg.write_text("max_iter = 260\n")
    out = tmp_path / "hs.csv"
    code = main(["hitting-scaling", "--config", str(cfg), "--eps-list", "1e-2,1e-4",
                 "--d", "4", "--replicates", "10", "--out", str(out)])
    assert code == 0
    header, raw, _ = _read_csv(out)
    finished, partly = (dict(zip(header, row)) for row in raw)
    assert finished["censored_runs"] == "0"
    assert math.isfinite(float(finished["mean_T"]))
    assert finished["mean_T_lower"] == finished["mean_T"]
    assert partly["censored_runs"] == str(over_budget)
    assert math.isnan(float(partly["mean_T"]))
    assert math.isnan(float(partly["ci_halfwidth"]))
    assert float(partly["mean_T_lower"]) == sum(min(t, 260) for t in uncensored) / 10
    assert partly["within_bounds"] == "false"


def _fit_oracle(x, chains):
    """A d's fit line from np.polyfit: the slope, intercept and r_squared of
    the line through the cell means of its chains, and slope_se, the
    statistics.stdev of the chains' slopes over sqrt(R). All four are NaN
    where a run is censored, slope_se where R = 1, and r_squared where
    the means are equal."""
    if (chains < 0).any():
        return [math.nan] * 4
    means = chains.mean(axis=0)
    slope, intercept = np.polyfit(x, means, 1)
    ss_res = float(((means - (slope * x + intercept)) ** 2).sum())
    ss_tot = float(((means - means.mean()) ** 2).sum())
    slopes = [float(np.polyfit(x, chain, 1)[0]) for chain in chains]
    slope_se = statistics.stdev(slopes) / math.sqrt(len(chains)) if len(chains) > 1 else math.nan
    return [slope, intercept, 1.0 - ss_res / ss_tot if ss_tot else math.nan, slope_se]


_FIT_LINE = re.compile(r"^(# fit d=\d+): slope=(\S+) intercept=(\S+) r_squared=(\S+)"
                       r" slope_se=(\S+)$", flags=re.M)


def _assert_hitting_scaling_file(path, config, times):
    """The file is _hitting_scaling_text to the byte once each fit line's
    values are cut, and those values are _fit_oracle's to 1e-12; returns
    the slope_se values."""
    text = path.read_text()
    assert _FIT_LINE.sub(r"\1", text) == _hitting_scaling_text(config, times)
    fits = [[float(v) for v in match.groups()[1:]] for match in _FIT_LINE.finditer(text)]
    x = np.log(1.0 / np.array(config.epsilons))
    expected = [_fit_oracle(x, chains) for chains in times] if len(x) >= 3 else []
    assert np.array(fits) == pytest.approx(np.array(expected), rel=1e-12, nan_ok=True)
    return [fit[3] for fit in fits]


def _hitting_scaling_text(config, times):
    """The hitting-scaling file for the array ``times`` of hitting_times,
    formed cell by cell (a 1-d sum per cell, mean_estimate on floats): the
    reference the driver's whole-array reduction must match to the bit. A
    fit line keeps only its ``# fit d=...`` prefix; _fit_oracle checks its
    values."""
    rows, comments, means = [], [], {}
    constants = derive_constants(config.d_list, config.alpha, config.p_u, config.p_l)
    for i, (d, c) in enumerate(zip(config.d_list, constants)):
        state0 = initial_state(d, config.m0_norm, config.sigma_bar0)
        for j, eps in enumerate(config.epsilons):
            cell = times[i, :, j].tolist()
            censored = sum(t < 0 for t in cell)
            capped = np.array([config.max_iter if t < 0 else t for t in cell], dtype=float)
            total = float(capped.sum())
            mean = halfwidth = math.nan
            if not censored:
                est = mean_estimate(total, float((capped * capped).sum()), len(cell))
                mean, halfwidth = est.mean, float(est.half_width)
            means[d, eps] = mean
            lower, upper = hitting_time_bounds(state0, c, eps)
            rows.append((d, eps, len(cell), mean, halfwidth, total / len(cell), lower,
                         upper, lower <= mean - halfwidth and mean + halfwidth <= upper,
                         censored))
    if len(config.epsilons) >= 3:
        comments += [f"# fit d={d}" for d in config.d_list]
    if len(config.d_list) >= 2:
        for eps in config.epsilons:
            per_d = np.array([means[d, eps] / d for d in config.d_list])
            comments.append(f"# rate_band epsilon={eps!r}:"
                            f" max_over_min_T_per_d={float(per_d.max() / per_d.min())!r}")
    header = ("d,epsilon,replicates,mean_T,ci_halfwidth,mean_T_lower,lower_bound,"
              "upper_bound,within_bounds,censored_runs")
    lines = ["# schema_version=1", header,
             *(",".join(map(_format, row)) for row in rows), *comments]
    return "\n".join(lines) + "\n"


def test_hitting_scaling_cells_equal_the_per_cell_formula(tmp_path, monkeypatch):
    # times near 2**27 have squares near 2**54, so a cell's sum of squares
    # rounds and its value depends on the summation order: only a reduction
    # over a contiguous replicate axis sums each cell in the pairwise order
    # of a 1-d sum. Some times are -1 (censored), one is 0 (an immediate hit)
    rng = np.random.default_rng(24)
    max_iter = 2 ** 28
    times = rng.integers(2 ** 26, max_iter, size=(2, 40, 3))
    times[0, [3, 17, 30], 2] = -1
    times[1, 5, 0] = 0
    # a strided reduction adds the replicates one by one, which differs here
    squares = times.astype(float) ** 2
    assert any(float(squares[i, :, j].sum()) != functools.reduce(
        operator.add, squares[i, :, j].tolist()) for i in range(2) for j in range(3))
    monkeypatch.setattr("es_drift.cli.hitting_times", lambda *args: times.copy())
    out = tmp_path / "hs.csv"
    config = ExperimentConfig(output_path=str(out), d_list=(4, 16), replicates=40,
                              eps_list=(1e-2, 1e-4, 1e-6), max_iter=max_iter)
    table = cmd_hitting_scaling(config)
    _assert_hitting_scaling_file(out, config, times)
    assert table["censored_runs"] == [0, 0, 3, 0, 0, 0]
    assert math.isnan(table["mean_T"][2]) and not math.isnan(table["mean_T"][3])


def test_hitting_scaling_partly_censored_run_matches_its_array(tmp_path):
    # a budget of 300 censors some runs at 1e-4 (not all), and every line of
    # the file is what the per-cell formula gives from hitting_times itself
    out = tmp_path / "hs.csv"
    config = ExperimentConfig(output_path=str(out), d_list=(4, 6),
                              eps_list=(1e-2, 1e-3, 1e-4), replicates=12, max_iter=300)
    cmd_hitting_scaling(config)
    states = [initial_state(d, 1.0, 2.0) for d in config.d_list]
    times = hitting_times(states, 12, 1.5, config.eps_list, 300,
                          [derive_stream(config.master_seed, 2, i) for i in range(2)])
    assert 0 < np.count_nonzero(times < 0) < times[..., 2].size
    _assert_hitting_scaling_file(out, config, times)


@pytest.mark.parametrize("replicates", [1, 2, 30])
def test_hitting_scaling_slope_se_is_the_spread_of_the_per_chain_slopes(
        tmp_path, monkeypatch, replicates):
    # d = 4 has a censored run, so its slope_se is NaN; one chain has no
    # spread, so every slope_se is NaN, and neither case warns
    rng = np.random.default_rng(28)
    times = rng.integers(10, 1000, size=(3, replicates, 4)).cumsum(axis=2)
    times[0, -1, 3] = -1
    monkeypatch.setattr("es_drift.cli.hitting_times", lambda *args: times.copy())
    out = tmp_path / "hs.csv"
    config = ExperimentConfig(output_path=str(out), d_list=(4, 8, 16),
                              replicates=replicates, max_iter=10 ** 6,
                              eps_list=(1e-2, 1e-3, 1e-5, 1e-8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cmd_hitting_scaling(config)
    slope_se = _assert_hitting_scaling_file(out, config, times)
    assert len(slope_se) == 3 and math.isnan(slope_se[0])
    assert all(math.isnan(se) for se in slope_se) == (replicates == 1)


def test_run_reaches_targets_below_norm_squared_underflow(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", "--d", "10", "--epsilon", "1e-300", "--out", str(out)]) == 0
    _, raw, _ = _read_csv(out)
    norm_m, sigma, sigma_bar = (float(v) for v in raw[-1][1:4])
    assert 0.0 < norm_m <= 1e-300
    assert sigma_bar == pytest.approx(10 * sigma / norm_m, rel=1e-12)


@pytest.mark.parametrize("m0_norm, epsilon", [("1e-200", "1e-250"), ("1e200", "1e150")])
def test_run_starts_from_norms_whose_square_under_or_overflows(tmp_path, m0_norm,
                                                               epsilon):
    out = tmp_path / "trace.csv"
    assert main(["run", "--d", "8", "--m0-norm", m0_norm, "--epsilon", epsilon,
                 "--out", str(out)]) == 0
    _, raw, comments = _read_csv(out)
    assert float(raw[0][1]) == float(m0_norm)
    assert all(math.isfinite(float(row[5])) for row in raw)
    (hitting_time,) = (int(c.removeprefix("# hitting_time=")) for c in comments
                       if c.startswith("# hitting_time="))
    assert hitting_time == len(raw) - 1 > 0
    assert 0.0 < float(raw[-1][1]) <= float(epsilon)


@pytest.mark.parametrize("d, alpha", [("8", "2"), ("2", "1.5")])
def test_run_keeps_sigma_bar_and_the_potential_finite_near_the_float_ceiling(
        tmp_path, d, alpha):
    # sigma_bar climbs from 1e-3 to O(1) at norms near 1e308, where d * sigma
    # overflows; every written value must stay finite
    out = tmp_path / "trace.csv"
    assert main(["run", "--d", d, "--alpha", alpha, "--m0-norm", "1e308",
                 "--sigma-bar0", "1e-3", "--epsilon", "1e300", "--max-iter", "3000",
                 "--out", str(out)]) == 0
    _, raw, _ = _read_csv(out)
    assert max(float(row[3]) for row in raw) > 1.0
    assert all(math.isfinite(float(v)) for row in raw for i, v in enumerate(row) if i != 4)


def test_bounds_json(tmp_path):
    out = tmp_path / "bounds.json"
    config = ExperimentConfig(output_path=str(out), d_list=(10,),
                              epsilon=math.exp(-10.0))
    payload = cmd_bounds(config)
    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert payload["schema_version"] == 1
    entry = payload["instances"][0]
    constants = entry["constants"]
    expected_keys = {"d", "alpha", "p_u", "p_l", "ell", "u", "A", "v", "r",
                     "r_prime", "p_star", "p_prime", "B", "L", "U"}
    assert expected_keys <= set(constants)
    assert constants["L"] <= constants["B"] <= constants["U"]
    assert entry["lower_bound"] == pytest.approx(24.5, rel=1e-12)


def test_har_check_rows(tmp_path):
    out = tmp_path / "har.csv"
    config = ExperimentConfig(output_path=str(out), mc_samples=50_000)
    table = cmd_har_check(config)
    header, raw, _ = _read_csv(out)
    assert header == ["d", "mc_mean", "mc_ci_halfwidth", "quadrature", "bound",
                      "gap_sigmas", "passed"]
    assert table["d"] == [2, 4, 8, 16, 32, 64, 128]
    assert all(table["passed"])


def test_har_check_passes_a_row_only_when_all_three_checks_hold(tmp_path, monkeypatch):
    # a closed form raised by 0.1 stays below the d = 2 ceiling of 1/2 but
    # lies many standard errors from the Monte Carlo mean there
    monkeypatch.setattr("es_drift.cli.expected_log_progress_exact",
                        lambda d: expected_log_progress_exact(d) + 0.1)
    table = cmd_har_check(ExperimentConfig(output_path=str(tmp_path / "har.csv"),
                                           mc_samples=20_000))
    checks = [(mean - halfwidth <= bound, exact <= bound, gap < 4.0)
              for mean, halfwidth, exact, bound, gap in zip(
                  table["mc_mean"], table["mc_ci_halfwidth"], table["quadrature"],
                  table["bound"], table["gap_sigmas"])]
    assert checks[0] == (True, True, False)
    assert table["passed"] == [all(row) for row in checks]


def test_har_check_gap_is_zero_where_the_standard_error_is(tmp_path, monkeypatch):
    # Monte Carlo means off the closed form but without spread: no division
    # by the zero standard error, and no warning
    ds = (2, 4, 8, 16, 32, 64, 128)
    means = np.array([expected_log_progress_exact(d) for d in ds]) + 0.01
    monkeypatch.setattr("es_drift.cli.expected_log_progress_mc",
                        lambda *args: MeanEstimate(means, np.zeros(len(ds)), 1000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = cmd_har_check(ExperimentConfig(output_path=str(tmp_path / "har.csv")))
    assert table["gap_sigmas"] == [0.0] * len(ds)


def test_har_check_draws_z0_once_for_every_dimension(tmp_path, monkeypatch):
    # one stream, (seed, 3, 0), and one pool: n normals in all, and per
    # chunk one gamma increment per d, (d - d_prev) / 2 with d_prev = 1 first
    streams = []

    def counting_stream(*key):
        streams.append((key, RecordingStream(derive_stream(*key))))
        return streams[-1][1]

    monkeypatch.setattr("es_drift.cli.derive_stream", counting_stream)
    n = 20_000
    cmd_har_check(ExperimentConfig(output_path=str(tmp_path / "har.csv"),
                                   mc_samples=n, master_seed=5))
    [(key, stream)] = streams
    assert key == (5, 3, 0)
    assert sum(z0.size for z0 in stream.normals) == n
    ds = (2, 4, 8, 16, 32, 64, 128)
    assert [shape for shape, _ in stream.gamma_calls] == [
        (d - d_prev) / 2 for d_prev, d in zip((1, *ds), ds)]
    assert len({size for _, size in stream.gamma_calls}) == 1


def test_run_trace(tmp_path):
    out = tmp_path / "trace.csv"
    config = ExperimentConfig(output_path=str(out), d_list=(6,), epsilon=1e-3)
    table = cmd_run(config)
    header, raw, comments = _read_csv(out)
    assert header == list(table) == ["t", "norm_m", "sigma", "sigma_bar", "success",
                                     "potential"]
    (hitting_time,) = (c for c in comments if c.startswith("# hitting_time="))
    assert hitting_time != "# hitting_time=None"
    norms = [float(row[1]) for row in raw]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


# columns of one kind each
_CSV_COLUMNS = [
    [0.1, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 2.0],
    [np.float64(0.1), 1.5, np.float64(math.nan), 3.0, 1e-17, -2.5, 0.0, 7.0],
    [True, False, np.True_, np.False_, True, True, False, True],
    [0, -3, 10 ** 20, 7, 1, 2, 3, 4],
    ["small_sigma", "a", "", "b", "c", "d", "e", "f"],
    # repeats, each formatted once by its bit pattern
    [0.5, -0.0, 0.0, math.nan, -math.inf, math.inf, np.float64(-0.0), 0.5],
]


def test_write_csv_formats_every_value_as_format_does(tmp_path):
    # the writer formats a column at a time; every file must read as if
    # _format had been called on each value
    table = {f"c{i}": column for i, column in enumerate(_CSV_COLUMNS)}
    out = tmp_path / "t.csv"
    _write_csv(out, table, ["# done"])
    expected = ["# schema_version=1", ",".join(table),
                *(",".join(map(_format, row)) for row in zip(*_CSV_COLUMNS)), "# done"]
    assert out.read_text() == "\n".join(expected) + "\n"
    _write_csv(out, dict.fromkeys(table, []))
    assert out.read_text() == "# schema_version=1\n" + ",".join(table) + "\n"
    # a column mixing kinds is refused, whatever _format would give it
    for mixed in ([np.int64(5), 2, 3.5, True, np.float32(0.1), "x", np.bool_(False), -1],
                  [1, 2.0, 3, 4.0, 5, 6.0, 7, 8.0]):
        with pytest.raises(TypeError, match="mixes"):
            _write_csv(out, {"c": mixed})


_SMALL_CONFIGS = [
    pytest.param(cmd_success_curve, {}, id="success-curve"),
    pytest.param(cmd_drift_map, dict(d_list=(3, 5), mc_samples=1000), id="drift-map"),
    pytest.param(cmd_hitting_scaling, dict(d_list=(4, 8), replicates=5,
                                           eps_list=(1e-2, 1e-3, 1e-4)),
                 id="hitting-scaling"),
    pytest.param(cmd_har_check, dict(mc_samples=1000), id="har-check"),
    pytest.param(cmd_run, dict(d_list=(6,), epsilon=1e-3), id="run"),
]


@pytest.mark.parametrize("command, overrides", _SMALL_CONFIGS)
def test_each_csv_command_returns_the_table_it_wrote(tmp_path, command, overrides):
    out = tmp_path / "table.csv"
    table = command(ExperimentConfig(output_path=str(out), **overrides))
    header, raw, _ = _read_csv(out)
    assert header == list(table)
    assert raw
    assert all(len(column) == len(raw) for column in table.values())
    assert raw == [list(map(_format, row)) for row in zip(*table.values())]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = dict(d_list=(4,), eps_list=(1e-2, 1e-3), replicates=5)
    cmd_hitting_scaling(ExperimentConfig(output_path=str(out_a), **base))
    cmd_hitting_scaling(ExperimentConfig(output_path=str(out_b), **base))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_hitting_scaling_rows_of_a_d_do_not_depend_on_d_list(tmp_path):
    # the replicates of d_list[i] share stream (seed, 2, i), so adding a
    # later dimension leaves the d = 4 rows as they were; reruns are
    # byte-identical
    base = dict(eps_list=(1e-2, 1e-4), replicates=8)
    outs = {}
    for name, d_list in (("a", (4,)), ("b", (4, 8)), ("c", (4, 8))):
        outs[name] = tmp_path / f"{name}.csv"
        cmd_hitting_scaling(ExperimentConfig(output_path=str(outs[name]),
                                             d_list=d_list, **base))
    assert outs["b"].read_bytes() == outs["c"].read_bytes()
    header, alone, _ = _read_csv(outs["a"])
    _, joined, _ = _read_csv(outs["b"])
    d_column = header.index("d")
    assert [row for row in joined if row[d_column] == "4"] == alone
    assert [row[d_column] for row in joined] == ["4", "4", "8", "8"]


def test_byte_identical_across_worker_counts(tmp_path):
    # drift-map is the subcommand that fans out to --workers processes
    outs = [tmp_path / "w1.csv", tmp_path / "w2.csv"]
    for workers, out in zip(("1", "2"), outs):
        assert main(["drift-map", "--d", "5", "--mc-samples", "2000",
                     "--workers", workers, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------

def test_main_success(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--d", "8", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_parser_is_built_once_and_each_main_call_parses_its_own_arguments(
        tmp_path, monkeypatch):
    assert build_parser() is build_parser()
    seen = {}
    monkeypatch.setitem(cli._COMMANDS, "run", lambda config: seen.setdefault("run", config))
    monkeypatch.setitem(cli._COMMANDS, "bounds",
                        lambda config: seen.setdefault("bounds", config))
    assert main(["run", "--d", "6", "--record-every", "3", "--max-iter", "50",
                 "--sigma-bar0", "0.5", "--out", str(tmp_path / "r.csv")]) == 0
    assert main(["bounds", "--alpha", "1.4", "--epsilon", "1e-3",
                 "--out", str(tmp_path / "b.json")]) == 0
    defaults = ExperimentConfig()
    run, bounds = seen["run"], seen["bounds"]
    assert (run.d_list, run.record_every, run.max_iter, run.sigma_bar0) == ((6,), 3, 50, 0.5)
    assert (run.alpha, run.epsilon) == (defaults.alpha, defaults.epsilon)
    assert (bounds.alpha, bounds.epsilon) == (1.4, 1e-3)
    assert (bounds.d_list, bounds.record_every, bounds.max_iter, bounds.sigma_bar0) == (
        defaults.d_list, defaults.record_every, defaults.max_iter, defaults.sigma_bar0)


_TOO_FEW = MIN_MC_SAMPLES - 1

# Every command line that fails: its id, its argv as a shell splits it, the
# bytes of exp.cfg (None for no file), the exit code and a part of the one
# stderr line. Exit 2 is a configuration error, found before any work; exit 1
# a runtime error. No row leaves a file behind, and a RuntimeWarning, an error
# under pyproject.toml's filter, would make a row exit 1 with another message.
_FAILURES = [
    # the constants' inequalities, named; alpha^(5/4) overflows at 1e300
    ("band_too_narrow", "bounds --d 16 --alpha 3.0 --out x.json", None, 2,
     "u / ell >= alpha^(5/4)"),
    ("alpha_one", "hitting-scaling --alpha 1.0 --out h.csv", None, 2, "alpha > 1"),
    ("alpha_overflows", "bounds --d 8 --alpha 1e300 --out b.json", None, 2,
     "u / ell >= alpha^(5/4)"),
    ("mc_samples_10_har_check", "har-check --mc-samples 10 --out har.csv", None, 2,
     f"mc_samples must be at least {MIN_MC_SAMPLES}"),
    ("mc_samples_10_drift_map", "drift-map --d 4 --mc-samples 10 --out out.csv", None, 2,
     f"mc_samples must be at least {MIN_MC_SAMPLES}"),
    ("mc_samples_too_few_har_check", f"har-check --d 4 --mc-samples {_TOO_FEW} --out out.csv",
     None, 2, f"mc_samples must be at least {MIN_MC_SAMPLES}"),
    ("mc_samples_too_few_drift_map", f"drift-map --d 4 --mc-samples {_TOO_FEW} --out out.csv",
     None, 2, f"mc_samples must be at least {MIN_MC_SAMPLES}"),
    # below the smallest normal float sigma * alpha^(-1/4) rounds back to
    # sigma and the run stalls; a NaN or infinite value, or a start step size
    # that overflows, gives a run that never moves or bounds that are not finite
    ("epsilon_subnormal", "run --d 10 --epsilon 5e-324 --out r.csv", None, 2,
     "smallest normal float"),
    ("eps_list_subnormal", "hitting-scaling --d 4 --eps-list 1e-3,5e-324 --out h.csv", None,
     2, "smallest normal float"),
    ("epsilon_inf", "run --d 10 --epsilon inf --out r.csv", None, 2,
     "epsilon must be finite and positive"),
    ("eps_list_nan", "hitting-scaling --d 4 --eps-list 1e-2,nan --out h.csv", None, 2,
     "eps_list entries must be finite and positive"),
    ("sigma_bar0_inf", "run --d 10 --sigma-bar0 inf --out r.csv", None, 2,
     "sigma_bar0 must be finite and positive"),
    ("m0_norm_nan", "run --d 10 --m0-norm nan --out r.csv", None, 2,
     "m0_norm must be finite and positive"),
    ("m0_norm_inf_in_config_file", "bounds --d 10 --config exp.cfg --out b.json",
     b"m0_norm = inf\n", 2, "m0_norm must be finite and positive"),
    ("start_sigma_underflows", "run --d 8 --m0-norm 5e-324 --sigma-bar0 0.1 --out r.csv",
     None, 2, "smallest normal float"),
    ("start_sigma_overflows", "run --d 8 --m0-norm 1e300 --sigma-bar0 1e10 --out r.csv",
     None, 2, "sigma_bar0 * m0_norm / d must be finite"),
    ("start_sigma_overflows_in_config_file", "bounds --d 8 --config exp.cfg --out b.json",
     b"m0_norm = 1e300\nsigma_bar0 = 1e10\n", 2, "sigma_bar0 * m0_norm / d must be finite"),
    # a repeated entry gives duplicate rows, and a singular fit
    ("eps_list_repeated", "hitting-scaling --d 4 --eps-list 1e-2,1e-3,1e-2 --out h.csv",
     None, 2, "eps_list entries must be distinct"),
    ("eps_list_repeated_in_config_file", "hitting-scaling --d 4 --config exp.cfg --out h.csv",
     b"eps_list = 1e-2, 1e-3, 1e-2\n", 2, "eps_list entries must be distinct"),
    ("d_list_repeated_drift_map", "drift-map --mc-samples 1000 --config exp.cfg --out d.csv",
     b"d_list = 4, 8, 4\n", 2, "d_list entries must be distinct"),
    *((f"d_list_8_8_{command.replace('-', '_')}",
       f"{command} --config exp.cfg --out repeated_d.out", b"d_list = 8,8\n", 2,
       "d_list entries must be distinct")
      for command in ("hitting-scaling", "drift-map", "bounds")),
    # an --out that cannot name a new file
    ("out_in_missing_directory", "bounds --d 8 --out missing_dir/b.json", None, 2,
     "--out missing_dir/b.json names no file in an existing directory"),
    ("out_is_a_directory",
     "hitting-scaling --d 8 --replicates 20 --eps-list 1e-2,1e-4,1e-6 --out .", None, 2,
     "--out . names no file in an existing directory"),
    ("out_empty", 'bounds --d 8 --out ""', None, 2, "output_path must be non-empty"),
    ("out_empty_in_config_file", "bounds --d 8 --config exp.cfg", b"output_path =\n", 2,
     "output_path must be non-empty"),
    # sigma = 1.7e308 / 2 overflows at the first success, and the run would
    # stall at sigma = inf
    ("sigma_overflows_run", "run --d 2 --m0-norm 1e308 --sigma-bar0 1.7 --epsilon 1e300 "
     "--max-iter 3000 --seed 4 --out r.csv", None, 1, "sigma overflowed"),
    ("sigma_overflows_hitting_scaling", "hitting-scaling --config exp.cfg --replicates 20 "
     "--eps-list 1e300,1e299,1e298 --seed 1 --out h.csv",
     b"d_list = 2\nm0_norm = 1e308\nsigma_bar0 = 1.7\n", 1, "sigma overflowed"),
    # an output path the file system refuses, a name longer than 255 bytes
    ("out_name_too_long", f"bounds --d 8 --out {'x' * 300}.json", None, 1,
     "File name too long"),
    # a malformed flag value, as a malformed config-file value; one flag each
    # in test_a_malformed_flag_value_is_a_configuration_error
    ("eps_list_partly_malformed", "hitting-scaling --d 8 --eps-list 1e-2,abc --out h.csv",
     None, 2, "argument --eps-list:"),
    ("malformed_eps_list_in_config_file", "hitting-scaling --config exp.cfg --out h.csv",
     b"eps_list = abc\n", 2, "exp.cfg:1: bad value for eps_list"),
    # a malformed command line: one line, not a usage block and SystemExit(2)
    ("unknown_flag", "bounds --d 8 --bogus 1 --out b.json", None, 2,
     "unrecognized arguments: --bogus 1"),
    ("no_subcommand", "", None, 2, "the following arguments are required: command"),
    ("stray_argument", "bounds --d 8 extra", None, 2, "unrecognized arguments: extra"),
    ("unknown_subcommand", "nosuch", None, 2, "argument command: invalid choice: 'nosuch'"),
    ("flag_without_value", "bounds --d", None, 2, "argument --d: expected one argument"),
    # a config file that cannot be read, or sets a key twice or an unknown one
    ("config_file_missing", "bounds --d 8 --config missing.cfg --out b.json", None, 2,
     "cannot read config file missing.cfg: [Errno 2]"),
    ("config_file_is_a_directory", "bounds --d 8 --config . --out b.json", None, 2,
     "cannot read config file .: [Errno 21]"),
    ("config_file_not_utf8", "bounds --d 8 --config exp.cfg --out b.json",
     b"alpha = 1.5\n# \xff\n", 2, "cannot read config file exp.cfg: 'utf-8' codec can't decode"),
    ("key_set_again", "bounds --d 8 --config exp.cfg --out b.json",
     b"alpha = 1.5\nalpha = 2.0\n", 2, "exp.cfg:2: config key 'alpha' is set again"),
    ("workers_in_config_file", "bounds --d 8 --config exp.cfg --out b.json", b"workers = 1\n",
     2, "exp.cfg:1: unknown config key 'workers'"),
    # psucc_exact has one stated accuracy, and the drivers' step-size grids
    # are fixed, so no config key selects them
    *((f"unknown_key_{key}", "success-curve --config exp.cfg --out curve.csv",
       f"{key} = {value}\n".encode(), 2, f"exp.cfg:1: unknown config key {key!r}")
      for key, value in (("tol", "1e-9"), ("curve_grid_points", "16"),
                         ("curve_sigma_lo", "16"), ("curve_sigma_hi", "16"),
                         ("drift_grid_points", "16"), ("drift_span_lo", "16"),
                         ("drift_span_hi", "16"))),
    # an empty list
    ("eps_list_empty", 'hitting-scaling --d 8 --eps-list "" --out h.csv', None, 2,
     "eps_list must be non-empty"),
    ("eps_list_empty_in_config_file", "hitting-scaling --d 8 --replicates 2 --config exp.cfg "
     "--out h.csv", b"eps_list = ,\n", 2, "eps_list must be non-empty"),
    # --d parses as d_list does
    ("d_empty", 'bounds --d "" --out b.json', None, 2, "d_list must be non-empty"),
    ("d_repeated", "bounds --d 4,4 --out b.json", None, 2, "d_list entries must be distinct"),
]


def _check_failure(tmp_path, capsys, monkeypatch, argv, config, code, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "exp.cfg").write_bytes(config)
    assert main(shlex.split(argv)) == code
    err = capsys.readouterr().err
    prefix = {1: "error: ", 2: "configuration error: "}[code]
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1
    assert message in err
    assert "usage:" not in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == (["exp.cfg"] if config is not None else [])


@pytest.mark.parametrize("argv, config, code, message", [row[1:] for row in _FAILURES],
                         ids=[row[0] for row in _FAILURES])
def test_command_line_failure(tmp_path, capsys, monkeypatch, argv, config, code, message):
    _check_failure(tmp_path, capsys, monkeypatch, argv, config, code, message)


@pytest.mark.parametrize("flag", [
    "--seed", "--d", "--alpha", "--epsilon", "--replicates", "--mc-samples", "--workers",
    "--eps-list", "--record-every", "--max-iter", "--m0-norm", "--sigma-bar0"])
def test_a_malformed_flag_value_is_a_configuration_error(tmp_path, capsys, monkeypatch, flag):
    command = "hitting-scaling" if flag == "--eps-list" else "run"
    _check_failure(tmp_path, capsys, monkeypatch, f"{command} {flag} abc --out out.csv", None,
                   2, f"argument {flag}:")


@pytest.mark.parametrize("config_text, inequality", [
    ("d_list = 2\nalpha = 1.01\n", "2 * d * log(alpha) > 1"),
    ("d_list = 8\np_u = 0.3\n", "0 < p_u < 1/5 < p_l < 1/2"),
], ids=["alpha_near_one_at_d_2", "p_u_above_one_fifth"])
def test_hitting_scaling_rejects_bad_constants_before_simulating(
        tmp_path, capsys, monkeypatch, config_text, inequality):
    def no_chains(*args, **kwargs):
        raise AssertionError("hitting_times ran before the constants were checked")

    monkeypatch.setattr("es_drift.cli.hitting_times", no_chains)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config_text)
    assert main(["hitting-scaling", "--config", str(cfg),
                 "--out", str(tmp_path / "hs.csv")]) == 2
    assert inequality in capsys.readouterr().err


@pytest.mark.parametrize("out", ["missing_dir/hs.csv", "."])
def test_a_bad_output_path_runs_no_command_work(tmp_path, capsys, monkeypatch, out):
    def no_chains(*args, **kwargs):
        raise AssertionError("hitting_times ran before the output path was checked")

    monkeypatch.setattr("es_drift.cli.hitting_times", no_chains)
    assert main(["hitting-scaling", "--d", "8", "--replicates", "20", "--eps-list",
                 "1e-2,1e-4,1e-6", "--out", str(tmp_path / out)]) == 2
    assert "names no file in an existing directory" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_help_still_exits_0(capsys):
    for args in (["-h"], ["bounds", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 0
        assert "usage: es-drift" in capsys.readouterr().out


def test_main_flag_overrides(tmp_path):
    out = tmp_path / "b.json"
    code = main(["bounds", "--d", "4", "--epsilon", "1e-4", "--seed", "9",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["epsilon"] == 1e-4
    assert [e["d"] for e in payload["instances"]] == [4]
