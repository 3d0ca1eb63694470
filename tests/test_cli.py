import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from es_drift import derive_constants, derive_stream, hitting_times, initial_state
from es_drift.cli import (_format, _write_csv, cmd_bounds, cmd_drift_map,
                          cmd_har_check, cmd_hitting_scaling, cmd_run,
                          cmd_success_curve, main)
from es_drift.config import ExperimentConfig, build_config, parse_config_file
from es_drift.errors import ConfigurationError
from es_drift.estimates import MIN_MC_SAMPLES
from es_drift.success import std_normal_cdf


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


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 3\n")
    with pytest.raises(ConfigurationError, match="unknown config key"):
        parse_config_file(cfg)
    # psucc_exact has one stated accuracy, so no config key selects one
    cfg.write_text("tol = 1e-9\n")
    assert main(["success-curve", "--config", str(cfg),
                 "--out", str(tmp_path / "curve.csv")]) == 2
    assert "unknown config key 'tol'" in capsys.readouterr().err
    # the drivers' step-size grids are fixed, so no config key sets them
    for key in ("curve_grid_points", "curve_sigma_lo", "curve_sigma_hi",
                "drift_grid_points", "drift_span_lo", "drift_span_hi"):
        cfg.write_text(f"{key} = 16\n")
        assert main(["success-curve", "--config", str(cfg),
                     "--out", str(tmp_path / "curve.csv")]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(replicates=0).validate()
    with pytest.raises(ConfigurationError):
        ExperimentConfig(d_list=(1,)).validate()
    ExperimentConfig().validate()
    # epsilon and eps_list entries must be normal floats
    tiny = np.finfo(float).tiny
    for bad in (dict(epsilon=tiny / 2), dict(eps_list=(1e-3, tiny / 2))):
        with pytest.raises(ConfigurationError, match="smallest normal float"):
            ExperimentConfig(**bad).validate()
    ExperimentConfig(epsilon=tiny, eps_list=(tiny,)).validate()


_POSITIVE = st.floats(1e-300, 1e300)
_COUNT = st.integers(1, 2 ** 31)
_MC_COUNT = st.integers(MIN_MC_SAMPLES, 2 ** 31)


@st.composite
def _configs(draw):
    return ExperimentConfig(
        d_list=tuple(draw(st.lists(st.integers(2, 2 ** 20), min_size=1, max_size=5))),
        eps_list=draw(st.none() | st.lists(_POSITIVE, min_size=1, max_size=4).map(tuple)),
        alpha=draw(_POSITIVE), p_u=draw(_POSITIVE), p_l=draw(_POSITIVE),
        epsilon=draw(_POSITIVE), m0_norm=draw(_POSITIVE), sigma_bar0=draw(_POSITIVE),
        replicates=draw(_COUNT), master_seed=draw(st.integers(0, 2 ** 64)),
        mc_samples=draw(_MC_COUNT),
        output_path=draw(st.none() | st.text("abc019._-/", min_size=1, max_size=20)),
        max_iter=draw(_COUNT), record_every=draw(_COUNT), workers=draw(_COUNT))


def _config_line(name, value):
    if isinstance(value, tuple):
        return f"{name} = {', '.join(repr(v) for v in value)}"
    return f"{name} = {value if isinstance(value, str) else repr(value)}"


@settings(max_examples=100, deadline=None, derandomize=True)
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
    rows = cmd_success_curve(config)
    header, raw, _ = _read_csv(out)
    assert header == ["rho", "d", "sigma_bar", "p_exact", "p_limit", "abs_gap"]
    # 64 step sizes from 1/8 to 8 for each of 2 rates and 8 dimensions
    assert len(raw) == len(rows) == 1024
    grid = [row[2] for row in rows[:64]]
    assert grid[0] == pytest.approx(0.125, rel=1e-15)
    assert grid[-1] == pytest.approx(8.0, rel=1e-15)
    assert all(row[2] == grid[k % 64] for k, row in enumerate(rows))
    for rho, d, sigma_bar, p_exact, p_limit, gap in rows:
        assert sigma_bar > 0.0
        assert 0.0 <= p_exact <= 1.0
        if rho == 0.0:
            assert 0.0 < p_exact < 0.5
            assert p_limit == pytest.approx(std_normal_cdf(-sigma_bar / 2.0))
        if d == 256:
            assert gap < 1e-2


def test_drift_map_rows(tmp_path):
    out = tmp_path / "dm.csv"
    config = ExperimentConfig(output_path=str(out), d_list=(5,), mc_samples=2000)
    rows = cmd_drift_map(config)
    header, raw, _ = _read_csv(out)
    assert header == ["d", "sigma_bar", "regime", "drift_mean", "ci_halfwidth",
                      "bound_B", "satisfied"]
    # 32 step sizes from ell / 100 to 100 u
    c = derive_constants(5)
    assert len(raw) == len(rows) == 32
    assert rows[0][1] == pytest.approx(c.ell / 100.0, rel=1e-14)
    assert rows[-1][1] == pytest.approx(100.0 * c.u, rel=1e-14)
    assert all(row[-1] for row in rows)
    bounds = {row[5] for row in rows}
    assert len(bounds) == 1 and bounds.pop() > 0.0


def test_hitting_scaling_report(tmp_path):
    out = tmp_path / "hs.csv"
    config = ExperimentConfig(output_path=str(out), d_list=(4, 8),
                              eps_list=(1e-2, 1e-3, 1e-4), replicates=10)
    reports = cmd_hitting_scaling(config)
    assert len(reports) == 6
    for report in reports:
        assert report.censored_runs == 0
        assert report.mean_T_lower == report.mean_T
        assert report.within_bounds
    _, _, comments = _read_csv(out)
    fit_lines = [c for c in comments if c.startswith("# fit")]
    assert len(fit_lines) == 2
    assert all("r_squared=" in line for line in fit_lines)


def test_hitting_scaling_fits_only_three_distinct_epsilons(tmp_path):
    # a fit through one repeated epsilon is singular: no line, and no warning
    out = tmp_path / "hs.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["hitting-scaling", "--d", "4", "--replicates", "3",
                     "--eps-list", "1e-2,1e-2,1e-2", "--out", str(out)])
    assert code == 0
    _, raw, comments = _read_csv(out)
    assert len(raw) == 3
    assert not [c for c in comments if c.startswith("# fit")]


def test_hitting_scaling_fit_is_nan_when_every_run_is_censored(tmp_path):
    cfg = tmp_path / "censored.cfg"
    cfg.write_text("max_iter = 5\n")
    out = tmp_path / "hs.csv"
    code = main(["hitting-scaling", "--config", str(cfg), "--eps-list",
                 "1e-2,1e-4,1e-6", "--d", "4", "--replicates", "3", "--out", str(out)])
    assert code == 0
    _, _, comments = _read_csv(out)
    assert "# fit d=4: slope=nan intercept=nan r_squared=nan" in comments


def test_hitting_scaling_partly_censored_cell_has_no_mean(tmp_path):
    # the d = 4 runs are replicates 0..9 sharing stream (seed, 2, 0), one
    # chain each for both epsilons; a budget of 260 censors exactly those
    # whose uncensored time to 1e-4 exceeds it, and a mean of the finished
    # runs alone would be biased low
    uncensored = [times[1] for times in hitting_times(
        [initial_state(4, 1.0, 2.0)] * 10, 1.5, [1e-2, 1e-4], 10 ** 7,
        [derive_stream(20180715, 2, 0)] * 10)]
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


def test_run_reaches_targets_below_norm_squared_underflow(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", "--d", "10", "--epsilon", "1e-300", "--out", str(out)]) == 0
    _, raw, _ = _read_csv(out)
    norm_m, sigma, sigma_bar = (float(v) for v in raw[-1][1:4])
    assert 0.0 < norm_m <= 1e-300
    assert sigma_bar == pytest.approx(10 * sigma / norm_m, rel=1e-12)


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
    rows = cmd_har_check(config)
    header, raw, _ = _read_csv(out)
    assert header == ["d", "mc_mean", "mc_ci_halfwidth", "quadrature", "bound",
                      "gap_sigmas", "passed"]
    assert [row[0] for row in rows] == [2, 4, 8, 16, 32, 64, 128]
    assert all(row[-1] for row in rows)


class CountingStream:
    """A real Generator that counts the normals drawn and records every
    gamma call as (shape, size)."""

    def __init__(self, rng):
        self._rng = rng
        self.normals = 0
        self.gamma_calls = []

    def standard_normal(self, size):
        self.normals += size
        return self._rng.standard_normal(size)

    def standard_gamma(self, shape, size):
        self.gamma_calls.append((shape, size))
        return self._rng.standard_gamma(shape, size)


def test_har_check_draws_z0_once_for_every_dimension(tmp_path, monkeypatch):
    # one stream, (seed, 3, 0), and one pool: n normals in all, and per
    # chunk one gamma increment per d, (d - d_prev) / 2 with d_prev = 1 first
    streams = []

    def counting_stream(*key):
        streams.append((key, CountingStream(derive_stream(*key))))
        return streams[-1][1]

    monkeypatch.setattr("es_drift.cli.derive_stream", counting_stream)
    n = 20_000
    cmd_har_check(ExperimentConfig(output_path=str(tmp_path / "har.csv"),
                                   mc_samples=n, master_seed=5))
    [(key, stream)] = streams
    assert key == (5, 3, 0)
    assert stream.normals == n
    ds = (2, 4, 8, 16, 32, 64, 128)
    assert [shape for shape, _ in stream.gamma_calls] == [
        (d - d_prev) / 2 for d_prev, d in zip((1, *ds), ds)]
    assert len({size for _, size in stream.gamma_calls}) == 1


def test_run_trace(tmp_path):
    out = tmp_path / "trace.csv"
    config = ExperimentConfig(output_path=str(out), d_list=(6,), epsilon=1e-3)
    summary = cmd_run(config)
    assert summary["hitting_time"] is not None
    header, raw, comments = _read_csv(out)
    assert header == ["t", "norm_m", "sigma", "sigma_bar", "success", "potential"]
    assert any(c.startswith("# hitting_time=") for c in comments)
    norms = [float(row[1]) for row in raw]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


# columns of one kind each, then columns mixing kinds
_CSV_COLUMNS = [
    [0.1, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 2.0],
    [np.float64(0.1), 1.5, np.float64(math.nan), 3.0, 1e-17, -2.5, 0.0, 7.0],
    [True, False, np.True_, np.False_, True, True, False, True],
    [0, -3, 10 ** 20, 7, 1, 2, 3, 4],
    ["small_sigma", "a", "", "b", "c", "d", "e", "f"],
    [np.int64(5), 2, 3.5, True, np.float32(0.1), "x", np.bool_(False), -1],
    [1, 2.0, 3, 4.0, 5, 6.0, 7, 8.0],
]


def test_write_csv_formats_every_value_as_format_does(tmp_path):
    # the writer formats a column at a time; every file must read as if
    # _format had been called on each value
    rows = list(zip(*_CSV_COLUMNS))
    names = [f"c{i}" for i in range(len(_CSV_COLUMNS))]
    out = tmp_path / "t.csv"
    _write_csv(out, names, rows, ["# done"])
    expected = ["# schema_version=1", ",".join(names),
                *(",".join(_format(v) for v in row) for row in rows), "# done"]
    assert out.read_text() == "\n".join(expected) + "\n"
    _write_csv(out, names, [])
    assert out.read_text() == "# schema_version=1\n" + ",".join(names) + "\n"


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


def test_main_configuration_error_names_inequality(tmp_path, capsys):
    code = main(["bounds", "--d", "16", "--alpha", "3.0",
                 "--out", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "u / ell >= alpha^(5/4)" in captured.err
    assert main(["hitting-scaling", "--alpha", "1.0",
                 "--out", str(tmp_path / "hs_alpha.csv")]) == 2
    assert "alpha > 1" in capsys.readouterr().err
    # a bad flag value exits like the same value in a config file
    cfg = tmp_path / "bad_eps.cfg"
    cfg.write_text("eps_list = abc\n")
    out = str(tmp_path / "hs.csv")
    assert main(["hitting-scaling", "--config", str(cfg), "--out", out]) == 2
    assert main(["hitting-scaling", "--eps-list", "abc", "--out", out]) == 2
    assert "--eps-list" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["har-check", "drift-map"])
def test_too_few_mc_samples_is_a_configuration_error(tmp_path, capsys, command):
    out = str(tmp_path / "out.csv")
    for n in (10, MIN_MC_SAMPLES - 1):
        assert main([command, "--d", "4", "--mc-samples", str(n), "--out", out]) == 2
        assert f"mc_samples must be at least {MIN_MC_SAMPLES}" in capsys.readouterr().err
    with pytest.raises(ConfigurationError):
        ExperimentConfig(mc_samples=MIN_MC_SAMPLES - 1).validate()
    ExperimentConfig(mc_samples=MIN_MC_SAMPLES).validate()


@pytest.mark.parametrize("args, config_text, message", [
    (["run", "--d", "10", "--epsilon", "5e-324"], None, "smallest normal float"),
    (["hitting-scaling", "--d", "4", "--eps-list", "1e-3,5e-324"], None,
     "smallest normal float"),
    (["run", "--d", "10", "--epsilon", "inf"], None,
     "epsilon must be finite and positive"),
    (["hitting-scaling", "--d", "4", "--eps-list", "1e-2,nan"], None,
     "eps_list entries must be finite and positive"),
    (["run", "--d", "10", "--sigma-bar0", "inf"], None,
     "sigma_bar0 must be finite and positive"),
    (["run", "--d", "10", "--m0-norm", "nan"], None,
     "m0_norm must be finite and positive"),
    (["bounds", "--d", "10"], "m0_norm = inf\n", "m0_norm must be finite and positive"),
], ids=["epsilon", "eps_list", "epsilon_inf", "eps_list_nan", "sigma_bar0_inf",
        "m0_norm_nan", "m0_norm_inf_in_config_file"])
def test_subnormal_epsilon_is_a_configuration_error(tmp_path, capsys, args,
                                                    config_text, message):
    # sigma * alpha^(-1/4) rounds back to sigma below the smallest normal
    # float, so the run would stall; a NaN or infinite start or target gives
    # a run that never moves, or bounds that are not finite
    if config_text is not None:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_text)
        args = [*args, "--config", str(cfg)]
    assert main([*args, "--out", str(tmp_path / "out.csv")]) == 2
    assert message in capsys.readouterr().err


def test_main_runtime_error(tmp_path, capsys):
    # unwritable output directory surfaces as a runtime failure
    code = main(["bounds", "--d", "8",
                 "--out", str(tmp_path / "missing_dir" / "x.json")])
    assert code == 1


def test_main_flag_overrides(tmp_path):
    out = tmp_path / "b.json"
    code = main(["bounds", "--d", "4", "--epsilon", "1e-4", "--seed", "9",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["epsilon"] == 1e-4
    assert [e["d"] for e in payload["instances"]] == [4]
