import functools
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import mpmath
import numpy as np
import pytest

import es_drift
from es_drift import (LOG_PROGRESS_CAP, Z99, MeanEstimate, expected_log_progress_exact,
                      expected_log_progress_mc)
from reference import HarSample, har_step, optimal_gamma, sample_angle

HALF_LOG_TWO = math.log(2.0) / 2.0


def _one_d(d, n, rng):
    """expected_log_progress_mc of the one dimension d, as a MeanEstimate of floats."""
    est = expected_log_progress_mc([d], n, rng)
    return MeanEstimate(est.mean.item(), est.half_width.item(), est.n)


class FixedDraw:
    def __init__(self, vector):
        self._vector = np.asarray(vector, dtype=float)

    def standard_normal(self, size):
        assert self._vector.size == size
        return self._vector.copy()


# ---------------------------------------------------------------------------
# line minimizer
# ---------------------------------------------------------------------------

def test_optimal_gamma_perpendicular():
    assert optimal_gamma([1.0, 0.0], [0.0, 2.0]) == 0.0


def test_optimal_gamma_collinear_hits_origin():
    gamma = optimal_gamma([1.0, 0.0], [-1.0, 0.0])
    assert gamma == 1.0


def test_optimal_gamma_brute_force_minimality(rng_for):
    rng = rng_for(0)
    for _ in range(20):
        m = rng.standard_normal(6)
        delta = rng.standard_normal(6)
        gamma = optimal_gamma(m, delta)
        best = np.linalg.norm(m + gamma * delta)
        for g in rng.uniform(-5.0, 5.0, size=100):
            assert best <= np.linalg.norm(m + g * delta) + 1e-12


def test_optimal_gamma_degenerate_direction():
    with pytest.raises(ValueError):
        optimal_gamma([1.0, 0.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# single oracle step
# ---------------------------------------------------------------------------

def test_har_step_dominates_es_progress_with_shared_draw(rng_for):
    rng = rng_for(1)
    m = np.array([1.0, 0.0, 0.0, 0.0])
    sigma = 0.4
    for _ in range(2000):
        delta = sigma * rng.standard_normal(4)
        _, har_lp = har_step(m, sigma, FixedDraw(delta / sigma))
        cand = m + delta
        es_lp = max(0.0, math.log(np.linalg.norm(m)) - math.log(np.linalg.norm(cand))) \
            if np.linalg.norm(cand) <= np.linalg.norm(m) else 0.0
        assert har_lp >= es_lp - 1e-12


def test_har_step_norm_is_sine_of_angle(rng_for):
    rng = rng_for(2)
    for _ in range(200):
        m = rng.standard_normal(5)
        delta = rng.standard_normal(5)
        x_star = np.asarray(m) + optimal_gamma(m, delta) * np.asarray(delta)
        cos = float(m @ delta) / (np.linalg.norm(m) * np.linalg.norm(delta))
        sin = math.sqrt(max(1.0 - cos * cos, 0.0))
        assert np.linalg.norm(x_star) == pytest.approx(np.linalg.norm(m) * sin,
                                                       abs=1e-9)


def test_har_step_progress_non_negative(rng_for):
    rng = rng_for(3)
    m = np.array([0.3, -0.2, 0.9])
    for _ in range(500):
        _, lp = har_step(m, 1.3, rng)
        assert lp >= 0.0


def test_har_step_collinear_hit_is_capped():
    _, lp = har_step(np.array([1.0, 0.0]), 1.0, FixedDraw([-1.0, 0.0]))
    assert lp == LOG_PROGRESS_CAP


# ---------------------------------------------------------------------------
# angle samples
# ---------------------------------------------------------------------------

def test_har_sample_obtuse_angles_carry_no_progress():
    assert HarSample.from_theta(3.0).log_progress == 0.0
    assert HarSample.from_theta(math.pi / 2).log_progress == pytest.approx(0.0)
    assert HarSample.from_theta(0.0).log_progress == LOG_PROGRESS_CAP
    assert HarSample.from_theta(math.pi / 6).log_progress == pytest.approx(math.log(2.0))


def test_sample_angle_agrees_with_kernel_statistic(rng_for):
    # the kernel draws (z0, chi2) where sample_angle draws a d-vector, so
    # the two means agree within 4 combined standard errors
    n = 20_000
    rng = rng_for(4)
    manual = np.array([sample_angle(3, rng).log_progress for _ in range(n)])
    manual_se = float(manual.std(ddof=1)) / math.sqrt(n)
    est = _one_d(3, n, rng_for(4, 1))
    gap = abs(float(manual.mean()) - est.mean)
    assert gap <= 4.0 * math.hypot(manual_se, est.std_error)


# ---------------------------------------------------------------------------
# expectation: Monte Carlo and closed form
# ---------------------------------------------------------------------------

def test_mc_matches_planar_closed_form(rng_for):
    est = _one_d(2, 1_000_000, rng_for(5))
    assert abs(est.mean - HALF_LOG_TWO) <= 1.5 * est.half_width
    assert est.mean - est.half_width <= 0.5


def test_mc_respects_inverse_dimension_bound(rng_for):
    for i, d in enumerate((2, 4, 8, 16, 32, 64)):
        est = _one_d(d, 100_000, rng_for(6, i))
        assert est.mean - est.half_width <= 1.0 / d


def test_exact_log_progress_rejects_a_dimension_below_two_or_nan():
    for bad in (1, 0, -4, math.nan):
        with pytest.raises(ValueError, match="dimension must be at least 2"):
            expected_log_progress_exact(bad)


def test_mc_rejects_bad_inputs(rng_for):
    with pytest.raises(ValueError):
        expected_log_progress_mc([1], 10_000, rng_for(7))
    with pytest.raises(ValueError):
        expected_log_progress_mc([4], 10, rng_for(7))


@pytest.mark.parametrize("ds", [(2, 8, 64), (8, 9, 128)])
def test_pooled_first_row_equals_the_single_dimension_call(rng_for, ds):
    pooled = expected_log_progress_mc(ds, 30_000, rng_for(10, ds[0]))
    assert pooled.mean.shape == pooled.half_width.shape == (len(ds),)
    single = expected_log_progress_mc([ds[0]], 30_000, rng_for(10, ds[0]))
    assert pooled.mean[0] == single.mean.item()
    assert pooled.half_width[0] == single.half_width.item()


def test_pooled_rows_match_closed_form(rng_for):
    # the rows share z0 and nest chi2, but each keeps its own law
    ds = (2, 4, 8, 16, 32, 64, 128)
    est = expected_log_progress_mc(ds, 200_000, rng_for(11))
    for d, mean, std_error in zip(ds, est.mean, est.std_error):
        assert abs(mean - expected_log_progress_exact(d)) <= 4.0 * std_error


def test_pooled_mc_warns_once_for_each_dimension_with_capped_draws(monkeypatch):
    sums = (np.full(3, 10.0), np.full(3, 200.0), np.array([0, 2, 0]))
    monkeypatch.setattr(es_drift.kernels, "har_log_progress_pool_sums",
                        lambda ds, n, rng: sums)
    with pytest.warns(UserWarning) as caught:
        est = expected_log_progress_mc((2, 8, 64), 1000, None)
    assert [str(w.message) for w in caught] == [
        f"2 collinear draws capped at {LOG_PROGRESS_CAP} in dimension 8"]
    assert est.mean.tolist() == [0.01] * 3


@pytest.mark.parametrize("ds", [(4, 4), (8, 4), (2, 16, 8), (1, 4), (), [0]])
def test_pooled_mc_rejects_bad_dimension_lists(rng_for, ds):
    with pytest.raises(ValueError):
        expected_log_progress_mc(ds, 10_000, rng_for(7))


def test_quadrature_planar_closed_form():
    assert expected_log_progress_exact(2) == pytest.approx(HALF_LOG_TWO, abs=1e-15)


def test_quadrature_three_dimensional_closed_form():
    # integral of -log(sin)*sin over [0, pi/2] equals 1 - log(2)
    assert expected_log_progress_exact(3) == pytest.approx(
        (1.0 - math.log(2.0)) / 2.0, abs=1e-15)


def _log_progress_mpmath(d):
    """The acute-angle expectation as a 40-digit quadrature over the angle
    density sin^(d-2) / (2 W_{d-2}), W the Wallis integral."""
    with mpmath.workdps(40):
        # the density concentrates within a few 1/sqrt(d) of pi/2
        half_pi = mpmath.pi / 2
        width = 1 / mpmath.sqrt(d)
        points = [0] + [half_pi - k * width for k in (16, 4, 1) if k * width < half_pi]
        points.append(half_pi)
        wallis = mpmath.quad(lambda t: mpmath.sin(t) ** (d - 2), points)
        value = mpmath.quad(lambda t: -mpmath.log(mpmath.sin(t)) * mpmath.sin(t) ** (d - 2),
                            points)
        return float(value / (2 * wallis))


@pytest.mark.parametrize("d", [2, 3, 10, 128, 4096])
def test_exact_log_progress_matches_mpmath_quadrature(d):
    assert abs(expected_log_progress_exact(d) - _log_progress_mpmath(d)) <= 1e-14


def test_exact_log_progress_rejects_dimension_one():
    with pytest.raises(ValueError):
        expected_log_progress_exact(1)


@functools.cache
def _modules_after_cli_import() -> frozenset:
    """sys.modules after ``import es_drift.cli`` in one fresh interpreter,
    since other test modules import what these tests look for."""
    src = str(Path(es_drift.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, es_drift.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return frozenset(out.stdout.split())


def _loaded_by_cli_import(modules):
    """Those of ``modules`` that ``import es_drift.cli`` loads."""
    return [m for m in modules if m in _modules_after_cli_import()]


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.optimize", "scipy.linalg",
                                    "scipy.stats"])
def test_import_leaves_out_scipy_module(module):
    assert _loaded_by_cli_import([module]) == []


def test_import_leaves_out_statistics_and_the_exact_number_modules():
    # Z99 is a literal, so nothing loads statistics and, with it, fractions
    # and decimal
    assert _loaded_by_cli_import(["statistics", "_statistics", "fractions", "decimal",
                                  "_decimal"]) == []


def test_z99_is_the_two_sided_99_percent_normal_quantile_to_the_bit():
    assert Z99 == NormalDist().inv_cdf(0.995)


def test_quadrature_agrees_with_mc(rng_for):
    for i, d in enumerate((2, 8, 32)):
        est = _one_d(d, 200_000, rng_for(8, i))
        exact = expected_log_progress_exact(d)
        assert abs(est.mean - exact) <= 4.0 * est.std_error


def test_es_step_log_progress_bounded_by_inverse_dimension(rng_for):
    # the oracle dominance transfers the 1/d ceiling to the strategy itself
    d, n = 8, 200_000
    rng = rng_for(9)
    for sigma_bar in (0.5, 1.5, 2.5, 5.0):
        sigma = sigma_bar / d
        z = rng.standard_normal((n, d))
        cand_sq = (1.0 + sigma * z[:, 0]) ** 2 + sigma * sigma * (z[:, 1:] ** 2).sum(axis=1)
        progress = np.where(cand_sq <= 1.0, -0.5 * np.log(cand_sq), 0.0)
        mean = float(progress.mean())
        se = float(progress.std(ddof=1)) / math.sqrt(n)
        assert mean - 3.0 * se <= 1.0 / d


def test_quadrature_bound_and_scaling_trend():
    values = {d: expected_log_progress_exact(d) for d in (2, 4, 16, 64, 256)}
    for d, value in values.items():
        assert value <= 1.0 / (2 * (d - 1)) <= 1.0 / d
    scaled = [d * values[d] for d in (2, 4, 16, 64, 256)]
    assert all(a >= b for a, b in zip(scaled, scaled[1:]))
    assert scaled[-1] <= 1.0
