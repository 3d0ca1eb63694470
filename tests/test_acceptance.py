"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings. Every criterion uses fixed master seeds, so the suite is
deterministic.
"""

import math
import time

import numpy as np
import pytest

from es_drift import (drift_map, expected_log_progress_exact,
                      expected_log_progress_mc, first_hitting_time,
                      hitting_time_bounds, hitting_times, initial_state,
                      psucc_exact, psucc_limit, psucc_mc, simulate_jump_process,
                      truncate_series, upper_bound_thm1)
from es_drift.estimates import mean_estimate
from es_drift.streams import derive_stream

SEED = 20180715

def _report(number, name, passed, started, detail=""):
    elapsed = time.time() - started
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.1f}s){suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def _mean_hitting_time(d, epsilons, replicates, scope):
    """(mean, 99% half-width) of the hitting time to each epsilon, all
    first passages of one chain per replicate; the replicates share stream
    (SEED, scope, d), one column of its draw blocks each."""
    rngs = [derive_stream(SEED, scope, d)] * replicates
    runs = hitting_times([initial_state(d, 1.0, 2.0)] * replicates, 1.5,
                         epsilons, 10_000_000, rngs)
    estimates = []
    for times in zip(*runs):
        assert None not in times
        times = np.array(times, dtype=float)
        est = mean_estimate(float(times.sum()), float((times * times).sum()), replicates)
        estimates.append((est.mean, est.half_width))
    return estimates


def test_criterion_01_hitting_time_sandwich(constants_for):
    started = time.time()
    details = []
    passed = True
    for d in (4, 8, 16):
        ((mean, halfwidth),) = _mean_hitting_time(d, [1e-8], 100, scope=1)
        lower, upper = hitting_time_bounds(initial_state(d, 1.0, 2.0),
                                           constants_for(d), 1e-8)
        ok = lower <= mean - halfwidth and mean + halfwidth <= upper
        passed &= ok
        details.append(f"d={d}: {lower:.1f} <= {mean:.1f}+-{halfwidth:.1f} <= {upper:.0f}")
    _report(1, "hitting-time sandwich", passed, started, "; ".join(details))


def test_criterion_02_linear_convergence():
    started = time.time()
    eps_values = (1e-2, 1e-4, 1e-6, 1e-8)
    means = [mean for mean, _ in _mean_hitting_time(10, eps_values, 100, scope=2)]
    x = np.log(1.0 / np.array(eps_values))
    slope, intercept = np.polyfit(x, means, 1)
    residuals = np.array(means) - (slope * x + intercept)
    r_squared = 1.0 - float((residuals ** 2).sum()) / float(
        ((means - np.mean(means)) ** 2).sum())
    _report(2, "linear convergence in log(1/eps)", r_squared > 0.99, started,
            f"r_squared={r_squared:.6f}, slope={slope:.1f}")


def test_criterion_03_dimension_rate():
    started = time.time()
    ratios = {d: _mean_hitting_time(d, [1e-6], 100, scope=3)[0][0] / d
              for d in (4, 8, 16, 32, 64)}
    spread = max(ratios.values()) / min(ratios.values())
    _report(3, "bounded T/d across dimensions", spread < 3.0, started,
            f"max/min={spread:.3f}")


def test_criterion_04_drift_bound_on_grid(constants_for):
    started = time.time()
    passed = True
    worst = math.inf
    for d_index, d in enumerate((5, 10)):
        constants = constants_for(d)
        grid = np.exp(np.linspace(math.log(constants.ell / 100.0),
                                  math.log(100.0 * constants.u), 32))
        rng = derive_stream(SEED, 4, d_index)
        rows = drift_map(constants, grid, 1_000_000, rng)
        passed &= all(row.satisfied for row in rows)
        worst = min(worst, min(-constants.B - (row.drift_mean + row.ci_halfwidth)
                               for row in rows))
    _report(4, "truncated drift <= -B on the full grid", passed, started,
            f"worst margin={worst:.2e}")


def test_criterion_05_scaling_of_the_bound(constants_for):
    started = time.time()
    dims = (2, 4, 8, 16, 32, 64, 128)
    all_constants = [constants_for(d) for d in dims]
    positive = all(c.B > 0.0 for c in all_constants)
    enveloped = all(c.L <= c.B <= c.U for c in all_constants)
    scaled = {c.d: c.d * c.B for c in all_constants if c.d >= 8}
    spread = max(scaled.values()) / min(scaled.values())
    _report(5, "B > 0 with d*B in a fixed band", positive and enveloped
            and spread < 3.0, started,
            f"spread over d>=8: {spread:.3f}, all L<=B<=U: {enveloped}")


def test_criterion_06_success_curves():
    started = time.time()
    grid = np.exp(np.linspace(math.log(0.125), math.log(8.0), 64))
    monotone = True
    in_image = True
    for d in (2, 16, 256):
        values = [psucc_exact(d, 0.0, float(s)) for s in grid]
        monotone &= all(a > b for a, b in zip(values, values[1:]))
        in_image &= all(0.0 < v < 0.5 for v in values)
    worst_gap = 0.0
    for rho in (0.0, 1.0):
        gap = max(abs(psucc_exact(256, rho / 256, float(s))
                      - psucc_limit(rho, float(s))) for s in grid)
        worst_gap = max(worst_gap, gap)
    _report(6, "success curve monotone and near its limit",
            monotone and in_image and worst_gap < 1e-2, started,
            f"monotone={monotone}, image ok={in_image}, worst gap={worst_gap:.2e}")


def test_criterion_07_line_search_ceiling():
    started = time.time()
    exact_ok = all(expected_log_progress_exact(d) <= 1.0 / d
                   for d in range(2, 257))
    planar = expected_log_progress_exact(2)
    planar_ok = abs(planar - math.log(2.0) / 2.0) <= 1e-6
    mc_ok = True
    gaps = []
    for i, d in enumerate((2, 8, 64)):
        (est,) = expected_log_progress_mc([d], 1_000_000, derive_stream(SEED, 7, i))
        gap = abs(est.mean - expected_log_progress_exact(d)) / est.std_error
        gaps.append(gap)
        mc_ok &= gap < 4.0
    _report(7, "log-progress ceiling 1/d", exact_ok and planar_ok and mc_ok,
            started, f"d=2 value={planar:.8f}, mc gaps sigma={max(gaps):.2f}")


def test_criterion_08_rare_jump_counterexample():
    started = time.time()
    rng = derive_stream(SEED, 8)
    times = np.array([simulate_jump_process(0.01, 10.0, 0.0, rng)
                      for _ in range(10_000)], dtype=float)
    mean = float(times.mean())
    naive_prediction = 10.0  # (x0 - beta) / |untruncated drift|
    bound = upper_bound_thm1(10.0, 0.0, A=1.0, B=0.01)  # truncated drift -p
    ok = 90.0 <= mean <= 110.0 and mean > naive_prediction and mean <= bound
    _report(8, "rare-jump process beats naive drift prediction", ok, started,
            f"mean={mean:.1f}, naive={naive_prediction}, truncated bound={bound:.0f}")


def test_criterion_09_truncation_property_suite():
    started = time.time()
    rng = derive_stream(SEED, 9)
    count = 10_000
    ok = True
    for _ in range(count):
        length = int(rng.integers(2, 40))
        steps = rng.normal(-0.1, 1.0, size=length)
        spikes = rng.random(size=length) < 0.05
        steps = np.where(spikes, steps - rng.exponential(15.0, size=length), steps)
        xs = np.concatenate(([rng.normal() * 5.0], np.zeros(length)))
        xs[1:] = xs[0] + np.cumsum(steps)
        a_cut = float(rng.uniform(0.1, 4.0))
        ts = truncate_series(xs, a_cut)
        ok &= ts.ys[0] == xs[0]
        ok &= bool(np.all(np.diff(ts.ys) >= -a_cut - 1e-12))
        ok &= bool(np.all(ts.xs <= ts.ys + 1e-12))
        beta = float(rng.uniform(xs.min() - 1.0, xs.max() + 1.0))
        t_x = first_hitting_time(ts.xs, beta)
        t_y = first_hitting_time(ts.ys, beta)
        if t_y is not None:
            ok &= t_x is not None and t_x <= t_y
        if not ok:
            break
    _report(9, "truncated-series invariants on random walks", ok, started,
            f"{count} series")


def test_criterion_10_mc_vs_exact_oracle_equivalence():
    started = time.time()
    rng = derive_stream(SEED, 10)
    worst = 0.0
    ok = True
    for _ in range(50):
        d = int(rng.integers(2, 65))
        rho = float(rng.uniform(0.0, 2.0))
        sigma_bar = float(np.exp(rng.uniform(math.log(0.25), math.log(4.0))))
        exact = psucc_exact(d, rho / d, sigma_bar)
        est = psucc_mc(d, rho / d, sigma_bar, 1_000_000, rng)
        # combine the binomial error (floored by the exact value, in case
        # the empirical count is zero) with the exact value's tolerance
        se = max(est.std_error,
                 math.sqrt(exact * (1.0 - exact) / est.n_samples))
        margin = abs(est.value - exact) / (se + 1e-9)
        worst = max(worst, margin)
        ok &= margin <= 4.0
    _report(10, "Monte Carlo vs exact oracle equivalence", ok, started,
            f"worst deviation={worst:.2f} combined std errors")
