import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom

from es_drift import lower_bound_thm2, upper_bound_thm1
from reference import first_hitting_time, simulate_jump_process, truncate_series


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_truncate_series_inactive():
    ts = truncate_series([5.0, 4.0, 3.0], A=10.0)
    np.testing.assert_allclose(ts.ys, [5.0, 4.0, 3.0])


def test_truncate_series_single_cut():
    ts = truncate_series([5.0, -100.0], A=1.0)
    np.testing.assert_allclose(ts.ys, [5.0, 4.0])


def test_truncate_series_validation():
    with pytest.raises(ValueError):
        truncate_series([], A=1.0)
    with pytest.raises(ValueError):
        truncate_series([1.0, 2.0], A=0.0)


def _random_walks(rng, count, length):
    # heavy-tailed downward jumps mixed into a drifting walk
    steps = rng.normal(-0.1, 1.0, size=(count, length))
    jumps = rng.random(size=steps.shape) < 0.05
    steps = np.where(jumps, steps - rng.exponential(20.0, size=steps.shape), steps)
    return np.cumsum(np.concatenate([np.zeros((count, 1)), steps], axis=1), axis=1)


def test_truncated_series_invariants_on_random_walks(rng_for):
    rng = rng_for(0)
    for xs in _random_walks(rng, 200, 30):
        a_cut = float(rng.uniform(0.2, 5.0))
        ts = truncate_series(xs, a_cut)
        assert ts.ys[0] == xs[0]
        np.testing.assert_allclose(np.diff(ts.ys),
                                   np.maximum(np.diff(xs), -a_cut), atol=1e-12)
        assert np.all(xs <= ts.ys + 1e-12)
        assert np.all(np.diff(ts.ys) >= -a_cut - 1e-12)


@settings(max_examples=200)
@given(xs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
       depths=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2))
def test_truncate_series_invariants(xs, depths):
    a1, a2 = sorted(depths)
    ts = truncate_series(xs, a1)
    atol = 1e-8  # cumulative-sum rounding on values up to 50 * 2e3
    assert ts.ys.shape == ts.xs.shape and ts.A == a1
    assert ts.ys[0] == xs[0]
    # each step is the original one cut at -A, so never below -A ...
    np.testing.assert_allclose(np.diff(ts.ys), np.maximum(np.diff(ts.xs), -a1),
                               rtol=0.0, atol=atol)
    # ... the truncated series dominates the original ...
    assert np.all(ts.xs <= ts.ys + atol)
    # ... and a deeper cut allows smaller values
    assert np.all(truncate_series(xs, a2).ys <= ts.ys + atol)


def test_truncation_monotone_in_depth(rng_for):
    rng = rng_for(1)
    for xs in _random_walks(rng, 100, 25):
        a1, a2 = sorted(rng.uniform(0.2, 5.0, size=2))
        ys1 = truncate_series(xs, float(a1)).ys
        ys2 = truncate_series(xs, float(a2)).ys
        # deeper allowed cuts mean smaller truncated values
        assert np.all(ys2 <= ys1 + 1e-12)


# ---------------------------------------------------------------------------
# hitting times
# ---------------------------------------------------------------------------

def test_first_hitting_time_examples():
    assert first_hitting_time([5.0, 4.0, 3.0], 4.0) == 1
    assert first_hitting_time([5.0, 4.0, 3.0], -1.0) is None
    assert first_hitting_time([0.0], 0.0) == 0


def test_hitting_time_ordering_under_truncation(rng_for):
    rng = rng_for(2)
    for xs in _random_walks(rng, 200, 40):
        ts = truncate_series(xs, float(rng.uniform(0.2, 3.0)))
        beta = float(rng.uniform(xs.min() - 1.0, xs.max()))
        t_y = first_hitting_time(ts.ys, beta)
        t_x = first_hitting_time(ts.xs, beta)
        if t_y is not None:
            assert t_x is not None and t_x <= t_y


# ---------------------------------------------------------------------------
# bound calculators
# ---------------------------------------------------------------------------

def test_upper_bound_arithmetic():
    assert upper_bound_thm1(10.0, 0.0, A=1.0, B=0.5) == pytest.approx(22.0)
    assert upper_bound_thm1(1.0 + 1e-12, 1.0, A=1.0, B=0.5) == pytest.approx(2.0, rel=1e-3)
    assert upper_bound_thm1(1.0, 5.0, A=1.0, B=0.5) == 0.0
    with pytest.raises(ValueError):
        upper_bound_thm1(10.0, 0.0, A=0.0, B=0.5)
    with pytest.raises(ValueError):
        upper_bound_thm1(10.0, 0.0, A=1.0, B=-1.0)


def test_upper_bound_dominates_additive_walk(rng_for):
    # drift exactly -1, noise too small for the truncation to bite
    rng = rng_for(3)
    x0, beta, a_cut = 10.0, 0.0, 2.0
    hits = []
    for _ in range(10_000):
        x, t = x0, 0
        while x > beta:
            x += -1.0 + rng.uniform(-0.5, 0.5)
            t += 1
        hits.append(t)
    assert np.mean(hits) <= upper_bound_thm1(x0, beta, a_cut, 1.0)


def test_lower_bound_arithmetic():
    assert lower_bound_thm2(10.0, 0.0, C=1.0) == pytest.approx(2.0)
    assert lower_bound_thm2(1.0, 1.0, C=1.0) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        lower_bound_thm2(10.0, 0.0, C=0.0)


def test_lower_bound_vs_deterministic_descent():
    x0, beta, c = 10.0, 0.0, 0.7
    true_time = math.ceil((x0 - beta) / c)
    assert true_time >= lower_bound_thm2(x0, beta, c)


# ---------------------------------------------------------------------------
# the rare-jump counterexample
# ---------------------------------------------------------------------------

def test_jump_process_mean_is_geometric_not_drift(rng_for):
    rng = rng_for(4)
    times = [simulate_jump_process(0.01, 10.0, 0.0, rng) for _ in range(10_000)]
    assert all(t is not None for t in times)
    mean = np.mean(times)
    # geometric with success probability p: mean 1/p, far above the
    # naive untruncated-drift prediction (x0 - beta)/1 = 10
    assert 90.0 <= mean <= 110.0
    assert mean > 5.0 * 10.0


def test_jump_process_sums_geometric_waits(rng_for):
    # jumps of 1/p = 4 take x0 = 10 to 0 in k = 3 jumps, each after a
    # geometric wait: T = k + NegBin(k, p), mean k/p, variance k(1-p)/p^2
    p, k, n = 0.25, 3, 20_000
    rng = rng_for(9)
    times = np.array([simulate_jump_process(p, 10.0, 0.0, rng) for _ in range(n)],
                     dtype=float)
    assert times.min() >= k
    se = math.sqrt(k * (1.0 - p) / p ** 2 / n)
    assert abs(times.mean() - k / p) <= 4.0 * se
    # at a horizon of 8 steps the censored share is Pr(T > 8)
    horizon = 8
    censored = [simulate_jump_process(p, 10.0, 0.0, rng, max_horizon=horizon) is None
                for _ in range(n)]
    expected = float(nbinom.sf(horizon - k, k, p))
    assert abs(np.mean(censored) - expected) <= 4.0 * math.sqrt(expected * (1 - expected) / n)


def test_jump_process_deterministic_when_certain(rng_for):
    assert simulate_jump_process(1.0, 0.5, -0.5, rng_for(5)) == 1
    assert simulate_jump_process(1.0, -1.0, 0.0, rng_for(5)) == 0


def test_jump_process_truncated_drift_bound_consistent(rng_for):
    # truncated drift at depth 1 is exactly -p, so the calculator bound is
    # (x0 - beta + 1)/p; the empirical mean must respect it
    p, x0, beta = 0.01, 10.0, 0.0
    rng = rng_for(6)
    times = [simulate_jump_process(p, x0, beta, rng) for _ in range(5_000)]
    assert np.mean(times) <= upper_bound_thm1(x0, beta, 1.0, p)


def test_jump_process_censoring(rng_for):
    assert simulate_jump_process(0.01, 10.0, 0.0, rng_for(7), max_horizon=1) is None
    # more jumps needed than the horizon has steps: censored without drawing
    assert simulate_jump_process(0.5, 1e30, 0.0, rng_for(7), max_horizon=100) is None
    assert simulate_jump_process(0.5, 10.0, -math.inf, rng_for(7), max_horizon=100) is None


def test_jump_process_validation(rng_for):
    with pytest.raises(ValueError):
        simulate_jump_process(0.0, 10.0, 0.0, rng_for(8))
