import math
from statistics import NormalDist

import numpy as np
import pytest

from es_drift import (ConfigurationError, ESState, SuccessProbQuery,
                      derive_constants, drift_map, estimate_truncated_drift,
                      hitting_time_bounds, initial_state,
                      minimize_psucc_over_band, potential, psucc_exact,
                      psucc_limit, psucc_mc, truncated_delta)
from es_drift.potential import Regime
from es_drift.success import psucc_exact_many

ND = NormalDist()
LOG_ALPHA = math.log(1.5)


# ---------------------------------------------------------------------------
# constant pipeline
# ---------------------------------------------------------------------------

def test_derive_constants_default_invariants(constants_for):
    c = constants_for(10)
    assert 0.0 < c.p_u < 0.2 < c.p_l < 0.5
    assert c.u / c.ell >= 1.5 ** 1.25
    assert 0.0 < c.v < min(1.0, c.A / LOG_ALPHA)
    assert c.A == pytest.approx(0.1)
    assert c.B > 0.0
    assert c.L <= c.B <= c.U
    assert c.r <= c.r_prime
    assert c.p_prime <= c.p_star


def test_derive_constants_band_ends_invert_the_probabilities(constants_for):
    c = constants_for(10)
    assert psucc_exact(SuccessProbQuery(10, 0.0, c.ell)) == pytest.approx(0.3, abs=1e-8)
    assert psucc_exact(SuccessProbQuery(10, 0.0, c.u)) == pytest.approx(0.1, abs=1e-8)


def test_derive_constants_minima_cross_checked_by_mc(constants_for, rng_for):
    c = constants_for(10)
    grid = np.exp(np.linspace(math.log(c.ell), math.log(c.u), 256))
    for rate, target in ((c.r_prime, c.p_prime), (c.r, c.p_star)):
        argmin = float(grid[np.argmin(psucc_exact_many(10, rate, grid))])
        est = psucc_mc(SuccessProbQuery(10, rate, argmin), 300_000, rng_for(0))
        assert abs(est.value - target) <= 4.0 * est.std_error + 1e-6


def test_derive_constants_rejects_oversized_alpha():
    with pytest.raises(ConfigurationError, match="u / ell"):
        derive_constants(64, alpha=3.0)


def test_derive_constants_rejects_bad_probabilities():
    with pytest.raises(ConfigurationError, match="p_u"):
        derive_constants(8, p_u=0.25, p_l=0.3)
    with pytest.raises(ConfigurationError, match="alpha > 1"):
        derive_constants(8, alpha=0.9)


def test_derive_constants_small_dimension_edge(constants_for):
    # d * log(alpha) < 1 here; the generalized pre-estimate keeps B positive
    c = constants_for(2)
    assert c.B > 0.0
    assert c.L <= c.B <= c.U
    assert c.r <= c.r_prime < 1.0


def test_scaled_bound_stays_within_a_constant_band(constants_for):
    # positivity holds from d=2 up; the tight band only from d=8 on
    assert all(constants_for(d).B > 0.0 for d in (2, 4, 8, 16, 64))
    values = [d * constants_for(d).B for d in (8, 16, 64)]
    assert max(values) / min(values) < 3.0


# ---------------------------------------------------------------------------
# band minimization
# ---------------------------------------------------------------------------

def test_minimize_rate_zero_attained_at_upper_end(constants_for):
    c = constants_for(16)
    result = minimize_psucc_over_band(16, 0.0, c.ell, c.u)
    assert result == pytest.approx(psucc_exact(SuccessProbQuery(16, 0.0, c.u)),
                                   abs=1e-6)


def test_minimize_never_above_grid_values(constants_for):
    c = constants_for(8)
    result = minimize_psucc_over_band(8, c.r, c.ell, c.u)
    for s in np.exp(np.linspace(math.log(c.ell), math.log(c.u), 64)):
        assert result <= psucc_exact(SuccessProbQuery(8, c.r, float(s))) + 1e-9


def test_minimize_large_d_unimodal_limit_endpoints():
    # peak of the limit curve sits at sqrt(2), inside the band, so the
    # minimum lands on an endpoint
    d = 512
    ell = -2.0 * ND.inv_cdf(0.3)
    u = -2.0 * ND.inv_cdf(0.1)
    result = minimize_psucc_over_band(d, 1.0 / d, ell, u)
    expected = min(psucc_limit(1.0, ell), psucc_limit(1.0, u))
    assert result == pytest.approx(expected, abs=5e-3)


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_potential_zero_inside_neutral_band(constants_for):
    c = constants_for(10)
    lo, hi = c.neutral_band()
    assert lo == pytest.approx(1.5 * c.ell)
    assert lo < 2.0 < hi
    state = initial_state(10, 1.0, 2.0)
    assert potential(state, c) == 0.0


def test_potential_equals_log_norm_at_band_edge(constants_for):
    c = constants_for(10)
    norm = 1.7
    state = ESState(m=[norm] + [0.0] * 9, sigma=1.5 * c.ell * norm / 10)
    assert potential(state, c) == pytest.approx(math.log(norm), abs=1e-12)


def test_potential_penalty_active_exactly_outside_band(constants_for):
    c = constants_for(10)
    lo, hi = c.neutral_band()
    for sigma_bar in (lo * 1.0001, math.sqrt(lo * hi), hi * 0.9999):
        state = initial_state(10, 2.0, sigma_bar)
        assert potential(state, c) - math.log(2.0) == pytest.approx(0.0, abs=1e-12)
    for sigma_bar in (lo * 0.99, hi * 1.01):
        state = initial_state(10, 2.0, sigma_bar)
        assert potential(state, c) - math.log(2.0) > 1e-7


def test_potential_dominates_log_norm(constants_for, rng_for):
    c = constants_for(10)
    rng = rng_for(1)
    for _ in range(100):
        norm = float(np.exp(rng.uniform(-5, 3)))
        sigma_bar = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        state = initial_state(10, norm, sigma_bar)
        assert potential(state, c) >= math.log(norm) - 1e-12


def test_potential_pole_at_optimum(constants_for):
    c = constants_for(4)
    with pytest.raises(ValueError):
        c.potential_of(0.0, 1.0)


# ---------------------------------------------------------------------------
# truncated increments
# ---------------------------------------------------------------------------

def test_truncated_delta_cases():
    assert truncated_delta(0.0, -5.0, 1.0) == -1.0
    assert truncated_delta(0.0, 0.3, 1.0) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        truncated_delta(0.0, 0.0, 0.0)


def test_truncated_delta_never_below_cut(rng_for):
    rng = rng_for(2)
    for _ in range(1000):
        v_now, v_next = rng.normal(size=2) * 10.0
        a_cut = float(rng.uniform(0.1, 5.0))
        assert truncated_delta(v_now, v_next, a_cut) >= -a_cut


# ---------------------------------------------------------------------------
# drift estimation
# ---------------------------------------------------------------------------

def test_drift_reasonable_state_beats_bound(constants_for, rng_for):
    c = constants_for(10)
    est = estimate_truncated_drift(initial_state(10, 1.0, 2.0), c, 200_000,
                                   rng_for(3))
    assert est.mean + est.half_width <= -c.B


def test_drift_small_regime_closed_form(constants_for, rng_for):
    c = constants_for(10)
    sigma_bar = c.ell / 10.0
    est = estimate_truncated_drift(initial_state(10, 1.0, sigma_bar), c,
                                   200_000, rng_for(4))
    case_bound = -c.v * LOG_ALPHA * (5.0 * c.p_l - 1.0) / 4.0
    assert est.mean <= case_bound + est.half_width
    # deep in the regime the drift approaches the success-split closed form
    deep = c.ell / 1000.0
    est_deep = estimate_truncated_drift(initial_state(10, 1.0, deep), c,
                                        200_000, rng_for(5))
    p_here = psucc_exact(SuccessProbQuery(10, 0.0, deep))
    closed = -c.v * LOG_ALPHA * (5.0 * p_here - 1.0) / 4.0
    assert est_deep.mean == pytest.approx(closed, rel=0.15, abs=3 * est_deep.half_width)


def test_drift_large_regime_closed_form(constants_for, rng_for):
    c = constants_for(10)
    est = estimate_truncated_drift(initial_state(10, 1.0, 10.0 * c.u), c,
                                   200_000, rng_for(6))
    case_bound = -c.v * LOG_ALPHA * (1.0 - 5.0 * c.p_u) / 4.0
    assert est.mean <= case_bound + est.half_width


def test_drift_requires_enough_samples(constants_for, rng_for):
    with pytest.raises(ValueError):
        estimate_truncated_drift(initial_state(10, 1.0, 2.0), constants_for(10),
                                 999, rng_for(7))


def test_drift_map_rows_and_regime_boundaries(constants_for, rng_for):
    c = constants_for(10)
    mid = math.sqrt(c.ell * c.u)
    grid = [0.5 * c.ell, c.ell, mid, c.u, 2.0 * c.u]
    rows = drift_map(10, c, grid, 2000, rng_for(8))
    assert [row.regime for row in rows] == [
        Regime.SMALL.value, Regime.REASONABLE.value, Regime.REASONABLE.value,
        Regime.REASONABLE.value, Regime.LARGE.value]
    for row in rows:
        assert row.bound_B == c.B
        assert row.satisfied
        assert row.ci_halfwidth > 0.0


def test_drift_map_parallel_matches_serial(constants_for, rng_for):
    c = constants_for(5)
    grid = [0.5, 1.5, 5.0]
    serial = drift_map(5, c, grid, 2000, rng_for(9), workers=1)
    parallel = drift_map(5, c, grid, 2000, rng_for(9), workers=2)
    assert serial == parallel


# ---------------------------------------------------------------------------
# hitting-time bounds
# ---------------------------------------------------------------------------

def test_hitting_time_bounds_arithmetic(constants_for):
    c = constants_for(10)
    lower, upper = hitting_time_bounds(initial_state(10, 1.0, 2.0), c,
                                       math.exp(-10.0))
    assert lower == pytest.approx(24.5, rel=1e-12)
    assert upper >= lower


def test_hitting_time_bounds_ordering(constants_for):
    for d in (4, 10, 16):
        c = constants_for(d)
        lower, upper = hitting_time_bounds(initial_state(d, 1.0, 2.0), c, 1e-8)
        assert upper >= lower > 0.0


def test_hitting_time_bounds_trivial_instance_warns(constants_for):
    c = constants_for(4)
    with pytest.warns(UserWarning, match="trivial"):
        lower, _ = hitting_time_bounds(initial_state(4, 1.0, 2.0), c, 1.0)
    assert lower == pytest.approx(-0.5)
