import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import chndtr
from scipy.stats import ncx2

from es_drift import (ConfigurationError, ConvergenceError, cli, kernels, Z99,
                      derive_constants, derive_stream, drift_map,
                      hitting_time_bounds, initial_state, psucc_exact)
from es_drift.config import ExperimentConfig
from reference import psucc_mc

LOG_ALPHA = math.log(1.5)


# ---------------------------------------------------------------------------
# constant pipeline
# ---------------------------------------------------------------------------

def test_derive_constants_minima_cross_checked_by_mc(constants_for, rng_for):
    c = constants_for(10)
    grid = np.exp(np.linspace(math.log(c.ell), math.log(c.u), 256))
    for rate, target in ((c.r_prime, c.p_prime), (c.r, c.p_star)):
        argmin = float(grid[np.argmin(psucc_exact(10, rate, grid))])
        est = psucc_mc(10, rate, argmin, 300_000, rng_for(0))
        assert abs(est.mean - target) <= 4.0 * est.std_error + 1e-6


@pytest.mark.parametrize("dims", [list(range(2, 1025)),
                                  [64, 3, 1024, 3, 17, 2],
                                  [4096, 8192, 16384, 32768, 65536]])
def test_derive_constants_over_a_list_equals_per_d_calls(dims):
    sets = derive_constants(dims)
    assert len(sets) == len(dims)
    for d, c in zip(dims, sets):
        assert astuple(c) == astuple(derive_constants(d)), d
    assert derive_constants([]) == []


@pytest.mark.parametrize("dims, kwargs, first_failing", [
    # d = 3 fails u / ell >= alpha^(5/4); the batch meets d = 1 first
    ([5, 8, 3, 1], {"alpha": 2.0}, 3),
    # d = 2 fails v > 0 after the band ends, and d = 10 fails before, in
    # psucc0_inverse
    ([2, 10], {"p_l": 0.49999}, 2),
    ([10, 2], {"p_l": 0.49999}, 10),
])
def test_derive_constants_list_raises_the_first_failing_d_error(dims, kwargs,
                                                                 first_failing):
    expected = _error(lambda: derive_constants(first_failing, **kwargs))
    assert expected is not None
    assert _error(lambda: [derive_constants(d, **kwargs) for d in dims]) == expected
    assert _error(lambda: derive_constants(dims, **kwargs)) == expected


def _error(call):
    try:
        call()
    except (ConfigurationError, ConvergenceError) as exc:
        return type(exc), str(exc)
    return None


def test_derive_constants_rejects_oversized_alpha():
    with pytest.raises(ConfigurationError, match="u / ell"):
        derive_constants(64, alpha=3.0)


@pytest.mark.parametrize("alpha", [1e200, 1e247, 1e300])
def test_derive_constants_rejects_an_alpha_whose_band_ratio_overflows(alpha):
    # alpha^(5/4) overflows a float from about 1e247 on
    with pytest.raises(ConfigurationError, match=r"u / ell >= alpha\^\(5/4\)"):
        derive_constants(8, alpha=alpha)


def test_derive_constants_rejects_bad_probabilities():
    with pytest.raises(ConfigurationError, match="p_u"):
        derive_constants(8, p_u=0.25, p_l=0.3)
    with pytest.raises(ConfigurationError, match="alpha > 1"):
        derive_constants(8, alpha=0.9)


# ---------------------------------------------------------------------------
# band minimization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 10, 64, 1024])
def test_psucc_is_log_concave_in_log_sigma_bar(d):
    # the reason band minima are band-end values; checked on both forms of
    # psucc_exact (the chi form at r*max(d, 32) <= 2) for noncentrality
    # (d/sbar)^2 up to 2.5e9, wherever p is a normal float
    grid = np.exp(np.linspace(math.log(2e-5 * d), math.log(100.0 * d), 1001))
    tiny = np.finfo(float).tiny
    for r in (0.0, 1.0 / d, 0.3, 0.7):
        p = psucc_exact(d, r, grid)
        if (d, r) == (1024, 0.7):
            assert p.max() < tiny  # an offspring that close is out of float range
            continue
        kept = np.flatnonzero(p >= tiny)
        assert kept.size >= 50
        # superlevel sets of a log-concave function are intervals
        assert np.all(np.diff(kept) == 1)
        assert np.diff(np.log(p[kept]), 2).max() <= 1e-12


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
def test_band_minima_match_dense_grid_oracle(alpha):
    accepted = 0
    for d in [2, 3] + [2 ** k for k in range(2, 13)]:
        try:
            c = derive_constants(d, alpha=alpha)
        except ConfigurationError:
            continue
        accepted += 1
        grid = np.exp(np.linspace(math.log(c.ell), math.log(c.u), 4097))
        grid[[0, -1]] = c.ell, c.u
        for r, minimum in ((c.r_prime, c.p_prime), (c.r, c.p_star)):
            oracle = chndtr(((1.0 - r) * d / grid) ** 2, d, (d / grid) ** 2).min()
            assert abs(minimum - oracle) <= 1e-12, (d, r)
    assert accepted >= 10


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_potential_pole_at_optimum(constants_for):
    c = constants_for(4)
    with pytest.raises(ValueError, match="optimum"):
        c.potential_of(0.0, 1.0)
    with pytest.raises(ValueError, match="sigma must be positive"):
        c.potential_of(1.0, 0.0)


def _potential_args(c):
    return c.d, c.alpha, c.ell, c.u, c.v


_DIMS = st.sampled_from([2, 10, 64])
_LOG_NORMS = st.floats(-30.0, 30.0)
_LOG_SIGMA_BARS = st.floats(math.log(1e-4), math.log(1e4))


@settings(max_examples=200)
@given(d=_DIMS, log_norm=_LOG_NORMS, log_sigma_bar=_LOG_SIGMA_BARS)
def test_potential_value_at_least_log_norm(constants_for, d, log_norm, log_sigma_bar):
    c = constants_for(d)
    norm = math.exp(log_norm)
    sigma = math.exp(log_sigma_bar) * norm / d
    value = kernels.potential_value(norm, sigma, *_potential_args(c))
    assert value >= log_norm - 1e-13 * max(1.0, abs(log_norm))


@settings(max_examples=200)
@given(d=_DIMS, log_norm=_LOG_NORMS, fraction=st.floats(0.0, 1.0))
def test_potential_value_is_log_norm_on_the_neutral_band(constants_for, d, log_norm,
                                                        fraction):
    c = constants_for(d)
    lo, hi = math.log(c.alpha * c.ell), math.log(c.alpha ** -0.25 * c.u)
    norm = math.exp(log_norm)
    sigma = math.exp(lo + fraction * (hi - lo)) * norm / d
    value = kernels.potential_value(norm, sigma, *_potential_args(c))
    assert value == pytest.approx(log_norm, abs=1e-12)


@settings(max_examples=200)
@given(d=_DIMS, log_norm=_LOG_NORMS, log_sigma_bar=_LOG_SIGMA_BARS,
       log_scale=st.floats(-20.0, 20.0))
def test_potential_value_shifts_by_log_scale(constants_for, d, log_norm,
                                             log_sigma_bar, log_scale):
    c = constants_for(d)
    norm = math.exp(log_norm)
    sigma = math.exp(log_sigma_bar) * norm / d
    scale = math.exp(log_scale)
    base = kernels.potential_value(norm, sigma, *_potential_args(c))
    scaled = kernels.potential_value(scale * norm, scale * sigma, *_potential_args(c))
    assert scaled == pytest.approx(base + log_scale, abs=1e-10)


@settings(max_examples=100)
@given(d=_DIMS, points=st.lists(st.tuples(_LOG_NORMS, _LOG_SIGMA_BARS),
                                min_size=1, max_size=50))
def test_potential_value_array_matches_scalar(constants_for, d, points):
    # the drift sampler scores the step sizes of a grid with one array call
    # and each step size's successes with another, so an entry must not
    # depend on the array around it
    c = constants_for(d)
    norms = [math.exp(ln) for ln, _ in points]
    sigmas = [math.exp(ls) * n / d for n, (_, ls) in zip(norms, points)]
    array = kernels.potential_value(np.array(norms), np.array(sigmas),
                                    *_potential_args(c))
    scalar = [kernels.potential_value(n, s, *_potential_args(c))
              for n, s in zip(norms, sigmas)]
    np.testing.assert_allclose(array, scalar, rtol=1e-15, atol=1e-15)


@settings(max_examples=300)
@given(d=_DIMS, log_norm=_LOG_NORMS, log_sigma_bar=_LOG_SIGMA_BARS)
# norms near the float ceiling, where d * sigma overflows: the small-step
# penalty binds in the first, the large-step one in the second
@example(d=10, log_norm=709.5, log_sigma_bar=math.log(1.4))
@example(d=64, log_norm=709.0, log_sigma_bar=math.log(20.0))
def test_potential_value_matches_math_log_oracle(constants_for, d, log_norm,
                                                 log_sigma_bar):
    # the penalty as the paper writes it, in sigma_bar = d sigma / ||m||, one
    # math.log per term
    c = constants_for(d)
    norm = math.exp(log_norm)
    sigma_bar = math.exp(log_sigma_bar)
    sigma = sigma_bar / d * norm
    pen_small = math.log(c.alpha * c.ell / sigma_bar)
    pen_large = math.log(c.alpha ** 0.25 * sigma_bar / c.u)
    oracle = math.log(norm) + c.v * max(0.0, pen_small, pen_large)
    value = kernels.potential_value(norm, sigma, *_potential_args(c))
    assert value == pytest.approx(oracle, rel=1e-13,
                                  abs=1e-13 * max(1.0, abs(log_norm)))


# ---------------------------------------------------------------------------
# drift estimation
# ---------------------------------------------------------------------------

def _drift_at(c, sigma_bar, n, rng):
    """drift_map at the one grid point sigma_bar: its mean and half-width."""
    est = drift_map(c, [sigma_bar], n, rng)
    return est.mean.item(), est.half_width.item()


def test_drift_reasonable_state_beats_bound(constants_for, rng_for):
    c = constants_for(10)
    mean, halfwidth = _drift_at(c, 2.0, 200_000, rng_for(3))
    assert mean + halfwidth <= -c.B


def test_drift_small_regime_closed_form(constants_for, rng_for):
    c = constants_for(10)
    sigma_bar = c.ell / 10.0
    mean, halfwidth = _drift_at(c, sigma_bar, 200_000, rng_for(4))
    case_bound = -c.v * LOG_ALPHA * (5.0 * c.p_l - 1.0) / 4.0
    assert mean <= case_bound + halfwidth
    # deep in the regime the drift approaches the success-split closed form
    deep = c.ell / 1000.0
    mean_deep, halfwidth_deep = _drift_at(c, deep, 200_000, rng_for(5))
    p_here = psucc_exact(10, 0.0, deep)
    closed = -c.v * LOG_ALPHA * (5.0 * p_here - 1.0) / 4.0
    assert mean_deep == pytest.approx(closed, rel=0.15, abs=3 * halfwidth_deep)


def test_drift_large_regime_closed_form(constants_for, rng_for):
    c = constants_for(10)
    mean, halfwidth = _drift_at(c, 10.0 * c.u, 200_000, rng_for(6))
    case_bound = -c.v * LOG_ALPHA * (1.0 - 5.0 * c.p_u) / 4.0
    assert mean <= case_bound + halfwidth


def _drift_by_quadrature(c, sigma_bar):
    """E[max(dV, -A)] at ||m|| = 1 and sigma = sigma_bar / d, by quadrature.

    X = ||offspring||^2 d^2 / sigma_bar^2 is noncentral chi-squared with d
    degrees of freedom and noncentrality lam = d^2 / sigma_bar^2, and a
    success is X <= lam. A failure keeps the norm, so it adds y_fail with
    probability 1 - P(X <= lam); a success is integrated against the
    density of X.
    """
    d = c.d
    sigma = sigma_bar / d
    lam = (d / sigma_bar) ** 2

    def pot(norm, s):
        return math.log(norm) + c.v * max(
            0.0, math.log(c.alpha * c.ell * norm / (d * s)),
            math.log(c.alpha ** 0.25 * s * d / (c.u * norm)))

    v_now = pot(1.0, sigma)
    y_fail = max(pot(1.0, sigma * c.alpha ** -0.25) - v_now, -c.A)

    def success(x):
        y = max(pot(sigma * math.sqrt(x), sigma * c.alpha) - v_now, -c.A)
        return y * ncx2.pdf(x, d, lam)

    # the density is negligible more than 12 standard deviations below its mean
    lo = max(0.0, lam + d - 12.0 * math.sqrt(2.0 * (d + 2.0 * lam)))
    p_success = ncx2.cdf(lam, d, lam)
    mass, _ = quad(lambda x: ncx2.pdf(x, d, lam), lo, lam, limit=200)
    assert mass == pytest.approx(p_success, abs=1e-9)
    integral, _ = quad(success, lo, lam, limit=200)
    return y_fail * (1.0 - p_success) + integral


@pytest.mark.parametrize("d", [10, 64])
def test_drift_estimate_matches_quadrature_oracle(constants_for, rng_for, d):
    c = constants_for(d)
    band_mid = math.sqrt(c.ell * c.u)
    for i, sigma_bar in enumerate((c.ell / 10.0, c.ell / 2.0,  # small
                                   1.35 * c.ell, band_mid,  # reasonable
                                   1.5 * c.u, 3.0 * c.u)):  # large
        exact = _drift_by_quadrature(c, sigma_bar)
        mean, halfwidth = _drift_at(c, sigma_bar, 400_000, rng_for(11, d, i))
        std_error = halfwidth / Z99
        assert std_error > 0.0
        assert abs(mean - exact) <= 5.0 * std_error


def test_drift_requires_enough_samples(constants_for, rng_for):
    with pytest.raises(ValueError):
        drift_map(constants_for(10), [2.0], 999, rng_for(7))


def test_drift_map_rows_and_regime_boundaries(constants_for, rng_for, monkeypatch,
                                              tmp_path):
    # the drift-map driver's rows are drift_map's estimates, each labelled by
    # its place against the band [ell, u], whose ends are in it
    c = constants_for(10)
    grid = np.array([0.5 * c.ell, np.nextafter(c.ell, 0.0), c.ell, math.sqrt(c.ell * c.u),
                     c.u, np.nextafter(c.u, math.inf), 2.0 * c.u])
    monkeypatch.setattr(cli, "_log_grid", lambda *args: grid)
    monkeypatch.setattr(cli, "derive_stream", lambda *key: rng_for(8))
    table = cli.cmd_drift_map(ExperimentConfig(output_path=str(tmp_path / "dm.csv"),
                                               d_list=(10,), mc_samples=2000))
    assert table["sigma_bar"] == grid.tolist()
    assert table["regime"] == (["small_sigma"] * 2 + ["reasonable_sigma"] * 3
                               + ["large_sigma"] * 2)
    est = drift_map(c, grid, 2000, rng_for(8))
    assert table["drift_mean"] == est.mean.tolist()
    assert table["ci_halfwidth"] == est.half_width.tolist()
    assert all(table["satisfied"])
    assert (est.mean + est.half_width <= -c.B).all()
    assert (est.half_width > 0.0).all()


def test_drift_map_all_failure_point_has_zero_halfwidth(constants_for, rng_for):
    # at 10 u the success probability is 7e-9, so all 10^4 samples fail and
    # every increment is the failure's y_fail: no spread, exactly
    c = constants_for(10)
    sigma_bar = 10.0 * c.u
    sigma = sigma_bar / 10
    y_fail = max(c.potential_of(1.0, sigma * c.alpha ** -0.25)
                 - c.potential_of(1.0, sigma), -c.A)
    mean, halfwidth = _drift_at(c, sigma_bar, 10_000, rng_for(10))
    assert halfwidth == 0.0
    assert mean == y_fail


def test_drift_map_rejects_non_positive_grid_points(constants_for, rng_for):
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            drift_map(constants_for(10), [1.0, bad], 2000, rng_for(14))
    with pytest.raises(ValueError, match="sigma_bar_grid must be non-empty"):
        drift_map(constants_for(10), [], 2000, rng_for(14))


@settings(max_examples=30)
@given(d=st.sampled_from([3, 10]),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       extra=st.lists(st.floats(0.0, 1.0), max_size=4),
       data=st.data())
def test_drift_map_rows_follow_their_grid_points(constants_for, d, fractions,
                                                 extra, data):
    # every grid point scores the same pool, drawn for the smallest step
    # size: reordering the grid reorders the rows, and points at or above
    # the grid minimum leave the other rows as they were, to the bit
    c = constants_for(d)

    def rows_for(grid):
        est = drift_map(c, grid, 2000, derive_stream(424242, 13, d))
        return [repr(pair) for pair in zip(est.mean.tolist(), est.half_width.tolist())]

    lo, hi = math.log(c.ell / 20.0), math.log(20.0 * c.u)
    grid = [math.exp(lo + f * (hi - lo)) for f in fractions]
    rows = rows_for(grid)
    order = data.draw(st.permutations(range(len(grid))))
    assert rows_for([grid[k] for k in order]) == [rows[k] for k in order]
    low = min(grid)
    wider = grid + [low * math.exp(f * (hi - math.log(low))) for f in extra]
    assert rows_for(wider)[:len(grid)] == rows


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


def test_hitting_time_bounds_rejects_a_state_of_another_dimension(constants_for):
    with pytest.raises(ValueError, match="state dimension 8 != constants dimension 10"):
        hitting_time_bounds(initial_state(8, 1.0, 2.0), constants_for(10), 1e-8)


def test_hitting_time_bounds_rejects_an_epsilon_that_is_not_finite_and_positive(
        constants_for):
    # an infinite epsilon would give the bounds (-inf, 0.0)
    state0 = initial_state(10, 1.0, 2.0)
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            hitting_time_bounds(state0, constants_for(10), bad)


def test_hitting_time_bounds_of_a_start_inside_the_target_are_vacuous(constants_for):
    # the numbers say so, with no warning (an error under pyproject.toml)
    c = constants_for(4)
    state = initial_state(4, 1.0, 2.0)
    lower, _ = hitting_time_bounds(state, c, 1.0)
    assert lower == pytest.approx(-0.5)
    # a target at or above the start's potential gets Theorem 1's bound 0
    start = c.potential_of(state.norm, state.sigma)
    lower, upper = hitting_time_bounds(state, c, math.exp(start + 1.0))
    assert lower < -0.5 and upper == 0.0
