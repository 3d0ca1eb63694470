import math
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import chndtr, gammainc, ndtri

from es_drift import success
from es_drift import ConvergenceError, psucc0_inverse, psucc_exact, psucc_limit
from es_drift.success import MAX_ABS_ERROR, MAX_NONCENTRALITY, MAX_ROOT_MISS
from reference import psucc_mc

ND = NormalDist()


# ---------------------------------------------------------------------------
# exact evaluation via the noncentral chi-squared CDF
# ---------------------------------------------------------------------------

def _split_points(s, keep):
    """Ends of the support of the CDF factor (clipped to |z| <= 40) in
    _mpmath_psucc, split ever finer toward both ends, down to pieces of
    width s."""
    lo, hi = max((-1 - keep) / s, -40), min((keep - 1) / s, 40)
    points = [lo, hi]
    step = (hi - lo) / 2
    while step > s:
        points += [lo + step, hi - step]
        step /= 2
    return sorted(points)


def _mpmath_psucc(d, r, sigma_bar):
    """30-digit oracle for Pr(||e1 + s N|| < 1 - r), s = sigma_bar / d.

    Conditions on the first coordinate z of N: the event is then
    chi2_{d-1} < ((1 - r)^2 - (1 + s z)^2) / s^2, so the probability is
    the integral of phi(z) * P((d - 1)/2, ((1 - r)^2 - (1 + s z)^2) / (2 s^2)).
    The CDF factor rises from 0 at both ends of the support over a width
    that shrinks with s, hence the split points.
    """
    with mpmath.workdps(30):
        s = mpmath.mpf(sigma_bar) / d
        a = mpmath.mpf(d - 1) / 2
        keep = 1 - mpmath.mpf(r)

        def integrand(z):
            y = (keep ** 2 - (1 + s * z) ** 2) / (2 * s * s)
            return mpmath.npdf(z) * mpmath.gammainc(a, 0, y, regularized=True) if y > 0 else 0

        return float(mpmath.quad(integrand, _split_points(s, keep)))


def _quad_psucc(d, r, sigma_bar):
    """Float64 twin of _mpmath_psucc: scipy quad over the same pieces."""
    s = sigma_bar / d
    keep = 1.0 - r

    def integrand(z):
        y = (keep ** 2 - (1.0 + s * z) ** 2) / (2.0 * s * s)
        return ND.pdf(z) * gammainc((d - 1) / 2, y) if y > 0.0 else 0.0

    points = _split_points(s, keep)
    return sum(quad(integrand, a, b, epsabs=1e-14, epsrel=1e-12)[0]
               for a, b in zip(points, points[1:]))


ORACLE_POINTS = (
    (2, 0.5, 1.0), (5, 0.5, 4.0),       # small noncentrality
    (256, 0.0, 0.1335),                 # success-curve corner at r = 0
    (1024, 1 / 1024, 0.5),
    # noncentrality (d / sigma_bar)^2 just below MAX_NONCENTRALITY: chndtr
    # above the chi form's rate cap at d = 8, the chi form at d = 2, 16 and
    # 1000
    (8, 0.1, 8.0001e-5),
    (2, 0.0, 2.00001e-5), (16, 0.0, 1.60001e-4), (1000, 0.0, 1.00001e-2),
    # the chi form has no ceiling: noncentrality 1e12
    (1024, 0.0, 1e-3),
    # the chi form below d = 32, at noncentrality 1e4 and 1e12 and both
    # ends of its rates there, r <= 1/16
    *((d, r, d / math.sqrt(lam)) for d in (2, 3, 8, 16) for r in (0.0, 1 / 16)
      for lam in (1e4, 1e12)),
)


def test_psucc_exact_matches_mpmath_oracle():
    for d, r, sigma_bar in ORACLE_POINTS:
        value = psucc_exact(d, r, sigma_bar)
        assert abs(value - _mpmath_psucc(d, r, sigma_bar)) <= MAX_ABS_ERROR, \
            (d, r, sigma_bar)
    assert max((d / s) ** 2 for d, r, s in ORACLE_POINTS
               if r * max(d, 32) > 2.0) > 0.9999 * MAX_NONCENTRALITY
    # chndtr, above the chi form's rate cap, keeps its verified ceiling
    with pytest.raises(ConvergenceError):
        psucc_exact(8, 0.1, 7.9999e-5)


def _chi_psucc(d, r, sigma_bars):
    """success._psucc_chi at one (d, r) for an array of sigma_bars."""
    d, r, sigma_bars = np.broadcast_arrays(d, float(r), sigma_bars)
    return success._psucc_chi(d, r, sigma_bars)


def _chndtr_psucc(d, r, sigma_bars):
    return chndtr(((1.0 - r) * d / sigma_bars) ** 2, d, (d / sigma_bars) ** 2)


@pytest.mark.parametrize("d", [1, 2, 3, 32, 2 ** 20])
def test_chi_rule_matches_the_chi2_moments(d):
    # a 16-node Gauss rule integrates (chi^2)^m exactly for m <= 31, and
    # E[(chi2_{d-1})^m] = prod_{j<m} (d - 1 + 2j)
    chi2, weights = success._chi_rule(d)
    for m in range(32):
        moment = math.prod(d - 1 + 2 * j for j in range(m))
        assert float(weights @ chi2 ** m) == pytest.approx(moment, rel=1e-12, abs=1e-300), \
            (d, m)


@pytest.mark.parametrize("d", [2, 3, 8, 16, 32, 64, 1024])
def test_psucc_exact_chi_form_agrees_with_chndtr_across_the_switch(d):
    # noncentrality 1e3 to 1e5 on both sides of the switch at 1e4, for
    # every r*max(d, 32) up to the chi form's limit of 2
    sigma_bars = d / np.sqrt(np.geomspace(1e3, 1e5, 41))
    for rate_d in (0.0, 1.0, 2.0):
        r = rate_d / max(d, 32)
        chi = _chi_psucc(d, r, sigma_bars)
        assert np.all(np.abs(chi - _chndtr_psucc(d, r, sigma_bars)) <= MAX_ABS_ERROR), \
            (d, rate_d)


def test_psucc_exact_takes_the_chi_form_only_inside_its_region():
    sigma_bars = np.array([0.05, 0.15])  # noncentrality above 1e4 at d >= 16
    for d, r in ((32, 2 / 32), (16, 0.0), (16, 1 / 16)):
        assert np.array_equal(psucc_exact(d, r, sigma_bars),
                              _chi_psucc(d, r, sigma_bars)), (d, r)
    for d, r in ((16, 0.07), (32, 2.01 / 32), (64, 0.3)):
        assert np.array_equal(psucc_exact(d, r, sigma_bars),
                              _chndtr_psucc(d, r, sigma_bars)), (d, r)
    assert psucc_exact(32, 0.0, 0.33) == _chndtr_psucc(32, 0.0, 0.33)


def test_psucc_exact_is_smooth_in_sigma_bar_at_large_dimension():
    # chndtr's steps here range from -5.2e-13 to +4.0e-13; the chi form's
    # fixed-node sum keeps the curve decreasing (steps of -3.4e-14)
    sigma_bars = 2.5631 + 1e-12 * np.arange(-5, 6)
    assert np.all(np.diff(psucc_exact(65536, 1.526e-5, sigma_bars)) < 0.0)


MIXED_DIMENSIONS = (2, 3, 31, 32, 33, 40, 45, 64, 1000, 1024, 65536)


def test_psucc_exact_array_d_matches_pointwise_calls_bit_for_bit(rng_for):
    # a random mix of dimensions on both sides of the chi form's rate cap
    # r*max(d, 32) <= 2, rates r*d of 0 and 1, and noncentralities 1e3 to
    # 1e5 around its switch at 1e4, in one call
    rng = rng_for(7)
    d = rng.choice(MIXED_DIMENSIONS, 400)
    r = rng.integers(0, 2, 400) / d
    sigma_bars = d / np.sqrt(np.exp(rng.uniform(math.log(1e3), math.log(1e5), 400)))
    values = psucc_exact(d, r, sigma_bars)
    chi = (r * np.maximum(d, 32) <= 2.0) & ((d / sigma_bars) ** 2 >= 1e4)
    assert chi.any() and (~chi).any()
    for k in range(400):
        assert values[k] == psucc_exact(int(d[k]), float(r[k]), float(sigma_bars[k])), k
    # d broadcasts like r and sigma_bars
    grid = np.array([0.05, 0.5, 5.0])
    table = psucc_exact(np.array(MIXED_DIMENSIONS)[:, None], 0.0, grid)
    assert table.shape == (len(MIXED_DIMENSIONS), 3)
    for row, dim in zip(table, MIXED_DIMENSIONS):
        assert np.array_equal(row, psucc_exact(dim, 0.0, grid)), dim
    # so does an empty input, to an empty array
    assert psucc_exact(4, 0.0, np.array([])).shape == (0,)
    assert psucc_exact(np.array(MIXED_DIMENSIONS)[:, None], 0.0, np.empty(0)).shape == (
        len(MIXED_DIMENSIONS), 0)
    with pytest.raises(ValueError, match="dimension must be positive, got 0"):
        psucc_exact([4, 0], 0.0, 1.0)


def test_psucc_exact_array_error_names_the_failing_point():
    # noncentrality just above the ceiling at d = 16 only, at a rate above
    # the chi form's cap; d = 64 at r = 0 takes the chi form and d = 8
    # stays below the ceiling
    with pytest.raises(ConvergenceError, match=r"\(d=16, r=0.1, sigma_bar=0.00015999\)"):
        psucc_exact([64, 16, 8], [0.0, 0.1, 0.1], 1.5999e-4)


def test_psucc0_inverse_finds_roots_at_noncentralities_beyond_chndtrs_ceiling():
    # the root at d = 2 is at noncentrality 4e12, which only the chi form
    # reaches
    roots = psucc0_inverse([64, 2], 0.4999999)
    assert roots == pytest.approx([5.0928e-7, 1.0027e-6], rel=1e-4)
    assert abs(_mpmath_psucc(2, 0.0, roots[1]) - 0.4999999) <= MAX_ROOT_MISS


@settings(max_examples=50)
@given(d=st.integers(1, 512),
       sigma_bars=st.lists(st.floats(0.05, 50.0), min_size=2, max_size=20),
       rates=st.lists(st.floats(0.0, 0.99), min_size=2, max_size=8))
def test_psucc_exact_many_monotone_in_sigma_bar_and_rate(d, sigma_bars, rates):
    # up to the verified accuracy: non-increasing in sigma_bar at r = 0,
    # where the curve is strictly decreasing, and in r at every sigma_bar
    slack = 2.0 * MAX_ABS_ERROR
    grid = np.sort(sigma_bars)
    assert np.all(np.diff(psucc_exact(d, 0.0, grid)) <= slack)
    by_rate = np.array([psucc_exact(d, r, grid) for r in sorted(rates)])
    assert np.all(np.diff(by_rate, axis=0) <= slack)


def test_psucc_exact_vanishes_as_rate_approaches_one():
    assert psucc_exact(8, 0.999, 1.0) < 1e-12


def test_psucc_exact_against_float64_quadrature(rng_for):
    # quadrature over the first coordinate, independent of chndtr
    rng = rng_for(1)
    for _ in range(40):
        d = int(rng.integers(2, 200))
        r = float(rng.uniform(0.0, 0.8))
        sigma_bar = float(np.exp(rng.uniform(math.log(0.2), math.log(8.0))))
        mine = psucc_exact(d, r, sigma_bar)
        ref = _quad_psucc(d, r, sigma_bar)
        assert abs(mine - ref) < 5e-9, (d, r, sigma_bar)


def test_figure_curve_gap_shrinks_with_dimension():
    grid = np.exp(np.linspace(math.log(0.125), math.log(8.0), 32))
    for rho in (0.0, 1.0):
        gaps = []
        for d in (2, 4, 8, 16, 32, 64, 128, 256):
            gap = max(abs(psucc_exact(d, rho / d, float(s))
                          - psucc_limit(rho, float(s))) for s in grid)
            gaps.append(gap)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2


# ---------------------------------------------------------------------------
# limit curve
# ---------------------------------------------------------------------------

def test_psucc_limit_matches_erf_oracle():
    # independent oracle: Phi(x) = 0.5 * (1 + erf(x / sqrt(2))) at
    # x = -rho/sbar - sbar/2
    points = ((0.0, 6.0), (0.0, 2.0), (0.0, 0.2), (0.0, 1e-9), (1.0, 0.5),
              (1.0, math.sqrt(2.0)), (2.0, 4.0))
    for rho, sigma_bar in points:
        x = -rho / sigma_bar - sigma_bar / 2.0
        oracle = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        assert abs(psucc_limit(rho, sigma_bar) - oracle) < 1e-14
    assert psucc_limit(0.0, 2.0) == pytest.approx(0.15865525393145707, abs=1e-12)
    # rho and sigma_bar broadcast, and the grid equals the point calls bit
    # for bit
    rhos, sigma_bars = [0.0, 1.0, 2.0], [sigma_bar for _, sigma_bar in points]
    grid = psucc_limit(np.array(rhos)[:, None], sigma_bars)
    assert grid.shape == (3, len(points))
    assert grid.tolist() == [[psucc_limit(rho, s) for s in sigma_bars] for rho in rhos]


def test_psucc_limit_peak_at_sqrt_two_for_unit_rho():
    peak = psucc_limit(1.0, math.sqrt(2.0))
    for s in np.linspace(0.3, 4.0, 200):
        assert psucc_limit(1.0, float(s)) <= peak + 1e-15


def test_psucc_limit_pole():
    with pytest.raises(ValueError, match="step size must be positive"):
        psucc_limit(0.0, 0.0)
    with pytest.raises(ValueError, match="step size must be positive"):
        psucc_limit(0.0, np.array([1.0, 0.0]))


def test_psucc_limit_rejects_a_negative_or_nan_rate():
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match=f"rho must be non-negative, got {bad}$"):
            psucc_limit(bad, 1.0)
        with pytest.raises(ValueError, match=f"rho must be non-negative, got {bad}$"):
            psucc_limit(np.array([0.0, bad]), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

def test_psucc_mc_half_at_vanishing_step(rng_for):
    est = psucc_mc(8, 0.0, 1e-6, 1_000_000, rng_for(2))
    assert abs(est.mean - 0.5) <= 3.0 * est.std_error


def test_psucc_mc_zero_for_deep_target(rng_for):
    est = psucc_mc(8, 0.99, 1e-6, 100_000, rng_for(3))
    assert est.mean == 0.0


@pytest.mark.parametrize("key, d, r, sigma_bar", [(0, 10, 0.02, 1.5), (1, 64, 0.005, 2.0),
                                                   (2, 2, 0.0, 8.0), (3, 10, 0.0, 8.0),
                                                   (4, 10, 0.02, 8.0), (5, 64, 0.0, 2.0)])
def test_psucc_mc_agrees_with_exact_at_positive_rate_and_large_step(rng_for, key, d,
                                                                    r, sigma_bar):
    est = psucc_mc(d, r, sigma_bar, 1_000_000, rng_for(5, key))
    exact = psucc_exact(d, r, sigma_bar)
    se = math.sqrt(exact * (1.0 - exact) / est.n)
    assert est.mean > 0.0
    assert abs(est.mean - exact) <= 5.0 * se


# ---------------------------------------------------------------------------
# inverse of the rate-zero curve
# ---------------------------------------------------------------------------

def test_psucc0_inverse_limit_values():
    # normal-quantile oracle: sigma_bar -> -2 * Phi^{-1}(p) as d grows
    assert psucc0_inverse(2048, 0.3) == pytest.approx(-2.0 * ND.inv_cdf(0.3), abs=1e-2)
    assert psucc0_inverse(2048, 0.1) == pytest.approx(-2.0 * ND.inv_cdf(0.1), abs=1e-2)


def test_psucc0_inverse_domain():
    for p in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            psucc0_inverse(8, p)


ROOT_DIMENSIONS = [2, 3] + [2 ** k for k in range(2, 17)]
ROOT_PROBABILITIES = (0.001, 0.1, 0.3, 0.49)


@pytest.mark.parametrize("d", ROOT_DIMENSIONS)
def test_psucc0_inverse_matches_brentq_oracle(d):
    for p in ROOT_PROBABILITIES:
        root = psucc0_inverse(d, p)
        oracle = brentq(lambda s: psucc_exact(d, 0.0, s) - p, 0.999 * root, 1.001 * root,
                        xtol=1e-15)
        assert abs(root - oracle) <= 1e-12 * oracle, (d, p)


def test_psucc0_inverse_vector_equals_scalar_calls():
    ps = np.array([[0.49, 0.3], [0.1, 0.001]])
    for d in (2, 10, 1024):
        roots = psucc0_inverse(d, ps)
        assert roots.shape == ps.shape
        for p, root in zip(ps.ravel(), roots.ravel()):
            assert root == psucc0_inverse(d, float(p))
    assert isinstance(psucc0_inverse(10, 0.3), float)
    # no p gives no root
    assert psucc0_inverse(4, []).shape == (0,)
    assert psucc0_inverse(np.array([2, 10])[:, None], np.empty(0)).shape == (2, 0)
    with pytest.raises(ValueError):
        psucc0_inverse(10, [0.3, 0.5])


def test_psucc0_inverse_array_d_equals_per_d_calls():
    # unsorted, with a repeat, across both forms and chndtr's whole range
    dims = np.array([1024, 2, 33, 10, 65536, 2, 3])
    ps = np.array([0.49, 0.3, 0.1, 0.001])
    roots = psucc0_inverse(dims[:, None], ps)
    assert roots.shape == (dims.size, ps.size)
    for d, row in zip(dims.tolist(), roots):
        assert row.tolist() == [psucc0_inverse(d, p) for p in ps.tolist()], d
    # one p per d
    assert np.array_equal(psucc0_inverse(dims, 0.3), roots[:, 1])


def test_psucc0_inverse_halves_a_lower_end_above_the_root(monkeypatch):
    # a start three times the large-d root puts p(lo) below p, so the
    # lower end must halve before the bracket holds
    expected = psucc0_inverse(16, 0.3)
    monkeypatch.setattr(success, "ndtri", lambda p: 3.0 * ndtri(p))
    root = psucc0_inverse(16, 0.3)
    assert psucc_exact(16, 0.0, -6.0 * ND.inv_cdf(0.3)) < 0.3
    assert abs(root - expected) <= 1e-12 * expected


def test_psucc0_inverse_raises_on_a_missed_root(monkeypatch):
    # one Illinois step from the starting bracket cannot reach MAX_ROOT_MISS
    monkeypatch.setattr(success, "_MAX_ROOT_STEPS", 1)
    with pytest.raises(ConvergenceError, match="misses p=0.1 by"):
        psucc0_inverse(16, [0.1, 0.3])


def test_query_validation(rng_for):
    for d, r, sigma_bar in ((0, 0.0, 1.0), (4, 1.0, 1.0), (4, 0.0, 0.0)):
        with pytest.raises(ValueError):
            psucc_exact(d, r, sigma_bar)
        with pytest.raises(ValueError):
            psucc_mc(d, r, sigma_bar, 100, rng_for(6))
    with pytest.raises(ValueError):
        psucc_exact(4, 0.0, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError, match="dimension must be an integer"):
        psucc_exact(4.0, 0.0, 1.0)
