"""Reference values computed apart from the program under test.

Nothing here imports es_drift. Success probabilities come from
``scipy.special.chndtr``; the band ends, band minima and the derived
constants are rebuilt on top of it with the paper's closed forms; the
expected truncated one-step drift is a quadrature over the offspring
norm; the acute-angle line-search progress has a digamma closed form.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import chndtr, digamma, ndtr

# bracket for the rate-zero band ends: the curve is about 0.45 at the
# low end and below 0.01 at the high end for every d >= 2
_BAND_BRACKET = (0.25, 16.0)
_BAND_GRID = 4097


def psucc(d, r, sigma_bar):
    """Pr(||e1 + (sigma_bar/d) N|| < 1 - r), N ~ N(0, I_d), via chndtr."""
    sb = np.asarray(sigma_bar, dtype=float)
    return chndtr(((1.0 - r) * d / sb) ** 2, d, (d / sb) ** 2)


def psucc_limit(rho, sigma_bar):
    """Large-d limit Phi(-rho/sbar - sbar/2)."""
    return ndtr(-rho / sigma_bar - sigma_bar / 2.0)


def band_end(d, p):
    """sbar with psucc(d, 0, sbar) = p; the rate-zero curve is decreasing."""
    return brentq(lambda s: float(psucc(d, 0.0, s)) - p, *_BAND_BRACKET,
                  xtol=1e-15, rtol=1e-15, maxiter=500)


def band_min(d, r, ell, u):
    """Minimum of psucc(d, r, .) over [ell, u]: dense grid, then refined."""
    grid = np.exp(np.linspace(math.log(ell), math.log(u), _BAND_GRID))
    values = psucc(d, r, grid)
    i = int(np.argmin(values))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, _BAND_GRID - 1)]
    res = minimize_scalar(lambda s: float(psucc(d, r, s)), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12 * u})
    return min(float(values[i]), float(res.fun))


def constants(d, alpha, p_u, p_l):
    """The derived constant set for (d, alpha, p_u, p_l), from closed forms."""
    ell, u = band_end(d, p_l), band_end(d, p_u)
    p_prime = band_min(d, r_prime_of(d, alpha), ell, u)
    _, r = v_and_r(d, alpha, p_prime)
    p_star = band_min(d, r, ell, u)
    return closed_forms(d, alpha, p_u, p_l, ell, u, p_prime, p_star)


def r_prime_of(d, alpha):
    """Pre-estimate rate r', the image of the cap on v."""
    log_a = math.log(alpha)
    if d * log_a > 1.0:
        return 1.0 - math.exp(-log_a / (d * log_a - 1.0))
    return 1.0 - math.exp(-(1.0 / d) / (1.0 - 1.0 / (2.0 * d * log_a)))


def v_and_r(d, alpha, p_prime):
    """Penalty weight v = p'/(2 d log alpha) and rate r = 1 - exp(-A/(1 - v))."""
    v = p_prime / (2.0 * d * math.log(alpha))
    return v, 1.0 - math.exp(-(1.0 / d) / (1.0 - v))


def closed_forms(d, alpha, p_u, p_l, ell, u, p_prime, p_star):
    """A, r', v, r, B, L and U given the band [ell, u] and its minima."""
    log_a = math.log(alpha)
    A = 1.0 / d
    v, r = v_and_r(d, alpha, p_prime)
    term_small = v * log_a * (5.0 * p_l - 1.0) / 4.0
    term_large = v * log_a * (1.0 - 5.0 * p_u) / 4.0
    return {"d": d, "alpha": alpha, "p_u": p_u, "p_l": p_l, "ell": ell, "u": u,
            "A": A, "r_prime": r_prime_of(d, alpha), "p_prime": p_prime,
            "v": v, "r": r, "p_star": p_star,
            "B": min(A * p_star - 1.25 * v * log_a, term_small, term_large),
            "L": min(0.375 * p_prime / d, term_small, term_large),
            "U": (p_star / d) * max(0.375, (5.0 * p_l - 1.0) / 8.0,
                                    (1.0 - 5.0 * p_u) / 8.0)}


def _penalised_log(x, sigma, c):
    """Potential at log-norm x and step size sigma."""
    d, alpha = c["d"], c["alpha"]
    pen_small = math.log(alpha * c["ell"] / (d * sigma)) + x
    pen_large = math.log(alpha ** 0.25 * sigma * d / c["u"]) - x
    return x + c["v"] * max(0.0, pen_small, pen_large)


def potential(norm_m, sigma, c):
    """log||m|| plus the step-size penalty."""
    return _penalised_log(math.log(norm_m), sigma, c)


def hitting_bounds(m0_norm, sigma_bar0, epsilon, c):
    """Lower and upper expected-hitting-time bounds from a start state."""
    d = c["d"]
    v0 = potential(m0_norm, sigma_bar0 * m0_norm / d, c)
    lower = (math.log(m0_norm) - math.log(epsilon)) * d / 4.0 - 0.5
    upper = (v0 - math.log(epsilon) + 1.0 / d) / c["B"]
    return v0, lower, upper


class DriftMoments(NamedTuple):
    """Moments of the truncated one-step potential change Y at one state."""

    mean: float
    variance: float
    p_success: float
    quad_error: float
    span: float  # max(Y) - min(Y): Y lies in [-A, -A + span]


def drift_moments(sigma_bar, c) -> DriftMoments:
    """Moments of the truncated one-step potential change at ||m|| = 1,
    sigma = sigma_bar/d.

    The offspring's squared norm is sigma^2 times a noncentral chi-squared
    with d degrees of freedom and noncentrality 1/sigma^2, so its CDF G(n)
    at norm n is a chndtr call. A failure gives the constant y_f; a success
    at norm n gives g(n) = max(V(n, alpha sigma) - V_now, -A), whose slope
    in log n is piecewise constant (0 where clipped, 1 - v, 1 or 1 + v).
    Integrating by parts in x = log n,

        E[(g - y_f) 1{success}] = (g(1) - y_f) G(1) - int G(e^x) g'(x) dx,

    and likewise for (g - y_f)^2, with breakpoints at the clip, at the
    two penalty kinks and where G rises (within a few sigma of n = 1).
    """
    d, alpha, A, v = c["d"], c["alpha"], c["A"], c["v"]
    sigma = sigma_bar / d
    lam = 1.0 / sigma ** 2
    v_now = _penalised_log(0.0, sigma, c)
    y_f = failure_drift(sigma_bar, c)
    s_up = sigma * alpha

    def g(x):
        return max(_penalised_log(x, s_up, c) - v_now, -A)

    def slope(x):
        pen_small = math.log(alpha * c["ell"] / (d * s_up)) + x
        pen_large = math.log(alpha ** 0.25 * s_up * d / c["u"]) - x
        if pen_small > 0.0 and pen_small >= pen_large:
            return 1.0 + v
        if pen_large > 0.0:
            return 1.0 - v
        return 1.0

    def G(x):
        return float(chndtr(math.exp(2.0 * x) * lam, d, lam))

    p_s = G(0.0)
    g1 = g(0.0)
    span = max(g1, y_f) + A
    if g1 <= -A:
        return DriftMoments(y_f + (-A - y_f) * p_s,
                            (-A - y_f) ** 2 * p_s * (1.0 - p_s), p_s, 0.0, span)
    x_c = brentq(lambda x: _penalised_log(x, s_up, c) - v_now + A, -800.0, 0.0,
                 xtol=1e-15)
    x_lo = x_c
    if 1.0 - 40.0 * sigma > 0.0:
        # G(n) <= Phi((n - 1)/sigma) vanishes below n = 1 - 40 sigma
        x_lo = max(x_c, math.log(1.0 - 40.0 * sigma))
    cuts = [math.log(sigma_bar / c["ell"]),
            math.log(alpha ** 1.25 * sigma_bar / c["u"])]
    cuts += [math.log(1.0 - k * sigma) for k in (1.0, 3.0, 10.0) if k * sigma < 1.0]
    edges = sorted({x_lo, 0.0, *(x for x in cuts if x_lo < x < 0.0)})
    m1 = (g1 - y_f) * p_s
    m2 = (g1 - y_f) ** 2 * p_s
    err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        i1, e1 = quad(lambda x: G(x) * slope(x), a, b,
                      epsabs=1e-14, epsrel=1e-11, limit=200)
        i2, e2 = quad(lambda x: G(x) * 2.0 * (g(x) - y_f) * slope(x), a, b,
                      epsabs=1e-14, epsrel=1e-11, limit=200)
        m1 -= i1
        m2 -= i2
        err += e1
    return DriftMoments(y_f + m1, max(m2 - m1 * m1, 0.0), p_s, err, span)


def failure_drift(sigma_bar, c):
    """Truncated potential change of a failed step at ||m|| = 1."""
    sigma = sigma_bar / c["d"]
    v_now = _penalised_log(0.0, sigma, c)
    return max(_penalised_log(0.0, sigma * c["alpha"] ** -0.25, c) - v_now, -c["A"])


def acute_log_progress(d):
    """E[-log sin(theta) 1{theta <= pi/2}] = (psi(d/2) - psi((d-1)/2)) / 4."""
    return float(digamma(d / 2.0) - digamma((d - 1) / 2.0)) / 4.0
