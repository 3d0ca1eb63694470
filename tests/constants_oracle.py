"""The paper's constant set for (d, alpha, p_u, p_l), computed apart from
es_drift: nothing here imports it.

Success probabilities are ``scipy.special.chndtr`` values of the
noncentral chi-squared law, the band ends are its rate-zero preimages
found by ``brentq``, and each band minimum is the smaller of the two
band-end values. The other constants are the paper's closed forms, the
drift bound B as the least of its three regime terms and the envelope
L and U as the paper states them.
"""

import math

from scipy.optimize import brentq
from scipy.special import chndtr, ndtri


def psucc(d, r, sigma_bar):
    """Pr(||e1 + (sigma_bar/d) N|| < 1 - r), N ~ N(0, I_d)."""
    lam = (d / sigma_bar) ** 2
    return float(chndtr(((1.0 - r) * d / sigma_bar) ** 2, d, lam))


def band_end(d, p):
    """sigma_bar with psucc(d, 0, sigma_bar) = p, the rate-zero curve being
    decreasing; the bracket grows from the large-d root -2 Phi^-1(p)."""
    lo = hi = -2.0 * float(ndtri(p))
    while psucc(d, 0.0, lo) <= p:
        lo /= 2.0
    while psucc(d, 0.0, hi) >= p:
        hi *= 2.0
    return brentq(lambda s: psucc(d, 0.0, s) - p, lo, hi, xtol=1e-15, rtol=1e-15,
                  maxiter=500)


def constant_set(d, alpha, p_u, p_l):
    """Every field of the constant set, as a dict."""
    log_a = math.log(alpha)
    ell, u = band_end(d, p_l), band_end(d, p_u)
    A = 1.0 / d
    if d * log_a > 1.0:
        r_prime = 1.0 - math.exp(-log_a / (d * log_a - 1.0))
    else:
        r_prime = 1.0 - math.exp(-A / (1.0 - 1.0 / (2.0 * d * log_a)))
    p_prime = min(psucc(d, r_prime, ell), psucc(d, r_prime, u))
    v = p_prime / (2.0 * d * log_a)
    r = 1.0 - math.exp(-A / (1.0 - v))
    p_star = min(psucc(d, r, ell), psucc(d, r, u))
    small = v * log_a * (5.0 * p_l - 1.0) / 4.0
    large = v * log_a * (1.0 - 5.0 * p_u) / 4.0
    return {"d": d, "alpha": alpha, "p_u": p_u, "p_l": p_l, "ell": ell, "u": u,
            "A": A, "v": v, "r": r, "r_prime": r_prime, "p_star": p_star,
            "p_prime": p_prime,
            "B": min(A * p_star - 1.25 * v * log_a, small, large),
            "L": min(0.375 * p_prime / d, small, large),
            "U": (p_star / d) * max(0.375, (5.0 * p_l - 1.0) / 8.0,
                                    (1.0 - 5.0 * p_u) / 8.0)}
