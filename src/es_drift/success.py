"""Success probabilities of the sphere step, exact and by Monte Carlo.

The probability that a Gaussian offspring improves the parent by a
relative rate r,

    p(d, r, sbar) = Pr( ||e1 + (sbar/d) N|| < 1 - r ),   N ~ N(0, I_d),

depends on the state only through the normalized step size
sbar = d*sigma/||m||. ``psucc_exact`` evaluates it in one of two forms.

Squaring and rescaling turns the event into a noncentral chi-squared
CDF evaluation:

    ||e1 + (sbar/d) N||^2 * (d/sbar)^2  ~  chi2'_d(lambda),
    lambda = (d/sbar)^2,

which ``scipy.special.chndtr`` computes at ((1-r) d / sbar)^2, at a cost
that grows like sqrt(lambda). At large noncentrality the chi form takes
over: with s = sbar/d, rho = 1 - r and chi = ||(N_2, ..., N_d)||, which
follows the chi law with d - 1 degrees of freedom, success given chi is
the interval |1 + s N_1| < sqrt(rho^2 - s^2 chi^2), so

    p = E_chi[ Phi(a(chi)) - Phi(-(sqrt(rho^2 - s^2 chi^2) + 1) / s) ],
    a(chi) = (rho^2 - 1 - s^2 chi^2) / ((sqrt(rho^2 - s^2 chi^2) + 1) s),

where a is the upper end sqrt(rho^2 - s^2 chi^2) - 1 over s, rewritten
without the cancellation of two numbers near 1. A fixed Gauss-Hermite
rule over chi makes each value a sum of ndtr terms, at a cost that does
not depend on lambda, and a smooth function of sbar.

For r = 0 the curve is strictly decreasing in sbar with image (0, 1/2),
which makes it invertible by bracketed root finding. As d -> infinity
with r*d -> rho the curve converges to Phi(-rho/sbar - sbar/2).
"""

import functools
import math

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import chndtr, ndtr, ndtri

from . import kernels
from .errors import ConvergenceError
from .estimates import MeanEstimate, mean_estimate

# The stated accuracy of psucc_exact, checked against an mpmath quadrature
# of the success probability by
# tests/test_success.py::test_psucc_exact_matches_mpmath_oracle: the
# absolute error stays below MAX_ABS_ERROR. The chndtr form is verified up
# to noncentrality MAX_NONCENTRALITY (above about 3e10 chndtr returns NaN);
# the chi form has no ceiling.
MAX_NONCENTRALITY = 1e10
MAX_ABS_ERROR = 1e-11
# psucc_exact takes the chi form where d >= _CHI_MIN_D, the noncentrality
# is at least _CHI_MIN_NONCENTRALITY and r*d <= _CHI_MAX_RATE_D, and chndtr
# elsewhere. Below d = 32 the Gauss-Hermite rule fits the skewed chi
# density worse (3e-12 at d = 16, 1e-8 at d = 8); at smaller noncentrality
# the integrand's square-root edge, where s*chi reaches rho, enters the
# bulk, and _psucc_chi's dropped lower term needs s <= 0.01. At larger
# rates p in the chi region is tiny and set by the lower tail of chi,
# which the rule resolves in absolute terms only (7.6e-9 relative at
# p = 1e-85 already at r*d = 2, d = 1024; at r = 0.3, d = 64 it gives up
# to 2e-208 where chndtr gives 0), and the seam between the forms broke
# the log-concavity of p in log sbar that the band minima rely on.
_CHI_MIN_D = 32
_CHI_MIN_NONCENTRALITY = 1e4
_CHI_MAX_RATE_D = 2.0
# largest |p(d, 0, root) - p| that psucc0_inverse accepts
MAX_ROOT_MISS = 5e-10
# psucc0_inverse stops once a root's bracket on log sbar is narrower than
# ROOT_LOG_TOL, so each root is within that relative distance of the true
# one. (brentq's absolute 2e-12 would be 4e-11 relative at sbar = 0.05.)
ROOT_LOG_TOL = 1e-13
_MAX_ROOT_STEPS = 100


def _check(d: int, r: float, sigma_bar: float) -> None:
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"improvement rate must lie in [0, 1), got {r}")
    if not sigma_bar > 0.0:
        raise ValueError(f"normalized step size must be positive, got {sigma_bar}")


def psucc_mc(d: int, r: float, sigma_bar: float, n: int, rng) -> MeanEstimate:
    """Monte Carlo estimate of the success probability with rate r: the
    mean of the 0/1 success indicator, whose sum of squares is the hit
    count."""
    _check(d, r, sigma_bar)
    if n < 1:
        raise ValueError("sample count must be positive")
    hits = kernels.success_mc_hits(sigma_bar / d, 1.0 - r, d, n, rng)
    return mean_estimate(hits, hits, n)


@functools.cache
def _hermite_rule() -> tuple:
    """The 24-node Gauss-Hermite rule for the weight e^(-t^2), built on
    first use: it takes about 0.6 ms, and scipy's roots_hermite would
    import scipy.linalg, which es_drift does not otherwise load."""
    return hermgauss(24)


@functools.lru_cache(maxsize=None)
def _chi_rule(d: int) -> tuple:
    """Nodes chi^2 and weights of the Gauss-Hermite rule for E_chi over
    the chi law with d - 1 degrees of freedom.

    The rule for the weight e^(-t^2), a normal law of scale 1/sqrt(2),
    is centred at the mode mu = sqrt(d - 2), so chi = mu + t. Each weight
    carries the density ratio g(chi) e^(t^2) / g(mu), with
    log(g(chi) / g(mu)) = mu^2 log(chi / mu) - t (2 mu + t) / 2, and the
    weights are normalized to sum to 1, which leaves out the normalizing
    constant of g and its cancellation at large d. Nodes at chi <= 0,
    where the density is about 0, are dropped.
    """
    mu = math.sqrt(d - 2.0)
    t, w = _hermite_rule()
    keep = t > -mu
    t, w = t[keep], w[keep]
    w = w * np.exp(t * t + mu * mu * np.log1p(t / mu) - t * (2.0 * mu + t) / 2.0)
    return (mu + t) ** 2, w / w.sum()


def _psucc_chi(d: int, r: float, sbar: np.ndarray) -> np.ndarray:
    """The chi form of p for an array of sbar with noncentrality at least
    _CHI_MIN_NONCENTRALITY: one ndtr term per node and point.

    There s <= 0.01, so the lower term Phi(-(sqrt(rho^2 - s^2 chi^2) + 1) / s)
    is at most Phi(-100), which is 0 in double precision, and is left out.
    So is the edge where s^2 chi^2 > rho^2: a < -1/s there, so Phi(a) is
    0 too. Each point's nodes are summed within its own row, so a value
    does not depend on the other points of the call.
    """
    chi2, weights = _chi_rule(d)
    s = (sbar / d)[:, None]
    s2chi2 = s * s * chi2
    root = np.sqrt(np.maximum((1.0 - r) ** 2 - s2chi2, 0.0))
    # rho^2 - 1 = r (r - 2), exact in r
    a = (r * (r - 2.0) - s2chi2) / ((root + 1.0) * s)
    return (ndtr(a) * weights).sum(axis=1)


def psucc_exact(d: int, r: float, sigma_bars):
    """Success probability p(d, r, sbar), to absolute error MAX_ABS_ERROR.

    Returns an array shaped like ``sigma_bars`` (a float for a scalar).
    Where d >= 32, r*d <= 2 and the noncentrality (d/sbar)^2 is at least
    1e4, p is the chi form: a 24-node Gauss-Hermite sum of ndtr terms,
    which costs the same at any noncentrality and is smooth in sbar.
    Every other point is one ``chndtr`` call, whose cost grows like
    d/sbar; ``chndtr`` is not smooth at the 1e-11 level at large d. A
    value does not depend on the other points of the call. Raises
    ConvergenceError if a ``chndtr`` point's noncentrality exceeds
    MAX_NONCENTRALITY (normalized step sizes near zero at d < 32 or at
    larger rates) or if a value comes back non-finite or outside [0, 1].
    """
    sbar = np.asarray(sigma_bars, dtype=float)
    _check(d, r, float(sbar.min()))  # validates every sbar
    lam = (d / sbar) ** 2
    if d >= _CHI_MIN_D and r * d <= _CHI_MAX_RATE_D and lam.max() >= _CHI_MIN_NONCENTRALITY:
        chi = lam >= _CHI_MIN_NONCENTRALITY
        values = np.empty_like(sbar)
        values[chi] = _psucc_chi(d, r, sbar[chi])
        lam = lam[~chi]  # the ceiling binds the chndtr points only
        values[~chi] = chndtr(((1.0 - r) * d / sbar[~chi]) ** 2, d, lam)
    else:
        values = chndtr(((1.0 - r) * d / sbar) ** 2, d, lam)

    def where() -> str:
        return f"(d={d}, r={r:.6g}, sigma_bar in [{sbar.min():.6g}, {sbar.max():.6g}])"

    if (lam > MAX_NONCENTRALITY).any():
        raise ConvergenceError(f"noncentrality {lam.max():.4g} above the verified "
                               f"{MAX_NONCENTRALITY:.0e} of chndtr {where()}")
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ConvergenceError(f"success probability outside [0, 1] or not finite {where()}")
    return values if values.ndim else float(values)


def psucc_limit(rho: float, sigma_bar: float) -> float:
    """Large-dimension limit Phi(-rho/sbar - sbar/2) for r*d -> rho."""
    if rho < 0.0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    if not sigma_bar > 0.0:
        raise ValueError("normalized step size must be positive")
    return float(ndtr(-rho / sigma_bar - sigma_bar / 2.0))


def psucc0_inverse(d: int, p):
    """Normalized step size sbar with psucc_exact(d, 0, sbar) = p, to within
    MAX_ROOT_MISS, for a scalar or an array of p.

    Defined for p in (0, 1/2), the image of the rate-zero success curve,
    which decreases from 1/2 to 0 as sbar grows. Each root starts from
    the bracket [s0, 2 s0] around the large-d root s0 = -2 Phi^-1(p),
    where the finite-d curve lies above p. The upper end doubles
    and the lower end halves until the bracket holds. Then the Illinois
    variant of regula falsi (Dowell & Jarratt, BIT 1971) shrinks every
    bracket on log sbar, with one psucc_exact call per step for all roots
    still open, until the bracket on log sbar is narrower than
    ROOT_LOG_TOL. Returns an array shaped like ``p`` (a float for a scalar).
    """
    ps = np.asarray(p, dtype=float)
    if not np.all((ps > 0.0) & (ps < 0.5)):
        raise ValueError(f"p must lie in (0, 1/2), the image of the rate-0 curve; got {p}")
    targets = ps.ravel().tolist()
    n = len(targets)

    def excess(sbars: list, ks: list) -> list:
        values = np.atleast_1d(psucc_exact(d, 0.0, sbars)).tolist()
        return [v - targets[k] for v, k in zip(values, ks)]

    # bracket: f(lo) > 0 > f(hi) for every root
    lo = [-2.0 * s for s in ndtri(ps.ravel()).tolist()]
    hi = [2.0 * s for s in lo]
    while True:
        f = excess(lo + hi, list(range(n)) * 2)
        f_lo, f_hi = f[:n], f[n:]
        held = True
        for k in range(n):
            if f_hi[k] >= 0.0:
                hi[k] *= 2.0
                held = False
            if f_lo[k] <= 0.0:
                lo[k] *= 0.5
                held = False
        if held:
            break

    # Illinois on x = log sbar; b is the latest iterate and f_b its excess,
    # a the retained end, whose excess is halved each time it is kept twice.
    # As in brentq, a step is never shorter than half the tolerance, so a
    # secant that lands next to the root closes the bracket one step on.
    a = [math.log(s) for s in lo]
    b = [math.log(s) for s in hi]
    f_a, f_b = f_lo, f_hi
    open_ks = list(range(n))
    for _ in range(_MAX_ROOT_STEPS):
        if not open_ks:
            break
        xs = []
        for k in open_ks:
            step = f_b[k] * (b[k] - a[k]) / (f_b[k] - f_a[k])
            x = b[k] - math.copysign(max(abs(step), 0.5 * ROOT_LOG_TOL), b[k] - a[k])
            if not min(a[k], b[k]) < x < max(a[k], b[k]):
                x = 0.5 * (a[k] + b[k])  # rounding put the secant on an end
            xs.append(x)
        still_open = []
        for k, x, v in zip(open_ks, xs, excess([math.exp(x) for x in xs], open_ks)):
            if (v > 0.0) == (f_b[k] > 0.0):
                f_a[k] *= 0.5
            else:
                a[k], f_a[k] = b[k], f_b[k]
            b[k], f_b[k] = x, v
            if v != 0.0 and abs(b[k] - a[k]) >= ROOT_LOG_TOL:
                still_open.append(k)
        open_ks = still_open

    roots = [math.exp(x) for x in b]
    for root, miss, target in zip(roots, map(abs, f_b), targets):
        if not miss <= MAX_ROOT_MISS:
            raise ConvergenceError(f"root sigma_bar={root!r} misses p={target} by "
                                   f"{miss:.3e}")
    return np.reshape(roots, ps.shape) if ps.ndim else roots[0]
