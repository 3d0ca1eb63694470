"""Exact success probabilities of the sphere step.

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
without the cancellation of two numbers near 1. The Gauss rule of the
chi^2_{d-1} law itself, a function of d alone, makes each value a sum of
ndtr terms, at a cost that does not depend on lambda, and a smooth
function of sbar.

For r = 0 the curve is strictly decreasing in sbar with image (0, 1/2),
which makes it invertible by bracketed root finding. As d -> infinity
with r*d -> rho the curve converges to Phi(-rho/sbar - sbar/2).
"""

import functools
import math

import numpy as np
from scipy.special import chndtr, ndtr, ndtri

from .errors import ConvergenceError

# The stated accuracy of psucc_exact, checked against an mpmath quadrature
# of the success probability by
# tests/test_success.py::test_psucc_exact_matches_mpmath_oracle: the
# absolute error stays below MAX_ABS_ERROR. The chndtr form is verified up
# to noncentrality MAX_NONCENTRALITY (above about 3e10 chndtr returns NaN);
# the chi form has no ceiling.
MAX_NONCENTRALITY = 1e10
MAX_ABS_ERROR = 1e-11
# psucc_exact takes the chi form where the noncentrality is at least
# _CHI_MIN_NONCENTRALITY and r*max(d, 32) <= _CHI_MAX_RATE_D, and chndtr
# elsewhere. At smaller noncentrality the integrand's square-root edge,
# where s*chi reaches rho, enters the bulk, and _psucc_chi's dropped lower
# term needs s <= 0.01. At larger rates p in the chi region is tiny and
# set by the lower tail of chi, which the rule resolves in absolute terms
# only (at r = 0.3, d = 64 it gives up to 6e-203 where chndtr gives 0),
# and the seam between the forms breaks the log-concavity of p in log
# sbar that the band minima rely on. Below d = 32 the cap is r <= 1/16:
# with r*d <= 2 alone, the seam, at p near 1e-203, breaks it at d = 2
# and 3 for r = 0.3 and at d = 3 for r = 1/3.
_CHI_MIN_NONCENTRALITY = 1e4
_CHI_MAX_RATE_D = 2.0
# largest |p(d, 0, root) - p| that psucc0_inverse accepts
MAX_ROOT_MISS = 5e-10
# psucc0_inverse stops once a root's bracket on log sbar is narrower than
# ROOT_LOG_TOL, so each root is within that relative distance of the true
# one. (brentq's absolute 2e-12 would be 4e-11 relative at sbar = 0.05.)
ROOT_LOG_TOL = 1e-13
_MAX_ROOT_STEPS = 100


def _check(d: np.ndarray, r: np.ndarray, sigma_bar: np.ndarray) -> None:
    """Raise ValueError for the first invalid d, r or sbar, given as
    non-empty arrays of any one shape."""
    if d.dtype.kind not in "iu":
        raise ValueError(f"dimension must be an integer, got {d.dtype} values")
    # a NaN fails every comparison
    if d.min() >= 1 and r.min() >= 0.0 and r.max() < 1.0 and sigma_bar.min() > 0.0:
        return
    for ok, message, values in ((d >= 1, "dimension must be positive", d),
                                ((r >= 0.0) & (r < 1.0),
                                 "improvement rate must lie in [0, 1)", r),
                                (sigma_bar > 0.0,
                                 "normalized step size must be positive", sigma_bar)):
        if not ok.all():
            raise ValueError(f"{message}, got {values[~ok][0]}")


def _full(x: np.ndarray, shape: tuple) -> np.ndarray:
    """x broadcast to shape, as a flat array."""
    if x.shape != shape:
        full = np.empty(shape, x.dtype)
        full[...] = x
        x = full
    return x.ravel()


@functools.cache
def _chi_rule(d: int) -> tuple:
    """Nodes chi^2 and weights of the 16-node Gauss rule for E_chi over
    the chi law with d - 1 degrees of freedom (Golub & Welsch, Math.
    Comp. 23, 1969).

    chi^2 / 2 follows the gamma law of shape a = (d - 1)/2, whose monic
    orthogonal polynomials (the Laguerre ones of parameter a - 1) have
    the Jacobi matrix with diagonal 2k + a and sub-diagonal
    sqrt(k (k + a - 1)). Its eigenvalues, doubled, are the nodes, and the
    squared first components of its unit eigenvectors are the weights,
    which sum to 1. The rule is exact for polynomials in chi^2 of degree
    up to 31 at every d; at d = 1 it is the one node 0 of weight 1.
    """
    a = (d - 1) / 2.0
    k = np.arange(16.0)
    off = np.sqrt(k[1:] * (k[1:] + a - 1.0))
    nodes, vectors = np.linalg.eigh(np.diag(2.0 * k + a) + np.diag(off, 1) + np.diag(off, -1))
    return 2.0 * nodes, vectors[0] ** 2


def _psucc_chi(d: np.ndarray, r: np.ndarray, sbar: np.ndarray) -> np.ndarray:
    """The chi form of p at points (d, r, sbar), flat arrays of one length,
    each with noncentrality at least _CHI_MIN_NONCENTRALITY: one ndtr term
    per node and point.

    There s <= 0.01, so the lower term Phi(-(sqrt(rho^2 - s^2 chi^2) + 1) / s)
    is at most Phi(-100), which is 0 in double precision, and is left out.
    So is the edge where s^2 chi^2 > rho^2: a < -1/s there, so Phi(a) is
    0 too. Every d's rule has 16 nodes, so the rules of the call's
    dimensions stack into one node table; each point's row is its own
    d's rule, summed within that row, so a value does not depend on the
    other points of the call.
    """
    kinds, which = np.unique(d, return_inverse=True)
    rules = [_chi_rule(k) for k in kinds.tolist()]
    chi2 = np.array([c for c, _ in rules])[which]
    weights = np.array([w for _, w in rules])[which]
    # rho^2 by Python's float power, with which every published value was
    # computed; numpy's square differs from it in the last bit for about 1
    # rate in 2000
    rho2 = np.array([(1.0 - x) ** 2 for x in r.tolist()])
    s = (sbar / d)[:, None]
    rate = r[:, None]
    s2chi2 = s * s * chi2
    root = np.sqrt(np.maximum(rho2[:, None] - s2chi2, 0.0))
    # rho^2 - 1 = r (r - 2), exact in r
    a = (rate * (rate - 2.0) - s2chi2) / ((root + 1.0) * s)
    return (ndtr(a) * weights).sum(axis=1)


def psucc_exact(d, r, sigma_bars):
    """Success probability p(d, r, sbar), to absolute error MAX_ABS_ERROR.

    d, r and ``sigma_bars`` broadcast against each other, so one call
    evaluates any mix of dimensions, rates and step sizes; it returns an
    array of the broadcast shape (a float when all three are scalars).
    Where r*max(d, 32) <= 2 (r*d <= 2 from d = 32 on, r <= 1/16 below)
    and the noncentrality (d/sbar)^2 is at least 1e4, p is the chi form:
    a sum of ndtr terms over the 16-node Gauss rule of the chi^2_{d-1}
    law, which costs the same at any noncentrality and is smooth in sbar.
    Every other point goes to one ``chndtr`` call for the whole array,
    whose cost grows like d/sbar; ``chndtr`` is not smooth at the 1e-11
    level at large d. A value does not depend on the other points of the
    call: it is bit-identical to a one-point call. Raises ConvergenceError,
    naming the first failing point in flat order, if a ``chndtr`` point's
    noncentrality exceeds MAX_NONCENTRALITY (normalized step sizes near
    zero at rates above the chi form's cap) or if a value comes back
    non-finite or outside [0, 1].
    """
    ds, rs, sbar = (np.asarray(d), np.asarray(r, dtype=float),
                    np.asarray(sigma_bars, dtype=float))
    shape = np.broadcast(ds, rs, sbar).shape
    ds, rs, sbar = _full(ds, shape), _full(rs, shape), _full(sbar, shape)
    _check(ds, rs, sbar)
    lam = (ds / sbar) ** 2
    chi = (lam >= _CHI_MIN_NONCENTRALITY) & (rs * np.maximum(ds, 32) <= _CHI_MAX_RATE_D)
    values = np.empty_like(sbar)
    if chi.any():
        values[chi] = _psucc_chi(ds[chi], rs[chi], sbar[chi])
    plain = ~chi
    chndtr(((1.0 - rs) * ds / sbar) ** 2, ds, lam, out=values, where=plain)
    # the ceiling binds the chndtr points only; a NaN fails every comparison
    if not (values.min() >= 0.0 and values.max() <= 1.0
            and lam.max(where=plain, initial=0.0) <= MAX_NONCENTRALITY):
        over = plain & (lam > MAX_NONCENTRALITY)
        k = int((over | ~((values >= 0.0) & (values <= 1.0))).argmax())
        where = f"(d={ds[k]}, r={rs[k]:.6g}, sigma_bar={sbar[k]:.6g})"
        if over[k]:
            raise ConvergenceError(f"noncentrality {lam[k]:.4g} above the verified "
                                   f"{MAX_NONCENTRALITY:.0e} of chndtr {where}")
        raise ConvergenceError(f"success probability {values[k]!r} outside [0, 1] "
                               f"or not finite {where}")
    return values.reshape(shape) if shape else float(values[0])


def psucc_limit(rho: float, sigma_bar: float) -> float:
    """Large-dimension limit Phi(-rho/sbar - sbar/2) for r*d -> rho."""
    if not rho >= 0.0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    if not sigma_bar > 0.0:
        raise ValueError("normalized step size must be positive")
    return float(ndtr(-rho / sigma_bar - sigma_bar / 2.0))


def psucc0_inverse(d, p):
    """Normalized step size sbar with psucc_exact(d, 0, sbar) = p, to within
    MAX_ROOT_MISS, for every pair of the broadcast of d and p.

    Defined for p in (0, 1/2), the image of the rate-zero success curve,
    which decreases from 1/2 to 0 as sbar grows. Each root starts from
    the bracket [s0, 2 s0] around the large-d root s0 = -2 Phi^-1(p),
    where the finite-d curve lies above p. The upper end doubles
    and the lower end halves until the bracket holds. Then the Illinois
    variant of regula falsi (Dowell & Jarratt, BIT 1971) shrinks every
    bracket on log sbar, with one psucc_exact call per step for all roots
    of all d still open, until the bracket on log sbar is narrower than
    ROOT_LOG_TOL. A root does not depend on the other roots of the call.
    Returns an array of the broadcast shape (a float when d and p are
    scalars).
    """
    ds, targets = np.asarray(d), np.asarray(p, dtype=float)
    if not ((targets > 0.0) & (targets < 0.5)).all():
        raise ValueError(f"p must lie in (0, 1/2), the image of the rate-0 curve; got {p}")
    shape = np.broadcast(ds, targets).shape
    ds, targets = _full(ds, shape), _full(targets, shape)

    # bracket: f(lo) > 0 > f(hi) for every root
    lo = -2.0 * ndtri(targets)
    hi = 2.0 * lo
    while True:
        f_lo, f_hi = psucc_exact(ds, 0.0, np.stack((lo, hi))) - targets
        grow, shrink = f_hi >= 0.0, f_lo <= 0.0
        if not (grow | shrink).any():
            break
        hi[grow] *= 2.0
        lo[shrink] *= 0.5

    # Illinois on x = log sbar; b is the latest iterate and f_b its excess,
    # a the retained end, whose excess is halved each time it is kept twice.
    # As in brentq, a step is never shorter than half the tolerance, so a
    # secant that lands next to the root closes the bracket one step on.
    # Logs and exps are math's: numpy's SIMD loops differ from them in the
    # last bit for some arguments, and so would move the published roots.
    a = np.array([math.log(s) for s in lo.tolist()])
    b = np.array([math.log(s) for s in hi.tolist()])
    f_a, f_b = f_lo, f_hi
    for _ in range(_MAX_ROOT_STEPS):
        # a step moves the open roots only, by their positions k
        k = np.flatnonzero((f_b != 0.0) & (np.abs(b - a) >= ROOT_LOG_TOL))
        if not k.size:
            break
        ak, bk, fa, fb = a[k], b[k], f_a[k], f_b[k]
        step = fb * (bk - ak) / (fb - fa)
        x = bk - np.copysign(np.maximum(np.abs(step), 0.5 * ROOT_LOG_TOL), bk - ak)
        # rounding may put the secant on an end
        x = np.where((np.minimum(ak, bk) < x) & (x < np.maximum(ak, bk)), x,
                     0.5 * (ak + bk))
        v = psucc_exact(ds[k], 0.0, np.array([math.exp(t) for t in x.tolist()])) - targets[k]
        kept = (v > 0.0) == (fb > 0.0)
        f_a[k] = np.where(kept, 0.5 * fa, fb)
        a[k] = np.where(kept, ak, bk)
        b[k], f_b[k] = x, v

    roots = [math.exp(x) for x in b.tolist()]
    misses = np.abs(f_b)
    if not np.all(misses <= MAX_ROOT_MISS):
        k = int((~(misses <= MAX_ROOT_MISS)).argmax())
        raise ConvergenceError(f"root sigma_bar={roots[k]!r} at d={ds[k]} misses "
                               f"p={targets[k].item()} by {misses[k]:.3e}")
    return np.reshape(roots, shape) if shape else roots[0]
