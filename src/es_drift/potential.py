"""Potential function, drift-constant pipeline, and truncated-drift estimation.

The potential adds to log||m|| a penalty that activates when the step
size leaves a band of normalized step sizes [ell, u]. The band ends are
the rate-zero success-curve preimages of two probabilities p_l and p_u
chosen around the 1/5 target:

    0 < p_u < 1/5 < p_l < 1/2      and      u / ell >= alpha^(5/4).

From (d, alpha, p_u, p_l) the pipeline derives the full constant set:
a truncation depth A = 1/d, a penalty weight v, improvement rates
r' >= r with band-minimal success probabilities p' <= p*, the drift
bound B = L, the smaller outer-regime term (the lemma of derive_constants),
and U >= B, with d*B bounded between positive constants.

The expected one-step potential change, truncated below at -A, is then
at most -B at every state. By scale invariance that drift depends on the
normalized step size alone, so ``drift_map`` verifies it empirically at
||m|| = 1 across a grid of step sizes, by resampling one-step
transitions from each fixed state.

Truncation is what makes that drift bound a hitting-time bound. A
process whose potential can fall arbitrarily far in one step admits no
hitting-time bound from its drift alone. Cutting single-step moves at
-A fixes this; the truncated process Y satisfies Y_0 = X_0,

    Y_{t+1} - Y_t = max(X_{t+1} - X_t, -A)  >= -A,     X_t <= Y_t,

so a drift bound of -B on Y yields E[T] <= (x0 - beta + A) / B for the
first time X reaches (-inf, beta] (``upper_bound_thm1``). For
non-increasing processes with one-step drift at least -C the matching
lower bound is (x0 - beta) / (4C) - 1/2 (``lower_bound_thm2``).
Callers supplying their own processes are responsible for integrability
of the truncated process; the calculators only check the constants.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import ESState
from .errors import ConfigurationError, ConvergenceError
from .estimates import MIN_MC_SAMPLES, MeanEstimate, mean_estimate
from .success import psucc_exact, psucc0_inverse


@dataclass(frozen=True)
class DriftConstants:
    """Derived constant set for one (d, alpha, p_u, p_l) configuration."""

    d: int
    alpha: float
    p_u: float
    p_l: float
    ell: float
    u: float
    A: float
    v: float
    r: float
    r_prime: float
    p_star: float
    p_prime: float
    B: float
    L: float
    U: float

    def potential_of(self, norm_m: float, sigma: float) -> float:
        """Potential at a state given by its norm and step size."""
        if not norm_m > 0.0:
            raise ValueError("potential undefined at the optimum (||m|| = 0)")
        if not sigma > 0.0:
            raise ValueError("sigma must be positive")
        return float(kernels.potential_value(
            norm_m, sigma, self.d, self.alpha, self.ell, self.u, self.v))


def _require(condition: bool, inequality: str, detail: str = "") -> None:
    if not condition:
        raise ConfigurationError(f"constraint violated: {inequality}"
                                 + (f" ({detail})" if detail else ""))


def minimize_psucc_over_band(d, r, ell, u):
    """Minimum of the rate-r success probability over sbar in [ell, u].

    d, r, ell and u broadcast against each other; the result has their
    broadcast shape (a float when all are scalars), and all the band ends
    go to one psucc_exact call.

    The minimum is the smaller band-end value, because p(d, r, sbar) is
    log-concave in log sbar. Write N = R U with R = ||N|| and U uniform
    on the sphere, and rho = 1 - r. Given R, success is the cap
    U_0 < c(log R - log(d / sbar)) with c(x) = -((1 - rho^2) e^-x + e^x) / 2,
    which is concave and <= 0. The CDF of U_0 is log-concave on u <= 0:
    for d >= 3 its density, proportional to (1 - u^2)^((d-3)/2), is
    log-concave; for the d = 2 arcsine law the CDF is phi / pi at
    u = -cos(phi), and d/du log(phi / pi) = 1 / (phi sin(phi)) decreases
    because -phi cos(phi) - sin(phi) < 0 on (0, pi/2]. A nondecreasing
    log-concave function of a concave one is log-concave, and log R has
    the log-concave density proportional to exp(d y - e^(2y) / 2). So the
    integrand is jointly log-concave in (log R, log sbar), and Prekopa's
    marginal theorem (Acta Sci. Math. 1973) makes p log-concave in
    log sbar: it has no interior minimum.
    """
    ds, rs, ells, us = np.broadcast_arrays(d, r, ell, u)
    if not np.all((0.0 < ells) & (ells < us)):
        raise ValueError(f"need 0 < ell < u, got ell={ell}, u={u}")
    ends = np.stack((ells, us), axis=-1)
    minima = np.asarray(psucc_exact(ds[..., None], rs[..., None], ends)).min(axis=-1)
    return minima if minima.ndim else float(minima)


def derive_constants(d, alpha: float = 1.5, p_u: float = 0.1, p_l: float = 0.3):
    """Derive the full constant set and verify every required inequality,
    for one d or for each d of a sequence.

    A = 1/d and v = p'/(2 d log alpha). The pre-estimate rate r' is the
    image of the cap on v; the cap 1/(d log alpha) applies when it is
    below one, otherwise the always-valid cap 1/(2 d log alpha) is used
    (p' < 1 guarantees v stays below it). Raises ConfigurationError
    naming the violated inequality otherwise.

    The paper's B is the least of three regime terms: A p* - 1.25 v log(alpha)
    in the band, v log(alpha) (5 p_l - 1)/4 below it and v log(alpha) (1 - 5 p_u)/4
    above it; L = min(0.375 p'/d, the outer terms) and
    U = (p*/d) max(0.375, (5 p_l - 1)/8, (1 - 5 p_u)/8). Lemma: for every
    accepted input B = L = p' min(5 p_l - 1, 1 - 5 p_u)/(8d) and U = 0.375 p*/d.
    Proof: r <= r' gives p* >= p', so with v log(alpha) = p'/(2d) the in-band
    term (p* - 0.625 p')/d >= 0.375 p'/d exceeds both outer terms, each below
    0.1875 p'/d. So the in-band term is not computed.

    For a sequence of d, returns one DriftConstants per d, in order, from
    about 11 psucc_exact calls for the whole list: the band ends of every
    d come from one psucc0_inverse call and each band minimum from one
    minimize_psucc_over_band call. Each set is bit-identical to the set
    derived for its d alone. If some d fails, the call raises what the
    first failing d in list order raises alone, found by deriving each d
    alone in list order.
    """
    if np.ndim(d) == 0:
        return derive_constants([d], alpha, p_u, p_l)[0]
    ds = [operator.index(k) for k in d]
    try:
        return _constant_sets(ds, alpha, p_u, p_l)
    except (ValueError, ConvergenceError) as exc:
        failure = exc
    # the batch stops at the first failing stage, whose d need not be the
    # first failing d; alone, each d raises its own error
    for k in ds:
        _constant_sets([k], alpha, p_u, p_l)
    raise failure


def _constant_sets(ds: list, alpha: float, p_u: float, p_l: float) -> list:
    """derive_constants for a list of d, every stage in one call for all d;
    raises the first violation found, stage by stage."""
    for d in ds:
        if d < 2:
            raise ConfigurationError(f"constraint violated: d >= 2 (got {d})")
    _require(alpha > 1.0, "alpha > 1", f"alpha={alpha}")
    _require(0.0 < p_u < 0.2 < p_l < 0.5, "0 < p_u < 1/5 < p_l < 1/2",
             f"p_u={p_u}, p_l={p_l}")
    if not ds:
        return []

    log_a = math.log(alpha)
    try:
        band_ratio = alpha ** 1.25
    except OverflowError:  # alpha above about 1e247
        band_ratio = math.inf
    dims = np.array(ds)
    bands = psucc0_inverse(dims[:, None], [p_l, p_u])
    ells, us = bands.T
    r_primes = []
    for d, (ell, u) in zip(ds, bands.tolist()):
        _require(u / ell >= band_ratio, "u / ell >= alpha^(5/4)",
                 f"u/ell={u / ell:.6g}, alpha^(5/4)={band_ratio:.6g}")
        if d * log_a > 1.0:
            r_primes.append(1.0 - math.exp(-log_a / (d * log_a - 1.0)))
        else:
            _require(2.0 * d * log_a > 1.0, "2 * d * log(alpha) > 1",
                     f"d={d}, alpha={alpha}")
            r_primes.append(1.0 - math.exp(-(1.0 / d) / (1.0 - 1.0 / (2.0 * d * log_a))))

    p_primes = minimize_psucc_over_band(dims, r_primes, ells, us).tolist()
    vs, rs = [], []
    for d, r_prime, p_prime in zip(ds, r_primes, p_primes):
        A = 1.0 / d
        v = p_prime / (2.0 * d * log_a)
        _require(0.0 < v < min(1.0, A / log_a), "0 < v < min(1, A / log(alpha))",
                 f"v={v:.6g}")
        r = 1.0 - math.exp(-A / (1.0 - v))
        _require(r <= r_prime, "r <= r_prime", f"r={r:.6g}, r_prime={r_prime:.6g}")
        vs.append(v)
        rs.append(r)
    p_stars = minimize_psucc_over_band(dims, rs, ells, us).tolist()

    sets = []
    for d, (ell, u), v, r, r_prime, p_star, p_prime in zip(
            ds, bands.tolist(), vs, rs, r_primes, p_stars, p_primes):
        B = v * log_a * min(5.0 * p_l - 1.0, 1.0 - 5.0 * p_u) / 4.0
        L = B
        U = (p_star / d) * 0.375
        _require(B > 0.0, "B > 0", f"B={B:.6g}")
        _require(L <= B <= U, "L <= B <= U", f"L={L:.6g}, B={B:.6g}, U={U:.6g}")
        sets.append(DriftConstants(d=d, alpha=alpha, p_u=p_u, p_l=p_l, ell=ell, u=u,
                                   A=1.0 / d, v=v, r=r, r_prime=r_prime, p_star=p_star,
                                   p_prime=p_prime, B=B, L=L, U=U))
    return sets


def drift_map(c: DriftConstants, sigma_bar_grid, n: int, rng) -> MeanEstimate:
    """Truncated-drift estimate at ||m|| = 1 states across a step-size grid,
    as one MeanEstimate whose mean and half_width are arrays over the grid.

    Each of the n transitions resamples the offspring from the same state
    (a conditional expectation, not a trajectory average). Every grid
    point scores the same n draws from rng, drawn for the smallest step
    size of the grid (common random numbers), so the estimates are
    correlated and each half-width is that point's own (marginal) 99%
    normal-approximation interval. An estimate depends only on its own
    sigma_bar and the grid minimum: reordering the grid reorders the
    estimates, and adding points at or above the minimum leaves the others
    unchanged.
    """
    grid = [float(s) for s in sigma_bar_grid]
    if not grid:
        raise ValueError("sigma_bar_grid must be non-empty")
    if not all(0.0 < s < math.inf for s in grid):
        raise ValueError("sigma_bar_grid entries must be finite and positive")
    if n < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} transitions for a "
                         "stable estimate")
    y_fail, total, total_sq = kernels.truncated_drift_sums(
        1.0, np.array(grid) / c.d, c.d, c.alpha, c.ell, c.u, c.v, c.A, n, rng)
    # the sums are of y - y_fail, so a constant increment has no spread
    shifted = mean_estimate(total, total_sq, n)
    return MeanEstimate(mean=y_fail + shifted.mean, half_width=shifted.half_width, n=n)


def upper_bound_thm1(x0: float, beta: float, A: float, B: float) -> float:
    """(x0 - beta + A) / B, the truncated-drift expected-hitting-time bound.

    Requires a truncated drift of at most -B at truncation depth A and
    an integrable truncated process. A start at or below beta is a
    trivial instance with bound 0.
    """
    if not A > 0.0:
        raise ValueError("truncation depth A must be positive")
    if not B > 0.0:
        raise ValueError("drift bound B must be positive")
    if beta >= x0:
        return 0.0
    return (x0 - beta + A) / B


def lower_bound_thm2(x0: float, beta: float, C: float) -> float:
    """(x0 - beta) / (4C) - 1/2 for non-increasing processes with drift >= -C.

    The monotonicity and drift conditions are asserted by the caller.
    Vacuous (possibly negative) when beta >= x0.
    """
    if not C > 0.0:
        raise ValueError("drift magnitude C must be positive")
    return (x0 - beta) / (4.0 * C) - 0.5


def hitting_time_bounds(state0: ESState, c: DriftConstants,
                        epsilon: float) -> tuple[float, float]:
    """Expected-hitting-time bounds for reaching ||m|| <= epsilon.

    lower = ``lower_bound_thm2(log||m0||, log eps, C=1/d)``,
    upper = ``upper_bound_thm1(V(state0), log eps, A, B)``.
    A start already inside the target (epsilon >= ||m0||) gets a vacuous lower
    bound of at most -1/2, and an upper bound of 0 where V(state0) <= log eps.
    """
    if state0.d != c.d:
        raise ValueError(f"state dimension {state0.d} != constants dimension {c.d}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and positive")
    norm0 = state0.norm
    log_eps = math.log(epsilon)
    lower = lower_bound_thm2(math.log(norm0), log_eps, 1.0 / c.d)
    upper = upper_bound_thm1(c.potential_of(norm0, state0.sigma), log_eps, c.A, c.B)
    return lower, upper
