"""Potential function, drift-constant pipeline, and truncated-drift estimation.

The potential adds to log||m|| a penalty that activates when the step
size leaves a band of normalized step sizes [ell, u]. The band ends are
the rate-zero success-curve preimages of two probabilities p_l and p_u
chosen around the 1/5 target:

    0 < p_u < 1/5 < p_l < 1/2      and      u / ell >= alpha^(5/4).

From (d, alpha, p_u, p_l) the pipeline derives the full constant set:
a truncation depth A = 1/d, a penalty weight v, improvement rates
r' >= r with band-minimal success probabilities p' <= p*, the drift
bound B as the minimum over the three step-size regimes, and the
envelope L <= B <= U with d*B bounded between positive constants.

The expected one-step potential change, truncated below at -A, is then
at most -B at every state. ``estimate_truncated_drift`` and
``drift_map`` verify this empirically by resampling one-step
transitions from fixed states.
"""

import math
import warnings
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from . import kernels
from .core import ESState
from .errors import ConfigurationError
from .estimates import MIN_MC_SAMPLES, MeanEstimate, mean_estimate
from .success import psucc_exact, psucc0_inverse
from .theorems import lower_bound_thm2, upper_bound_thm1


class Regime(str, Enum):
    """Step-size regime of a state relative to the band [ell, u]."""

    SMALL = "small_sigma"
    REASONABLE = "reasonable_sigma"
    LARGE = "large_sigma"


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

    def neutral_band(self) -> tuple[float, float]:
        """Normalized step sizes with zero penalty: [alpha*ell, alpha^(-1/4)*u]."""
        return self.alpha * self.ell, self.alpha ** -0.25 * self.u

    def classify(self, sigma_bar: float) -> Regime:
        if sigma_bar < self.ell:
            return Regime.SMALL
        if sigma_bar > self.u:
            return Regime.LARGE
        return Regime.REASONABLE

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DriftMapRow:
    """One verified grid point of the truncated-drift landscape."""

    sigma_bar: float
    regime: str
    drift_mean: float
    ci_halfwidth: float
    bound_B: float
    satisfied: bool


def _require(condition: bool, inequality: str, detail: str = "") -> None:
    if not condition:
        raise ConfigurationError(f"constraint violated: {inequality}"
                                 + (f" ({detail})" if detail else ""))


def minimize_psucc_over_band(d: int, r: float, ell: float, u: float) -> float:
    """Minimum of the rate-r success probability over sbar in [ell, u].

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
    if not 0.0 < ell < u:
        raise ValueError(f"need 0 < ell < u, got ell={ell}, u={u}")
    return float(psucc_exact(d, r, [ell, u]).min())


def derive_constants(d: int, alpha: float = 1.5, p_u: float = 0.1,
                     p_l: float = 0.3) -> DriftConstants:
    """Derive the full constant set and verify every required inequality.

    A = 1/d and v = p'/(2 d log alpha). The pre-estimate rate r' is the
    image of the cap on v; the cap 1/(d log alpha) applies when it is
    below one, otherwise the always-valid cap 1/(2 d log alpha) is used
    (p' < 1 guarantees v stays below it). Raises ConfigurationError
    naming the violated inequality otherwise.
    """
    if d < 2:
        raise ConfigurationError(f"constraint violated: d >= 2 (got {d})")
    _require(alpha > 1.0, "alpha > 1", f"alpha={alpha}")
    _require(0.0 < p_u < 0.2 < p_l < 0.5, "0 < p_u < 1/5 < p_l < 1/2",
             f"p_u={p_u}, p_l={p_l}")

    log_a = math.log(alpha)
    ell, u = psucc0_inverse(d, [p_l, p_u]).tolist()
    _require(u / ell >= alpha ** 1.25, "u / ell >= alpha^(5/4)",
             f"u/ell={u / ell:.6g}, alpha^(5/4)={alpha ** 1.25:.6g}")

    A = 1.0 / d
    if d * log_a > 1.0:
        r_prime = 1.0 - math.exp(-log_a / (d * log_a - 1.0))
    else:
        _require(2.0 * d * log_a > 1.0, "2 * d * log(alpha) > 1",
                 f"d={d}, alpha={alpha}")
        r_prime = 1.0 - math.exp(-A / (1.0 - 1.0 / (2.0 * d * log_a)))

    p_prime = minimize_psucc_over_band(d, r_prime, ell, u)
    v = p_prime / (2.0 * d * log_a)
    _require(0.0 < v < min(1.0, A / log_a), "0 < v < min(1, A / log(alpha))",
             f"v={v:.6g}")
    r = 1.0 - math.exp(-A / (1.0 - v))
    _require(r <= r_prime, "r <= r_prime", f"r={r:.6g}, r_prime={r_prime:.6g}")
    p_star = minimize_psucc_over_band(d, r, ell, u)

    term_mid = A * p_star - 1.25 * v * log_a
    term_small = v * log_a * (5.0 * p_l - 1.0) / 4.0
    term_large = v * log_a * (1.0 - 5.0 * p_u) / 4.0
    B = min(term_mid, term_small, term_large)
    # term_small/term_large equal (p'/d)*(5 p_l - 1)/8 and (p'/d)*(1 - 5 p_u)/8,
    # so reusing them keeps L <= B exact in floating point
    L = min(0.375 * p_prime / d, term_small, term_large)
    U = (p_star / d) * max(0.375, (5.0 * p_l - 1.0) / 8.0, (1.0 - 5.0 * p_u) / 8.0)
    _require(B > 0.0, "B > 0", f"B={B:.6g}")
    _require(L <= B <= U, "L <= B <= U", f"L={L:.6g}, B={B:.6g}, U={U:.6g}")

    return DriftConstants(d=d, alpha=alpha, p_u=p_u, p_l=p_l, ell=ell, u=u,
                          A=A, v=v, r=r, r_prime=r_prime, p_star=p_star,
                          p_prime=p_prime, B=B, L=L, U=U)


def potential(state: ESState, c: DriftConstants) -> float:
    """Potential V at an algorithm state; undefined at the optimum."""
    if state.d != c.d:
        raise ValueError(f"state dimension {state.d} != constants dimension {c.d}")
    return c.potential_of(state.norm, state.sigma)


def _drift_estimates(norm: float, sigmas, c: DriftConstants, n: int,
                     rng) -> list[MeanEstimate]:
    """Truncated-drift estimates at (norm, sigma) for each sigma, all
    scored on one pool of n draws from rng."""
    if n < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} transitions for a "
                         "stable estimate")
    sums = kernels.truncated_drift_sums(norm, sigmas, c.d, c.alpha, c.ell, c.u,
                                        c.v, c.A, n, rng)
    estimates = []
    for y_fail, total, total_sq in zip(*(x.tolist() for x in sums)):
        # the sums are of y - y_fail, so a constant increment has no spread
        shifted = mean_estimate(total, total_sq, n)
        estimates.append(replace(shifted, mean=y_fail + shifted.mean))
    return estimates


def estimate_truncated_drift(state: ESState, c: DriftConstants, n: int,
                             rng) -> MeanEstimate:
    """Monte Carlo mean of the truncated potential change at a fixed state.

    Each of the n transitions resamples the offspring from the same
    state (a conditional expectation, not a trajectory average); the
    half-width is a 99% normal-approximation confidence radius.
    """
    if state.d != c.d:
        raise ValueError(f"state dimension {state.d} != constants dimension {c.d}")
    norm = state.norm
    if norm == 0.0:
        raise ValueError("drift undefined at the optimum (||m|| = 0)")
    (estimate,) = _drift_estimates(norm, [state.sigma], c, n, rng)
    return estimate


def drift_map(d: int, c: DriftConstants, sigma_bar_grid, n: int,
              rng) -> list[DriftMapRow]:
    """Truncated-drift estimate at ||m|| = 1 states across a step-size grid.

    Every grid point scores the same n draws from rng, drawn for the
    smallest step size of the grid (common random numbers), so the rows
    are correlated and each ``ci_halfwidth`` is that row's own (marginal)
    99% interval. A row depends only on its own sigma_bar and the grid
    minimum: reordering the grid reorders the rows, and adding points at
    or above the minimum leaves the other rows unchanged.
    """
    grid = [float(s) for s in sigma_bar_grid]
    if not grid:
        raise ValueError("sigma_bar_grid must be non-empty")
    if not all(s > 0.0 for s in grid):
        raise ValueError("sigma_bar_grid entries must be positive")
    if d != c.d:
        raise ValueError(f"d={d} does not match constants (d={c.d})")
    estimates = _drift_estimates(1.0, np.array(grid) / d, c, n, rng)
    return [DriftMapRow(sigma_bar=sigma_bar, regime=c.classify(sigma_bar).value,
                        drift_mean=est.mean, ci_halfwidth=est.half_width,
                        bound_B=c.B,
                        satisfied=bool(est.mean + est.half_width <= -c.B))
            for sigma_bar, est in zip(grid, estimates)]


def hitting_time_bounds(state0: ESState, c: DriftConstants,
                        epsilon: float) -> tuple[float, float]:
    """Expected-hitting-time bounds for reaching ||m|| <= epsilon.

    lower = ``lower_bound_thm2(log||m0||, log eps, C=1/d)``,
    upper = ``upper_bound_thm1(V(state0), log eps, A, B)``.
    A start already inside the target yields vacuous values and a warning.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    norm0 = state0.norm
    if epsilon >= norm0:
        warnings.warn("trivial instance: epsilon >= ||m0||, bounds are vacuous",
                      stacklevel=2)
    log_eps = math.log(epsilon)
    lower = lower_bound_thm2(math.log(norm0), log_eps, 1.0 / c.d)
    upper = upper_bound_thm1(potential(state0, c), log_eps, c.A, c.B)
    return lower, upper
