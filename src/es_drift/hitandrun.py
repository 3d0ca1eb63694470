"""Line-search progress oracle: the best possible step along a sampled direction.

For a direction delta sampled at the current point m, the line minimizer
of the sphere objective lands at x* = m + gamma* delta with
gamma* = -(m . delta) / ||delta||^2, and ||x*|| = ||m|| |sin(theta)| for
theta the angle between delta and m. Because the elitist step either
stays at m or moves to m + delta, which lies on the same line, the
oracle's log progress dominates the strategy's log progress for every
shared draw. Its expectation is what the hitting-time lower bound rests
on: the acute-angle expression

    E[ -log(sin(theta)) * 1{theta <= pi/2} ],   theta = angle(N, e1),

is at most 1/d in dimension d >= 2; ``expected_log_progress_exact``
gives it in closed form and shows the ceiling. Obtuse angles also
shrink the norm under the unconstrained line minimizer; the acute-angle
indicator deliberately drops that extra progress, so the expression is
a conservative accounting of the oracle's progress, and ``har_step``
reports the unrestricted value.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from . import kernels
from .estimates import MIN_MC_SAMPLES, MeanEstimate, mean_estimate
from .kernels import LOG_PROGRESS_CAP


@dataclass(frozen=True)
class HarSample:
    """An angle draw and its acute-angle log progress."""

    theta: float
    log_progress: float

    @classmethod
    def from_theta(cls, theta: float) -> "HarSample":
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        if theta > math.pi / 2.0:
            lp = 0.0
        elif theta == 0.0:
            lp = LOG_PROGRESS_CAP
        else:
            lp = min(-math.log(math.sin(theta)), LOG_PROGRESS_CAP)
        return cls(theta=theta, log_progress=lp)


def sample_angle(d: int, rng) -> HarSample:
    """Angle of a standard Gaussian direction to the first axis."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    g = rng.standard_normal(d)
    theta = math.atan2(float(np.linalg.norm(g[1:])), float(g[0]))
    return HarSample.from_theta(theta)


def optimal_gamma(m, delta) -> float:
    """Step length minimizing ||m + gamma*delta||^2 along delta."""
    m = np.asarray(m, dtype=float)
    delta = np.asarray(delta, dtype=float)
    denom = float(delta @ delta)
    if denom == 0.0:
        raise ValueError("degenerate direction: delta must be non-zero")
    return -float(m @ delta) / denom


def har_step(m, sigma: float, rng) -> tuple[np.ndarray, float]:
    """Sample delta ~ sigma * N(0, I) and move to the line minimizer.

    Returns (x*, log||m|| - log||x*||); the log progress is non-negative
    and capped at LOG_PROGRESS_CAP on a measure-zero collinear hit.
    """
    m = np.asarray(m, dtype=float)
    norm = float(np.linalg.norm(m))
    if norm == 0.0:
        raise ValueError("already at the optimum (||m|| = 0)")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    delta = sigma * rng.standard_normal(m.size)
    x_star = m + optimal_gamma(m, delta) * delta
    norm_star = float(np.linalg.norm(x_star))
    if norm_star == 0.0:
        return x_star, LOG_PROGRESS_CAP
    lp = math.log(norm) - math.log(norm_star)
    return x_star, min(max(lp, 0.0), LOG_PROGRESS_CAP)


def expected_log_progress_mc(ds, n: int, rng) -> list[MeanEstimate]:
    """Monte Carlo means of the acute-angle log progress, one per dimension.

    ``ds`` is a strictly increasing sequence of dimensions. All of them
    score one pool of n draws from ``rng``
    (``kernels.har_log_progress_pool_sums``): z0 is drawn once, so the
    estimates are correlated, and each half-width is that estimate's own
    (marginal) 99% interval. The first estimate equals that of the
    one-dimension list ``[ds[0]]`` on the same stream, bit for bit, while n
    is at most one chunk of draws (kernels._CHUNK, 2^20).
    """
    ds = list(ds)
    if not ds or ds[0] < 2:
        raise ValueError("dimension must be at least 2 (angle density needs it)")
    if any(b <= a for a, b in zip(ds, ds[1:])):
        raise ValueError(f"dimensions must be strictly increasing, got {ds}")
    if n < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples for a stable estimate")
    sums = kernels.har_log_progress_pool_sums(ds, n, rng)
    estimates = []
    for d, total, total_sq, capped in zip(ds, *(x.tolist() for x in sums)):
        if capped:
            warnings.warn(f"{capped} collinear draws capped at {LOG_PROGRESS_CAP}"
                          f" in dimension {d}", stacklevel=2)
        estimates.append(mean_estimate(total, total_sq, n))
    return estimates


def expected_log_progress_exact(d: int) -> float:
    """Expected acute-angle log progress, (psi(d/2) - psi((d-1)/2)) / 4.

    t = sin^2(theta) ~ Beta((d-1)/2, 1/2) does not depend on whether theta
    is acute, which has probability 1/2, so the expectation is -E[log t]/4
    with E[log t] = psi((d-1)/2) - psi(d/2) for the digamma function psi.
    The 1/d ceiling follows because psi is increasing with
    psi(x + 1) - psi(x) = 1/x. At x = (d-1)/2,

        psi(x + 1/2) - psi(x) <= psi(x + 1) - psi(x) = 1/x,

    so the value is at most 1/(2(d-1)) <= 1/d for every d >= 2.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return float(digamma(d / 2.0) - digamma((d - 1) / 2.0)) / 4.0
