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
a conservative accounting of the oracle's progress. The vector line
search itself lives with the test references (``tests/reference.py``).
"""

import warnings

from scipy.special import digamma

from . import kernels
from .estimates import MIN_MC_SAMPLES, MeanEstimate, mean_estimate
from .kernels import LOG_PROGRESS_CAP


def expected_log_progress_mc(ds, n: int, rng) -> MeanEstimate:
    """Monte Carlo means of the acute-angle log progress, as one
    MeanEstimate whose mean and half_width are arrays over ``ds``.

    ``ds`` is a strictly increasing sequence of dimensions. All of them
    score one pool of n draws from ``rng``
    (``kernels.har_log_progress_pool_sums``): z0 is drawn once, so the
    estimates are correlated, and each half-width is that estimate's own
    (marginal) 99% interval. The first estimate equals that of the
    one-dimension list ``[ds[0]]`` on the same stream, bit for bit, while n
    is at most one chunk of draws (kernels._CHUNK, 2^20).
    """
    ds = list(ds)
    if not ds:
        raise ValueError("need at least one dimension")
    if ds[0] < 2:
        raise ValueError("dimension must be at least 2 (angle density needs it)")
    if any(b <= a for a, b in zip(ds, ds[1:])):
        raise ValueError(f"dimensions must be strictly increasing, got {ds}")
    if n < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples for a stable estimate")
    total, total_sq, capped = kernels.har_log_progress_pool_sums(ds, n, rng)
    for d, count in zip(ds, capped.tolist()):
        if count:
            warnings.warn(f"{count} collinear draws capped at {LOG_PROGRESS_CAP}"
                          f" in dimension {d}", stacklevel=2)
    return mean_estimate(total, total_sq, n)


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
    if not d >= 2:
        raise ValueError("dimension must be at least 2")
    return float(digamma(d / 2.0) - digamma((d - 1) / 2.0)) / 4.0
