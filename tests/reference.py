"""Reference implementations that the tests compare es_drift against.

No driver runs these, so they live with the tests. ``es_step``,
``sample_angle`` and ``har_step`` draw the full d-vector of a Gaussian
step where the package's kernels draw only the pair (z0, chi2), so a
kernel that agrees with them in distribution checks that reduction.
``psucc_mc`` estimates a success probability as a hit count, the Monte
Carlo check of ``psucc_exact``. ``truncate_series``,
``first_hitting_time`` and ``simulate_jump_process`` illustrate the
truncation that ``es_drift.potential``'s upper bound rests on: the
truncated companion of a series and its invariants, and the rare-jump
process whose drift alone bounds no hitting time. Only the tests and
the acceptance criteria on truncation run them. ``PresetStream`` and
``RecordingStream`` stand in for a ``numpy.random.Generator``: one serves
preset draws, the other keeps a real stream's draws.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from es_drift.estimates import MeanEstimate, mean_estimate
from es_drift.kernels import LOG_PROGRESS_CAP, _deciding_draws, _ratio_sq
from es_drift.success import _check

# ---------------------------------------------------------------------------
# the strategy's step on the search point itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepOutcome:
    """Result of one offspring trial.

    log_progress is log||m_t|| - log||m_{t+1}||, zero on failure.
    """

    success: bool
    offspring_norm: float
    log_progress: float


def es_step(m, sigma: float, alpha: float, rng) -> tuple[np.ndarray, float, StepOutcome]:
    """One offspring trial: sample x ~ m + sigma*N(0, I), keep the better point.

    Returns the next (m, sigma) and the outcome. On success sigma is
    multiplied by alpha, on failure by alpha^(-1/4).
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    m = np.asarray(m, dtype=float)
    z = rng.standard_normal(m.size)
    x = m + sigma * z
    fx = float(x @ x)
    fm = float(m @ m)
    offspring_norm = math.sqrt(fx)
    if fx <= fm:
        log_progress = math.inf if fx == 0.0 else 0.5 * (math.log(fm) - math.log(fx))
        return x, sigma * alpha, StepOutcome(success=True, offspring_norm=offspring_norm,
                                             log_progress=log_progress)
    return m, sigma * alpha ** -0.25, StepOutcome(success=False,
                                                  offspring_norm=offspring_norm,
                                                  log_progress=0.0)


# ---------------------------------------------------------------------------
# the line-search oracle on a drawn direction
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the success probability as a sample mean
# ---------------------------------------------------------------------------


def success_mc_hits(scale, radius, d, n, rng):
    """Count samples with ||e1 + scale*N|| < radius, N a d-dim standard normal."""
    r2 = radius * radius

    def undecided(z0):
        x = 1.0 + scale * z0
        return x * x < r2

    hits = 0
    for _, z0, chi2 in _deciding_draws(d, n, rng, undecided):
        hits += int(np.count_nonzero(_ratio_sq(scale, z0, chi2) < r2))
    return hits


def psucc_mc(d: int, r: float, sigma_bar: float, n: int, rng) -> MeanEstimate:
    """Monte Carlo estimate of the success probability with rate r: the
    mean of the 0/1 success indicator, whose sum of squares is the hit
    count."""
    _check(np.asarray(d), np.asarray(r, dtype=float), np.asarray(sigma_bar, dtype=float))
    if n < 1:
        raise ValueError("sample count must be positive")
    hits = success_mc_hits(sigma_bar / d, 1.0 - r, d, n, rng)
    return mean_estimate(hits, hits, n)


# ---------------------------------------------------------------------------
# truncated companion processes and the rare-jump process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """A realized series together with its truncation at depth A."""

    xs: np.ndarray
    ys: np.ndarray
    A: float


def truncate_series(xs, A: float) -> TruncatedSeries:
    """Build the truncated companion of a series: cut drops below -A."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a non-empty 1-d sequence")
    if not A > 0.0:
        raise ValueError("truncation depth A must be positive")
    increments = np.maximum(np.diff(xs), -A)
    ys = np.concatenate(([xs[0]], xs[0] + np.cumsum(increments)))
    return TruncatedSeries(xs=xs, ys=ys, A=float(A))


def first_hitting_time(series, beta: float) -> Optional[int]:
    """Smallest index t with series[t] <= beta, or None."""
    hits = np.nonzero(np.asarray(series, dtype=float) <= beta)[0]
    return int(hits[0]) if hits.size else None


def simulate_jump_process(p: float, x0: float, beta: float, rng,
                          max_horizon: int = 10_000_000) -> Optional[int]:
    """Hitting time of the rare-jump process: stay put, or drop 1/p w.p. p.

    The untruncated drift is exactly -1 per step, yet each jump waits a
    geometric time with mean 1/p, which is why drift alone cannot bound
    hitting times on unbounded domains. The k jumps needed to reach beta
    take k geometric waits, whose sum is k plus one negative-binomial
    draw of the failures before the k-th success. Returns None when that
    sum exceeds the horizon (censored).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"jump probability must lie in (0, 1], got {p}")
    jump = 1.0 / p
    x = float(x0)
    k = 0
    while x > beta:
        if k == max_horizon:  # each jump takes at least one step
            return None
        x -= jump
        k += 1
    if k == 0:
        return 0
    t = k + int(rng.negative_binomial(k, p))
    return t if t <= max_horizon else None


# ---------------------------------------------------------------------------
# stand-ins for numpy.random.Generator
# ---------------------------------------------------------------------------


class PresetStream:
    """Serves preset standard normals, and preset chi2 values as halved
    standard_gamma draws, each in order; a draw past the preset values is
    NaN, since the ES loops draw full blocks whatever the budget. Each
    standard_gamma call is recorded as (shape, size)."""

    def __init__(self, normals, chi2s=()):
        self._normals = [float(x) for x in normals]
        self._halves = [x / 2.0 for x in chi2s]
        self.gamma_calls = []

    @staticmethod
    def _serve(values, size):
        out = values[:size] + [math.nan] * (size - len(values))
        del values[:size]
        return np.array(out)

    def standard_normal(self, size):
        return self._serve(self._normals, size)

    def standard_gamma(self, shape, size):
        self.gamma_calls.append((shape, size))
        return self._serve(self._halves, size)

    def used_up(self):
        return not self._normals and not self._halves


class RecordingStream:
    """A real Generator whose normal and chi2 draws are kept, in order, and
    whose standard_gamma calls are recorded as (shape, size)."""

    def __init__(self, rng):
        self._rng = rng
        self.normals, self.chi2s, self.gamma_calls = [], [], []

    def standard_normal(self, size):
        out = self._rng.standard_normal(size)
        self.normals.append(out.copy())
        return out

    def standard_gamma(self, shape, size):
        self.gamma_calls.append((shape, size))
        out = self._rng.standard_gamma(shape, size)
        self.chi2s.append(2.0 * out)
        return out
