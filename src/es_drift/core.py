"""The (1+1) evolution strategy with the one-fifth success rule on the sphere.

One iteration samples a single Gaussian offspring around the current
search point m with standard deviation sigma. If the offspring is at
least as good it replaces m and sigma grows by the factor alpha;
otherwise sigma shrinks by alpha^(-1/4). Acceptance uses <= so that
ties (a probability-zero event) count as successes, which keeps the
step deterministic given the draw.

The chain is tracked in (||m||, sigma) alone and written once, here:
``run_until`` steps one traced run, and ``hitting_times`` steps groups of
runs in lockstep. Both draw (z0, chi2) and form the norm ratio with the
primitives of :mod:`es_drift.kernels`, which holds the Monte Carlo
samplers.

All randomness comes from explicit ``numpy.random.Generator`` streams;
see :mod:`es_drift.streams` for replicate stream derivation.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError
from .kernels import _draw, _ratio_sq

# offspring drawn at a time per run by run_until and hitting_times, always
# a full block whatever the budget, so a group of one consumes its
# generator identically in both and a run's draws do not depend on
# max_iter. hitting_times keeps a block's draws and states for all runs in
# four (_ES_CHUNK [+ 1], n) arrays, one column per run, so a step reads and
# writes contiguous rows: about 4 * 8 * _ES_CHUNK bytes per run, 2 MB for
# 1,000 runs at 64 steps, where 1024 steps would take 32 MB
_ES_CHUNK = 64


@dataclass(frozen=True)
class ESState:
    """Algorithm state on the sphere: dimension d, norm ||m|| of the search
    point and step size sigma. By isotropy the direction of m never
    matters, so the state is (d, ||m||, sigma) alone."""

    d: int
    norm: float
    sigma: float

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or self.d < 2:
            raise ValueError(f"dimension must be an integer of at least 2, got {self.d!r}")
        # a NaN fails every comparison
        if not 0.0 <= self.norm < math.inf:
            raise ValueError(f"norm must be finite and non-negative, got {self.norm}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")


@dataclass
class RunTrace:
    """Per-iteration history of a run, possibly thinned.

    The success flag stored with a record refers to the step taken from
    the recorded state; the final record carries False.
    """

    ts: np.ndarray
    norms: np.ndarray
    sigmas: np.ndarray
    sigma_bars: np.ndarray
    successes: np.ndarray
    hitting_time: Optional[int]
    iterations: int
    n_success: int


def initial_state(d: int, m0_norm: float, sigma_bar0: float) -> ESState:
    """State with ||m|| = m0_norm and normalized step size sigma_bar0."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if not (m0_norm > 0.0 and sigma_bar0 > 0.0):
        raise ValueError("m0_norm and sigma_bar0 must be positive")
    return ESState(d=d, norm=m0_norm, sigma=sigma_bar0 * m0_norm / d)


def _check_alpha(alpha: float) -> None:
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")


def _es_draws(d, rng):
    """Endless (z0, chi2) pairs for one run, drawn _ES_CHUNK at a time."""
    while True:
        z0, chi2 = _draw(d, _ES_CHUNK, rng)
        yield from zip(z0.tolist(), chi2.tolist())


def run_until(state0: ESState, alpha: float, epsilon: float, max_iter: int,
              rng, record_every: int = 1) -> RunTrace:
    """Run until ||m_t|| <= epsilon or max_iter steps, tracing the state.

    Tracks only (||m||, sigma): with q = sigma/||m||, the offspring norm
    is ||m|| * sqrt((1 + q z0)^2 + q^2 chi2), so ||m||^2, which underflows
    long before ||m||, is never formed. Draws come _ES_CHUNK steps at a
    time, a full block whatever the budget, so a run's draws do not depend
    on max_iter. hitting_time is the first t with ||m_t|| <= epsilon, or
    None if the iteration budget ran out (reported in the trace, not an
    error). ``record_every`` thins the trace; the final state is always
    kept. Raises ConvergenceError once sigma overflows: from sigma = inf
    every step fails and leaves it inf, so the run would stall.
    """
    _check_alpha(alpha)
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if record_every < 1:
        raise ValueError("record_every must be positive")
    ts, norms, sigmas, successes = [], [], [], []
    norm = state0.norm
    sigma = state0.sigma
    sigma_down = alpha ** -0.25
    draws = _es_draws(state0.d, rng)
    t = 0
    n_success = 0
    while True:
        hit = norm <= epsilon
        done = hit or t >= max_iter
        recorded = (t % record_every == 0) or done
        if recorded:
            ts.append(t)
            norms.append(norm)
            sigmas.append(sigma)
        if done:
            break
        z0, chi2 = next(draws)
        ratio_sq = _ratio_sq(sigma / norm, z0, chi2)
        success = ratio_sq <= 1.0
        if recorded:
            successes.append(success)
        if success:
            norm *= math.sqrt(ratio_sq)
            sigma *= alpha
            if sigma == math.inf:
                raise ConvergenceError(f"sigma overflowed at iteration {t + 1}")
            n_success += 1
        else:
            sigma *= sigma_down
        t += 1
    successes.append(False)
    norms = np.array(norms, np.float64)
    sigmas = np.array(sigmas, np.float64)
    with np.errstate(divide="ignore"):
        # d * sigma would overflow where sigma_bar is O(1) at a norm near the
        # float ceiling; inf at the optimum
        sigma_bars = sigmas / norms * state0.d
    return RunTrace(ts=np.array(ts, np.int64), norms=norms, sigmas=sigmas,
                    sigma_bars=sigma_bars, successes=np.array(successes, np.bool_),
                    hitting_time=t if hit else None, iterations=t, n_success=n_success)


@np.errstate(over="ignore")
def hitting_times(states: Sequence[ESState], replicates: int, alpha: float,
                  epsilons: Sequence[float], max_iter: int,
                  rngs: Sequence) -> np.ndarray:
    """First passages of groups of independent runs below shared
    thresholds, all stepped together.

    Group g is ``replicates`` runs from states[g], all drawing from
    rngs[g], a Generator no other group is given; its runs sit in columns
    g * replicates to (g + 1) * replicates - 1. At every _ES_CHUNK-step
    block boundary a group with a run not yet done draws _ES_CHUNK *
    replicates normals, then as many chi2, each reshaped to (_ES_CHUNK,
    replicates), and column j steps its j-th run. Returns an int64 array
    of shape (groups, replicates, len(epsilons)): entry (g, i, j) is the
    first t with ||m|| <= epsilons[j] on run i of group g, or -1 where that
    run used up max_iter first. The thresholds come in any order,
    duplicates allowed. For a group of one, entry (g, 0, j) equals
    ``run_until(states[g], alpha, epsilons[j], max_iter,
    rngs[g]).hitting_time``, -1 for None; a replicate of a larger group
    equals run_until fed its column of the group's blocks.

    A block's states are held in rows, row j every run's state j steps
    into the block. No step raises ||m||, so a run passes a threshold in the
    block whose first row is above it and whose last is not, at the first
    row at or below it. A run whose block starts at or below every
    threshold is done: sigma = 0 makes its ratio exactly 1, so it stays
    put, and a group whose runs are all done stops drawing. A group draws
    the same blocks whichever of its runs are done, so a run's draws and
    first passages do not depend on other runs, on the other thresholds
    or on max_iter; done runs stay in every step's array operations.
    Overflow warnings are off: an infinite q or ratio is a failure, and an
    infinite sigma raises ConvergenceError at the next block boundary or
    at the end, unless its run is done by then.
    """
    if len(states) != len(rngs):
        raise ValueError(f"got {len(states)} states and {len(rngs)} streams")
    if len(set(map(id, rngs))) < len(rngs):
        raise ValueError("each group needs its own Generator: groups given the "
                         "same one would interleave their draws")
    if replicates < 1:
        raise ValueError("replicates must be positive")
    _check_alpha(alpha)
    if not len(epsilons):
        raise ValueError("need at least one epsilon")
    if not all(epsilon > 0.0 for epsilon in epsilons):
        raise ValueError("epsilon must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    groups = len(rngs)
    n = groups * replicates
    eps = np.asarray(epsilons, np.float64)
    norm = np.empty((_ES_CHUNK + 1, n))
    sigma = np.empty((_ES_CHUNK + 1, n))
    norm[0] = np.repeat(np.array([state.norm for state in states], np.float64), replicates)
    sigma[0] = np.repeat(np.array([state.sigma for state in states], np.float64), replicates)
    times = np.where(norm[0, :, None] <= eps, 0, -1).astype(np.int64)
    # zeros until a group's first draw: a group done from the start never
    # draws, and its frozen runs step on these
    z0s = np.zeros((_ES_CHUNK, n))
    chi2s = np.zeros((_ES_CHUNK, n))
    q = np.empty(n)
    success = np.empty(n, np.bool_)
    factor = np.array([alpha ** -0.25, alpha])   # failure, success
    t = 0
    while True:
        done = norm[0] <= eps.min()
        sigma[0, done] = 0.0
        if np.isinf(sigma[0]).any():
            raise ConvergenceError(f"sigma overflowed by iteration {t}")
        if t >= max_iter or done.all():
            break
        for g, (rng, state) in enumerate(zip(rngs, states)):
            columns = slice(g * replicates, (g + 1) * replicates)
            if not done[columns].all():
                z0, chi2 = _draw(state.d, _ES_CHUNK * replicates, rng)
                z0s[:, columns] = z0.reshape(_ES_CHUNK, replicates)
                chi2s[:, columns] = chi2.reshape(_ES_CHUNK, replicates)
        steps = min(_ES_CHUNK, max_iter - t)
        # z0s[:steps] ends the zip; each step writes row j + 1 from row j
        for z0, chi2, norm_0, norm_1, sigma_0, sigma_1 in zip(
                z0s[:steps], chi2s, norm, norm[1:], sigma, sigma[1:]):
            np.divide(sigma_0, norm_0, out=q)
            ratio_sq = _ratio_sq(q, z0, chi2)
            np.less_equal(ratio_sq, 1.0, out=success)
            np.minimum(ratio_sq, 1.0, out=ratio_sq)
            np.multiply(norm_0, np.sqrt(ratio_sq, out=ratio_sq), out=norm_1)
            factor.take(success, out=sigma_1)
            sigma_1 *= sigma_0
        runs, passed = np.nonzero((norm[0, :, None] > eps) & (norm[steps, :, None] <= eps))
        times[runs, passed] = t + 1 + np.argmax(norm[1:steps + 1, runs] <= eps[passed], axis=0)
        norm[0], sigma[0] = norm[steps], sigma[steps]
        t += steps
    return times.reshape(groups, replicates, eps.size)
