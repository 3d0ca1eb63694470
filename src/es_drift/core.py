"""The (1+1) evolution strategy with the one-fifth success rule on the sphere.

One iteration samples a single Gaussian offspring around the current
search point m with standard deviation sigma. If the offspring is at
least as good it replaces m and sigma grows by the factor alpha;
otherwise sigma shrinks by alpha^(-1/4). Acceptance uses <= so that
ties (a probability-zero event) count as successes, which keeps the
step deterministic given the draw.

All randomness comes from explicit ``numpy.random.Generator`` streams;
see :mod:`es_drift.streams` for replicate stream derivation.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels


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


def run_until(state0: ESState, alpha: float, epsilon: float, max_iter: int,
              rng, record_every: int = 1) -> RunTrace:
    """Run until ||m_t|| <= epsilon or max_iter steps, tracing the state.

    hitting_time is the first t with ||m_t|| <= epsilon, or None if the
    iteration budget ran out (reported in the trace, not an error).
    ``record_every`` thins the trace; the final state is always kept.
    Raises ConvergenceError if the step size overflows, which stalls the run.
    """
    _check_alpha(alpha)
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if record_every < 1:
        raise ValueError("record_every must be positive")
    ts, norms, sigmas, successes, hit, t_final, n_success = kernels.es_run(
        state0.norm, state0.sigma, state0.d, alpha, epsilon, max_iter,
        record_every, rng)
    with np.errstate(divide="ignore"):
        # d * sigma would overflow where sigma_bar is O(1) at a norm near the
        # float ceiling; inf at the optimum
        sigma_bars = sigmas / norms * state0.d
    return RunTrace(ts=ts, norms=norms, sigmas=sigmas, sigma_bars=sigma_bars,
                    successes=successes, hitting_time=t_final if hit else None,
                    iterations=t_final, n_success=int(n_success))


def hitting_times(states: Sequence[ESState], replicates: int, alpha: float,
                  epsilons: Sequence[float], max_iter: int,
                  rngs: Sequence) -> np.ndarray:
    """First passages of groups of independent runs below shared
    thresholds, all stepped together.

    Group g is ``replicates`` runs from states[g], all drawing from
    rngs[g], a Generator no other group is given: at every 64-step block
    the group draws one block of normals, then one of chi-squared values,
    for all its runs, and each run reads its own column. No step raises
    ||m||, so first passages are read once per block from the norms at
    its two ends (see ``kernels.es_hitting_times``), for the thresholds as
    given. Returns an int64 array of shape (groups, replicates,
    len(epsilons)), in the order of ``epsilons`` (any order, duplicates
    allowed), with -1 where the budget ran out. For a
    group of one, entry (g, 0, j) equals ``run_until(states[g], alpha,
    epsilons[j], max_iter, rngs[g]).hitting_time``, -1 for None; a replicate
    of a larger group equals run_until fed its column of the group's
    blocks. A run's entries do not depend on the other groups, the other
    thresholds or max_iter. Raises ConvergenceError as run_until does.
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
    return kernels.es_hitting_times(
        [state.norm for state in states], [state.sigma for state in states],
        [state.d for state in states], replicates, alpha, epsilons, max_iter, rngs)
