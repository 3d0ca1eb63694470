"""Truncated processes, hitting-time bound calculators, and the jump example.

A real-valued process whose potential can fall arbitrarily far in one
step admits no hitting-time bound from its drift alone: the jump
process below drifts down by one per step in expectation yet needs
1/p steps on average. Cutting single-step moves at -A fixes this; the
truncated process Y satisfies Y_0 = X_0,

    Y_{t+1} - Y_t = max(X_{t+1} - X_t, -A)  >= -A,     X_t <= Y_t,

so a drift bound of -B on Y yields E[T] <= (x0 - beta + A) / B for the
first time X reaches (-inf, beta]. For non-increasing processes with
one-step drift at least -C the matching lower bound is
(x0 - beta) / (4C) - 1/2.

Callers supplying their own processes are responsible for integrability
of the truncated process; the calculators only check the constants.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


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
