"""Monte Carlo point estimates with frequentist error bars."""

import math
from dataclasses import dataclass
from statistics import NormalDist

# two-sided 99% normal quantile, used for every confidence half-width
Z99 = NormalDist().inv_cdf(0.995)
# fewest samples behind a Monte Carlo mean estimate, for a stable half-width
MIN_MC_SAMPLES = 1000


@dataclass(frozen=True)
class ProbEstimate:
    """Binomial proportion estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability estimate outside [0, 1]: {self.value}")
        if self.std_error < 0.0:
            raise ValueError("negative standard error")


@dataclass(frozen=True)
class MeanEstimate:
    """Sample mean with a 99% normal-approximation confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def std_error(self) -> float:
        return self.half_width / Z99


def prob_estimate(hits: int, n: int) -> ProbEstimate:
    p = hits / n
    return ProbEstimate(value=p, std_error=math.sqrt(p * (1.0 - p) / n), n_samples=n)


def mean_estimate(total: float, total_sq: float, n: int) -> MeanEstimate:
    """Build a MeanEstimate from running sums of values and squares."""
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    if n > 1:
        var *= n / (n - 1)
    return MeanEstimate(mean=mean, half_width=Z99 * math.sqrt(var / n), n=n)
