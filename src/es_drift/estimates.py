"""Monte Carlo point estimates with frequentist error bars."""

import math
from dataclasses import dataclass
from statistics import NormalDist

# two-sided 99% normal quantile, used for every confidence half-width
Z99 = NormalDist().inv_cdf(0.995)
# fewest samples behind a Monte Carlo mean estimate, for a stable half-width
MIN_MC_SAMPLES = 1000


@dataclass(frozen=True)
class MeanEstimate:
    """Sample mean with a 99% normal-approximation confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def std_error(self) -> float:
        return self.half_width / Z99


def mean_estimate(total: float, total_sq: float, n: int) -> MeanEstimate:
    """Build a MeanEstimate from running sums of values and squares."""
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    if n > 1:
        var *= n / (n - 1)
    return MeanEstimate(mean=mean, half_width=Z99 * math.sqrt(var / n), n=n)
