"""Monte Carlo point estimates with frequentist error bars."""

from dataclasses import dataclass

import numpy as np

# two-sided 99% normal quantile, for every confidence half-width: the bits of
# statistics.NormalDist().inv_cdf(0.995), which would import fractions and decimal
Z99 = 2.5758293035489
# fewest samples behind a Monte Carlo mean estimate, for a stable half-width
MIN_MC_SAMPLES = 1000


@dataclass(frozen=True)
class MeanEstimate:
    """Sample mean with a 99% normal-approximation confidence half-width:
    floats, or arrays with one estimate per entry."""

    mean: float
    half_width: float
    n: int

    @property
    def std_error(self) -> float:
        return self.half_width / Z99


def mean_estimate(total, total_sq, n: int) -> MeanEstimate:
    """Build a MeanEstimate from running sums of values and squares: floats,
    or arrays with one estimate per entry. A NaN total gives a NaN estimate."""
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0)
    if n > 1:
        var *= n / (n - 1)
    return MeanEstimate(mean=mean, half_width=Z99 * np.sqrt(var / n), n=n)
