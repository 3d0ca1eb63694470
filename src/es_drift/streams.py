"""Reproducible random stream derivation.

Every stochastic routine takes an explicit ``numpy.random.Generator``.
Independent tasks (a subcommand at one dimension) get streams derived
from ``(master_seed, *task_key)`` so results do not depend on execution
order.
"""

import numpy as np


def derive_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator seeded from a master seed and a task key tuple."""
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    entropy = (master_seed,) + tuple(int(k) for k in key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

