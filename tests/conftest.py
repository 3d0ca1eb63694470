import pytest
from hypothesis import settings

from es_drift import derive_constants
from es_drift.streams import derive_stream

# every property test replays the same examples and has no time limit
settings.register_profile("es_drift", derandomize=True, deadline=None)
settings.load_profile("es_drift")

_CONSTANTS_CACHE = {}


@pytest.fixture(scope="session")
def constants_for():
    """Memoized derive_constants at default (alpha, p_u, p_l)."""

    def get(d):
        if d not in _CONSTANTS_CACHE:
            _CONSTANTS_CACHE[d] = derive_constants(d)
        return _CONSTANTS_CACHE[d]

    return get


@pytest.fixture
def rng_for():
    """Fresh deterministic stream per (test-local) key."""

    def get(*key):
        return derive_stream(424242, *key)

    return get
