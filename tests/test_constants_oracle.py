import math
from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from constants_oracle import constant_set
from es_drift import ConfigurationError, ConvergenceError, derive_constants

_DIMS = [3, 4, 7, 10, 32, 100, 1024, 4096, 65536]


@pytest.mark.parametrize("alpha, p_u, p_l, dims", [
    (1.5, 0.1, 0.3, [2, *_DIMS]),
    (1.2, 0.05, 0.25, _DIMS),
    (2.0, 0.15, 0.35, _DIMS),
    (1.2, 0.15, 0.4, _DIMS),
], ids=["default", "alpha_1.2", "alpha_2", "p_l_0.4"])
def test_derive_constants_matches_the_closed_form_oracle(alpha, p_u, p_l, dims):
    # the oracle's chndtr values and the chi form agree to 1e-11, which moves
    # the band ends and minima by at most 1.2e-10 relative over these sets
    for d, c in zip(dims, derive_constants(dims, alpha, p_u, p_l)):
        expected = constant_set(d, alpha, p_u, p_l)
        got = asdict(c)
        assert got.keys() == expected.keys()
        for name, value in expected.items():
            assert got[name] == pytest.approx(value, rel=1e-9, abs=0.0), (d, name)


@settings(max_examples=150)
@given(alpha=st.floats(1.01, 6.0), p_u=st.floats(0.005, 0.195),
       p_l=st.floats(0.205, 0.495), d=st.integers(2, 65536))
def test_drift_bound_is_the_smaller_outer_regime_term(alpha, p_u, p_l, d):
    # the lemma of derive_constants: B = L, U = 0.375 p*/d, and the middle
    # regime term A p* - 1.25 v log(alpha) exceeds 2B, so it never binds
    try:
        c = derive_constants(d, alpha, p_u, p_l)
    except (ConfigurationError, ConvergenceError):
        assume(False)
    assert c.B == c.L
    assert c.U == (c.p_star / c.d) * 0.375
    assert c.A * c.p_star - 1.25 * c.v * math.log(c.alpha) > 2.0 * c.B
