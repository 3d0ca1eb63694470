"""The Monte Carlo samplers draw chi2 only for samples z0 leaves undecided.

Each test feeds a sampler preset draws through a stub generator, in chunks
of 4: a mixed chunk, a chunk z0 settles entirely, a chunk z0 settles
nowhere and a short last chunk. It checks the chi-squared sizes asked for
and compares the sums with a per-sample reference on the full formula, in
which a sample the sampler decided from z0 gets chi2 = 0, the value most
favourable to success. The drift sampler takes a grid of step sizes and
draws chi2 for the samples its smallest step size leaves undecided; two
more tests check that it scores an exact hit of the optimum as -A and,
on a recorded real stream, that it scores exactly the successes a direct
count finds at every step size. The acute-angle sampler takes a list of
dimensions and builds each chi2 from the previous dimension's by one
increment.
"""

import math
import warnings

import numpy as np
import pytest

from es_drift import kernels
from reference import PresetStream, RecordingStream, success_mc_hits

CHUNK = 4


def _chunk_counts(flags):
    return [sum(flags[i:i + CHUNK]) for i in range(0, len(flags), CHUNK)]


def _full_chi2(flags, chi2s):
    """chi2 per sample: the preset values in order where undecided, else 0."""
    it = iter(chi2s)
    return [next(it) if flag else 0.0 for flag in flags]


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK", CHUNK)


# fractions t of the success interval -2 ||m|| / sigma <= z0 <= 0; z0 is
# undecided exactly for t in [-1, 0]
DRIFT_T = [0.3, -0.5, -1.2, -0.25,     # mixed
           0.1, 2.0, -1.1, 0.0001,     # no success possible
           -0.5, -0.9, 0.0, -0.05,     # all undecided
           -0.6, 0.7, -0.3]            # short last chunk
# chi2 * sigma^2 for the undecided samples, in order
DRIFT_W = [0.5, 2.0, 0.3, 0.01, 1.5, 0.0, 0.5, 0.2]


@pytest.mark.parametrize("d", [2, 10])
@pytest.mark.parametrize("sigma_bar_of", [lambda c: c.ell / 10.0,
                                          lambda c: math.sqrt(c.ell * c.u),
                                          lambda c: 10.0 * c.u],
                         ids=["small", "reasonable", "large"])
def test_truncated_drift_sums_draw_chi2_for_undecided_only(
        small_chunks, constants_for, d, sigma_bar_of):
    c = constants_for(d)
    norm = 1.7
    sigma = sigma_bar_of(c) * norm / d
    z0s = [t * 2.0 * norm / sigma for t in DRIFT_T]
    flags = [-1.0 <= t <= 0.0 for t in DRIFT_T]
    chi2s = [w / (sigma * sigma) for w in DRIFT_W]
    draws = PresetStream(z0s, chi2s)
    y_fail, total, total_sq = kernels.truncated_drift_sums(
        norm, sigma, d, c.alpha, c.ell, c.u, c.v, c.A, len(z0s), draws)
    assert draws.used_up()
    assert draws.gamma_calls == [((d - 1) / 2, k) for k in _chunk_counts(flags)]
    assert _chunk_counts(flags) == [2, 0, 4, 2]

    ys = []
    successes = 0
    expected_fail = max(c.potential_of(norm, sigma * c.alpha ** -0.25)
                        - c.potential_of(norm, sigma), -c.A)
    for z0, chi2 in zip(z0s, _full_chi2(flags, chi2s)):
        cand_sq = (norm + sigma * z0) ** 2 + sigma * sigma * chi2
        if cand_sq <= norm * norm:
            new = (math.sqrt(cand_sq), sigma * c.alpha)
            successes += 1
        else:
            new = (norm, sigma * c.alpha ** -0.25)
        ys.append(max(c.potential_of(*new) - c.potential_of(norm, sigma), -c.A))
    # undecided samples both succeed and fail, and some changes are cut at -A
    assert 0 < successes < sum(flags)
    assert min(ys) == -c.A
    # the sums are taken about y_fail, so the failures add nothing
    assert y_fail == expected_fail
    shifted = [y - y_fail for y in ys]
    assert total == pytest.approx(sum(shifted), rel=1e-12, abs=1e-15)
    assert total_sq == pytest.approx(sum(y * y for y in shifted), rel=1e-12, abs=1e-15)


# sigma_bar at the three step sizes of the shared-pool test, one per
# regime (reasonable, small, large), so the smallest is not first
POOL_SIGMA_BAR_OF = [lambda c: c.ell, lambda c: c.ell / 2.0, lambda c: 2.0 * c.u]


@pytest.mark.parametrize("d", [2, 10])
def test_truncated_drift_sums_score_every_step_size_from_one_pool(
        small_chunks, constants_for, d):
    c = constants_for(d)
    norm = 1.7
    sigmas = [f(c) * norm / d for f in POOL_SIGMA_BAR_OF]
    s_min = min(sigmas)
    # z0 is drawn once per chunk and chi2 once per z0 the smallest step
    # size leaves undecided, t in [-1, 0] there
    z0s = [t * 2.0 * norm / s_min for t in DRIFT_T]
    flags = [-1.0 <= t <= 0.0 for t in DRIFT_T]
    chi2s = [w / (s_min * s_min) for w in DRIFT_W]
    draws = PresetStream(z0s, chi2s)
    y_fail, total, total_sq = kernels.truncated_drift_sums(
        norm, np.array(sigmas), d, c.alpha, c.ell, c.u, c.v, c.A, len(z0s), draws)
    assert draws.used_up()
    assert draws.gamma_calls == [((d - 1) / 2, k) for k in _chunk_counts(flags)]
    assert _chunk_counts(flags) == [2, 0, 4, 2]
    assert y_fail.shape == total.shape == total_sq.shape == (len(sigmas),)

    cut = False
    for i, sigma in enumerate(sigmas):
        ys = []
        successes = 0
        decided_here = 0
        for z0, chi2 in zip(z0s, _full_chi2(flags, chi2s)):
            if (norm + sigma * z0) ** 2 > norm * norm:
                decided_here += 1
            cand_sq = (norm + sigma * z0) ** 2 + sigma * sigma * chi2
            if cand_sq <= norm * norm:
                new = (math.sqrt(cand_sq), sigma * c.alpha)
                successes += 1
            else:
                new = (norm, sigma * c.alpha ** -0.25)
            ys.append(max(c.potential_of(*new) - c.potential_of(norm, sigma), -c.A))
        expected_fail = max(c.potential_of(norm, sigma * c.alpha ** -0.25)
                            - c.potential_of(norm, sigma), -c.A)
        # every step size has successes; the larger ones also score pool
        # samples that their own z0 test would have decided as failures
        assert 0 < successes < sum(flags)
        if sigma > s_min:
            assert decided_here > len(flags) - sum(flags)
        cut = cut or min(ys) == -c.A
        assert y_fail[i] == expected_fail
        shifted = [y - expected_fail for y in ys]
        assert total[i] == pytest.approx(sum(shifted), rel=1e-12, abs=1e-15)
        assert total_sq[i] == pytest.approx(sum(y * y for y in shifted),
                                            rel=1e-12, abs=1e-15)
    assert cut


@pytest.mark.parametrize("d", [2, 10])
def test_truncated_drift_sums_score_an_exact_hit_of_the_optimum_as_minus_a(
        constants_for, d):
    # z0 = -||m|| / sigma and chi2 = 0 land exactly on the optimum (powers
    # of two keep sigma * z0 exact): V' = -inf there, so the truncated
    # change is -A, with no NaN and no warning
    c = constants_for(d)
    norm = 2.0
    sigma = 2.0 ** round(math.log2(math.sqrt(c.ell * c.u) * norm / d))
    assert (norm + sigma * (-norm / sigma)) ** 2 == 0.0
    draws = PresetStream([-norm / sigma, 1.0, 2.0, 3.0], [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y_fail, total, total_sq = kernels.truncated_drift_sums(
            norm, sigma, d, c.alpha, c.ell, c.u, c.v, c.A, 4, draws)
    assert draws.used_up()
    assert y_fail == max(c.potential_of(norm, sigma * c.alpha ** -0.25)
                         - c.potential_of(norm, sigma), -c.A)
    assert total == -c.A - y_fail
    assert total_sq == (-c.A - y_fail) ** 2


@pytest.mark.parametrize("d", [2, 10, 64])
@pytest.mark.parametrize("norm", [1.7, 0.3])
def test_truncated_drift_sums_count_every_success_at_every_step_size(
        monkeypatch, constants_for, rng_for, d, norm):
    # every success is scored through _log_potential with its step size's
    # penalty logs; counting the scored log-norms per step size must give
    # the direct count of the success test on the same draws
    monkeypatch.setattr(kernels, "_CHUNK", 1000)
    c = constants_for(d)
    sigmas = np.exp(np.linspace(math.log(c.ell / 100.0), math.log(100.0 * c.u),
                                16)) * norm / d
    lo_up, _ = kernels._penalty_logs(sigmas * c.alpha, d, c.alpha, c.ell, c.u)
    scored = dict.fromkeys(lo_up.tolist(), 0)
    log_potential = kernels._log_potential

    def counting(x, lo, hi, v):
        if np.ndim(lo) == 0:
            scored[lo] += np.size(x)
        return log_potential(x, lo, hi, v)

    monkeypatch.setattr(kernels, "_log_potential", counting)
    draws = RecordingStream(rng_for(14, d))
    kernels.truncated_drift_sums(norm, sigmas, d, c.alpha, c.ell, c.u, c.v,
                                 c.A, 4500, draws)

    z0 = np.concatenate(draws.normals)
    # a sample without a chi2 draw is decided as a failure by z0 alone at
    # the smallest step size; chi2 = 0 keeps it one at every step size
    chi2 = np.zeros(z0.size)
    chi2[(norm + sigmas.min() * z0) ** 2 <= norm ** 2] = np.concatenate(draws.chi2s)
    direct = [int(np.count_nonzero((norm + s * z0) ** 2 + s * s * chi2 <= norm ** 2))
              for s in sigmas.tolist()]
    assert [scored[lo] for lo in lo_up.tolist()] == direct
    # the grid spans successes at every step size down to none
    assert direct[0] > direct[-1] == 0


# success_mc_hits(0.5, 0.9, ...): a hit needs |1 + z0/2| < 0.9, which only
# -3.8 < z0 < -0.2 leaves open
HIT_Z0 = [-1.0, 0.5, -4.0, -3.0,       # mixed
          0.0, 3.0, -5.0, -0.1,        # no hit possible
          -0.5, -2.0, -3.7, -1.9,      # all undecided
          -0.3, -10.0, -2.5]           # short last chunk
HIT_CHI2 = [0.1, 0.5, 2.0, 0.2, 0.0, 0.05, 0.4, 3.0]


@pytest.mark.parametrize("d", [2, 10])
def test_success_mc_hits_draws_chi2_for_undecided_only(small_chunks, d):
    scale, radius = 0.5, 0.9
    flags = [-3.8 < z0 < -0.2 for z0 in HIT_Z0]
    draws = PresetStream(HIT_Z0, HIT_CHI2)
    hits = success_mc_hits(scale, radius, d, len(HIT_Z0), draws)
    assert draws.used_up()
    assert draws.gamma_calls == [((d - 1) / 2, k) for k in _chunk_counts(flags)]
    assert _chunk_counts(flags) == [2, 0, 4, 2]
    expected = sum((1.0 + scale * z0) ** 2 + scale * scale * chi2 < radius * radius
                   for z0, chi2 in zip(HIT_Z0, _full_chi2(flags, HIT_CHI2)))
    assert 0 < hits == expected < sum(flags)


# har_log_progress_pool_sums: only acute angles, z0 >= 0, contribute
HAR_Z0 = [1.0, -0.5, -2.0, 0.0,        # mixed
          -0.1, -3.0, -1.0, -0.7,      # all obtuse
          0.2, 2.5, 0.7, 1.5,          # all acute
          -1.2, 0.9, -0.4]             # short last chunk
HAR_CHI2 = [3.0, 2.0, 1.0, 8.0, 0.0, 0.5, 0.3]


def _acute_log_progress(z0, chi2):
    if z0 < 0.0:
        return 0.0
    if chi2 == 0.0:
        return kernels.LOG_PROGRESS_CAP
    return -0.5 * math.log(chi2 / (z0 * z0 + chi2))


@pytest.mark.parametrize("d", [2, 10])
def test_har_log_progress_pool_sums_draw_chi2_for_acute_only(small_chunks, d):
    flags = [z0 >= 0.0 for z0 in HAR_Z0]
    draws = PresetStream(HAR_Z0, HAR_CHI2)
    total, total_sq, capped = (
        x[0] for x in kernels.har_log_progress_pool_sums((d,), len(HAR_Z0), draws))
    assert draws.used_up()
    assert draws.gamma_calls == [((d - 1) / 2, k) for k in _chunk_counts(flags)]
    assert _chunk_counts(flags) == [2, 0, 4, 1]
    lps = [_acute_log_progress(z0, chi2)
           for z0, chi2 in zip(HAR_Z0, _full_chi2(flags, HAR_CHI2))]
    assert capped == 1
    assert total == pytest.approx(sum(lps), rel=1e-12)
    assert total_sq == pytest.approx(sum(lp * lp for lp in lps), rel=1e-12)


POOL_D = (2, 4, 10)
# chi2 increments, as the pool draws them: per chunk, one run per d over
# the chunk's acute samples; 0.2 keeps chi2 = 0 up to d = 4, 2.5 at d = 2
POOL_INC = [3.0, 2.0, 1.0, 0.5, 4.0, 6.0,                  # chunk 1
            0.0, 0.0, 1.2, 0.8, 0.0, 2.0, 0.3, 1.1,        # chunk 3
            5.0, 3.0, 7.0, 0.9,
            0.4, 0.6, 2.5]                                 # chunk 4


def test_har_log_progress_pool_sums_nest_chi2_across_dimensions(small_chunks):
    flags = [z0 >= 0.0 for z0 in HAR_Z0]
    counts = _chunk_counts(flags)
    draws = PresetStream(HAR_Z0, POOL_INC)
    total, total_sq, capped = kernels.har_log_progress_pool_sums(
        POOL_D, len(HAR_Z0), draws)
    assert draws.used_up()
    steps = [(d - d_prev) / 2 for d_prev, d in zip((1, *POOL_D), POOL_D)]
    assert steps == [0.5, 1.0, 3.0]
    assert draws.gamma_calls == [(step, k) for k in counts for step in steps]
    # per-sample reference: chi2 at POOL_D[j] is the sum of the sample's
    # first j + 1 increments
    increments = iter(POOL_INC)
    chi2 = {i: [] for i, flag in enumerate(flags) if flag}
    for chunk in range(0, len(HAR_Z0), CHUNK):
        acute = [i for i in range(chunk, chunk + CHUNK) if i in chi2]
        for _ in POOL_D:
            for i in acute:
                chi2[i].append(sum(chi2[i][-1:]) + next(increments))
    for j in range(len(POOL_D)):
        lps = [_acute_log_progress(z0, chi2[i][j] if i in chi2 else 0.0)
               for i, z0 in enumerate(HAR_Z0)]
        assert total[j] == pytest.approx(sum(lps), rel=1e-12)
        assert total_sq[j] == pytest.approx(sum(lp * lp for lp in lps), rel=1e-12)
    assert capped.tolist() == [2, 1, 0]
