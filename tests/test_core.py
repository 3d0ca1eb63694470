import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from es_drift import (ConvergenceError, ESState, derive_stream, hitting_times,
                      initial_state, run_until)
from es_drift.kernels import es_hitting_times
from reference import PresetStream, es_step


def test_es_step_forced_failure_shrinks_sigma():
    m = np.array([1.0, 0.0])
    # offspring far out along +m is worse
    new_m, new_sigma, outcome = es_step(m, 0.5, 1.5, PresetStream([10.0, 0.0]))
    assert not outcome.success
    assert outcome.log_progress == 0.0
    np.testing.assert_array_equal(new_m, m)
    assert new_sigma == pytest.approx(0.5 * 1.5 ** -0.25, rel=1e-15)


def test_es_step_forced_success_moves_and_grows_sigma():
    new_m, new_sigma, outcome = es_step([1.0, 0.0], 0.5, 1.5, PresetStream([-1.0, 0.0]))
    assert outcome.success
    np.testing.assert_allclose(new_m, [0.5, 0.0])
    assert new_sigma == pytest.approx(0.75, rel=1e-15)
    assert outcome.log_progress == pytest.approx(math.log(2.0), rel=1e-12)


def test_es_step_tie_counts_as_success():
    # offspring mirrored through the origin has the exact same norm
    _, new_sigma, outcome = es_step([1.0, 0.0], 1.0, 1.5, PresetStream([-2.0, 0.0]))
    assert outcome.success
    assert outcome.offspring_norm == 1.0
    assert outcome.log_progress == 0.0
    assert new_sigma == pytest.approx(1.5)


def test_es_step_success_frequency_matches_exact_probability(rng_for):
    # pin the normalized step size by stepping from the same state each time
    from es_drift import psucc_exact

    d, sigma_bar, n = 10, 2.0, 100_000
    m = np.eye(d)[0]
    rng = rng_for(1)
    hits = sum(es_step(m, sigma_bar / d, 1.5, rng)[2].success for _ in range(n))
    p_hat = hits / n
    p = psucc_exact(d, 0.0, sigma_bar)
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(p_hat - p) <= 3.0 * se


def test_run_until_immediate_hit(rng_for):
    state = initial_state(4, 0.5, 2.0)
    trace = run_until(state, 1.5, epsilon=1.0, max_iter=100,
                      rng=rng_for(9))
    assert trace.hitting_time == 0
    assert len(trace.ts) == 1
    assert trace.iterations == 0


def test_run_until_norms_non_increasing(rng_for):
    for seed in range(5):
        trace = run_until(initial_state(6, 1.0, 2.0), 1.5, 1e-3, 10_000,
                          rng_for(2, seed))
        assert trace.hitting_time is not None
        assert np.all(np.diff(trace.norms) <= 0.0)


def test_run_until_sigma_ratios_exact(rng_for):
    trace = run_until(initial_state(5, 1.0, 2.0), 1.5, 1e-4,
                      10_000, rng_for(3))
    ratios = trace.sigmas[1:] / trace.sigmas[:-1]
    for ratio in ratios:
        assert (math.isclose(ratio, 1.5, rel_tol=1e-12)
                or math.isclose(ratio, 1.5 ** -0.25, rel_tol=1e-12))
    # up moves are exactly the recorded successes
    assert np.array_equal(ratios > 1.0, trace.successes[:-1])


def test_run_until_sigma_bookkeeping_identity(rng_for):
    trace = run_until(initial_state(5, 1.0, 2.0), 1.5, 1e-6,
                      10_000, rng_for(4))
    failures = trace.iterations - trace.n_success
    log_alpha = math.log(1.5)
    expected = trace.n_success * log_alpha - failures * log_alpha / 4.0
    actual = math.log(trace.sigmas[-1]) - math.log(trace.sigmas[0])
    assert actual == pytest.approx(expected, abs=1e-9)


def test_run_until_matches_manual_stepping(rng_for):
    # run_until draws (z0, chi2) where es_step draws a d-vector, so the two
    # paths agree in distribution: hitting times on disjoint streams
    manual, reduced = [], []
    for rep in range(400):
        m, sigma = np.eye(6)[0], 2.0 / 6
        rng = rng_for(5, 0, rep)
        t = 0
        while np.linalg.norm(m) > 1e-3:
            m, sigma, _ = es_step(m, sigma, 1.5, rng)
            t += 1
        manual.append(t)
        trace = run_until(initial_state(6, 1.0, 2.0), 1.5, 1e-3, 10_000,
                          rng_for(5, 1, rep), record_every=10_000)
        reduced.append(trace.hitting_time)
    assert ks_2samp(manual, reduced).pvalue > 1e-3


def _chain_draws(d):
    """Fresh preset (z0, chi2) draws of the d = 3 or d = 4 chain below."""
    if d == 4:
        return PresetStream([-1.0, 1.0, -0.0625, -1.0 / 128.0],
                            [0.0, 0.0, 0.75 / 64.0, 2.0 ** -16])
    return PresetStream([1.0, -1.0, 0.0, 0.0], [0.0] * 4)


def test_run_until_steps_the_norm_sigma_chain_exactly():
    # alpha = 16 makes every factor a power of two: success, failure, a tie
    # (||offspring|| = ||m||, a success) and success again
    draws = _chain_draws(4)
    state0 = ESState(d=4, norm=1.0, sigma=0.5)
    trace = run_until(state0, 16.0, 1e-3, 4, draws)
    assert [shape for shape, _ in draws.gamma_calls] == [1.5]
    assert trace.norms.tolist() == [1.0, 0.5, 0.5, 0.5, 0.25]
    assert trace.sigmas.tolist() == [0.5, 8.0, 4.0, 64.0, 1024.0]
    assert trace.successes.tolist() == [True, False, True, True, False]
    assert trace.hitting_time is None
    assert (trace.iterations, trace.n_success) == (4, 3)


def test_hitting_times_steps_each_run_exactly():
    # two groups of one: run 1 (d = 3) fails then succeeds to ||m|| = 0.75
    # at t = 2 and stays there; run 2 is the chain above, ||m|| = 1, 0.5,
    # 0.5, 0.5, 0.25: a hit on the budget's last step counts, 0.2 is never
    # reached, and one step may pass two thresholds (0.75 and 0.6 at t = 1,
    # 0.3 and 0.26 at t = 4); entries follow the caller's threshold order,
    # duplicates too, in an int64 array of shape (groups, replicates,
    # thresholds) with -1 where the budget ran out
    alpha = 16.0
    states = [ESState(d=3, norm=1.0, sigma=0.5), ESState(d=4, norm=1.0, sigma=0.5)]
    draws = [_chain_draws(3), _chain_draws(4)]
    times = hitting_times(states, 1, alpha, [0.75, 0.3, 0.2], 4, draws)
    assert isinstance(times, np.ndarray) and times.dtype == np.int64
    assert times.tolist() == [[[2, -1, -1]], [[1, 4, -1]]]
    assert [[shape for shape, _ in draw.gamma_calls] for draw in draws] == [[1.0], [1.5]]
    times = hitting_times(states, 1, alpha, [0.3, 0.75, 0.6, 0.26, 0.75, 0.2], 4,
                          [_chain_draws(3), _chain_draws(4)])
    assert times.tolist() == [[[-1, 2, -1, -1, 2, -1]], [[4, 1, 1, 4, 1, -1]]]


def _time(trace):
    """run_until's hitting time as hitting_times gives it: -1 for None."""
    return -1 if trace.hitting_time is None else trace.hitting_time


@settings(max_examples=25)
@given(runs=st.lists(st.tuples(st.integers(2, 64), st.integers(0, 2 ** 32 - 1)),
                     min_size=1, max_size=6),
       powers=st.lists(st.integers(0, 300), min_size=1, max_size=5),
       max_iter=st.integers(1, 3000))
@example(runs=[(2 + i % 9, i) for i in range(40)],
         powers=[3, 0, 8, 3, 5, 1, 300], max_iter=4999)
def test_hitting_times_equal_run_until_run_for_run(runs, powers, max_iter):
    # groups of one on the same streams draw the same: every first passage
    # equals run_until's hitting time for that threshold, with thresholds
    # unsorted and repeated, immediate hits (epsilon = 1), censored runs and
    # budgets that end inside a block; the explicit example finishes runs in
    # many different blocks
    states = [initial_state(d, 1.0, 2.0) for d, _ in runs]
    epsilons = [10.0 ** -k for k in powers]
    lockstep = hitting_times(states, 1, 1.5, epsilons, max_iter,
                             [derive_stream(seed) for _, seed in runs])
    single = [[[_time(run_until(state, 1.5, epsilon, max_iter,
                                derive_stream(seed), record_every=max_iter))
                for epsilon in epsilons]]
              for state, (_, seed) in zip(states, runs)]
    assert lockstep.shape == (len(runs), 1, len(epsilons))
    assert lockstep.tolist() == single


def test_thresholds_in_any_order_equal_the_sorted_call_column_for_column():
    # unsorted and repeated thresholds, in the kernel and through
    # hitting_times; a budget of 400 censors some runs at 1e-6
    epsilons = [1e-3, 1e-1, 1e-6, 1e-3, 1e-2, 1e-1]
    ordered = sorted(set(epsilons), reverse=True)
    columns = [ordered.index(epsilon) for epsilon in epsilons]

    def kernel(thresholds):
        return es_hitting_times([1.0, 1.0], [0.5, 0.2], [4, 9], 7, 1.5, thresholds, 400,
                                [derive_stream(5, 0), derive_stream(5, 1)])

    def through_core(thresholds):
        return hitting_times([initial_state(6, 1.0, 2.0), initial_state(3, 1.0, 0.5)], 5,
                             1.5, thresholds, 400, [derive_stream(6, 0), derive_stream(6, 1)])

    for call in (kernel, through_core):
        unsorted, by_size = call(epsilons), call(ordered)
        assert np.any(unsorted < 0) and np.any(unsorted > 0)
        assert unsorted.tolist() == by_size[..., columns].tolist()


@pytest.mark.parametrize("max_iter", [1, 63, 64, 65, 100, 128])
def test_hitting_times_find_passages_at_both_block_edges(max_iter):
    # on this stream a success lands on each marked t (alpha = 1.05 from a
    # small step size keeps the success rate near 1/2), so the norm at t is
    # first reached at t: passages at the start, the last and the first step
    # of a block and on the budget's last step are found there, and those
    # past the budget are -1
    state = initial_state(8, 1.0, 0.01)
    marks = [0, 1, 63, 64, 65, 100, 128]
    norms = run_until(state, 1.05, 1e-300, 200, derive_stream(137)).norms
    assert all(norms[t] < norms[t - 1] for t in marks[1:])
    (times,) = hitting_times([state], 1, 1.05, norms[marks].tolist(), max_iter,
                             [derive_stream(137)])
    assert times.tolist() == [[t if t <= max_iter else -1 for t in marks]]


def test_sixty_thresholds_equal_sixty_run_until_calls():
    state = initial_state(6, 1.0, 2.0)
    epsilons = np.logspace(-0.5, -12, 60).tolist()
    (times,) = hitting_times([state], 1, 1.5, epsilons, 1000, [derive_stream(41)])
    assert np.any(times < 0) and np.any(times > 0)
    assert times.tolist() == [[_time(run_until(state, 1.5, epsilon, 1000, derive_stream(41),
                                               record_every=1000))
                               for epsilon in epsilons]]


@pytest.mark.parametrize("max_iter", [260, 300, 10 ** 7])
def test_hitting_time_does_not_depend_on_the_budget(max_iter):
    # every run draws full blocks, so a smaller budget only cuts the run
    # short; this stream hits in between the budgets
    def hit(budget):
        return run_until(initial_state(4, 1.0, 2.0), 1.5, 1e-4, budget,
                         derive_stream(20180715, 2, 19), record_every=budget).hitting_time

    uncensored = hit(10 ** 7)
    assert 260 < uncensored <= 300
    assert hit(max_iter) == (uncensored if uncensored <= max_iter else None)


def test_hitting_times_memory_does_not_grow_with_max_iter():
    # one draw block of kernels._ES_CHUNK steps per live run, whatever the
    # budget, and one first-passage slot per threshold; 1,000 groups of one
    n, d = 1000, 8
    rngs = [derive_stream(11, i) for i in range(n)]
    tracemalloc.start()
    try:
        times = es_hitting_times([1.0] * n, [2.0 / d] * n, [d] * n, 1, 1.5,
                                 [1e-2, 1e-3, 1e-4], 10 ** 9, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert times.shape == (n, 1, 3)
    assert np.all(times > 0)
    assert np.all(np.diff(times, axis=2) >= 0)
    assert peak < 4 * 2 ** 20


def test_hitting_times_memory_with_one_shared_generator():
    # a group of 1,000 runs draws one (_ES_CHUNK, 1000) block of each kind
    # at a time, 1 MB of blocks plus the draws being copied in
    n, d = 1000, 8
    tracemalloc.start()
    try:
        times = es_hitting_times([1.0], [2.0 / d], [d], n, 1.5, [1e-2, 1e-3, 1e-4],
                                 10 ** 9, [derive_stream(11)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert times.shape == (1, n, 3)
    assert np.all(times > 0)
    assert np.all(np.diff(times, axis=2) >= 0)
    assert peak < 4 * 2 ** 20


class GroupColumnDraw:
    """Stands in for a Generator, serving one run the column of a group's
    blocks that es_hitting_times gives it: each call draws the block of all
    ``size_of_group`` runs from ``rng`` and returns column ``column``."""

    def __init__(self, rng, size_of_group, column):
        self._rng = rng
        self._k = size_of_group
        self._j = column

    def _column(self, flat, size):
        return flat.reshape(size, self._k)[:, self._j].copy()

    def standard_normal(self, size):
        return self._column(self._rng.standard_normal(size * self._k), size)

    def standard_gamma(self, shape, size):
        return self._column(self._rng.standard_gamma(shape, size * self._k), size)


@settings(max_examples=25)
@given(groups=st.lists(st.tuples(st.integers(2, 64), st.integers(0, 2 ** 32 - 1),
                                 st.floats(0.25, 16.0)),
                       min_size=1, max_size=3),
       replicates=st.integers(1, 6),
       powers=st.lists(st.integers(0, 300), min_size=1, max_size=4),
       max_iter=st.integers(1, 3000))
@example(groups=[(3, 1, 0.5), (10, 2, 4.0)], replicates=15,
         powers=[4, 0, 8, 4, 300], max_iter=4999)
def test_hitting_times_group_equals_run_until_column_for_column(
        groups, replicates, powers, max_iter):
    # each group's replicates start together at its own d and step size and
    # share its generator; replicate i equals, threshold for threshold,
    # run_until fed column i of the group's blocks from a fresh copy of the
    # stream
    states = [initial_state(d, 1.0, sigma_bar) for d, _, sigma_bar in groups]
    epsilons = [10.0 ** -k for k in powers]
    lockstep = hitting_times(states, replicates, 1.5, epsilons, max_iter,
                             [derive_stream(seed) for _, seed, _ in groups])
    single = [[[_time(run_until(state, 1.5, epsilon, max_iter,
                                GroupColumnDraw(derive_stream(seed), replicates, i),
                                record_every=max_iter)) for epsilon in epsilons]
               for i in range(replicates)]
              for state, (_, seed, _) in zip(states, groups)]
    assert lockstep.shape == (len(groups), replicates, len(epsilons))
    assert lockstep.tolist() == single


def test_hitting_times_of_a_run_do_not_depend_on_the_rest_of_the_call():
    # a group of 6 runs at d = 8; budget 400 censors some at 1e-4
    state = initial_state(8, 1.0, 2.0)
    (base,) = hitting_times([state], 6, 1.5, [1e-2, 1e-4], 400, [derive_stream(31)])
    assert 0 < np.count_nonzero(base[:, 1] < 0) < 6
    # more thresholds, interleaved with the first two
    (more,) = hitting_times([state], 6, 1.5, [1e-3, 1e-2, 1e-6, 1e-4], 400,
                            [derive_stream(31)])
    assert more[:, [1, 3]].tolist() == base.tolist()
    # a larger budget only uncensors runs, each past the smaller budget
    (longer,) = hitting_times([state], 6, 1.5, [1e-2, 1e-4], 10 ** 7,
                              [derive_stream(31)])
    assert np.all(longer >= 0)
    assert np.where(longer <= 400, longer, -1).tolist() == base.tolist()
    # other groups join, before and after, at other starts
    other = [initial_state(16, 1.0, 2.0), initial_state(4, 1.0, 0.5)]
    joined = hitting_times([other[0], state, other[1]], 6, 1.5, [1e-2, 1e-4], 400,
                           [derive_stream(32), derive_stream(31), derive_stream(33)])
    assert joined[1].tolist() == base.tolist()


@pytest.mark.parametrize("max_iter, found_at", [(3000, 64), (30, 30)])
def test_a_step_size_overflow_stops_run_until_and_a_group_of_one(max_iter, found_at):
    # sigma = 1.7e308 / 2 at d = 2: the first success, at iteration 6 on
    # this stream, makes sigma infinite, and from there every step would
    # fail and leave it so. run_until raises at that iteration; the lockstep
    # raises at the next block boundary, or at the end of a shorter budget.
    # No RuntimeWarning may come out (Tier-1 makes them errors).
    state = initial_state(2, 1e308, 1.7)
    with pytest.raises(ConvergenceError, match="sigma overflowed at iteration 6$"):
        run_until(state, 1.5, 1e300, max_iter, derive_stream(4, 4, 0))
    with pytest.raises(ConvergenceError, match=f"sigma overflowed by iteration {found_at}$"):
        hitting_times([state], 1, 1.5, [1e300], max_iter, [derive_stream(4, 4, 0)])


def test_a_run_done_mid_block_is_frozen_before_its_step_size_overflows():
    # on this stream the first success, at t = 1, passes epsilon, and the
    # third, at t = 6 in the same block, would make sigma infinite; the run
    # was done by then, so the call returns its time and raises nothing
    state = initial_state(2, 1e308, 1.7)
    epsilon = 0.999e308
    assert run_until(state, 1.5, epsilon, 3000, derive_stream(4, 4, 0)).hitting_time == 1
    times = hitting_times([state], 1, 1.5, [epsilon], 3000, [derive_stream(4, 4, 0)])
    assert times.tolist() == [[[1]]]


def test_a_huge_start_step_size_fails_without_warnings_as_in_run_until():
    # q = sigma / ||m|| = 2.5e199 makes q * q overflow to inf, a failure in
    # both kernels, until sigma has shrunk; Tier-1 makes a RuntimeWarning an
    # error
    state = initial_state(4, 1e-100, 1e200)
    (runs,) = hitting_times([state], 1, 1.5, [1e-101, 1e-103], 10 ** 5, [derive_stream(5)])
    assert np.all(runs > 0)
    assert runs.tolist() == [[_time(run_until(state, 1.5, epsilon, 10 ** 5, derive_stream(5),
                                              record_every=10 ** 5))
                              for epsilon in (1e-101, 1e-103)]]


def test_hitting_times_validates_inputs():
    state = initial_state(4, 1.0, 2.0)
    with pytest.raises(ValueError, match="epsilon"):
        hitting_times([state], 1, 1.5, [0.0], 10, [derive_stream(0)])
    with pytest.raises(ValueError, match="max_iter"):
        hitting_times([state], 1, 1.5, [1e-2], 0, [derive_stream(0)])
    with pytest.raises(ValueError, match="alpha"):
        hitting_times([state], 1, 1.0, [1e-2], 10, [derive_stream(0)])
    with pytest.raises(ValueError, match="streams"):
        hitting_times([state, state], 1, 1.5, [1e-2], 10, [derive_stream(0)])
    with pytest.raises(ValueError, match="epsilon"):
        hitting_times([state], 1, 1.5, [], 10, [derive_stream(0)])
    with pytest.raises(ValueError, match="replicates"):
        hitting_times([state], 0, 1.5, [1e-2], 10, [derive_stream(0)])
    # two groups on one Generator would interleave their draws
    rng = derive_stream(0)
    with pytest.raises(ValueError, match="its own Generator"):
        hitting_times([state, state], 2, 1.5, [1e-2], 10, [rng, rng])


def test_run_until_thinning_keeps_hit_and_final(rng_for):
    full = run_until(initial_state(6, 1.0, 2.0), 1.5, 1e-3,
                     10_000, rng_for(6), record_every=1)
    thin = run_until(initial_state(6, 1.0, 2.0), 1.5, 1e-3,
                     10_000, rng_for(6), record_every=7)
    assert thin.hitting_time == full.hitting_time
    assert thin.ts[-1] == full.ts[-1]
    interior = thin.ts[:-1]
    assert np.all(interior % 7 == 0)
    # thinned rows agree with the dense trace
    np.testing.assert_allclose(thin.norms, full.norms[np.isin(full.ts, thin.ts)][
        np.argsort(np.argsort(thin.ts))], rtol=1e-15)


def test_run_until_exhausted_budget_reports_none(rng_for):
    trace = run_until(initial_state(6, 1.0, 2.0), 1.5, 1e-12, 50,
                      rng_for(7))
    assert trace.hitting_time is None
    assert trace.iterations == 50


def test_run_until_hits_targets_below_norm_squared_underflow():
    # ||m||^2 underflows once ||m|| < ~1e-162; every target below must
    # still take strictly longer to reach than the one above it
    hits = []
    for epsilon in (1e-200, 1e-250, 1e-300):
        trace = run_until(initial_state(10, 1.0, 2.0), 1.5, epsilon,
                          10_000_000, derive_stream(5, 0), record_every=10_000_000)
        assert 0.0 < trace.norms[-1] <= epsilon
        hits.append(trace.hitting_time)
    assert hits[0] < hits[1] < hits[2]


def test_initial_state_has_requested_normalized_step():
    state = initial_state(12, 0.7, 2.5)
    assert state.d * state.sigma / state.norm == pytest.approx(2.5, rel=1e-12)
    assert state.norm == pytest.approx(0.7)


@pytest.mark.parametrize("d", [1, 0, -1])
def test_initial_state_rejects_a_dimension_below_two(d):
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        initial_state(d, 1.0, 2.0)


def test_state_validation():
    for sigma in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma"):
            ESState(d=2, norm=1.0, sigma=sigma)
    # a step size that overflows to inf is no state
    with pytest.raises(ValueError, match="sigma must be finite"):
        initial_state(4, 1e300, 1e10)
    for d in (1, 2.0, 4.5):
        with pytest.raises(ValueError, match="dimension"):
            ESState(d=d, norm=1.0, sigma=0.5)
    for norm in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="norm"):
            ESState(d=2, norm=norm, sigma=0.5)
    # the optimum is a state; numpy integers are dimensions
    assert ESState(d=np.int64(2), norm=0.0, sigma=0.5).norm == 0.0
    with pytest.raises(ValueError, match="alpha"):
        es_step(np.eye(4)[0], 0.5, 1.0, derive_stream(0))
    state = initial_state(4, 1.0, 2.0)
    with pytest.raises(ValueError, match="alpha"):
        run_until(state, 1.0, 1e-2, 10, derive_stream(0))
    with pytest.raises(ValueError, match="alpha"):
        hitting_times([state], 1, 1.0, [1e-2], 10, [derive_stream(0)])
