"""Hot numeric kernels: the Monte Carlo samplers, the drift potential, and
the step primitives that the ES chain in :mod:`es_drift.core` shares.

On the sphere a Gaussian step from m = ||m|| e1 enters every quantity
only through its first coordinate z0 ~ N(0, 1) and the squared norm
chi2 ~ chi-squared(d - 1) of the other coordinates:

    ||e1 + s N||^2 = (1 + s z0)^2 + s^2 chi2.

So no kernel needs more than these two numbers per sample, whatever d,
and the ES run is the Markov chain in (||m||, sigma) alone, the
scale-invariance argument of Auger & Hansen (SIAM J. Optim. 2016). The
chain's two loops live in core: ``core.run_until`` steps one run, one
offspring per iteration, and ``core.hitting_times`` steps many runs in
lockstep. Both need both numbers on every step, draw them with ``_draw``
and step with ``_ratio_sq``, so every path that steps the ES computes the
norm ratio in one expression. The Monte Carlo samplers draw chi2 only
for the samples z0 leaves undecided: chi2 >= 0 only adds to
(1 + s z0)^2, so once z0 alone rules out a success (or an acute angle)
no chi2 can change the outcome, and each sampler decides from z0 with
the same floating-point expression its outcome uses. Every failure
moves the drift potential by the same amount, so the drift sampler
scores only the successes, each as its change less the failures', for
a whole grid of step sizes from one pool of draws. The potential is
written once, as a function of the log-norm x and the two penalty logs
of the step size; after a success the step size is fixed per grid
point, so the sampler computes its penalty logs once and scores a
success from x = log(cand_sq) / 2 with one log and no square root. The
acute-angle sampler scores a whole increasing list of dimensions from
one pool as well: z0 once per chunk, and chi2 for each d built from the
previous d's by one gamma increment, chi-squared(d - 1) being a sum of
independent chi-squared parts. The samplers reduce fixed-size chunks of
draws with vectorized numpy, which bounds peak memory. Every kernel
takes explicit ``numpy.random.Generator`` streams, so a given seed
yields the same sample sequence on every call.
"""

import numpy as np

# samples per chunk in the Monte Carlo samplers (bounds peak memory)
_CHUNK = 1 << 20
# stand-in for an infinite log-progress on a measure-zero collinear hit
LOG_PROGRESS_CAP = 700.0


def _penalty_logs(sigma, d, alpha, ell, u):
    """(lo, hi) at step size sigma: the penalties at log-norm x are x + lo
    (step size too small) and hi - x (too large). log(sigma) is added
    apart, since d * sigma overflows at a norm near the float ceiling."""
    log_sigma = np.log(sigma)
    return np.log(alpha * ell / d) - log_sigma, np.log(alpha ** 0.25 * d / u) + log_sigma


def _log_potential(x, lo, hi, v):
    """The drift potential at log-norm x, given the step size's penalty logs:
    x + v * max(0, x + lo, hi - x).

    Written as the largest of three lines in x, with slopes 1, 1 + v and
    1 - v, all positive for 0 <= v < 1, so the optimum, x = log 0 = -inf,
    gives -inf instead of NaN.
    """
    return np.maximum(x, np.maximum((1.0 + v) * x + v * lo,
                                    (1.0 - v) * x + v * hi))


def potential_value(norm_m, sigma, d, alpha, ell, u, v):
    """log-norm plus step-size penalty: the drift potential at (norm, sigma).

    Elementwise on arrays; returns a numpy float for scalar arguments.
    Evaluated as _log_potential at x = log(norm_m), like the drift sampler's
    scores.
    """
    return _log_potential(np.log(norm_m), *_penalty_logs(sigma, d, alpha, ell, u), v)


def _draw(d, k, rng):
    """k draws of (z0, chi2_{d-1}) as a pair of arrays.

    chi2 is 2 * Gamma((d - 1)/2), which is 0 at d = 1, where
    ``Generator.chisquare`` would reject df = 0.
    """
    return rng.standard_normal(k), 2.0 * rng.standard_gamma(0.5 * (d - 1), k)


def _deciding_draws(d, n, rng, undecided):
    """n samples in chunks of at most _CHUNK, chi2 drawn only where it counts.

    Yields (k, z0, chi2) per chunk of k samples: z0 holds the first
    coordinates that ``undecided(z0)`` marks, and chi2 one chi-squared(d - 1)
    draw for each of them. A sample left out is one whose outcome z0
    already settles whatever chi2 >= 0 adds.
    """
    for start in range(0, n, _CHUNK):
        k = min(_CHUNK, n - start)
        z0 = rng.standard_normal(k)
        z0 = z0[undecided(z0)]
        yield k, z0, 2.0 * rng.standard_gamma(0.5 * (d - 1), z0.size)


def _ratio_sq(q, z0, chi2):
    """||e1 + q N||^2 for the draw (z0, chi2): the squared offspring-to-parent
    norm ratio of a step with q = sigma/||m||. Elementwise on arrays; every
    loop that steps the ES computes it here, so all agree to the bit."""
    x = 1.0 + q * z0
    return x * x + q * q * chi2


def truncated_drift_sums(norm_m, sigma, d, alpha, ell, u, v, a_cut, n, rng):
    """Sums of max(dV, -a_cut) over n one-step transitions, about y_fail,
    for each step size in the array ``sigma``.

    Transitions restart from (norm_m, sigma[i]), so the mean is the
    conditional expected truncated potential change there. All step sizes
    score one pool: z0 once per chunk, chi2 only where the smallest step
    size leaves z0 undecided (a z0 deciding a failure there decides one at
    every larger step size, as rounding is monotone). Each failure moves
    the potential by y_fail, so only successes are scored. Returns arrays
    (y_fail, sum, sum_sq), one entry per step size, the sums of
    y - y_fail over the successes: the mean is y_fail + sum / n, and a
    point where every sample fails has sum = sum_sq = 0 exactly.
    """
    sigmas = np.array(sigma, np.float64, ndmin=1)
    v_now = potential_value(norm_m, sigmas, d, alpha, ell, u, v)
    y_fail = np.maximum(potential_value(norm_m, sigmas * alpha ** -0.25,
                                        d, alpha, ell, u, v) - v_now, -a_cut)
    # a success multiplies the step size by alpha; its penalty logs are
    # fixed per step size, so scoring one costs one log
    lo_up, hi_up = _penalty_logs(sigmas * alpha, d, alpha, ell, u)
    points = list(zip(sigmas.tolist(), lo_up.tolist(), hi_up.tolist(),
                      v_now.tolist(), y_fail.tolist()))
    norm_sq = norm_m * norm_m
    s_min = sigmas.min()
    total = np.zeros(sigmas.size)
    total_sq = np.zeros(sigmas.size)
    for _, z0, chi2 in _deciding_draws(
            d, n, rng, lambda z0: (norm_m + s_min * z0) ** 2 <= norm_sq):
        for i, (s, lo, hi, v_i, y_fail_i) in enumerate(points):
            # (norm_m + s z0)^2 + s^2 chi2, and the scoring below, in place
            cand_sq = s * z0
            cand_sq += norm_m
            np.square(cand_sq, out=cand_sq)
            cand_sq += (s * s) * chi2
            x = cand_sq[cand_sq <= norm_sq]
            # an exact hit of the optimum has x = -inf, so y = -a_cut
            with np.errstate(divide="ignore"):
                np.log(x, out=x)
            x *= 0.5
            y = _log_potential(x, lo, hi, v)
            y -= v_i
            np.maximum(y, -a_cut, out=y)
            y -= y_fail_i
            total[i] += y.sum()
            total_sq[i] += (y * y).sum()
    return y_fail, total, total_sq


def har_log_progress_pool_sums(ds, n, rng):
    """Sums of -log(sin(theta)) on acute angles, theta = angle(N, e1), in
    every dimension of ``ds``, all scored on one pool of n draws.

    ``ds`` is a strictly increasing sequence of dimensions >= 2. Each chunk
    draws z0 once and keeps the acute angles, z0 >= 0, once, then one
    gamma draw per d in the order of ``ds``: chi2 for ds[0] is
    chi-squared(ds[0] - 1), and chi2 for ds[k] is that of ds[k - 1] plus
    2 * Gamma((ds[k] - ds[k - 1]) / 2). So each entry has the exact
    chi-squared(d - 1) law, the entries are correlated, and a one-d pool
    draws exactly what scoring that d alone would. Returns arrays
    (sum, sum_sq, n_capped), one entry per d; obtuse angles contribute
    zero, and exact collinear draws (chi2 = 0) are capped at
    LOG_PROGRESS_CAP and counted.
    """
    total = np.zeros(len(ds))
    total_sq = np.zeros(len(ds))
    capped = np.zeros(len(ds), np.int64)
    for _, z0, chi2 in _deciding_draws(ds[0], n, rng, lambda z0: z0 >= 0.0):
        z0_sq = z0 * z0
        for i, d in enumerate(ds):
            if i:
                chi2 += 2.0 * rng.standard_gamma(0.5 * (d - ds[i - 1]), z0.size)
            with np.errstate(divide="ignore"):
                lp = -0.5 * np.log(chi2 / (z0_sq + chi2))
            over = lp > LOG_PROGRESS_CAP
            capped[i] += np.count_nonzero(over)
            lp = np.where(over, LOG_PROGRESS_CAP, lp)
            total[i] += lp.sum()
            total_sq[i] += (lp * lp).sum()
    return total, total_sq, capped
