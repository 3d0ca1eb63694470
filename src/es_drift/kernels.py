"""Hot numeric kernels: the Monte Carlo samplers and the ES run loop.

The samplers draw standard normals in chunks of at most _CHUNK_BUDGET
values, which bounds peak memory, and reduce each chunk with vectorized
numpy. The ES run is sequential, one offspring per iteration. Every
kernel takes an explicit ``numpy.random.Generator``, so a given seed
yields the same sample sequence on every call.
"""

import math

import numpy as np

# values per numpy chunk in the samplers (bounds peak memory)
_CHUNK_BUDGET = 4_000_000

# stand-in for an infinite log-progress on a measure-zero collinear hit
LOG_PROGRESS_CAP = 700.0

# es_run multiplies m, sigma and epsilon by 2**_RESCALE_EXP once ||m||
# falls below 2**-_RESCALE_EXP, long before ||m||^2 underflows; a power
# of two scales every value exactly, so the trajectory is unchanged
_RESCALE_EXP = 256


def potential_value(norm_m, sigma, d, alpha, ell, u, v):
    """log-norm plus step-size penalty: the drift potential at (norm, sigma)."""
    pen_small = math.log(alpha * ell * norm_m / (d * sigma))
    pen_large = math.log(alpha ** 0.25 * sigma * d / (u * norm_m))
    pen = pen_small if pen_small > pen_large else pen_large
    if pen < 0.0:
        pen = 0.0
    return math.log(norm_m) + v * pen


def _normal_chunks(d, n, rng):
    """n standard normal d-vectors as row blocks of at most _CHUNK_BUDGET values."""
    chunk = max(1, _CHUNK_BUDGET // d)
    for start in range(0, n, chunk):
        yield rng.standard_normal((min(chunk, n - start), d))


def success_mc_hits(scale, radius, d, n, rng):
    """Count samples with ||e1 + scale*N|| < radius, N a d-dim standard normal."""
    r2 = radius * radius
    hits = 0
    for z in _normal_chunks(d, n, rng):
        s = (1.0 + scale * z[:, 0]) ** 2 + (scale * scale) * (z[:, 1:] ** 2).sum(axis=1)
        hits += int(np.count_nonzero(s < r2))
    return hits


def truncated_drift_sums(norm_m, sigma, d, alpha, ell, u, v, a_cut, n, rng):
    """Sum and sum-of-squares of max(dV, -a_cut) over n one-step transitions.

    All transitions restart from the same state (norm_m, sigma); the mean
    is the conditional expected truncated potential change at that state.
    """
    v_now = potential_value(norm_m, sigma, d, alpha, ell, u, v)
    quarter_root = alpha ** 0.25
    total = 0.0
    total_sq = 0.0
    for z in _normal_chunks(d, n, rng):
        cand_sq = (norm_m + sigma * z[:, 0]) ** 2 + (sigma * sigma) * (z[:, 1:] ** 2).sum(axis=1)
        succ = cand_sq <= norm_m * norm_m
        new_norm = np.where(succ, np.sqrt(cand_sq), norm_m)
        new_sigma = np.where(succ, sigma * alpha, sigma * alpha ** -0.25)
        pen_small = np.log(alpha * ell * new_norm / (d * new_sigma))
        pen_large = np.log(quarter_root * new_sigma * d / (u * new_norm))
        pen = np.maximum(0.0, np.maximum(pen_small, pen_large))
        y = np.maximum(np.log(new_norm) + v * pen - v_now, -a_cut)
        total += float(y.sum())
        total_sq += float((y * y).sum())
    return total, total_sq


def har_log_progress_sums(d, n, rng):
    """Sums of -log(sin(theta)) on acute angles, theta = angle(N, e1).

    Returns (sum, sum_sq, n_capped); obtuse angles contribute zero,
    exact collinear draws are capped at LOG_PROGRESS_CAP.
    """
    total = 0.0
    total_sq = 0.0
    capped = 0
    for g in _normal_chunks(d, n, rng):
        g1 = g[:, 0]
        s2 = (g[:, 1:] ** 2).sum(axis=1)
        acute = g1 >= 0.0
        with np.errstate(divide="ignore"):
            lp = -0.5 * np.log(s2 / (g1 * g1 + s2))
        lp = np.where(acute, lp, 0.0)
        over = lp > LOG_PROGRESS_CAP
        capped += int(np.count_nonzero(over))
        lp = np.where(over, LOG_PROGRESS_CAP, lp)
        total += float(lp.sum())
        total_sq += float((lp * lp).sum())
    return total, total_sq, capped


def es_run(m0, sigma0, alpha, epsilon, max_iter, every, rng):
    """Elitist (1+1) run on the sphere until ||m|| <= epsilon or max_iter.

    Records the state every ``every`` iterations plus the final state.
    The success flag stored with a record belongs to the step taken
    from the recorded state (False on the final record).
    Returns (ts, norms, sigmas, successes, hit, t_final, n_success).
    """
    d = m0.shape[0]
    max_rec = max_iter // every + 3
    ts = np.empty(max_rec, np.int64)
    norms = np.empty(max_rec, np.float64)
    sigmas = np.empty(max_rec, np.float64)
    successes = np.zeros(max_rec, np.bool_)
    m = m0.copy()
    sigma = sigma0
    sigma_down = alpha ** -0.25
    rescale_below = math.ldexp(1.0, -2 * _RESCALE_EXP)
    scale_exp = 0  # true m, sigma and epsilon are the stored ones times 2**scale_exp
    t = 0
    n_rec = 0
    n_success = 0
    while True:
        cur_sq = float(m @ m)
        if cur_sq < rescale_below and cur_sq > 0.0:
            m = np.ldexp(m, _RESCALE_EXP)
            sigma = math.ldexp(sigma, _RESCALE_EXP)
            epsilon = math.ldexp(epsilon, _RESCALE_EXP)
            scale_exp -= _RESCALE_EXP
            cur_sq = float(m @ m)
        norm = math.sqrt(cur_sq)
        hit = norm <= epsilon
        done = hit or t >= max_iter
        recorded = (t % every == 0) or done
        if recorded:
            ts[n_rec] = t
            norms[n_rec] = math.ldexp(norm, scale_exp)
            sigmas[n_rec] = math.ldexp(sigma, scale_exp)
            successes[n_rec] = False
            n_rec += 1
        if done:
            return (ts[:n_rec], norms[:n_rec], sigmas[:n_rec],
                    successes[:n_rec], hit, t, n_success)
        cand = m + sigma * rng.standard_normal(d)
        success = float(cand @ cand) <= cur_sq
        if recorded:
            successes[n_rec - 1] = success
        if success:
            m = cand
            sigma *= alpha
            n_success += 1
        else:
            sigma *= sigma_down
        t += 1
