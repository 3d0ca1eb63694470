"""Output checks: every driver output file against the oracles.

Each checked row, fit or summary is one operation. An operation fails
when any of its conditions fails. One kind of failure is a known fault
of the program and is only counted: ``psucc_exact`` missing its stated
tolerance on ``success-curve`` points (see KNOWN_FAULT). Any other
failure is an error and makes the run incorrect.

Monte Carlo outputs are compared with their oracle at no less than
FIVE_SE combined standard errors, so a correct program passes on any seed
(false-alarm rates are in the README).
"""

import csv
import functools
import json
import math
from statistics import NormalDist

import numpy as np

import oracles

FIVE_SE = 5.0
# two-sided tail of a normal beyond 5 standard errors
FALSE_ALARM = math.erfc(FIVE_SE / math.sqrt(2.0))
Z99 = NormalDist().inv_cdf(0.995)
KNOWN_FAULT = "psucc_exact misses its tolerance"

# the drivers' fixed grids, restated rather than imported from es_drift so
# that a changed grid shows up as a failed layout check
CURVE_D = (2, 4, 8, 16, 32, 64, 128, 256)
CURVE_RHO = (0.0, 1.0)
CURVE_GRID = np.exp(np.linspace(math.log(0.125), math.log(8.0), 64))
HAR_D = (2, 4, 8, 16, 32, 64, 128)
DRIFT_GRID_POINTS = 32
DRIFT_SPAN = (0.01, 100.0)


class Tally:
    """Operations attempted, failed by the known fault, and errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, label, problems, known=False):
        """Record one operation; ``problems`` lists its failed conditions.

        With ``known`` the problems are the known fault and only count.
        """
        self.attempted += 1
        if problems and known:
            self.failed += 1
        elif problems:
            self.errors.append(f"{label}: " + "; ".join(problems))


def bernstein_threshold(n, variance, span):
    """Deviation t of a mean of n iid draws, each within ``span`` of the
    true mean, that Bernstein's inequality
    P(|mean - mu| >= t) <= 2 exp(-n t^2 / (2 variance + 2 span t / 3))
    bounds by FALSE_ALARM.

    It is at least 5.4 standard errors. Unlike a normal approximation it
    also holds for rare events, where a single success among n trials
    moves the mean by many standard errors.
    """
    log_term = math.log(2.0 / FALSE_ALARM)
    b = 2.0 * log_term * span / 3.0
    return (b + math.sqrt(b * b + 8.0 * n * log_term * variance)) / (2.0 * n)


def close(a, b, rel, abs_tol=0.0):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def read_csv(path):
    """(rows as dicts, comment lines) of a driver CSV."""
    lines = open(path).read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return rows, comments


def _flag(text):
    return {"true": True, "false": False}[text]


def _schema(comments, problems):
    if not comments or comments[0] != "# schema_version=1":
        problems.append("missing '# schema_version=1' header")


@functools.cache
def _constants(d, alpha, p_u, p_l):
    return oracles.constants(d, alpha, p_u, p_l)


def constants_for(d, params):
    """Oracle constant set for dimension d, computed once per process."""
    return _constants(d, params["alpha"], params["p_u"], params["p_l"])


# ---------------------------------------------------------------------------

def check_success_curve(path, params, tally):
    rows, comments = read_csv(path)
    problems = []
    _schema(comments, problems)
    expected = [(rho, d, s) for rho in CURVE_RHO for d in CURVE_D for s in CURVE_GRID]
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, expected {len(expected)}")
    tally.op("success-curve layout", problems)
    tol = params["tol"]
    for row, (rho, d, s) in zip(rows, expected):
        label = f"success-curve rho={rho} d={d} sigma_bar={s:.6g}"
        problems = []
        sb, p_exact = float(row["sigma_bar"]), float(row["p_exact"])
        p_limit, gap = float(row["p_limit"]), float(row["abs_gap"])
        if (float(row["rho"]), int(row["d"])) != (rho, d) or not close(sb, s, 1e-14):
            problems.append(f"row out of place: {row}")
        if not close(p_limit, float(oracles.psucc_limit(rho, sb)), 1e-13, 1e-300):
            problems.append(f"p_limit {p_limit!r} != ndtr {oracles.psucc_limit(rho, sb)!r}")
        if gap != abs(p_exact - p_limit):
            problems.append(f"abs_gap {gap!r} != |p_exact - p_limit|")
        if problems:
            tally.op(label, problems)
            continue
        oracle = float(oracles.psucc(d, rho / d, sb))
        miss = abs(p_exact - oracle)
        tally.op(label, [f"{KNOWN_FAULT}: |p_exact - chndtr| = {miss:.3g} > tol {tol:g}"]
                 if miss > tol else [], known=True)


def check_bounds(path, params, tally):
    payload = json.load(open(path))
    problems = []
    for key in ("alpha", "p_u", "p_l", "epsilon", "m0_norm", "sigma_bar0"):
        if payload.get(key) != params[key]:
            problems.append(f"{key}={payload.get(key)!r}, expected {params[key]!r}")
    if payload.get("schema_version") != 1:
        problems.append("schema_version != 1")
    ds = [entry["d"] for entry in payload["instances"]]
    if ds != list(params["d_list"]):
        problems.append(f"instances for d={ds}, expected {list(params['d_list'])}")
    tally.op("bounds header", problems)
    scaled_b = {}
    for entry in payload["instances"]:
        d, c = entry["d"], entry["constants"]
        label = f"bounds d={d}"
        problems = []
        ref = constants_for(d, params)
        # the band ends and band minima against chndtr, at derive_constants' tol
        for key in ("ell", "u"):
            p_target = params["p_l"] if key == "ell" else params["p_u"]
            p_at = float(oracles.psucc(d, 0.0, c[key]))
            if abs(p_at - p_target) > 1e-8:
                problems.append(f"chndtr at {key}={c[key]!r} is {p_at!r}, not {p_target}")
        for key in ("p_prime", "p_star"):
            if abs(c[key] - ref[key]) > 1e-8:
                problems.append(f"{key}={c[key]!r}, band minimum by chndtr {ref[key]!r}")
        # closed forms on the file's own band and minima
        forms = oracles.closed_forms(d, params["alpha"], params["p_u"], params["p_l"],
                                     c["ell"], c["u"], c["p_prime"], c["p_star"])
        for key in ("A", "r_prime", "v", "r", "B", "L", "U"):
            if not close(c[key], forms[key], 1e-12):
                problems.append(f"{key}={c[key]!r}, closed form {forms[key]!r}")
        if not 0.0 < c["L"] <= c["B"] <= c["U"]:
            problems.append("0 < L <= B <= U violated")
        if not c["u"] / c["ell"] >= params["alpha"] ** 1.25:
            problems.append("u / ell < alpha^(5/4)")
        v0, lower, upper = oracles.hitting_bounds(params["m0_norm"], params["sigma_bar0"],
                                                  params["epsilon"], forms)
        for key, value in (("potential_at_start", v0), ("lower_bound", lower),
                           ("upper_bound", upper)):
            if not close(entry[key], value, 1e-12):
                problems.append(f"{key}={entry[key]!r}, closed form {value!r}")
        if not lower < upper:
            problems.append("lower bound not below upper bound")
        scaled_b[d] = d * c["B"]
        tally.op(label, problems)
    # d*B stays in a fixed band as d grows (paper: B = Theta(1/d))
    band = [value for d, value in scaled_b.items() if d >= 8]
    spread = max(band) / min(band)
    tally.op("bounds d*B band", [] if spread < 3.0 else [f"max/min d*B = {spread:.3f}"])


def check_drift_map(path, params, tally):
    rows, comments = read_csv(path)
    problems = []
    _schema(comments, problems)
    n = params["mc_samples"]
    points = DRIFT_GRID_POINTS
    if [int(r["d"]) for r in rows] != [d for d in params["d_list"] for _ in range(points)]:
        problems.append("rows are not 32 grid points per configured d")
    tally.op("drift-map layout", problems)
    for i, row in enumerate(rows):
        d = int(row["d"])
        c = constants_for(d, params)
        sb, mean = float(row["sigma_bar"]), float(row["drift_mean"])
        hw, bound = float(row["ci_halfwidth"]), float(row["bound_B"])
        label = f"drift-map d={d} sigma_bar={sb:.6g}"
        problems = []
        k = i % points
        grid_sb = math.exp(math.log(DRIFT_SPAN[0] * c["ell"]) + k / (points - 1)
                           * math.log(DRIFT_SPAN[1] * c["u"] / (DRIFT_SPAN[0] * c["ell"])))
        if not close(sb, grid_sb, 1e-7):
            problems.append(f"sigma_bar {sb!r} is not grid point {k} ({grid_sb!r})")
        regime = ("small_sigma" if sb < c["ell"] else
                  "large_sigma" if sb > c["u"] else "reasonable_sigma")
        near_edge = min(abs(sb / c["ell"] - 1.0), abs(sb / c["u"] - 1.0)) < 1e-6
        if row["regime"] != regime and not near_edge:
            problems.append(f"regime {row['regime']}, expected {regime}")
        if not close(bound, c["B"], 1e-6):
            problems.append(f"bound_B {bound!r}, oracle B {c['B']!r}")
        if _flag(row["satisfied"]) != (mean + hw <= -bound):
            problems.append("satisfied flag disagrees with drift_mean + ci_halfwidth <= -B")
        moments = oracles.drift_moments(sb, c)
        expected = moments.mean
        if not expected <= -c["B"]:
            problems.append(f"oracle drift {expected:.6g} above -B (theory violated)")
        y_fail = oracles.failure_drift(sb, c)
        if n * moments.p_success < 1e-9:
            # every trial fails: no spread, and the estimate is the failure
            # value up to the ~1e-9 relative gap between the oracle's
            # constants and the program's
            if not close(mean, y_fail, 1e-7) or hw > 1e-8 * abs(y_fail):
                problems.append(f"all-fail row: drift_mean {mean!r} (hw {hw!r}) "
                                f"!= failure value {y_fail!r}")
        else:
            # plus summation rounding in the program and the quadrature's error
            limit = (bernstein_threshold(n, moments.variance, moments.span)
                     + 1e-12 * abs(y_fail) + moments.quad_error)
            if abs(mean - expected) > limit:
                se = math.sqrt(moments.variance / n)
                problems.append(f"drift_mean {mean:.6g} vs quadrature {expected:.6g}: "
                                f"{abs(mean - expected) / se:.2f} standard errors, "
                                f"limit {limit / se:.2f}")
        tally.op(label, problems)


def check_har(path, params, tally):
    rows, comments = read_csv(path)
    problems = []
    _schema(comments, problems)
    if [int(r["d"]) for r in rows] != list(HAR_D):
        problems.append(f"dimensions {[r['d'] for r in rows]}, expected {list(HAR_D)}")
    tally.op("har-check layout", problems)
    for row in rows:
        d = int(row["d"])
        label = f"har-check d={d}"
        problems = []
        mc, hw = float(row["mc_mean"]), float(row["mc_ci_halfwidth"])
        quad_value, bound = float(row["quadrature"]), float(row["bound"])
        exact = oracles.acute_log_progress(d)
        if bound != 1.0 / d:
            problems.append(f"bound {bound!r} != 1/d")
        if not exact <= 1.0 / d:
            problems.append(f"closed form {exact!r} above 1/d (theory violated)")
        if abs(quad_value - exact) > params["tol"]:
            problems.append(f"quadrature {quad_value!r} vs closed form {exact!r}")
        se = hw / Z99
        if not abs(mc - exact) <= FIVE_SE * se:
            problems.append(f"mc_mean {mc!r} vs closed form {exact!r}: "
                            f"{abs(mc - exact) / se:.2f} standard errors")
        gap = abs(mc - quad_value) / se if se > 0.0 else 0.0
        if not close(float(row["gap_sigmas"]), gap, 1e-9):
            problems.append(f"gap_sigmas {row['gap_sigmas']} != {gap!r}")
        passed = mc - hw <= bound and quad_value <= bound and gap < 4.0
        if _flag(row["passed"]) != passed:
            problems.append("passed flag disagrees with its definition")
        tally.op(label, problems)


def _r_squared(x, y):
    residual = y - np.polyval(np.polyfit(x, y, 1), x)
    return 1.0 - float((residual ** 2).sum()) / float(((y - y.mean()) ** 2).sum())


def check_hitting_scaling(path, params, tally):
    rows, comments = read_csv(path)
    problems = []
    _schema(comments, problems)
    cells = [(d, eps) for d in params["d_list"] for eps in params["eps_list"]]
    if [(int(r["d"]), float(r["epsilon"])) for r in rows] != cells:
        problems.append("rows are not one per (d, epsilon) in order")
    tally.op("hitting-scaling layout", problems)
    mean_t = {}
    for row, (d, eps) in zip(rows, cells):
        label = f"hitting-scaling d={d} epsilon={eps:g}"
        problems = []
        c = constants_for(d, params)
        _, lower, upper = oracles.hitting_bounds(params["m0_norm"], params["sigma_bar0"],
                                                 eps, c)
        mean, hw = float(row["mean_T"]), float(row["ci_halfwidth"])
        mean_t[d, eps] = mean
        if int(row["replicates"]) != params["replicates"]:
            problems.append(f"replicates {row['replicates']}")
        if int(row["censored_runs"]) != 0:
            problems.append(f"{row['censored_runs']} censored runs")
        if not close(float(row["lower_bound"]), lower, 1e-12):
            problems.append(f"lower_bound {row['lower_bound']}, closed form {lower!r}")
        if not close(float(row["upper_bound"]), upper, 1e-6):
            problems.append(f"upper_bound {row['upper_bound']}, closed form {upper!r}")
        if not (math.isfinite(mean) and lower <= mean - hw and mean + hw <= upper):
            problems.append(f"mean_T {mean} +- {hw} outside [{lower:.6g}, {upper:.6g}]")
        if not _flag(row["within_bounds"]):
            problems.append("within_bounds is false")
        tally.op(label, problems)
    fits = {line.split(":")[0]: line for line in comments if line.startswith("# fit ")}
    x = np.log(1.0 / np.array(params["eps_list"]))
    for d in params["d_list"]:
        y = np.array([mean_t.get((d, eps), math.nan) for eps in params["eps_list"]])
        r_squared = _r_squared(x, y)
        line = fits.get(f"# fit d={d}", "")
        problems = []
        if not _comment_close(line, "r_squared", r_squared):
            problems.append(f"fit comment {line!r} disagrees with r_squared={r_squared!r}")
        if not r_squared > 0.99:
            problems.append(f"R^2 = {r_squared:.5f} in log(1/epsilon), not above 0.99")
        tally.op(f"hitting-scaling fit d={d}", problems)
    bands = {line.split(":")[0]: line for line in comments if line.startswith("# rate_band")}
    for eps in params["eps_list"]:
        per_d = [mean_t.get((d, eps), math.nan) / d for d in params["d_list"]]
        ratio = max(per_d) / min(per_d)
        line = bands.get(f"# rate_band epsilon={eps!r}", "")
        problems = []
        if not _comment_close(line, "max_over_min_T_per_d", ratio):
            problems.append(f"rate band comment {line!r} disagrees with {ratio!r}")
        if not ratio < 3.0:
            problems.append(f"max/min mean_T/d = {ratio:.3f}, not below 3")
        tally.op(f"hitting-scaling rate band epsilon={eps:g}", problems)


def _comment_close(line, key, value):
    for part in line.split():
        if part.startswith(key + "="):
            return close(float(part.split("=", 1)[1]), value, 1e-9)
    return False


def check_run(path, params, tally):
    rows, comments = read_csv(path)
    problems = []
    _schema(comments, problems)
    summary = dict(line[2:].split("=", 1) for line in comments[1:])
    d, alpha, eps = params["d"], params["alpha"], params["epsilon"]
    c = constants_for(d, params)
    ts = np.array([int(r["t"]) for r in rows])
    norms = np.array([float(r["norm_m"]) for r in rows])
    sigmas = np.array([float(r["sigma"]) for r in rows])
    succ = np.array([_flag(r["success"]) for r in rows])
    if not np.array_equal(ts, np.arange(len(rows))):
        problems.append("t is not 0, 1, 2, ... with --record-every 1")
    if norms[0] != params["m0_norm"] or not close(sigmas[0], params["sigma_bar0"] / d, 1e-15):
        problems.append("first record is not the start state")
    below = np.nonzero(norms <= eps)[0]
    hitting = int(below[0]) if below.size else None
    if summary.get("hitting_time") != str(hitting) or hitting != len(rows) - 1:
        problems.append(f"hitting_time {summary.get('hitting_time')}, first t with "
                        f"||m|| <= epsilon is {hitting}, last t is {len(rows) - 1}")
    if summary.get("iterations") != str(len(rows) - 1):
        problems.append(f"iterations {summary.get('iterations')}")
    n_success = int(summary.get("n_success", -1))
    if n_success != int(succ.sum()) or succ[-1]:
        problems.append(f"n_success {n_success} != {int(succ.sum())} success flags")
    steps = len(rows) - 1
    implied = (math.log(sigmas[-1] / sigmas[0]) + 0.25 * steps * math.log(alpha)) / (
        1.25 * math.log(alpha))
    if abs(implied - n_success) > 1e-6:
        problems.append(f"log(sigma_T/sigma_0) implies {implied:.6f} successes, "
                        f"n_success is {n_success}")
    tally.op("run summary", problems)
    factor = np.where(succ[:-1], alpha, alpha ** -0.25)
    ratio_ok = np.abs(sigmas[1:] / sigmas[:-1] / factor - 1.0) <= 1e-12
    norm_ok = np.where(succ[:-1], norms[1:] <= norms[:-1], norms[1:] == norms[:-1])
    for i, row in enumerate(rows):
        problems = []
        if i < steps and not ratio_ok[i]:
            problems.append("sigma ratio is neither alpha nor alpha^(-1/4) as flagged")
        if i < steps and not norm_ok[i]:
            problems.append("norm increased or changed on a failed step")
        if not close(float(row["sigma_bar"]), d * sigmas[i] / norms[i], 1e-12):
            problems.append("sigma_bar != d * sigma / ||m||")
        if not close(float(row["potential"]), oracles.potential(norms[i], sigmas[i], c),
                     1e-9, 1e-9):
            problems.append(f"potential {row['potential']} != recomputation")
        tally.op(f"run t={i}", problems)


CHECKS = {
    "success-curve": check_success_curve,
    "bounds": check_bounds,
    "drift-map": check_drift_map,
    "har-check": check_har,
    "hitting-scaling": check_hitting_scaling,
    "run": check_run,
}


def check_job(job, tally):
    """Check one job's output file; a missing or unreadable file is an error."""
    try:
        CHECKS[job["command"]](job["out"], job["params"], tally)
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        tally.op(f"{job['command']} output", [f"unreadable: {exc!r}"])
