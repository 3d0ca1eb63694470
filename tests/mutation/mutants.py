"""One-line mutants of src/ and the Tier-1 tests that kill them.

Each entry names a file under the repository root, an exact string that
occurs once in it, its replacement, and the test ids expected to fail
once the replacement is made. ``run.py`` applies each entry to a copy of
the tree and runs those tests.
"""

_ORACLE = ("tests/test_constants_oracle.py"
           "::test_derive_constants_matches_the_closed_form_oracle")
_CEILING_RUN = ("tests/test_cli.py"
                "::test_run_keeps_sigma_bar_and_the_potential_finite_near_the_float_ceiling")
_OVERFLOW = ("tests/test_core.py"
             "::test_a_step_size_overflow_stops_run_until_and_a_group_of_one")
_CELLS = "tests/test_cli.py::test_hitting_scaling_cells_equal_the_per_cell_formula"
_BLOCK_EDGES = "tests/test_core.py::test_hitting_times_find_passages_at_both_block_edges"
_FAILURE = "tests/test_cli.py::test_command_line_failure"
_REGIMES = "tests/test_potential.py::test_drift_map_rows_and_regime_boundaries"
_SLOPE_SE = "tests/test_cli.py::test_hitting_scaling_slope_se_is_the_spread_of_the_per_chain_slopes"
_CHI_MOMENTS = "tests/test_success.py::test_chi_rule_matches_the_chi2_moments"
_CHI_SWITCH = "tests/test_success.py::test_psucc_exact_chi_form_agrees_with_chndtr_across_the_switch"

MUTANTS = [
    # -- the constant set (potential._constant_sets) --------------------
    # the first three halve B and L, raise U by a third, and drop r's
    # 1/(1 - v); every Tier-1 test outside tests/test_constants_oracle.py
    # passes with them
    {"file": "src/es_drift/potential.py",
     "old": "min(5.0 * p_l - 1.0, 1.0 - 5.0 * p_u) / 4.0",
     "new": "min(5.0 * p_l - 1.0, 1.0 - 5.0 * p_u) / 8.0",
     "tests": [_ORACLE]},
    {"file": "src/es_drift/potential.py",
     "old": "U = (p_star / d) * 0.375",
     "new": "U = (p_star / d) * 0.5",
     "tests": [_ORACLE,
               "tests/test_constants_oracle.py::test_drift_bound_is_the_smaller_outer_regime_term"]},
    {"file": "src/es_drift/potential.py",
     "old": "r = 1.0 - math.exp(-A / (1.0 - v))",
     "new": "r = 1.0 - math.exp(-A)",
     "tests": [_ORACLE]},
    {"file": "src/es_drift/potential.py",
     "old": "min(5.0 * p_l - 1.0, 1.0 - 5.0 * p_u)",
     "new": "max(5.0 * p_l - 1.0, 1.0 - 5.0 * p_u)",
     "tests": [_ORACLE]},
    {"file": "src/es_drift/potential.py",
     "old": "v = p_prime / (2.0 * d * log_a)",
     "new": "v = p_prime / (d * log_a)",
     "tests": [_ORACLE]},
    {"file": "src/es_drift/potential.py",
     "old": "r_primes.append(1.0 - math.exp(-log_a / (d * log_a - 1.0)))",
     "new": "r_primes.append(1.0 - math.exp(-log_a / (d * log_a)))",
     "tests": [_ORACLE]},
    {"file": "src/es_drift/potential.py",
     "old": ".min(axis=-1)",
     "new": ".max(axis=-1)",
     "tests": [_ORACLE,
               "tests/test_potential.py::test_band_minima_match_dense_grid_oracle"]},
    {"file": "src/es_drift/potential.py",
     "old": "if state0.d != c.d:",
     "new": "if state0.d > c.d:",
     "tests": ["tests/test_potential.py::test_hitting_time_bounds_rejects_a_state_of_another_dimension"]},
    # -- the success probability (success.py) ---------------------------
    # the chi form's Gauss rule: the Jacobi matrix's diagonal and
    # sub-diagonal, and its weights from the last eigenvector row
    {"file": "src/es_drift/success.py",
     "old": "np.diag(2.0 * k + a)",
     "new": "np.diag(2.0 * k + a + 1.0)",
     "tests": [_CHI_MOMENTS, _CHI_SWITCH]},
    {"file": "src/es_drift/success.py",
     "old": "k[1:] + a - 1.0",
     "new": "k[1:] + a",
     "tests": [_CHI_MOMENTS, _CHI_SWITCH]},
    {"file": "src/es_drift/success.py",
     "old": "vectors[0] ** 2",
     "new": "vectors[-1] ** 2",
     "tests": [_CHI_MOMENTS, _CHI_SWITCH]},
    # the chi form's rate cap r <= 1/16 below d = 32 dropped
    {"file": "src/es_drift/success.py",
     "old": "np.maximum(ds, 32)",
     "new": "ds",
     "tests": ["tests/test_potential.py::test_psucc_is_log_concave_in_log_sigma_bar[2]",
               "tests/test_potential.py::test_psucc_is_log_concave_in_log_sigma_bar[3]",
               "tests/test_success.py::test_psucc_exact_takes_the_chi_form_only_inside_its_region"]},
    {"file": "src/es_drift/success.py",
     "old": "a = (rate * (rate - 2.0) - s2chi2)",
     "new": "a = (rate * (rate - 2.0) + s2chi2)",
     "tests": [_CHI_SWITCH]},
    {"file": "src/es_drift/success.py",
     "old": "chndtr(((1.0 - rs) * ds / sbar) ** 2, ds, lam",
     "new": "chndtr(((1.0 - rs) * ds / sbar) ** 2, ds - 1, lam",
     "tests": ["tests/test_success.py::test_psucc_exact_against_float64_quadrature"]},
    # a range check that has no value for an empty input
    {"file": "src/es_drift/success.py",
     "old": "values.min(initial=0.0) >= 0.0",
     "new": "values.min() >= 0.0",
     "tests": ["tests/test_success.py::test_psucc_exact_array_d_matches_pointwise_calls_bit_for_bit",
               "tests/test_success.py::test_psucc0_inverse_vector_equals_scalar_calls"]},
    # psucc0_inverse: the bracket ends evaluated in swapped rows, and the
    # roots below their target (every root after the bracket phase) closed
    {"file": "src/es_drift/success.py",
     "old": "np.stack((lo, hi))",
     "new": "np.stack((hi, lo))",
     "tests": ["tests/test_success.py::test_psucc0_inverse_matches_brentq_oracle"]},
    {"file": "src/es_drift/success.py",
     "old": "(f_b != 0.0) & (np.abs(b - a) >= ROOT_LOG_TOL)",
     "new": "(f_b > 0.0) & (np.abs(b - a) >= ROOT_LOG_TOL)",
     "tests": ["tests/test_success.py::test_psucc0_inverse_matches_brentq_oracle"]},
    {"file": "src/es_drift/success.py",
     "old": "ROOT_LOG_TOL = 1e-13",
     "new": "ROOT_LOG_TOL = 1e-6",
     "tests": ["tests/test_success.py::test_psucc0_inverse_matches_brentq_oracle"]},
    # -- the drift sampler and the potential (kernels.py) ---------------
    # a narrowed pool filter: chi2 drawn only where the largest step
    # size leaves z0 undecided
    {"file": "src/es_drift/kernels.py",
     "old": "s_min = sigmas.min()",
     "new": "s_min = sigmas.max()",
     "tests": ["tests/test_kernels.py::test_truncated_drift_sums_count_every_success_at_every_step_size"]},
    # the form that gives NaN at an exact hit of the optimum (x = -inf)
    {"file": "src/es_drift/kernels.py",
     "old": "(1.0 - v) * x + v * hi",
     "new": "x + v * (hi - x)",
     "tests": ["tests/test_kernels.py::test_truncated_drift_sums_score_an_exact_hit_of_the_optimum_as_minus_a"]},
    {"file": "src/es_drift/kernels.py",
     "old": 'with np.errstate(divide="ignore"):\n                np.log(x, out=x)',
     "new": 'with np.errstate():\n                np.log(x, out=x)',
     "tests": ["tests/test_kernels.py::test_truncated_drift_sums_score_an_exact_hit_of_the_optimum_as_minus_a"]},
    # penalty logs of a success at sigma instead of sigma * alpha
    {"file": "src/es_drift/kernels.py",
     "old": "_penalty_logs(sigmas * alpha, d, alpha, ell, u)",
     "new": "_penalty_logs(sigmas, d, alpha, ell, u)",
     "tests": ["tests/test_kernels.py::test_truncated_drift_sums_score_every_step_size_from_one_pool"]},
    {"file": "src/es_drift/kernels.py",
     "old": "np.log(alpha ** 0.25 * d / u)",
     "new": "np.log(alpha ** 0.5 * d / u)",
     "tests": ["tests/test_potential.py::test_potential_value_matches_math_log_oracle"]},
    {"file": "src/es_drift/kernels.py",
     "old": "np.log(alpha ** 0.25 * d / u)",
     "new": "np.log(d / u)",
     "tests": ["tests/test_potential.py::test_potential_value_matches_math_log_oracle"]},
    {"file": "src/es_drift/kernels.py",
     "old": "np.log(alpha * ell / d)",
     "new": "np.log(ell / d)",
     "tests": ["tests/test_potential.py::test_potential_value_matches_math_log_oracle"]},
    # the penalty logs formed through d * sigma, which overflows where
    # sigma_bar is O(1) at a norm near the float ceiling
    {"file": "src/es_drift/kernels.py",
     "old": "np.log(alpha * ell / d) - log_sigma",
     "new": "np.log(alpha * ell / (d * sigma))",
     "tests": ["tests/test_potential.py::test_potential_value_matches_math_log_oracle"]},
    {"file": "src/es_drift/kernels.py",
     "old": "np.log(alpha ** 0.25 * d / u) + log_sigma",
     "new": "np.log(alpha ** 0.25 * sigma * d / u)",
     "tests": ["tests/test_potential.py::test_potential_value_matches_math_log_oracle",
               _CEILING_RUN]},
    {"file": "src/es_drift/kernels.py",
     "old": "potential_value(norm_m, sigmas * alpha ** -0.25,",
     "new": "potential_value(norm_m, sigmas * alpha ** -0.5,",
     "tests": ["tests/test_kernels.py::test_truncated_drift_sums_score_every_step_size_from_one_pool"]},
    {"file": "src/es_drift/kernels.py",
     "old": "return x * x + q * q * chi2",
     "new": "return x * x + q * chi2",
     "tests": ["tests/test_core.py::test_run_until_steps_the_norm_sigma_chain_exactly"]},
    {"file": "src/es_drift/kernels.py",
     "old": "factor = np.array([alpha ** -0.25, alpha])",
     "new": "factor = np.array([alpha ** -0.2, alpha])",
     "tests": ["tests/test_core.py::test_hitting_times_steps_each_run_exactly"]},
    # sigma let overflow to inf, where the run stalls
    {"file": "src/es_drift/kernels.py",
     "old": "if sigma == math.inf:",
     "new": "if False:",
     "tests": [_OVERFLOW]},
    {"file": "src/es_drift/kernels.py",
     "old": "if np.isinf(sigma[0]).any():",
     "new": "if False:",
     "tests": [_OVERFLOW]},
    # overflow warnings back on in the lockstep: an infinite q * q is a
    # plain failure there
    {"file": "src/es_drift/kernels.py",
     "old": '@np.errstate(over="ignore")',
     "new": '@np.errstate(over="warn")',
     "tests": ["tests/test_core.py"
               "::test_a_huge_start_step_size_fails_without_warnings_as_in_run_until"]},
    # the lockstep's first passages, read from each block's first and last
    # rows: a run at a threshold when its block starts passed it already,
    # a run that ends its block at a threshold has passed it, row j + 1 is
    # t + j + 1 steps in, passages at t = 0, and a done run frozen before
    # a later success in its block can overflow sigma
    {"file": "src/es_drift/kernels.py",
     "old": "norm[0, :, None] > eps",
     "new": "norm[0, :, None] >= eps",
     "tests": [_BLOCK_EDGES]},
    {"file": "src/es_drift/kernels.py",
     "old": "norm[steps, :, None] <= eps",
     "new": "norm[steps, :, None] < eps",
     "tests": [_BLOCK_EDGES]},
    {"file": "src/es_drift/kernels.py",
     "old": "t + 1 + np.argmax",
     "new": "t + np.argmax",
     "tests": ["tests/test_core.py::test_hitting_times_steps_each_run_exactly"]},
    {"file": "src/es_drift/kernels.py",
     "old": "np.where(norm[0, :, None] <= eps, 0, -1)",
     "new": "np.where(norm[0, :, None] <= eps, -1, -1)",
     "tests": [_BLOCK_EDGES]},
    {"file": "src/es_drift/kernels.py",
     "old": "sigma[0, done] = 0.0",
     "new": "pass",
     "tests": ["tests/test_core.py"
               "::test_a_run_done_mid_block_is_frozen_before_its_step_size_overflows"]},
    # -- the run state and the run driver (core.py) ---------------------
    {"file": "src/es_drift/core.py",
     "old": "or self.d < 2:",
     "new": "or self.d < 1:",
     "tests": ["tests/test_core.py::test_state_validation"]},
    {"file": "src/es_drift/core.py",
     "old": "isinstance(self.d, (int, np.integer))",
     "new": "isinstance(self.d, (int, float, np.integer))",
     "tests": ["tests/test_core.py::test_state_validation"]},
    {"file": "src/es_drift/core.py",
     "old": "if not 0.0 <= self.norm < math.inf:",
     "new": "if not 0.0 <= self.norm:",
     "tests": ["tests/test_core.py::test_state_validation"]},
    {"file": "src/es_drift/core.py",
     "old": "if not 0.0 <= self.norm < math.inf:",
     "new": "if not 0.0 < self.norm < math.inf:",
     "tests": ["tests/test_core.py::test_state_validation"]},
    # sigma_bar formed through d * sigma
    {"file": "src/es_drift/core.py",
     "old": "sigma_bars = sigmas / norms * state0.d",
     "new": "sigma_bars = state0.d * sigmas / norms",
     "tests": [_CEILING_RUN]},
    # -- drivers, configuration and bound calculators (cli.py, config.py,
    # potential.py) ------------------------------------------------------
    # a capitalised bool in the CSV writer
    {"file": "src/es_drift/cli.py",
     "old": '["true" if v else "false" for v in values]',
     "new": '["True" if v else "false" for v in values]',
     "tests": ["tests/test_cli.py::test_write_csv_formats_every_value_as_format_does"]},
    # the drivers' derived columns: drift-map's satisfied from the lower end
    # of the interval, hitting-scaling's within_bounds and har-check's passed
    # from "or" instead of "and", and success-curve's gap as a sum
    {"file": "src/es_drift/cli.py",
     "old": "means + halfwidths <= -bounds",
     "new": "means - halfwidths <= -bounds",
     "tests": ["tests/test_cli.py::test_drift_map_satisfied_needs_the_whole_interval_below_minus_b"]},
    {"file": "src/es_drift/cli.py",
     "old": "(lower <= est.mean - est.half_width) & (est.mean",
     "new": "(lower <= est.mean - est.half_width) | (est.mean",
     "tests": [_CELLS]},
    {"file": "src/es_drift/cli.py",
     "old": "(exact <= bound) & (gap_sigmas < 4.0)",
     "new": "(exact <= bound) | (gap_sigmas < 4.0)",
     "tests": ["tests/test_cli.py::test_har_check_passes_a_row_only_when_all_three_checks_hold"]},
    {"file": "src/es_drift/cli.py",
     "old": "np.abs(exact - limits)",
     "new": "np.abs(exact + limits)",
     "tests": ["tests/test_cli.py::test_success_curve_rows"]},
    # hitting-scaling's cells: an immediate hit (t = 0) taken as censored,
    # the sums taken over epsilons, replicates summed across a strided axis
    # (in another order than a 1-d sum), and a censored cell given a mean
    {"file": "src/es_drift/cli.py",
     "old": "unfinished = times < 0",
     "new": "unfinished = times <= 0",
     "tests": [_CELLS]},
    {"file": "src/es_drift/cli.py",
     "old": ".transpose(0, 2, 1)",
     "new": ".transpose(0, 1, 2)",
     "tests": [_CELLS]},
    {"file": "src/es_drift/cli.py",
     "old": "capped = np.ascontiguousarray(",
     "new": "capped = np.asarray(",
     "tests": [_CELLS]},
    {"file": "src/es_drift/cli.py",
     "old": "est = mean_estimate(np.where(censored > 0, math.nan, total),",
     "new": "est = mean_estimate(total,",
     "tests": ["tests/test_cli.py::test_hitting_scaling_partly_censored_cell_has_no_mean",
               _CELLS]},
    # one replicate's half-width taken as 0: every cell within the bounds
    {"file": "src/es_drift/estimates.py",
     "old": "if n > 1 else math.nan",
     "new": "if n > 1 else 1.0",
     "tests": ["tests/test_cli.py::test_hitting_scaling_with_one_replicate_has_no_interval"]},
    {"file": "src/es_drift/config.py",
     "old": "if len(set(self.d_list)) < len(self.d_list):",
     "new": "if False:",
     "tests": ["tests/test_cli.py::test_config_validation",
               f"{_FAILURE}[d_list_8_8_hitting_scaling]"]},
    {"file": "src/es_drift/config.py",
     "old": "if not math.isfinite(self.sigma_bar0 * self.m0_norm):",
     "new": "if not math.isfinite(self.m0_norm):",
     "tests": ["tests/test_cli.py::test_config_validation"]},
    {"file": "src/es_drift/config.py",
     "old": "if self.sigma_bar0 * self.m0_norm / max(self.d_list) < tiny:",
     "new": "if self.sigma_bar0 * self.m0_norm / max(self.d_list) < 0.0:",
     "tests": ["tests/test_cli.py::test_config_validation"]},
    {"file": "src/es_drift/potential.py",
     "old": "return (x0 - beta + A) / B",
     "new": "return (x0 - beta) / B",
     "tests": ["tests/test_theorems.py::test_upper_bound_arithmetic"]},
    {"file": "src/es_drift/potential.py",
     "old": "return (x0 - beta) / (4.0 * C) - 0.5",
     "new": "return (x0 - beta) / (2.0 * C) - 0.5",
     "tests": ["tests/test_theorems.py::test_lower_bound_arithmetic"]},
    # drift-map's bound_B column filled with the wrong constant
    {"file": "src/es_drift/cli.py",
     "old": "np.array([c.B for c in all_constants])",
     "new": "np.array([c.A for c in all_constants])",
     "tests": ["tests/test_cli.py::test_drift_map_rows"]},
    # drift-map's regime column with a band end outside the band
    {"file": "src/es_drift/cli.py",
     "old": "grid < c.ell",
     "new": "grid <= c.ell",
     "tests": [_REGIMES]},
    {"file": "src/es_drift/cli.py",
     "old": "grid > c.u",
     "new": "grid >= c.u",
     "tests": [_REGIMES]},
    # -- text to ExperimentConfig (cli.main, config.parse_config_file) ---
    # argparse's own error: a usage block and SystemExit(2)
    {"file": "src/es_drift/cli.py",
     "old": "raise ConfigurationError(message)",
     "new": "super().error(message)",
     "tests": [f"{_FAILURE}[unknown_flag]",
               "tests/test_cli.py::test_a_malformed_flag_value_is_a_configuration_error[--alpha]"]},
    # --config and --workers taken as config keys
    {"file": "src/es_drift/cli.py",
     "old": "if k in SETTINGS}",
     "new": 'if k != "command"}',
     "tests": ["tests/test_cli.py::test_byte_identical_across_worker_counts"]},
    # every flag left out sets its key to None
    {"file": "src/es_drift/cli.py",
     "old": 'prog="es-drift", argument_default=argparse.SUPPRESS,',
     "new": 'prog="es-drift",',
     "tests": ["tests/test_cli.py::test_main_success"]},
    # a table row with the wrong parser, for a flag and a file line alike
    {"file": "src/es_drift/config.py",
     "old": '"p_u": (float, "--p-u"',
     "new": '"p_u": (int, "--p-u"',
     "tests": ["tests/test_cli.py::test_a_flag_sets_its_key_as_a_config_file_line_does"
               "[bounds-p_u]"]},
    {"file": "src/es_drift/config.py",
     "old": "if key in overrides:",
     "new": "if False:",
     "tests": [f"{_FAILURE}[key_set_again]"]},
    # a config file that is not UTF-8 read as a runtime error, and an empty
    # eps_list taken as no list
    {"file": "src/es_drift/config.py",
     "old": "except (OSError, UnicodeDecodeError) as exc:",
     "new": "except OSError as exc:",
     "tests": [f"{_FAILURE}[config_file_not_utf8]"]},
    {"file": "src/es_drift/config.py",
     "old": "if self.eps_list == ():",
     "new": "if False:",
     "tests": [f"{_FAILURE}[eps_list_empty]", f"{_FAILURE}[eps_list_empty_in_config_file]"]},
    # an empty output path taken as none: the command's default file
    {"file": "src/es_drift/config.py",
     "old": 'if self.output_path == "":',
     "new": "if False:",
     "tests": [f"{_FAILURE}[out_empty]", f"{_FAILURE}[out_empty_in_config_file]"]},
    # -- the fit lines (cli.cmd_hitting_scaling): the intercept's sign, the
    # residual term of r_squared, and slope_se -----------------------------
    {"file": "src/es_drift/cli.py",
     "old": "y.mean() - slope * x.mean()",
     "new": "y.mean() + slope * x.mean()",
     "tests": [_CELLS]},
    {"file": "src/es_drift/cli.py",
     "old": "1.0 - ss_res / ss_tot",
     "new": "1.0 - ss_res / ss_tot / 2.0",
     "tests": [_CELLS]},
    {"file": "src/es_drift/cli.py",
     "old": "if ss_tot > 0.0 else math.nan",
     "new": "if ss_tot > 0.0 else 1.0",
     "tests": ["tests/test_cli.py::test_hitting_scaling_fit_of_runs_all_hit_at_the_start_has_no_r_squared"]},
    {"file": "src/es_drift/cli.py",
     "old": "slopes.std(axis=1, ddof=1)",
     "new": "slopes.std(axis=1, ddof=0)",
     "tests": [_SLOPE_SE]},
    {"file": "src/es_drift/cli.py",
     "old": "ddof=1) / math.sqrt(reps)",
     "new": "ddof=1)",
     "tests": [_SLOPE_SE]},
    # -- the rate_band lines (cli.cmd_hitting_scaling): 0 / 0 with a
    # RuntimeWarning at an epsilon hit at the start
    {"file": "src/es_drift/cli.py",
     "old": "where=lo > 0.0",
     "new": "where=True",
     "tests": ["tests/test_cli.py"
               "::test_hitting_scaling_rate_band_is_nan_at_an_epsilon_hit_at_the_start"]},
    # -- the line-search progress ceiling (hitandrun.py) ------------------
    {"file": "src/es_drift/hitandrun.py",
     "old": "digamma((d - 1) / 2.0)) / 4.0",
     "new": "digamma((d - 1) / 2.0)) / 2.0",
     "tests": ["tests/test_hitandrun.py::test_exact_log_progress_matches_mpmath_quadrature"]},
    # -- input checks that a NaN or an infinity once passed ----------------
    # an infinite step size let through: as a run's start state, and as a
    # drift-map grid point
    {"file": "src/es_drift/core.py",
     "old": "if not 0.0 < self.sigma < math.inf:",
     "new": "if not self.sigma > 0.0:",
     "tests": ["tests/test_core.py::test_state_validation"]},
    {"file": "src/es_drift/potential.py",
     "old": "if not all(0.0 < s < math.inf for s in grid):",
     "new": "if not all(0.0 < s for s in grid):",
     "tests": ["tests/test_potential.py::test_drift_map_rejects_non_positive_grid_points"]},
    {"file": "src/es_drift/potential.py",
     "old": "if not 0.0 < epsilon < math.inf:",
     "new": "if not epsilon > 0.0:",
     "tests": ["tests/test_potential.py"
               "::test_hitting_time_bounds_rejects_an_epsilon_that_is_not_finite_and_positive"]},
    {"file": "src/es_drift/success.py",
     "old": "if not rho >= 0.0:",
     "new": "if rho < 0.0:",
     "tests": ["tests/test_success.py::test_psucc_limit_rejects_a_negative_or_nan_rate"]},
    {"file": "src/es_drift/hitandrun.py",
     "old": "if not d >= 2:",
     "new": "if d < 2:",
     "tests": ["tests/test_hitandrun.py"
               "::test_exact_log_progress_rejects_a_dimension_below_two_or_nan"]},
]
