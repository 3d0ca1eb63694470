"""Per-layer tracing by wrapping es_drift's public functions from outside.

``Tracer.install`` replaces every public function defined in the traced
modules, in every es_drift namespace that binds it, with a wrapper that
counts calls and accumulates busy time (wall time inside the call) and
self time (busy time minus that of nested traced calls). The CLI
dispatch table is wrapped too, one span per subcommand. A few wrappers
also read counts from arguments or results: samples and normals drawn
by the Monte Carlo kernels, ES iterations, series terms, capped draws
and censored runs. Nothing under src/ changes.

Spans are aggregated per function in memory; ``layer_metrics`` reduces
them to the benchmark's per-layer metrics and ``table`` gives the full
per-function breakdown.
"""

import sys
import time
import tracemalloc
import types
from collections import defaultdict

LAYERS = ("cli", "potential", "success", "core", "hitandrun", "kernels")
MC_KERNELS = ("success_mc_hits", "truncated_drift_sums", "har_log_progress_sums")
COMMANDS = ("success-curve", "drift-map", "hitting-scaling", "bounds",
            "har-check", "run")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []          # child-time accumulators of open spans
        self._active = defaultdict(int)
        self._probe_pending = False
        self.peak_alloc = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        on_return = getattr(self, "_after_" + name.replace(".", "_").replace("-", "_"),
                            None)
        probe = name == "core.run_until"

        def traced(*args, **kwargs):
            probing = probe and self._probe_pending
            if probing:
                # the first run_until of each subcommand runs under
                # tracemalloc; keeping it off elsewhere keeps busy times honest
                self._probe_pending = False
                tracemalloc.start()
            frame = [0.0]
            self._stack.append(frame)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._active[name] -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[0]
                if probing:
                    self.peak_alloc = max(self.peak_alloc,
                                          tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of every traced es_drift module."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "es_drift" or name.startswith("es_drift.")}
        replacements = {}
        for layer in LAYERS:
            module = package[f"es_drift.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__
                        and id(value) not in replacements):
                    replacements[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module in package.values():
            for attr, value in list(vars(module).items()):
                if not attr.startswith("_") and id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
        cli = package["es_drift.cli"]
        for command, fn in cli._COMMANDS.items():
            cli._COMMANDS[command] = self._wrap(f"cli.{command}", fn)

    # -- counts read from arguments and results ----------------------------

    def _mc(self, n, d):
        self.counts["mc_samples"] += n
        self.counts["normals_drawn"] += n * d

    def _after_kernels_success_mc_hits(self, args, result):
        self._mc(args[3], args[2])

    def _after_kernels_truncated_drift_sums(self, args, result):
        self._mc(args[8], args[2])

    def _after_kernels_har_log_progress_sums(self, args, result):
        self._mc(args[1], args[0])
        self.counts["capped_draws"] += result[2]

    def _after_kernels_es_run(self, args, result):
        self.counts["es_iterations"] += result[5]

    def _after_kernels_poisson_mixture_chisq_cdf(self, args, result):
        self.counts["chisq_series_terms"] += result[2]

    def _after_success_psucc_exact(self, args, result):
        if self._active["potential.derive_constants"]:
            self.counts["psucc_in_derive_constants"] += 1

    def _after_core_run_until(self, args, result):
        if result.hitting_time is None:
            self.counts["censored_runs"] += 1

    def start_command(self):
        """Mark the next run_until call for the allocation probe."""
        self._probe_pending = True

    # -- reductions --------------------------------------------------------

    def table(self):
        return {name: {"calls": self.calls[name], "busy_s": self.busy[name],
                       "self_s": self.self_time[name]} for name in sorted(self.calls)}

    def layer_metrics(self, bytes_written):
        b, n = self.busy, self.calls
        mc_busy = sum(b[f"kernels.{k}"] for k in MC_KERNELS)
        es_busy = b["kernels.es_run"]
        derive_calls = n["potential.derive_constants"]
        metrics = {
            "kernels.mc_calls": (sum(n[f"kernels.{k}"] for k in MC_KERNELS), "count"),
            "kernels.mc_samples": (self.counts["mc_samples"], "count"),
            "kernels.normals_drawn": (self.counts["normals_drawn"], "count"),
            # float64 normals materialised by the numpy kernels, from array sizes
            "kernels.mc_bytes_computed": (8 * self.counts["normals_drawn"], "B"),
            "kernels.mc_busy_s": (mc_busy, "s"),
            "kernels.mc_samples_per_s": (_rate(self.counts["mc_samples"], mc_busy), "1/s"),
            "kernels.es_run_calls": (n["kernels.es_run"], "count"),
            "kernels.es_iterations": (self.counts["es_iterations"], "count"),
            "kernels.es_run_busy_s": (es_busy, "s"),
            "kernels.es_iterations_per_s": (_rate(self.counts["es_iterations"], es_busy), "1/s"),
            "kernels.chisq_series_calls": (n["kernels.poisson_mixture_chisq_cdf"], "count"),
            "kernels.chisq_series_terms": (self.counts["chisq_series_terms"], "count"),
            "kernels.chisq_series_busy_s": (b["kernels.poisson_mixture_chisq_cdf"], "s"),
            "success.psucc_exact_calls": (n["success.psucc_exact"], "count"),
            "success.psucc_exact_busy_s": (b["success.psucc_exact"], "s"),
            "success.psucc0_inverse_calls": (n["success.psucc0_inverse"], "count"),
            "success.psucc0_inverse_busy_s": (b["success.psucc0_inverse"], "s"),
            "potential.derive_constants_calls": (derive_calls, "count"),
            "potential.derive_constants_busy_s": (b["potential.derive_constants"], "s"),
            "potential.psucc_calls_per_constant_set": (
                _rate(self.counts["psucc_in_derive_constants"], derive_calls), "count"),
            "potential.drift_points": (n["potential.estimate_truncated_drift"], "count"),
            "potential.drift_point_busy_s": (b["potential.estimate_truncated_drift"], "s"),
            "potential.drift_map_busy_s": (b["potential.drift_map"], "s"),
            "core.run_until_calls": (n["core.run_until"], "count"),
            "core.run_until_busy_s": (b["core.run_until"], "s"),
            "core.run_until_self_s": (self.self_time["core.run_until"], "s"),
            "core.censored_runs": (self.counts["censored_runs"], "count"),
            "core.peak_alloc_mb": (self.peak_alloc / 2 ** 20, "MB"),
            "hitandrun.mc_busy_s": (b["hitandrun.expected_log_progress_mc"], "s"),
            "hitandrun.quadrature_busy_s": (b["hitandrun.expected_log_progress_quadrature"], "s"),
            "hitandrun.capped_draws": (self.counts["capped_draws"], "count"),
        }
        for command in COMMANDS:
            metrics[f"cli.{command}_s"] = (b[f"cli.{command}"], "s")
        metrics["cli.bytes_written"] = (bytes_written, "B")
        metrics["cli.self_s"] = (sum(self.self_time[f"cli.{c}"] for c in COMMANDS), "s")
        return metrics


def _rate(numerator, denominator):
    return numerator / denominator if denominator > 0 else 0.0
