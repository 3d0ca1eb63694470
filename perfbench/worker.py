"""One round of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC RESULT [--trace]

SPEC is a JSON file with the checkout's ``src`` directory and the jobs
of a workload (see workloads.py); an empty job list measures the import
alone. The worker times ``import es_drift.cli``, then runs every job
through ``es_drift.cli.main`` and writes wall and CPU time of the jobs,
the process's peak resident memory and, with --trace, the per-layer
metrics to RESULT as JSON.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    traced = "--trace" in sys.argv[3:]
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import es_drift.cli as cli
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"es_drift imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    job_s = {}
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for job in spec["jobs"]:
        if tracer is not None:
            tracer.start_command()
        started = time.perf_counter()
        code = cli.main(job["argv"])
        job_s[job["command"]] = time.perf_counter() - started
        if code != 0:
            print(f"es-drift {' '.join(job['argv'])} exited with {code}", file=sys.stderr)
            return 1
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start

    result = {"import_s": import_s, "wall_s": wall_s, "cpu_s": cpu_s,
              # ru_maxrss is in KiB on Linux
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "job_s": job_s}
    if tracer is not None:
        written = sum(Path(job["out"]).stat().st_size for job in spec["jobs"])
        result["layers"] = tracer.layer_metrics(written)
        result["table"] = tracer.table()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
