"""Benchmark of the es-drift experiment drivers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's driver command lines from the seed, measures the
set-up (import of es_drift in fresh interpreters, median of
SETUP_SAMPLES after one warm-up import), then runs whole rounds of the
workload, each in a fresh worker process, for S seconds: no round starts
that would end past them, and at least one round runs.
Every output file is checked against the oracles once; the digests of
all rounds must agree, so each round's operations count as checked.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics: the end-to-end metrics
(medians over rounds) with --trace 0, the per-layer metrics with
--trace 1, where untraced and traced rounds alternate.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"
WORKER_ENV = {
    # the drivers run single-process (--workers 1); keep library thread
    # pools at one thread too, so CPU time and wall time measure the same work
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    # glibc's dynamic mmap threshold made peak RSS of identical rounds
    # bimodal (144 or 174 MB on drift-montecarlo); a fixed threshold returns
    # every array of 1 MiB or more to the system when freed, so peak RSS
    # follows the arrays alive at once
    "MALLOC_MMAP_THRESHOLD_": str(2 ** 20),
}


def run_worker(spec_path: Path, traced: bool) -> dict:
    worker = Path(__file__).with_name("worker.py")
    with tempfile.NamedTemporaryFile(dir=spec_path.parent, suffix=".json") as result:
        command = [sys.executable, str(worker), str(spec_path), result.name]
        if traced:
            command.append("--trace")
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S,
                              env={**os.environ, **WORKER_ENV})
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError(f"worker exited with {proc.returncode}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        return json.loads(Path(result.name).read_text())


def digests(jobs: list[dict]) -> dict:
    return {Path(job["out"]).name: hashlib.sha256(Path(job["out"]).read_bytes()).hexdigest()
            for job in jobs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps a
    # running worker before this process ends
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "es_drift" / "cli.py").is_file():
        print(f"no es_drift sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    jobs = workloads.build(args.workload, args.seed, out_dir)
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps({"src": str(root / "src"), "jobs": jobs}))
    setup_path = out_dir / "setup.json"
    setup_path.write_text(json.dumps({"src": str(root / "src"), "jobs": []}))

    run_worker(setup_path, False)  # warm-up: compiles bytecode, fills the page cache
    setup = [run_worker(setup_path, False)["import_s"] for _ in range(SETUP_SAMPLES)]

    plain, traced = [], []
    first_digests = None
    consistent = True
    started = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(plain)
        round_start = time.perf_counter()
        (traced if trace_this else plain).append(run_worker(spec_path, trace_this))
        round_s = time.perf_counter() - round_start
        round_digests = digests(jobs)
        if first_digests is None:
            first_digests = round_digests
        elif round_digests != first_digests:
            consistent = False
            print(f"outputs differ between rounds: {round_digests}", file=sys.stderr)
        # start no round that would end past the measuring time
        if (time.perf_counter() + round_s > started + args.seconds
                and (traced or not args.trace)):
            break
    rounds = len(plain) + len(traced)

    tally = checks.Tally()
    for job in jobs:
        checks.check_job(job, tally)
    for error in tally.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    for name, digest in first_digests.items():
        print(f"digest {name} sha256={digest}")
    print("round wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in plain + traced))
    print(f"rounds {rounds} ({len(traced)} traced); per round: "
          f"{tally.attempted} operations, {tally.failed} failed by the known fault, "
          f"{len(tally.errors)} errors")

    def median(results, key):
        return statistics.median(r[key] for r in results)

    if args.trace:
        layers = {name: statistics.median(r["layers"][name][0] for r in traced)
                  for name in traced[0]["layers"]}
        units = {name: unit for name, (_, unit) in traced[0]["layers"].items()}
        layers["setup.import_s"], units["setup.import_s"] = statistics.median(setup), "s"
        layers["trace.overhead_s"] = median(traced, "wall_s") - median(plain, "wall_s")
        units["trace.overhead_s"] = "s"
        (out_dir / "trace_table.json").write_text(
            json.dumps(traced[-1]["table"], indent=1, sort_keys=True))
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": median(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": median(plain, "cpu_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": median(plain, "peak_rss_mb"), "unit": "MB"},
        }
    print(json.dumps({"correct": consistent and not tally.errors,
                      "attempted": tally.attempted * rounds,
                      "failed": tally.failed * rounds,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
