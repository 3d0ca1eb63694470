"""The three workloads: driver command lines built from the benchmark seed.

Each workload is a list of jobs, one ``es-drift`` subcommand each, run
in order in one fresh process. A job is the argv given to
``es_drift.cli.main`` plus the parameters its output check needs. The
seed only picks values the program receives as inputs (its master seed
and a few start-state values); the make-up of each workload, and so
its cost, is the same for every seed.
"""

import random
from pathlib import Path

ALPHA = 1.5
P_U = 0.1
P_L = 0.3

BOUNDS_D = tuple(2 ** k for k in range(1, 11))
DRIFT_D = (10, 64)
HITTING_D = (4, 8, 16, 32, 64)
HITTING_EPS = (1e-2, 1e-4, 1e-6, 1e-8)
MC_SAMPLES = 100_000
REPLICATES = 50
RUN_D = 32
RUN_EPSILON = 1e-8

NAMES = ("constants-curves", "drift-montecarlo", "hitting-times")


def _write_config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def build(name: str, seed: int, out_dir: Path) -> list[dict]:
    """Jobs of workload ``name`` for benchmark seed ``seed``.

    Config files go to ``out_dir``; every job writes one file there.
    """
    rng = random.Random(f"{name}:{seed}")
    master = str(rng.randrange(2 ** 32))
    common = ["--seed", master, "--workers", "1", "--alpha", repr(ALPHA)]
    jobs = []

    def job(command, out_name, extra, **params):
        out = str(out_dir / out_name)
        jobs.append({"command": command, "out": out,
                     "argv": [command, *common, *extra, "--out", out],
                     "params": {"alpha": ALPHA, "p_u": P_U, "p_l": P_L, **params}})

    if name == "constants-curves":
        # success-curve runs on its default grid, which no seed changes
        job("success-curve", "success_curve.csv", [], tol=1e-9)
        start = {"m0_norm": 10.0 ** rng.uniform(-1.0, 1.0),
                 "sigma_bar0": 2.0 ** rng.uniform(-2.0, 3.0)}
        epsilon = 10.0 ** -rng.uniform(2.0, 12.0)
        cfg = _write_config(out_dir / "bounds.cfg",
                            {"d_list": _csv(BOUNDS_D), **start})
        job("bounds", "bounds.json",
            ["--config", cfg, "--epsilon", repr(epsilon)],
            d_list=BOUNDS_D, epsilon=epsilon, **start)
    elif name == "drift-montecarlo":
        cfg = _write_config(out_dir / "drift_map.cfg", {"d_list": _csv(DRIFT_D)})
        job("drift-map", "drift_map.csv",
            ["--config", cfg, "--mc-samples", str(MC_SAMPLES)],
            d_list=DRIFT_D, mc_samples=MC_SAMPLES)
        job("har-check", "har_check.csv", ["--mc-samples", str(MC_SAMPLES)],
            mc_samples=MC_SAMPLES, tol=1e-9)
    elif name == "hitting-times":
        cfg = _write_config(out_dir / "hitting_scaling.cfg",
                            {"d_list": _csv(HITTING_D)})
        job("hitting-scaling", "hitting_scaling.csv",
            ["--config", cfg, "--eps-list", _csv(HITTING_EPS),
             "--replicates", str(REPLICATES)],
            d_list=HITTING_D, eps_list=HITTING_EPS, replicates=REPLICATES,
            m0_norm=1.0, sigma_bar0=2.0)
        sigma_bar0 = 2.0 ** rng.uniform(-1.0, 3.0)
        job("run", "run_trace.csv",
            ["--d", str(RUN_D), "--epsilon", repr(RUN_EPSILON),
             "--record-every", "1", "--sigma-bar0", repr(sigma_bar0)],
            d=RUN_D, epsilon=RUN_EPSILON, m0_norm=1.0, sigma_bar0=sigma_bar0)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    return jobs
