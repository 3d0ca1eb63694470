"""Experiment configuration: defaults, key=value files, flag overrides.

A config file holds one ``key = value`` pair per line ('#' starts a
comment) and sets each key once; lists are comma-separated. Flags, read
by the same one parser per key in ``_PARSERS``, win over file values,
which win over the defaults below. The defaults size the full
experiment suite to minutes on a laptop.
"""

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .errors import ConfigurationError
from .estimates import MIN_MC_SAMPLES


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


_PARSERS = {
    "d_list": _int_list,
    "eps_list": _float_list,
    "alpha": float,
    "p_u": float,
    "p_l": float,
    "epsilon": float,
    "m0_norm": float,
    "sigma_bar0": float,
    "replicates": int,
    "master_seed": int,
    "mc_samples": int,
    "output_path": str,
    "max_iter": int,
    "record_every": int,
}


@dataclass(frozen=True)
class ExperimentConfig:
    d_list: tuple[int, ...] = (4, 8, 16)
    eps_list: Optional[tuple[float, ...]] = None
    alpha: float = 1.5
    p_u: float = 0.1
    p_l: float = 0.3
    epsilon: float = 1e-8
    m0_norm: float = 1.0
    sigma_bar0: float = 2.0
    replicates: int = 100
    master_seed: int = 20180715
    mc_samples: int = 1_000_000
    output_path: Optional[str] = None
    max_iter: int = 10_000_000
    record_every: int = 1

    def validate(self) -> None:
        if not self.d_list or any(d < 2 for d in self.d_list):
            raise ConfigurationError("d_list must be non-empty with every d >= 2")
        if len(set(self.d_list)) < len(self.d_list):
            raise ConfigurationError("d_list entries must be distinct")
        if self.replicates < 1:
            raise ConfigurationError("replicates must be at least 1")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be a non-negative integer")
        if self.mc_samples < MIN_MC_SAMPLES:
            raise ConfigurationError(f"mc_samples must be at least {MIN_MC_SAMPLES}")
        for name in ("alpha", "p_u", "p_l", "epsilon", "m0_norm", "sigma_bar0"):
            # a NaN fails both comparisons
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and positive")
        for name in ("max_iter", "record_every"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive")
        # an empty path would fall back to the command's default file name
        if self.output_path == "":
            raise ConfigurationError("output_path must be non-empty")
        if self.eps_list == ():
            raise ConfigurationError("eps_list must be non-empty")
        eps_list = self.eps_list or ()
        if not all(0.0 < e < math.inf for e in eps_list):
            raise ConfigurationError("eps_list entries must be finite and positive")
        if len(set(eps_list)) < len(eps_list):
            raise ConfigurationError("eps_list entries must be distinct")
        # below the smallest normal float sigma * alpha^(-1/4) rounds back to
        # sigma, so the 1/5 rule stalls and a run crawls to max_iter
        tiny = sys.float_info.min  # the smallest normal float, np.finfo(float).tiny
        if any(e < tiny for e in (self.epsilon, *eps_list)):
            raise ConfigurationError(f"epsilon and eps_list entries must be at least "
                                     f"the smallest normal float {tiny:.6g}")
        # so too for the start step size of initial_state, smallest at the
        # largest d
        if self.sigma_bar0 * self.m0_norm / max(self.d_list) < tiny:
            raise ConfigurationError(f"the start step size sigma_bar0 * m0_norm / d must "
                                     f"be at least the smallest normal float {tiny:.6g}")
        # and finite, as it is at every d once sigma_bar0 * m0_norm is
        if not math.isfinite(self.sigma_bar0 * self.m0_norm):
            raise ConfigurationError("the start step size sigma = sigma_bar0 * m0_norm / d "
                                     "must be finite")

    @property
    def epsilons(self) -> tuple[float, ...]:
        return self.eps_list if self.eps_list else (self.epsilon,)


def parse_config_file(path: str | Path) -> dict:
    """Read key=value lines into a typed override dict."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in overrides:
            raise ConfigurationError(f"{path}:{lineno}: config key {key!r} is set again")
        try:
            overrides[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return overrides


def build_config(file_path: Optional[str] = None,
                 flag_overrides: Optional[dict] = None) -> ExperimentConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    file_values = parse_config_file(file_path) if file_path else {}
    config = replace(ExperimentConfig(), **(file_values | (flag_overrides or {})))
    config.validate()
    return config
