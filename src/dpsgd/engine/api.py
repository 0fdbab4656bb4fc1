"""Top-level engine entry points."""
from __future__ import annotations

import numpy as np

from .. import problems
from ..errors import ConfigurationError
from .config import ProblemSpec, RunConfig
from .result import RunResult
from .sim import run_simulated
from .threaded import run_threaded


def derive_data_seed(run_seed: int) -> int:
    """Stable problem-data seed for configs that do not pin one."""
    return int(np.random.SeedSequence([run_seed, 0xDA7A]).generate_state(1)[0])


def build_oracle(spec: ProblemSpec, run_seed: int):
    problems.check_no_params(spec.name, spec.params)
    seed = spec.data_seed if spec.data_seed is not None else derive_data_seed(run_seed)
    return problems.make_oracle(spec.name, n=spec.n, dim=spec.dim, seed=seed)


def initial_model(oracle) -> np.ndarray:
    return np.zeros(oracle.dim)


def run_with_oracle(cfg: RunConfig, oracle, init=None) -> RunResult:
    """Run the engine against a caller-supplied gradient oracle."""
    cfg.validate()
    if init is None:
        init = initial_model(oracle)
    init = np.asarray(init, dtype=float)
    if init.shape[0] != oracle.dim:
        raise ConfigurationError(
            f"initial model dim {init.shape[0]} != oracle dim {oracle.dim}"
        )
    if cfg.execution == "simulated":
        return run_simulated(cfg, oracle, init)
    return run_threaded(cfg, oracle, init)


def run(cfg: RunConfig) -> RunResult:
    """Run the engine on the built-in problem named in the config."""
    cfg.validate()
    oracle = build_oracle(cfg.problem, cfg.seed)
    return run_with_oracle(cfg, oracle)
