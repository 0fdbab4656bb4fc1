"""Count-only call budgets per master iteration, never time.

A sys.setprofile hook counts the Python-level calls whose code lives in
the dpsgd package while one simulated run executes. The run is made
twice and the second one counted, so the draw-table LRUs (_index_table,
_delay_table) are warm and the count is deterministic. Each budget is the
count measured when it was set (CPython 3.11): a change that adds calls
per iteration fails here and has to raise the budget on purpose, and one
that removes calls can lower it as a deterministic claim.
"""
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import dpsgd
from dpsgd.engine import ProblemSpec, RunConfig, build_oracle, run_with_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = os.path.dirname(dpsgd.__file__) + os.sep
T = 1000


def dpsgd_calls(fn) -> int:
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def warm_calls(cfg: RunConfig) -> int:
    oracle = build_oracle(cfg.problem, cfg.seed)
    run_with_oracle(cfg, oracle)
    return dpsgd_calls(lambda: run_with_oracle(cfg, oracle))


def sim_sigmoid_config(monkeypatch) -> RunConfig:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    cfg = workloads.WORKLOADS["sim-sigmoid"].config(1)
    assert cfg.T == T
    return cfg


# test 05's serial shape: nW = p = B = M = 1, one pass per iteration
SERIAL = RunConfig(
    T=T, M=1, nW=1, p=1, B=1, eta=1.0,
    rho_schedule={"kind": "constant", "value": 0.5},
    seed=0,
    problem=ProblemSpec(name="sigmoid", n=1000, dim=20, batch_size=10,
                        data_seed=1234),
    execution="simulated",
    grad_norm_every=10,
)


@pytest.mark.parametrize("shape, budget", [
    ("sim-sigmoid", 21574),   # 21.6 calls per master iteration
    ("serial", 15534),        # 15.5
])
def test_dpsgd_calls_per_master_iteration(monkeypatch, shape, budget):
    cfg = sim_sigmoid_config(monkeypatch) if shape == "sim-sigmoid" else SERIAL
    calls = warm_calls(cfg)
    assert calls <= budget, f"{calls / T:.3f} calls per iteration"


def test_call_count_is_deterministic_and_scales_with_T():
    short = replace(SERIAL, T=T // 2)
    first, again = warm_calls(short), warm_calls(short)
    assert first == again
    # per-iteration calls, not set-up, dominate the count
    assert 1.9 * first < warm_calls(SERIAL) < 2.1 * first
