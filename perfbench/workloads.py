"""The four benchmark workloads: inputs from a seed, one timed operation,
and the output checks.

An operation is one call into dpsgd's public API (two calls on ``apps``).
It is timed from outside with ``time.perf_counter`` and then checked;
a failed check raises ``CheckFailed``. Run lengths (``T``) are fixed
here, so every run of a workload does the same amount of work.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from dpsgd.engine import (
    DelayModel,
    ProblemSpec,
    RunConfig,
    build_oracle,
    initial_model,
    run_tcp,
    run_with_oracle,
)
from dpsgd.hsa2c import ToyEnv, hsa2c_config, optimal_return, run_hsa2c
from dpsgd.svi_lda import (
    LdaModel,
    dpsvi_config,
    heldout_split,
    run_dpsvi,
    synthetic_corpus,
    topic_recovery_score,
)


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


@dataclass
class Op:
    """What one timed operation produced."""

    wall_s: float               # wall time of the run call(s)
    evals: int                  # gradient evaluations applied
    iterations: int             # master iterations (sum over runs)
    gaps_ms: list[float]        # wall gaps between applies (real runtimes)
    results: list = field(default_factory=list)
    rates: dict[str, float] = field(default_factory=dict)


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_counters(res, cfg: RunConfig, label: str) -> None:
    c = res.counters
    _check(res.version == cfg.T, f"{label}: version {res.version} != T {cfg.T}")
    _check(c.pushes_applied == cfg.T * cfg.M,
           f"{label}: pushes_applied {c.pushes_applied} != T*M")
    want = cfg.T * cfg.M * cfg.p * cfg.B
    _check(c.gradient_evals_applied == want,
           f"{label}: gradient_evals_applied {c.gradient_evals_applied} != {want}")
    _check(bool(np.isfinite(res.final.values).all()),
           f"{label}: final model is not finite")


def _timed(fn, wrap=None):
    """(fn(), seconds); wrap, when given, wraps fn first (a trace span)."""
    if wrap is not None:
        fn = wrap(fn)
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


class Workload:
    name = ""
    runtime = ""   # "simulated", "threaded" or "tcp"
    probe = "cpu"  # host-speed probe whose cost profile matches (probes.py)

    def setup(self, seed: int):
        raise NotImplementedError

    def run(self, ctx, wrap=None) -> Op:
        raise NotImplementedError


class EngineWorkload(Workload):
    """One engine run on a built-in oracle; final loss must beat initial."""

    # Scale of a seeded random start. The quadratic's zero model is
    # already within 0.5 * dim / n of its minimum loss, less than the SGD
    # noise floor, so a zero start could not show descent.
    init_scale = 0.0

    def config(self, seed: int) -> RunConfig:
        raise NotImplementedError

    def setup(self, seed: int):
        cfg = self.config(seed)
        cfg.validate()
        oracle = build_oracle(cfg.problem, cfg.seed)
        init = initial_model(oracle) + self.init_scale * (
            np.random.default_rng(seed).standard_normal(oracle.dim))
        loss0 = float(oracle.loss_at(init))
        return {"cfg": cfg, "oracle": oracle, "init": init, "loss0": loss0}

    def call(self, cfg, oracle, init):
        return run_with_oracle(cfg, oracle, init)

    def run(self, ctx, wrap=None) -> Op:
        cfg, oracle = ctx["cfg"], ctx["oracle"]
        res, wall = _timed(lambda: self.call(cfg, oracle, ctx["init"]), wrap)
        check_counters(res, cfg, self.name)
        loss = float(oracle.loss_at(res.final.values))
        _check(loss < ctx["loss0"],
               f"{self.name}: final loss {loss} not below initial {ctx['loss0']}")
        self.extra_checks(res, cfg)
        gaps = []
        if self.runtime != "simulated":
            gaps = (np.diff(res.metrics.column("wall_clock_s")) * 1e3).tolist()
        return Op(wall, res.counters.gradient_evals_applied, cfg.T, gaps,
                  [res])

    def extra_checks(self, res, cfg) -> None:
        pass


class SimSigmoid(EngineWorkload):
    name = "sim-sigmoid"
    runtime = "simulated"
    T = 1000

    def config(self, seed):
        return RunConfig(
            T=self.T, M=2, nW=4, p=2, B=2, eta=0.05,
            rho_schedule={"kind": "constant", "value": 0.5},
            seed=seed,
            problem=ProblemSpec(name="sigmoid", n=2000, dim=20, batch_size=4),
            execution="simulated",
            compute_cost_s=1e-3,
            delay=DelayModel(kind="uniform", low=0.0, high=4e-3,
                             d_prime_bound=4, enforce="drop"),
            grad_norm_every=10,
        )

    def extra_checks(self, res, cfg):
        worst = max(res.applied_staleness_hist)
        _check(worst <= cfg.delay.d_prime_bound,
               f"{self.name}: applied staleness {worst} > D'")


class ThreadedP2(EngineWorkload):
    name = "threaded-p2"
    runtime = "threaded"
    probe = "wake"
    init_scale = 3.0
    T = 300

    def config(self, seed):
        return RunConfig(
            T=self.T, M=1, nW=1, p=2, B=2, eta=0.05,
            rho_schedule={"kind": "constant", "value": 0.05},
            seed=seed,
            problem=ProblemSpec(name="quadratic", n=200, dim=10, batch_size=1),
            execution="threaded",
            compute_cost_s=1e-3,
            compute_cost_mode="sleep",
            delay=DelayModel(kind="fixed", latency=1e-5),
            grad_norm_every=0,
        )


class TcpLoopback(EngineWorkload):
    name = "tcp-loopback"
    runtime = "tcp"
    probe = "wake"
    init_scale = 3.0
    T = 1000

    def config(self, seed):
        return RunConfig(
            T=self.T, M=2, nW=2, p=1, B=1, eta=0.05,
            rho_schedule={"kind": "constant", "value": 0.05},
            seed=seed,
            problem=ProblemSpec(name="quadratic", n=200, dim=2000,
                                batch_size=1),
            execution="threaded",
            grad_norm_every=0,
        )

    def call(self, cfg, oracle, init):
        return run_tcp(cfg, oracle, init)

    def extra_checks(self, res, cfg):
        _check(res.counters.malformed_frames == 0,
               f"{self.name}: {res.counters.malformed_frames} malformed frames")


# SVI-LDA shape: 2000 synthetic docs (200 held out), V=500, K=10, G=16
LDA_DOCS, LDA_HELDOUT, LDA_V, LDA_K, LDA_G = 2000, 200, 500, 10, 16
LDA_T = 30
LDA_MIN_RECOVERY = 0.9
# gridworld A2C: hsa2c_config(ToyEnv(side=5)) with a shorter run and a
# halved local step (see perfbench/README.md on eta)
A2C_T = 100
A2C_ETA = 0.05
A2C_MIN_RETURN_FRAC = 0.8   # of the value-iteration optimum


class Apps(Workload):
    name = "apps"
    runtime = "simulated"

    def setup(self, seed):
        corpus_start = time.perf_counter()
        full, true_topics = synthetic_corpus(LDA_DOCS, LDA_V, LDA_K, seed=seed)
        corpus_s = time.perf_counter() - corpus_start
        train, _ = heldout_split(full, LDA_HELDOUT, seed=seed + 1)
        model0 = LdaModel.create(LDA_K, LDA_V, train.n_docs, zeta=0.1,
                                 alpha_doc=0.1, seed=seed + 2)
        lda_cfg = dpsvi_config(
            train, K=LDA_K, G=LDA_G, T=LDA_T, M=2, nW=2, p=2, B=2, seed=seed,
            rho_schedule={"kind": "power", "tau0": 4.0, "kappa": 0.7},
        )
        env = ToyEnv(side=5)
        a2c_cfg = hsa2c_config(env, seed=seed, T=A2C_T, eta=A2C_ETA)
        return {
            "train": train, "true_topics": true_topics, "model0": model0,
            "lda_cfg": lda_cfg, "env": env, "a2c_cfg": a2c_cfg,
            "optimum": optimal_return(env), "corpus_s": corpus_s,
        }

    def run(self, ctx, wrap=None) -> Op:
        lda_cfg, a2c_cfg = ctx["lda_cfg"], ctx["a2c_cfg"]
        (model, lda_res), lda_wall = _timed(
            lambda: run_dpsvi(lda_cfg, ctx["model0"], ctx["train"]), wrap)
        check_counters(lda_res, lda_cfg, "apps/lda")
        recovery = topic_recovery_score(model.mean_beta(), ctx["true_topics"])
        _check(recovery >= LDA_MIN_RECOVERY,
               f"apps/lda: topic recovery {recovery:.3f} < {LDA_MIN_RECOVERY}")

        (_, a2c_res, oracle), a2c_wall = _timed(
            lambda: run_hsa2c(a2c_cfg, ctx["env"]), wrap)
        check_counters(a2c_res, a2c_cfg, "apps/a2c")
        ret = oracle.mean_return_last()
        floor = A2C_MIN_RETURN_FRAC * ctx["optimum"]
        _check(math.isfinite(ret) and ret >= floor,
               f"apps/a2c: mean return {ret:.3f} < {floor:.3f}")

        docs = lda_res.counters.gradient_evals_applied * lda_cfg.problem.batch_size
        return Op(
            lda_wall + a2c_wall,
            lda_res.counters.gradient_evals_applied
            + a2c_res.counters.gradient_evals_applied,
            lda_cfg.T + a2c_cfg.T,
            [],
            [lda_res, a2c_res],
            {"lda_docs_per_s": docs / lda_wall,
             "a2c_env_steps_per_s": oracle.env_steps / a2c_wall},
        )


WORKLOADS = {w.name: w for w in (SimSigmoid(), ThreadedP2(), TcpLoopback(),
                                 Apps())}
