"""SHA-256 fingerprints of simulated runs on a fixed config set.

Simulated runs are deterministic, so a change that must keep them bit for
bit prints the same lines before and after. Run it once per checkout,
pointing PYTHONPATH at that checkout's sources, and diff the outputs:

    PYTHONPATH=src python scripts/sim_fingerprint.py > after.txt
    PYTHONPATH=../parent/src python scripts/sim_fingerprint.py > before.txt
    diff before.txt after.txt

Each stdout line names a run and digests its final vector, MetricsSeries
rows, counters and the applied and received staleness histograms; an
apps-a2c or gridworld line also digests its oracle's env_steps and
episode_returns. The gridworld lines run the apps A2C config on more
seeds, then two short-segment shapes on a 3x3 grid with a 20-move cap,
where segments end at the goal (t_max 1) and at the cap (t_max 7). A
corpus line digests the apps workload's synthetic corpus for that seed:
its true topics and the bytes of every document's word ids and counts,
dtypes included. The wall time of each run goes to stderr, so it stays
out of the diff. The sim-sigmoid and apps runs use the benchmark's own
configs (perfbench/workloads.py); the others are written out below.
tests/test_sim_fingerprint.py checks the eleven lines of _engine_runs
against their recorded digests on every test run.
"""
import argparse
import dataclasses
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from dpsgd.engine import (
    DelayModel,
    ProblemSpec,
    RunConfig,
    build_oracle,
    initial_model,
    run_with_oracle,
)
from dpsgd.hsa2c import ToyEnv, hsa2c_config, run_hsa2c
from dpsgd.svi_lda import run_dpsvi, synthetic_corpus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import (  # noqa: E402
    A2C_ETA,
    A2C_T,
    LDA_DOCS,
    LDA_K,
    LDA_V,
    WORKLOADS,
)


def _quad(**overrides) -> RunConfig:
    # the shape of tests/test_acceptance.py:quad_config
    base = dict(
        T=100, M=1, nW=1, p=1, B=1, eta=0.1,
        rho_schedule={"kind": "constant", "value": 0.5},
        seed=123,
        problem=ProblemSpec(name="quadratic", n=60, dim=8, data_seed=9),
        execution="simulated",
        grad_norm_every=0,
    )
    base.update(overrides)
    return RunConfig(**base)


def _engine_runs():
    """(name, config, oracle, init) of every run on a built-in oracle."""
    sim = WORKLOADS["sim-sigmoid"]
    for seed in (1, 2, 3):
        ctx = sim.setup(seed)
        yield f"sim-sigmoid/seed{seed}", ctx["cfg"], ctx["oracle"], ctx["init"]
    configs = {
        "test01": _quad(T=1000),
        "test02a": _quad(T=500, nW=2, M=2),
        "block-quadratic": _quad(
            T=200, M=2, nW=3, p=3, B=3, seed=7,
            problem=ProblemSpec(name="quadratic", n=40, dim=6, batch_size=3,
                                data_seed=3),
            compute_cost_s=1e-3,
            delay=DelayModel(kind="uniform", low=0.0, high=5e-3,
                             d_prime_bound=2, enforce="block"),
            grad_norm_every=10,
        ),
        "seeded-jitter": _quad(
            T=300, M=2, nW=4, p=2, B=2, seed=11, compute_cost_s=1e-3,
            delay=DelayModel(kind="seeded-jitter", low=0.0, high=3e-3,
                             jitter=2e-3, d_prime_bound=3, enforce="drop"),
            grad_norm_every=10,
        ),
        # every push staler than 0 is a violation the master counts
        "off-violations": _quad(
            T=300, M=2, nW=4, p=2, B=2, seed=13, compute_cost_s=1e-3,
            delay=DelayModel(kind="uniform", low=0.0, high=4e-3,
                             d_prime_bound=0, enforce="off"),
            grad_norm_every=10,
        ),
        # a seed the streams mask to 32 bits, and over 1280 passes per
        # worker: five 256-pass chunks of stream keys for each
        "wide-seed-chunks": _quad(
            T=1500, M=2, nW=2, p=2, B=1, seed=2**32 + 5, compute_cost_s=1e-3,
            delay=DelayModel(kind="uniform", low=0.0, high=3e-3,
                             d_prime_bound=3, enforce="drop"),
            grad_norm_every=10,
        ),
        # the serial shape of tests/test_acceptance.py test 05: one pass
        # per iteration, 1000 passes over four chunks of one prefix
        "test05-serial": _quad(
            T=1000, eta=1.0, seed=0,
            problem=ProblemSpec(name="sigmoid", n=1000, dim=20,
                                batch_size=10, data_seed=1234),
            grad_norm_every=10,
        ),
        "sigmoid-nW32": dataclasses.replace(
            sim.config(1), T=300, nW=32, M=4,
            delay=DelayModel(kind="uniform", low=0.0, high=4e-3)),
    }
    for name, cfg in configs.items():
        oracle = build_oracle(cfg.problem, cfg.seed)
        yield name, cfg, oracle, initial_model(oracle)


def _gridworld_runs():
    """(name, config, env) of every gridworld run outside apps."""
    for seed in range(4, 11):
        env = ToyEnv(side=5)
        yield (f"gridworld/apps-seed{seed}",
               hsa2c_config(env, seed=seed, T=A2C_T, eta=A2C_ETA), env)
    for t_max in (1, 7):
        env = ToyEnv(side=3, t_max_episode=20)
        yield (f"gridworld/side3-tmax{t_max}",
               hsa2c_config(env, m=2, t_max=t_max, T=100, nW=2, p=2, B=2, M=2,
                            seed=5), env)


def _digest(obj) -> str:
    data = obj.tobytes() if isinstance(obj, np.ndarray) else repr(obj).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprint(name: str, res) -> str:
    hists = (sorted(res.applied_staleness_hist.items()),
             sorted(res.received_staleness_hist.items()))
    return (f"{name} final={_digest(res.final.values)} "
            f"metrics={_digest(res.metrics.rows)} "
            f"counters={_digest(dataclasses.asdict(res.counters))} "
            f"hists={_digest(hists)}")


def a2c_fingerprint(name: str, cfg, env) -> str:
    _, res, oracle = _timed(name, lambda: run_hsa2c(cfg, env))
    episodes = _digest((oracle.env_steps, oracle.episode_returns))
    return f"{fingerprint(name, res)} episodes={episodes}"


def corpus_fingerprint(name: str, corpus, topics) -> str:
    docs = hashlib.sha256()
    for doc in corpus.docs:
        for arr in (doc.word_ids, doc.counts):
            docs.update(arr.dtype.str.encode())
            docs.update(arr.tobytes())
    return (f"{name} topics={_digest(topics)} "
            f"docs={docs.hexdigest()[:16]}")


def _timed(name: str, fn):
    start = time.perf_counter()
    out = fn()
    print(f"{name}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.parse_args(argv)
    for name, cfg, oracle, init in _engine_runs():
        res = _timed(name, lambda: run_with_oracle(cfg, oracle, init))
        print(fingerprint(name, res), flush=True)
    apps = WORKLOADS["apps"]
    for seed in (1, 2, 3):
        corpus, topics = _timed(f"corpus/seed{seed}", lambda: synthetic_corpus(
            LDA_DOCS, LDA_V, LDA_K, seed=seed))
        print(corpus_fingerprint(f"corpus/seed{seed}", corpus, topics),
              flush=True)
        ctx = apps.setup(seed)
        _, lda = _timed(f"apps-lda/seed{seed}", lambda: run_dpsvi(
            ctx["lda_cfg"], ctx["model0"], ctx["train"]))
        print(fingerprint(f"apps-lda/seed{seed}", lda), flush=True)
        print(a2c_fingerprint(f"apps-a2c/seed{seed}", ctx["a2c_cfg"],
                              ctx["env"]), flush=True)
    for name, cfg, env in _gridworld_runs():
        print(a2c_fingerprint(name, cfg, env), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
