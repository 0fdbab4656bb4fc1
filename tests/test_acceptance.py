"""End-to-end acceptance checks.

Each test states one externally meaningful guarantee of the package:
reduction equivalences of the async engine, exact communication and
rate laws, convergence and throughput scaling, staleness enforcement,
topic-model fidelity, numerical accuracy of the variational pieces,
gridworld learning, and wire-format stability. Thresholds are floors
chosen for a small machine; every configuration here is deterministic
apart from real-time throughput measurements.
"""
import math

import numpy as np
import pytest
from _oracles import dirichlet_expectation_series

from dpsgd.bench import ExperimentSpec, convergence_study, run_experiment
from dpsgd.engine import (
    DelayModel,
    ProblemSpec,
    ROLE_SAMPLE,
    RunConfig,
    build_oracle,
    draw_indices,
    rescale_rate,
    run_with_oracle,
    substream,
    wire,
)
from dpsgd.errors import WireProtocolError
from dpsgd.hsa2c import (
    ActorCriticParams,
    N_ACTIONS,
    ToyEnv,
    ac_gradients,
    hsa2c_config,
    kstep_returns,
    optimal_return,
    rollout,
    run_hsa2c,
)
from dpsgd.svi_lda import (
    Corpus,
    Document,
    LdaModel,
    dirichlet_expectation,
    dpsvi_config,
    heldout_split,
    perplexity,
    run_dpsvi,
    serial_svi,
    synthetic_corpus,
    topic_recovery_score,
)


def quad_config(**overrides) -> RunConfig:
    base = dict(
        T=100,
        M=1,
        nW=1,
        p=1,
        B=1,
        eta=0.1,
        rho_schedule={"kind": "constant", "value": 0.5},
        seed=123,
        problem=ProblemSpec(name="quadratic", n=60, dim=8, data_seed=9),
        execution="simulated",
        grad_norm_every=0,
    )
    base.update(overrides)
    return RunConfig(**base)


# 1. Serial equivalence: the degenerate engine shape reproduces plain
#    sequential SGD to floating-point identity over a long horizon.

def test_01_degenerate_engine_matches_serial_sgd():
    cfg = quad_config(T=1000)
    oracle = build_oracle(cfg.problem, cfg.seed)
    res = run_with_oracle(cfg, oracle)

    v = np.zeros(oracle.dim)
    rho = cfg.resolve_rho()
    for t in range(cfg.T):
        rng = substream(cfg.seed, ROLE_SAMPLE, 0, 0, t)
        i = draw_indices(rng, oracle.n, cfg.problem.batch_size)
        g = np.asarray(oracle.grad_at(i, v))
        v = v + rho(t) * (-cfg.eta * g)

    assert np.max(np.abs(res.final.values - v)) <= 1e-12
    assert res.version == cfg.T


# 2. Degenerate-configuration equivalences: with one local step the
#    engine is asynchronous distributed SGD; with one worker and one
#    aggregated update it is lock-free parallel SGD, whose pushed deltas
#    replay exactly from the recorded overwrite traces.

def test_02a_single_step_workers_match_distributed_reference():
    cfg = quad_config(T=500, nW=2, M=2)
    oracle = build_oracle(cfg.problem, cfg.seed)
    res = run_with_oracle(cfg, oracle)

    # zero-delay lockstep: both workers base pass t on version t and the
    # master combines their updates in worker order
    v = np.zeros(oracle.dim)
    rho = cfg.resolve_rho()
    for t in range(cfg.T):
        total = np.zeros(oracle.dim)
        for w in range(cfg.nW):
            rng = substream(cfg.seed, ROLE_SAMPLE, w, 0, t)
            i = draw_indices(rng, oracle.n, cfg.problem.batch_size)
            u = v.copy()
            u -= cfg.eta * np.asarray(oracle.grad_at(i, u))
            total += u - v
        v = v + rho(t) * total

    assert np.max(np.abs(res.final.values - v)) <= 1e-12


def test_02b_lock_free_pass_replays_exactly_from_traces():
    cfg = quad_config(
        T=1,
        M=1,
        nW=1,
        p=4,
        B=50,
        execution="threaded",
        trace_overwrites=True,
        problem=ProblemSpec(name="quadratic", n=30, dim=4, data_seed=11),
    )
    oracle = build_oracle(cfg.problem, cfg.seed)
    res = run_with_oracle(cfg, oracle)
    assert res.traces
    for tr in res.traces:
        # w = read() - base at push time, so replaying every recorded
        # write (overwrites included) must land on the same vector
        assert np.array_equal(tr.trace.replay() - tr.base, tr.delta)


# 3. Communication law: message counts depend on passes, not on local
#    steps, while applied gradient work scales linearly in B.

def test_03_messages_invariant_in_b_gradients_scale():
    runs = {}
    for B in (1, 10):
        cfg = quad_config(T=50, M=2, nW=2, B=B)
        runs[B] = run_with_oracle(cfg, build_oracle(cfg.problem, cfg.seed))
    assert runs[1].counters.pushes_received == runs[10].counters.pushes_received
    assert runs[1].counters.pulls_served == runs[10].counters.pulls_served
    assert (
        runs[10].counters.gradient_evals_applied
        == 10 * runs[1].counters.gradient_evals_applied
    )
    assert (
        runs[1].metrics.rows[-1][-2] == runs[10].metrics.rows[-1][-2]
    ), "cumulative message column must match at equal T"


# 4. Learning-rate transfer law: the tuned rate carries across work
#    shapes with the inverse fourth root of the total work product.

def test_04_rate_rescale_fourth_root_law():
    for shape in [(2, 4, 2), (4, 2, 2), (1, 4, 4), (16, 1, 1), (1, 1, 16)]:
        assert rescale_rate(0.1, (1, 1, 1), shape) == 0.05
    assert rescale_rate(0.05, (2, 4, 2), (1, 1, 1)) == pytest.approx(0.1, rel=1e-15)


# 5. Convergence-rate scaling: on the non-convex sigmoid objective the
#    mean squared gradient norm decays with total work at a log-log
#    slope consistent with the 1/sqrt(work) rate law.

def test_05_sigmoid_grad_norm_decays_with_work():
    base = RunConfig(
        T=1000,
        M=1,
        nW=1,
        p=1,
        B=1,
        eta=1.0,
        rho_schedule={"kind": "constant", "value": 0.5},
        seed=0,
        problem=ProblemSpec(name="sigmoid", n=1000, dim=20, batch_size=10,
                            data_seed=1234),
        execution="simulated",
        grad_norm_every=10,
    )
    study = convergence_study(base, [1000, 10000, 100000])
    assert -0.7 <= study["slope"] <= -0.3
    assert study["r_squared"] >= 0.9


# 6. Relative throughput: with a 1 ms simulated gradient cost on the
#    in-process transport, adding workers or local threads must deliver
#    most of the ideal gradients/sec scaling.

def _throughput_base(tmp_path) -> RunConfig:
    return RunConfig(
        T=500,
        M=2,
        nW=1,
        p=1,
        B=2,
        eta=0.05,
        rho_schedule={"kind": "constant", "value": 0.05},
        seed=0,
        problem=ProblemSpec(name="quadratic", n=100, dim=10, batch_size=1,
                            data_seed=77),
        execution="threaded",
        compute_cost_s=1e-3,
        compute_cost_mode="sleep",
        delay=DelayModel(kind="fixed", latency=1e-5),
        grad_norm_every=0,
    )


def _median_scaling_ratios(tmp_path, axis: str, points: list[int],
                           repeats: int = 3) -> dict[int, float]:
    """Throughput ratio of each point against points[0], median of repeats.

    Each repeat is a sweep with its own reference run, and the run order
    rotates between repeats, so a burst of host CPU steal lands on a
    different point each time instead of always on the same ratio.
    """
    ratios: dict[int, list[float]] = {pt: [] for pt in points}
    for r in range(repeats):
        order = points[r:] + points[:r]
        spec = ExperimentSpec(base=_throughput_base(tmp_path),
                              name=f"{axis}{r}", out_dir=str(tmp_path),
                              reference_index=order.index(points[0]),
                              **{f"{axis}_list": order})
        for pt, run in zip(order, run_experiment(spec)["runs"]):
            assert run["error"] is None, run["error"]
            ratios[pt].append(run["throughput_ratio_vs_reference"])
    assert ratios[points[0]] == [1.0] * repeats
    return {pt: float(np.median(vals)) for pt, vals in ratios.items()}


def test_06a_worker_scaling_floors(tmp_path):
    ratios = _median_scaling_ratios(tmp_path, "nW", [1, 2, 4])
    assert ratios[2] >= 1.8
    assert ratios[4] >= 3.2


def test_06b_thread_scaling_floors(tmp_path):
    ratios = _median_scaling_ratios(tmp_path, "p", [1, 2, 4])
    assert ratios[2] >= 1.7
    assert ratios[4] >= 3.0


# 7. Staleness bound: with the drop policy no applied update ever
#    exceeds D'; with enforcement off and a tight bound the violation
#    counter fires. One hundred randomized delay seeds each.

def _staleness_config(seed: int, enforce: str, bound: int) -> RunConfig:
    return quad_config(
        T=30,
        M=2,
        nW=4,
        seed=seed,
        problem=ProblemSpec(name="quadratic", n=40, dim=6, data_seed=3),
        compute_cost_s=1e-3,
        delay=DelayModel(kind="uniform", low=0.0, high=5e-3,
                         d_prime_bound=bound, enforce=enforce),
        rho_schedule={"kind": "constant", "value": 0.2},
    )


def test_07_staleness_enforcement_over_random_delays():
    dropped_total = 0
    for seed in range(100):
        cfg = _staleness_config(seed, "drop", 2)
        res = run_with_oracle(cfg, build_oracle(cfg.problem, seed))
        assert max(res.applied_staleness_hist) <= 2
        dropped_total += res.counters.pushes_dropped_stale
    assert dropped_total > 0, "the delay model never exercised the gate"

    for seed in range(100):
        cfg = _staleness_config(seed, "off", 0)
        res = run_with_oracle(cfg, build_oracle(cfg.problem, seed))
        assert res.counters.stale_applied_violations > 0


# 8. Topic-model fidelity: the async run reaches held-out perplexity
#    within 5% of tuned serial inference at equal documents seen, and
#    both recover the planted topics.

def test_08_async_svi_matches_serial_quality():
    full, true_topics = synthetic_corpus(600, 100, 5, seed=42)
    train, heldout = heldout_split(full, 100, seed=7)
    model0 = LdaModel.create(5, 100, train.n_docs, zeta=0.1, alpha_doc=0.1,
                             seed=11)

    cfg = dpsvi_config(
        train, K=5, G=16, T=15, M=2, nW=2, p=2, B=5, seed=11,
        rho_schedule={"kind": "power", "tau0": 4.0, "kappa": 0.7},
    )
    model_async, result = run_dpsvi(cfg, model0, train)
    docs_async = result.counters.gradient_evals_applied * cfg.problem.batch_size

    serial_T = 300
    model_serial, _ = serial_svi(model0, train, T=serial_T, G=16,
                                 rho=lambda t: (4.0 + t) ** -0.55, seed=11)
    assert docs_async == serial_T * 16  # equal effective documents seen

    perp_async = perplexity(model_async, heldout)
    perp_serial = perplexity(model_serial, heldout)
    assert abs(perp_async - perp_serial) / perp_serial <= 0.05
    assert topic_recovery_score(model_async.mean_beta(), true_topics) >= 0.9
    assert topic_recovery_score(model_serial.mean_beta(), true_topics) >= 0.9


# 9. Digamma accuracy through the public variational expectation, pinned
#    against an independent Bernoulli-series evaluation.

def test_09_dirichlet_expectation_accuracy():
    grid = np.linspace(0.01, 100.0, 1000)
    got = dirichlet_expectation(grid)
    want = dirichlet_expectation_series(grid)
    assert np.max(np.abs(got - want)) <= 1e-10

    exact = dirichlet_expectation(np.array([1.0, 1.0]))
    assert np.max(np.abs(exact - (-1.0))) <= 1e-12


# 10. Perplexity sanity: a uniform topic model is exactly as surprised
#     as a fair V-sided die, on any corpus.

def test_10_uniform_model_perplexity_equals_vocab_size():
    corpus, _ = synthetic_corpus(60, 50, 4, seed=3)
    uniform = LdaModel(K=4, V_vocab=50, lam=np.ones((4, 50)), zeta=0.1,
                       alpha_doc=0.1, n_docs=60)
    assert perplexity(uniform, corpus) == pytest.approx(50.0, abs=1e-9)

    tiny = Corpus(
        docs=[
            Document(np.array([0, 2]), np.array([3, 1])),
            Document(np.array([1]), np.array([5])),
        ],
        vocab=["a", "b", "c"],
    )
    uniform3 = LdaModel(K=2, V_vocab=3, lam=np.full((2, 3), 7.0), zeta=0.1,
                        alpha_doc=0.1, n_docs=2)
    assert perplexity(uniform3, tiny) == pytest.approx(3.0, abs=1e-9)


# 11. Gridworld actor-critic: default settings reach 95% of the optimal
#     return within the step budget on at least 4 of 5 seeds, and the
#     analytic gradients agree with finite differences on random draws.

def test_11a_gridworld_learns_near_optimal():
    env = ToyEnv()
    target = 0.95 * optimal_return(env)
    passed = 0
    for seed in range(5):
        cfg = hsa2c_config(env, seed=seed)
        _, _, oracle = run_hsa2c(cfg, env)
        if oracle.env_steps <= 200_000 and oracle.mean_return_last() >= target:
            passed += 1
    assert passed >= 4


def _surrogate_policy(theta, traj, adv):
    total = 0.0
    for i in range(traj.length):
        z = theta[traj.states[i]] - theta[traj.states[i]].max()
        log_probs = z - np.log(np.exp(z).sum())
        total += log_probs[traj.actions[i]] * adv[i]
    return total


def _surrogate_value(theta_v, traj, returns):
    err = returns - theta_v[traj.states]
    return float(err @ err)


def _finite_difference(f, x, h=1e-5):
    g = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[j] += h
        xm.flat[j] -= h
        g.flat[j] = (f(xp) - f(xm)) / (2 * h)
    return g


def test_11b_actor_critic_gradients_match_finite_differences():
    env = ToyEnv()
    n = env.n_states
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = ActorCriticParams(rng.normal(size=(n, N_ACTIONS)),
                                   rng.normal(size=n))
        traj = rollout(env, params, 12, rng)
        returns = kstep_returns(traj, env.gamma_rl)
        adv = returns - params.theta_v[traj.states]
        g_theta, g_v = ac_gradients(traj, returns, params)

        fd_theta = _finite_difference(
            lambda th: _surrogate_policy(th, traj, adv), params.theta
        )
        fd_v = _finite_difference(
            lambda tv: _surrogate_value(tv, traj, returns), params.theta_v
        )
        err_t = np.linalg.norm(fd_theta - g_theta) / max(
            np.linalg.norm(g_theta), 1e-12
        )
        err_v = np.linalg.norm(fd_v - g_v) / max(np.linalg.norm(g_v), 1e-12)
        assert err_t <= 1e-4
        assert err_v <= 1e-4
        env.reset()


# 12. Wire protocol: the four frame layouts are frozen byte for byte,
#     zero-dimension vectors are rejected, truncation is an error.

GOLDEN_PULL_REQ = b"DPSG" + b"\x00" + b"\x00\x00\x00\x00"
GOLDEN_SHUTDOWN = b"DPSG" + b"\x03" + b"\x00\x00\x00\x00"
GOLDEN_MODEL = (
    b"DPSG" + b"\x01" + b"\x20\x00\x00\x00"
    + b"\x03\x00\x00\x00\x00\x00\x00\x00"      # version 3
    + b"\x02\x00\x00\x00\x00\x00\x00\x00"      # dim 2
    + b"\x00\x00\x00\x00\x00\x00\xf0\x3f"      # 1.0
    + b"\x00\x00\x00\x00\x00\x00\x04\xc0"      # -2.5
)
GOLDEN_PUSH = (
    b"DPSG" + b"\x02" + b"\x1c\x00\x00\x00"
    + b"\x07\x00\x00\x00"                      # worker 7
    + b"\x05\x00\x00\x00\x00\x00\x00\x00"      # base version 5
    + b"\x01\x00\x00\x00\x00\x00\x00\x00"      # dim 1
    + b"\x00\x00\x00\x00\x00\x00\xe0\x3f"      # 0.5
)


def test_12_wire_golden_bytes_and_malformed_frames():
    assert wire.encode_pull_req() == GOLDEN_PULL_REQ
    assert wire.encode_shutdown() == GOLDEN_SHUTDOWN
    assert wire.encode_model(3, np.array([1.0, -2.5])) == GOLDEN_MODEL
    assert wire.encode_push(7, 5, np.array([0.5])) == GOLDEN_PUSH

    t, body = wire.decode_frame(GOLDEN_MODEL)
    assert (t, body.version) == (wire.MODEL, 3)
    assert np.array_equal(body.values, [1.0, -2.5])
    t, body = wire.decode_frame(GOLDEN_PUSH)
    assert (t, body.worker_id, body.base_version) == (wire.PUSH, 7, 5)
    assert np.array_equal(body.delta, [0.5])
    assert wire.decode_frame(GOLDEN_PULL_REQ) == (wire.PULL_REQ, None)
    assert wire.decode_frame(GOLDEN_SHUTDOWN) == (wire.SHUTDOWN, None)

    with pytest.raises(WireProtocolError):
        wire.encode_model(3, np.zeros(0))
    with pytest.raises(WireProtocolError):
        wire.encode_push(7, 5, np.zeros(0))
    zero_dim = (3).to_bytes(8, "little") + (0).to_bytes(8, "little")
    with pytest.raises(WireProtocolError, match="zero-dimension"):
        wire.decode_frame(wire.encode_frame(wire.MODEL, zero_dim))
    with pytest.raises(WireProtocolError, match="truncated"):
        wire.decode_frame(GOLDEN_MODEL[:6])
    with pytest.raises(WireProtocolError):
        wire.decode_frame(GOLDEN_MODEL[:20])
