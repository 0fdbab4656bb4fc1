"""Engine integration for the gridworld actor-critic."""
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dpsgd.hsa2c.runner as runner
from _oracles import episode_by_segments
from dpsgd.engine.rng import ROLE_ENV, substream
from dpsgd.errors import ConfigurationError
from dpsgd.hsa2c import (
    N_ACTIONS,
    ActorCriticParams,
    GridworldOracle,
    INDEX_POOL,
    ToyEnv,
    hsa2c_config,
    policy_matrix,
    reference_a2c,
    run_hsa2c,
)

UP, DOWN, LEFT, RIGHT = range(N_ACTIONS)


def test_degenerate_engine_matches_reference_loop_bitwise():
    cfg = hsa2c_config(ToyEnv(), m=1, t_max=20, T=25, M=1, nW=1, p=1, B=1,
                       eta=0.05, seed=3,
                       rho_schedule={"kind": "constant", "value": 0.4})
    engine_params, result, engine_oracle = run_hsa2c(cfg, ToyEnv())
    ref_params, ref_oracle = reference_a2c(
        ToyEnv(), T=25, m=1, eta=0.05, rho=lambda t: 0.4, seed=3, t_max=20
    )
    assert np.array_equal(engine_params.to_vector(), ref_params.to_vector())
    assert engine_oracle.env_steps == ref_oracle.env_steps
    assert result.counters.pushes_applied == 25


def test_zero_reward_env_pushes_zero_deltas():
    # no rewards and a zero critic give zero advantage everywhere, so
    # every worker's update vector vanishes and the model never moves
    env = ToyEnv(step_reward=0.0, goal_reward=0.0)
    cfg = hsa2c_config(env, m=1, t_max=10, T=4, M=2, nW=2, p=1, B=1, seed=1)
    params0 = ActorCriticParams.zeros(env.n_states)
    params, result, _ = run_hsa2c(cfg, env, params0)
    assert np.array_equal(params.to_vector(), params0.to_vector())
    assert result.counters.pushes_applied == 8


def test_oracle_gradient_is_pure_in_index_and_params():
    oracle = GridworldOracle(ToyEnv(), seed=11, t_max=20)
    rng = np.random.default_rng(4)
    x = ActorCriticParams(
        0.1 * rng.normal(size=(25, 4)), 0.1 * rng.normal(size=25)
    ).to_vector()
    g1 = oracle.grad_at([17, 9], x)
    steps_after_first = oracle.env_steps
    g2 = oracle.grad_at([17, 9], x)
    assert np.array_equal(g1, g2)
    assert g1.shape == (oracle.dim,)
    assert oracle.env_steps == 2 * steps_after_first
    assert len(oracle.episode_returns) == 4


@pytest.mark.parametrize("index", [-1, INDEX_POOL, 2**31, [5, 2**31], []])
def test_oracle_rejects_out_of_range_indices(index):
    oracle = GridworldOracle(ToyEnv(), seed=0, t_max=20)
    with pytest.raises(ConfigurationError, match="index"):
        oracle.grad_at(index, ActorCriticParams.zeros(25).to_vector())
    assert oracle.env_steps == 0


@pytest.mark.parametrize("index", [1.9, [0.5, 2.2], True, "3"])
def test_oracle_rejects_non_integer_indices(index):
    oracle = GridworldOracle(ToyEnv(), seed=0, t_max=20)
    with pytest.raises(ConfigurationError, match="integer"):
        oracle.grad_at(index, ActorCriticParams.zeros(25).to_vector())
    assert oracle.env_steps == 0


def test_oracle_history_tracks_steps_and_window_mean():
    oracle = GridworldOracle(ToyEnv(), seed=2, t_max=20)
    x = ActorCriticParams.zeros(25).to_vector()
    oracle.grad_at(np.arange(5), x)
    assert len(oracle.history) == 5
    steps = [row[1] for row in oracle.history]
    assert steps == sorted(steps)
    assert oracle.history[-1][1] == oracle.env_steps
    assert oracle.history[-1][2] == pytest.approx(
        np.mean(oracle.episode_returns)
    )
    assert oracle.mean_return_last(2) == pytest.approx(
        np.mean(oracle.episode_returns[-2:])
    )


def test_oracle_and_runner_validation():
    with pytest.raises(ConfigurationError, match="t_max"):
        GridworldOracle(ToyEnv(), seed=0, t_max=0)
    env = ToyEnv()
    bad = hsa2c_config(env, T=2)
    bad.grad_norm_every = 5
    with pytest.raises(ConfigurationError, match="grad_norm_every"):
        run_hsa2c(bad, env)
    mismatched = hsa2c_config(ToyEnv(side=3), T=2)
    with pytest.raises(ConfigurationError, match="dim"):
        run_hsa2c(mismatched, env)
    other_pool = hsa2c_config(env, T=2)
    other_pool.problem.n = 100
    with pytest.raises(ConfigurationError, match="problem.n is 100"):
        run_hsa2c(other_pool, env)


@pytest.mark.parametrize("field, value", [
    ("goal_reward", 2.0), ("step_reward", 0.0), ("gamma_rl", 0.9),
    ("t_max_episode", 30), ("start", (1, 0)), ("goal", (0, 2)),
])
def test_run_hsa2c_refuses_an_env_its_config_does_not_describe(field, value):
    # a board of the config's shape but another field: the run would play
    # one board while its summary echoes another
    said = ToyEnv(side=3, **{field: value})
    cfg = hsa2c_config(said, T=2, seed=1)
    with pytest.raises(ConfigurationError, match=f"env {field} is"):
        run_hsa2c(cfg, ToyEnv(side=3))


def test_run_hsa2c_names_the_first_field_that_differs():
    # in ToyEnv's field order: step_reward comes before goal_reward
    cfg = hsa2c_config(ToyEnv(side=3, step_reward=0.0, goal_reward=2.0),
                       T=2, seed=1)
    with pytest.raises(ConfigurationError,
                       match=r"env step_reward is -0\.01 but problem.params "
                             r"say 0\.0"):
        run_hsa2c(cfg, ToyEnv(side=3))


def test_run_hsa2c_plays_the_board_its_config_describes():
    # a JSON list reads as the tuple the env holds
    env = ToyEnv(side=3, start=[0, 1])
    cfg = hsa2c_config(env, T=2, seed=1)
    assert cfg.problem.params["start"] == [0, 1]
    _, result, _ = run_hsa2c(cfg, env)
    assert result.version == 2


def test_hsa2c_config_defaults():
    env = ToyEnv()
    cfg = hsa2c_config(env)
    assert (cfg.T, cfg.M, cfg.nW, cfg.p, cfg.B) == (300, 2, 2, 2, 2)
    assert cfg.eta == 0.1
    assert cfg.rho_schedule == {"kind": "constant", "value": 0.4}
    assert cfg.execution == "simulated"
    assert cfg.grad_norm_every == 0
    assert cfg.problem.n == INDEX_POOL
    assert cfg.problem.dim == 125
    assert cfg.problem.batch_size == 2
    assert cfg.problem.params["t_max"] == 20


def test_short_run_learns_beyond_random_play():
    env = ToyEnv()
    cfg = hsa2c_config(env, seed=0, T=60)
    _, _, oracle = run_hsa2c(cfg, env)
    assert oracle.mean_return_last() >= 0.6
    assert oracle.env_steps <= 60_000


# --- the table-driven episode against the per-segment reference ---


def grad_at_by_segments(env, seed, t_max, idx, x):
    """(grad_at, env_steps, episode_returns) of a fresh GridworldOracle,
    episode by episode through tests/_oracles.py:episode_by_segments."""
    params = ActorCriticParams.from_vector(x, env.n_states, N_ACTIONS)
    split = env.n_states * N_ACTIONS
    out = np.zeros(split + env.n_states)
    steps, returns = 0, []
    for index in idx:
        g_theta, g_v, n, ret = episode_by_segments(
            env, params, t_max, substream(seed, ROLE_ENV, int(index)))
        out[:split] -= g_theta.ravel()
        out[split:] += g_v
        steps += n
        returns.append(ret)
    return out, steps, returns


def assert_grad_at_matches_segments(env, theta, theta_v, t_max, seed, idx):
    x = ActorCriticParams(theta, theta_v).to_vector()
    oracle = GridworldOracle(env, seed, t_max=t_max)
    got = oracle.grad_at(idx, x)
    want, steps, returns = grad_at_by_segments(env, seed, t_max, idx, x)
    assert np.array_equal(got, want)
    assert oracle.env_steps == steps
    assert np.array_equal(oracle.episode_returns, returns)
    return oracle


@st.composite
def episode_cases(draw):
    side = draw(st.integers(2, 6))
    cell = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    goal = draw(cell)
    start = draw(cell.filter(lambda c: c != goal))
    cap = draw(st.integers(1, 60))
    env = ToyEnv(side=side, start=start, goal=goal, t_max_episode=cap)
    n = env.n_states
    # large scales give near-deterministic rows with exact 0 and 1 in cdf
    scale = draw(st.sampled_from([1.0, 60.0, 1e3]))
    theta = scale * draw(arrays(np.float64, (n, N_ACTIONS),
                                elements=st.floats(-1, 1)))
    theta_v = draw(arrays(np.float64, (n,), elements=st.floats(-5, 5)))
    t_max = draw(st.sampled_from([1, 7, 20, cap + 1, cap + 13]))
    seed = draw(st.integers(0, 2**32 - 1))
    idx = draw(st.lists(st.integers(0, INDEX_POOL - 1), min_size=1,
                        max_size=4))
    return env, theta, theta_v, t_max, seed, idx


@settings(max_examples=60, deadline=None)
@given(episode_cases())
def test_grad_at_matches_segment_reference_bitwise(case):
    assert_grad_at_matches_segments(*case)


def forced_theta(n_states, moves):
    """Logits that pick moves[s] in state s (UP elsewhere) with
    probability exactly 1."""
    theta = np.zeros((n_states, N_ACTIONS))
    for s in range(n_states):
        theta[s, moves.get(s, UP)] = 1e3
    return theta


@pytest.mark.parametrize("cap", [21, 20])
def test_grad_at_matches_segments_when_the_cap_ends_the_episode(cap):
    # UP from the top-left corner bumps the wall forever: at t_max=7 a
    # cap of 21 ends the third segment on its last step and a cap of 20
    # ends it one step short
    env = ToyEnv(side=3, t_max_episode=cap)
    theta = forced_theta(env.n_states, {})
    theta_v = np.linspace(-1.0, 1.0, env.n_states)
    oracle = assert_grad_at_matches_segments(env, theta, theta_v, 7, 5,
                                             [3, 11, 4])
    assert oracle.env_steps == 3 * cap


@pytest.mark.parametrize("t_max", [1, 2, 3])
def test_grad_at_matches_segments_when_the_goal_ends_a_segment(t_max):
    # RIGHT then DOWN reaches the goal in two steps: on the last step of
    # the first segment at t_max=2, of the second at t_max=1, and inside
    # a segment at t_max=3
    env = ToyEnv(side=2)
    theta = forced_theta(env.n_states, {0: RIGHT, 1: DOWN})
    theta_v = np.array([0.5, -0.25, 2.0, 1.0])
    oracle = assert_grad_at_matches_segments(env, theta, theta_v, t_max, 9,
                                             [0, 7])
    assert oracle.env_steps == 4
    assert oracle.episode_returns == [env.step_reward + env.goal_reward] * 2


class CountingStream:
    """A substream whose random() calls are counted."""

    def __init__(self, rng):
        self.rng = rng
        self.random_calls = 0

    def random(self, *args):
        self.random_calls += 1
        return self.rng.random(*args)


def test_gridworld_episode_call_budget(monkeypatch):
    # counts only, never time; recorded on Python 3.11.7, numpy 2.4.6
    env = ToyEnv(side=4, t_max_episode=50)
    t_max, m = 7, 5
    oracle = GridworldOracle(env, seed=3, t_max=t_max)
    rng = np.random.default_rng(2)
    x = ActorCriticParams(0.3 * rng.normal(size=(16, N_ACTIONS)),
                          rng.normal(size=16)).to_vector()
    counts = Counter()
    streams = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_substream(*keys):
        streams.append(CountingStream(substream(*keys)))
        return streams[-1]

    monkeypatch.setattr(runner, "substream", counting_substream)
    monkeypatch.setattr(runner, "policy_matrix",
                        counted("policy_matrix", policy_matrix))
    monkeypatch.setattr(ToyEnv, "step", counted("step", ToyEnv.step))
    # dataclasses.replace, like any copy, builds a new ToyEnv
    monkeypatch.setattr(ToyEnv, "__post_init__",
                        counted("env_built", ToyEnv.__post_init__))
    calls = 3
    for c in range(calls):
        oracle.grad_at(np.arange(c * m, (c + 1) * m), x)
    assert counts["policy_matrix"] == calls
    assert len(streams) == calls * m
    assert counts["step"] == counts["env_built"] == 0
    totals = [row[1] for row in oracle.history]
    ep_steps = np.diff([0] + totals)
    assert len(ep_steps) == len(streams)
    for stream, steps in zip(streams, ep_steps):
        assert 1 <= stream.random_calls <= math.ceil(steps / t_max)


def test_threaded_run_logs_every_episode_once(monkeypatch):
    # the env's tables and each call's policy tables are shared by four
    # threads on two cores; a short switch interval interleaves them
    calls = []
    grad_at = GridworldOracle.grad_at

    def recording(self, i, x):
        calls.append((list(i), np.array(x, copy=True)))  # append is atomic
        return grad_at(self, i, x)

    monkeypatch.setattr(GridworldOracle, "grad_at", recording)
    env = ToyEnv(side=3)
    cfg = hsa2c_config(env, m=2, t_max=7, T=12, nW=2, p=2, B=2, M=2,
                       seed=4, execution="threaded")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        params, result, oracle = run_hsa2c(cfg, env)
    finally:
        sys.setswitchinterval(interval)
    assert result.version == cfg.T
    assert np.isfinite(params.to_vector()).all()
    steps, returns = 0, []
    for idx, x in calls:
        _, n, rets = grad_at_by_segments(env, cfg.seed, 7, idx, x)
        steps += n
        returns += rets
    # every episode computed is logged exactly once, with its steps
    assert len(oracle.episode_returns) == len(returns) > 0
    assert Counter(oracle.episode_returns) == Counter(returns)
    assert oracle.env_steps == steps
