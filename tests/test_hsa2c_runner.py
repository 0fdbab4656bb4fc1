"""Engine integration for the gridworld actor-critic."""
import numpy as np
import pytest

from dpsgd.errors import ConfigurationError
from dpsgd.hsa2c import (
    ActorCriticParams,
    GridworldOracle,
    INDEX_POOL,
    ToyEnv,
    hsa2c_config,
    reference_a2c,
    run_hsa2c,
)


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
