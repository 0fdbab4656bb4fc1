"""Policy math, k-step returns, and gradient correctness."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import (
    ac_gradients_per_step,
    kstep_returns_per_step,
    rollout_per_step,
)
from dpsgd.engine.rng import ROLE_ENV, substream
from dpsgd.errors import ConfigurationError
from dpsgd.hsa2c import (
    ActorCriticParams,
    N_ACTIONS,
    ToyEnv,
    Trajectory,
    ac_gradients,
    kstep_returns,
    policy_matrix,
    policy_probs,
    rollout,
    uniform_policy_return,
)

RIGHT = 3


def make_traj(states, actions, rewards, bootstrap=0.0, reached_goal=False):
    return Trajectory(np.array(states), np.array(actions),
                      np.array(rewards, dtype=float), bootstrap, reached_goal)


# --- parameters ---


def test_params_vector_round_trip_is_bitwise():
    rng = np.random.default_rng(0)
    p = ActorCriticParams(rng.normal(size=(9, N_ACTIONS)), rng.normal(size=9))
    q = ActorCriticParams.from_vector(p.to_vector(), 9)
    assert np.array_equal(p.theta, q.theta)
    assert np.array_equal(p.theta_v, q.theta_v)


def test_params_validation():
    with pytest.raises(ConfigurationError, match="states, actions"):
        ActorCriticParams(np.zeros(4), np.zeros(4))
    with pytest.raises(ConfigurationError, match="does not match"):
        ActorCriticParams(np.zeros((4, 2)), np.zeros(5))
    with pytest.raises(Exception):
        ActorCriticParams(np.full((2, 2), np.nan), np.zeros(2))
    with pytest.raises(ConfigurationError, match="expected"):
        ActorCriticParams.from_vector(np.zeros(10), 4)


# --- softmax policy ---


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (25, N_ACTIONS),
              elements=st.floats(-60, 60, allow_nan=False)))
def test_policy_rows_sum_to_one(theta):
    rows = policy_matrix(theta).sum(axis=1)
    assert np.all(np.abs(rows - 1.0) <= 1e-12)
    assert np.all(policy_matrix(theta) >= 0)


def test_policy_probs_matches_matrix_row():
    rng = np.random.default_rng(1)
    theta = rng.normal(size=(6, N_ACTIONS))
    for s in range(6):
        assert np.array_equal(policy_probs(theta, s), policy_matrix(theta)[s])


# --- rollout ---


def test_forced_policy_reaches_adjacent_goal_in_one_step():
    env = ToyEnv(side=2, start=(0, 0), goal=(0, 1))
    params = ActorCriticParams.zeros(env.n_states)
    params.theta[0, RIGHT] = 500.0
    traj = rollout(env, params, t_max=10, rng=np.random.default_rng(0))
    assert traj.length == 1
    assert traj.rewards.tolist() == [1.0]
    assert traj.bootstrap == 0.0
    assert traj.reached_goal


def test_t_max_one_always_yields_length_one():
    params = ActorCriticParams.zeros(25)
    for seed in range(5):
        env = ToyEnv()
        traj = rollout(env, params, 1, np.random.default_rng(seed))
        assert traj.length == 1


def test_mid_episode_stop_bootstraps_critic_estimate():
    env = ToyEnv()
    params = ActorCriticParams.zeros(env.n_states)
    params.theta_v[:] = np.arange(env.n_states, dtype=float)
    traj = rollout(env, params, 4, np.random.default_rng(2))
    assert not env.done
    assert traj.bootstrap == params.theta_v[env.state]


def test_rollout_rejects_finished_env_and_bad_cap():
    env = ToyEnv(side=2, start=(0, 0), goal=(0, 1), t_max_episode=1)
    params = ActorCriticParams.zeros(env.n_states)
    env.step(RIGHT)
    with pytest.raises(ConfigurationError, match="reset"):
        rollout(env, params, 1, np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="t_max"):
        rollout(ToyEnv(), ActorCriticParams.zeros(25), 0,
                np.random.default_rng(0))


def test_uniform_rollouts_match_exact_policy_evaluation():
    # 10,000 full episodes under the zero-parameter (uniform) policy;
    # the empirical mean return must sit within three standard errors
    # of the exact forward-DP evaluation
    env0 = ToyEnv(t_max_episode=40)
    params = ActorCriticParams.zeros(env0.n_states)
    returns = np.empty(10_000)
    for i in range(returns.shape[0]):
        env = replace(env0)
        rng = substream(123, ROLE_ENV, i)
        total = 0.0
        while not env.done:
            total += float(rollout(env, params, env.t_max_episode,
                                   rng).rewards.sum())
        returns[i] = total
    sem = returns.std(ddof=1) / np.sqrt(returns.shape[0])
    assert abs(returns.mean() - uniform_policy_return(env0)) <= 3 * sem


# --- policy table built once per call == per-step reference ---


def assert_same_trajectory(got, want):
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.actions, want.actions)
    assert np.array_equal(got.rewards, want.rewards)
    assert got.bootstrap == want.bootstrap
    assert got.reached_goal == want.reached_goal


def same_rng_state(a, b) -> bool:
    def equal(x, y):
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(equal(x[k], y[k]) for k in x)
        return np.array_equal(x, y)

    return equal(a.bit_generator.state, b.bit_generator.state)


def run_episode_against_reference(env0, params, t_max, seed):
    """Whole episode, segment by segment, in both forms side by side."""
    env, ref_env = replace(env0), replace(env0)
    rng, ref_rng = substream(seed, ROLE_ENV, 0), substream(seed, ROLE_ENV, 0)
    while not env.done:
        traj = rollout(env, params, t_max, rng)
        want = rollout_per_step(ref_env, params, t_max, ref_rng)
        assert_same_trajectory(traj, want)
        assert same_rng_state(rng, ref_rng)
        assert (env.state, env.steps_taken) == (ref_env.state,
                                                ref_env.steps_taken)
        returns = kstep_returns(traj, env.gamma_rl)
        assert np.array_equal(returns,
                              kstep_returns_per_step(want, env.gamma_rl))
        g_theta, g_v = ac_gradients(traj, returns, params)
        want_theta, want_v = ac_gradients_per_step(want, returns, params)
        assert np.array_equal(g_theta, want_theta)
        assert np.array_equal(g_v, want_v)
    assert ref_env.done


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, (25, N_ACTIONS),
           elements=st.floats(-60, 60, allow_nan=False)),
    arrays(np.float64, (25,), elements=st.floats(-5, 5, allow_nan=False)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
)
def test_rollout_and_gradients_match_per_step_reference(theta, theta_v, seed,
                                                        t_max):
    run_episode_against_reference(
        ToyEnv(t_max_episode=60), ActorCriticParams(theta, theta_v), t_max,
        seed,
    )


def test_seeded_episodes_match_per_step_reference():
    rng = np.random.default_rng(8)
    params = ActorCriticParams(rng.normal(size=(25, N_ACTIONS)),
                               rng.normal(size=25))
    for seed in range(20):
        run_episode_against_reference(ToyEnv(), params, 20, seed)


class ScriptedUniforms:
    """Stands in for a Generator: returns the given draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def test_rollout_ties_and_overflow_match_reference():
    # draws on a cdf boundary go to the next action (side="right"), and
    # a draw at or above the last cdf entry clamps to the last action
    theta = np.log(np.array([[0.1, 0.2, 0.3, 0.4]] * 4))
    params = ActorCriticParams(theta, np.zeros(4))
    cdf = np.cumsum(policy_matrix(theta)[0])
    draws = [0.0, cdf[0], cdf[1], cdf[2], cdf[3], 1.0]
    env0 = ToyEnv(side=2, start=(0, 0), goal=(1, 1), t_max_episode=6)
    # an action that steps onto the goal would end the segment early, so
    # compare one scripted draw at a time from the start cell
    for u in draws:
        env, ref_env = replace(env0), replace(env0)
        got = rollout(env, params, 1, ScriptedUniforms([u]))
        want = rollout_per_step(ref_env, params, 1, ScriptedUniforms([u]))
        assert_same_trajectory(got, want)
    got_actions = [
        rollout(replace(env0), params, 1, ScriptedUniforms([u])).actions[0]
        for u in draws
    ]
    assert got_actions == [0, 1, 2, 3, 3, 3]


# --- k-step returns ---


def test_returns_hand_recurrence():
    traj = make_traj([0, 1, 2], [0, 0, 0], [1.0, 1.0, 1.0])
    assert kstep_returns(traj, 0.5).tolist() == [1.75, 1.5, 1.0]


def test_returns_gamma_zero_copies_rewards():
    traj = make_traj([0, 1], [0, 0], [0.3, -0.2], bootstrap=9.0)
    assert kstep_returns(traj, 0.0).tolist() == [0.3, -0.2]


def test_returns_gamma_one_telescopes_to_sum_plus_bootstrap():
    traj = make_traj([0, 1, 2], [0, 0, 0], [0.25, 0.5, 0.125], bootstrap=2.0)
    assert kstep_returns(traj, 1.0)[0] == 0.25 + 0.5 + 0.125 + 2.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=8),
    st.floats(0, 1, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)
def test_prepending_zero_reward_scales_head_by_gamma(rewards, gamma, boot):
    n = len(rewards)
    base = make_traj(range(n), [0] * n, rewards, bootstrap=boot)
    extended = make_traj(range(n + 1), [0] * (n + 1), [0.0] + rewards,
                         bootstrap=boot)
    head = kstep_returns(base, gamma)[0]
    assert kstep_returns(extended, gamma)[0] == gamma * head


# --- gradients ---


def test_zero_advantage_zeroes_both_gradients():
    params = ActorCriticParams.zeros(9)
    traj = make_traj([0, 4, 7], [1, 2, 3], [0.5, -0.25, 1.0])
    returns = kstep_returns(traj, 0.5)
    params.theta_v[[0, 4, 7]] = returns  # distinct states, exact match
    g_theta, g_v = ac_gradients(traj, returns, params)
    assert not g_theta.any()
    assert not g_v.any()


def test_single_step_gradient_closed_form():
    rng = np.random.default_rng(3)
    params = ActorCriticParams(rng.normal(size=(4, N_ACTIONS)),
                               rng.normal(size=4))
    traj = make_traj([2], [1], [0.7])
    returns = kstep_returns(traj, 0.9)
    g_theta, g_v = ac_gradients(traj, returns, params)
    probs = policy_probs(params.theta, 2)
    adv = returns[0] - params.theta_v[2]
    expected_row = -adv * probs
    expected_row[1] += adv
    assert np.allclose(g_theta[2], expected_row, atol=1e-15)
    assert not g_theta[[0, 1, 3]].any()
    assert g_v[2] == -2.0 * adv
    assert not g_v[[0, 1, 3]].any()


def test_gradients_reject_misaligned_returns():
    traj = make_traj([0], [0], [1.0])
    with pytest.raises(ConfigurationError, match="returns shape"):
        ac_gradients(traj, np.zeros(3), ActorCriticParams.zeros(4))


def surrogate_policy(theta, traj, adv):
    total = 0.0
    for i in range(traj.length):
        z = theta[traj.states[i]] - theta[traj.states[i]].max()
        log_probs = z - np.log(np.exp(z).sum())
        total += log_probs[traj.actions[i]] * adv[i]
    return total


def surrogate_value(theta_v, traj, returns):
    err = returns - theta_v[traj.states]
    return float(err @ err)


def finite_difference(f, x, h=1e-5):
    g = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[j] += h
        xm.flat[j] -= h
        g.flat[j] = (f(xp) - f(xm)) / (2 * h)
    return g


def gradient_check_once(seed):
    rng = np.random.default_rng(seed)
    env = ToyEnv(side=3)
    params = ActorCriticParams(rng.normal(size=(9, N_ACTIONS)),
                               rng.normal(size=9))
    traj = rollout(env, params, 12, rng)
    returns = kstep_returns(traj, env.gamma_rl)
    adv = returns - params.theta_v[traj.states]
    g_theta, g_v = ac_gradients(traj, returns, params)
    fd_theta = finite_difference(
        lambda th: surrogate_policy(th, traj, adv), params.theta
    )
    fd_v = finite_difference(
        lambda tv: surrogate_value(tv, traj, returns), params.theta_v
    )
    err_t = np.linalg.norm(fd_theta - g_theta) / max(np.linalg.norm(g_theta),
                                                     1e-12)
    err_v = np.linalg.norm(fd_v - g_v) / max(np.linalg.norm(g_v), 1e-12)
    return err_t, err_v


def test_gradients_match_finite_differences():
    for seed in range(5):
        err_t, err_v = gradient_check_once(seed)
        assert err_t <= 1e-4
        assert err_v <= 1e-4
