"""Softmax-linear policy, linear value function, and their gradients.

One-hot cell features make both models tables: the policy logits for
state s are theta[s] and the value estimate is theta_v[s]. Gradients
below are ascent directions for the policy objective and the raw
derivative of the squared error for the critic; the engine-facing
runner negates the policy block so a descent step ascends the reward.

A segment's walk, returns and gradient sums are written once, as the
helpers _walk, _discount and _add_gradients over nested-list tables.
rollout, kstep_returns and ac_gradients wrap them, as does
GridworldOracle's episode loop; tests/_oracles.py keeps the per-step
forms as the independent reference.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..core import check_finite
from ..errors import ConfigurationError
from .env import N_ACTIONS, ToyEnv


@dataclass
class ActorCriticParams:
    theta: np.ndarray
    theta_v: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.theta_v = np.asarray(self.theta_v, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        if self.theta.ndim != 2:
            raise ConfigurationError(
                f"theta must be (states, actions), got shape {self.theta.shape}"
            )
        if self.theta_v.shape != (self.theta.shape[0],):
            raise ConfigurationError(
                f"theta_v shape {self.theta_v.shape} does not match "
                f"{self.theta.shape[0]} states"
            )
        check_finite(self.theta.ravel(), "theta")
        check_finite(self.theta_v, "theta_v")

    @classmethod
    def zeros(cls, n_states: int, n_actions: int = N_ACTIONS) -> "ActorCriticParams":
        return cls(np.zeros((n_states, n_actions)), np.zeros(n_states))

    @property
    def n_states(self) -> int:
        return self.theta.shape[0]

    @property
    def n_actions(self) -> int:
        return self.theta.shape[1]

    def to_vector(self) -> np.ndarray:
        """Concatenated (theta, theta_v) view the engine optimises over."""
        return np.concatenate([self.theta.ravel(), self.theta_v])

    @classmethod
    def from_vector(
        cls, x, n_states: int, n_actions: int = N_ACTIONS
    ) -> "ActorCriticParams":
        x = np.asarray(x, dtype=np.float64)
        split = n_states * n_actions
        if x.shape != (split + n_states,):
            raise ConfigurationError(
                f"parameter vector has shape {x.shape}, expected "
                f"({split + n_states},)"
            )
        return cls(x[:split].reshape(n_states, n_actions), x[split:].copy())


def policy_probs(theta: np.ndarray, state: int) -> np.ndarray:
    logits = theta[state]
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def policy_matrix(theta: np.ndarray) -> np.ndarray:
    """Action probabilities for every state; rows sum to one."""
    z = theta - theta.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class Trajectory:
    """One rollout segment plus its bootstrap seed.

    bootstrap is 0 when the episode finished inside the segment and the
    critic's estimate of the stopping state otherwise.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    bootstrap: float
    reached_goal: bool

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.int64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        n = self.states.shape[0]
        if n == 0:
            raise ConfigurationError("trajectory must contain at least one step")
        if self.actions.shape != (n,) or self.rewards.shape != (n,):
            raise ConfigurationError("states, actions, rewards lengths differ")

    @property
    def length(self) -> int:
        return self.states.shape[0]


def _walk(uniforms, s, cdf, nxt, rew, goal):
    """(states, actions, rewards, end state, reached goal) of one segment
    from s: one action per uniform from the cumulative policy rows cdf,
    stopping at the goal or when the uniforms run out."""
    # cdf[s][-1] can fall a few ulps short of 1; clamp the overflow bin
    last = len(cdf[s]) - 1
    states, actions, rewards = [], [], []
    for u in uniforms:
        a = min(bisect_right(cdf[s], u), last)
        states.append(s)
        actions.append(a)
        rewards.append(rew[s][a])
        s = nxt[s][a]
        if s == goal:
            break
    return states, actions, rewards, s, s == goal


def _discount(rewards, bootstrap, gamma):
    """Backward recurrence R <- r + gamma * R seeded with the bootstrap."""
    out = [0.0] * len(rewards)
    acc = bootstrap
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


def _add_gradients(g_theta, g_v, states, actions, returns, probs, values):
    """Add each step's policy and value terms to the rows g_theta[s] and
    slots g_v[s], in step order; dense lists or visited-state dicts."""
    for s, a, ret in zip(states, actions, returns):
        adv = ret - values[s]
        row = g_theta[s]
        for j, p in enumerate(probs[s]):
            row[j] -= adv * p
        row[a] += adv
        g_v[s] -= 2.0 * adv


def rollout(
    env: ToyEnv, params: ActorCriticParams, t_max: int, rng
) -> Trajectory:
    """Sample up to t_max policy steps, advancing env in place.

    Actions are drawn from softmax(theta[state]) by inverse transform:
    each step takes exactly one rng.random() and finds it in the
    cumulative policy row of the current state, so a given rng stream
    fixes the whole segment. theta is fixed for the call, so the
    cumulative table is built once, from policy_matrix, not per step.
    """
    if t_max < 1:
        raise ConfigurationError(f"t_max must be >= 1, got {t_max}")
    if env.done:
        raise ConfigurationError("environment is finished; reset before rollout")
    if params.n_actions > N_ACTIONS:
        raise ConfigurationError(
            f"params have {params.n_actions} actions, the env {N_ACTIONS}")
    cdf = np.cumsum(policy_matrix(params.theta), axis=1).tolist()
    uniforms = (rng.random()
                for _ in range(min(t_max, env.t_max_episode - env.steps_taken)))
    states, actions, rewards, _, _ = _walk(
        uniforms, env.state, cdf, env.next_state_table, env.reward_table,
        env.goal_index)
    for a in actions:
        env.step(a)
    bootstrap = 0.0 if env.done else float(params.theta_v[env.state])
    return Trajectory(
        np.array(states), np.array(actions), np.array(rewards),
        bootstrap, env.reached_goal,
    )


def kstep_returns(traj: Trajectory, gamma_rl: float) -> np.ndarray:
    """Backward recurrence R <- r + gamma * R seeded with the bootstrap."""
    return np.array(_discount(traj.rewards.tolist(), traj.bootstrap, gamma_rl))


def ac_gradients(
    traj: Trajectory, returns: np.ndarray, params: ActorCriticParams
) -> tuple[np.ndarray, np.ndarray]:
    """Policy-ascent and value-error gradients for one segment.

    grad_theta  = sum_i grad log pi(a_i|s_i) * (R_i - V(s_i)), the
                  advantage held constant in the policy term;
    grad_v      = sum_i d(R_i - V(s_i))^2 / d theta_v = -2 (R_i - V) at
                  each visited state's slot.

    Steps are added in order on Python floats, with the policy table
    built once per call.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.shape != (traj.length,):
        raise ConfigurationError(
            f"returns shape {returns.shape} does not match trajectory "
            f"length {traj.length}"
        )
    g_theta, g_v = np.zeros_like(params.theta).tolist(), [0.0] * params.n_states
    _add_gradients(g_theta, g_v, traj.states.tolist(), traj.actions.tolist(),
                   returns.tolist(), policy_matrix(params.theta).tolist(),
                   params.theta_v.tolist())
    return np.array(g_theta), np.array(g_v)
