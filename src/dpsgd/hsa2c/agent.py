"""Softmax-linear policy, linear value function, and their gradients.

One-hot cell features make both models tables: the policy logits for
state s are theta[s] and the value estimate is theta_v[s]. Gradients
below are ascent directions for the policy objective and the raw
derivative of the squared error for the critic; the engine-facing
runner negates the policy block so a descent step ascends the reward.
"""
from __future__ import annotations

import bisect
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
    cdf = np.cumsum(policy_matrix(params.theta), axis=1).tolist()
    # cdf[-1] can fall a few ulps short of 1; clamp the overflow bin
    last = params.n_actions - 1
    states, actions, rewards = [], [], []
    for _ in range(t_max):
        s = env.state
        a = min(bisect.bisect_right(cdf[s], rng.random()), last)
        _, r, done = env.step(a)
        states.append(s)
        actions.append(a)
        rewards.append(r)
        if done:
            break
    bootstrap = 0.0 if env.done else float(params.theta_v[env.state])
    return Trajectory(
        np.array(states), np.array(actions), np.array(rewards),
        bootstrap, env.reached_goal,
    )


def kstep_returns(traj: Trajectory, gamma_rl: float) -> np.ndarray:
    """Backward recurrence R <- r + gamma * R seeded with the bootstrap."""
    out = [0.0] * traj.length
    acc = traj.bootstrap
    rewards = traj.rewards.tolist()
    for i in range(traj.length - 1, -1, -1):
        acc = rewards[i] + gamma_rl * acc
        out[i] = acc
    return np.array(out)


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
    probs = policy_matrix(params.theta).tolist()
    values = params.theta_v.tolist()
    g_theta = np.zeros_like(params.theta).tolist()
    g_v = [0.0] * params.n_states
    for s, a, ret in zip(traj.states.tolist(), traj.actions.tolist(),
                         returns.tolist()):
        adv = ret - values[s]
        row = g_theta[s]
        for j, p in enumerate(probs[s]):
            row[j] -= adv * p
        row[a] += adv
        g_v[s] -= 2.0 * adv
    return np.array(g_theta), np.array(g_v)
