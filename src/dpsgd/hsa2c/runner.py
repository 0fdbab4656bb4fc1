"""Engine integration: rollout gradients behind the oracle surface.

The engine samples component indices; here an index is the seed of one
whole episode, so a gradient evaluation is a pure function of the index
and the parameter vector. Inside an episode the agent interacts in
segments of at most t_max steps, bootstrapping the critic's estimate at
non-terminal segment ends, and the per-segment gradients accumulate
into one update. Mini-batch size m (the engine's batch_size) counts
episodes per local update; B local updates make one pushed vector.

An episode is segment after segment of the agent module's helpers, the
ones rollout, kstep_returns and ac_gradients wrap, over lookup tables:
the policy, cumulative policy and value tables are built once per
grad_at call, and the transition and reward tables belong to the ToyEnv,
which is never stepped. Each segment's gradient is summed from zeros
before it joins the episode's, and each segment takes its uniforms in
one rng.random(k) call, which yields the doubles of k scalar calls in
order; only the last segment of an episode can draw more than it uses.
"""
from __future__ import annotations

import threading
import time
from dataclasses import asdict

import numpy as np

from ..engine import ProblemSpec, RunConfig, RunResult, run_with_oracle
from ..engine.rng import ROLE_ENV, pass_indices, substream
from ..errors import ConfigurationError
from ..problems import _check_index
from .agent import (ActorCriticParams, _add_gradients, _discount, _walk,
                    policy_matrix)
from .env import N_ACTIONS, ToyEnv

# virtual pool of episode seeds the engine samples indices from
INDEX_POOL = 2**31 - 1

RETURN_WINDOW = 100


class GridworldOracle:
    """Gradient oracle whose components are seeded gridworld episodes."""

    name = "gridworld-a2c"

    def __init__(self, env: ToyEnv, seed: int, t_max: int = 20):
        if t_max < 1:
            raise ConfigurationError(f"t_max must be >= 1, got {t_max}")
        self.env = env
        self.seed = seed
        self.t_max = t_max
        self.n = INDEX_POOL
        self.split = env.n_states * N_ACTIONS
        self.dim = self.split + env.n_states
        self.env_steps = 0
        self.episode_returns: list[float] = []
        self._log: list[tuple[float, int]] = []  # (time, env_steps) per episode
        self._lock = threading.Lock()
        self._start = time.monotonic()

    def _episode(self, rng, cdf, probs, values):
        """(g_theta rows, g_v, steps, return) of one episode drawn from rng.

        cdf, probs and values are the cumulative policy, policy and value
        tables as nested lists.
        """
        env = self.env
        nxt, rew = env.next_state_table, env.reward_table
        goal, cap, gamma = env.goal_index, env.t_max_episode, env.gamma_rl
        g_theta = [[0.0] * N_ACTIONS for _ in range(env.n_states)]
        g_v = [0.0] * env.n_states
        s, steps, done, total_reward = env.start_index, 0, False, 0.0
        while not done:
            uniforms = rng.random(min(self.t_max, cap - steps)).tolist()
            states, actions, rewards, s, done = _walk(uniforms, s, cdf, nxt,
                                                      rew, goal)
            steps += len(states)
            done = done or steps >= cap
            returns = _discount(rewards, 0.0 if done else values[s], gamma)
            # only visited rows: adding a zero row is exact, as a sum
            # grown from +0.0 by adds and subtracts is never -0.0
            seg_v = dict.fromkeys(states, 0.0)
            seg_theta = {si: [0.0] * N_ACTIONS for si in seg_v}
            _add_gradients(seg_theta, seg_v, states, actions, returns, probs,
                           values)
            for si, row in seg_theta.items():
                ep_row = g_theta[si]
                for j, g in enumerate(row):
                    ep_row[j] += g
                g_v[si] += seg_v[si]
            total_reward += float(np.array(rewards).sum())
        return g_theta, g_v, steps, total_reward

    def grad_at(self, i, x) -> np.ndarray:
        idx = _check_index(i, self.n)
        params = ActorCriticParams.from_vector(
            x, self.env.n_states, N_ACTIONS
        )
        probs = policy_matrix(params.theta)
        tables = (np.cumsum(probs, axis=1).tolist(), probs.tolist(),
                  params.theta_v.tolist())
        out = np.zeros(self.dim)
        for index in idx:
            rng = substream(self.seed, ROLE_ENV, int(index))
            g_theta, g_v, steps, ret = self._episode(rng, *tables)
            out[: self.split] -= np.array(g_theta).ravel()
            out[self.split :] += np.array(g_v)
            with self._lock:
                self.env_steps += steps
                self.episode_returns.append(ret)
                self._log.append((time.monotonic() - self._start,
                                  self.env_steps))
        return out

    @property
    def history(self) -> list[tuple[float, int, float]]:
        """(seconds, env steps so far, mean of the last RETURN_WINDOW
        returns) after each episode, the mean taken as it is read."""
        returns = self.episode_returns
        return [(t, steps, float(np.mean(returns[max(0, k - RETURN_WINDOW):k])))
                for k, (t, steps) in enumerate(self._log, 1)]

    def mean_return_last(self, window: int = RETURN_WINDOW) -> float:
        tail = self.episode_returns[-window:]
        if not tail:
            return float("nan")
        return float(np.mean(tail))


def hsa2c_config(env: ToyEnv, *, m: int = 2, t_max: int = 20, **overrides) -> RunConfig:
    """Engine config for a gridworld run; its problem params are every
    ToyEnv field plus t_max, as `dpsgd rl` reads them.

    Defaults use a small asynchronous shape (two workers, two threads,
    two local updates, master batch two) with rates tame enough for the
    one-hot policy to converge well inside a 200k-step budget.
    """
    base = dict(
        T=300,
        M=2,
        nW=2,
        p=2,
        B=2,
        eta=0.1,
        rho_schedule={"kind": "constant", "value": 0.4},
        seed=0,
        problem=ProblemSpec(
            name="gridworld-a2c",
            n=INDEX_POOL,
            dim=env.n_states * (N_ACTIONS + 1),
            batch_size=m,
            params={**asdict(env), "t_max": t_max},
        ),
        execution="simulated",
        grad_norm_every=0,
    )
    base.update(overrides)
    cfg = RunConfig(**base)
    cfg.validate()
    return cfg


def run_hsa2c(
    cfg: RunConfig, env: ToyEnv, params0: ActorCriticParams | None = None
) -> tuple[ActorCriticParams, RunResult, GridworldOracle]:
    """Run the engine over the concatenated (theta, theta_v) vector."""
    if cfg.grad_norm_every:
        raise ConfigurationError(
            "rollout objectives have no full gradient; set grad_norm_every=0"
        )
    if params0 is None:
        params0 = ActorCriticParams.zeros(env.n_states)
    oracle = GridworldOracle(env, cfg.seed,
                             t_max=cfg.problem.params.get("t_max", 20))
    cfg.problem.check_shape(oracle.n, oracle.dim)
    result = run_with_oracle(cfg, oracle, init=params0.to_vector())
    params = ActorCriticParams.from_vector(
        result.final.values, env.n_states, N_ACTIONS
    )
    return params, result, oracle


def reference_a2c(
    env: ToyEnv,
    *,
    T: int,
    m: int,
    eta: float,
    rho,
    seed: int,
    t_max: int = 20,
) -> tuple[ActorCriticParams, GridworldOracle]:
    """Single-stream A2C from zero parameters, mirroring the degenerate
    engine configuration.

    Uses the same index substream, episode seeding, and floating-point
    update order as the engine with nW = p = B = M = 1, so results agree
    bitwise with run_hsa2c under that shape.
    """
    oracle = GridworldOracle(env, seed, t_max=t_max)
    v = ActorCriticParams.zeros(env.n_states).to_vector()
    for t in range(T):
        idx = pass_indices(seed, 0, 0, t, oracle.n, m)
        g = np.asarray(oracle.grad_at(idx, v), dtype=float)
        u = v.copy()
        u -= eta * g
        v = v + rho(t) * (u - v)
    return ActorCriticParams.from_vector(v, env.n_states, N_ACTIONS), oracle
