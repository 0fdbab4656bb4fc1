"""Deterministic gridworld and its exact dynamic-programming baselines."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

# action index -> (row delta, col delta); bumping a wall keeps the cell
MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))
N_ACTIONS = len(MOVES)


@dataclass
class ToyEnv:
    """Square grid with a single absorbing goal.

    Every move costs step_reward except the one entering the goal, which
    earns goal_reward instead. An episode ends at the goal or after
    t_max_episode moves, whichever comes first. Transitions are
    deterministic; all randomness lives in the agent's action sampling.
    """

    side: int = 5
    start: tuple[int, int] = (0, 0)
    goal: tuple[int, int] | None = None
    step_reward: float = -0.01
    goal_reward: float = 1.0
    gamma_rl: float = 0.99
    t_max_episode: int = 100

    def __post_init__(self):
        if self.goal is None:
            self.goal = (self.side - 1, self.side - 1)
        self.validate()
        # the dynamics as lookups: step and GridworldOracle's episode
        # loop read these lists; cells are row-major state indices
        nxt, rew = transition_tables(self)
        self.next_state_table: list[list[int]] = nxt.tolist()
        self.reward_table: list[list[float]] = rew.tolist()
        self.start_index = self.index_of(self.start)
        self.goal_index = self.index_of(self.goal)
        self.reset()

    def validate(self) -> None:
        if self.side < 2:
            raise ConfigurationError(f"side must be >= 2, got {self.side}")
        for name, cell in (("start", self.start), ("goal", self.goal)):
            r, c = cell
            if not (0 <= r < self.side and 0 <= c < self.side):
                raise ConfigurationError(f"{name} cell {cell} is off the grid")
        if tuple(self.start) == tuple(self.goal):
            raise ConfigurationError("start and goal must differ")
        if not 0.0 < self.gamma_rl < 1.0:
            raise ConfigurationError(
                f"gamma_rl must lie in (0, 1), got {self.gamma_rl}"
            )
        if self.t_max_episode < 1:
            raise ConfigurationError(
                f"t_max_episode must be >= 1, got {self.t_max_episode}"
            )

    @property
    def n_states(self) -> int:
        return self.side * self.side

    def index_of(self, cell: tuple[int, int]) -> int:
        return cell[0] * self.side + cell[1]

    @property
    def state(self) -> int:
        return self._state

    @property
    def done(self) -> bool:
        return self._done

    @property
    def reached_goal(self) -> bool:
        return self._reached_goal

    @property
    def steps_taken(self) -> int:
        return self._steps

    def reset(self) -> int:
        self._state = self.start_index
        self._steps = 0
        self._done = False
        self._reached_goal = False
        return self.state

    def step(self, action: int) -> tuple[int, float, bool]:
        if self._done:
            raise ConfigurationError("episode is over; reset the environment")
        if not 0 <= action < N_ACTIONS:
            raise ConfigurationError(f"action must be in [0, {N_ACTIONS})")
        s = self._state
        self._state = self.next_state_table[s][action]
        self._steps += 1
        if self._state == self.goal_index:
            self._reached_goal = True
            self._done = True
        else:
            self._done = self._steps >= self.t_max_episode
        return self._state, self.reward_table[s][action], self._done


def transition_tables(env: ToyEnv) -> tuple[np.ndarray, np.ndarray]:
    """(next_state, reward) tables of shape (n_states, N_ACTIONS)."""
    nxt = np.empty((env.n_states, N_ACTIONS), dtype=np.int64)
    rew = np.empty((env.n_states, N_ACTIONS), dtype=float)
    goal = env.index_of(tuple(env.goal))
    for s in range(env.n_states):
        r, c = divmod(s, env.side)
        for a, (dr, dc) in enumerate(MOVES):
            nr = min(max(r + dr, 0), env.side - 1)
            nc = min(max(c + dc, 0), env.side - 1)
            s2 = nr * env.side + nc
            nxt[s, a] = s2
            rew[s, a] = env.goal_reward if s2 == goal else env.step_reward
    return nxt, rew


def optimal_return(env: ToyEnv) -> float:
    """Best achievable undiscounted episode return from the start cell.

    Finite-horizon value iteration over t_max_episode moves with the goal
    absorbing; exact because transitions are deterministic.
    """
    nxt, rew = transition_tables(env)
    goal = env.goal_index
    v = np.zeros(env.n_states)
    for _ in range(env.t_max_episode):
        cont = v[nxt]
        cont[nxt == goal] = 0.0
        v_new = (rew + cont).max(axis=1)
        v_new[goal] = 0.0
        v = v_new
    return float(v[env.start_index])


def uniform_policy_return(env: ToyEnv) -> float:
    """Exact expected undiscounted episode return of the uniform policy.

    Propagates the state distribution forward move by move, removing the
    probability mass that gets absorbed at the goal.
    """
    nxt, rew = transition_tables(env)
    goal = env.goal_index
    mean_reward = rew.mean(axis=1)
    d = np.zeros(env.n_states)
    d[env.start_index] = 1.0
    total = 0.0
    for _ in range(env.t_max_episode):
        total += float(d @ mean_reward)
        d_next = np.zeros(env.n_states)
        for a in range(N_ACTIONS):
            np.add.at(d_next, nxt[:, a], d / N_ACTIONS)
        d_next[goal] = 0.0
        d = d_next
    return total
