"""The public rollout's call budget and its check on the action count."""
from collections import Counter

import numpy as np
import pytest

import dpsgd.hsa2c.agent as agent
from dpsgd.engine.rng import ROLE_ENV, substream
from dpsgd.errors import ConfigurationError
from dpsgd.hsa2c import ActorCriticParams, ToyEnv, policy_matrix, rollout


class RecordingStream:
    """A substream that records the arguments of each random() call."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def random(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return self.rng.random(*args, **kwargs)


def test_rollout_segment_call_budget(monkeypatch):
    # counts only, never time; recorded on Python 3.11.7, numpy 2.4.6.
    # A 20-move cap at t_max=7 ends an episode's third segment one step
    # short of t_max
    t_max = 7
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(agent, "policy_matrix",
                        counted("policy_matrix", policy_matrix))
    monkeypatch.setattr(ToyEnv, "step", counted("step", ToyEnv.step))
    rng = np.random.default_rng(4)
    params = ActorCriticParams(0.3 * rng.normal(size=(9, 4)),
                               rng.normal(size=9))
    ends = Counter()
    for seed in range(20):
        env = ToyEnv(side=3, t_max_episode=20)
        stream = RecordingStream(substream(seed, ROLE_ENV, 0))
        while not env.done:
            counts.clear()
            stream.calls.clear()
            traj = rollout(env, params, t_max, stream)
            assert counts["policy_matrix"] == 1
            assert stream.calls == [((), {})] * traj.length
            assert counts["step"] == traj.length
            if traj.length == t_max:
                ends["t_max"] += 1
            else:
                ends["goal" if traj.reached_goal else "cap"] += 1
    # segments end when the uniforms run out, at the goal and at the cap
    assert ends["t_max"] and ends["goal"] and ends["cap"]


def test_rollout_rejects_more_actions_than_the_env():
    params = ActorCriticParams(np.zeros((25, 5)), np.zeros(25))
    with pytest.raises(ConfigurationError, match="5 actions"):
        rollout(ToyEnv(), params, 20, np.random.default_rng(0))
