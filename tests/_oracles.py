"""Independent numeric oracles and reference loops used by the test suite.

The numeric oracles are written against textbook definitions, not
against the package code, so agreement is evidence rather than
tautology. The reference loops are the plain per-step or per-segment
forms of package functions that were later optimised; the optimised
forms must match them bit for bit.
"""
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from dpsgd.core import check_finite
from dpsgd.hsa2c import (
    Trajectory,
    ac_gradients,
    kstep_returns,
    policy_probs,
    rollout,
)
from dpsgd.svi_lda import Corpus, Document
from dpsgd.svi_lda.corpus import BACKGROUND_MASS, TOPIC_CONCENTRATION

_SHIFT_TO = 30.0  # recurrence shift target before applying the series
_N_SERIES_TERMS = 25  # B_2 .. B_50: a 50th-order asymptotic tail


def _bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0 .. B_n_max (B_1 = -1/2 convention) by the defining recurrence."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * out[k]
        out.append(-acc / (n + 1))
    return out


_BERN = _bernoulli_numbers(2 * _N_SERIES_TERMS)


def digamma_series(x: float) -> float:
    """Digamma via recurrence shift plus the asymptotic series.

    psi(x) = psi(x + m) - sum_{j<m} 1/(x + j), and for large y
    psi(y) = ln y - 1/(2y) - sum_k B_{2k} / (2k y^{2k}).
    """
    if x <= 0:
        raise ValueError("positive arguments only")
    shift = 0.0
    y = x
    while y < _SHIFT_TO:
        shift += 1.0 / y
        y += 1.0
    acc = math.log(y) - 0.5 / y
    y2 = y * y
    power = y2
    for k in range(1, _N_SERIES_TERMS + 1):
        acc -= float(_BERN[2 * k]) / (2 * k * power)
        power *= y2
    return acc - shift


def dirichlet_expectation_series(param) -> np.ndarray:
    arr = np.asarray(param, dtype=float)
    total = digamma_series(float(arr.sum()))
    return np.array([digamma_series(float(v)) for v in arr]) - total


# --- per-step actor-critic references ---
# These recompute the state's softmax row at every step, where the
# package builds the policy table once per call.


def rollout_per_step(env, params, t_max, rng):
    states, actions, rewards = [], [], []
    for _ in range(t_max):
        s = env.state
        cdf = np.cumsum(policy_probs(params.theta, s))
        a = min(int(np.searchsorted(cdf, rng.random(), side="right")),
                params.n_actions - 1)
        _, r, done = env.step(a)
        states.append(s)
        actions.append(a)
        rewards.append(r)
        if done:
            break
    bootstrap = 0.0 if env.done else float(params.theta_v[env.state])
    return Trajectory(np.array(states), np.array(actions), np.array(rewards),
                      bootstrap, env.reached_goal)


def kstep_returns_per_step(traj, gamma_rl):
    out = np.empty(traj.length)
    acc = traj.bootstrap
    for i in range(traj.length - 1, -1, -1):
        acc = traj.rewards[i] + gamma_rl * acc
        out[i] = acc
    return out


def ac_gradients_per_step(traj, returns, params):
    g_theta = np.zeros_like(params.theta)
    g_v = np.zeros_like(params.theta_v)
    for i in range(traj.length):
        s = int(traj.states[i])
        a = int(traj.actions[i])
        adv = returns[i] - params.theta_v[s]
        g_theta[s] -= adv * policy_probs(params.theta, s)
        g_theta[s, a] += adv
        g_v[s] -= 2.0 * adv
    return g_theta, g_v


def episode_by_segments(env, params, t_max, rng):
    """One episode as rollout, kstep_returns and ac_gradients per segment.

    Returns (g_theta, g_v, steps, total reward): each segment's gradients
    are added to the episode's in numpy, and its reward total is numpy's
    sum of the segment's rewards. GridworldOracle's table-driven episode
    must match it bit for bit.
    """
    env = replace(env)
    g_theta = np.zeros_like(params.theta)
    g_v = np.zeros_like(params.theta_v)
    total_reward = 0.0
    while not env.done:
        traj = rollout(env, params, t_max, rng)
        returns = kstep_returns(traj, env.gamma_rl)
        gt, gv = ac_gradients(traj, returns, params)
        g_theta += gt
        g_v += gv
        total_reward += float(traj.rewards.sum())
    return g_theta, g_v, env.steps_taken, total_reward


# --- synthetic corpus reference ---


def synthetic_corpus_reference(n_docs, vocab_size, k_topics, seed,
                               doc_length=(40, 80)):
    """synthetic_corpus as one Generator.choice call per token draw.

    Per document: the topics in one choice over theta, then each topic's
    words in one choice over its row, in k order. synthetic_corpus must
    match it bit for bit.
    """
    rng = np.random.default_rng(seed)
    topics = np.full((k_topics, vocab_size), BACKGROUND_MASS / vocab_size)
    block = vocab_size // k_topics
    for k in range(k_topics):
        lo = k * block
        hi = vocab_size if k == k_topics - 1 else (k + 1) * block
        weights = rng.random(hi - lo) + 0.5
        weights /= weights.sum()
        topics[k, lo:hi] += (1.0 - BACKGROUND_MASS) * weights
    topics /= topics.sum(axis=1, keepdims=True)

    docs = []
    lo_len, hi_len = doc_length
    for _ in range(n_docs):
        theta = rng.dirichlet(np.full(k_topics, TOPIC_CONCENTRATION))
        n_tokens = int(rng.integers(lo_len, hi_len + 1))
        z = rng.choice(k_topics, size=n_tokens, p=theta)
        counts = np.zeros(vocab_size, dtype=np.int64)
        for k in range(k_topics):
            m = int((z == k).sum())
            if m:
                words = rng.choice(vocab_size, size=m, p=topics[k])
                np.add.at(counts, words, 1)
        ids = np.nonzero(counts)[0]
        docs.append(Document(ids.astype(np.int64), counts[ids]))
    vocab = [f"w{i}" for i in range(vocab_size)]
    return Corpus(docs=docs, vocab=vocab), topics


# --- pre-fusion engine arithmetic ---


def sigmoid_coeff_reference(labels, margins):
    """SigmoidOracle's per-row slope as first written: it negates
    z = y a.x, where the oracle now multiplies by the stored -y."""
    z = labels * margins
    s = 1.0 / (1.0 + np.exp(-z))
    return -labels * s * (1.0 - s)


def apply_global_update_reference(v, updates, rho):
    """apply_global_update's values as first written: a fresh sum of the
    deltas from +0.0, then v + rho * sum into a new array, checked."""
    total = np.zeros(v.dim)
    for upd in updates:
        total += upd.delta
    out = v.values + rho * total
    check_finite(out, "global model after update")
    return out


def same_bits(a, b) -> bool:
    """Equal values with equal signs of zero; NaNs match any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    if not np.array_equal(a, b, equal_nan=True):
        return False
    seen = ~np.isnan(a)
    return np.array_equal(np.signbit(a[seen]), np.signbit(b[seen]))
