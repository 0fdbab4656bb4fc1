"""Deterministic virtual-time engine.

A single-threaded event scheduler plays out the asynchronous protocol:
worker passes and push transits consume virtual time drawn from seeded
streams, the master combines batches first-come first-served, and every
tie is broken by a fixed (time, event kind, sequence) order. Two runs
with the same config are bit-identical.

Push deliveries sort ahead of model pulls at equal timestamps, so a
zero-latency zero-cost config executes in lock-step: every worker's pass
t is based on model version t. That is the degenerate synchronous case
the straight-line references reproduce.

A pass's delta depends only on (worker, pass index, base model), and no
event time depends on a delta. So a pull only schedules its pass: the
delta is computed later, at the top of the apply that leaves the pass's
base version, by which point every pass with that base has been pulled.
All of them are computed there as one group, by one stepper that makes
one stacked gradient call per local step for the whole group. An oracle
without grad_stack is stepped through a one-row adapter over grad_at, as
groups of one in pull order. The arithmetic per pass is the same either
way, so runs are bit-identical to computing each pass at its pull.

The master's bookkeeping (drop policy, applies, counters, staleness
histograms, metrics) is master.Master, the same one the threaded and TCP
runtimes drive; this module adds the event heap, the deferred passes and
the block policy's gate, which only the simulator offers. pass_delays is
the delay sampler of every runtime.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ..core import UpdateVector, check_finite
from ..errors import ConfigurationError, TransportError
from .config import RunConfig
from .master import Master
from .result import RunResult
from .rng import pass_indices, pass_uniforms

_DELIVER = 0
_PULL = 1


@dataclass(eq=False)
class _Push:
    worker_id: int
    base_version: int
    pass_idx: int
    delta: np.ndarray | None = None  # set at the apply leaving base_version


def _stacked_deltas(cfg: RunConfig, grad_stack, n: int, group: list[_Push],
                    v: np.ndarray) -> np.ndarray | None:
    """The K passes of group, all based on v, stepped together.

    Local threads are unrolled thread-major, one valid lock-free execution
    (every store survives). Thread h's B steps take their indices from one
    pass_indices draw on its own stream, substream(seed, ROLE_SAMPLE, w, h,
    pass_idx), so the schedule does not change what is sampled.
    grad_stack(idx, X) returns one gradient row per row of X. A non-finite
    gradient raises at once in a group of one; a larger group returns None,
    and the caller reruns it as groups of one.
    """
    size = cfg.problem.batch_size
    seed, count = cfg.seed, cfg.B * size
    idx = np.stack([
        pass_indices(seed, push.worker_id, h, push.pass_idx, n, count)
        for push in group
        for h in range(cfg.p)
    ]).reshape(len(group), cfg.p, cfg.B, size)
    U = np.repeat(v[None, :], len(group), axis=0)
    for h in range(cfg.p):
        for b in range(cfg.B):
            G = grad_stack(idx[:, h, b], U)
            if not np.isfinite(G).all():
                if len(group) == 1:
                    check_finite(G[0], "local gradient")
                return None
            U -= cfg.eta * G
    return U - v


def _compute_group(cfg: RunConfig, oracle, group: list[_Push],
                   v: np.ndarray) -> None:
    """Set the delta of every pass in group, all based on model v."""
    grad_stack = getattr(oracle, "grad_stack", None)
    deltas = None
    if grad_stack is None:
        def grad_stack(idx, X):
            return np.asarray(oracle.grad_at(idx[0], X[0]), dtype=float)[None, :]
    else:
        deltas = _stacked_deltas(cfg, grad_stack, oracle.n, group, v)
    if deltas is None:
        # groups of one in pull order, as computing each pass at its pull
        # would call the oracle (stateful oracles, such as gridworld's
        # episode log, see the same call sequence)
        deltas = [_stacked_deltas(cfg, grad_stack, oracle.n, [push], v)[0]
                  for push in group]
    for push, delta in zip(group, deltas):
        push.delta = delta


def pass_delays(cfg: RunConfig, w: int, pass_idx: int) -> tuple[float, float]:
    """(extra pass seconds, push transit seconds) of worker w's pass pass_idx.

    The one delay sampler of every runtime. It scales the doubles of
    substream(seed, ROLE_DELAY, w, pass_idx) (pass_uniforms) as
    Generator.uniform would: the first to the transit, then, for
    "seeded-jitter" only, the second to the extra pass time.
    """
    kind = cfg.delay.kind
    if kind == "none":
        return 0.0, 0.0
    if kind == "fixed":
        return 0.0, cfg.delay.latency
    u_transit, u_extra = pass_uniforms(cfg.seed, w, pass_idx)
    # Generator.uniform(low, high) is low + (high - low) * u; for
    # uniform(0.0, jitter) that is jitter * u exactly
    transit = cfg.delay.low + (cfg.delay.high - cfg.delay.low) * u_transit
    if kind == "seeded-jitter":
        return cfg.delay.jitter * u_extra, transit
    return 0.0, transit


def run_simulated(cfg: RunConfig, oracle, init) -> RunResult:
    cfg.check_runtime("simulated")
    v = np.array(init, dtype=float)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ConfigurationError("initial model must be a non-empty vector")
    master = Master(cfg, oracle, v)
    counters = master.counters

    block = cfg.delay.enforce == "block"
    bound = cfg.delay.d_prime_bound
    base_dur = cfg.B * cfg.compute_cost_s  # p threads overlap
    evals_per_pass = cfg.Btilde
    pending: list[_Push] = []  # delivered and kept, not yet applied
    deferred: list[_Push] = []  # pulled passes, all based on master.version
    # block: the base of worker w's one unapplied push, None when it has none
    unapplied: list[int | None] = [None] * cfg.nW
    pass_counter = [0] * cfg.nW

    events: list[tuple] = []
    seq = itertools.count()  # ties at equal (time, kind) go in scheduling order

    def schedule(at: float, kind: int, w: int, push: _Push | None = None) -> None:
        heapq.heappush(events, (at, kind, next(seq), w, push))

    for w in range(cfg.nW):
        schedule(0.0, _PULL, w)

    def gate_open(batch: list[_Push]) -> bool:
        # block policy: advancing to version+1 must leave every not-yet
        # applied push still able to meet the staleness bound later; when
        # it would not, the master waits for the straggler instead
        in_batch = {push.worker_id for push in batch}
        outside = [base for w, base in enumerate(unapplied)
                   if base is not None and w not in in_batch]
        return not outside or master.version + 1 - min(outside) <= bound

    def compute_deferred() -> None:
        if deferred:
            _compute_group(cfg, oracle, deferred, master.model.values)
            deferred.clear()

    def apply_ready(now: float) -> None:
        # first come first served; block takes the M oldest bases instead,
        # and only once the gate lets the version advance
        while master.version < cfg.T and len(pending) >= cfg.M:
            if block:
                batch = sorted(pending, key=lambda q: (q.base_version,
                                                       q.worker_id))[: cfg.M]
                if not gate_open(batch):
                    return
                if max(master.version - q.base_version for q in batch) > bound:
                    raise TransportError("staleness gate invariant broken: "
                                         "batch member exceeds bound")
                for push in batch:
                    pending.remove(push)
            else:
                batch = pending[: cfg.M]
                del pending[: cfg.M]
            compute_deferred()  # the last moment the model is their base
            master.apply([UpdateVector._adopt(push.delta, push.base_version,
                                              push.worker_id)
                          for push in batch], now)
            if block:
                for push in batch:
                    unapplied[push.worker_id] = None
                    # the worker was waiting for this apply; it resumes now
                    schedule(now, _PULL, push.worker_id)

    while events and master.version < cfg.T:
        now, kind, _, w, push = heapq.heappop(events)
        if kind == _DELIVER:
            if master.receive(push.base_version, w):
                pending.append(push)
                if len(pending) >= cfg.M:
                    apply_ready(now)
        else:
            # serve a model pull and schedule the pass; its delta waits
            # for the apply that leaves this version
            counters.pulls_served += 1
            pass_idx = pass_counter[w]
            pass_counter[w] += 1
            counters.gradient_evals_computed += evals_per_pass
            push = _Push(w, master.version, pass_idx)
            if block:
                unapplied[w] = push.base_version
            deferred.append(push)
            extra, transit = pass_delays(cfg, w, pass_idx)
            dur = base_dur + extra
            schedule(now + dur + transit, _DELIVER, w, push)
            if not block:
                schedule(now + dur, _PULL, w)

    if master.version < cfg.T:
        compute_deferred()  # a failing pass raises its own error first
        raise TransportError(
            f"simulation starved at version {master.version} of {cfg.T}; "
            "the staleness gate or worker pool cannot make progress"
        )
    return master.result("simulated",
                         float(master.metrics.column("wall_clock_s")[-1]))
