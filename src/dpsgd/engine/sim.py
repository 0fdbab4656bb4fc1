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
event time depends on a delta. So a pull only schedules its pass and
keeps its base model (models are immutable): the delta is computed
later, when an apply first takes a batch that holds the pass. Every
pulled pass's base model is known by then, so all passes not yet
computed are computed there, across base versions, as one stack in pull
order: one stepper makes one stacked gradient call per local step for
the whole stack, each row stepped from its own base. On a built-in
oracle the stepper checks the stack's whole index block once, as
grad_stack would check every call, and then calls the oracle's unchecked
kernel once per step; the public grad_at and grad_stack keep every
check. An oracle without grad_stack is stepped through a one-row adapter
over grad_at, as stacks of one in pull order. The arithmetic per pass is
the same either way, so runs are bit-identical to computing each pass at
its pull. Before any error leaves the event loop, and at the end of
every run, the passes not yet computed are computed, so every pass based
on a version below T is computed and a failing pass raises its own error
first. The master applies the simulator's pushes as they are, with no
UpdateVector wrapped around each.

The master's bookkeeping (drop policy, applies, counters, staleness
histograms, metrics) is master.Master, the same one the threaded and TCP
runtimes drive; this module adds the event heap, the deferred passes and
the block policy's gate, which only the simulator offers. pass_delays is
the delay sampler of every runtime.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from ..core import check_finite
from ..errors import ConfigurationError, TransportError
from ..problems import _check_block
from .config import RunConfig
from .master import Master
from .result import RunResult
from .rng import pass_indices, pass_uniforms

_DELIVER = 0
_PULL = 1


@dataclass(eq=False, slots=True)
class _Push:
    """A pulled pass; Master.apply takes it as the pass's update."""

    worker_id: int
    base_version: int
    pass_idx: int
    base: np.ndarray  # the model of base_version
    delta: np.ndarray | None = None  # set when an apply first takes it


class _Stepper:
    """Computes the deltas of a run's pulled passes on one oracle.

    deferred holds the pulled passes not yet computed, in pull order;
    compute() steps them all as one stack, each from its own base, and
    empties it. step(idx, X) returns one gradient row per row of X. It
    is a built-in oracle's unchecked kernel _grad_stack, whose grad_stack
    checks every call: the stepper checks each stack's whole index block
    once instead (check_dim is the oracle's dim). Another oracle's
    grad_stack makes its own checks. An oracle without grad_stack is
    stepped through a one-row adapter over grad_at, as stacks of one in
    pull order, as computing each pass at its pull would call it
    (stateful oracles, such as gridworld's episode log, see the same call
    sequence).
    """

    def __init__(self, cfg: RunConfig, oracle):
        self.p, self.B, self.size = cfg.p, cfg.B, cfg.problem.batch_size
        self.seed, self.eta, self.n = cfg.seed, cfg.eta, oracle.n
        self.deferred: list[_Push] = []
        self.check_dim = None
        step = getattr(oracle, "grad_stack", None)
        self.stacks = step is not None
        if step is None:
            def step(idx, X):
                return np.asarray(oracle.grad_at(idx[0], X[0]),
                                  dtype=float)[None, :]
        elif hasattr(oracle, "_grad_stack"):
            step, self.check_dim = oracle._grad_stack, oracle.dim
        self.step = step

    def compute(self) -> None:
        """Set the delta of every deferred pass, and empty deferred.

        deferred is emptied first, so a pass whose error leaves here is
        never computed again. numpy's invalid-value and overflow warnings
        are silenced: the finite checks of deltas() raise on what they
        would warn about.
        """
        group, self.deferred = self.deferred, []
        if not group:
            return
        with np.errstate(invalid="ignore", over="ignore"):
            deltas = self.deltas(group) if self.stacks else None
            if deltas is None:
                deltas = [self.deltas([push], each_step=True)[0]
                          for push in group]
        for push, delta in zip(group, deltas):
            push.delta = delta

    def deltas(self, group: list[_Push],
               each_step: bool = False) -> np.ndarray | None:
        """The K passes of group stepped together, each from its own base.

        Local threads are unrolled thread-major, one valid lock-free
        execution (every store survives). Thread h's B steps take their
        indices from one pass_indices draw on its own stream,
        substream(seed, ROLE_SAMPLE, w, h, pass_idx), so the schedule does
        not change what is sampled. The group's draws form one
        (K, p * B * size) block, and its bases one (K, dim) matrix V.

        Without each_step, a non-finite value in the stepped rows returns
        None, and the caller reruns the group as groups of one with
        each_step, in which a non-finite gradient raises at once: the
        error of computing each pass alone. A non-finite row means a
        non-finite gradient or an overflow; either way the rows are
        computed as they are alone, so a rerun group of one that raises
        nothing returns the same delta.
        """
        K, p, B, size, seed, n = (len(group), self.p, self.B, self.size,
                                  self.seed, self.n)
        draws, bases = [], []
        for push in group:
            bases.append(push.base)
            for h in range(p):
                draws.append(pass_indices(seed, push.worker_id, h,
                                          push.pass_idx, n, B * size))
        block = np.concatenate(draws).reshape(K, -1)
        V = np.array(bases)
        U = V.copy()
        if self.check_dim is not None:
            _check_block(block, U, n, self.check_dim)
        step, eta = self.step, self.eta
        # local step h * B + b takes column block h * B + b of every draw
        for idx in block.reshape(K, p * B, size).transpose(1, 0, 2):
            G = step(idx, U)
            if each_step and not np.isfinite(G).all():
                check_finite(G[0], "local gradient")
            U -= eta * G
        if not (each_step or np.isfinite(U).all()):
            return None
        U -= V
        return U


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
    stepper = _Stepper(cfg, oracle)

    T, M, bound = cfg.T, cfg.M, cfg.delay.d_prime_bound
    block = cfg.delay.enforce == "block"
    base_dur = cfg.B * cfg.compute_cost_s  # p threads overlap
    evals_per_pass = cfg.Btilde
    pending: list[_Push] = []  # delivered and kept, not yet applied
    # block: the base of worker w's one unapplied push, None when it has none
    unapplied: list[int | None] = [None] * cfg.nW
    pass_counter = [0] * cfg.nW

    # (time, kind, seq, worker, push): ties at equal (time, kind) go in
    # scheduling order
    seq = itertools.count()
    events: list[tuple] = [(0.0, _PULL, next(seq), w, None)
                           for w in range(cfg.nW)]

    def gate_open(batch: list[_Push]) -> bool:
        # block policy: advancing to version+1 must leave every not-yet
        # applied push still able to meet the staleness bound later; when
        # it would not, the master waits for the straggler instead
        in_batch = {push.worker_id for push in batch}
        outside = [base for w, base in enumerate(unapplied)
                   if base is not None and w not in in_batch]
        return not outside or master.version + 1 - min(outside) <= bound

    try:
        while events and master.version < T:
            now, kind, _, w, push = heappop(events)
            if kind == _PULL:
                # serve a model pull and schedule the pass; its delta waits
                # for the first apply that takes it
                counters.pulls_served += 1
                pass_idx = pass_counter[w]
                pass_counter[w] += 1
                counters.gradient_evals_computed += evals_per_pass
                push = _Push(w, master.version, pass_idx, master.model.values)
                if block:
                    unapplied[w] = push.base_version
                stepper.deferred.append(push)
                extra, transit = pass_delays(cfg, w, pass_idx)
                dur = base_dur + extra
                heappush(events, (now + dur + transit, _DELIVER, next(seq),
                                  w, push))
                if not block:
                    heappush(events, (now + dur, _PULL, next(seq), w, None))
                continue
            if not master.receive(push.base_version, w):
                continue
            pending.append(push)
            # first come first served; block takes the M oldest bases
            # instead, and only once the gate lets the version advance
            while master.version < T and len(pending) >= M:
                if block:
                    batch = sorted(pending, key=lambda q: (q.base_version,
                                                           q.worker_id))[:M]
                    if not gate_open(batch):
                        break
                    if max(master.version - q.base_version
                           for q in batch) > bound:
                        raise TransportError("staleness gate invariant "
                                             "broken: batch member exceeds "
                                             "bound")
                    for push in batch:
                        pending.remove(push)
                else:
                    batch = pending[:M]
                    del pending[:M]
                for push in batch:
                    if push.delta is None:  # the first apply to take it
                        stepper.compute()
                        break
                master.apply(batch, now)
                if block:
                    for push in batch:
                        unapplied[push.worker_id] = None
                        # the worker was waiting for this apply; it
                        # resumes now
                        heappush(events, (now, _PULL, next(seq),
                                          push.worker_id, None))
    except Exception:
        stepper.compute()  # a failing pass raises its own error first
        raise
    # every pass pulled, all based on versions below T, is computed
    stepper.compute()
    if master.version < T:
        raise TransportError(
            f"simulation starved at version {master.version} of {T}; "
            "the staleness gate or worker pool cannot make progress"
        )
    return master.result("simulated",
                         float(master.metrics.column("wall_clock_s")[-1]))
