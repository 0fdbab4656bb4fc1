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
All of them are computed there as one group. When the oracle offers
grad_stack, the group steps together, one oracle call per local step for
the whole group; otherwise each pass runs on its own, in pull order. The
arithmetic per pass is the same either way, so runs are bit-identical to
computing each pass at its pull.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core import ParamVector, UpdateVector, apply_global_update, check_finite
from ..errors import ConfigurationError, TransportError
from .config import RunConfig
from .result import MetricsSeries, RunCounters, RunResult
from .rng import ROLE_DELAY, ROLE_SAMPLE, draw_pass_indices, substream

_DELIVER = 0
_PULL = 1


@dataclass(eq=False)
class _Push:
    worker_id: int
    base_version: int
    pass_idx: int
    delta: np.ndarray | None = None  # set at the apply leaving base_version


def _compute_pass(cfg: RunConfig, oracle, w: int, pass_idx: int,
                  v: np.ndarray) -> np.ndarray:
    """One worker pass's delta, local threads unrolled thread-major.

    Sequential unrolling is one valid lock-free execution (every store
    survives); thread h always consumes its own stream, so the schedule
    does not change what is sampled. Each thread draws the indices of
    its B steps in one call, equal to B draw_indices calls.
    """
    u = v.copy()
    size = cfg.problem.batch_size
    for h in range(cfg.p):
        rng = substream(cfg.seed, ROLE_SAMPLE, w, h, pass_idx)
        for idx in draw_pass_indices(rng, oracle.n, cfg.B, size):
            g = np.asarray(oracle.grad_at(idx, u), dtype=float)
            check_finite(g, "local gradient")
            u -= cfg.eta * g
    return u - v


def _stacked_deltas(cfg: RunConfig, oracle, group: list[_Push],
                    v: np.ndarray) -> np.ndarray | None:
    """The K passes of group, all based on v, stepped together.

    Row k is bitwise _compute_pass of pass k: the same streams and
    draws, and grad_stack row k equals grad_at on that row, taken in
    the same thread-major step order. None if a step's gradient is not
    finite, so the caller can replay the group pass by pass and raise
    the error of the first failing pass.
    """
    size = cfg.problem.batch_size
    idx = np.stack([
        substream(cfg.seed, ROLE_SAMPLE, push.worker_id, h,
                  push.pass_idx).integers(0, oracle.n, size=cfg.B * size)
        for push in group
        for h in range(cfg.p)
    ]).reshape(len(group), cfg.p, cfg.B, size)
    U = np.repeat(v[None, :], len(group), axis=0)
    for h in range(cfg.p):
        for b in range(cfg.B):
            G = oracle.grad_stack(idx[:, h, b], U)
            if not np.isfinite(G).all():
                return None
            U -= cfg.eta * G
    return U - v


def _compute_group(cfg: RunConfig, oracle, group: list[_Push],
                   v: np.ndarray) -> None:
    """Set the delta of every pass in group, all based on model v."""
    deltas = None
    if hasattr(oracle, "grad_stack"):
        deltas = _stacked_deltas(cfg, oracle, group, v)
    if deltas is None:
        # pull order, as computing each pass at its pull would call the
        # oracle (stateful oracles, such as gridworld's episode log, see
        # the same call sequence)
        deltas = [_compute_pass(cfg, oracle, push.worker_id, push.pass_idx, v)
                  for push in group]
    for push, delta in zip(group, deltas):
        push.delta = delta


def _pass_timing(cfg: RunConfig, w: int, pass_idx: int) -> tuple[float, float]:
    """(pass duration, push transit) in virtual seconds, seeded draws."""
    base = cfg.B * cfg.compute_cost_s  # p threads overlap
    kind = cfg.delay.kind
    if kind == "none":
        return base, 0.0
    if kind == "fixed":
        return base, cfg.delay.latency
    rng = substream(cfg.seed, ROLE_DELAY, w, pass_idx)
    transit = float(rng.uniform(cfg.delay.low, cfg.delay.high))
    if kind == "seeded-jitter":
        return base + float(rng.uniform(0.0, cfg.delay.jitter)), transit
    return base, transit


def run_simulated(cfg: RunConfig, oracle, init) -> RunResult:
    if cfg.trace_overwrites:
        raise ConfigurationError(
            "overwrite tracing needs execution='threaded' (real slab writers)"
        )
    transit_possible = (cfg.delay.kind == "fixed" and cfg.delay.latency > 0) or (
        cfg.delay.kind in ("uniform", "seeded-jitter") and cfg.delay.high > 0
    )
    if transit_possible and cfg.compute_cost_s <= 0:
        raise ConfigurationError(
            "simulated transit delays need compute_cost_s > 0: a worker with "
            "zero-duration passes would send unboundedly many pushes per "
            "virtual instant"
        )
    rho = cfg.resolve_rho()
    theory_warnings = cfg.theory_warnings()
    v = np.array(init, dtype=float)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ConfigurationError("initial model must be a non-empty vector")
    model = ParamVector(v)

    counters = RunCounters()
    metrics = MetricsSeries()
    applied_hist: dict[int, int] = {}
    received_hist: dict[int, int] = {}

    version = 0
    pending: deque[_Push] = deque()
    batch: list[_Push] = []
    deferred: list[_Push] = []  # pulled passes, all based on `version`
    evals_per_pass = cfg.p * cfg.B
    inflight_bases: dict[int, int] = {}  # base version -> unapplied push count
    pass_counter = [0] * cfg.nW

    events: list[tuple] = []
    seq = 0
    for w in range(cfg.nW):
        heapq.heappush(events, (0.0, _PULL, seq, w, None))
        seq += 1

    bound = cfg.delay.d_prime_bound
    policy = cfg.delay.enforce
    k_sample = cfg.grad_norm_every
    loss_fn = getattr(oracle, "loss_at", None)
    grad_fn = getattr(oracle, "full_grad", None)

    def register(base: int) -> None:
        inflight_bases[base] = inflight_bases.get(base, 0) + 1

    def unregister(base: int) -> None:
        left = inflight_bases[base] - 1
        if left:
            inflight_bases[base] = left
        else:
            del inflight_bases[base]

    def gate_open() -> bool:
        # block policy: advancing to version+1 must leave every not-yet
        # applied push still able to meet the staleness bound later; when
        # it would not, the master waits for the straggler instead
        outside = dict(inflight_bases)
        for push in batch:
            b = push.base_version
            outside[b] -= 1
            if not outside[b]:
                del outside[b]
        if not outside:
            return True
        return version + 1 - min(outside) <= bound

    def compute_deferred() -> None:
        if deferred:
            _compute_group(cfg, oracle, deferred, model.values)
            deferred.clear()

    def apply_batch(now: float) -> None:
        nonlocal version, batch, seq, model
        compute_deferred()  # the last moment model.values is their base
        t = version
        stalenesses = [t - push.base_version for push in batch]
        if policy == "block" and stalenesses and max(stalenesses) > bound:
            raise TransportError(
                "staleness gate invariant broken: batch member exceeds bound"
            )
        updates = [
            UpdateVector(push.delta, push.base_version, push.worker_id)
            for push in batch
        ]
        model = apply_global_update(model, updates, rho(t))
        v = model.values
        version = t + 1
        for push, stale in zip(batch, stalenesses):
            applied_hist[stale] = applied_hist.get(stale, 0) + 1
            if bound is not None and stale > bound:
                counters.stale_applied_violations += 1
            counters.pushes_applied += 1
            counters.gradient_evals_applied += evals_per_pass
            unregister(push.base_version)
            if policy == "block":
                # the worker was waiting for this apply; it resumes now
                heapq.heappush(events, (now, _PULL, seq, push.worker_id, None))
                seq += 1
        gn = float("nan")
        lo = float("nan")
        if k_sample and t % k_sample == 0:
            if grad_fn is not None:
                g = np.asarray(grad_fn(v))
                gn = float(g @ g)
            if loss_fn is not None:
                lo = float(loss_fn(v))
        metrics.append(
            t,
            now,
            float(np.linalg.norm(v)),
            max(stalenesses),
            float(np.mean(stalenesses)),
            gn,
            lo,
            counters.pushes_received,
            counters.gradient_evals_applied,
        )
        batch = []

    def try_apply(now: float) -> None:
        nonlocal batch
        while version < cfg.T:
            if policy == "block":
                if len(pending) < cfg.M:
                    return
                ordered = sorted(
                    pending, key=lambda push: (push.base_version, push.worker_id)
                )
                batch = ordered[: cfg.M]
                if not gate_open():
                    batch = []
                    return
                for push in batch:
                    pending.remove(push)
                apply_batch(now)
                continue
            while pending and len(batch) < cfg.M:
                push = pending.popleft()
                stale = version - push.base_version
                if policy == "drop" and stale > bound:
                    counters.pushes_dropped_stale += 1
                    unregister(push.base_version)
                    continue
                batch.append(push)
            if len(batch) < cfg.M:
                return
            apply_batch(now)

    while events and version < cfg.T:
        now, kind, _, w, payload = heapq.heappop(events)
        if kind == _DELIVER:
            push = payload
            counters.pushes_received += 1
            stale = version - push.base_version
            received_hist[stale] = received_hist.get(stale, 0) + 1
            pending.append(push)
            try_apply(now)
        else:
            # serve a model pull and schedule the pass; its delta waits
            # for the apply that leaves this version
            counters.pulls_served += 1
            pass_idx = pass_counter[w]
            pass_counter[w] += 1
            counters.gradient_evals_computed += evals_per_pass
            register(version)
            push = _Push(w, version, pass_idx)
            deferred.append(push)
            dur, transit = _pass_timing(cfg, w, pass_idx)
            heapq.heappush(events, (now + dur + transit, _DELIVER, seq, w, push))
            seq += 1
            if policy != "block":
                heapq.heappush(events, (now + dur, _PULL, seq, w, None))
                seq += 1

    if version < cfg.T:
        compute_deferred()  # a failing pass raises its own error first
        raise TransportError(
            f"simulation starved at version {version} of {cfg.T}; "
            "the staleness gate or worker pool cannot make progress"
        )

    final_wall = metrics.rows[-1][1] if metrics.rows else 0.0
    return RunResult(
        final=model,
        version=version,
        counters=counters,
        metrics=metrics,
        mode="simulated",
        applied_staleness_hist=applied_hist,
        received_staleness_hist=received_hist,
        theory_warnings=theory_warnings,
        config_echo=cfg.to_dict(),
        wall_clock_s=final_wall,
    )
