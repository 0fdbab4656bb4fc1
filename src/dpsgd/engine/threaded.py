"""Real-thread runtime: lock-free local threads, async master, in-process hub.

The master runs in the calling thread and consumes a FIFO of delivered
pushes; workers run in their own threads, each running p local threads
over a SharedSlab per pass. A worker keeps p - 1 long-lived helper threads
(LocalThreads) for its whole life and runs local thread 0 itself, so a run
holds at most nW * (p - 1) helpers, all joined when their worker exits.
The hub publishes the model as an immutable (version, vector) pair swapped
atomically, so pulls never block applies.
"""
from __future__ import annotations

import heapq
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core import (
    ParamVector,
    SharedSlab,
    UpdateVector,
    apply_global_update,
    make_update_vector,
)
from ..errors import ConfigurationError, TransportError
from .config import RunConfig
from .result import MetricsSeries, RunCounters, RunResult, TraceBundle
from .rng import ROLE_DELAY, ROLE_SAMPLE, draw_pass_indices, substream

_QUEUE_TIMEOUT_S = 60.0
_TRACE_JITTER_S = 2e-4


@dataclass
class _Published:
    version: int
    values: np.ndarray
    stop: bool = False


class InprocHub:
    """Mailboxes between one master and its in-process workers."""

    def __init__(self, cfg: RunConfig, initial: np.ndarray):
        self._cfg = cfg
        self._deliveries: queue.Queue = queue.Queue()
        self._published = _Published(0, initial.copy())
        self._lock = threading.Lock()
        self._scheduler: _DelayScheduler | None = None
        if cfg.delay.kind != "none":
            self._scheduler = _DelayScheduler(self._deliveries)
        self.pulls_served = 0

    def pull(self, worker_id: int) -> _Published:
        with self._lock:
            self.pulls_served += 1
            return self._published

    def publish(self, version: int, values: np.ndarray) -> None:
        pub = _Published(version, values)
        with self._lock:
            self._published = pub

    def broadcast_stop(self) -> None:
        with self._lock:
            old = self._published
            self._published = _Published(old.version, old.values, stop=True)

    def push(self, update: UpdateVector, transit_s: float) -> None:
        if self._scheduler is None or transit_s <= 0:
            self._deliveries.put(update)
        else:
            self._scheduler.submit(update, transit_s)

    def next_delivery(
        self, timeout: float = _QUEUE_TIMEOUT_S, abort_check=None
    ) -> UpdateVector:
        deadline = time.monotonic() + timeout
        while True:
            if abort_check is not None:
                abort_check()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError("master starved: no push arrived in time")
            try:
                return self._deliveries.get(timeout=min(0.05, remaining))
            except queue.Empty:
                continue

    def close(self) -> None:
        if self._scheduler is not None:
            self._scheduler.close()


class _DelayScheduler:
    """Delivers pushes into the master queue after their injected transit."""

    def __init__(self, out: queue.Queue):
        self._out = out
        self._heap: list[tuple[float, int, UpdateVector]] = []
        self._seq = 0
        self._cv = threading.Condition()
        self._closing = False
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def submit(self, update: UpdateVector, transit_s: float) -> None:
        due = time.monotonic() + transit_s
        with self._cv:
            heapq.heappush(self._heap, (due, self._seq, update))
            self._seq += 1
            self._cv.notify()

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._heap and not self._closing:
                    self._cv.wait()
                if self._closing and not self._heap:
                    return
                due, _, update = self._heap[0]
                wait = due - time.monotonic()
                if wait > 0:
                    self._cv.wait(timeout=wait)
                    continue
                heapq.heappop(self._heap)
            self._out.put(update)

    def close(self) -> None:
        with self._cv:
            self._closing = True
            self._cv.notify()
        self._thread.join(timeout=5.0)


def simulate_compute_cost(cfg: RunConfig) -> None:
    cost = cfg.compute_cost_s
    if cost <= 0:
        return
    if cfg.compute_cost_mode == "sleep":
        time.sleep(cost)
    else:
        end = time.perf_counter() + cost
        while time.perf_counter() < end:
            pass


class LocalThreads:
    """A worker's long-lived helpers for local threads h = 1 .. p-1.

    run(body) calls body(h) for every h in range(p): h = 0 in the calling
    thread, the rest on the helpers, and returns once all have finished.
    So a pass costs each helper one wake-up and one completion signal, not
    a thread start and join. Each helper parks between passes on its own
    binary semaphore (a plain Lock the caller releases). With p == 1 there
    are no helpers. close() stops and joins them; use the pool as a context
    manager so that happens on every exit path. Helpers are daemons only so
    that one stuck in a gradient cannot hold the interpreter open.
    """

    def __init__(self, p: int, name: str = "local"):
        n = p - 1
        self._body = None
        self._go = [threading.Lock() for _ in range(n)]
        self._done = [threading.Lock() for _ in range(n)]
        self._errors: list[BaseException | None] = [None] * n
        for lock in self._go + self._done:
            lock.acquire()
        self._helpers = [
            threading.Thread(target=self._serve, args=(i,),
                             name=f"{name}-h{i + 1}", daemon=True)
            for i in range(n)
        ]
        for th in self._helpers:
            th.start()

    def _serve(self, i: int) -> None:
        go, done = self._go[i], self._done[i]
        while True:
            go.acquire()
            body = self._body
            if body is None:
                return
            try:
                body(i + 1)
            except BaseException as exc:  # re-raised by run() in its caller
                self._errors[i] = exc
            done.release()

    def run(self, body) -> None:
        """body(h) for h in range(p); raises the first error by h.

        Every local thread has stopped before anything is raised, so the
        caller never sees a slab that is still being written.
        """
        self._body = body
        for go in self._go:
            go.release()
        try:
            body(0)
        finally:
            for done in self._done:
                done.acquire()
            self._body = None
            errors, self._errors = self._errors, [None] * len(self._errors)
        for exc in errors:
            if exc is not None:
                raise exc

    def close(self) -> None:
        """Stop and join every helper; safe to call more than once."""
        helpers, self._helpers = self._helpers, []
        for go in self._go[: len(helpers)]:
            go.release()  # _body is None between passes: the helper exits
        for th in helpers:
            th.join()

    def __enter__(self) -> "LocalThreads":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_local_pass(
    cfg: RunConfig,
    oracle,
    slab: SharedSlab,
    worker_id: int,
    pass_idx: int,
    local: LocalThreads,
) -> int:
    """One worker pass: p local threads take B lock-free steps each.

    Local thread h draws the indices of its B steps in one call on
    substream(seed, ROLE_SAMPLE, worker_id, h, pass_idx), equal to B
    draw_indices calls, and runs on local, the worker's LocalThreads
    (h = 0 in the calling thread). An error in any local thread is
    raised here once all p have stopped.
    Returns the gradient evaluations made, p * B.
    """
    size = cfg.problem.batch_size

    def thread_body(h: int) -> None:
        rng = substream(cfg.seed, ROLE_SAMPLE, worker_id, h, pass_idx)
        for idx in draw_pass_indices(rng, oracle.n, cfg.B, size):
            u_hat = slab.read()
            g = oracle.grad_at(idx, u_hat)
            simulate_compute_cost(cfg)
            slab.write_step(g, cfg.eta)

    local.run(thread_body)
    return cfg.p * cfg.B


def _transit_sample(cfg: RunConfig, worker_id: int, pass_idx: int) -> float:
    kind = cfg.delay.kind
    if kind == "none":
        return 0.0
    if kind == "fixed":
        return cfg.delay.latency
    rng = substream(cfg.seed, ROLE_DELAY, worker_id, pass_idx)
    return float(rng.uniform(cfg.delay.low, cfg.delay.high))


def worker_loop(
    cfg: RunConfig,
    oracle,
    hub: InprocHub,
    worker_id: int,
    traces: list[TraceBundle],
    traces_lock: threading.Lock,
    errors: list[BaseException],
) -> None:
    try:
        slab = SharedSlab(
            np.zeros(oracle.dim),
            trace=cfg.trace_overwrites,
            jitter_s=_TRACE_JITTER_S if cfg.trace_overwrites else 0.0,
        )
        with LocalThreads(cfg.p, name=f"worker{worker_id}-local") as local:
            pass_idx = 0
            while True:
                pub = hub.pull(worker_id)
                if pub.stop:
                    return
                base = pub.values
                slab.load(base)
                run_local_pass(cfg, oracle, slab, worker_id, pass_idx, local)
                update = make_update_vector(slab, base, pub.version,
                                            worker_id)
                if cfg.trace_overwrites:
                    with traces_lock:
                        traces.append(
                            TraceBundle(
                                worker_id=worker_id,
                                pass_idx=pass_idx,
                                base_version=pub.version,
                                base=base.copy(),
                                delta=update.delta.copy(),
                                trace=slab.snapshot_trace(),
                            )
                        )
                hub.push(update, _transit_sample(cfg, worker_id, pass_idx))
                pass_idx += 1
    except BaseException as exc:  # surfaced by the master after join
        errors.append(exc)


def master_collect_loop(
    cfg: RunConfig,
    oracle,
    init: np.ndarray,
    next_delivery,
    publish,
    counters: RunCounters,
    metrics: MetricsSeries,
    applied_hist: dict[int, int],
    received_hist: dict[int, int],
    abort_check=None,
) -> ParamVector:
    """The master's collect/apply loop, shared by inproc and TCP frontends.

    next_delivery() blocks until a push arrives; publish(version, values)
    makes the new model visible to pulls. Published arrays are read-only.
    Returns the final model.
    """
    rho = cfg.resolve_rho()
    bound = cfg.delay.d_prime_bound
    policy = cfg.delay.enforce
    if policy == "block":
        raise ConfigurationError(
            "enforce='block' is only available on execution='simulated'"
        )
    v = ParamVector(init)
    version = 0
    k_sample = cfg.grad_norm_every
    loss_fn = getattr(oracle, "loss_at", None)
    grad_fn = getattr(oracle, "full_grad", None)
    start = time.monotonic()
    for t in range(cfg.T):
        batch: list[UpdateVector] = []
        stalenesses: list[int] = []
        while len(batch) < cfg.M:
            if abort_check is not None:
                abort_check()
            upd = next_delivery()
            counters.pushes_received += 1
            stale = version - upd.base_version
            if stale < 0:
                raise TransportError(
                    f"update from worker {upd.worker_id} claims future base "
                    f"{upd.base_version} > version {version}"
                )
            received_hist[stale] = received_hist.get(stale, 0) + 1
            if policy == "drop" and stale > bound:
                counters.pushes_dropped_stale += 1
                continue
            if bound is not None and stale > bound:
                counters.stale_applied_violations += 1
            batch.append(upd)
            stalenesses.append(stale)
        v = apply_global_update(v, batch, rho(t))
        version += 1
        publish(version, v.values)
        for upd, stale in zip(batch, stalenesses):
            applied_hist[stale] = applied_hist.get(stale, 0) + 1
            counters.pushes_applied += 1
            counters.gradient_evals_applied += cfg.p * cfg.B
        gn = float("nan")
        lo = float("nan")
        if k_sample and t % k_sample == 0:
            if grad_fn is not None:
                g = np.asarray(grad_fn(v.values))
                gn = float(g @ g)
            if loss_fn is not None:
                lo = float(loss_fn(v.values))
        metrics.append(
            t,
            time.monotonic() - start,
            float(np.linalg.norm(v.values)),
            max(stalenesses),
            float(np.mean(stalenesses)),
            gn,
            lo,
            counters.pushes_received,
            counters.gradient_evals_applied,
        )
    return v


def run_threaded(cfg: RunConfig, oracle, init) -> RunResult:
    init = np.asarray(init, dtype=float)
    hub = InprocHub(cfg, init)
    counters = RunCounters()
    metrics = MetricsSeries()
    applied_hist: dict[int, int] = {}
    received_hist: dict[int, int] = {}
    traces: list[TraceBundle] = []
    traces_lock = threading.Lock()
    errors: list[BaseException] = []
    theory_warnings = cfg.theory_warnings()

    workers = [
        threading.Thread(
            target=worker_loop,
            args=(cfg, oracle, hub, w, traces, traces_lock, errors),
        )
        for w in range(cfg.nW)
    ]
    start = time.monotonic()
    for th in workers:
        th.start()

    def abort_check():
        if errors:
            raise TransportError(f"worker failed: {errors[0]!r}") from errors[0]

    try:
        final = master_collect_loop(
            cfg,
            oracle,
            init,
            lambda: hub.next_delivery(abort_check=abort_check),
            hub.publish,
            counters,
            metrics,
            applied_hist,
            received_hist,
            abort_check,
        )
    finally:
        hub.broadcast_stop()
        for th in workers:
            th.join(timeout=30.0)
        hub.close()
    if errors:
        raise TransportError(f"worker failed: {errors[0]!r}") from errors[0]
    counters.pulls_served = hub.pulls_served
    # every push the master received came from a completed pass of p*B steps
    counters.gradient_evals_computed = counters.pushes_received * cfg.p * cfg.B

    return RunResult(
        final=final,
        version=cfg.T,
        counters=counters,
        metrics=metrics,
        mode="threaded",
        applied_staleness_hist=applied_hist,
        received_staleness_hist=received_hist,
        traces=traces,
        theory_warnings=theory_warnings,
        config_echo=cfg.to_dict(),
        wall_clock_s=time.monotonic() - start,
    )
