"""The master's side of the protocol, shared by every runtime.

Master holds the model and the run's bookkeeping: it counts each push it
receives, applies the drop policy, applies batches and samples the
metrics series. The simulator drives it on virtual time; the threaded
and TCP runtimes drive it in threaded.run_workers, on the pushes a
Mailbox delivers. A Mailbox holds the published model, which workers
pull, and the pushes on their way to the master, each released at its
due time by serve(), the one wait loop of both real runtimes.
"""
from __future__ import annotations

import heapq
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..core import ParamVector, UpdateVector, apply_global_update
from ..errors import TransportError
from .config import RunConfig
from .result import MetricsSeries, RunCounters, RunResult

_QUEUE_TIMEOUT_S = 60.0
_ABORT_POLL_S = 0.05


class Master:
    """Model, version, counters, staleness histograms and metrics of a run.

    publish(version, values), when given, is called after every apply
    with the new model; published arrays are read-only.
    """

    def __init__(self, cfg: RunConfig, oracle, init: np.ndarray,
                 publish=None):
        self.cfg = cfg
        self.rho = cfg.resolve_rho()
        self.theory_warnings = cfg.theory_warnings()
        self.model = ParamVector(init)
        self.version = 0
        self.counters = RunCounters()
        self.metrics = MetricsSeries()
        self.applied_hist: dict[int, int] = {}
        self.received_hist: dict[int, int] = {}
        self._publish = publish
        self._bound = cfg.delay.d_prime_bound
        self._drop = cfg.delay.enforce == "drop"
        self._loss_fn = getattr(oracle, "loss_at", None)
        self._grad_fn = getattr(oracle, "full_grad", None)

    def receive(self, base_version: int, worker_id: int) -> bool:
        """Count a push arriving now; False if the drop policy discards it."""
        self.counters.pushes_received += 1
        stale = self.version - base_version
        if stale < 0:
            raise TransportError(
                f"update from worker {worker_id} claims future base "
                f"{base_version} > version {self.version}"
            )
        self.received_hist[stale] = self.received_hist.get(stale, 0) + 1
        if self._drop and stale > self._bound:
            self.counters.pushes_dropped_stale += 1
            return False
        return True

    def apply(self, batch, now: float) -> None:
        """One global update from batch, recorded at time now.

        A batch member is an UpdateVector, or anything with its delta,
        base_version and worker_id (the simulator's pushes).
        """
        t = self.version
        self.model = apply_global_update(self.model, batch, self.rho(t))
        v = self.model.values
        self.version = t + 1
        if self._publish is not None:
            self._publish(self.version, v)
        counters = self.counters
        hist = self.applied_hist
        bound = self._bound
        worst = total = 0  # receive refused every future base
        for upd in batch:
            stale = t - upd.base_version
            hist[stale] = hist.get(stale, 0) + 1
            total += stale
            if stale > worst:
                worst = stale
            if bound is not None and stale > bound:
                counters.stale_applied_violations += 1
        counters.pushes_applied += len(batch)
        counters.gradient_evals_applied += len(batch) * self.cfg.Btilde
        gn = lo = float("nan")
        k_sample = self.cfg.grad_norm_every
        if k_sample and t % k_sample == 0:
            if self._grad_fn is not None:
                g = np.asarray(self._grad_fn(v))
                gn = float(g @ g)
            if self._loss_fn is not None:
                lo = float(self._loss_fn(v))
        # the norm as np.linalg.norm takes it for a 1-d float64 vector
        self.metrics.append(t, now, math.sqrt(v @ v), worst,
                            total / len(batch), gn, lo,
                            counters.pushes_received,
                            counters.gradient_evals_applied)

    def result(self, mode: str, wall_clock_s: float,
               traces=None) -> RunResult:
        return RunResult(
            final=self.model,
            version=self.version,
            counters=self.counters,
            metrics=self.metrics,
            mode=mode,
            applied_staleness_hist=self.applied_hist,
            received_staleness_hist=self.received_hist,
            traces=traces or [],
            theory_warnings=self.theory_warnings,
            wall_clock_s=wall_clock_s,
        )


@dataclass(frozen=True)
class Published:
    """The model workers pull, swapped whole; stop ends their loops."""

    version: int
    values: np.ndarray
    stop: bool = False


class Mailbox:
    """Published model and pending pushes between a master and its workers.

    One Condition guards both. A push becomes deliverable transit_s after
    push() is called; next_delivery() returns deliverable pushes earliest
    due first, ties in push order. Transit therefore delays only the
    delivery, never the pushing worker. next_delivery and a TCP drain run
    serve(), the one wait loop; a subclass changes only how it waits
    (_wait), as the TCP server answers its sockets. Constructing a
    mailbox rejects a config its runtime cannot honour
    (RunConfig.check_runtime), before any worker thread starts or socket
    binds.
    """

    def __init__(self, cfg: RunConfig, initial: np.ndarray,
                 runtime: str = "threaded"):
        cfg.check_runtime(runtime)
        self._cfg = cfg
        self._cv = threading.Condition(threading.Lock())
        self._published = Published(0, initial.copy())
        self._pending: list[tuple[float, int, UpdateVector]] = []
        self._seq = 0
        self.pulls_served = 0
        self.malformed_frames = 0  # frames a TCP server refused

    def pull(self, worker_id: int | None = None) -> Published:
        """The published triple, counted in pulls_served."""
        with self._cv:
            self.pulls_served += 1
            return self._published

    def publish(self, version: int, values: np.ndarray) -> None:
        pub = Published(version, values)
        with self._cv:
            self._published = pub

    def broadcast_stop(self) -> None:
        with self._cv:
            old = self._published
            self._published = Published(old.version, old.values, stop=True)

    def push(self, update: UpdateVector, transit_s: float = 0.0) -> None:
        due = time.monotonic() + transit_s
        with self._cv:
            heapq.heappush(self._pending, (due, self._seq, update))
            self._seq += 1
            self._cv.notify()

    def serve(self, until, deadline: float, abort_check=None) -> bool:
        """Wait until until() holds or time.monotonic() reaches deadline;
        returns whether until() held.

        The lock is held throughout except inside _wait. Each wait ends at
        the earliest due push, after 50 ms, or at the deadline, so until()
        and abort_check() are called at least that often.
        """
        with self._cv:
            while True:
                if abort_check is not None:
                    abort_check()
                if until():
                    return True
                now = time.monotonic()
                if now >= deadline:
                    return False
                wait = min(_ABORT_POLL_S, deadline - now)
                if self._pending:
                    wait = max(0.0, min(wait, self._pending[0][0] - now))
                self._wait(wait)

    def _wait(self, seconds: float) -> None:
        """Release the lock for up to seconds; a push ends it early."""
        self._cv.wait(seconds)

    def _due(self) -> bool:
        return bool(self._pending) and self._pending[0][0] <= time.monotonic()

    def next_delivery(self, timeout: float = _QUEUE_TIMEOUT_S,
                      abort_check=None) -> UpdateVector:
        """The next due push; raises TransportError if none is due in time.

        abort_check(), when given, is called at least every 50 ms while
        waiting, so a failed worker can end the wait.
        """
        if not self.serve(self._due, time.monotonic() + timeout, abort_check):
            raise TransportError("master starved: no push arrived in time")
        with self._cv:
            return heapq.heappop(self._pending)[2]

    def drain(self, until, deadline: float) -> None:
        """Serve the workers after stop until until() holds (every local
        worker has exited) or deadline (time.monotonic()) passes;
        in-process workers need no serving."""

    def close(self) -> None:
        """Release what the mailbox holds; an in-process one holds nothing."""

