"""Real-thread runtime: lock-free local threads, async master, in-process hub.

The master runs in the calling thread (run_workers) and takes pushes
from an InprocHub; workers run in their own threads, each running p
local threads over a SharedSlab per pass. A worker keeps p - 1
long-lived helper threads (LocalThreads) for its whole life and runs
local thread 0 itself, so a run holds at most nW * (p - 1) helpers, all
joined when their worker exits. The hub publishes the model as an
immutable (version, vector, stop) triple swapped whole, so pulls never
block applies. A push's transit delays only its delivery: the hub holds
it until it is due, and the worker starts its next pass at once. A
config this runtime cannot honour (RunConfig.check_runtime) is rejected
before any thread starts. run_workers is the one run lifecycle of this
runtime and the TCP one: both only build their mailbox and their worker
body, and a TCP master whose workers connect from elsewhere has none.
"""
from __future__ import annotations

import threading
import time

import numpy as np

from ..core import SharedSlab, make_update_vector
from ..errors import TransportError
from .config import RunConfig
from .master import Mailbox, Master
from .result import RunResult, TraceBundle
from .rng import pass_indices
from .sim import pass_delays

_TRACE_JITTER_S = 2e-4
_JOIN_TIMEOUT_S = 30.0  # for all of a run's workers to stop after the last apply


class InprocHub(Mailbox):
    """Mailbox between one master and its in-process workers."""


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
) -> None:
    """One worker pass: p local threads take B lock-free steps each.

    Local thread h's steps take their indices from the rows of one
    pass_indices draw shaped (B, batch_size), at every batch size, as the
    simulator steps a pass; row b equals the b-th of B draw_indices calls
    on substream(seed, ROLE_SAMPLE, worker_id, h, pass_idx). All p draws
    are taken before the threads start. The threads run on local, the
    worker's LocalThreads (h = 0 in the calling thread). An error in any
    local thread is raised here once all p have stopped.
    """
    size = cfg.problem.batch_size
    steps = [pass_indices(cfg.seed, worker_id, h, pass_idx, oracle.n,
                          cfg.B * size).reshape(cfg.B, size)
             for h in range(cfg.p)]

    def thread_body(h: int) -> None:
        for idx in steps[h]:
            u_hat = slab.read()
            g = oracle.grad_at(idx, u_hat)
            if cfg.compute_cost_s > 0:
                time.sleep(cfg.compute_cost_s)
            slab.write_step(g, cfg.eta)

    local.run(thread_body)


def worker_loop(cfg: RunConfig, oracle, worker_id: int, pull, push,
                traces: list[TraceBundle] | None = None) -> int:
    """One worker: pull a model, run a pass on it, push the delta; repeat.

    pull() returns the model to start from, an object with version and
    values, or None once the run is over. push(update, pass_idx) sends
    the pass's update. With traces, the slab records overwrites and each
    pass appends its TraceBundle there. Returns the completed passes.
    """
    slab = SharedSlab(
        np.zeros(oracle.dim),
        trace=traces is not None,
        jitter_s=_TRACE_JITTER_S if traces is not None else 0.0,
    )
    with LocalThreads(cfg.p, name=f"worker{worker_id}-local") as local:
        pass_idx = 0
        while True:
            model = pull()
            if model is None:
                return pass_idx
            base = model.values
            slab.load(base)
            run_local_pass(cfg, oracle, slab, worker_id, pass_idx, local)
            update = make_update_vector(slab, base, model.version, worker_id)
            if traces is not None:
                traces.append(  # list.append is atomic across workers
                    TraceBundle(
                        worker_id=worker_id,
                        pass_idx=pass_idx,
                        base_version=model.version,
                        base=base.copy(),
                        delta=update.delta.copy(),
                        trace=slab.snapshot_trace(),
                    )
                )
            push(update, pass_idx)
            pass_idx += 1


def run_workers(cfg: RunConfig, oracle, init: np.ndarray, mailbox: Mailbox,
                work, mode: str, traces=None) -> RunResult:
    """Run the master here to version T on the pushes mailbox delivers,
    while threads worker0 .. worker<nW-1> run work(w); with work None no
    worker starts here. The one driver of both real runtimes.

    Every applied model is published through mailbox, and every worker
    thread's exit is recorded there (record_exit), which wakes the
    master. Workers start inside the try, so a failed start still stops,
    joins and closes what had started. Once the master is done, or has
    failed, the mailbox broadcasts stop and drains until every started
    worker has exited; then they are joined and the mailbox is closed,
    all within _JOIN_TIMEOUT_S. Then the first worker error is raised as
    is, even one after the last apply, and a worker still alive fails it.
    """
    def worker(w: int) -> None:
        try:
            work(w)
        except BaseException as exc:  # raised by the master
            mailbox.record_exit(exc)
        else:
            mailbox.record_exit()

    workers: list[threading.Thread] = []
    start = time.monotonic()
    try:
        master = Master(cfg, oracle, init, publish=mailbox.publish)
        for w in range(cfg.nW if work is not None else 0):
            th = threading.Thread(target=worker, args=(w,), name=f"worker{w}")
            th.start()
            workers.append(th)
        batch = []
        while master.version < cfg.T:
            upd = mailbox.next_delivery()
            if not master.receive(upd.base_version, upd.worker_id):
                continue
            batch.append(upd)
            if len(batch) == cfg.M:
                master.apply(batch, time.monotonic() - start)
                batch = []
    finally:
        mailbox.broadcast_stop()
        deadline = time.monotonic() + _JOIN_TIMEOUT_S
        mailbox.drain(lambda: mailbox.exits == len(workers), deadline)
        for th in workers:
            th.join(timeout=max(0.0, deadline - time.monotonic()))
        mailbox.close()
    if mailbox.error is not None:
        raise mailbox.error
    alive = [th.name for th in workers if th.is_alive()]
    if alive:
        raise TransportError(
            f"workers still running {_JOIN_TIMEOUT_S} s after the run "
            f"stopped: {', '.join(alive)}"
        )
    counters = master.counters
    # every push the master received came from a completed pass of p*B steps
    counters.gradient_evals_computed = counters.pushes_received * cfg.Btilde
    counters.pulls_served = mailbox.pulls_served
    counters.malformed_frames = mailbox.malformed_frames
    return master.result(mode, time.monotonic() - start, traces)


def run_threaded(cfg: RunConfig, oracle, init) -> RunResult:
    init = np.asarray(init, dtype=float)
    hub = InprocHub(cfg, init)
    traces: list[TraceBundle] | None = [] if cfg.trace_overwrites else None

    def work(w: int) -> None:
        def pull():
            pub = hub.pull(w)
            return None if pub.stop else pub

        def push(update, pass_idx: int) -> None:
            hub.push(update, pass_delays(cfg, w, pass_idx)[1])

        worker_loop(cfg, oracle, w, pull, push, traces)

    return run_workers(cfg, oracle, init, hub, work, "threaded", traces)
