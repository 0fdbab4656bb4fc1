"""Real-thread runtime: liveness, counters, and exact trace replay.

Thread interleavings make trajectories nondeterministic here, so these
tests check structural invariants; exact-equivalence checks live with the
simulated runtime.
"""
import sys
import threading
import time

import numpy as np
import pytest

from dpsgd.engine import DelayModel, ProblemSpec, RunConfig, build_oracle, run_with_oracle
from dpsgd.engine import sim, threaded
from dpsgd.engine.rng import ROLE_DELAY, ROLE_SAMPLE, pass_indices, pass_uniforms
from dpsgd.engine.threaded import InprocHub, LocalThreads
from dpsgd.core import UpdateVector
from dpsgd.errors import ConfigurationError, TransportError


def threaded_config(**overrides):
    base = dict(
        T=12,
        M=2,
        nW=2,
        p=2,
        B=3,
        eta=0.1,
        rho_schedule={"kind": "constant", "value": 0.5},
        seed=31,
        problem=ProblemSpec(name="quadratic", n=50, dim=6, data_seed=5),
        execution="threaded",
    )
    base.update(overrides)
    return RunConfig(**base)


def test_threaded_run_completes_with_exact_applied_counts():
    cfg = threaded_config()
    oracle = build_oracle(cfg.problem, cfg.seed)
    res = run_with_oracle(cfg, oracle)
    assert res.mode == "threaded"
    assert res.version == cfg.T
    assert res.final.dim == oracle.dim
    assert np.all(np.isfinite(res.final.values))
    assert res.counters.pushes_applied == cfg.T * cfg.M
    assert res.counters.pushes_received >= res.counters.pushes_applied
    assert res.counters.gradient_evals_applied == cfg.T * cfg.M * cfg.p * cfg.B
    assert res.counters.pulls_served >= cfg.nW
    assert len(res.metrics) == cfg.T
    assert sum(res.applied_staleness_hist.values()) == cfg.T * cfg.M


def test_threaded_run_descends_on_quadratic():
    cfg = threaded_config(T=60, rho_schedule={"kind": "constant", "value": 0.2})
    oracle = build_oracle(cfg.problem, cfg.seed)
    init = np.full(oracle.dim, 5.0)
    res = run_with_oracle(cfg, oracle, init=init)
    gap0 = oracle.loss_at(init) - oracle.loss_at(oracle.minimiser())
    gap = oracle.loss_at(res.final.values) - oracle.loss_at(oracle.minimiser())
    assert gap < 0.1 * gap0


def test_threaded_rejects_blocking_policy():
    cfg = threaded_config(
        delay=DelayModel(kind="fixed", latency=1e-3,
                         d_prime_bound=2, enforce="block"),
    )
    oracle = build_oracle(cfg.problem, cfg.seed)
    with pytest.raises(ConfigurationError, match="simulated"):
        run_with_oracle(cfg, oracle)


SIMULATED_ONLY = {
    "block": DelayModel(kind="fixed", latency=1e-3, d_prime_bound=2,
                        enforce="block"),
    "seeded-jitter": DelayModel(kind="seeded-jitter", high=1e-3,
                                jitter=1e-3),
}


@pytest.mark.parametrize("name", sorted(SIMULATED_ONLY))
def test_threaded_rejects_simulated_only_settings_before_starting(
        monkeypatch, name):
    cfg = threaded_config(delay=SIMULATED_ONLY[name])
    oracle = build_oracle(cfg.problem, cfg.seed)
    before = threading.active_count()

    def refuse(*args):
        raise AssertionError("a thread started before the config was rejected")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    with pytest.raises(ConfigurationError, match="simulated"):
        run_with_oracle(cfg, oracle)
    assert threading.active_count() == before, threading.enumerate()


def recorded_pass_draws(monkeypatch):
    """Every per-pass draw of the sampler and of the workers' passes, as
    the (role, keys) of the stream it reads: (ROLE_SAMPLE, (w, h, pass))
    or (ROLE_DELAY, (w, pass))."""
    calls = []

    def indices(seed, w, h, pass_idx, n, count):
        calls.append((ROLE_SAMPLE, (w, h, pass_idx)))  # atomic across threads
        return pass_indices(seed, w, h, pass_idx, n, count)

    def uniforms(seed, w, pass_idx):
        calls.append((ROLE_DELAY, (w, pass_idx)))
        return pass_uniforms(seed, w, pass_idx)

    monkeypatch.setattr(sim, "pass_indices", indices)
    monkeypatch.setattr(sim, "pass_uniforms", uniforms)
    monkeypatch.setattr(threaded, "pass_indices", indices)
    return calls


def assert_one_delay_draw_per_pass(calls, nW):
    """Worker w's delay draws are keyed (w, k) for k = 0 .. passes - 1."""
    delays = [keys for role, keys in calls if role == ROLE_DELAY]
    passes = [(w, k) for role, (w, h, k) in
              ((r, keys) for r, keys in calls if r == ROLE_SAMPLE) if h == 0]
    for w in range(nW):
        n = sum(pw == w for pw, _ in passes)
        assert n > 0
        assert sorted(k for dw, k in delays if dw == w) == list(range(n))
    assert len(delays) == len(passes)
    return len(passes)


def test_threaded_draws_each_passes_delay_once(monkeypatch):
    calls = recorded_pass_draws(monkeypatch)
    cfg = threaded_config(T=20, delay=DelayModel(kind="uniform", high=2e-3))
    res = run_with_oracle(cfg, build_oracle(cfg.problem, cfg.seed))
    passes = assert_one_delay_draw_per_pass(calls, cfg.nW)
    assert res.counters.pushes_received <= passes


def test_traced_run_replays_every_push_exactly():
    # single pass, many contending local threads: the recorded trace must
    # reproduce the pushed delta bit for bit even when updates were lost
    cfg = threaded_config(
        T=1, M=1, nW=1, p=4, B=50,
        problem=ProblemSpec(name="quadratic", n=30, dim=4, data_seed=11),
        trace_overwrites=True,
    )
    oracle = build_oracle(cfg.problem, cfg.seed)
    res = run_with_oracle(cfg, oracle)
    assert res.traces, "tracing produced no bundles"
    applied = {(tr.worker_id, tr.pass_idx) for tr in res.traces}
    assert (0, 0) in applied
    for tr in res.traces:
        # the push was computed as read() - base, so replaying the trace
        # and subtracting the same base must reproduce it bit for bit
        assert np.array_equal(tr.trace.replay() - tr.base, tr.delta)
        assert np.array_equal(tr.trace.masked_replay() - tr.base, tr.delta)
        n_writes = len(tr.trace.writes)
        assert n_writes == cfg.p * cfg.B
        survived = tr.trace.survival_masks()
        assert survived.shape == (n_writes, oracle.dim)


def test_traced_run_with_delays_still_replays():
    cfg = threaded_config(
        T=4, M=1, nW=2, p=2, B=8,
        delay=DelayModel(kind="uniform", low=0.0, high=2e-3),
        trace_overwrites=True,
    )
    oracle = build_oracle(cfg.problem, cfg.seed)
    res = run_with_oracle(cfg, oracle)
    assert len(res.traces) >= cfg.T
    for tr in res.traces:
        assert np.array_equal(tr.trace.replay() - tr.base, tr.delta)


class ExplodingOracle:
    n = 10
    dim = 3

    def grad_at(self, idx, x):
        raise ValueError("bad gradient")


@pytest.mark.parametrize("p", [1, 2])
def test_worker_failure_surfaces_as_transport_error(p):
    # at p >= 2 the fault is raised in local threads h >= 1 as well; it
    # must fail the run, not be dropped while the pass is pushed
    cfg = threaded_config(T=5, nW=1, p=p, B=1, M=1)
    with pytest.raises(TransportError, match="worker failed"):
        run_with_oracle(cfg, ExplodingOracle())


def test_local_threads_reraise_a_helper_error_after_all_stop():
    finished = []

    def body(h):
        if h == 1:
            raise ValueError("helper fault")
        time.sleep(0.02)
        finished.append(h)

    with LocalThreads(3) as local:
        with pytest.raises(ValueError, match="helper fault"):
            local.run(body)
        assert sorted(finished) == [0, 2]
        # the pool stays usable and the error does not leak into the next pass
        finished.clear()
        local.run(lambda h: finished.append(h))
        assert sorted(finished) == [0, 1, 2]


def test_local_threads_run_each_h_once_per_pass_on_p_minus_1_helpers():
    before = threading.active_count()
    seen = []
    lock = threading.Lock()

    def body(h):
        with lock:
            seen.append((h, threading.get_ident()))

    local = LocalThreads(4)
    assert threading.active_count() == before + 3
    for _ in range(5):
        local.run(body)
    local.close()
    local.close()
    assert threading.active_count() == before
    assert sorted(h for h, _ in seen) == sorted(list(range(4)) * 5)
    assert {ident for h, ident in seen if h == 0} == {threading.get_ident()}
    # each helper keeps its thread across passes
    assert len({ident for h, ident in seen if h > 0}) == 3
    with LocalThreads(1) as single:
        assert threading.active_count() == before
        single.run(body)


def test_local_threads_stress_every_pass_completes_before_run_returns():
    # more local threads than cores and a tiny switch interval: a pass that
    # returned before a helper finished, or a helper that ran twice or not
    # at all, shows up as a wrong count
    p, passes = 6, 300
    counts = np.zeros((passes, p), dtype=int)
    bad = []

    def stress():
        with LocalThreads(p) as local:
            for k in range(passes):
                def body(h, k=k):
                    counts[k, h] += 1
                    if h == p - 1 and k % 7 == 0:
                        raise KeyError(k)

                try:
                    local.run(body)
                except KeyError as exc:
                    if exc.args[0] != k:
                        bad.append(k)
                else:
                    if k % 7 == 0:
                        bad.append(k)
                if not (counts[k] == 1).all():
                    bad.append(k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        th = threading.Thread(target=stress, daemon=True)
        th.start()
        th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not th.is_alive()
    assert bad == []
    assert (counts == 1).all()


@pytest.mark.parametrize("p,fail", [(2, False), (2, True), (1, False)])
def test_threaded_run_leaves_no_thread_behind(p, fail):
    cfg = threaded_config(T=6, p=p)
    before = threading.active_count()
    if fail:
        with pytest.raises(TransportError, match="worker failed"):
            run_with_oracle(cfg, ExplodingOracle())
    else:
        run_with_oracle(cfg, build_oracle(cfg.problem, cfg.seed))
    assert threading.active_count() == before, threading.enumerate()


def stuck_worker(monkeypatch, module, name):
    """Patch module.name, the body of a run's worker thread, so that
    thread "worker1" blocks once the real body returns, until the
    returned event is set; runs wait 0.2 s for their workers to stop."""
    release = threading.Event()
    body = getattr(module, name)

    def stuck(*args, **kwargs):
        try:
            return body(*args, **kwargs)
        finally:
            if threading.current_thread().name == "worker1":
                release.wait(timeout=60)

    monkeypatch.setattr(module, name, stuck)
    monkeypatch.setattr(threaded, "_JOIN_TIMEOUT_S", 0.2)
    return release


def assert_run_names_its_stuck_worker(run, release):
    before = threading.active_count()
    try:
        with pytest.raises(TransportError,
                           match=r"still running 0.2 s .*: worker1$"):
            run()
    finally:
        release.set()
    for th in threading.enumerate():
        if th.name == "worker1":
            th.join(timeout=10)
            assert not th.is_alive()
    assert threading.active_count() == before, threading.enumerate()


def test_threaded_run_names_a_worker_that_does_not_stop(monkeypatch):
    release = stuck_worker(monkeypatch, threaded, "worker_loop")
    cfg = threaded_config(T=6)
    oracle = build_oracle(cfg.problem, cfg.seed)
    assert_run_names_its_stuck_worker(
        lambda: run_with_oracle(cfg, oracle), release)


def refuse_to_start(monkeypatch, name):
    """Patch Thread.start to fail for the thread called name, as it does
    when the process runs out of threads."""
    start = threading.Thread.start

    def guarded(self):
        if self.name == name:
            raise RuntimeError(f"can't start new thread {name}")
        start(self)

    monkeypatch.setattr(threading.Thread, "start", guarded)


def failing_after_return(monkeypatch, module, name):
    """Patch module.name, the body of a run's worker thread, so that it
    raises once the real body has returned: after the run's last apply."""
    body = getattr(module, name)

    def failing(*args, **kwargs):
        body(*args, **kwargs)
        raise RuntimeError("failed after its last pass")

    monkeypatch.setattr(module, name, failing)


def test_threaded_run_stops_its_workers_when_one_fails_to_start(monkeypatch):
    cfg = threaded_config(T=6)
    oracle = build_oracle(cfg.problem, cfg.seed)
    before = threading.active_count()
    refuse_to_start(monkeypatch, "worker1")
    with pytest.raises(RuntimeError, match="worker1"):
        run_with_oracle(cfg, oracle)
    assert threading.active_count() == before, threading.enumerate()


def test_threaded_worker_error_after_the_last_apply_fails_the_run(
        monkeypatch):
    failing_after_return(monkeypatch, threaded, "worker_loop")
    cfg = threaded_config(T=6)
    with pytest.raises(TransportError,
                       match="worker failed: .*after its last pass"):
        run_with_oracle(cfg, build_oracle(cfg.problem, cfg.seed))


def test_hub_starvation_raises():
    cfg = threaded_config()
    hub = InprocHub(cfg, np.zeros(4))
    with pytest.raises(TransportError, match="starved"):
        hub.next_delivery(timeout=0.05)


def test_hub_abort_check_runs_while_waiting():
    cfg = threaded_config()
    hub = InprocHub(cfg, np.zeros(4))

    def abort():
        raise TransportError("worker failed: boom")

    with pytest.raises(TransportError, match="boom"):
        hub.next_delivery(timeout=5.0, abort_check=abort)


def test_delay_scheduler_orders_by_transit():
    cfg = threaded_config(delay=DelayModel(kind="fixed", latency=1e-3))
    hub = InprocHub(cfg, np.zeros(2))
    slow = UpdateVector(np.ones(2), base_version=0, worker_id=0)
    fast = UpdateVector(2 * np.ones(2), base_version=0, worker_id=1)
    hub.push(slow, 0.25)
    hub.push(fast, 0.02)
    first = hub.next_delivery(timeout=2.0)
    second = hub.next_delivery(timeout=2.0)
    hub.close()
    assert first.worker_id == 1
    assert second.worker_id == 0


def test_hub_holds_a_push_until_its_transit_has_passed():
    hub = InprocHub(threaded_config(), np.zeros(2))
    upd = UpdateVector(np.ones(2), base_version=0, worker_id=0)
    pushed = time.monotonic()
    hub.push(upd, 0.6)
    with pytest.raises(TransportError, match="starved"):
        hub.next_delivery(timeout=0.05)
    assert hub.next_delivery(timeout=5.0) is upd
    assert time.monotonic() - pushed >= 0.6


def test_stop_flag_reaches_pullers():
    cfg = threaded_config()
    hub = InprocHub(cfg, np.zeros(3))
    hub.publish(4, np.ones(3))
    assert not hub.pull(0).stop
    hub.broadcast_stop()
    pub = hub.pull(0)
    assert pub.stop and pub.version == 4
