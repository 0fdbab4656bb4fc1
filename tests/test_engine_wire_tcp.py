"""Framing golden bytes, malformed-frame rejection, and localhost TCP runs."""
import contextlib
import os
import socket
import threading
import time

import numpy as np
import pytest
from test_engine_threaded import (
    SIMULATED_ONLY,
    assert_one_delay_draw_per_pass,
    assert_run_names_its_stuck_worker,
    failing_after_return,
    recorded_pass_draws,
    refuse_to_start,
    stuck_worker,
)

from dpsgd.engine import (
    DelayModel,
    ProblemSpec,
    RunConfig,
    TcpMasterServer,
    build_oracle,
    run_tcp,
)
from dpsgd.engine import tcp, wire
from dpsgd.errors import ConfigurationError, TransportError, WireProtocolError

# golden frames written out byte by byte, independent of the encoder
GOLDEN_PULL_REQ = b"DPSG" + b"\x00" + b"\x00\x00\x00\x00"
GOLDEN_SHUTDOWN = b"DPSG" + b"\x03" + b"\x00\x00\x00\x00"
GOLDEN_MODEL = (
    b"DPSG" + b"\x01" + b"\x20\x00\x00\x00"
    + b"\x03\x00\x00\x00\x00\x00\x00\x00"      # version 3
    + b"\x02\x00\x00\x00\x00\x00\x00\x00"      # dim 2
    + b"\x00\x00\x00\x00\x00\x00\xf0\x3f"      # 1.0
    + b"\x00\x00\x00\x00\x00\x00\x04\xc0"      # -2.5
)
GOLDEN_PUSH = (
    b"DPSG" + b"\x02" + b"\x1c\x00\x00\x00"
    + b"\x07\x00\x00\x00"                      # worker 7
    + b"\x05\x00\x00\x00\x00\x00\x00\x00"      # base version 5
    + b"\x01\x00\x00\x00\x00\x00\x00\x00"      # dim 1
    + b"\x00\x00\x00\x00\x00\x00\xe0\x3f"      # 0.5
)


def test_encoders_match_golden_bytes():
    assert wire.encode_pull_req() == GOLDEN_PULL_REQ
    assert wire.encode_shutdown() == GOLDEN_SHUTDOWN
    assert wire.encode_model(3, np.array([1.0, -2.5])) == GOLDEN_MODEL
    assert wire.encode_push(7, 5, np.array([0.5])) == GOLDEN_PUSH


def test_decoders_recover_golden_frames():
    t, body = wire.decode_frame(GOLDEN_PULL_REQ)
    assert (t, body) == (wire.PULL_REQ, None)
    t, body = wire.decode_frame(GOLDEN_SHUTDOWN)
    assert (t, body) == (wire.SHUTDOWN, None)
    t, body = wire.decode_frame(GOLDEN_MODEL)
    assert t == wire.MODEL
    assert body.version == 3
    assert np.array_equal(body.values, [1.0, -2.5])
    t, body = wire.decode_frame(GOLDEN_PUSH)
    assert t == wire.PUSH
    assert (body.worker_id, body.base_version) == (7, 5)
    assert np.array_equal(body.delta, [0.5])


def test_push_round_trip_is_bitwise():
    delta = np.random.default_rng(3).normal(size=17)
    _, body = wire.decode_frame(wire.encode_push(2, 11, delta))
    assert np.array_equal(body.delta, delta)


@pytest.mark.parametrize(
    "frame,match",
    [
        (b"XPSG" + GOLDEN_PULL_REQ[4:], "bad magic"),
        (b"DPSG" + b"\x09" + b"\x00\x00\x00\x00", "unknown message type"),
        (GOLDEN_PULL_REQ[:6], "truncated header"),
        (GOLDEN_MODEL[:20], "payload bytes"),
        (GOLDEN_PULL_REQ + b"\x00", "payload bytes"),
    ],
)
def test_malformed_frames_rejected(frame, match):
    with pytest.raises(WireProtocolError, match=match):
        wire.decode_frame(frame)


def test_zero_dim_and_length_lies_rejected():
    with pytest.raises(WireProtocolError, match="shape"):
        wire.encode_model(0, np.zeros(0))
    # dim field says 2 but only one value follows
    payload = (3).to_bytes(8, "little") + (2).to_bytes(8, "little") + b"\x00" * 8
    frame = wire.encode_frame(wire.MODEL, payload)
    with pytest.raises(WireProtocolError, match="implied by dim"):
        wire.decode_frame(frame)
    # dim field says 0
    payload = (3).to_bytes(8, "little") + (0).to_bytes(8, "little")
    with pytest.raises(WireProtocolError, match="zero-dimension"):
        wire.decode_frame(wire.encode_frame(wire.MODEL, payload))
    with pytest.raises(WireProtocolError, match="no payload"):
        wire.decode_frame(wire.encode_frame(wire.PULL_REQ, b"\x01"))


def tcp_config(**overrides):
    base = dict(
        T=10,
        M=1,
        nW=2,
        p=1,
        B=2,
        eta=0.1,
        rho_schedule={"kind": "constant", "value": 0.5},
        seed=77,
        problem=ProblemSpec(name="quadratic", n=40, dim=5, data_seed=2),
        execution="threaded",
    )
    base.update(overrides)
    return RunConfig(**base)


def test_localhost_tcp_run_completes():
    cfg = tcp_config()
    oracle = build_oracle(cfg.problem, cfg.seed)
    res = run_tcp(cfg, oracle)
    assert res.mode == "tcp"
    assert res.version == cfg.T
    assert np.all(np.isfinite(res.final.values))
    assert res.counters.pushes_applied == cfg.T * cfg.M
    assert res.counters.malformed_frames == 0
    assert len(res.metrics) == cfg.T


class ExplodingOracle:
    n = 10
    dim = 3

    def grad_at(self, idx, x):
        raise ValueError("bad gradient")


@pytest.mark.parametrize("p", [1, 2])
def test_tcp_worker_failure_surfaces_as_transport_error(p):
    cfg = tcp_config(T=5, nW=1, p=p, B=1, M=1)
    with pytest.raises(TransportError, match="worker failed"):
        run_tcp(cfg, ExplodingOracle())


@pytest.mark.parametrize("p,fail", [(2, False), (2, True), (1, False)])
def test_tcp_run_leaves_no_thread_behind(p, fail):
    cfg = tcp_config(T=6, p=p)
    before = threading.active_count()
    if fail:
        with pytest.raises(TransportError, match="worker failed"):
            run_tcp(cfg, ExplodingOracle())
    else:
        run_tcp(cfg, build_oracle(cfg.problem, cfg.seed))
    assert threading.active_count() == before, threading.enumerate()


@pytest.mark.parametrize("entry", ["run_tcp", "run_tcp_master"])
@pytest.mark.parametrize("name", sorted(SIMULATED_ONLY))
def test_tcp_rejects_simulated_only_settings_before_binding(monkeypatch,
                                                            entry, name):
    cfg = tcp_config(delay=SIMULATED_ONLY[name])
    oracle = build_oracle(cfg.problem, cfg.seed)
    before = threading.active_count()

    def refuse(*args):
        raise AssertionError("started or bound before the config was rejected")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(socket.socket, "bind", refuse)
    with pytest.raises(ConfigurationError, match="simulated"):
        getattr(tcp, entry)(cfg, oracle, np.zeros(oracle.dim))
    assert threading.active_count() == before, threading.enumerate()


@pytest.mark.parametrize("entry", ["run_tcp", "run_tcp_master",
                                   "run_tcp_worker"])
def test_tcp_rejects_traces_before_binding_or_connecting(monkeypatch, entry):
    # traces do not cross the wire: a TCP run could only return none
    cfg = tcp_config(trace_overwrites=True)
    oracle = build_oracle(cfg.problem, cfg.seed)
    before = threading.active_count()

    def refuse(*args):
        raise AssertionError(
            "started, bound or connected before the config was rejected")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(socket.socket, "bind", refuse)
    monkeypatch.setattr(socket.socket, "connect", refuse)
    args = (("127.0.0.1", 1), 0) if entry == "run_tcp_worker" else (
        np.zeros(oracle.dim),)
    with pytest.raises(ConfigurationError, match="threaded"):
        getattr(tcp, entry)(cfg, oracle, *args)
    assert threading.active_count() == before, threading.enumerate()


@pytest.mark.parametrize("fail", [False, True])
def test_run_tcp_master_closes_the_server_it_was_given(monkeypatch, fail):
    cfg = tcp_config(T=4)
    oracle = build_oracle(cfg.problem, cfg.seed)
    init = np.zeros(oracle.dim)
    server = TcpMasterServer(cfg, init)
    server.start()
    address = server.address
    workers = []
    if fail:
        def starved(*args, **kwargs):
            raise TransportError("master starved: no push arrived in time")

        monkeypatch.setattr(server, "next_delivery", starved)
        with pytest.raises(TransportError, match="starved"):
            tcp.run_tcp_master(cfg, oracle, init, server=server)
    else:
        workers = [threading.Thread(target=tcp.run_tcp_worker,
                                    args=(cfg, oracle, address, w))
                   for w in range(cfg.nW)]
        for th in workers:
            th.start()
        assert tcp.run_tcp_master(cfg, oracle, init,
                                  server=server).version == cfg.T
    for th in workers:
        th.join(timeout=30.0)
    assert server.connections == 0
    with pytest.raises(OSError):
        socket.create_connection(address, timeout=1.0).close()


def test_tcp_draws_each_passes_delay_once(monkeypatch):
    calls = recorded_pass_draws(monkeypatch)
    cfg = tcp_config(T=20, M=2, delay=DelayModel(kind="uniform", high=2e-3))
    res = run_tcp(cfg, build_oracle(cfg.problem, cfg.seed))
    passes = assert_one_delay_draw_per_pass(calls, cfg.nW)
    assert res.counters.pushes_received <= passes


def test_tcp_run_names_a_worker_that_does_not_stop(monkeypatch):
    release = stuck_worker(monkeypatch, tcp, "run_tcp_worker")
    cfg = tcp_config(T=6)
    oracle = build_oracle(cfg.problem, cfg.seed)
    assert_run_names_its_stuck_worker(lambda: run_tcp(cfg, oracle), release)


def test_tcp_run_stops_its_threads_when_a_worker_fails_to_start(monkeypatch):
    cfg = tcp_config(T=6)
    oracle = build_oracle(cfg.problem, cfg.seed)
    before = threading.active_count()
    refuse_to_start(monkeypatch, "worker1")
    with pytest.raises(RuntimeError, match="worker1"):
        run_tcp(cfg, oracle)
    assert threading.active_count() == before, threading.enumerate()


def test_tcp_worker_error_after_the_last_apply_fails_the_run(monkeypatch):
    failing_after_return(monkeypatch, tcp, "run_tcp_worker")
    cfg = tcp_config(T=6)
    with pytest.raises(TransportError,
                       match="worker failed: .*after its last pass"):
        run_tcp(cfg, build_oracle(cfg.problem, cfg.seed))


def _client(server):
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


@contextlib.contextmanager
def serving(server):
    """Run the server's one serving loop on a helper thread while the
    block runs; the server itself starts no thread."""
    stop = threading.Event()
    th = threading.Thread(target=server.serve,
                          args=(stop.is_set, time.monotonic() + 60.0))
    th.start()
    try:
        yield
    finally:
        stop.set()
        th.join(timeout=5.0)
    assert not th.is_alive()


def test_server_counts_garbage_and_keeps_serving():
    cfg = tcp_config()
    server = TcpMasterServer(cfg, np.zeros(5))
    server.start()
    try:
        with serving(server):
            bad = _client(server)
            bad.sendall(b"NOTAFRAMEATALL")
            # server drops the connection; a reset instead of clean EOF is
            # fine since our unread trailing bytes may trigger RST
            try:
                assert bad.recv(1) == b""
            except ConnectionResetError:
                pass
            bad.close()

            good = _client(server)
            good.sendall(wire.encode_pull_req())
            got = wire.decode_frame(_recv_frame(good))
            assert got[0] == wire.MODEL
            assert got[1].version == 0
            good.close()
            assert server.malformed_frames == 1
    finally:
        server.close()


def test_server_rejects_wrong_dim_push():
    cfg = tcp_config()
    server = TcpMasterServer(cfg, np.zeros(5))
    server.start()
    try:
        with serving(server):
            sock = _client(server)
            sock.sendall(wire.encode_push(0, 0, np.zeros(3)))
            assert sock.recv(1) == b""
            sock.close()
            assert server.malformed_frames == 1
    finally:
        server.close()


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open sockets")
def test_start_and_close_start_no_thread_and_leave_no_socket_open():
    threads, fds = threading.enumerate(), _open_fds()
    server = TcpMasterServer(tcp_config(), np.zeros(5))
    server.start()
    assert threading.enumerate() == threads
    address = server.address
    server.close()
    assert threading.enumerate() == threads
    assert _open_fds() == fds
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=5.0).close()


def _bad_pushes(nW):
    # PUSH frames the master cannot apply: no such worker, a base version
    # not yet published (0 is), and non-finite deltas
    finite = np.arange(5.0)
    return {
        "worker-id-nW": wire.encode_push(nW, 0, finite),
        "worker-id-max": wire.encode_push(2**32 - 1, 0, finite),
        "future-base": wire.encode_push(0, 1, finite),
        "nan-delta": wire.encode_push(0, 0, [0.0, np.nan, 0.0, 0.0, 0.0]),
        "inf-delta": wire.encode_push(1, 0, [0.0, 0.0, 0.0, 0.0, -np.inf]),
    }


@pytest.mark.parametrize("case", sorted(_bad_pushes(2)))
def test_server_rejects_unapplicable_push_and_keeps_serving(case):
    cfg = tcp_config(nW=2)
    server = TcpMasterServer(cfg, np.zeros(5))
    server.start()
    try:
        with serving(server):
            bad = _client(server)
            bad.sendall(_bad_pushes(cfg.nW)[case])
            assert bad.recv(1) == b""
            bad.close()
            assert server.malformed_frames == 1

            good = _client(server)
            good.sendall(wire.encode_pull_req())
            got = wire.decode_frame(_recv_frame(good))
            assert got[0] == wire.MODEL and got[1].version == 0
            good.close()
        with pytest.raises(TransportError, match="starved"):
            server.next_delivery(timeout=0.05)
    finally:
        server.close()


def test_server_queues_an_applicable_push():
    cfg = tcp_config(nW=2)
    server = TcpMasterServer(cfg, np.zeros(5))
    server.start()
    try:
        server.publish(3, np.ones(5))
        sock = _client(server)
        sock.sendall(wire.encode_push(1, 3, np.arange(5.0)))
        upd = server.next_delivery(timeout=5.0)
        assert (upd.worker_id, upd.base_version) == (1, 3)
        assert np.array_equal(upd.delta, np.arange(5.0))
        sock.close()
        assert server.malformed_frames == 0
    finally:
        server.close()


def test_pulls_see_whole_published_snapshots():
    # the server encodes MODEL from one published (version, values)
    # triple, so no frame mixes one version with another's values
    dim = 2000
    server = TcpMasterServer(tcp_config(), np.zeros(dim))
    server.start()
    done = threading.Event()
    sent = [0, 0]
    seen = [set(), set()]
    torn = []

    def client(i):
        with _client(server) as sock:
            while not done.is_set():
                sock.sendall(wire.encode_pull_req())
                sent[i] += 1
                kind, body = wire.decode_frame(_recv_frame(sock))
                seen[i].add(body.version)
                if kind != wire.MODEL or not np.array_equal(
                        body.values, np.full(dim, float(body.version))):
                    torn.append((i, kind, body.version))

    clients = [threading.Thread(target=client, args=(i,)) for i in range(2)]
    try:
        with serving(server):
            for th in clients:
                th.start()
            for k in range(1, 201):
                server.publish(k, np.full(dim, float(k)))
                time.sleep(5e-4)
            done.set()
            for th in clients:
                th.join(timeout=10.0)
                assert not th.is_alive()
    finally:
        done.set()
        server.close()
    assert torn == []
    assert all(len(versions) > 1 for versions in seen)
    assert server.pulls_served == sum(sent)


def test_transit_delays_the_delivery_not_the_next_pull():
    cfg = tcp_config(delay=DelayModel(kind="fixed", latency=0.3))
    server = TcpMasterServer(cfg, np.zeros(5))
    server.start()
    delivered = []

    def deliver():
        # the serving loop answers the pull while it waits for the push
        delivered.append(server.next_delivery(timeout=5.0))
        delivered.append(time.monotonic())

    helper = threading.Thread(target=deliver)
    try:
        with _client(server) as sock:
            helper.start()
            sent = time.monotonic()
            sock.sendall(wire.encode_push(0, 0, np.arange(5.0)))
            sock.sendall(wire.encode_pull_req())
            kind, body = wire.decode_frame(_recv_frame(sock))
            assert kind == wire.MODEL and body.version == 0
            assert time.monotonic() - sent < 0.3
            helper.join(timeout=10.0)
            upd, at = delivered
            assert at - sent >= 0.3
        assert (upd.worker_id, upd.base_version) == (0, 0)
    finally:
        server.close()


def test_server_answers_shutdown_after_stop():
    cfg = tcp_config()
    server = TcpMasterServer(cfg, np.zeros(5))
    server.start()
    try:
        server.broadcast_stop()
        with serving(server):
            sock = _client(server)
            sock.sendall(wire.encode_pull_req())
            assert _recv_frame(sock) == GOLDEN_SHUTDOWN
            sock.close()
    finally:
        server.close()


def test_server_starvation_raises():
    cfg = tcp_config()
    server = TcpMasterServer(cfg, np.zeros(5))
    server.start()
    try:
        with pytest.raises(TransportError, match="starved"):
            server.next_delivery(timeout=0.05)
    finally:
        server.close()


def _recv_frame(sock) -> bytes:
    header = b""
    while len(header) < wire.HEADER_SIZE:
        chunk = sock.recv(wire.HEADER_SIZE - len(header))
        assert chunk, "connection closed mid-header"
        header += chunk
    _, length = wire.split_header(header)
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        assert chunk, "connection closed mid-payload"
        payload += chunk
    return header + payload


def test_remote_workers_return_their_passes_at_the_end_of_a_listen_run():
    # a --listen run: the master serves a server it was given, and the
    # workers are still computing when the last apply lands
    cfg = tcp_config(T=4, B=1, compute_cost_s=0.3)
    oracle = build_oracle(cfg.problem, cfg.seed)
    init = np.zeros(oracle.dim)
    server = TcpMasterServer(cfg, init)
    server.start()
    passes, errors = {}, []

    def work(w):
        try:
            passes[w] = tcp.run_tcp_worker(cfg, oracle, server.address, w)
        except BaseException as exc:
            errors.append(exc)

    workers = [threading.Thread(target=work, args=(w,))
               for w in range(cfg.nW)]
    try:
        for th in workers:
            th.start()
        res = tcp.run_tcp_master(cfg, oracle, init, server=server)
    finally:
        server.close()
        for th in workers:
            th.join(timeout=30.0)
    assert errors == []
    assert sorted(passes) == list(range(cfg.nW))
    assert res.version == cfg.T
    assert res.counters.pushes_received <= sum(passes.values())


def test_a_stalled_peer_costs_only_its_own_connection():
    cfg = tcp_config(nW=2)
    server = TcpMasterServer(cfg, np.zeros(5))
    server.start()
    try:
        frame = wire.encode_push(0, 0, np.arange(5.0))
        half = wire.HEADER_SIZE + (len(frame) - wire.HEADER_SIZE) // 2
        stalled = _client(server)
        stalled.sendall(frame[:half])
        with _client(server) as good:
            good.sendall(wire.encode_push(1, 0, np.arange(5.0)))
            upd = server.next_delivery(timeout=1.0)
        assert (upd.worker_id, upd.base_version) == (1, 0)
        assert np.array_equal(upd.delta, np.arange(5.0))
        before = server.malformed_frames
        stalled.close()
        assert server.serve(lambda: server.connections == 0,
                            time.monotonic() + 5.0)
        assert server.malformed_frames == before
    finally:
        server.close()


def test_a_peer_that_does_not_read_holds_one_reply_and_no_apply():
    # 500 replies of 0.8 MB would take 400 MB of socket buffers, so the
    # server is left with an unsent reply long before it answers them all
    dim, pulls = 100_000, 500
    server = TcpMasterServer(tcp_config(nW=2), np.zeros(dim))
    server.start()
    try:
        with _client(server) as deaf, _client(server) as good:
            deaf.sendall(wire.encode_pull_req() * pulls)
            good.sendall(wire.encode_push(1, 0, np.ones(dim)))
            upd = server.next_delivery(timeout=5.0)
            assert upd.worker_id == 1 and np.array_equal(upd.delta,
                                                          np.ones(dim))
            assert 0 < server.pulls_served < pulls
        assert server.serve(lambda: server.connections == 0,
                            time.monotonic() + 5.0)
        assert server.malformed_frames == 0
    finally:
        server.close()


class ThreadRecordingOracle:
    """Records every thread alive while a gradient is taken."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.threads = set()
        self.grad_at_by_thread = {}

    def grad_at(self, i, x):
        self.threads.update(threading.enumerate())
        name = threading.current_thread().name
        self.grad_at_by_thread[name] = self.grad_at_by_thread.get(name, 0) + 1
        return self._oracle.grad_at(i, x)

    def __getattr__(self, name):
        return getattr(self._oracle, name)


def test_tcp_send_and_thread_budget(monkeypatch):
    # counts only, never time; recorded on Python 3.11.7, numpy 2.4.6
    sends = []
    send_frame = tcp.send_frame

    def counting(sock, frame):
        sends.append(threading.current_thread().name)  # atomic
        return send_frame(sock, frame)

    monkeypatch.setattr(tcp, "send_frame", counting)
    cfg = tcp_config(T=20, M=2, p=2)
    oracle = ThreadRecordingOracle(build_oracle(cfg.problem, cfg.seed))
    before = set(threading.enumerate())
    caller = threading.current_thread().name
    res = run_tcp(cfg, oracle)
    assert res.version == cfg.T
    run_threads = {th.name for th in oracle.threads - before}
    assert run_threads <= {f"worker{w}{local}" for w in range(cfg.nW)
                           for local in ("", "-local-h1")}
    steps = cfg.p * cfg.B
    for w in range(cfg.nW):
        grads = sum(n for name, n in oracle.grad_at_by_thread.items()
                    if name.split("-")[0] == f"worker{w}")
        assert grads % steps == 0
        # one send per pass (its PUSH rides with the next PULL_REQ), plus
        # the final pull that gets SHUTDOWN
        assert sends.count(f"worker{w}") == grads // steps + 1
    # the master answers every pull with one send_frame call, in the
    # caller's own thread
    assert sends.count(caller) == res.counters.pulls_served
    assert len(sends) == 2 * res.counters.pulls_served
