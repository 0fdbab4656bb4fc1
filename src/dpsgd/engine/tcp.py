"""TCP transport: a socket front end over the shared master loop.

One persistent connection per worker. The worker drives the dialogue:
it sends PULL_REQ and gets back MODEL (or SHUTDOWN once the run is
over), computes a local pass, then sends PUSH. The master side answers
pulls from whatever model is currently published, so a slow worker
never blocks an apply. The k-th push accepted on a connection gets the
transit of that worker's pass k, and the server holds it until it is
due, as the in-process hub does: the worker does not wait, so it sends
its next PULL_REQ at once. The simulated-only settings, enforce="block"
and seeded-jitter delays, are rejected before the server binds.

A malformed frame is fatal for its connection only: the master counts
it, closes that socket, and keeps serving the rest. So is a well-formed
PUSH the master could not apply: a delta of the wrong dimension or with
a non-finite value, a worker id outside [0, nW), or a base version above
the published one. Such a push is never queued. Traces do not cross the
wire; use the threaded runtime to record overwrite traces.
"""
from __future__ import annotations

import socket
import threading
import time

import numpy as np

from ..core import UpdateVector
from ..errors import TransportError, WireProtocolError
from .config import RunConfig
from .master import Mailbox, serve_master
from .result import RunResult
from .sim import pass_delays
from .threaded import run_workers, worker_loop
from . import wire

_POLL_S = 0.05


def _recv_exact(sock: socket.socket, n: int, allow_eof: bool = False):
    """Read exactly n bytes; None on a clean EOF before the first byte."""
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except OSError as exc:
            raise TransportError(f"socket read failed: {exc}")
        if not chunk:
            if allow_eof and not buf:
                return None
            raise TransportError(
                f"connection closed mid-frame ({len(buf)}/{n} bytes)"
            )
        buf.extend(chunk)
    return bytes(buf)


def read_frame(sock: socket.socket, allow_eof: bool = False):
    """One (msg_type, decoded payload) off the socket; None on clean EOF."""
    header = _recv_exact(sock, wire.HEADER_SIZE, allow_eof=allow_eof)
    if header is None:
        return None
    msg_type, length = wire.split_header(header)
    payload = _recv_exact(sock, length) if length else b""
    return msg_type, wire.decode_payload(msg_type, payload)


def send_frame(sock: socket.socket, frame: bytes) -> None:
    try:
        sock.sendall(frame)
    except OSError as exc:
        raise TransportError(f"socket write failed: {exc}")


class TcpMasterServer(Mailbox):
    """Accepts worker connections and funnels their pushes to the master.

    start() binds and spawns the accept thread; the owner then runs the
    master against this mailbox and finally calls broadcast_stop() and
    close().
    """

    def __init__(self, cfg: RunConfig, initial: np.ndarray,
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__(cfg, initial)
        self._dim = int(initial.shape[0])
        self._closing = False
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._conns: list[socket.socket] = []
        self._host = host
        self._port = port

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise TransportError("server not started")
        return self._listener.getsockname()[:2]

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen()
        # close() shuts the listener down, which wakes a blocked accept()
        # on Linux; where it does not, the accept loop polls a flag
        listener.settimeout(_POLL_S)
        self._listener = listener
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                if self._closing:
                    return
                continue
            except OSError:
                return  # listener shut down or closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._cv:
                self._conns.append(conn)
            th = threading.Thread(target=self._serve_conn, args=(conn,),
                                  daemon=True)
            self._handlers.append(th)
            th.start()

    def _count_malformed(self) -> None:
        with self._cv:
            self.malformed_frames += 1

    def _serve_conn(self, conn: socket.socket) -> None:
        accepted = 0  # pushes queued from this connection, one per pass
        try:
            while True:
                try:
                    got = read_frame(conn, allow_eof=True)
                except WireProtocolError:
                    self._count_malformed()
                    return
                except TransportError:
                    return
                if got is None:
                    return  # worker hung up cleanly
                msg_type, body = got
                if msg_type == wire.PULL_REQ:
                    # encode from the snapshot, outside the lock that
                    # publish() and every other pull take
                    pub = self.pull()
                    send_frame(conn, wire.encode_shutdown() if pub.stop
                               else wire.encode_model(pub.version, pub.values))
                    if pub.stop:
                        return
                elif msg_type == wire.PUSH:
                    if not self._applicable(body):
                        self._count_malformed()
                        return
                    _, transit = pass_delays(self._cfg, body.worker_id,
                                             accepted)
                    self.push(
                        UpdateVector(
                            delta=body.delta,
                            base_version=body.base_version,
                            worker_id=body.worker_id,
                        ),
                        transit,
                    )
                    accepted += 1
                elif msg_type == wire.SHUTDOWN:
                    return
                else:  # MODEL from a worker makes no sense
                    self._count_malformed()
                    return
        finally:
            conn.close()

    def _applicable(self, push: wire.PushMessage) -> bool:
        """Whether the master can apply push; it cannot apply a future base.

        The version is read without the lock: it only grows, and an
        honest base came from a MODEL frame encoded after publish() set
        it, so a read here never sees less than that base.
        """
        return (
            push.delta.shape[0] == self._dim
            and 0 <= push.worker_id < self._cfg.nW
            and push.base_version <= self._published.version
            and bool(np.isfinite(push.delta).all())
        )

    def close(self) -> None:
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # never listened, or the platform refuses; the poll ends it
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._cv:
            conns = list(self._conns)
        for conn in conns:
            conn.close()
        for th in self._handlers:
            th.join(timeout=5.0)


def connect_with_retries(address: tuple[str, int], attempts: int = 40,
                         wait_s: float = 0.25) -> socket.socket:
    last: Exception | None = None
    for _ in range(attempts):
        try:
            sock = socket.create_connection(address, timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            time.sleep(wait_s)
    raise TransportError(f"could not reach master at {address}: {last}")


def run_tcp_worker(cfg: RunConfig, oracle, address: tuple[str, int],
                   worker_id: int, attempts: int = 40) -> int:
    """Pull/compute/push against a remote master until SHUTDOWN.

    The worker's p - 1 local helper threads live as long as its connection
    and are joined before it returns or raises; an error in any local
    thread is raised from here. Returns the number of completed passes.
    """
    sock = connect_with_retries(address, attempts=attempts)

    def pull():
        send_frame(sock, wire.encode_pull_req())
        msg_type, body = read_frame(sock)
        if msg_type == wire.SHUTDOWN:
            return None
        if msg_type != wire.MODEL:
            raise WireProtocolError(
                f"expected MODEL or SHUTDOWN, got type {msg_type}"
            )
        if body.values.shape[0] != oracle.dim:
            raise WireProtocolError(
                f"model dim {body.values.shape[0]} != oracle dim {oracle.dim}"
            )
        return body

    def push(update: UpdateVector, pass_idx: int) -> None:
        send_frame(sock, wire.encode_push(worker_id, update.base_version,
                                          update.delta))

    with sock:
        return worker_loop(cfg, oracle, worker_id, pull, push)


def run_tcp_master(cfg: RunConfig, oracle, init,
                   host: str = "127.0.0.1", port: int = 0,
                   server: TcpMasterServer | None = None) -> RunResult:
    """Serve a full run over TCP; workers connect from elsewhere."""
    init = np.asarray(init, dtype=float)
    own_server = server is None
    if server is None:
        server = TcpMasterServer(cfg, init, host=host, port=port)
        server.start()
    start = time.monotonic()
    try:
        master = serve_master(cfg, oracle, init, server)
    finally:
        server.broadcast_stop()
        if own_server:
            # give blocked workers one pull round-trip to see the stop flag
            time.sleep(2 * _POLL_S)
            server.close()
    master.counters.pulls_served = server.pulls_served
    master.counters.malformed_frames = server.malformed_frames
    return master.result("tcp", time.monotonic() - start)


def run_tcp(cfg: RunConfig, oracle, init=None,
            host: str = "127.0.0.1", port: int = 0) -> RunResult:
    """All-in-one localhost run: master here, nW worker threads over TCP."""
    init = np.zeros(oracle.dim) if init is None else np.asarray(init, float)
    server = TcpMasterServer(cfg, init, host=host, port=port)
    server.start()

    def work(w: int) -> None:
        run_tcp_worker(cfg, oracle, server.address, w)

    return run_workers(cfg, oracle, init, server, work, "tcp")
