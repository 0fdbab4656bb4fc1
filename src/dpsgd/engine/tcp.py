"""TCP transport: a socket front end over the shared master loop.

One persistent connection per worker. The worker drives the dialogue:
it sends PULL_REQ and gets back MODEL (or SHUTDOWN once the run is
over), then computes a local pass. It holds the pass's PUSH and sends it
with its next PULL_REQ, in one send. The master side answers pulls from
whatever model is currently published, so a slow worker never blocks an
apply. The k-th push accepted on a connection gets the transit of that
worker's pass k, and the server holds it until it is due, as the
in-process hub does: the worker does not wait for it. A config this
runtime cannot honour (RunConfig.check_runtime) is rejected before the
server binds or a worker connects: the simulated-only settings, and
overwrite traces, which do not cross the wire.

The server starts no thread. Its listener, its connections and one end
of a socketpair are non-blocking and sit in one selector. It differs
from the in-process hub only in how it waits and is woken: the mailbox's
wait loop, serve(), runs in the master's own thread inside next_delivery
and again in the drain; each wait (_wait) releases the mailbox lock and
answers the sockets, and wake() writes a byte to the socketpair.
Each readiness event takes one recv into the connection's buffer and
answers every whole frame in it. A reply that does not fit the socket
is kept, and its connection is polled for write only until the reply is
sent, so a peer that does not read costs one reply of memory and half a
frame never blocks an apply.

Both roles run threaded.run_workers: run_tcp with its nW worker threads,
run_tcp_master with none. After the last apply the server drains: it
keeps serving, and answers every PULL_REQ with SHUTDOWN, until every
local worker thread has exited and every connection has closed, for at
most threaded._JOIN_TIMEOUT_S. The server is closed on every exit path.

A malformed frame is fatal for its connection only: the master counts
it, closes that socket, and keeps serving the rest. So is a well-formed
PUSH the master could not apply: a delta of the wrong dimension or with
a non-finite value, a worker id outside [0, nW), or a base version above
the published one. Such a push is never queued. A connection that closes
mid-frame is dropped without being counted.
"""
from __future__ import annotations

import contextlib
import selectors
import socket
import time

import numpy as np

from ..core import UpdateVector
from ..errors import TransportError, WireProtocolError
from .config import RunConfig
from .master import Mailbox
from .result import RunResult
from .sim import pass_delays
from .threaded import run_workers, worker_loop
from . import wire

_RECV_BYTES = 1 << 16


class Connection:
    """One socket and the bytes received on it not yet cut into frames.

    Received chunks are kept as they came and joined only once they hold
    the next whole header or frame: a frame that arrives in one recv is
    never copied, and one that takes several is copied once. Decoded
    vectors are read-only views of those bytes. The server also keeps
    here the reply bytes not yet sent and the pushes it has accepted.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.unsent = memoryview(b"")
        self.closing = False  # close once unsent is sent: SHUTDOWN went out
        self.accepted = 0  # pushes queued from this connection, one per pass
        self._buf = b""
        self._off = 0  # bytes of _buf already framed
        self._more: list[bytes] = []  # chunks received after _buf
        self.pending = 0  # bytes received and not yet framed
        self._need = wire.HEADER_SIZE  # pending bytes the next frame needs

    def recv(self) -> bool:
        """One recv into the buffer; False on EOF."""
        try:
            data = self.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return True
        except OSError as exc:
            raise TransportError(f"socket read failed: {exc}")
        if not data:
            return False
        if self.pending:
            self._more.append(data)
        else:
            self._buf, self._off = data, 0
        self.pending += len(data)
        return True

    def next_frame(self):
        """The next whole (msg_type, decoded payload), or None for now."""
        if self.pending < self._need:
            return None
        if self._more:
            self._buf = b"".join([memoryview(self._buf)[self._off:],
                                  *self._more])
            self._off, self._more = 0, []
        view = memoryview(self._buf)
        head = self._off + wire.HEADER_SIZE
        msg_type, length = wire.split_header(view[self._off:head])
        end = head + length
        if end > len(self._buf):
            self._need = end - self._off
            return None
        body = wire.decode_payload(msg_type, view[head:end])
        self._off = end
        self.pending = len(self._buf) - end
        self._need = wire.HEADER_SIZE
        return msg_type, body

    def send_rest(self) -> None:
        """Send what fits of the unsent reply."""
        self.unsent = self.unsent[send_frame(self.sock, self.unsent):]


def read_frame(conn: Connection):
    """The next (msg_type, decoded payload) on conn."""
    while True:
        got = conn.next_frame()
        if got is not None:
            return got
        if not conn.recv():
            raise TransportError(
                f"connection closed mid-frame ({conn.pending} bytes in)"
            )


def send_frame(sock: socket.socket, frame: bytes) -> int:
    """Send frame; returns the bytes sent.

    A blocking socket sends it whole. A non-blocking one (the server's)
    sends what fits now, and the caller keeps the rest.
    """
    try:
        if sock.gettimeout() == 0.0:
            return sock.send(frame)
        sock.sendall(frame)
        return len(frame)
    except BlockingIOError:
        return 0
    except OSError as exc:
        raise TransportError(f"socket write failed: {exc}")


class TcpMasterServer(Mailbox):
    """Serves every worker connection from the thread that runs serve().

    start() binds a non-blocking listener into one selector and starts no
    thread. threaded.run_workers then runs the master against this
    mailbox, whose inherited next_delivery serves the sockets while it
    waits, and finally calls broadcast_stop(), drain() and close(). Of
    the Mailbox methods it overrides only _wait, wake, drain and close.
    """

    def __init__(self, cfg: RunConfig, initial: np.ndarray,
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__(cfg, initial, "tcp")
        self._dim = int(initial.shape[0])
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._conns: set[Connection] = set()
        self._wakeup: tuple[socket.socket, ...] = ()  # (read end, write end)
        self._bind_to = (host, port)

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise TransportError("server not started")
        return self._listener.getsockname()[:2]

    @property
    def connections(self) -> int:
        """Worker connections open now."""
        return len(self._conns)

    def start(self) -> None:
        listener = self._listener = socket.create_server(self._bind_to)
        listener.setblocking(False)
        self._wakeup = socket.socketpair()
        self._wakeup[1].setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, self._accept)
        self._selector.register(self._wakeup[0], selectors.EVENT_READ,
                                lambda: self._wakeup[0].recv(_RECV_BYTES))

    def _wait(self, seconds: float) -> None:
        """Answer the sockets for up to seconds, without the lock: the
        handlers take it to pull and push, and publish() from another
        thread is never held up by a select."""
        self._cv.release()
        try:
            for key, events in self._selector.select(seconds):
                if isinstance(key.data, Connection):
                    self._serve_conn(key.data, events)
                else:  # the listener, or a wake: serve() checks until()
                    key.data()
        finally:
            self._cv.acquire()

    def wake(self) -> None:
        """Write a byte that ends the select, if started and not closed."""
        with self._cv, contextlib.suppress(IndexError, OSError):
            self._wakeup[1].send(b"\0")  # OSError: closed, or a byte waits

    def drain(self, until, deadline: float) -> None:
        """Serve until until() holds and every connection has closed."""
        self.serve(lambda: until() and not self._conns, deadline)

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return  # the peer gave up already; the selector polls again
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = Connection(sock)
        self._conns.add(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _drop(self, conn: Connection) -> None:
        self._conns.discard(conn)
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _serve_conn(self, conn: Connection, events: int) -> None:
        """One readiness event: send the rest of conn's reply, or take one
        recv; then answer every whole frame received, until a reply is
        left unsent."""
        writing = bool(conn.unsent)
        try:
            if writing:
                conn.send_rest()
            elif not conn.recv():
                self._drop(conn)  # the worker hung up, cleanly or mid-frame
                return
            while not conn.unsent and not conn.closing:
                got = conn.next_frame()
                if got is None:
                    break
                self._answer(conn, *got)
        except (WireProtocolError, TransportError) as exc:
            self.malformed_frames += isinstance(exc, WireProtocolError)
            self._drop(conn)
            return
        if conn.closing and not conn.unsent:
            self._drop(conn)
        elif writing != bool(conn.unsent):
            self._selector.modify(
                conn.sock,
                selectors.EVENT_WRITE if conn.unsent else selectors.EVENT_READ,
                conn)

    def _answer(self, conn: Connection, msg_type: int, body) -> None:
        """Act on one frame; WireProtocolError if the peer broke protocol."""
        if msg_type == wire.PULL_REQ:
            pub = self.pull()
            if pub.stop:
                frame = wire.encode_shutdown()
                conn.closing = True
            else:
                frame = wire.encode_model(pub.version, pub.values)
            sent = send_frame(conn.sock, frame)
            conn.unsent = memoryview(frame)[sent:]
        elif msg_type == wire.PUSH:
            if not self._applicable(body):
                raise WireProtocolError("push the master cannot apply")
            _, transit = pass_delays(self._cfg, body.worker_id, conn.accepted)
            self.push(UpdateVector._adopt(body.delta, body.base_version,
                                          body.worker_id), transit)
            conn.accepted += 1
        elif msg_type == wire.SHUTDOWN:
            conn.closing = True
        else:  # MODEL from a worker makes no sense
            raise WireProtocolError("MODEL frame sent to the master")

    def _applicable(self, push: wire.PushMessage) -> bool:
        """Whether the master can apply push; it cannot apply a future base."""
        return (
            push.delta.shape[0] == self._dim
            and 0 <= push.worker_id < self._cfg.nW
            and push.base_version <= self._published.version
            and bool(np.isfinite(push.delta).all())
        )

    def close(self) -> None:
        """Close the connections, listener, selector and socketpair."""
        for conn in list(self._conns):
            self._drop(conn)
        if self._selector is not None:
            self._selector.close()
        if self._listener is not None:
            self._listener.close()
        with self._cv:  # not while wake() sends
            for sock in self._wakeup:
                sock.close()


def connect_with_retries(address: tuple[str, int]) -> socket.socket:
    """A TCP_NODELAY socket to the master: 40 tries, 0.25 s apart."""
    last: Exception | None = None
    for _ in range(40):
        try:
            sock = socket.create_connection(address, timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            time.sleep(0.25)
    raise TransportError(f"could not reach master at {address}: {last}")


def run_tcp_worker(cfg: RunConfig, oracle, address: tuple[str, int],
                   worker_id: int) -> int:
    """Pull/compute/push against a remote master until SHUTDOWN.

    A pass's PUSH goes out in the same send as the next PULL_REQ, so a
    pass costs one send and one buffered read. The worker's p - 1 local
    helper threads live as long as its connection and are joined before
    it returns or raises; an error in any local thread is raised from
    here. Returns the number of completed passes.
    """
    cfg.check_runtime("tcp")
    conn = Connection(connect_with_retries(address))
    held: list[bytes] = []  # the last pass's PUSH frame

    def pull():
        frame = wire.encode_pull_req()
        if held:
            frame = held.pop() + frame
        send_frame(conn.sock, frame)
        msg_type, body = read_frame(conn)
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
        held.append(wire.encode_push(worker_id, update.base_version,
                                     update.delta))

    with conn.sock:
        return worker_loop(cfg, oracle, worker_id, pull, push)


def run_tcp_master(cfg: RunConfig, oracle, init,
                   server: TcpMasterServer | None = None) -> RunResult:
    """Serve a full run over TCP; workers connect from elsewhere.

    Starts a server on a free localhost port unless given one (a master
    on a chosen address is TcpMasterServer(cfg, init, host, port), as
    --listen builds it), and closes it either way. Returns once the
    drain has seen every connection close, so every worker has had its
    SHUTDOWN.
    """
    init = np.asarray(init, dtype=float)
    if server is None:
        server = TcpMasterServer(cfg, init)
        server.start()
    return run_workers(cfg, oracle, init, server, None, "tcp")


def run_tcp(cfg: RunConfig, oracle, init=None) -> RunResult:
    """All-in-one localhost run: master here, nW worker threads over TCP."""
    init = np.zeros(oracle.dim) if init is None else np.asarray(init, float)
    server = TcpMasterServer(cfg, init)
    server.start()

    def work(w: int) -> None:
        run_tcp_worker(cfg, oracle, server.address, w)

    return run_workers(cfg, oracle, init, server, work, "tcp")
