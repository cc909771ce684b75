"""Network-backed campaign queue: the filesystem broker served over TCP.

:class:`~repro.core.queue.FilesystemBroker` scales campaigns across
machines only as far as a shared mount does — the paper's
"fault injection as a service" framing needs workers that attach over
the *network*.  This module adds exactly that, without inventing a
second queue implementation:

* :class:`BrokerServer` — a stdlib :mod:`socketserver` TCP server
  wrapping one ``FilesystemBroker`` state directory.  Every request is a
  single length-prefixed JSON frame (4-byte big-endian length + UTF-8
  JSON body; binary payloads travel base64-encoded inside the JSON);
  every response is one frame back.  Each frame names one op of the
  broker's op table and carries its args, and the server hands it to
  the broker's ``_call`` — the same ``op_<name>`` methods a local
  caller runs, with the same checks.  No op unpickles anything a
  client sent: task and context blobs stay opaque.
* :class:`TcpBroker` — the client: transport only (connect, retry with
  backoff, :class:`~repro.core.chaos.NetworkChaos`).  It inherits the
  typed :class:`~repro.core.queue.Broker` surface, so
  :class:`~repro.core.queue.QueueExecutor`,
  :func:`~repro.core.queue.run_worker` (``avfi worker``) and
  ``avfi queue-status`` work unchanged against ``tcp://host:port``.
* :func:`make_broker` — URL dispatch: a ``tcp://host:port`` string
  selects a :class:`TcpBroker`, anything else is a filesystem path.

Semantics are inherited, not re-implemented: claims stay atomic renames
*on the server*, leases/heartbeats/requeues/quarantine run the exact
code the conformance suite pins for the filesystem broker, and the
results checkpoint stays the server's ``results.jsonl``.  One semantic
actually improves: every lease and worker heartbeat is stamped with the
*server's* clock at receipt, so worker clock skew cannot fake (or hide)
an expiry.

A ``claim`` or ``read_results`` frame may carry ``wait_s``: on a miss,
the server parks the request until an op on the same root (a publish, a
requeue, an appended row) wakes it, or until ``wait_s`` passes — the
hand-off takes one round trip, not a poll period.

Delivery is at-least-once by design — a retried frame whose original
did execute (response lost to the network) can claim twice or append a
duplicate row, and the grid fold's identity dedupe absorbs it, exactly
as it absorbs a lease that expired after its worker finished.  The
:class:`~repro.core.chaos.NetworkChaos` wrapper exists to prove that
under deliberately hostile transport the folded campaign is still
byte-identical to a serial run.

Security: the protocol is unauthenticated and coordinators/workers
exchange pickles *through* the server (the server itself never loads
them).  Run broker endpoints on trusted networks only — the same trust
boundary a shared NFS queue directory already implies.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

# The name patterns are re-exported: they belong to the op table in
# queue.py, and callers know them from here.
from .queue import (  # noqa: F401
    _TASK_NAME_RE,
    _WORKER_ID_RE,
    MAX_WAIT_S,
    Broker,
    BrokerError,
    FilesystemBroker,
    check_lease_s,
)

__all__ = [
    "BrokerError",
    "BrokerServer",
    "FrameError",
    "TcpBroker",
    "is_broker_url",
    "make_broker",
]

#: Hard ceiling on one frame (a campaign context with NN weights is the
#: largest legitimate payload); anything bigger is a corrupt length
#: prefix and must not become a multi-gigabyte allocation.
MAX_FRAME_BYTES = 512 * 1024 * 1024

_HEADER = struct.Struct(">I")


class FrameError(ConnectionError):
    """A frame could not be read: torn mid-transfer, or an implausible
    length prefix (stream desync / corruption)."""


def encode_frame(obj: dict) -> bytes:
    body = json.dumps(obj).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def send_frame(sock: socket.socket, obj: dict) -> None:
    sock.sendall(encode_frame(obj))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly ``n`` bytes, ``None`` on clean EOF *before* the first
    byte, :class:`FrameError` on EOF mid-way (a torn frame)."""
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(min(n - len(buf), 1 << 20))
        if not chunk:
            if not buf:
                return None
            raise FrameError(f"connection closed mid-frame ({len(buf)}/{n} bytes)")
        buf += chunk
    return buf


def recv_frame(sock: socket.socket) -> dict | None:
    """One length-prefixed JSON frame, or ``None`` on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("connection closed between frame header and body")
    try:
        return json.loads(body)
    except ValueError as exc:  # JSONDecodeError, or invalid UTF-8
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc


# ----------------------------------------------------------------------
# URL dispatch
# ----------------------------------------------------------------------


def is_broker_url(spec) -> bool:
    """True when ``spec`` names a broker endpoint rather than a
    directory (any ``scheme://`` string)."""
    return isinstance(spec, str) and "://" in spec


def parse_tcp_url(url: str) -> tuple[str, int]:
    """``"tcp://host:port"`` → ``(host, port)``; raises ``ValueError``
    on any other scheme or a missing port."""
    parts = urlsplit(url)
    if parts.scheme != "tcp":
        raise ValueError(
            f"unsupported broker URL {url!r} (only tcp://host:port is supported)"
        )
    if not parts.hostname or parts.port is None:
        raise ValueError(f"broker URL {url!r} needs both a host and a port")
    return parts.hostname, parts.port


def make_broker(
    spec: str | Path,
    lease_s: float = 60.0,
    timeout_s: float = 30.0,
):
    """Resolve a queue location to a broker: ``tcp://host:port`` gets a
    :class:`TcpBroker`, anything else is a
    :class:`~repro.core.queue.FilesystemBroker` directory.  This is the
    single dispatch point behind ``--queue-dir`` everywhere
    (:class:`~repro.core.queue.QueueExecutor`, ``avfi worker``,
    ``avfi queue-status``)."""
    if is_broker_url(spec):
        host, port = parse_tcp_url(str(spec))
        return TcpBroker(host, port, lease_s=lease_s, timeout_s=timeout_s)
    return FilesystemBroker(spec, lease_s=lease_s)


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------


class _ServedBroker(FilesystemBroker):
    """The broker a :class:`BrokerServer` runs ops on: a
    :class:`~repro.core.queue.FilesystemBroker` that can be closed.

    :meth:`close` refuses every later op and waits out the ops running.
    An op parked in a wait is not running: it returns its empty answer
    if it wakes into a closed broker, so once :meth:`close` returns,
    nothing touches the root.
    """

    def __init__(self, root: str | Path, lease_s: float = 60.0):
        super().__init__(root, lease_s=lease_s)
        self._gate = threading.Condition()
        self._running = 0
        self._closed = False

    def _call(self, op: str, args: dict | None = None):
        with self._gate:
            if self._closed:
                raise BrokerError("the broker server is stopped")
            self._running += 1
        try:
            return super()._call(op, args)
        finally:
            self._leave()

    def _leave(self) -> None:
        with self._gate:
            self._running -= 1
            if not self._running:
                self._gate.notify_all()

    def _park(self, waker, generation: int, timeout: float) -> bool:
        self._leave()
        try:
            waker.wait(generation, timeout)
        finally:
            with self._gate:
                self._running += 1
                closed = self._closed
        return not closed

    def close(self, timeout: float = 10.0) -> None:
        with self._gate:
            self._closed = True
            self._gate.wait_for(lambda: not self._running, timeout)


class _BrokerRequestHandler(socketserver.BaseRequestHandler):
    """One connection: a loop of request frame → response frame.  A torn
    frame or transport error drops the connection; the client retries on
    a fresh one (at-least-once).  Once the server stops, the connection
    closes after the reply in flight."""

    def handle(self) -> None:
        sock = self.request
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        server = self.server
        while True:
            if not server._idle(sock, True):
                return  # stopped: closed without reading another request
            try:
                frame = recv_frame(sock)
            except (FrameError, OSError):
                return  # torn/corrupt frame: the request never happened
            finally:
                server._idle(sock, False)
            if frame is None:
                return  # clean EOF
            try:
                result = server.dispatch(frame)
                response = {"ok": True, "result": result}
            except Exception as exc:  # noqa: BLE001 — relayed to the client
                response = {
                    "ok": False,
                    "error": str(exc) or repr(exc),
                    "error_type": type(exc).__name__,
                }
            try:
                send_frame(sock, response)
            except OSError:
                return


class BrokerServer(socketserver.ThreadingTCPServer):
    """A :class:`~repro.core.queue.FilesystemBroker` served over TCP.

    The state directory is authoritative and durable — stop the server,
    restart it on the same ``root``, and every pending task, lease,
    parked failure and checkpoint row is still there (workers reconnect
    and carry on).  Concurrency needs no extra locking: request threads
    call the same atomic file operations that already make the broker
    safe for concurrent *processes*.

    Usage::

        server = BrokerServer(state_dir, port=0).start()
        print(server.address)        # tcp://127.0.0.1:<port>
        ...
        server.stop()
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        root: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_s: float = 60.0,
    ):
        self.broker = _ServedBroker(root, lease_s=lease_s)
        self.broker.ensure_layout()
        self.broker.repair_results()
        self._serve_thread: threading.Thread | None = None
        #: Sockets of connections waiting for their next request, and
        #: whether stop() ran (both under ``_conn_lock``).
        self._idle_socks: set[socket.socket] = set()
        self._stopped = False
        self._conn_lock = threading.Lock()
        super().__init__((host, port), _BrokerRequestHandler)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"tcp://{host}:{port}"

    def start(self) -> "BrokerServer":
        """Serve on a daemon thread; returns ``self`` for chaining."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"broker-server-{self.server_address[1]}",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Stop serving: no op reaches the root once this returns.

        The listener closes, ops running finish, and later ones are
        refused.  A connection waiting for its next request is closed.
        One whose op is parked in a wait (a waiting claim, say) gets that
        op's empty answer when the wait ends, without the op touching
        the root, and then closes; ``stop()`` does not wait for it.
        """
        with self._conn_lock:
            self._stopped = True
            idle = list(self._idle_socks)
        self.shutdown()
        self.server_close()
        self.broker.close()
        for sock in idle:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None

    def _idle(self, sock: socket.socket, waiting: bool) -> bool:
        """Mark a connection as waiting for a request (or not); ``False``
        once the server is stopped."""
        with self._conn_lock:
            if waiting:
                if self._stopped:
                    return False
                self._idle_socks.add(sock)
            else:
                self._idle_socks.discard(sock)
            return True

    # -- dispatch ------------------------------------------------------

    def dispatch(self, frame: dict) -> object:
        """Run one request frame's op on the served broker."""
        return self.broker._call(frame.get("op"), frame.get("args") or {})


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


class TcpBroker(Broker):
    """The network :class:`~repro.core.queue.Broker`: every op is one
    request/response frame against a :class:`BrokerServer`.

    Transport errors (dropped connection, torn frame, timeout) reconnect
    and retry with exponential backoff — delivery is at-least-once, and
    every operation tolerates re-execution: a duplicate claim expires
    back, a duplicate append dedupes at the grid fold, a duplicate
    release reports the claim already gone.  Application errors the
    server reports (:class:`BrokerError`) are never retried.

    One connection is held per broker instance, serialised by a lock —
    the lease-keeper thread and the drain loop share it safely.  The
    instance pickles (for ``fork``-spawned local drain workers) by
    dropping the socket; the child reconnects on first use.

    ``chaos`` accepts a seeded
    :class:`~repro.core.chaos.NetworkChaos` whose injected drops,
    partial frames, delays and reconnect storms travel the *same* error
    paths as real network faults.
    """

    def __init__(
        self,
        host: str,
        port: int,
        lease_s: float = 60.0,
        timeout_s: float = 30.0,
        retries: int = 10,
        retry_backoff_s: float = 0.05,
        chaos=None,
    ):
        self.host = host
        self.port = int(port)
        self.lease_s = check_lease_s(lease_s)
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.chaos = chaos
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    @property
    def address(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    def __repr__(self) -> str:
        return f"TcpBroker({self.address!r}, lease_s={self.lease_s})"

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_sock"] = None
        state["_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._sock = None
        self._lock = threading.Lock()

    # -- transport -----------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        sock.settimeout(self.timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        return sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def _call(self, op: str, args: dict | None = None):
        frame = encode_frame({"op": op, "args": args or {}})
        with self._lock:
            last_error: Exception | None = None
            for attempt in range(self.retries + 1):
                if attempt:
                    # Deterministic backoff, capped at the timeout: a
                    # reconnect storm against a briefly-unreachable
                    # server must not busy-spin.
                    time.sleep(
                        min(self.retry_backoff_s * (2 ** (attempt - 1)), 2.0)
                    )
                chaos = self.chaos.plan() if self.chaos is not None else None
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    if chaos is not None:
                        self._inject_pre_send(chaos, frame)
                    self._sock.sendall(frame)
                    if chaos is not None and chaos.get("drop_after"):
                        # The request reached the server; losing the
                        # response forces a duplicate execution on retry
                        # — the at-least-once case.
                        self._drop_connection()
                        raise FrameError("chaos: connection dropped before response")
                    response = recv_frame(self._sock)
                    if response is None:
                        raise FrameError("server closed the connection")
                except (OSError, FrameError) as exc:
                    last_error = exc
                    self._drop_connection()
                    continue
                if chaos is not None and chaos.get("reconnect"):
                    self._drop_connection()  # next call reconnects (storm)
                if not response.get("ok"):
                    raise BrokerError(
                        f"broker op {op!r} failed on {self.address}: "
                        f"{response.get('error_type', 'Error')}: "
                        f"{response.get('error', '')}"
                    )
                return response.get("result")
        raise ConnectionError(
            f"broker {self.address} unreachable after {self.retries + 1} "
            f"attempts: {last_error!r}"
        )

    def _wait_arg(self, wait_s) -> dict:
        """As :meth:`Broker._wait_arg`, but a wait the server would serve
        (it clamps to :data:`MAX_WAIT_S`) must stay under half the socket
        timeout: a timed-out waiting claim is re-sent, and the server may
        already have granted the first one."""
        arg = super()._wait_arg(wait_s)
        if min(arg.get("wait_s", 0.0), MAX_WAIT_S) > self.timeout_s / 2:
            raise BrokerError(
                f"wait_s={wait_s} is not well under this broker's "
                f"timeout_s={self.timeout_s} (at most half of it)"
            )
        return arg

    def _inject_pre_send(self, chaos: dict, frame: bytes) -> None:
        if chaos.get("delay_s"):
            time.sleep(chaos["delay_s"])
        if chaos.get("drop_before"):
            self._drop_connection()
            raise FrameError("chaos: connection dropped before send")
        if chaos.get("partial_frame"):
            # Half a frame, then a hangup: the server must discard the
            # torn request without executing it.
            try:
                self._sock.sendall(frame[: max(1, len(frame) // 2)])
            finally:
                self._drop_connection()
            raise FrameError("chaos: partial frame sent")
