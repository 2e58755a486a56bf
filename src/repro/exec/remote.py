"""Remote execution backend: ``map_tasks`` over a socket protocol.

The serial/thread/process backends scale to one host.  This module extends
the same order-preserving ``map_tasks(fn, tasks)`` contract across machines
so T-Daub's fixed-allocation rounds and benchmark-matrix shards can fan out
over a small fleet without any caller changes:

``WorkerServer`` (``python -m repro.exec.remote --port 7071``)
    Runs on each worker host.  Accepts connections, receives task frames
    and executes each task through a local :class:`ProcessExecutor` — which
    is what gives the remote backend the process backend's semantics for
    free: *enforced* per-task timeouts (the overrunning worker process is
    terminated) and worker-death detection (a crashed task process becomes
    an error outcome, never a hang).
``RemoteExecutor``
    The client side.  Distributes tasks over the configured workers (one
    dispatcher thread per worker connection, pulling from a shared queue),
    forwards the per-task ``timeout`` and the remaining batch
    :class:`Deadline` inside each frame, and reassembles outcomes in
    submission order.  A worker host that dies mid-task surfaces as a
    ``TaskOutcome`` with an error — exactly like a dead process-pool worker
    — and its remaining capacity is redistributed to the surviving workers.

Wire format
-----------
Frames are length-prefixed pickles: a 4-byte big-endian payload size
followed by the pickled message tuple.  Client to server::

    ("task", index, fn, task, timeout, deadline_remaining)
    ("blob_has", digest)
    ("blob_put", digest, shape, dtype, payload_bytes)
    ("bye",)

Server to client::

    ("outcome", index, value, error, seconds, timed_out, timeout_downgraded)
    ("blob_state", digest, known)

The ``blob_*`` frames are the remote half of the zero-copy data plane
(:mod:`repro.exec.dataplane`): base arrays travel once as content-addressed
blobs (same BLAKE2 digests the evaluation store uses), tasks carry tiny
``ArrayRef`` slices, and a worker that answers ``blob_has`` affirmatively —
from memory or from its spill backend (``--blob-dir`` for a local
directory, ``--store-url`` for a shared object store) — never receives
the bytes again.

Tasks whose function/payload cannot be pickled (e.g. closures) cannot
cross the wire; they fall back to inline execution in the calling process
with the timeout downgraded to soft — recorded via
``TaskOutcome.timeout_downgraded``, mirroring the process backend's spawn
fallback.

Security: pickle deserialization executes arbitrary code, so a worker
server must only listen on trusted networks.  An optional shared
``authkey`` adds an HMAC challenge-response handshake (same scheme as
``multiprocessing.connection``) so a stray client cannot submit work, but
it does not encrypt traffic.
"""

from __future__ import annotations

import hmac
import logging
import os
import pickle
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .. import faults
from ..resilience import RetryPolicy
from ..store.digest import array_digest
from .dataplane import (
    DataPlane,
    blob_is_known,
    ensure_task_blobs,
    evict_spilled_blobs,
    hydrate_task,
    install_blob,
    publish_blob,
)
from .executor import (
    BaseExecutor,
    Deadline,
    ProcessExecutor,
    TaskOutcome,
    _deadline_outcome,
    _run_inline,
    resolve_n_jobs,
)

__all__ = [
    "RemoteExecutor",
    "WorkerServer",
    "RemoteBlobPlane",
    "WireStats",
    "parse_worker_address",
]

logger = logging.getLogger(__name__)

_FRAME_HEADER = struct.Struct(">I")

#: Frames beyond this size are refused before allocation: a corrupt or
#: malicious header must not make a peer allocate gigabytes.
_MAX_FRAME_BYTES = 512 * 1024 * 1024

_CHALLENGE_PREFIX = b"#REPRO-CHALLENGE#"
_CHALLENGE_BYTES = 20


class ProtocolError(ConnectionError):
    """A peer violated the framing or handshake protocol."""


class LaneConnectError(ConnectionError):
    """A dispatch lane could not (re)connect — no task reached the worker."""


def parse_worker_address(spec: str | tuple) -> tuple[str, int]:
    """Normalize ``"host:port"`` (or an ``(host, port)`` pair) to a tuple.

    Bracketed IPv6 literals (``[::1]:7071``) are unbracketed, since
    ``socket.create_connection`` wants the bare address.
    """
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    text = str(spec).strip()
    host, separator, port = text.rpartition(":")
    if not separator or not host:
        raise ValueError(f"worker address {spec!r} is not of the form 'host:port'")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    return host, int(port)


@dataclass(frozen=True)
class WireStats:
    """Bytes-on-wire snapshot of one :class:`RemoteExecutor`.

    ``task_bytes_sent`` counts task frames, ``blob_bytes_sent`` the
    content-addressed blob pushes (the one-time data-plane transfers), and
    ``bytes_received`` every reply frame.  The split is what makes the
    zero-copy win measurable: with the data plane on, ``blob_bytes_sent``
    is paid once per base array while ``task_bytes_sent`` collapses to the
    size of the refs.
    """

    task_bytes_sent: int = 0
    blob_bytes_sent: int = 0
    bytes_received: int = 0

    @property
    def bytes_sent(self) -> int:
        return self.task_bytes_sent + self.blob_bytes_sent


# -- framing -------------------------------------------------------------------
def _send_frame(sock: socket.socket, message: tuple) -> None:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_FRAME_HEADER.pack(len(payload)) + payload)


def _recv_exactly(sock: socket.socket, n_bytes: int) -> bytes:
    chunks = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket, on_bytes=None) -> tuple:
    header = _recv_exactly(sock, _FRAME_HEADER.size)
    (size,) = _FRAME_HEADER.unpack(header)
    if size > _MAX_FRAME_BYTES:
        raise ProtocolError(f"refusing {size}-byte frame (cap {_MAX_FRAME_BYTES})")
    if on_bytes is not None:
        on_bytes(size + _FRAME_HEADER.size)
    return pickle.loads(_recv_exactly(sock, size))


# -- authentication ------------------------------------------------------------
# The handshake exchanges RAW length-prefixed byte strings, never pickles: a
# pre-authentication ``pickle.loads`` would hand arbitrary code execution to
# exactly the stray clients the authkey exists to shut out.
_WELCOME = b"#REPRO-WELCOME#"
_DENIED = b"#REPRO-DENIED#"
_MAX_HANDSHAKE_BYTES = 256


def _send_raw(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_FRAME_HEADER.pack(len(payload)) + payload)


def _recv_raw(sock: socket.socket) -> bytes:
    header = _recv_exactly(sock, _FRAME_HEADER.size)
    (size,) = _FRAME_HEADER.unpack(header)
    if size > _MAX_HANDSHAKE_BYTES:
        raise ProtocolError(f"refusing {size}-byte handshake frame")
    return _recv_exactly(sock, size)


def _digest(authkey: bytes, challenge: bytes) -> bytes:
    return hmac.new(authkey, challenge, "sha256").digest()


def _server_authenticate(sock: socket.socket, authkey: bytes | None) -> bool:
    if authkey is None:
        return True
    challenge = _CHALLENGE_PREFIX + os.urandom(_CHALLENGE_BYTES)
    _send_raw(sock, challenge)
    response = _recv_raw(sock)
    accepted = hmac.compare_digest(response, _digest(authkey, challenge))
    _send_raw(sock, _WELCOME if accepted else _DENIED)
    return accepted


def _client_authenticate(sock: socket.socket, authkey: bytes | None) -> None:
    if authkey is None:
        return
    challenge = _recv_raw(sock)
    if not challenge.startswith(_CHALLENGE_PREFIX):
        raise ProtocolError("worker did not issue an authentication challenge")
    _send_raw(sock, _digest(authkey, challenge))
    if _recv_raw(sock) != _WELCOME:
        raise ProtocolError("worker rejected the authentication key")


# -- server --------------------------------------------------------------------
class WorkerServer:
    """One worker host's task server (see the module docstring).

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` picks a free port (``.address`` reports
        the bound one — handy for tests).
    n_jobs:
        Cap on concurrent task processes across all connections.  Each
        connection carries one task at a time, so a client saturates a
        4-slot worker by opening four lanes to it (listing its address
        four times in ``RemoteExecutor(workers=...)``); connections beyond
        the cap queue at the semaphore.
    authkey:
        Optional shared secret for the HMAC handshake.
    blob_store:
        Where received data-plane blobs are spilled: a directory path (a
        :class:`~repro.store.LocalFSBackend`), an ``http://`` object-store
        URL shared with the evaluation store, or any
        :class:`~repro.store.StoreBackend`.  A restarted server answers
        ``blob_has`` from the spill, so clients never re-send bytes this
        host has ever seen — with an object store, even a worker
        restarted on a *different host*.  ``None`` keeps blobs in memory
        only.
    blob_cache_bytes:
        In-memory bound for received blobs when a ``blob_store`` spill
        exists: least-recently-used spilled blobs are evicted past the
        cap and transparently re-promoted from disk when a task needs
        them, so a long-lived server's memory stays bounded.  Without a
        spill nothing is evicted (dropping un-spilled bytes would force
        clients to re-send mid-run).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        n_jobs: int | None = None,
        start_method: str | None = None,
        authkey: bytes | None = None,
        blob_store=None,
        blob_cache_bytes: int = 4 << 30,
    ):
        from ..store import open_store

        self._engine = ProcessExecutor(n_jobs=1, start_method=start_method)
        self.n_jobs = resolve_n_jobs(n_jobs)
        self._slots = threading.BoundedSemaphore(self.n_jobs)
        self.authkey = authkey
        self._vault = open_store(blob_store)
        self.blob_cache_bytes = int(blob_cache_bytes)
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._closed = threading.Event()

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close`; one thread per client."""
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener closed
                break
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def close(self) -> None:
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            peer = "%s:%s" % conn.getpeername()[:2]
        except OSError:
            peer = "<unknown>"
        label = "%s:%d" % self.address
        try:
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if not _server_authenticate(conn, self.authkey):
                    return
                while True:
                    message = _recv_frame(conn)
                    if message[0] in ("blob_has", "blob_put"):
                        _send_frame(conn, self._handle_blob(message))
                        continue
                    if message[0] != "task":
                        break  # ("bye",) or anything unknown ends the session
                    _, index, fn, task, timeout, deadline_remaining = message
                    rule = faults.fire("remote.server.task", detail=label)
                    if rule is not None and rule.action == "crash":
                        # The whole worker dies mid-task: listener and
                        # connection vanish, every lane to this host is
                        # orphaned.  (``stall`` slept inside fire().)
                        logger.warning(
                            "worker %s: injected crash while serving %s", label, peer
                        )
                        self.close()
                        return
                    if rule is not None and rule.action == "drop":
                        # Only this connection dies; the worker survives
                        # and the client's lane can reconnect to it.
                        logger.warning(
                            "worker %s: injected connection drop for %s", label, peer
                        )
                        return
                    outcome = self._run_task(fn, task, timeout, deadline_remaining)
                    try:
                        reply = pickle.dumps(
                            _encode_outcome(index, outcome),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                    except (TypeError, pickle.PicklingError, AttributeError):
                        reply = pickle.dumps(
                            (
                                "outcome",
                                index,
                                None,
                                "task result could not be returned over the wire",
                                outcome.seconds,
                                False,
                                False,
                            ),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                    if rule is not None and rule.action == "corrupt":
                        reply = faults.garble(reply)
                    conn.sendall(_FRAME_HEADER.pack(len(reply)) + reply)
        except (ConnectionError, EOFError, OSError, pickle.UnpicklingError) as exc:
            # The client went away or spoke garbage mid-session.  Routine
            # for a fleet (clients crash, networks flap) so the session
            # just ends — but silently swallowing the reason made real
            # protocol bugs invisible, hence the structured warning.
            logger.warning(
                "worker %s: dropping session with %s after %s: %s",
                label,
                peer,
                type(exc).__name__,
                exc,
            )
            return

    def _handle_blob(self, message: tuple) -> tuple:
        """Answer one ``blob_has``/``blob_put`` frame with a ``blob_state``."""
        if message[0] == "blob_has":
            digest = message[1]
            known = blob_is_known(digest)
            if not known and self._vault is not None:
                spilled = self._vault.get_blob(digest)
                if spilled is not None:
                    # Promote to memory so forked task processes inherit it.
                    install_blob(digest, spilled)
                    known = True
            return ("blob_state", digest, bool(known))
        _, digest, shape, dtype, payload = message
        try:
            received = np.frombuffer(payload, dtype=np.dtype(dtype)).reshape(shape)
        except (ValueError, TypeError):
            received = None
        if received is None or array_digest(received) != digest:
            # Blobs are content-addressed: bytes that do not hash back to
            # their own name were corrupted in flight.  Refusing them
            # (known=False) makes the client's lane fail loudly and
            # re-send on reconnect instead of poisoning every later task.
            logger.warning("refusing blob %s: payload fails its digest check", digest)
            return ("blob_state", digest, False)
        publish_blob(digest, shape, dtype, payload)
        if self._vault is not None:
            self._vault.put_blob(
                digest, np.frombuffer(payload, dtype=np.dtype(dtype)).reshape(shape)
            )
            # Spilled bytes are recoverable, so bound the in-memory cache.
            evict_spilled_blobs(self.blob_cache_bytes, self._vault.has_blob)
        return ("blob_state", digest, True)

    def _run_task(
        self,
        fn: Callable[[Any], Any],
        task: Any,
        timeout: float | None,
        deadline_remaining: float | None,
    ) -> TaskOutcome:
        # The deadline starts ticking at receipt, and the per-task timeout
        # is charged for time spent queued at the slot semaphore too: the
        # client's dead-worker backstop waits ~timeout past the send, so a
        # busy worker whose reply is merely queued must still answer within
        # the budget rather than be misdiagnosed as dead.
        deadline = None if deadline_remaining is None else Deadline(deadline_remaining)
        if self._vault is not None:
            # Refs may point at blobs the LRU cap evicted to disk meanwhile.
            ensure_task_blobs(task, self._vault.get_blob)
        if self._engine.start_method != "fork":
            # Task processes that are not forked cannot inherit the blob
            # registry; materialize refs here and proceed by value.
            try:
                task = hydrate_task(task)
            except LookupError as exc:
                return TaskOutcome(index=-1, error=repr(exc))
        wait_start = time.monotonic()
        # The local process engine supplies enforced timeouts, in-flight
        # deadline termination and dead-task-process reporting; the
        # semaphore caps concurrent task processes across connections.
        with self._slots:
            if timeout is not None:
                timeout = max(timeout - (time.monotonic() - wait_start), 0.0)
            return self._engine.map_tasks(fn, [task], timeout=timeout, deadline=deadline)[0]

    def __repr__(self) -> str:
        host, port = self.address
        return f"WorkerServer(address={host}:{port}, n_jobs={self.n_jobs})"


def _encode_outcome(index: int, outcome: TaskOutcome) -> tuple:
    return (
        "outcome",
        index,
        outcome.value,
        outcome.error,
        outcome.seconds,
        outcome.timed_out,
        outcome.timeout_downgraded,
    )


# -- client --------------------------------------------------------------------
class _WorkerLane:
    """One dispatch lane: a dedicated connection to one worker address."""

    def __init__(self, address: tuple[str, int], executor: "RemoteExecutor"):
        self.address = address
        self.executor = executor
        self.sock: socket.socket | None = None
        self._synced_blobs: set[str] = set()

    def connect(self) -> None:
        self.sock = socket.create_connection(
            self.address, timeout=self.executor.connect_timeout
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Keepalive bounds the wait on a host that died without sending
        # FIN/RST (power loss, partition): without it, an unbudgeted recv
        # (timeout=None, no deadline) would hang forever.
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        for option, value in (("TCP_KEEPIDLE", 60), ("TCP_KEEPINTVL", 10), ("TCP_KEEPCNT", 6)):
            if hasattr(socket, option):
                self.sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, option), value)
        _client_authenticate(self.sock, self.executor.authkey)
        self._sync_blobs()

    def _sync_blobs(self) -> None:
        """Ensure the worker holds every registered data-plane blob.

        Runs on every (re)connect, before any task crosses this lane: a
        ``blob_has`` probe per registered digest, and the bytes only when
        the worker has never seen them (they persist in the server process
        — and its blob spill — across connections and runs).
        """
        executor = self.executor
        for digest, base in executor._blob_roster_snapshot():
            if digest in self._synced_blobs:
                continue
            self.sock.settimeout(executor.connect_timeout)
            _send_frame(self.sock, ("blob_has", digest))
            reply = _recv_frame(self.sock, executor._count_received)
            if reply[0] != "blob_state" or reply[1] != digest:
                raise ProtocolError(f"unexpected reply {reply[0]!r} to blob_has")
            if not reply[2]:
                payload = np.ascontiguousarray(base).tobytes()
                rule = faults.fire("remote.lane.blob_put", detail=digest)
                if rule is not None and rule.action == "corrupt":
                    payload = faults.garble(payload)
                frame = pickle.dumps(
                    ("blob_put", digest, tuple(base.shape), base.dtype.str, payload),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                del payload  # pickled into the frame; no third resident copy
                self.sock.settimeout(None)  # big frame: pace set by the wire
                # Header and frame go out separately: concatenating would
                # materialize yet another full-size transient buffer.
                self.sock.sendall(_FRAME_HEADER.pack(len(frame)))
                self.sock.sendall(frame)
                executor._count_blob_sent(len(frame) + _FRAME_HEADER.size)
                reply = _recv_frame(self.sock, executor._count_received)
                if reply[0] != "blob_state" or not reply[2]:
                    raise ProtocolError("worker did not acknowledge blob_put")
            self._synced_blobs.add(digest)

    def close(self) -> None:
        if self.sock is not None:
            try:
                _send_frame(self.sock, ("bye",))
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None
        # Forget what the *previous* server process knew: a worker
        # restarted in place lost its in-memory blobs, so the next
        # connect must re-probe ``blob_has`` per digest (cheap when the
        # worker spilled them; a re-send when it truly lost them).
        self._synced_blobs.clear()

    def run_task(
        self,
        fn: Callable[[Any], Any],
        index: int,
        task: Any,
        timeout: float | None,
        deadline: Deadline | None,
    ) -> TaskOutcome:
        """Ship one task and wait for its outcome (or the lane's death)."""
        remaining = None if deadline is None else deadline.clamp(None)
        try:
            frame = pickle.dumps(
                ("task", index, fn, task, timeout, remaining),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except (TypeError, pickle.PicklingError, AttributeError):
            # The task cannot cross the wire at all (closure, bound local
            # state): run it here, with the timeout downgraded to soft.
            outcome = _run_inline(fn, task, timeout, deadline)
            outcome.index = index
            outcome.timeout_downgraded = timeout is not None
            return outcome
        if self.sock is None:
            try:
                self.connect()
            except (ConnectionError, OSError) as exc:
                # Distinguish "never reached a worker" from an in-flight
                # death: the caller can safely hand the task to another lane.
                raise LaneConnectError(str(exc)) from exc
        # Backstop wait: the server replies at the enforced timeout /
        # deadline, so a silence much longer than that means the worker
        # host (not just its task process) is gone.
        budget = deadline.clamp(timeout) if deadline is not None else timeout
        self.sock.settimeout(
            None if budget is None else budget + self.executor.reply_grace
        )
        try:
            self.sock.sendall(_FRAME_HEADER.pack(len(frame)) + frame)
        except (ConnectionError, OSError) as exc:
            # sendall raised, so the frame is incomplete: the worker cannot
            # have parsed (let alone run) the task — safe to hand elsewhere.
            raise LaneConnectError(f"send failed: {exc}") from exc
        self.executor._count_task_sent(len(frame) + _FRAME_HEADER.size)
        kind, reply_index, value, error, seconds, timed_out, downgraded = _recv_frame(
            self.sock, self.executor._count_received
        )
        if kind != "outcome" or reply_index != index:
            raise ProtocolError(f"unexpected reply {kind!r} for task {index}")
        return TaskOutcome(
            index=index,
            value=value,
            error=error,
            seconds=seconds,
            timed_out=timed_out,
            timeout_downgraded=downgraded,
        )


class RemoteExecutor(BaseExecutor):
    """Fan tasks out to :class:`WorkerServer` hosts over sockets.

    Parameters
    ----------
    workers:
        Worker addresses as ``"host:port"`` strings (or ``(host, port)``
        pairs).  Listing an address twice opens two dispatch lanes to it,
        which is the way to saturate a worker running with ``n_jobs > 1``.
    authkey:
        Shared secret for the HMAC handshake; must match the servers'.
    connect_timeout:
        Seconds to wait for the TCP connect per worker.
    reply_grace:
        Extra seconds past the enforced per-task budget to wait for the
        worker's reply before declaring the worker host dead.
    retry_policy:
        Backoff schedule for lane reconnects: a lane that loses its
        worker retries the connect up to ``retry_policy.attempts`` times
        (full-jitter exponential sleeps in between) before retiring, so a
        rebooted worker rejoins the fan-out instead of being written off
        at the first refused connect.
    max_task_retries:
        At-least-once resubmission cap: an in-flight task whose lane died
        is requeued to the surviving lanes up to this many times (the
        task functions are pure fits/scores, so re-running is safe).
        ``0`` restores fail-fast semantics.  Every resubmission is
        recorded in ``TaskOutcome.retried_on``.
    """

    name = "remote"

    def __init__(
        self,
        workers: Sequence[str | tuple],
        authkey: bytes | None = None,
        connect_timeout: float = 10.0,
        reply_grace: float = 15.0,
        retry_policy: RetryPolicy | None = None,
        max_task_retries: int = 2,
    ):
        if not workers:
            from ..exceptions import InvalidParameterError

            raise InvalidParameterError("RemoteExecutor needs at least one worker address")
        self.workers = [parse_worker_address(spec) for spec in workers]
        self.authkey = authkey
        self.connect_timeout = float(connect_timeout)
        self.reply_grace = float(reply_grace)
        self.retry_policy = retry_policy or RetryPolicy(
            attempts=4, base_backoff=0.1, max_backoff=2.0
        )
        self.max_task_retries = int(max_task_retries)
        # Data-plane state: registered base arrays (pushed to workers as
        # content-addressed blobs at lane connect) and wire accounting.
        self._blob_roster: dict[str, tuple[Any, int]] = {}
        self._roster_lock = threading.Lock()
        self._wire_lock = threading.Lock()
        self._task_bytes_sent = 0
        self._blob_bytes_sent = 0
        self._bytes_received = 0

    # -- data plane ------------------------------------------------------------
    def create_dataplane(self) -> "RemoteBlobPlane":
        return RemoteBlobPlane(self)

    def _blob_roster_snapshot(self) -> list[tuple[str, Any]]:
        with self._roster_lock:
            return [(digest, base) for digest, (base, _) in self._blob_roster.items()]

    def _roster_add(self, digest: str, base) -> None:
        with self._roster_lock:
            held, count = self._blob_roster.get(digest, (base, 0))
            self._blob_roster[digest] = (held, count + 1)

    def _roster_remove(self, digest: str) -> None:
        with self._roster_lock:
            entry = self._blob_roster.get(digest)
            if entry is None:
                return
            base, count = entry
            if count <= 1:
                del self._blob_roster[digest]
            else:
                self._blob_roster[digest] = (base, count - 1)

    # -- wire accounting -------------------------------------------------------
    def _count_task_sent(self, n: int) -> None:
        with self._wire_lock:
            self._task_bytes_sent += n

    def _count_blob_sent(self, n: int) -> None:
        with self._wire_lock:
            self._blob_bytes_sent += n

    def _count_received(self, n: int) -> None:
        with self._wire_lock:
            self._bytes_received += n

    @property
    def wire_stats(self) -> WireStats:
        """Snapshot of the bytes sent/received since the last reset."""
        with self._wire_lock:
            return WireStats(
                task_bytes_sent=self._task_bytes_sent,
                blob_bytes_sent=self._blob_bytes_sent,
                bytes_received=self._bytes_received,
            )

    def reset_wire_stats(self) -> None:
        with self._wire_lock:
            self._task_bytes_sent = 0
            self._blob_bytes_sent = 0
            self._bytes_received = 0

    @classmethod
    def from_env(cls, variable: str = "REPRO_REMOTE_WORKERS") -> "RemoteExecutor":
        """Build from a comma-separated ``host:port`` list in the environment."""
        value = os.environ.get(variable, "").strip()
        if not value:
            from ..exceptions import InvalidParameterError

            raise InvalidParameterError(
                f"executor='remote' needs worker addresses: set {variable} to a "
                "comma-separated host:port list or construct RemoteExecutor directly"
            )
        return cls([part for part in value.split(",") if part.strip()])

    def map_tasks(self, fn, tasks, timeout=None, deadline=None):
        if not tasks:
            return []
        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        queue: deque[tuple[int, Any]] = deque(enumerate(tasks))
        queue_lock = threading.Lock()
        # At-least-once provenance: per task index, the dead worker
        # addresses it was in flight on before being resubmitted.
        attempts: dict[int, list[str]] = {}

        def drain(lane: _WorkerLane) -> None:
            # A lane that loses its worker retries the connect under the
            # executor's retry policy (a rebooted worker rejoins); only
            # once the budget is spent does the lane retire and leave the
            # remaining queue to the survivors.  An *in-flight* task on a
            # dead lane is resubmitted up to ``max_task_retries`` times
            # before it becomes a dead-worker outcome.
            host, port = lane.address
            connect_failures = 0
            while True:
                if lane.sock is None:
                    # (Re)connect before taking a task, so a down worker
                    # never holds work hostage during its own backoff.
                    with queue_lock:
                        if not queue:
                            break
                    try:
                        lane.connect()
                    except (ConnectionError, OSError):
                        lane.close()
                        connect_failures += 1
                        if connect_failures > self.retry_policy.retries:
                            return
                        self.retry_policy.sleep(connect_failures - 1)
                        continue
                with queue_lock:
                    if not queue:
                        break
                    index, task = queue.popleft()
                if deadline is not None and deadline.expired:
                    outcomes[index] = _deadline_outcome(index, deadline)
                    continue
                try:
                    outcome = lane.run_task(fn, index, task, timeout, deadline)
                    outcome.index = index
                    with queue_lock:
                        outcome.retried_on = tuple(attempts.get(index, ()))
                    outcomes[index] = outcome
                    connect_failures = 0
                except LaneConnectError:
                    # The task never reached a worker: requeue it intact
                    # and charge the failure to the lane, not the task.
                    lane.close()
                    with queue_lock:
                        queue.appendleft((index, task))
                    connect_failures += 1
                    if connect_failures > self.retry_policy.retries:
                        return
                    self.retry_policy.sleep(connect_failures - 1)
                except (ConnectionError, OSError, EOFError, pickle.UnpicklingError) as exc:
                    lane.close()
                    with queue_lock:
                        tried = attempts.setdefault(index, [])
                        tried.append(f"{host}:{port}")
                        if len(tried) <= self.max_task_retries:
                            # At-least-once: fits/scores are pure, so a
                            # task that died with its worker is requeued
                            # for a surviving (or reconnected) lane.
                            queue.appendleft((index, task))
                        else:
                            outcomes[index] = self._dead_worker_outcome(
                                index, tried, repr(exc)
                            )
                    connect_failures += 1
                    if connect_failures > self.retry_policy.retries:
                        return
                    self.retry_policy.sleep(connect_failures - 1)
            lane.close()

        lanes = [_WorkerLane(address, self) for address in self.workers]
        threads = [
            threading.Thread(target=drain, args=(lane,), daemon=True) for lane in lanes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Tasks may still be queued here: a lane whose connect blocked can
        # requeue its task *after* every surviving lane observed an empty
        # queue and exited.  Sweep the leftovers serially with fresh lanes —
        # only when no worker can be reached at all does a task become a
        # dead-worker outcome instead of ever being silently lost.
        while queue:
            index, task = queue.popleft()
            if deadline is not None and deadline.expired:
                outcomes[index] = _deadline_outcome(index, deadline)
                continue
            outcome = None
            swept: list[str] = []
            for address in self.workers:
                lane = _WorkerLane(address, self)
                try:
                    outcome = lane.run_task(fn, index, task, timeout, deadline)
                    outcome.index = index
                    outcome.retried_on = tuple(attempts.get(index, ()))
                    break
                except (ConnectionError, OSError, EOFError, pickle.UnpicklingError):
                    swept.append("%s:%d" % address)
                    continue
                finally:
                    lane.close()
            if outcome is None:
                outcome = self._dead_worker_outcome(
                    index,
                    attempts.get(index, []) + swept,
                    "every worker lane died before the task ran",
                )
            outcomes[index] = outcome
        # Belt: no slot may stay None (a task must always have an outcome).
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                outcomes[index] = self._dead_worker_outcome(
                    index,
                    attempts.get(index, []),
                    "every worker lane died before the task ran",
                )
        return outcomes

    @staticmethod
    def _dead_worker_outcome(index: int, tried: Sequence[str], detail: str) -> TaskOutcome:
        # The message names every address the task actually touched
        # (deduplicated, order preserved) instead of blaming an arbitrary
        # lane; ``retried_on`` keeps the full per-attempt sequence.
        unique = list(dict.fromkeys(tried))
        where = ", ".join(unique) if unique else "every configured worker"
        return TaskOutcome(
            index=index,
            error=f"remote worker {where} died: {detail}",
            retried_on=tuple(tried),
        )

    def __repr__(self) -> str:
        addresses = ",".join(f"{host}:{port}" for host, port in self.workers)
        return f"{type(self).__name__}(workers=[{addresses}])"


class RemoteBlobPlane(DataPlane):
    """Data plane of the remote backend: bases travel as one-time blobs.

    ``register`` pins the base locally (for slice fingerprinting and the
    inline-execution fallback) and enrolls it in the owning executor's
    blob roster; every dispatch lane pushes missing blobs — keyed by the
    same BLAKE2 digests the evaluation store uses — right after its
    handshake, so a worker that has ever seen a digest never receives the
    bytes again and tasks ship only tiny ``ArrayRef`` slices.
    """

    def __init__(self, executor: RemoteExecutor):
        super().__init__()
        self.executor = executor
        self._enrolled: list[str] = []

    def _pin(self, digest, base):
        if base.nbytes + 65536 > _MAX_FRAME_BYTES:
            # A blob_put frame this large would be refused by the server's
            # frame cap and kill every lane; ship this input by value.
            return None
        ref = super()._pin(digest, base)
        self.executor._roster_add(digest, base)
        self._enrolled.append(digest)
        return ref

    def close(self) -> None:
        enrolled, self._enrolled = self._enrolled, []
        for digest in enrolled:
            self.executor._roster_remove(digest)
        super().close()


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.exec.remote``: run a worker server until killed."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.remote",
        description="Serve map_tasks work for RemoteExecutor clients.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument("--port", type=int, default=7071, help="listen port (0 = any)")
    parser.add_argument("--jobs", type=int, default=None, help="concurrent task processes")
    parser.add_argument(
        "--authkey",
        default=None,
        help="shared secret for the HMAC handshake (or set REPRO_REMOTE_AUTHKEY)",
    )
    parser.add_argument(
        "--blob-dir",
        default=None,
        help="spill received data-plane blobs here so restarts skip re-sends",
    )
    parser.add_argument(
        "--store-url",
        default=None,
        metavar="URL",
        help="spill blobs into a shared object store (python -m "
        "repro.store.server) instead of a local directory, so even a "
        "replacement worker on another host skips re-downloads",
    )
    args = parser.parse_args(argv)
    authkey = args.authkey or os.environ.get("REPRO_REMOTE_AUTHKEY")
    server = WorkerServer(
        host=args.host,
        port=args.port,
        n_jobs=args.jobs,
        authkey=authkey.encode("utf-8") if authkey else None,
        blob_store=args.store_url if args.store_url is not None else args.blob_dir,
    )
    host, port = server.address
    print(f"[worker] serving on {host}:{port} (pid {os.getpid()})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
