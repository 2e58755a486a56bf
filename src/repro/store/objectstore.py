"""HTTP client backend speaking the bundled object-store protocol.

:class:`ObjectStoreBackend` implements the full :class:`~repro.store.base.
StoreBackend` contract against ``python -m repro.store.server`` (or any
server honoring the same S3-style verbs): content-addressed GET/PUT/HEAD
for records and blobs, ETag-conditional PUT for documents.  Design
points:

- **Connection pooling** — a shared, bounded pool of persistent HTTP/1.1
  connections checked out per request and returned after it, so *any*
  thread reuses a warm connection.  (The pool used to be per-thread
  ``threading.local`` affinity, which broke down in asyncio contexts:
  every ``run_in_executor`` worker thread — and every short-lived thread
  of a default executor — opened and stranded its own socket.  A stranded
  keep-alive connection was only reclaimed at GC; a serving replica
  hydrating through rotating executor threads leaked one socket per
  thread.)  Stale keep-alive connections are reconnected transparently.
- **Bounded retry with jitter** — transient transport errors and 5xx
  responses are retried under a shared :class:`~repro.resilience.
  RetryPolicy` (bounded attempts, exponential backoff, full jitter);
  persistent unavailability degrades exactly like a failing disk (record
  misses, refused writes) instead of taking the run down.
- **Circuit breaker** — consecutive *exhausted* requests (whole retry
  budgets spent) trip a :class:`~repro.resilience.CircuitBreaker` open:
  further requests are refused instantly
  (:class:`~repro.store.base.CircuitOpenError` → fast local misses)
  instead of each paying the full retry × backoff budget against a store
  known to be down; after a cooldown one half-open probe tests recovery.
  Breaker state and transport counters are visible via
  :attr:`ObjectStoreBackend.transport_stats`.
- **Compare-and-swap documents** — :meth:`update_doc` loops GET →
  ``fn`` → conditional PUT (``If-Match`` on the read ETag, or
  ``If-None-Match: *`` for creation) until the PUT lands, which gives the
  work queue and the shared manifest lock-free mutual exclusion: of two
  workers racing on one queue document, exactly one PUT succeeds and the
  loser re-derives its pull from the winner's text.
- **Record/blob parity with the disk store** — record bytes are produced
  and validated by the same codec as :class:`~repro.exec.store.DiskStore`
  (corrupt or schema-incompatible records are evicted server-side and
  reported as misses), and blob payloads are integrity-checked against
  their content digest on read.

Backends are picklable (URL plus knobs; the connection pool never
crosses a process boundary), so toolkit factories can carry one into
benchmark worker processes.
"""

from __future__ import annotations

import http.client
import io
import socket
import threading
import urllib.parse
from dataclasses import dataclass
from typing import Any, Callable

from .. import faults
from ..resilience import BreakerStats, CircuitBreaker, RetryPolicy
from .base import CircuitOpenError, StoreBackend, StoreError
from .digest import array_digest

__all__ = ["ObjectStoreBackend", "StoreTransportStats"]

#: HTTP statuses worth a retry: the server (or a proxy in front of it)
#: says "temporarily unhappy", not "your request is wrong".
_RETRYABLE_STATUSES = frozenset({500, 502, 503, 504})


@dataclass(frozen=True)
class StoreTransportStats:
    """Request/retry/breaker snapshot of one backend (wire-stats style).

    ``requests`` counts :meth:`ObjectStoreBackend._request` calls that
    were allowed to run, ``retries`` the extra attempts the policy spent,
    ``exhausted`` the requests whose whole budget failed, and ``breaker``
    the circuit's own counters (state, opens, instant refusals).
    """

    requests: int = 0
    retries: int = 0
    exhausted: int = 0
    connections_opened: int = 0
    pooled_idle: int = 0
    breaker: BreakerStats = BreakerStats(state="closed", consecutive_failures=0)


class _PooledConnection(http.client.HTTPConnection):
    """HTTP connection with Nagle disabled.

    Store traffic is many small request/response pairs on one keep-alive
    connection; Nagle interacting with delayed ACKs turns each into a
    ~40ms stall, which is the difference between a warm cache run served
    in milliseconds and one served in seconds.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class ObjectStoreBackend(StoreBackend):
    """Store records, blobs and documents in a remote object store.

    Parameters
    ----------
    url:
        Server base URL, e.g. ``"http://10.0.0.5:7171"``.  Only ``http``
        is spoken (the server is for trusted networks, like the remote
        executor's worker protocol).
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Transport/5xx retry budget per request (on top of the first try).
    retry_backoff:
        Base sleep of the exponential backoff; every retry sleeps
        ``backoff * 2**attempt`` plus up to 100% random jitter, so a
        thundering herd of benchmark workers decorrelates instead of
        hammering the server in lockstep.
    cas_attempts:
        Bound on :meth:`update_doc` compare-and-swap rounds; exceeding it
        raises :class:`~repro.store.base.StoreError` (it means pathological
        contention, not a transient blip).
    retry_policy:
        Overrides the transport retry behaviour wholesale; when omitted
        one is derived from ``retries``/``retry_backoff`` so existing
        callers keep their tuning.
    breaker_failures / breaker_reset_after:
        Consecutive exhausted requests that trip the circuit open, and
        the open-state cooldown before a half-open probe.
    pool_size:
        Idle keep-alive connections retained for reuse.  Concurrency is
        *not* capped at this bound — a burst beyond it opens extra
        connections that are closed instead of pooled when they come
        back — it only bounds what stays warm.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 10.0,
        retries: int = 3,
        retry_backoff: float = 0.05,
        cas_attempts: int = 64,
        schema_version: int | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_failures: int = 5,
        breaker_reset_after: float = 10.0,
        pool_size: int = 8,
    ):
        parsed = urllib.parse.urlsplit(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("", "http"):
            raise ValueError(f"ObjectStoreBackend speaks plain http, not {parsed.scheme!r}")
        if not parsed.hostname:
            raise ValueError(f"object-store URL {url!r} has no host")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.base_path = parsed.path.rstrip("/")
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.cas_attempts = int(cas_attempts)
        self.retry_policy = retry_policy or RetryPolicy(
            attempts=self.retries + 1, base_backoff=self.retry_backoff, max_backoff=2.0
        )
        self.breaker_failures = int(breaker_failures)
        self.breaker_reset_after = float(breaker_reset_after)
        self.pool_size = int(pool_size)
        if schema_version is None:
            from ..exec.store import SCHEMA_VERSION

            schema_version = SCHEMA_VERSION
        self.schema_version = int(schema_version)
        self._init_runtime()

    def _init_runtime(self) -> None:
        """(Re)create the per-process state: pool, breaker, counters."""
        # Backward-compat shim: ``pool_size`` postdates pickled configs.
        self.pool_size = int(getattr(self, "pool_size", 8))
        self._pool_lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        self._opened = 0
        self._breaker = CircuitBreaker(
            failure_threshold=self.breaker_failures,
            reset_after=self.breaker_reset_after,
        )
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._retry_count = 0
        self._exhausted = 0

    # -- pickling (pool, breaker and counters stay home) -----------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for runtime in (
            "_pool_lock",
            "_idle",
            "_opened",
            "_breaker",
            "_stats_lock",
            "_requests",
            "_retry_count",
            "_exhausted",
        ):
            state.pop(runtime, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Each process judges the store's health for itself: a breaker
        # tripped by the parent's network path says nothing about ours.
        self._init_runtime()

    @property
    def transport_stats(self) -> StoreTransportStats:
        """Snapshot of request/retry counters and breaker state."""
        with self._pool_lock:
            opened, idle = self._opened, len(self._idle)
        with self._stats_lock:
            return StoreTransportStats(
                requests=self._requests,
                retries=self._retry_count,
                exhausted=self._exhausted,
                connections_opened=opened,
                pooled_idle=idle,
                breaker=self._breaker.stats(),
            )

    # -- transport -------------------------------------------------------------
    def _acquire_connection(self) -> http.client.HTTPConnection:
        """Check a pooled connection out (or open a fresh one)."""
        with self._pool_lock:
            if self._idle:
                return self._idle.pop()
            self._opened += 1
        return _PooledConnection(self.host, self.port, timeout=self.timeout)

    def _release_connection(self, conn: http.client.HTTPConnection) -> None:
        """Return a healthy keep-alive connection for any thread to reuse."""
        with self._pool_lock:
            if len(self._idle) < self.pool_size:
                self._idle.append(conn)
                return
        self._discard_connection(conn)

    @staticmethod
    def _discard_connection(conn: http.client.HTTPConnection) -> None:
        try:
            conn.close()
        except OSError:
            pass

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict, bytes]:
        """One request with pooled connections, bounded retry, breaker.

        Conditional PUTs are retried too: they are idempotent by
        construction (the precondition re-evaluates against the stored
        content, so a retry of an already-applied PUT fails the
        precondition instead of double-applying).  Only *exhausted*
        requests (whole budget spent) and final retryable 5xx responses
        count against the breaker, so blips the retry layer absorbs never
        trip it.
        """
        if not self._breaker.allow():
            raise CircuitOpenError(
                f"object store {self.host}:{self.port} circuit open "
                "(recent requests exhausted their retry budget)"
            )
        with self._stats_lock:
            self._requests += 1
        url = f"{self.base_path}{path}"
        policy = self.retry_policy
        last_error: Exception | None = None
        for attempt in range(policy.attempts):
            if attempt:
                with self._stats_lock:
                    self._retry_count += 1
                policy.sleep(attempt - 1)
            injected = faults.fire("store.client.request", detail=f"{method} {path}")
            if injected is not None and injected.action == "error":
                # Simulated transport failure: consumes retry budget
                # exactly like a refused connection would.
                last_error = ConnectionError(f"injected transport fault ({method} {path})")
                continue
            conn = self._acquire_connection()
            try:
                conn.request(method, url, body=body, headers=headers or {})
                response = conn.getresponse()
                payload = response.read()
            except (http.client.HTTPException, ConnectionError, socket.timeout, OSError) as exc:
                # A stale keep-alive connection and a dead server look the
                # same here; discard and let the retry budget decide.
                self._discard_connection(conn)
                last_error = exc
                continue
            if response.will_close:
                # The server asked to close (e.g. an error reply sent
                # before it drained our body): the connection is not
                # reusable, so retire it instead of pooling it.
                self._discard_connection(conn)
            else:
                self._release_connection(conn)
            if response.status in _RETRYABLE_STATUSES:
                if attempt < policy.retries:
                    last_error = StoreError(f"{method} {url} -> {response.status}")
                    continue
                # Budget spent and the server is still answering 5xx:
                # that is an unhealthy store, not an unlucky request.
                self._note_exhausted()
                return response.status, dict(response.getheaders()), payload
            self._breaker.record_success()
            return response.status, dict(response.getheaders()), payload
        self._note_exhausted()
        raise StoreError(
            f"object store {self.host}:{self.port} unreachable after "
            f"{policy.attempts} attempts: {last_error}"
        )

    def _note_exhausted(self) -> None:
        with self._stats_lock:
            self._exhausted += 1
        self._breaker.record_failure()

    @staticmethod
    def _etag(headers: dict) -> str | None:
        for key, value in headers.items():
            if key.lower() == "etag":
                return value.strip().strip('"')
        return None

    # -- records ---------------------------------------------------------------
    def get(self, digest: str) -> Any | None:
        from ..exec.store import decode_record

        try:
            status, _, payload = self._request("GET", f"/records/{digest}")
        except StoreError:
            return None
        if status != 200:
            return None
        try:
            return decode_record(payload.decode("utf-8"), self.schema_version)
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            self.evict(digest)
            return None

    def put(self, digest: str, value: Any) -> bool:
        from ..exec.store import encode_record

        text = encode_record(digest, value, self.schema_version)
        if text is None:
            return False
        try:
            status, _, _ = self._request("PUT", f"/records/{digest}", text.encode("utf-8"))
        except StoreError:
            return False
        return status in (200, 201)

    def evict(self, digest: str) -> None:
        try:
            self._request("DELETE", f"/records/{digest}")
        except StoreError:
            pass

    # -- blobs -----------------------------------------------------------------
    def put_blob(self, digest: str, array) -> bool:
        import numpy as np

        buffer = io.BytesIO()
        try:
            np.save(buffer, np.asarray(array), allow_pickle=False)
        except ValueError:
            return False
        try:
            status, _, _ = self._request("PUT", f"/blobs/{digest}", buffer.getvalue())
        except StoreError:
            return False
        return status in (200, 201)

    def get_blob(self, digest: str):
        import numpy as np

        try:
            status, _, payload = self._request("GET", f"/blobs/{digest}")
        except StoreError:
            return None
        if status != 200:
            return None
        injected = faults.fire("store.client.blob", detail=digest)
        if injected is not None and injected.action == "corrupt":
            payload = faults.garble(payload)
        try:
            array = np.load(io.BytesIO(payload), allow_pickle=False)
        except (ValueError, OSError):
            array = None
        # Blobs are content-addressed: a payload whose buffer does not
        # hash back to its own name is truncated or tampered — evict it
        # rather than hand corrupt data to a fit.
        if array is None or array_digest(array) != digest:
            try:
                self._request("DELETE", f"/blobs/{digest}")
            except StoreError:
                pass
            return None
        return array

    def has_blob(self, digest: str) -> bool:
        try:
            status, _, _ = self._request("HEAD", f"/blobs/{digest}")
        except StoreError:
            return False
        return status == 200

    # -- documents -------------------------------------------------------------
    @staticmethod
    def _doc_segment(name: str) -> str:
        return urllib.parse.quote(str(name), safe="")

    def read_doc(self, name: str) -> str | None:
        text, _ = self._read_doc_versioned(name)
        return text

    def _read_doc_versioned(self, name: str) -> tuple[str | None, str | None]:
        status, headers, payload = self._request("GET", f"/docs/{self._doc_segment(name)}")
        if status != 200:
            return None, None
        return payload.decode("utf-8"), self._etag(headers)

    def write_doc(self, name: str, text: str) -> None:
        status, _, _ = self._request(
            "PUT", f"/docs/{self._doc_segment(name)}", text.encode("utf-8")
        )
        if status not in (200, 201):
            raise StoreError(f"document write refused with status {status}")

    def update_doc(self, name: str, fn: Callable[[str | None], str]) -> str:
        """Read-modify-write via conditional PUT (compare-and-swap loop)."""
        segment = self._doc_segment(name)
        for attempt in range(self.cas_attempts):
            current, etag = self._read_doc_versioned(name)
            text = fn(current)
            headers = {"If-None-Match": "*"} if etag is None else {"If-Match": f'"{etag}"'}
            status, _, _ = self._request(
                "PUT", f"/docs/{segment}", text.encode("utf-8"), headers
            )
            if status in (200, 201):
                return text
            if status != 412:
                raise StoreError(f"document update refused with status {status}")
            # Lost the race: decorrelate and re-derive from the winner.
            self.retry_policy.sleep(0)
        raise StoreError(
            f"document {name!r} still contended after {self.cas_attempts} "
            "compare-and-swap attempts"
        )

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Close every idle pooled connection (the backend stays usable)."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            self._discard_connection(conn)

    def healthy(self) -> bool:
        """True when the server answers its health route."""
        try:
            status, _, _ = self._request("GET", "/healthz")
        except StoreError:
            return False
        return status == 200

    def describe(self) -> str:
        return f"http://{self.host}:{self.port}{self.base_path}"

    def __repr__(self) -> str:
        return f"ObjectStoreBackend(url={self.describe()!r})"
