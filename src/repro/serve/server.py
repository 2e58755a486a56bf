"""``ServingReplica``: the asyncio HTTP front end of the serving layer.

One replica is one process serving forecasts for any number of published
models out of one store backend::

    POST /predict/<name>     {"horizon": 12}      -> {"forecast": [[...]], ...}
    GET  /models             name -> digest/version routing table
    GET  /healthz            liveness (the event loop is alive)
    GET  /readyz             readiness (store reachable, models resolved)
    GET  /metrics            per-model latency/throughput counters

Design points:

- **Stateless replicas** — a replica owns no model; it resolves names
  through the CAS-versioned model documents and hydrates snapshots by
  digest (:mod:`~repro.serve.registry`).  Any replica can serve any
  model; scaling out is starting more of them against the same store.
- **Hot swap** — a background watcher polls each served model's document
  every ``poll_interval`` seconds.  When the version moves it hydrates
  the new snapshot first, then atomically repoints the routing table.
  Requests batched under the old digest complete against the old model;
  requests arriving after the swap batch under the new one — nothing is
  dropped, which is exactly what a re-rank publishing a new winner needs.
- **Backpressure, not backlog** — per-model queues are bounded
  (:class:`~repro.serve.batcher.MicroBatcher`); a full queue sheds with
  HTTP 429 and an open hydration circuit fails with HTTP 503, both in
  microseconds.  ``/healthz`` answers as long as the loop runs (liveness
  must not depend on the store); ``/readyz`` turns 503 while the store is
  unreachable so load balancers route around a degraded replica.
- **Trusted network** — like the store and worker servers, this speaks
  plain HTTP with no authentication; bind it to loopback or a private
  interface.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from ..store import CircuitOpenError, StoreBackend, StoreError, open_store
from .batcher import MicroBatcher, ServeOverloadError
from .registry import ModelRegistry
from .snapshot import DEFAULT_DOC_PREFIX, SnapshotNotFoundError, resolve_model

__all__ = ["ServingReplica", "ReplicaHandle"]

#: Request bodies beyond this are refused outright (a predict request is
#: a few dozen bytes of JSON).
_MAX_BODY_BYTES = 1 * 1024 * 1024

_JSON = "application/json"


class ServingReplica:
    """Async serving front end over one store backend.

    Parameters
    ----------
    store:
        Backend (or URL / directory for :func:`~repro.store.open_store`)
        holding snapshots and model documents.
    models:
        Names to resolve and watch from startup.  Names first seen in a
        request path are resolved on demand and watched from then on.
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (``.url``).
    max_batch, max_delay_ms, max_queue:
        Batch size, the longest a request waits for batch-mates while its
        model is busy (a request for an idle model is dispatched on the
        next loop tick), and the queue bound per model digest (see
        :class:`~repro.serve.batcher.MicroBatcher`).
    capacity:
        Hydrated models kept resident (LRU beyond it).
    poll_interval:
        Seconds between model-document polls of the hot-swap watcher.
    workers:
        Threads executing model invocations and store I/O (default:
        ``min(8, cpu)``).
    doc_prefix:
        Namespace of the model pointer documents (object store: the
        literal ``models/<name>`` documents; local filesystem: a
        directory path).
    """

    def __init__(
        self,
        store: StoreBackend | str,
        models: Sequence[str] = (),
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 32,
        max_delay_ms: float = 2.0,
        max_queue: int = 1024,
        capacity: int = 8,
        poll_interval: float = 0.5,
        workers: int | None = None,
        doc_prefix: str = DEFAULT_DOC_PREFIX,
    ):
        backend = open_store(store)
        if backend is None:
            raise ValueError("a serving replica needs a store backend")
        self.backend = backend
        self.initial_models = list(models)
        self.host = host
        self.port = int(port)
        self.poll_interval = float(poll_interval)
        self.doc_prefix = doc_prefix
        if workers is None:
            import os

            workers = min(8, os.cpu_count() or 2)
        self.executor = ThreadPoolExecutor(
            max_workers=int(workers), thread_name_prefix="repro-serve"
        )
        self.registry = ModelRegistry(backend, capacity=capacity)
        self.batcher = MicroBatcher(
            resolve=self.registry.get,
            executor=self.executor,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            max_queue=max_queue,
        )
        #: name -> (digest, version); swapped atomically by the watcher.
        self._table: dict[str, tuple[str, int]] = {}
        self._server: asyncio.AbstractServer | None = None
        self._watcher: asyncio.Task | None = None
        self._started_at = time.monotonic()
        self._swaps = 0
        self._watch_errors = 0
        self._store_ready = True
        self.address: tuple[str, int] | None = None

    # -- lifecycle -------------------------------------------------------------
    @property
    def url(self) -> str:
        if self.address is None:
            raise RuntimeError("replica is not started")
        host, port = self.address
        return f"http://{host}:{port}"

    async def start(self) -> None:
        """Bind the listener, resolve initial models, start the watcher."""
        loop = asyncio.get_running_loop()
        for name in self.initial_models:
            entry = await loop.run_in_executor(self.executor, self._resolve, name)
            if entry is None:
                warnings.warn(
                    f"model {name!r} has no published snapshot in "
                    f"{self.backend.describe()} yet; serving it once published",
                    stacklevel=2,
                )
            else:
                self._table[name] = entry
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._started_at = time.monotonic()
        self._watcher = asyncio.ensure_future(self._watch_models())

    async def stop(self) -> None:
        """Stop accepting, drain in-flight batches, release resources."""
        if self._watcher is not None:
            self._watcher.cancel()
            try:
                await self._watcher
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._watcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.drain()
        self.executor.shutdown(wait=True, cancel_futures=True)
        self.backend.close()

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def start_in_background(self) -> "ReplicaHandle":
        """Run this replica on a dedicated event-loop thread (tests, CLI)."""
        return ReplicaHandle(self)

    # -- model routing ---------------------------------------------------------
    def _resolve(self, name: str) -> tuple[str, int] | None:
        return resolve_model(self.backend, name, self.doc_prefix)

    async def _watch_models(self) -> None:
        """Poll model documents; hydrate then swap on version changes."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.poll_interval)
            for name in list(self._table):
                current = self._table.get(name)
                try:
                    entry = await loop.run_in_executor(self.executor, self._resolve, name)
                    self._store_ready = True
                except (StoreError, OSError):
                    # Keep serving the hydrated model through a store
                    # outage; readiness reports the degradation.
                    self._store_ready = False
                    self._watch_errors += 1
                    continue
                if entry is None or current is None or entry == current:
                    continue
                digest, version = entry
                if digest != current[0]:
                    try:
                        # Hydrate *before* swapping: the table never points
                        # at a model that could fail mid-request storm.
                        await loop.run_in_executor(
                            self.executor, self.registry.get, digest
                        )
                    except Exception:  # noqa: BLE001 - keep old model on any failure
                        self._watch_errors += 1
                        continue
                self._table[name] = entry
                self._swaps += 1

    # -- HTTP plumbing ---------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or not request_line.strip():
                    break
                try:
                    method, target, _version = request_line.decode("latin-1").split()
                except ValueError:
                    await self._reply(writer, 400, {"error": "malformed request line"})
                    break
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if not line or line in (b"\r\n", b"\n"):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    await self._reply(writer, 400, {"error": "bad Content-Length"})
                    break
                if length > _MAX_BODY_BYTES:
                    await self._reply(writer, 413, {"error": "body too large"})
                    break
                body = await reader.readexactly(length) if length else b""
                status, payload = await self._route(method, target, body)
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                await self._reply(writer, status, payload, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _reply(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool = True,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
                  413: "Payload Too Large", 429: "Too Many Requests",
                  500: "Internal Server Error", 503: "Service Unavailable"}.get(status, "")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {_JSON}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routes ----------------------------------------------------------------
    async def _route(self, method: str, target: str, body: bytes) -> tuple[int, dict]:
        path = target.split("?", 1)[0]
        if path.startswith("/predict/"):
            if method != "POST":
                return 405, {"error": "predict is POST"}
            return await self._predict(path[len("/predict/") :], body)
        if method not in ("GET", "HEAD"):
            return 405, {"error": f"{method} not supported on {path}"}
        if path == "/healthz":
            return 200, {
                "status": "ok",
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "models": len(self._table),
            }
        if path == "/readyz":
            return await self._readyz()
        if path == "/metrics":
            return 200, self._metrics()
        if path == "/models":
            return 200, {
                name: {"digest": digest, "version": version}
                for name, (digest, version) in sorted(self._table.items())
            }
        return 404, {"error": f"unknown route {path}"}

    async def _readyz(self) -> tuple[int, dict]:
        ready = self._store_ready
        healthy = getattr(self.backend, "healthy", None)
        if ready and healthy is not None:
            loop = asyncio.get_running_loop()
            try:
                ready = await loop.run_in_executor(self.executor, healthy)
            except (StoreError, OSError):
                ready = False
        self._store_ready = bool(ready)
        payload = {
            "status": "ready" if ready else "degraded",
            "store": self.backend.describe(),
            "models": len(self._table),
            "queued": self.batcher.queued(),
        }
        return (200 if ready else 503), payload

    def _metrics(self) -> dict:
        by_digest = self.batcher.metrics()
        models = {}
        for name, (digest, version) in self._table.items():
            models[name] = {
                "digest": digest,
                "version": version,
                **by_digest.get(digest, {}),
            }
        registry = self.registry.stats()
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "models": models,
            "digests": by_digest,
            "registry": {
                "hits": registry.hits,
                "loads": registry.loads,
                "load_failures": registry.load_failures,
                "single_flight_waits": registry.single_flight_waits,
                "evictions": registry.evictions,
                "cached": registry.cached,
                "breaker_state": registry.breaker_state,
            },
            "swaps": self._swaps,
            "watch_errors": self._watch_errors,
        }

    async def _predict(self, name: str, body: bytes) -> tuple[int, dict]:
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(request, dict):
                raise ValueError("body must be a JSON object")
            horizon = int(request.get("horizon", 1))
            if horizon < 1:
                raise ValueError("horizon must be >= 1")
        except (ValueError, TypeError, OverflowError) as exc:
            # int() raises TypeError for null, lists and objects, and
            # OverflowError for the JSON extension Infinity.
            return 400, {"error": f"bad predict request: {exc}"}
        entry = self._table.get(name)
        if entry is None:
            loop = asyncio.get_running_loop()
            try:
                entry = await loop.run_in_executor(
                    self.executor, self._resolve, name
                )
            except (StoreError, OSError) as exc:
                return 503, {"error": f"store unavailable resolving {name!r}: {exc}"}
            if entry is None:
                return 404, {"error": f"no published model {name!r}"}
            # First sighting: route it and let the watcher track it.
            self._table[name] = entry
        digest, version = entry
        try:
            result = await self.batcher.submit(digest, horizon)
        except ServeOverloadError as exc:
            return 429, {"error": str(exc), "model": name}
        except SnapshotNotFoundError as exc:
            return 404, {"error": str(exc), "model": name}
        except CircuitOpenError as exc:
            return 503, {"error": f"hydration circuit open: {exc}", "model": name}
        except (StoreError, OSError) as exc:
            return 503, {"error": f"store unavailable: {exc}", "model": name}
        except Exception as exc:  # noqa: BLE001 - a model bug must not kill the loop
            return 500, {"error": f"{type(exc).__name__}: {exc}", "model": name}
        return 200, {
            "model": name,
            "digest": result.digest,
            "version": version,
            "horizon": horizon,
            "forecast": result.forecast.tolist(),
            "batch_size": result.batch_size,
            "queue_ms": round(result.queue_seconds * 1000.0, 3),
        }

    def __repr__(self) -> str:
        bound = self.url if self.address else "unbound"
        return f"ServingReplica({bound}, store={self.backend.describe()!r})"


class ReplicaHandle:
    """A replica running on its own event-loop thread.

    Gives synchronous callers (tests, benchmarks, the CLI) a started
    replica with a ``.url`` and a blocking :meth:`stop`.
    """

    def __init__(self, replica: ServingReplica):
        self.replica = replica
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: list[BaseException] = []

        def runner() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(replica.start())
            except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
                failure.append(exc)
                started.set()
                return
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=runner, daemon=True, name="repro-serve-loop")
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]

    @property
    def url(self) -> str:
        return self.replica.url

    def stop(self, timeout: float = 10.0) -> None:
        if not self._loop.is_running():
            return
        stop = asyncio.run_coroutine_threadsafe(self.replica.stop(), self._loop)
        try:
            stop.result(timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)
            if not self._thread.is_alive():
                self._loop.close()

    def __enter__(self) -> "ReplicaHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
