"""Micro-batching: many concurrent predicts, one model invocation.

Forecast requests against one fitted model are *perfectly* batchable:
``predict(h)`` is a pure function of the fitted state, and a forecast of
``max(h)`` steps contains the forecast of every shorter horizon as a
prefix.  The :class:`MicroBatcher` exploits that shape:

- Requests are queued **per model digest**.  The first request of a batch
  arms a flush timer (``max_delay_ms``); the batch flushes when the timer
  fires or when ``max_batch`` requests have accumulated, whichever is
  first.  An idle model costs nothing; a hot model flushes continuously.
- Each flush runs **one** ``predict(max(horizons))`` on the worker pool
  and answers every request in the batch with a zero-copy slice of the
  shared forecast.  A thousand concurrent requests for a hot model
  become a handful of model invocations — the difference between
  dispatch-bound and compute-bound throughput.
- A request whose own slice holds a NaN or inf fails alone with
  :class:`~repro.exceptions.NonFiniteForecastError` (HTTP 500 upstream):
  a non-finite value is never served (standard JSON has no token for it).
  A batch-mate whose shorter slice is finite still gets its answer.
- Queues are **bounded** (``max_queue`` per digest): a request arriving
  at a full queue is shed instantly with :class:`ServeOverloadError`
  (HTTP 429 upstream) instead of growing an unbounded backlog whose
  every entry would time out anyway — fail fast and let the client's
  retry policy decorrelate, the backpressure discipline of
  purple-axiom's operability spec.

Batch state lives on the event loop thread; only the model invocation
itself runs on the executor (predict is read-only after fit — see the
thread-safety contract in :mod:`repro.core.base`), so multiple flushes
of one hot model may overlap on the pool.

Per-model latency/throughput counters are kept in bounded reservoirs and
snapshot via :meth:`MicroBatcher.metrics` — the numbers ``/metrics``
serves.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..exceptions import NonFiniteForecastError

__all__ = ["MicroBatcher", "ServeOverloadError", "BatchedForecast"]


class ServeOverloadError(RuntimeError):
    """The per-model queue is full: shed the request instead of queueing."""


@dataclass(frozen=True)
class BatchedForecast:
    """One request's answer: its forecast slice plus batch provenance."""

    forecast: np.ndarray
    digest: str
    batch_size: int
    queue_seconds: float


#: Latency samples kept per model for the percentile estimates; old
#: samples age out so ``/metrics`` reflects recent behaviour.
_RESERVOIR = 4096


@dataclass
class _ModelMetrics:
    requests: int = 0
    completed: int = 0
    shed: int = 0
    errors: int = 0
    batches: int = 0
    max_batch: int = 0
    latency: deque = field(default_factory=lambda: deque(maxlen=_RESERVOIR))

    def snapshot(self) -> dict:
        samples = sorted(self.latency)
        def pct(q: float) -> float | None:
            if not samples:
                return None
            return round(samples[min(int(q * len(samples)), len(samples) - 1)] * 1000.0, 3)
        mean_batch = self.completed / self.batches if self.batches else 0.0
        return {
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "batches": self.batches,
            "mean_batch": round(mean_batch, 2),
            "max_batch": self.max_batch,
            "p50_ms": pct(0.50),
            "p99_ms": pct(0.99),
        }


class _Lane:
    """Pending requests of one model digest."""

    __slots__ = ("pending", "timer")

    def __init__(self) -> None:
        # (horizon, enqueue time, future)
        self.pending: list[tuple[int, float, asyncio.Future]] = []
        self.timer: asyncio.TimerHandle | None = None


class MicroBatcher:
    """Per-digest request queues flushed by batch window onto an executor.

    Parameters
    ----------
    resolve:
        ``digest -> fitted model`` — typically ``ModelRegistry.get``.
        Called on the executor thread at flush time, so a hot-swap between
        flushes is picked up by the very next batch.
    executor:
        Worker pool running the model invocations.
    max_batch:
        Requests answered by one model invocation at most.
    max_delay_ms:
        Longest a request waits for batch-mates before its flush fires.
    max_queue:
        Bound on queued requests per digest; beyond it requests are shed
        with :class:`ServeOverloadError`.
    """

    def __init__(
        self,
        resolve: Callable[[str], Any],
        executor: Executor,
        max_batch: int = 32,
        max_delay_ms: float = 2.0,
        max_queue: int = 1024,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.resolve = resolve
        self.executor = executor
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay_ms) / 1000.0
        self.max_queue = int(max_queue)
        self._lanes: dict[str, _Lane] = {}
        self._metrics: dict[str, _ModelMetrics] = {}
        self._inflight: set[asyncio.Future] = set()

    # -- submission (event-loop thread only) -----------------------------------
    def _model_metrics(self, digest: str) -> _ModelMetrics:
        metrics = self._metrics.get(digest)
        if metrics is None:
            metrics = self._metrics[digest] = _ModelMetrics()
        return metrics

    def queued(self, digest: str | None = None) -> int:
        """Requests currently queued (for one digest, or in total)."""
        if digest is not None:
            lane = self._lanes.get(digest)
            return len(lane.pending) if lane else 0
        return sum(len(lane.pending) for lane in self._lanes.values())

    async def submit(self, digest: str, horizon: int) -> BatchedForecast:
        """Queue one predict request; resolves with its forecast slice."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        loop = asyncio.get_running_loop()
        metrics = self._model_metrics(digest)
        metrics.requests += 1
        lane = self._lanes.get(digest)
        if lane is None:
            lane = self._lanes[digest] = _Lane()
        if len(lane.pending) >= self.max_queue:
            metrics.shed += 1
            raise ServeOverloadError(
                f"model {digest[:12]} queue full ({self.max_queue} pending)"
            )
        future: asyncio.Future = loop.create_future()
        lane.pending.append((int(horizon), time.perf_counter(), future))
        if len(lane.pending) >= self.max_batch:
            self._flush(digest)
        elif lane.timer is None:
            lane.timer = loop.call_later(self.max_delay, self._flush, digest)
        return await future

    # -- flushing --------------------------------------------------------------
    def _flush(self, digest: str) -> None:
        lane = self._lanes.get(digest)
        if lane is None:
            return
        if lane.timer is not None:
            lane.timer.cancel()
            lane.timer = None
        if not lane.pending:
            return
        batch, lane.pending = lane.pending[: self.max_batch], lane.pending[self.max_batch :]
        if lane.pending:
            # Overflow beyond one batch flushes immediately: the window
            # exists to gather batch-mates, and these already have them.
            loop = asyncio.get_running_loop()
            lane.timer = loop.call_later(0.0, self._flush, digest)
        horizons = [entry[0] for entry in batch]
        loop = asyncio.get_running_loop()
        job = loop.run_in_executor(self.executor, self._execute, digest, max(horizons))
        self._inflight.add(job)
        job.add_done_callback(lambda done, b=batch, d=digest: self._complete(d, b, done))

    def _execute(self, digest: str, horizon: int) -> np.ndarray:
        """One vectorized model invocation (executor thread)."""
        model = self.resolve(digest)
        forecast = np.asarray(model.predict(horizon), dtype=float)
        if forecast.ndim == 1:
            forecast = forecast.reshape(-1, 1)
        return forecast

    def _complete(self, digest: str, batch: list, job: asyncio.Future) -> None:
        self._inflight.discard(job)
        metrics = self._model_metrics(digest)
        error = job.exception() if not job.cancelled() else asyncio.CancelledError()
        now = time.perf_counter()
        if error is None:
            forecast = job.result()
            metrics.batches += 1
            metrics.max_batch = max(metrics.max_batch, len(batch))
        for horizon, enqueued, future in batch:
            if future.done():  # client went away mid-flight
                continue
            failure = error
            if failure is None and not np.isfinite(forecast[:horizon]).all():
                failure = NonFiniteForecastError(
                    f"model {digest[:12]} forecast has non-finite values "
                    f"within horizon {horizon}"
                )
            if failure is not None:
                metrics.errors += 1
                future.set_exception(failure)
                continue
            metrics.completed += 1
            metrics.latency.append(now - enqueued)
            future.set_result(
                BatchedForecast(
                    forecast=forecast[:horizon],
                    digest=digest,
                    batch_size=len(batch),
                    queue_seconds=now - enqueued,
                )
            )

    async def drain(self) -> None:
        """Flush every lane and wait for in-flight batches (shutdown path)."""
        for digest in list(self._lanes):
            self._flush(digest)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    # -- observability ---------------------------------------------------------
    def metrics(self) -> dict:
        """Per-digest counters plus queue depths (the ``/metrics`` payload)."""
        return {
            digest: {**metrics.snapshot(), "queued": self.queued(digest)}
            for digest, metrics in self._metrics.items()
        }
