"""Pluggable execution backends for independent evaluation tasks.

T-Daub's fixed-allocation rounds and scoring phase, and the benchmark
matrix, are embarrassingly parallel: every ``(pipeline, allocation)`` or
``(dataset, toolkit)`` cell is an independent fit-and-score unit of work.
This module provides one interface — ``map_tasks(fn, tasks) -> outcomes`` —
with three interchangeable backends:

``SerialExecutor``
    Runs tasks in-process, one after another.  The reference backend: every
    other executor must produce byte-identical task results in the same
    order.  Timeouts are *soft* (recorded, never enforced).
``ThreadExecutor``
    A ``concurrent.futures.ThreadPoolExecutor`` fan-out.  Useful when task
    bodies release the GIL (numpy/BLAS) or block on I/O.  Timeouts are soft:
    a Python thread cannot be preempted.
``ProcessExecutor``
    One worker process per task (bounded by ``n_jobs`` concurrent workers),
    results returned over a pipe.  This is the only backend with *real*
    per-task timeout enforcement: a task that overruns its budget is
    terminated with ``SIGTERM`` and reported as ``timed_out``.

Beyond the per-task ``timeout``, every backend understands a batch-wide
:class:`Deadline`.  A deadline cannot make the serial/thread backends
preempt a running task either — but it gives them *cooperative* budget
enforcement between tasks: once the deadline passes, tasks that have not
started yet are skipped (returned as ``timed_out`` outcomes with no value)
instead of being run to completion one after another.  The process backend
additionally terminates in-flight workers at the deadline.  This is what
lets ``max_train_seconds`` bound a whole T-Daub ranking round on *all*
backends, not only on the one that can kill workers.

All backends preserve submission order in the returned outcome list, which
is what keeps T-Daub's schedule and ranking independent of the order in
which workers actually finish.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor as _FuturesThreadPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = [
    "TaskOutcome",
    "Deadline",
    "BaseExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "resolve_n_jobs",
]


class Deadline:
    """Wall-clock budget shared by a batch (or a whole run) of tasks.

    A deadline starts ticking when constructed; executors consult it
    cooperatively — before starting each task, and (process backend) while
    tasks run.  ``seconds=None`` means unlimited and never expires, which
    lets callers thread an optional budget through without branching.
    """

    def __init__(self, seconds: float | None):
        self.seconds = None if seconds is None else float(seconds)
        self._start = time.monotonic()

    def remaining(self) -> float | None:
        """Seconds left before expiry (may be negative); ``None`` = unlimited."""
        if self.seconds is None:
            return None
        return self.seconds - (time.monotonic() - self._start)

    @property
    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def clamp(self, timeout: float | None) -> float | None:
        """Tighten a per-task timeout so it never outlives the deadline."""
        remaining = self.remaining()
        if remaining is None:
            return timeout
        remaining = max(remaining, 0.0)
        if timeout is None:
            return remaining
        return min(float(timeout), remaining)

    def __repr__(self) -> str:
        return f"Deadline(seconds={self.seconds}, remaining={self.remaining()})"


def _deadline_outcome(index: int, deadline: "Deadline") -> TaskOutcome:
    """Outcome for a task skipped because the batch deadline already passed."""
    return TaskOutcome(
        index=index,
        error=f"skipped: the {deadline.seconds:g}s batch deadline was exhausted",
        timed_out=True,
    )


@dataclass
class TaskOutcome:
    """Result envelope for one task: value or error, plus timing.

    ``timeout_downgraded`` marks a task submitted to a backend that
    normally *enforces* its timeout (processes, remote) but that had to run
    inline in the calling process — e.g. an unpicklable task under the
    ``spawn`` start method — where the timeout is only soft: an overrun is
    flagged ``timed_out`` but the task ran to completion and kept its
    value.  Callers relying on hard preemption can detect the downgrade
    instead of silently trusting a budget that was never enforceable.
    """

    index: int
    value: Any = None
    error: str = ""
    seconds: float = 0.0
    timed_out: bool = False
    timeout_downgraded: bool = False
    #: Addresses of remote workers that died while this task was in
    #: flight on them, in order — non-empty exactly when the task was
    #: resubmitted under the remote backend's at-least-once policy.
    #: Client-side provenance only; it never crosses the wire.
    retried_on: tuple = ()

    @property
    def ok(self) -> bool:
        """True when the task produced a value within its budget."""
        return not self.error and not self.timed_out


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Resolve an ``n_jobs`` knob to a concrete worker count.

    ``None`` and ``0`` mean one worker; negative values count back from the
    number of available cores (joblib convention: ``-1`` = all cores).
    """
    if n_jobs is None or n_jobs == 0:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs < 0:
        cores = os.cpu_count() or 1
        return max(cores + 1 + n_jobs, 1)
    return n_jobs


class BaseExecutor:
    """Interface shared by every execution backend."""

    name: str = "base"

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        timeout: float | None = None,
        deadline: "Deadline | None" = None,
    ) -> list[TaskOutcome]:
        """Apply ``fn`` to every task and return outcomes in task order.

        ``timeout`` is a per-task budget in seconds.  Backends that cannot
        preempt (serial, threads) record overruns via ``timed_out`` but keep
        the value; ``ProcessExecutor`` terminates the worker and returns an
        outcome with ``value=None, timed_out=True``.

        ``deadline`` is a batch-wide budget: every backend skips tasks that
        have not started when it expires (cooperative enforcement), and the
        process backend also terminates in-flight workers at expiry.
        """
        raise NotImplementedError

    def create_dataplane(self):
        """Zero-copy data plane for workers outside the caller's memory, or ``None``.

        Callers register base arrays with the returned
        :class:`~repro.exec.dataplane.DataPlane` and submit tasks carrying
        :class:`~repro.exec.dataplane.ArrayRef` slices instead of array
        values; the caller that created the plane must ``close()`` it when
        the run ends.  The base implementation returns ``None``: workers
        that share the caller's memory (serial, threads, ``fork``
        children) already receive task data as views, so it travels by
        value.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _run_inline(
    fn: Callable[[Any], Any],
    task: Any,
    timeout: float | None,
    deadline: "Deadline | None" = None,
) -> TaskOutcome:
    """Execute one task in the calling process with a soft timeout.

    The deadline is checked *before* the task starts (a running task cannot
    be preempted in-process): an already-expired deadline skips the task.
    """
    if deadline is not None:
        if deadline.expired:
            return _deadline_outcome(-1, deadline)
        # Clamp against the time remaining *at task start*: a task is only
        # flagged when it outruns its own budget or crosses the deadline.
        timeout = deadline.clamp(timeout)
    start = time.perf_counter()
    try:
        value, error = fn(task), ""
    except Exception as exc:  # noqa: BLE001 - task failures become outcomes
        value, error = None, repr(exc)
    seconds = time.perf_counter() - start
    timed_out = timeout is not None and seconds > timeout
    return TaskOutcome(index=-1, value=value, error=error, seconds=seconds, timed_out=timed_out)


class SerialExecutor(BaseExecutor):
    """Run every task sequentially in the calling process."""

    name = "serial"

    def map_tasks(self, fn, tasks, timeout=None, deadline=None):
        outcomes = []
        for index, task in enumerate(tasks):
            outcome = _run_inline(fn, task, timeout, deadline)
            outcome.index = index
            outcomes.append(outcome)
        return outcomes


class ThreadExecutor(BaseExecutor):
    """Fan tasks out to a thread pool (soft timeouts)."""

    name = "threads"

    def __init__(self, n_jobs: int | None = None):
        self.n_jobs = resolve_n_jobs(n_jobs)

    def map_tasks(self, fn, tasks, timeout=None, deadline=None):
        if not tasks:
            return []
        with _FuturesThreadPool(max_workers=self.n_jobs) as pool:
            # The deadline check runs inside each worker at task start, so
            # queued tasks behind slow ones are skipped once it expires.
            futures = [pool.submit(_run_inline, fn, task, timeout, deadline) for task in tasks]
            outcomes = []
            for index, future in enumerate(futures):
                outcome = future.result()
                outcome.index = index
                outcomes.append(outcome)
        return outcomes

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_jobs={self.n_jobs})"


def _process_worker(conn, fn, task) -> None:
    """Worker body: run the task and ship ``(value, error)`` back over a pipe."""
    try:
        payload = (fn(task), "")
    except Exception as exc:  # noqa: BLE001 - task failures become outcomes
        payload = (None, repr(exc))
    try:
        conn.send(payload)
    except Exception as exc:  # noqa: BLE001 - e.g. unpicklable return value
        conn.send((None, f"task result could not be returned: {exc!r}"))
    finally:
        conn.close()


class ProcessExecutor(BaseExecutor):
    """Run tasks in worker processes with enforced per-task timeouts.

    Each task gets a dedicated worker process (at most ``n_jobs`` alive at
    once) so an overrunning task can be killed without poisoning a shared
    pool.  The ``fork`` start method is preferred when available because it
    lets closures (e.g. toolkit factory lambdas) cross the process boundary
    without pickling; tasks that cannot be shipped to a worker at all fall
    back to inline execution with a soft timeout.

    ``fork`` children also inherit the caller's arrays, so task data
    travels by value there; only ``spawn`` and ``forkserver`` workers,
    which would otherwise unpickle every slice, get a
    :class:`~repro.exec.dataplane.SharedMemoryPlane`.
    """

    name = "processes"

    def __init__(
        self,
        n_jobs: int | None = None,
        start_method: str | None = None,
        poll_interval: float = 0.02,
    ):
        self.n_jobs = resolve_n_jobs(n_jobs)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self.poll_interval = float(poll_interval)

    def create_dataplane(self):
        if self.start_method == "fork":
            return None
        from .dataplane import SharedMemoryPlane

        return SharedMemoryPlane()

    def map_tasks(self, fn, tasks, timeout=None, deadline=None):
        if not tasks:
            return []
        if self.start_method == "fork":
            # A fork child inherits the modules its parent has imported and
            # nothing else: load SciPy's optimizer, which the smoothing and
            # SVR fits import where they call it, once here, not per task.
            import scipy.optimize  # noqa: F401
        ctx = multiprocessing.get_context(self.start_method)
        pending = deque(enumerate(tasks))
        running: dict[int, tuple[Any, Any, float]] = {}
        outcomes: list[TaskOutcome | None] = [None] * len(tasks)

        while pending or running:
            while pending and len(running) < self.n_jobs:
                index, task = pending.popleft()
                if deadline is not None and deadline.expired:
                    outcomes[index] = _deadline_outcome(index, deadline)
                    continue
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(target=_process_worker, args=(child_conn, fn, task))
                try:
                    process.start()
                except Exception:  # noqa: BLE001 - unpicklable task under spawn
                    parent_conn.close()
                    child_conn.close()
                    outcome = _run_inline(fn, task, timeout, deadline)
                    outcome.index = index
                    # Inline execution cannot preempt: the enforced per-task
                    # budget silently became a soft one, so say so.
                    outcome.timeout_downgraded = timeout is not None
                    outcomes[index] = outcome
                    continue
                child_conn.close()
                running[index] = (process, parent_conn, time.perf_counter())

            if not running:
                continue
            connections = [conn for (_, conn, _) in running.values()]
            multiprocessing.connection.wait(connections, timeout=self.poll_interval)
            now = time.perf_counter()
            for index in list(running):
                process, conn, start = running[index]
                elapsed = now - start
                # Check liveness BEFORE polling the pipe: workers send their
                # result before exiting, so a worker observed dead prior to
                # an empty poll genuinely produced nothing — while a worker
                # that exits between the two checks shows up as alive here
                # and is handled on the next sweep.  A delivered result
                # always wins over preemption or exit-code reporting.
                dead = not process.is_alive()
                if conn.poll():
                    try:
                        value, error = conn.recv()
                    except (EOFError, OSError):
                        value, error = None, "worker exited without returning a result"
                    outcomes[index] = TaskOutcome(
                        index=index, value=value, error=error, seconds=elapsed
                    )
                elif (timeout is not None and elapsed > timeout) or (
                    deadline is not None and deadline.expired
                ):
                    process.terminate()
                    if timeout is not None and elapsed > timeout:
                        reason = f"terminated after exceeding the {timeout:g}s task budget"
                    else:
                        reason = (
                            f"terminated: the {deadline.seconds:g}s batch deadline "
                            "was exhausted"
                        )
                    outcomes[index] = TaskOutcome(
                        index=index,
                        error=reason,
                        seconds=elapsed,
                        timed_out=True,
                    )
                elif dead:
                    outcomes[index] = TaskOutcome(
                        index=index,
                        error=f"worker died with exit code {process.exitcode}",
                        seconds=elapsed,
                    )
                else:
                    continue
                del running[index]
                conn.close()
                # A worker that ignores SIGTERM (native signal handler, stuck
                # C extension) must not hang the engine: escalate to SIGKILL.
                process.join(timeout=5.0)
                if process.is_alive():
                    process.kill()
                    process.join()
        return outcomes

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_jobs={self.n_jobs}, "
            f"start_method={self.start_method!r})"
        )


#: Backend aliases accepted by :func:`get_executor` (and therefore by the
#: ``executor=`` knob on TDaub / AutoAITS / BenchmarkRunner).
_EXECUTOR_ALIASES = {
    "serial": SerialExecutor,
    "sequential": SerialExecutor,
    "threads": ThreadExecutor,
    "thread": ThreadExecutor,
    "processes": ProcessExecutor,
    "process": ProcessExecutor,
}


def get_executor(spec: str | BaseExecutor | None, n_jobs: int | None = None) -> BaseExecutor:
    """Resolve an executor knob (instance, alias or ``None``) to a backend.

    ``None`` picks ``SerialExecutor`` when the resolved ``n_jobs`` is one and
    ``ProcessExecutor`` otherwise, so ``n_jobs=4`` alone is enough to go
    parallel.  Aliases: ``serial``/``sequential``, ``threads``/``thread``,
    ``processes``/``process``, and ``remote`` (worker addresses taken from
    the ``REPRO_REMOTE_WORKERS`` environment variable; construct a
    :class:`~repro.exec.remote.RemoteExecutor` directly to pass them
    explicitly).
    """
    if isinstance(spec, BaseExecutor):
        return spec
    if spec is None:
        return ProcessExecutor(n_jobs) if resolve_n_jobs(n_jobs) > 1 else SerialExecutor()
    key = str(spec).strip().lower()
    if key == "remote":
        from .remote import RemoteExecutor

        return RemoteExecutor.from_env()
    if key not in _EXECUTOR_ALIASES:
        from ..exceptions import InvalidParameterError

        raise InvalidParameterError(
            f"Unknown executor {spec!r}. Choose one of "
            f"{sorted(set(_EXECUTOR_ALIASES) | {'remote'})} or pass a "
            "BaseExecutor instance."
        )
    backend = _EXECUTOR_ALIASES[key]
    if backend is SerialExecutor:
        return SerialExecutor()
    return backend(n_jobs)
