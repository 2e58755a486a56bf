"""Execution engine: pluggable parallel backends plus evaluation memoization.

Everything in the reproduction that evaluates many independent units of work
— T-Daub's allocation rounds, the acceleration steps, the run-to-completion
scoring phase and the full benchmark matrix — funnels through this package:

- :mod:`repro.exec.executor` — ``SerialExecutor`` / ``ThreadExecutor`` /
  ``ProcessExecutor`` behind one order-preserving ``map_tasks`` interface,
  with real per-task timeout enforcement in the process backend and
  cooperative batch-wide :class:`Deadline` enforcement on every backend.
- :mod:`repro.exec.remote` — ``RemoteExecutor`` / ``WorkerServer``, the
  same ``map_tasks`` contract fanned out across machines over a socket
  protocol (length-prefixed pickle frames, forwarded timeouts/deadlines,
  worker-death detection, one-time content-addressed blob distribution).
- :mod:`repro.exec.dataplane` — the zero-copy data plane for workers that
  do not share the caller's memory: base arrays are registered once per
  run (shared memory for ``spawn``/``forkserver`` processes, blobs on
  remote) and tasks carry tiny ``ArrayRef`` slices instead of pickled
  array values.  Serial, thread and ``fork`` workers get read-only views.
- :mod:`repro.exec.cache` — :class:`EvaluationCache`, a two-tier memo of
  ``(pipeline params, data fingerprints, horizon) -> score``: an in-memory
  front tier plus an optional persistent tier, any
  :class:`repro.store.StoreBackend`; and the two fingerprints its keys are
  built from.
- :mod:`repro.exec.tasks` — picklable task payloads and runner functions
  for pipeline evaluations and benchmark cells.
"""

from .cache import CacheStats, EvaluationCache, array_fingerprint, estimator_fingerprint
from .dataplane import (
    ArrayRef,
    DataPlane,
    FrameColumnRef,
    FrameRef,
    SharedMemoryPlane,
    hydrate_task,
    resolve_array,
    resolve_frame,
    resolve_payload,
)
from .executor import (
    BaseExecutor,
    Deadline,
    ProcessExecutor,
    SerialExecutor,
    TaskOutcome,
    ThreadExecutor,
    get_executor,
    resolve_n_jobs,
)
from .remote import RemoteBlobPlane, RemoteExecutor, WireStats, WorkerServer
from .tasks import (
    FitScoreResult,
    FitScoreTask,
    ToolkitRunResult,
    ToolkitRunTask,
    run_fit_score_task,
    run_toolkit_task,
)

__all__ = [
    "BaseExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "TaskOutcome",
    "Deadline",
    "get_executor",
    "resolve_n_jobs",
    "RemoteExecutor",
    "WorkerServer",
    "RemoteBlobPlane",
    "WireStats",
    "ArrayRef",
    "FrameRef",
    "FrameColumnRef",
    "DataPlane",
    "SharedMemoryPlane",
    "hydrate_task",
    "resolve_array",
    "resolve_frame",
    "resolve_payload",
    "EvaluationCache",
    "CacheStats",
    "array_fingerprint",
    "estimator_fingerprint",
    "FitScoreTask",
    "FitScoreResult",
    "run_fit_score_task",
    "ToolkitRunTask",
    "ToolkitRunResult",
    "run_toolkit_task",
]
