"""Benchmark runner: shared splits, timing, failure handling, resume.

"The benchmarking mechanism ... enables us to run experiments both on our
system, i.e., AutoAI-TS as well as on the 10 SOTA frameworks with the same
train-test split to get comparative performance results" (section 5).

Every ``(dataset, toolkit)`` cell of the matrix is independent, so the
runner fans the whole matrix through the execution engine
(:mod:`repro.exec`).  With the process backend the per-run training budget
is *enforced*: a toolkit that overruns ``max_train_seconds`` is terminated
and recorded as an over-budget failure.  The serial and thread backends
cannot preempt Python, so there the budget stays soft — the run is kept but
flagged ``over_budget`` so reports can call it out.

With a ``manifest_path`` the run is **resumable**: finished cells are
recorded into a :class:`~repro.benchmarking.manifest.RunManifest` as the
matrix progresses, and a re-invocation with the same suite merges the
recorded cells (marked ``from_cache``) instead of recomputing them.  An
interrupted run therefore resumes from its last checkpoint and produces the
same summary tables as an uninterrupted one.

With ``steal=True`` the runner is one of several **work-stealing workers**
sharing the matrix: cells are pulled from a
:class:`~repro.benchmarking.sharding.CellQueue` next to the manifest and
recorded into a merge-on-flush
:class:`~repro.benchmarking.manifest.SharedManifest`.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Callable, Iterable, Mapping

import numpy as np

from .. import faults
from .._validation import as_2d_array, check_fraction, check_horizon
from ..core.base import BaseForecaster
from ..exec.dataplane import share_payload
from ..exec.executor import BaseExecutor, SerialExecutor, get_executor, resolve_n_jobs
from ..exec.tasks import ToolkitRunTask, run_toolkit_task
from .manifest import RunManifest, SharedManifest, fingerprint_of_spec, suite_spec
from .results import BenchmarkResults, ToolkitRun

__all__ = ["BenchmarkRunner"]

ToolkitFactory = Callable[[int], BaseForecaster]


def _canonical_dataset(data):
    """Normalize one dataset input: frames pass through, arrays coerce.

    Columnar frames (in-RAM or spilled) stay columnar all the way into
    the tasks — splitting is ``slice_rows`` views and registration is
    per-column — so a spilled dataset is never materialized in the
    runner process.
    """
    if getattr(data, "is_timeseries_frame", False):
        return data
    return as_2d_array(data)


def _split_payload(handle, n_train: int):
    """Train/test split of any dataset handle (array, ref or frame)."""
    if getattr(handle, "is_timeseries_frame", False):
        return handle.slice_rows(0, n_train), handle.slice_rows(n_train, len(handle))
    return handle[:n_train], handle[n_train:]


def _shared_splits(plane, splits: Mapping[str, tuple]) -> Callable[[str], tuple]:
    """``dataset -> (train, test)`` task payloads, shared on first use.

    One share per dataset per run: every cell of a dataset slices the
    same read-only view or data-plane ref (see
    :func:`~repro.exec.dataplane.share_payload`).  Sharing waits until a
    cell actually runs, so a fully-warm resume pays no shared-memory copy
    for a dataset it never computes.
    """
    shared: dict[str, tuple] = {}

    def splits_for(dataset: str) -> tuple:
        if dataset not in shared:
            data, n_train = splits[dataset]
            shared[dataset] = _split_payload(share_payload(plane, data), n_train)
        return shared[dataset]

    return splits_for


class BenchmarkRunner:
    """Run a set of toolkits over a set of data sets with shared splits.

    Parameters
    ----------
    horizon:
        Number of future values every toolkit must predict (paper: 12).
    train_fraction:
        Fraction of each series used for training (paper: 80%).
    evaluation_window:
        Number of holdout points scored with SMAPE; defaults to ``horizon``.
    max_train_seconds:
        Per-run training budget.  Enforced (the worker is terminated) on the
        process backend; soft (run kept, flagged ``over_budget``) on the
        serial and thread backends.  ``None`` disables the check.
    n_jobs:
        Number of matrix cells evaluated concurrently.
    executor:
        Execution backend: ``None`` (serial for ``n_jobs<=1``, processes
        otherwise), ``"serial"``, ``"threads"``, ``"processes"`` or a
        :class:`~repro.exec.BaseExecutor` instance.
    manifest_path:
        Path of a run manifest.  When set, finished cells are checkpointed
        there (per cell on the serial backend, per dataset row on parallel
        backends) and — unless ``run(..., resume=False)`` — a previous
        manifest of the *same suite* is merged, skipping its cells.  A
        manifest whose suite fingerprint does not match is discarded with a
        loud :class:`~repro.benchmarking.manifest.ManifestMismatchWarning`
        naming the mismatched knobs (``run(..., resume="strict")`` raises
        instead).
    store:
        Storage backend holding the manifest documents: a
        :class:`~repro.store.StoreBackend`, an ``http://`` object-store
        URL, or ``None`` (default) for plain files at ``manifest_path``.
        With an object store, stealing workers on different hosts
        coordinate via conditional PUT and need no shared filesystem.
    worker_id:
        Display name of this stealing worker, recorded in the queue's
        provenance (default ``worker-<pid>``).  Requires ``steal``.
    reclaim_stale:
        Age in seconds after which another worker's queue lease counts as
        abandoned: a worker that died holding leases (SIGKILL, node loss)
        stops refreshing its heartbeat, and once the newest of
        ``claimed_at``/``heartbeat`` is older than this, its entries
        become pullable again.  ``None`` (default) never reclaims — a dead
        worker's leases stay blocked.  Requires ``steal``.
    steal:
        Run as an **elastic work-stealing worker**: cells are pulled
        longest-projected-cost-first from a shared
        :class:`~repro.benchmarking.sharding.CellQueue` document next to
        the manifest, so any number of workers — including ones joining
        mid-run — drain one queue without pre-partitioning.  When the
        pending queue is empty a worker steals: it reclaims entries whose
        heartbeat went stale for ``reclaim_stale`` seconds, or picks up
        pending parts of a long cell a peer is executing (split cells; see
        ``split_threshold``).  Requires ``manifest_path``; results are
        recorded into a merge-on-flush
        :class:`~repro.benchmarking.manifest.SharedManifest`.  The merged
        manifest stays byte-identical to a single-process run — scheduling
        is invisible in the output.
    split_threshold:
        A cell whose projected cost exceeds this multiple of the median
        cell cost is decomposed into parts multiple workers can execute
        concurrently — provided its toolkit factory supports
        ``split_parts(n)`` (parts warm the shared evaluation store; the
        recorded result always comes from one full merge execution).
        ``None`` or ``0`` disables splitting.  Only meaningful with
        ``steal``.
    verbose:
        Print one line per (dataset, toolkit) pair as the matrix runs.
    """

    def __init__(
        self,
        horizon: int = 12,
        train_fraction: float = 0.8,
        evaluation_window: int | None = None,
        max_train_seconds: float | None = None,
        n_jobs: int | None = None,
        executor: str | BaseExecutor | None = None,
        manifest_path: str | None = None,
        store=None,
        worker_id: str | None = None,
        reclaim_stale: float | None = None,
        steal: bool = False,
        split_threshold: float | None = 2.0,
        verbose: bool = False,
    ):
        from ..store import open_store

        self.horizon = check_horizon(horizon)
        self.train_fraction = check_fraction(train_fraction, "train_fraction")
        self.evaluation_window = evaluation_window
        self.max_train_seconds = max_train_seconds
        self.n_jobs = n_jobs
        self.executor = executor
        self.manifest_path = manifest_path
        self.store = open_store(store)
        self.worker_id = worker_id
        self.reclaim_stale = None if reclaim_stale is None else float(reclaim_stale)
        self.steal = bool(steal)
        self.split_threshold = split_threshold
        if not self.steal and (worker_id is not None or reclaim_stale is not None):
            from ..exceptions import InvalidParameterError

            raise InvalidParameterError(
                "worker_id and reclaim_stale require steal=True: they name and "
                "heal the leases of a work-stealing worker"
            )
        if self.steal and manifest_path is None:
            from ..exceptions import InvalidParameterError

            raise InvalidParameterError(
                "steal requires manifest_path: stealing workers coordinate "
                "through a shared queue document next to the manifest"
            )
        self.verbose = verbose

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[benchmark] {message}")

    def _train_length(self, n_samples: int) -> int:
        n_train = int(round(n_samples * self.train_fraction))
        return min(max(n_train, 1), n_samples - 1)

    def split(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """80/20 (by default) temporal split shared by every toolkit.

        Columnar frames split into zero-copy ``slice_rows`` views (no
        materialization — a spilled frame stays on disk).
        """
        data = _canonical_dataset(data)
        n_train = self._train_length(len(data))
        return _split_payload(data, n_train)

    def evaluate_toolkit(
        self, factory: ToolkitFactory, train: np.ndarray, test: np.ndarray
    ) -> tuple[float, float, str]:
        """Fit one toolkit in-process and return ``(smape, seconds, error)``."""
        result = run_toolkit_task(
            ToolkitRunTask(
                tag=None,
                factory=factory,
                train=train,
                test=test,
                horizon=self.horizon,
                evaluation_window=self.evaluation_window,
            )
        )
        return result.smape, result.seconds, result.error

    def run(
        self,
        datasets: Mapping[str, np.ndarray],
        toolkits: Mapping[str, ToolkitFactory],
        resume: bool | str = True,
    ) -> BenchmarkResults:
        """Run every toolkit on every data set and collect the results.

        With ``manifest_path`` set and ``resume`` true (the default), cells
        recorded by a previous run of the same suite are merged instead of
        recomputed; ``resume=False`` recomputes everything and overwrites
        the manifest; ``resume="strict"`` raises
        :class:`~repro.benchmarking.manifest.ManifestMismatchError` when no
        resumable manifest exists, so an interrupted run is never silently
        re-paid in full.
        """
        engine = get_executor(self.executor, self.n_jobs)
        plane = engine.create_dataplane()
        try:
            if self.steal:
                return self._run_stealing(datasets, toolkits, resume, engine, plane)
            return self._run(datasets, toolkits, resume, engine, plane)
        finally:
            if plane is not None:
                plane.close()

    def _run(
        self,
        datasets: Mapping[str, np.ndarray],
        toolkits: Mapping[str, ToolkitFactory],
        resume: bool | str,
        engine: BaseExecutor,
        plane,
    ) -> BenchmarkResults:
        splits: dict[str, tuple[np.ndarray, int]] = {}
        for dataset_name, data in datasets.items():
            data = _canonical_dataset(data)
            splits[dataset_name] = (data, self._train_length(len(data)))
        cells = [(dataset, toolkit) for dataset in datasets for toolkit in toolkits]

        manifest: RunManifest | None = None
        if self.manifest_path is not None:
            spec = suite_spec(
                datasets,
                toolkits,
                horizon=self.horizon,
                train_fraction=self.train_fraction,
                evaluation_window=self.evaluation_window,
                max_train_seconds=self.max_train_seconds,
            )
            manifest = RunManifest(
                self.manifest_path, fingerprint_of_spec(spec), spec, backend=self.store
            )
            if resume and manifest.load(strict=resume == "strict"):
                self._log(
                    f"resuming from {self.manifest_path}: "
                    f"{len(manifest)} of {len(cells)} cells already recorded"
                )

        #: The manifest object of the latest ``run`` (None without
        #: ``manifest_path``) — lets callers read it back afterwards.
        self.last_manifest_ = manifest

        completed: dict[tuple, ToolkitRun] = {}
        pending: list[ToolkitRunTask] = []
        splits_for = _shared_splits(plane, splits)
        for cell in cells:
            cached = manifest.get(*cell) if manifest is not None else None
            if cached is not None:
                completed[cell] = cached
                self._log(
                    f"{cached.dataset:<28s} {cached.toolkit:<18s} resumed from manifest"
                )
                continue
            train, test = splits_for(cell[0])
            pending.append(
                ToolkitRunTask(
                    tag=cell,
                    factory=toolkits[cell[1]],
                    train=train,
                    test=test,
                    horizon=self.horizon,
                    evaluation_window=self.evaluation_window,
                )
            )

        for chunk in self._checkpoint_chunks(pending, manifest, engine):
            outcomes = engine.map_tasks(
                run_toolkit_task, chunk, timeout=self.max_train_seconds
            )
            for task, outcome in zip(chunk, outcomes):
                self._log_outcome(task, outcome)
                run = self._to_run(task, outcome)
                completed[task.tag] = run
                if manifest is not None and not self._transient_failure(outcome):
                    manifest.record(run)
            if manifest is not None:
                manifest.flush()
            # Chaos seam: a worker dying right after a checkpoint has
            # durable results — the resume path must carry the run from here.
            faults.check("runner.checkpoint")

        results = BenchmarkResults(horizon=self.horizon)
        for cell in cells:
            if cell in completed:
                results.add(completed[cell])
        return results

    def _run_stealing(
        self,
        datasets: Mapping[str, np.ndarray],
        toolkits: Mapping[str, ToolkitFactory],
        resume: bool | str,
        engine: BaseExecutor,
        plane,
    ) -> BenchmarkResults:
        """One elastic worker: pull, execute, record, repeat until drained.

        The shared queue document decides what this worker runs, so the
        same invocation serves the first worker of a run and a worker
        joining hours later.  Cells and merges are recorded into
        the shared manifest exactly like the plain path; parts only warm
        the shared evaluation store and never touch the manifest, which is
        how a split cell's merged result stays byte-identical to an
        unsplit run.
        """
        from .costmodel import CellCostModel, split_factories
        from .sharding import CellQueue

        spec = suite_spec(
            datasets,
            toolkits,
            horizon=self.horizon,
            train_fraction=self.train_fraction,
            evaluation_window=self.evaluation_window,
            max_train_seconds=self.max_train_seconds,
        )
        fingerprint = fingerprint_of_spec(spec)
        worker = self.worker_id or f"worker-{os.getpid()}"
        manifest = SharedManifest(self.manifest_path, fingerprint, spec, backend=self.store)
        if resume:
            manifest.load(strict=resume == "strict")
        self.last_manifest_ = manifest

        splits: dict[str, tuple[np.ndarray, int]] = {}
        for dataset_name, data in datasets.items():
            data = _canonical_dataset(data)
            splits[dataset_name] = (data, self._train_length(len(data)))
        all_cells = [(dataset, toolkit) for dataset in datasets for toolkit in toolkits]

        queue = CellQueue(
            CellQueue.doc_for_manifest(self.manifest_path),
            fingerprint,
            backend=self.store,
            worker=worker,
            reclaim_stale=self.reclaim_stale,
        )
        #: The queue object of the latest stealing ``run`` — lets callers
        #: read scheduler provenance afterwards.
        self.last_queue_ = queue

        snapshot = queue.snapshot()
        rates = snapshot.get("rates", {}) if snapshot is not None else {}
        cost_model = CellCostModel(datasets, toolkits, rates=rates)
        unrecorded = [cell for cell in all_cells if manifest.get(*cell) is None]
        if unrecorded and queue.seed(
            cost_model.plan_entries(unrecorded, toolkits, self.split_threshold),
            rates=cost_model.rates,
        ):
            self._log(
                f"seeded work queue with {len(unrecorded)} unrecorded cells "
                f"({queue.doc_name})"
            )

        completed: dict[tuple, ToolkitRun] = {}
        part_cache: dict[tuple[str, int], list] = {}
        batch_limit = max(1, resolve_n_jobs(self.n_jobs))
        splits_for = _shared_splits(plane, splits)

        while True:
            batch = queue.pull(limit=batch_limit)
            if not batch:
                counts = queue.counts()
                # Pending work we cannot pull is a merge gated on a peer's
                # parts; running work is a live peer (or, under
                # reclaim_stale, a dead one we will eventually steal from).
                # Without reclaim_stale a dead peer's leases never free up,
                # so only pending work is worth waiting on.
                if counts["pending"] > 0 or (
                    self.reclaim_stale is not None and counts["running"] > 0
                ):
                    time.sleep(0.05)
                    continue
                break
            # Leases pulled but not yet completed or requeued.  Any
            # exception, KeyboardInterrupt included, hands them back to the
            # queue before it propagates: otherwise they stay ``running``
            # under a worker that is gone, and peers could only take them
            # over after ``reclaim_stale`` (or never, without it).
            unsettled = list(batch)
            try:
                tasks: list[ToolkitRunTask] = []
                runnable: list[dict] = []
                for entry in batch:
                    factory = toolkits[entry["toolkit"]]
                    if entry["kind"] == "part":
                        index, n_parts = entry["part"]
                        cache_key = (entry["toolkit"], int(n_parts))
                        if cache_key not in part_cache:
                            part_cache[cache_key] = split_factories(factory, n_parts)
                        parts = part_cache[cache_key]
                        if parts is None or len(parts) != int(n_parts):
                            # The factory no longer splits the way the plan
                            # assumed (e.g. code changed between seed and
                            # pull): settle the part as a no-op, the merge
                            # runs cold.
                            queue.complete(entry, seconds=0.0)
                            unsettled.remove(entry)
                            continue
                        factory = parts[int(index)]
                    train, test = splits_for(entry["dataset"])
                    tasks.append(
                        ToolkitRunTask(
                            tag=(entry["dataset"], entry["toolkit"]),
                            factory=factory,
                            train=train,
                            test=test,
                            horizon=self.horizon,
                            evaluation_window=self.evaluation_window,
                            heartbeat=queue.beacon(entry),
                        )
                    )
                    runnable.append(entry)
                if not tasks:
                    continue
                outcomes = engine.map_tasks(
                    run_toolkit_task, tasks, timeout=self.max_train_seconds
                )
                recorded = False
                for entry, task, outcome in zip(runnable, tasks, outcomes):
                    if self._transient_failure(outcome):
                        self._log(
                            f"{entry['dataset']:<28s} {entry['toolkit']:<18s} "
                            f"transient failure; requeued ({entry['kind']})"
                        )
                        queue.requeue(entry)
                    elif entry["kind"] == "part":
                        queue.complete(entry, seconds=outcome.seconds)
                    else:
                        self._log_outcome(task, outcome)
                        run = self._to_run(task, outcome)
                        completed[task.tag] = run
                        manifest.record(run)
                        recorded = True
                        queue.complete(entry, seconds=outcome.seconds)
                    unsettled.remove(entry)
                if recorded:
                    manifest.flush()
            except BaseException:
                for entry in unsettled:
                    # Best effort: the original exception is what must
                    # surface; a lease the store refuses to take back is
                    # left to reclaim_stale.
                    with contextlib.suppress(OSError):
                        queue.requeue(entry)
                raise
            # Chaos seam shared with the plain path: durable results,
            # freshly settled queue state, worker may die right here.
            faults.check("runner.checkpoint", detail=worker)

        # Final merge so this worker's results also carry the cells peers
        # recorded (marked from_cache); our own fresh measurements win.
        manifest.flush()
        results = BenchmarkResults(horizon=self.horizon)
        for cell in all_cells:
            run = completed.get(cell) or manifest.get(*cell)
            if run is not None:
                results.add(run)
        return results

    def _checkpoint_chunks(
        self,
        pending: list[ToolkitRunTask],
        manifest: RunManifest | None,
        engine: BaseExecutor,
    ) -> Iterable[list[ToolkitRunTask]]:
        """Split the remaining tasks into units of work between checkpoints.

        Without a manifest the whole matrix is one batch (maximum backend
        parallelism); on the serial backend it is one cell at a time so
        verbose logs stay live.  With a manifest the serial backend
        checkpoints after every cell; parallel backends checkpoint at
        dataset-row boundaries, but rows are accumulated until the chunk
        can fill the worker pool so narrow matrices (few toolkits) do not
        starve a wide ``n_jobs``.
        """
        if not pending:
            return
        if isinstance(engine, SerialExecutor):
            for task in pending:
                yield [task]
            return
        if manifest is None:
            yield pending
            return
        workers = getattr(engine, "n_jobs", None) or resolve_n_jobs(self.n_jobs)
        chunk: list[ToolkitRunTask] = []
        for task in pending:
            if chunk and chunk[-1].tag[0] != task.tag[0] and len(chunk) >= workers:
                yield chunk
                chunk = []
            chunk.append(task)
        if chunk:
            yield chunk

    @staticmethod
    def _transient_failure(outcome) -> bool:
        """True for executor-level failures that deserve a retry on resume.

        A worker that crashed (OOM kill, node fault) without being preempted
        over budget says nothing about the toolkit itself, so the cell is
        reported for this invocation but *not* checkpointed — mirroring the
        evaluation cache's never-cache-transient-failures policy.  Budget
        preemptions and in-toolkit errors are deterministic facts of the
        suite and are recorded.
        """
        return outcome.value is None and not outcome.timed_out

    def _to_run(self, task: ToolkitRunTask, outcome) -> ToolkitRun:
        """Fold one engine outcome into the paper's result conventions."""
        dataset_name, toolkit_name = task.tag
        budget = self.max_train_seconds
        result = outcome.value
        if result is None:
            # The worker never returned: preempted over budget or crashed.
            failed = True
            smape_value, seconds = 0.0, outcome.seconds
            over_budget = bool(outcome.timed_out)
            failure = outcome.error or "execution engine returned no result"
        else:
            failed = bool(result.error)
            smape_value, seconds = result.smape, result.seconds
            failure = result.error
            over_budget = bool(outcome.timed_out) or (
                budget is not None and seconds > budget
            )
            if over_budget and not failure:
                failure = f"exceeded budget of {budget}s"
        return ToolkitRun(
            toolkit=toolkit_name,
            dataset=dataset_name,
            smape=0.0 if failed else smape_value,
            train_seconds=0.0 if failed else seconds,
            failed=failed,
            error=failure,
            over_budget=over_budget,
        )

    def _log_outcome(self, task: ToolkitRunTask, outcome) -> None:
        if not self.verbose:
            return
        run = self._to_run(task, outcome)
        if run.failed:
            status = "OVER-BUDGET" if run.over_budget else "FAILED"
        else:
            status = f"SMAPE={run.smape:7.2f}"
            if run.over_budget:
                status += " (over budget)"
        self._log(
            f"{run.dataset:<28s} {run.toolkit:<18s} {status} ({outcome.seconds:6.2f}s)"
        )
