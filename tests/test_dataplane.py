"""Tests for the zero-copy data plane: refs, planes, lifecycle, protocols.

Covers the three distribution channels (in-process registry, shared-memory
segments, remote blobs), which backends get a plane at all, the
shared-memory lifecycle guarantees (no leaked segments or resource-tracker
warnings after normal close, worker crash and deadline preemption), the
read-only task inputs of every backend and the by-ref == by-value
equivalence contracts (cache keys, rankings, manifests).
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.benchmarking import BenchmarkRunner
from repro.core import TDaub
from repro.exec import (
    ArrayRef,
    BaseExecutor,
    DataPlane,
    Deadline,
    FitScoreTask,
    ProcessExecutor,
    RemoteExecutor,
    SerialExecutor,
    SharedMemoryPlane,
    ThreadExecutor,
    array_fingerprint,
    hydrate_task,
    resolve_array,
    run_fit_score_task,
)
from repro.exec.dataplane import _LOCAL_BASES, SHM_NAME_PREFIX, active_segments
from repro.forecasters.naive import (
    DriftForecaster,
    MeanForecaster,
    SeasonalNaiveForecaster,
    ZeroModelForecaster,
)
from repro.forecasters.theta import ThetaForecaster
from repro.store import LocalFSBackend, array_digest

_SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _series(n=300, seed=7):
    t = np.arange(float(n))
    noise = np.random.default_rng(seed).normal(0, 1.0, n)
    return 50.0 + 0.3 * t + 10.0 * np.sin(2 * np.pi * t / 12.0) + noise


def _pipelines():
    return [
        ZeroModelForecaster(horizon=12),
        DriftForecaster(horizon=12),
        ThetaForecaster(horizon=12),
    ]


class TestArrayRef:
    def test_slicing_len_and_nesting(self):
        with DataPlane() as plane:
            base = np.arange(40.0).reshape(-1, 1)
            ref = plane.register(base)
            assert len(ref) == 40
            sub = ref[10:30]
            assert (sub.start, sub.stop, len(sub)) == (10, 30, 20)
            nested = sub[5:10]
            assert (nested.start, nested.stop) == (15, 20)
            assert np.array_equal(resolve_array(nested), base[15:20])
            # Open-ended and negative-free slices behave like ndarray rows.
            assert np.array_equal(resolve_array(ref[:8]), base[:8])
            assert np.array_equal(resolve_array(ref[32:]), base[32:])

    def test_stepped_slices_are_rejected(self):
        with DataPlane() as plane:
            ref = plane.register(np.arange(10.0))
            with pytest.raises(TypeError):
                ref[::2]

    def test_resolved_slices_are_read_only_views(self):
        with DataPlane() as plane:
            ref = plane.register(np.arange(10.0))
            resolved = resolve_array(ref[2:6])
            assert not resolved.flags.writeable

    def test_unregistered_ref_raises_lookup_error(self):
        orphan = ArrayRef(
            digest="0" * 32, start=0, stop=4, shape=(4, 1), dtype="<f8", shm_name=None
        )
        with pytest.raises(LookupError):
            resolve_array(orphan)


class TestDataPlane:
    def test_register_resolve_roundtrip(self):
        with DataPlane() as plane:
            base = _series(64).reshape(-1, 1)
            ref = plane.register(base)
            assert np.array_equal(resolve_array(ref), base)

    def test_fingerprint_matches_by_value_scheme(self):
        """A ref's fingerprint equals the fingerprint of its array value.

        This is what keeps cache keys — and warm persistent stores — valid
        across the by-ref/by-value boundary.
        """
        with DataPlane() as plane:
            base = _series(80).reshape(-1, 1)
            ref = plane.register(base)
            assert array_fingerprint(resolve_array(ref[10:60])) == array_fingerprint(base[10:60])
            assert array_fingerprint(resolve_array(ref)) == array_fingerprint(base)

    def test_refcounting_shares_and_releases_bases(self):
        base = _series(50)
        first, second = DataPlane(), DataPlane()
        ref = first.register(base)
        second.register(base)
        assert _LOCAL_BASES[ref.digest].refcount == 2
        first.close()
        assert _LOCAL_BASES[ref.digest].refcount == 1
        assert np.array_equal(resolve_array(ref), base)
        second.close()
        assert ref.digest not in _LOCAL_BASES

    def test_register_after_close_raises(self):
        plane = DataPlane()
        plane.close()
        with pytest.raises(RuntimeError):
            plane.register(np.arange(4.0))

    def test_close_is_idempotent(self):
        plane = DataPlane()
        plane.register(np.arange(4.0))
        plane.close()
        plane.close()

    def test_hydrate_task_resolves_ref_fields(self):
        with DataPlane() as plane:
            base = _series(60).reshape(-1, 1)
            ref = plane.register(base)
            task = FitScoreTask(
                tag=0,
                template=DriftForecaster(horizon=4),
                train=ref[:50],
                test=ref[50:],
                horizon=4,
            )
            hydrated = hydrate_task(task)
            assert isinstance(hydrated.train, np.ndarray)
            assert np.array_equal(hydrated.train, base[:50])
            assert np.array_equal(hydrated.test, base[50:])
            # Non-dataclass payloads pass through untouched.
            assert hydrate_task("plain") == "plain"


class TestSharedMemoryPlane:
    def test_segment_created_and_unlinked_on_close(self):
        from multiprocessing import shared_memory

        plane = SharedMemoryPlane()
        ref = plane.register(_series(64))
        assert ref.shm_name is not None and ref.shm_name.startswith(SHM_NAME_PREFIX)
        assert ref.shm_name in active_segments()
        plane.close()
        assert not active_segments()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.shm_name)

    def test_same_digest_shares_one_segment_across_planes(self):
        base = _series(64)
        first, second = SharedMemoryPlane(), SharedMemoryPlane()
        ref_a = first.register(base)
        ref_b = second.register(base)
        assert ref_a.shm_name == ref_b.shm_name
        assert len(active_segments()) == 1
        first.close()
        # The surviving plane keeps the segment resolvable.
        assert np.array_equal(resolve_array(ref_b), base)
        second.close()
        assert not active_segments()

    def test_empty_array_falls_back_by_value(self):
        with SharedMemoryPlane() as plane:
            result = plane.register(np.empty((0, 1)))
            assert isinstance(result, np.ndarray)

    def test_fork_worker_resolves_without_attach(self):
        with SharedMemoryPlane() as plane:
            base = _series(120).reshape(-1, 1)
            ref = plane.register(base)
            task = FitScoreTask(
                tag=0,
                template=DriftForecaster(horizon=6),
                train=ref[:100],
                test=ref[100:],
                horizon=6,
            )
            outcomes = ProcessExecutor(n_jobs=2).map_tasks(run_fit_score_task, [task])
            assert outcomes[0].ok, outcomes[0].error
            by_value = run_fit_score_task(
                FitScoreTask(
                    tag=0,
                    template=DriftForecaster(horizon=6),
                    train=base[:100],
                    test=base[100:],
                    horizon=6,
                )
            )
            assert outcomes[0].value.score == by_value.score
            assert outcomes[0].value.n_train == by_value.n_train


_LIFECYCLE_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro.exec import (
        Deadline, FitScoreTask, ProcessExecutor, SharedMemoryPlane,
        run_fit_score_task,
    )
    from repro.exec.dataplane import active_segments
    from repro.forecasters.naive import DriftForecaster

    mode = sys.argv[1]
    plane = SharedMemoryPlane()
    base = np.arange(4000.0).reshape(-1, 1)
    ref = plane.register(base)
    template = DriftForecaster(horizon=4)

    if mode == "normal":
        out = ProcessExecutor(n_jobs=2, start_method="spawn").map_tasks(
            run_fit_score_task,
            [FitScoreTask(tag=0, template=template, train=ref[:3000], test=ref[3000:], horizon=4)],
        )
        assert out[0].ok, out[0].error
        assert out[0].value.n_train == 3000
    elif mode == "crash":
        def _crashing(task):
            import os
            os._exit(13)
        out = ProcessExecutor(n_jobs=2).map_tasks(_crashing, [ref[:3000]])
        assert "exit code" in out[0].error or "without returning" in out[0].error, out[0].error
    elif mode == "preempt":
        def _stuck(task):
            import time
            time.sleep(60.0)
        out = ProcessExecutor(n_jobs=2).map_tasks(
            _stuck, [ref[:3000]], deadline=Deadline(0.3)
        )
        assert out[0].timed_out
    else:
        raise SystemExit(f"unknown mode {mode}")

    plane.close()
    assert not active_segments(), active_segments()
    print("LIFECYCLE-OK")
    """
)


class TestSharedMemoryLifecycle:
    """No leaked segments, no resource-tracker noise — on every exit path.

    Each scenario runs in a fresh interpreter so the assertion covers full
    process teardown: the child's stderr must stay free of
    ``resource_tracker`` warnings and ``/dev/shm`` free of plane segments.
    """

    @pytest.mark.parametrize("mode", ["normal", "crash", "preempt"])
    def test_no_leaks_or_tracker_warnings(self, tmp_path, mode):
        script = tmp_path / "lifecycle.py"
        script.write_text(_LIFECYCLE_SCRIPT)
        env = dict(os.environ, PYTHONPATH=_SRC_DIR)
        result = subprocess.run(
            [sys.executable, str(script), mode],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "LIFECYCLE-OK" in result.stdout
        assert "resource_tracker" not in result.stderr, result.stderr
        assert "leaked" not in result.stderr, result.stderr
        shm_dir = Path("/dev/shm")
        if shm_dir.is_dir():
            leaked = [p.name for p in shm_dir.glob(f"{SHM_NAME_PREFIX}*")]
            assert not leaked, f"leaked shared-memory segments: {leaked}"


class TestTransportRule:
    """Only workers outside the caller's memory get a data plane."""

    def test_plane_only_for_workers_without_the_callers_memory(self):
        assert SerialExecutor().create_dataplane() is None
        assert ThreadExecutor(n_jobs=2).create_dataplane() is None
        assert ProcessExecutor(n_jobs=2, start_method="fork").create_dataplane() is None
        for start_method in ("spawn", "forkserver"):
            plane = ProcessExecutor(n_jobs=2, start_method=start_method).create_dataplane()
            try:
                assert isinstance(plane, SharedMemoryPlane)
            finally:
                plane.close()

    def test_fork_fit_pins_no_segment(self):
        seen = []
        TDaub(
            pipelines=_pipelines(),
            horizon=12,
            n_jobs=2,
            executor="processes",
            progress_callback=lambda _event: seen.append(active_segments()),
        ).fit(_series())
        assert seen and all(segments == [] for segments in seen), seen


class _InPlaceScaler(ZeroModelForecaster):
    """Scales its training array in place instead of copying it first."""

    def fit(self, X, y=None):
        X *= 0.5
        return super().fit(X)


def _cells(selector, skip=()):
    return {
        name: (e.allocation_sizes, e.scores, e.final_score, e.failed)
        for name, e in selector.evaluations_.items()
        if name not in skip
    }


class TestReadOnlyTaskInputs:
    """A task that writes into its input fails; its neighbours never notice."""

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_tdaub_cell_writing_its_input_fails(self, executor):
        series = _series()

        def fit(pipelines):
            return TDaub(
                pipelines=pipelines,
                horizon=12,
                run_to_completion=2,
                n_jobs=2,
                executor=executor,
            ).fit(series)

        clean = fit(_pipelines())
        scribbled = fit(_pipelines() + [_InPlaceScaler(horizon=12)])
        failed = scribbled.evaluations_["_InPlaceScaler"]
        assert failed.failed and "read-only" in failed.failure_message
        assert _cells(scribbled, skip={"_InPlaceScaler"}) == _cells(clean)
        assert [n for n in scribbled.ranked_names_ if n != "_InPlaceScaler"] == (
            clean.ranked_names_
        )

    @pytest.mark.parametrize("executor", ["serial", "processes"])
    def test_benchmark_cell_writing_its_input_fails(self, executor):
        datasets = {"trend": 10.0 + 0.5 * np.arange(120.0)}
        toolkits = {"Drift": lambda horizon: DriftForecaster(horizon=horizon)}

        def cells(toolkits):
            runner = BenchmarkRunner(horizon=6, n_jobs=2, executor=executor)
            return {
                run.toolkit: (run.smape, run.failed, run.error)
                for run in runner.run(datasets, toolkits).runs
            }

        clean = cells(toolkits)
        scribbled = cells(
            {**toolkits, "InPlace": lambda horizon: _InPlaceScaler(horizon=horizon)}
        )
        _, failed, error = scribbled.pop("InPlace")
        assert failed and "read-only" in error
        assert scribbled == clean


class TestCrossBackendDeterminismWithPlane:
    """By-ref and by-value runs must be indistinguishable in their results."""

    @pytest.mark.parametrize(
        "by_value",
        [
            SerialExecutor(),
            ThreadExecutor(n_jobs=2),
            ProcessExecutor(n_jobs=2),
        ],
        ids=lambda e: e.name,
    )
    def test_tdaub_identical_with_plane_on_and_off(
        self, by_value, shared_memory_fork_executor
    ):
        series = _series()
        results = []
        for executor in (by_value, shared_memory_fork_executor(n_jobs=2)):
            selector = TDaub(
                pipelines=_pipelines(),
                horizon=12,
                run_to_completion=2,
                n_jobs=2,
                executor=executor,
            ).fit(series)
            results.append(
                (
                    selector.ranked_names_,
                    {name: e.scores for name, e in selector.evaluations_.items()},
                    {name: e.final_score for name, e in selector.evaluations_.items()},
                )
            )
        assert results[0] == results[1]

    def test_benchmark_manifests_byte_identical_with_plane_on_and_off(
        self, tmp_path, shared_memory_fork_executor
    ):
        datasets = {
            "trend": 10.0 + 0.5 * np.arange(120.0),
            "seasonal": 50.0 + 8.0 * np.sin(2 * np.pi * np.arange(120.0) / 12.0),
        }
        toolkits = {
            "Zero": lambda horizon: ZeroModelForecaster(horizon=horizon),
            "Drift": lambda horizon: DriftForecaster(horizon=horizon),
        }
        manifests = {}
        for transport, executor in (
            ("by-ref", shared_memory_fork_executor(n_jobs=2)),
            ("by-value", "processes"),
        ):
            path = tmp_path / f"manifest-{transport}.json"
            runner = BenchmarkRunner(
                horizon=6,
                n_jobs=2,
                executor=executor,
                manifest_path=str(path),
            )
            results = runner.run(datasets, toolkits)
            record = json.loads(path.read_text())
            for cell in record["cells"]:
                cell["train_seconds"] = 0.0  # timing is measurement, not result
            manifests[transport] = (
                json.dumps(record, sort_keys=True),
                [(r.dataset, r.toolkit, r.smape, r.failed) for r in results.runs],
            )
        assert manifests["by-ref"] == manifests["by-value"]

    def test_store_filled_by_ref_serves_a_serial_run(self, tmp_path, shared_memory_fork_executor):
        """Keys come from bytes alone: a store one transport filled serves the other."""
        series = _series(600)

        def fit(executor):
            return TDaub(
                pipelines=[
                    ZeroModelForecaster(horizon=12),
                    DriftForecaster(horizon=12),
                    MeanForecaster(horizon=12),
                    SeasonalNaiveForecaster(seasonal_period=12, horizon=12),
                ],
                horizon=12,
                run_to_completion=2,
                executor=executor,
                store=tmp_path,
            ).fit(series)

        cold = fit(shared_memory_fork_executor(n_jobs=2))
        warm = fit("serial")
        assert cold.cache_stats_.misses == 22
        assert warm.cache_stats_.misses == 0
        assert warm.cache_stats_.disk_hits == cold.cache_stats_.misses
        assert warm.ranked_names_ == cold.ranked_names_

    def test_custom_executor_without_plane_stays_by_value(self):
        submitted = []

        class MinimalExecutor(BaseExecutor):
            name = "minimal"

            def map_tasks(self, fn, tasks, timeout=None, deadline=None):
                submitted.extend(tasks)
                return SerialExecutor().map_tasks(fn, tasks, timeout, deadline)

        series = _series()
        selector = TDaub(
            pipelines=_pipelines(), horizon=12, executor=MinimalExecutor()
        ).fit(series)
        reference = TDaub(pipelines=_pipelines(), horizon=12, executor="serial").fit(series)
        assert selector.ranked_names_ == reference.ranked_names_
        assert submitted
        for task in submitted:
            for data in (task.train, task.test):
                assert isinstance(data, np.ndarray) and not data.flags.writeable


def _serve_blob_worker(conn, blob_store) -> None:
    from repro.exec import WorkerServer

    server = WorkerServer(blob_store=blob_store)
    conn.send(server.address)
    conn.close()
    server.serve_forever()


def _start_blob_server(blob_store=None):
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_serve_blob_worker, args=(child_conn, blob_store))
    process.start()
    child_conn.close()
    address = parent_conn.recv()
    parent_conn.close()
    return process, address


class TestRemoteBlobPlane:
    def test_blob_sent_once_and_tasks_stay_small(self, tmp_path):
        process, address = _start_blob_server(str(tmp_path / "blobs"))
        try:
            executor = RemoteExecutor(["%s:%d" % address])
            plane = executor.create_dataplane()
            base = _series(4000).reshape(-1, 1)
            ref = plane.register(base)
            tasks = [
                FitScoreTask(
                    tag=i,
                    template=template(horizon=6),
                    train=ref[:3200],
                    test=ref[3200:],
                    horizon=6,
                )
                for i, template in enumerate(
                    [DriftForecaster, ZeroModelForecaster, ThetaForecaster]
                )
            ]
            first = executor.map_tasks(run_fit_score_task, tasks)
            assert all(o.ok for o in first), [o.error for o in first]
            stats = executor.wire_stats
            assert stats.blob_bytes_sent > base.nbytes  # the base crossed once
            assert stats.task_bytes_sent < 50_000  # tasks are refs, not arrays

            second = executor.map_tasks(run_fit_score_task, tasks)
            after = executor.wire_stats
            assert after.blob_bytes_sent == stats.blob_bytes_sent  # never re-sent
            assert [o.value.score for o in second] == [o.value.score for o in first]

            by_value = [
                run_fit_score_task(
                    FitScoreTask(
                        tag=i,
                        template=template(horizon=6),
                        train=base[:3200],
                        test=base[3200:],
                        horizon=6,
                    )
                )
                for i, template in enumerate(
                    [DriftForecaster, ZeroModelForecaster, ThetaForecaster]
                )
            ]
            assert [r.score for r in by_value] == [o.value.score for o in first]
            plane.close()
        finally:
            process.terminate()
            process.join()

    def test_restarted_server_answers_blob_has_from_spill(self, tmp_path):
        blob_store = str(tmp_path / "blobs")
        base = _series(2000).reshape(-1, 1)
        process, address = _start_blob_server(blob_store)
        try:
            executor = RemoteExecutor(["%s:%d" % address])
            plane = executor.create_dataplane()
            ref = plane.register(base)
            executor.map_tasks(
                run_fit_score_task,
                [
                    FitScoreTask(
                        tag=0,
                        template=DriftForecaster(horizon=4),
                        train=ref[:1600],
                        test=ref[1600:],
                        horizon=4,
                    )
                ],
            )
            assert executor.wire_stats.blob_bytes_sent > 0
            plane.close()
        finally:
            process.terminate()
            process.join()

        process, address = _start_blob_server(blob_store)
        try:
            executor = RemoteExecutor(["%s:%d" % address])
            plane = executor.create_dataplane()
            ref = plane.register(base)
            outcomes = executor.map_tasks(
                run_fit_score_task,
                [
                    FitScoreTask(
                        tag=0,
                        template=DriftForecaster(horizon=4),
                        train=ref[:1600],
                        test=ref[1600:],
                        horizon=4,
                    )
                ],
            )
            assert outcomes[0].ok, outcomes[0].error
            assert executor.wire_stats.blob_bytes_sent == 0  # served from spill
            plane.close()
        finally:
            process.terminate()
            process.join()

    def test_tdaub_over_remote_with_plane_matches_serial(self):
        class ByValueRemoteExecutor(RemoteExecutor):
            def create_dataplane(self):
                return None

        process, address = _start_blob_server()
        try:
            series = _series()
            reference = TDaub(pipelines=_pipelines(), horizon=12, run_to_completion=2).fit(
                series
            )
            executor = RemoteExecutor(["%s:%d" % address])
            remote = TDaub(
                pipelines=_pipelines(),
                horizon=12,
                run_to_completion=2,
                executor=executor,
            ).fit(series)
            assert remote.ranked_names_ == reference.ranked_names_
            assert {n: e.scores for n, e in remote.evaluations_.items()} == {
                n: e.scores for n, e in reference.evaluations_.items()
            }
            stats = executor.wire_stats
            assert stats.blob_bytes_sent > 0

            by_value_executor = ByValueRemoteExecutor(["%s:%d" % address])
            by_value = TDaub(
                pipelines=_pipelines(),
                horizon=12,
                run_to_completion=2,
                executor=by_value_executor,
            ).fit(series)
            assert by_value.ranked_names_ == reference.ranked_names_
            heavy = by_value_executor.wire_stats
            # Same schedule, but every by-value task frame carries arrays:
            # the data plane must cut total bytes on the wire well below it.
            assert stats.bytes_sent < heavy.bytes_sent / 2
        finally:
            process.terminate()
            process.join()


class TestBlobCacheBounds:
    def test_spilled_blobs_evicted_lru_and_repromoted(self, tmp_path):
        from repro.exec.dataplane import (
            _RECEIVED_BLOBS,
            blob_is_known,
            ensure_task_blobs,
            evict_spilled_blobs,
            install_blob,
        )

        store = LocalFSBackend(tmp_path)
        old = np.arange(1000.0)
        fresh = np.arange(1000.0) * 2.0
        old_digest, fresh_digest = array_digest(old), array_digest(fresh)
        for digest, array in ((old_digest, old), (fresh_digest, fresh)):
            install_blob(digest, array)
            store.put_blob(digest, array)
        try:
            # Cap below the pair's footprint: the LRU (old) blob goes first,
            # but only because the spill can recover it.
            evict_spilled_blobs(int(fresh.nbytes * 1.5), store.has_blob)
            assert not blob_is_known(old_digest)
            assert blob_is_known(fresh_digest)

            # A task referencing the evicted digest re-promotes it from disk.
            task = FitScoreTask(
                tag=0,
                template=DriftForecaster(horizon=4),
                train=ArrayRef(
                    digest=old_digest,
                    start=0,
                    stop=1000,
                    shape=(1000,),
                    dtype="<f8",
                ),
                test=np.arange(8.0),
                horizon=4,
            )
            ensure_task_blobs(task, store.get_blob)
            assert blob_is_known(old_digest)
            assert np.array_equal(resolve_array(task.train), old)
        finally:
            _RECEIVED_BLOBS.pop(old_digest, None)
            _RECEIVED_BLOBS.pop(fresh_digest, None)

    def test_unspilled_blobs_never_evicted(self):
        from repro.exec.dataplane import (
            _RECEIVED_BLOBS,
            blob_is_known,
            evict_spilled_blobs,
            install_blob,
        )

        array = np.arange(500.0)
        digest = array_digest(array)
        install_blob(digest, array)
        try:
            evict_spilled_blobs(0, lambda _digest: False)  # nothing spilled
            assert blob_is_known(digest)
        finally:
            _RECEIVED_BLOBS.pop(digest, None)


class TestDiskStoreBlobs:
    def test_blob_roundtrip(self, tmp_path):
        store = LocalFSBackend(tmp_path)
        base = _series(500).reshape(-1, 1)
        digest = array_digest(base)
        assert not store.has_blob(digest)
        assert store.get_blob(digest) is None
        assert store.put_blob(digest, base)
        assert store.has_blob(digest)
        assert np.array_equal(store.get_blob(digest), base)

    def test_corrupt_blob_evicted_on_read(self, tmp_path):
        store = LocalFSBackend(tmp_path)
        digest = array_digest(np.arange(8.0))
        store.put_blob(digest, np.arange(8.0))
        store.blob_path(digest).write_bytes(b"not an npy file")
        assert store.get_blob(digest) is None
        assert not store.has_blob(digest)
