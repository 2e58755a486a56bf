"""Tests for the execution engine: backends, memoization and parallel T-Daub."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.benchmarking import BenchmarkRunner, render_detail_table
from repro.core import PipelineRegistry, TDaub
from repro.exceptions import InvalidParameterError
from repro.exec import (
    Deadline,
    EvaluationCache,
    ProcessExecutor,
    RemoteExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerServer,
    get_executor,
    resolve_n_jobs,
)
from repro.exec.remote import parse_worker_address
from repro.forecasters.holtwinters import HoltWintersForecaster
from repro.forecasters.naive import DriftForecaster, ZeroModelForecaster
from repro.forecasters.theta import ThetaForecaster
from repro.store import key_digest


def _square(x):
    return x * x


def _square_or_fail(x):
    if x == 2:
        raise ValueError("boom")
    return x * x


def _slow_task(seconds):
    time.sleep(seconds)
    return seconds


# Two in-process worker servers back the remote executor through the whole
# module: the cross-backend suite below runs the remote backend against the
# exact same assertions as the local ones.
_REMOTE_SERVERS = [WorkerServer(), WorkerServer()]
for _server in _REMOTE_SERVERS:
    _server.serve_in_background()


def _remote_executor(n_lanes: int = 2) -> RemoteExecutor:
    return RemoteExecutor([_REMOTE_SERVERS[i % 2].address for i in range(n_lanes)])


ALL_EXECUTORS = [
    SerialExecutor(),
    ThreadExecutor(n_jobs=2),
    ProcessExecutor(n_jobs=2),
    _remote_executor(),
]


class TestExecutors:
    @pytest.mark.parametrize("executor", ALL_EXECUTORS, ids=lambda e: e.name)
    def test_preserves_task_order(self, executor):
        outcomes = executor.map_tasks(_square, [3, 1, 4, 1, 5])
        assert [o.value for o in outcomes] == [9, 1, 16, 1, 25]
        assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]
        assert all(o.ok for o in outcomes)

    @pytest.mark.parametrize("executor", ALL_EXECUTORS, ids=lambda e: e.name)
    def test_task_errors_are_captured(self, executor):
        outcomes = executor.map_tasks(_square_or_fail, [1, 2, 3])
        assert [o.value for o in outcomes] == [1, None, 9]
        assert not outcomes[1].ok
        assert "boom" in outcomes[1].error

    @pytest.mark.parametrize("executor", ALL_EXECUTORS, ids=lambda e: e.name)
    def test_empty_task_list(self, executor):
        assert executor.map_tasks(_square, []) == []

    def test_serial_timeout_is_soft(self):
        outcomes = SerialExecutor().map_tasks(_slow_task, [0.05], timeout=0.01)
        assert outcomes[0].timed_out
        assert outcomes[0].value == 0.05  # result kept, overrun only flagged

    def test_process_timeout_is_enforced(self):
        start = time.perf_counter()
        outcomes = ProcessExecutor(n_jobs=2).map_tasks(
            _slow_task, [10.0, 0.01], timeout=0.3
        )
        wall = time.perf_counter() - start
        assert wall < 5.0  # the 10s task was terminated, not awaited
        assert outcomes[0].timed_out and outcomes[0].value is None
        assert "budget" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 0.01

    def test_process_executor_runs_closures(self):
        # Under fork, closures cross the process boundary without pickling;
        # under spawn the executor falls back to inline execution.
        offset = 7
        outcomes = ProcessExecutor(n_jobs=2).map_tasks(lambda x: x + offset, [1, 2])
        assert [o.value for o in outcomes] == [8, 9]

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(0) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1

    @pytest.mark.parametrize(
        "executor",
        [
            SerialExecutor(),
            ThreadExecutor(n_jobs=1),
            ProcessExecutor(n_jobs=1),
            _remote_executor(n_lanes=1),
        ],
        ids=lambda e: e.name,
    )
    def test_deadline_skips_unstarted_tasks_on_every_backend(self, executor):
        """Cooperative budget: tasks queued behind the deadline never run.

        The first task starts inside the budget and crosses the deadline
        while running — serial/thread backends keep its value (they cannot
        preempt) but flag it; everything queued after expiry is skipped.
        """
        outcomes = executor.map_tasks(
            _slow_task, [0.3, 0.3, 0.3], deadline=Deadline(0.2)
        )
        assert outcomes[0].timed_out
        for outcome in outcomes[1:]:
            assert outcome.timed_out and outcome.value is None
            assert "deadline" in outcome.error

    def test_expired_deadline_skips_everything(self):
        deadline = Deadline(0.0)
        outcomes = SerialExecutor().map_tasks(_square, [1, 2, 3], deadline=deadline)
        assert all(o.timed_out and o.value is None for o in outcomes)

    def test_unlimited_deadline_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired
        assert deadline.remaining() is None
        assert deadline.clamp(2.5) == 2.5
        outcomes = SerialExecutor().map_tasks(_square, [2], deadline=deadline)
        assert outcomes[0].ok and outcomes[0].value == 4

    def test_process_deadline_terminates_inflight_worker(self):
        start = time.perf_counter()
        outcomes = ProcessExecutor(n_jobs=2).map_tasks(
            _slow_task, [10.0], deadline=Deadline(0.3)
        )
        assert time.perf_counter() - start < 5.0
        assert outcomes[0].timed_out and outcomes[0].value is None
        assert "deadline" in outcomes[0].error

    def test_deadline_clamps_per_task_timeout(self):
        # 0.25s remain of the deadline, so the 0.4s task is flagged even
        # though its own 10s timeout was generous.
        outcomes = SerialExecutor().map_tasks(
            _slow_task, [0.4], timeout=10.0, deadline=Deadline(0.25)
        )
        assert outcomes[0].timed_out
        assert outcomes[0].value == 0.4  # soft: value kept

    def test_get_executor_aliases(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor(None, n_jobs=4), ProcessExecutor)
        assert isinstance(get_executor("serial", n_jobs=4), SerialExecutor)
        assert isinstance(get_executor("threads", n_jobs=2), ThreadExecutor)
        assert isinstance(get_executor("processes", n_jobs=2), ProcessExecutor)
        instance = ThreadExecutor(n_jobs=2)
        assert get_executor(instance) is instance
        with pytest.raises(InvalidParameterError):
            get_executor("gpu")


class TestTimeoutDowngrade:
    def test_spawn_fallback_records_downgrade_and_keeps_value(self):
        """Regression: the inline fallback must not silently soften timeouts.

        An unpicklable task under ``spawn`` runs inline, where the enforced
        per-task budget degrades to a soft one — the overrun is flagged but
        the task ran to completion.  The downgrade is recorded so callers
        relying on hard preemption can tell.
        """
        executor = ProcessExecutor(n_jobs=2, start_method="spawn")
        outcomes = executor.map_tasks(
            lambda seconds: _slow_task(seconds), [0.05], timeout=0.01
        )
        assert outcomes[0].timeout_downgraded
        assert outcomes[0].timed_out
        assert outcomes[0].value == 0.05  # ran to completion despite the budget

    def test_no_downgrade_recorded_without_a_timeout(self):
        executor = ProcessExecutor(n_jobs=2, start_method="spawn")
        outcomes = executor.map_tasks(lambda x: x + 1, [1])
        assert outcomes[0].value == 2
        assert not outcomes[0].timeout_downgraded

    def test_enforced_path_never_reports_downgrade(self):
        outcomes = ProcessExecutor(n_jobs=2).map_tasks(_square, [3], timeout=5.0)
        assert outcomes[0].value == 9
        assert not outcomes[0].timeout_downgraded


def _serve_victim(conn) -> None:
    """Child-process body hosting a WorkerServer whose address is piped back."""
    server = WorkerServer(port=0)
    conn.send(server.address)
    conn.close()
    server.serve_forever()


def _kill_host_server(task):
    """A task that takes its worker *server* down (not just its own process)."""
    if isinstance(task, tuple) and task[0] == "kill":
        os.kill(task[1], signal.SIGKILL)  # the victim server's pid, by value
        time.sleep(0.5)  # give the death time to sever the connection
    return task * 2


def _start_victim_server() -> tuple:
    # Not daemonic: the server must be able to fork task processes.
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_serve_victim, args=(child_conn,))
    process.start()
    child_conn.close()
    address = parent_conn.recv()
    parent_conn.close()
    return process, address


class TestRemoteExecutor:
    def test_timeout_is_enforced_like_processes(self):
        start = time.perf_counter()
        outcomes = _remote_executor().map_tasks(_slow_task, [10.0, 0.01], timeout=0.3)
        assert time.perf_counter() - start < 5.0
        assert outcomes[0].timed_out and outcomes[0].value is None
        assert "budget" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 0.01

    def test_deadline_terminates_inflight_task(self):
        start = time.perf_counter()
        outcomes = _remote_executor(n_lanes=1).map_tasks(
            _slow_task, [10.0], deadline=Deadline(0.3)
        )
        assert time.perf_counter() - start < 5.0
        assert outcomes[0].timed_out and outcomes[0].value is None
        assert "deadline" in outcomes[0].error

    def test_unlimited_deadline_runs_every_task(self):
        outcomes = _remote_executor(n_lanes=1).map_tasks(abs, [-1, -2], deadline=Deadline(None))
        assert [o.value for o in outcomes] == [1, 2]

    def test_matches_serial_outcomes_and_order(self):
        """Cross-backend determinism incl. error outcomes, at the seam level."""
        tasks = [1, 2, 3, 4, 5, 2]
        serial = SerialExecutor().map_tasks(_square_or_fail, tasks)
        remote = _remote_executor().map_tasks(_square_or_fail, tasks)
        assert [(o.index, o.value, o.error) for o in remote] == [
            (o.index, o.value, o.error) for o in serial
        ]

    def test_worker_death_becomes_error_outcome(self):
        process, address = _start_victim_server()
        try:
            outcomes = RemoteExecutor(["%s:%d" % address]).map_tasks(
                _kill_host_server, [("kill", process.pid), "a", "b"]
            )
            assert outcomes[0].value is None
            assert "died" in outcomes[0].error
            # Single lane, no survivors: queued tasks are reported, not hung.
            for outcome in outcomes[1:]:
                assert outcome.value is None and "died" in outcome.error
        finally:
            if process.is_alive():
                process.kill()
            process.join()

    def test_surviving_lane_absorbs_queue_when_a_worker_is_unreachable(self):
        """A worker that never received a task must not lose that task."""
        executor = RemoteExecutor(
            ["127.0.0.1:1", "%s:%d" % _REMOTE_SERVERS[0].address],
            connect_timeout=0.5,
        )
        outcomes = executor.map_tasks(_square, [1, 2, 3, 4, 5, 6])
        assert [o.value for o in outcomes] == [1, 4, 9, 16, 25, 36]

    def test_unreachable_worker_reports_errors_not_hangs(self):
        executor = RemoteExecutor(["127.0.0.1:1"], connect_timeout=0.5)
        outcomes = executor.map_tasks(_square, [1, 2])
        assert all(o.value is None and "died" in o.error for o in outcomes)

    def test_unpicklable_task_falls_back_inline_with_downgrade(self):
        offset = 7
        outcomes = _remote_executor().map_tasks(lambda x: x + offset, [1, 2], timeout=5.0)
        assert [o.value for o in outcomes] == [8, 9]
        assert all(o.timeout_downgraded for o in outcomes)

    def test_authkey_handshake(self):
        server = WorkerServer(authkey=b"secret")
        server.serve_in_background()
        try:
            address = "%s:%d" % server.address
            good = RemoteExecutor([address], authkey=b"secret").map_tasks(_square, [3])
            assert good[0].value == 9
            bad = RemoteExecutor([address], authkey=b"wrong").map_tasks(_square, [3])
            assert bad[0].value is None and "died" in bad[0].error
        finally:
            server.close()

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_WORKERS", "host-a:7071, host-b:7072")
        executor = RemoteExecutor.from_env()
        assert executor.workers == [("host-a", 7071), ("host-b", 7072)]
        monkeypatch.delenv("REPRO_REMOTE_WORKERS")
        with pytest.raises(InvalidParameterError):
            RemoteExecutor.from_env()
        with pytest.raises(InvalidParameterError):
            get_executor("remote")

    def test_parse_worker_address(self):
        assert parse_worker_address("host:7071") == ("host", 7071)
        assert parse_worker_address(("host", 7071)) == ("host", 7071)
        # Brackets are stripped: create_connection wants the bare address.
        assert parse_worker_address("[::1]:7071") == ("::1", 7071)
        with pytest.raises(ValueError):
            parse_worker_address("no-port")

    def test_server_n_jobs_caps_concurrency(self):
        """Two lanes into a 2-slot worker overlap; a 1-slot worker serializes."""
        wide = WorkerServer(n_jobs=2)
        narrow = WorkerServer(n_jobs=1)
        for server in (wide, narrow):
            server.serve_in_background()
        try:
            wide_address = "%s:%d" % wide.address
            start = time.perf_counter()
            outcomes = RemoteExecutor([wide_address, wide_address]).map_tasks(
                _slow_task, [0.4, 0.4]
            )
            concurrent_wall = time.perf_counter() - start
            assert all(o.ok for o in outcomes)
            assert concurrent_wall < 0.75  # the two 0.4s tasks overlapped

            narrow_address = "%s:%d" % narrow.address
            start = time.perf_counter()
            outcomes = RemoteExecutor([narrow_address, narrow_address]).map_tasks(
                _slow_task, [0.4, 0.4]
            )
            serialized_wall = time.perf_counter() - start
            assert all(o.ok for o in outcomes)
            assert serialized_wall > 0.75  # the 1-slot cap serialized them
        finally:
            wide.close()
            narrow.close()

    def test_tdaub_fans_out_over_remote_workers_unchanged(self):
        """The acceptance seam: T-Daub with executor=remote == serial, exactly."""
        series = _fixed_seed_series()
        reference = TDaub(
            pipelines=_candidate_pipelines(), horizon=12, run_to_completion=2
        ).fit(series)
        remote = TDaub(
            pipelines=_candidate_pipelines(),
            horizon=12,
            run_to_completion=2,
            executor=_remote_executor(),
        ).fit(series)
        assert remote.ranked_names_ == reference.ranked_names_
        assert {name: e.scores for name, e in remote.evaluations_.items()} == {
            name: e.scores for name, e in reference.evaluations_.items()
        }


#: ``key_digest`` of each inventory pipeline's key on ``np.arange(20.0)``
#: with test ``np.arange(6.0)`` and horizon 6.
INVENTORY_KEY_DIGESTS = {
    "FlattenAutoEnsembler, log": "9259f79eb97312c2946bfc878ce72c8187c44dfb",
    "WindowRandomForest": "d227999491174e365e13cc20cb5061a1b6e6ceb0",
    "WindowSVR": "e8e1cded9bc37fc3c7a98b0c9b149c9639ef5b24",
    "MT2RForecaster": "da31b558739d7117ce1c4b58ce11be90a31747a9",
    "bats": "04faedc3a8b7bbe9f1ba1fd2b39283c2da965359",
    "DifferenceFlattenAutoEnsembler, log": "eec4913e628d7e5909f9c3576e8b61a3bf2def4e",
    "LocalizedFlattenAutoEnsembler": "507ab8c24dde500164a69d7bbfba8af0bebad6ba",
    "Arima": "fe962c960f1a8c3731aa17d0bc16774551803feb",
    "HW_Additive": "4be1e06c6ed6676f207566b9d2113aae798f8562",
    "HW_Multiplicative": "595d54c18a8367303ebdabc50f4cb3508011922d",
}


class TestEvaluationCache:
    @staticmethod
    def _key(array_key, cache, horizon=6, scale=1.0, n=20):
        template = DriftForecaster(horizon=horizon)
        train = np.arange(n, dtype=float).reshape(-1, 1) * scale
        test = np.arange(6, dtype=float).reshape(-1, 1)
        return array_key(cache, template, train, test, horizon)

    def test_hit_after_put(self, array_key):
        cache = EvaluationCache()
        key = self._key(array_key, cache)
        assert cache.get(key) is None  # miss
        cache.put(key, "value")
        assert cache.get(self._key(array_key, cache)) == "value"  # structurally equal key hits
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1

    def test_different_horizon_misses(self, array_key):
        cache = EvaluationCache()
        cache.put(self._key(array_key, cache, horizon=6), "h6")
        assert cache.get(self._key(array_key, cache, horizon=12)) is None

    def test_different_data_misses(self, array_key):
        cache = EvaluationCache()
        cache.put(self._key(array_key, cache, scale=1.0), "a")
        assert cache.get(self._key(array_key, cache, scale=2.0)) is None
        assert cache.get(self._key(array_key, cache, n=21)) is None

    def test_different_params_miss(self, array_key):
        cache = EvaluationCache()
        train = np.arange(20, dtype=float).reshape(-1, 1)
        test = np.arange(6, dtype=float).reshape(-1, 1)
        cache.put(array_key(cache, DriftForecaster(horizon=6), train, test, 6), "drift")
        assert cache.get(array_key(cache, ZeroModelForecaster(horizon=6), train, test, 6)) is None

    def test_equal_content_views_hit(self, array_key):
        cache = EvaluationCache()
        data = np.arange(40, dtype=float).reshape(-1, 1)
        template = DriftForecaster(horizon=4)
        test = np.arange(4, dtype=float).reshape(-1, 1)
        cache.put(array_key(cache, template, data[10:30], test, 4), "slice")
        copied = data[10:30].copy()
        assert cache.get(array_key(cache, template, copied, test, 4)) == "slice"

    @staticmethod
    def _pinned_key(array_key, template):
        return array_key(
            EvaluationCache(),
            template,
            np.arange(20.0).reshape(-1, 1),
            np.arange(6.0).reshape(-1, 1),
            6,
        )

    def test_key_address_is_pinned(self, array_key):
        # Persistent stores file records under this address, so any change
        # to the key's shape or content makes every existing store miss.
        key = self._pinned_key(array_key, DriftForecaster(horizon=6))
        assert key_digest(key) == "a3710b22bd0574e0b14dcc5c0bbe432f64a6dff5"

    @pytest.mark.parametrize("name", list(INVENTORY_KEY_DIGESTS))
    def test_inventory_key_addresses_are_pinned(self, array_key, name):
        # The same address for every inventory pipeline, so a refactor of
        # one cannot move its cells' records unnoticed.
        template = PipelineRegistry().create(name, lookback=8, horizon=6)
        assert key_digest(self._pinned_key(array_key, template)) == INVENTORY_KEY_DIGESTS[name]

    def test_clear(self, array_key):
        cache = EvaluationCache()
        cache.put(self._key(array_key, cache), "x")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 0 and cache.stats.misses == 0


def _candidate_pipelines():
    return [
        ZeroModelForecaster(horizon=12),
        DriftForecaster(horizon=12),
        HoltWintersForecaster(seasonal="additive", seasonal_period=12, horizon=12),
        ThetaForecaster(horizon=12),
    ]


def _fixed_seed_series():
    t = np.arange(300.0)
    noise = np.random.default_rng(7).normal(0, 1.0, 300)
    return 50.0 + 0.3 * t + 10.0 * np.sin(2 * np.pi * t / 12.0) + noise


def _tdaub_trace(series, executor, n_jobs, **params):
    """Ranking, every cell, final scores and the progress sequence of one fit."""
    progress = []
    selector = TDaub(
        pipelines=_candidate_pipelines(),
        horizon=12,
        run_to_completion=2,
        n_jobs=n_jobs,
        executor=executor,
        progress_callback=lambda event: progress.append((event["phase"], event["allocation"])),
        **params,
    ).fit(series)
    return (
        selector.ranked_names_,
        {n: list(zip(e.allocation_sizes, e.scores)) for n, e in selector.evaluations_.items()},
        {n: e.final_score for n, e in selector.evaluations_.items()},
        progress,
    )


class TestParallelTDaub:
    @pytest.mark.parametrize("transport", ["by-ref", "by-value"])
    def test_parallel_matches_serial_exactly(self, transport, shared_memory_fork_executor):
        """Every backend and worker count runs the serial ``n_jobs=1`` schedule.

        Ranking, every ``(allocation, score)`` cell, final scores and the
        ``(phase, allocation)`` progress sequence must all match the
        by-value serial run, on the by-value backends and on fork workers
        forced onto the shared-memory data plane: neither shipping slices
        by reference nor ``n_jobs`` may show in any result.  The default
        grid reaches the full length in its fixed rounds; the finer one
        leaves several acceleration steps to run.
        """
        if transport == "by-ref":
            backends = [shared_memory_fork_executor]
        else:
            backends = ["serial", "threads", "processes"]
        series = _fixed_seed_series()
        for params in ({}, {"min_allocation_size": 20}):
            reference = _tdaub_trace(series, "serial", 1, **params)
            if params:
                steps = [phase for phase, _ in reference[3] if phase == "accelerate"]
                assert len(steps) >= 2
            for backend in backends:
                for n_jobs in (1, 2, 4):
                    executor = backend if isinstance(backend, str) else backend(n_jobs)
                    current = _tdaub_trace(series, executor, n_jobs, **params)
                    assert current == reference, (
                        f"{executor} at n_jobs={n_jobs} with {params} diverged from serial"
                    )

    def test_scoring_phase_reuses_cached_full_fit(self):
        # Fixed allocation reaches the full training split (L=240 after the
        # 4th round of 60), so the scoring-phase retrain lands on a slice
        # already evaluated -> guaranteed cache hit.
        series = _fixed_seed_series()
        selector = TDaub(
            pipelines=_candidate_pipelines(), horizon=12, min_allocation_size=60
        ).fit(series)
        assert selector.cache_stats_ is not None
        assert selector.cache_stats_.hits >= 1

    def test_permanently_failed_pipeline_not_reaccelerated(self):
        class _Broken(ZeroModelForecaster):
            def fit(self, X, y=None):
                raise RuntimeError("always fails")

        series = _fixed_seed_series()
        selector = TDaub(
            pipelines=[_Broken(horizon=6), ZeroModelForecaster(horizon=6)],
            horizon=6,
            min_allocation_size=30,
        ).fit(series)
        broken = selector.evaluations_["_Broken"]
        assert broken.failed
        # The broken pipeline is evaluated during fixed allocation (and the
        # scoring phase at most), but never wastes acceleration fit cycles:
        # its allocations stay within the fixed-phase schedule.
        working = selector.evaluations_["ZeroModelForecaster"]
        assert max(broken.allocation_sizes) <= max(working.allocation_sizes)
        assert selector.best_pipeline_name_ == "ZeroModelForecaster"


class _SlowFitForecaster(ZeroModelForecaster):
    def fit(self, X, y=None):
        time.sleep(0.15)
        return super().fit(X, y)


class TestTDaubBudget:
    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_budget_bounds_ranking_on_every_backend(self, executor):
        """A slow pipeline cannot stall a budgeted ranking round."""
        series = _fixed_seed_series()
        pipelines = [
            _SlowFitForecaster(horizon=6),
            ZeroModelForecaster(horizon=6),
            DriftForecaster(horizon=6),
        ]
        start = time.perf_counter()
        selector = TDaub(
            pipelines=pipelines,
            horizon=6,
            min_allocation_size=30,
            budget=0.5,
            n_jobs=1,
            executor=executor,
        ).fit(series)
        wall = time.perf_counter() - start
        assert wall < 10.0  # unbudgeted: ~14 slow fits of 0.15s plus overhead
        assert selector.budget_exhausted_
        # A partial ranking still comes out, and a model is delivered.
        assert len(selector.ranked_names_) == 3
        assert selector.best_pipeline_ is not None

    def test_deadline_skips_are_not_failures(self):
        series = _fixed_seed_series()
        selector = TDaub(
            pipelines=[_SlowFitForecaster(horizon=6), ZeroModelForecaster(horizon=6)],
            horizon=6,
            min_allocation_size=30,
            budget=0.2,
        ).fit(series)
        assert selector.budget_exhausted_
        for evaluation in selector.evaluations_.values():
            assert not evaluation.failed

    def test_no_budget_reports_not_exhausted(self):
        series = _fixed_seed_series()
        selector = TDaub(
            pipelines=[ZeroModelForecaster(horizon=6)], horizon=6, min_allocation_size=60
        ).fit(series)
        assert selector.budget_exhausted_ is False


def _toy_datasets():
    t = np.arange(120.0)
    return {
        "trend": 10.0 + 0.5 * t,
        "flat": np.full(120, 30.0) + np.sin(t / 9.0),
    }


def _toy_toolkits():
    return {
        "Zero": lambda horizon: ZeroModelForecaster(horizon=horizon),
        "Drift": lambda horizon: DriftForecaster(horizon=horizon),
    }


class _SleepyForecaster(ZeroModelForecaster):
    def fit(self, X, y=None):
        time.sleep(0.2)
        return super().fit(X, y)


class TestParallelBenchmarkRunner:
    def test_parallel_matrix_matches_serial(self):
        serial = BenchmarkRunner(horizon=6).run(_toy_datasets(), _toy_toolkits())
        parallel = BenchmarkRunner(horizon=6, n_jobs=2, executor="processes").run(
            _toy_datasets(), _toy_toolkits()
        )
        assert [(r.toolkit, r.dataset) for r in parallel.runs] == [
            (r.toolkit, r.dataset) for r in serial.runs
        ]
        for serial_run, parallel_run in zip(serial.runs, parallel.runs):
            assert parallel_run.smape == pytest.approx(serial_run.smape)
            assert parallel_run.failed == serial_run.failed

    def test_soft_budget_keeps_result_and_sets_over_budget(self):
        runner = BenchmarkRunner(horizon=4, max_train_seconds=0.05)
        results = runner.run(
            {"flat": np.arange(60.0)},
            {"Sleepy": lambda h: _SleepyForecaster(horizon=h)},
        )
        run = results.runs[0]
        assert not run.failed  # the run completed and is kept
        assert run.over_budget
        assert run.train_seconds > 0.05
        assert "budget" in run.error
        assert run.table_cell.endswith("*")

    def test_process_budget_preempts_run(self):
        runner = BenchmarkRunner(
            horizon=4, max_train_seconds=0.3, n_jobs=2, executor="processes"
        )
        start = time.perf_counter()
        results = runner.run(
            {"flat": np.arange(60.0)},
            {
                "Stuck": lambda h: _SleepyForecaster(horizon=h).set_params(),  # sleeps 0.2s < budget
                "Forever": _forever_factory,
            },
        )
        wall = time.perf_counter() - start
        assert wall < 10.0
        stuck = results.run_for("Stuck", "flat")
        forever = results.run_for("Forever", "flat")
        assert not stuck.failed and not stuck.over_budget
        assert forever.failed and forever.over_budget
        assert forever.table_cell == "0 (0)*"

    def test_over_budget_footnote_rendered(self):
        runner = BenchmarkRunner(horizon=4, max_train_seconds=0.05)
        results = runner.run(
            {"flat": np.arange(60.0)},
            {"Sleepy": lambda h: _SleepyForecaster(horizon=h)},
        )
        table = render_detail_table(results, "Table B")
        assert "* exceeded the per-run training-time budget" in table


class _ForeverForecaster(ZeroModelForecaster):
    def fit(self, X, y=None):
        time.sleep(60.0)
        return super().fit(X, y)


def _forever_factory(horizon):
    return _ForeverForecaster(horizon=horizon)
