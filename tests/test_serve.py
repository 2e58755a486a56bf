"""Serving layer: snapshots, hydration registry, micro-batcher, pooling.

The HTTP front end has its own end-to-end suite in
``tests/test_serve_http.py``; this file covers the layers under it plus
two satellite regressions — the read-only-after-fit thread-safety
contract and the store client's asyncio-safe connection pool.
"""

from __future__ import annotations

import ast
import asyncio
import os
import pathlib
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.registry import PipelineRegistry
from repro.hybrid.window_regressor import WindowRandomForestForecaster
from repro.resilience import RetryPolicy
from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    ServeOverloadError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    hydrate_model,
    publish_model,
    resolve_model,
    snapshot_model,
)
from repro.store import CircuitOpenError, LocalFSBackend, ObjectStoreBackend, StoreError
from repro.store.server import StoreServer


@pytest.fixture(scope="module")
def store_server(tmp_path_factory):
    server = StoreServer(tmp_path_factory.mktemp("serve-store") / "root")
    server.serve_in_background()
    yield server
    server.close()


@pytest.fixture()
def object_backend(store_server):
    backend = ObjectStoreBackend(store_server.url)
    yield backend
    backend.close()


@pytest.fixture()
def local_backend(tmp_path):
    return LocalFSBackend(tmp_path / "store")


@pytest.fixture(scope="module")
def fitted_model():
    t = np.arange(160, dtype=float)
    series = 20.0 + 0.1 * t + 4.0 * np.sin(2.0 * np.pi * t / 12.0)
    return WindowRandomForestForecaster(lookback=8, horizon=4, n_estimators=8).fit(
        series.reshape(-1, 1)
    )


def _backend(request, which):
    return request.getfixturevalue(f"{which}_backend")


# -- snapshots -----------------------------------------------------------------
class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("which", ["local", "object"])
    def test_round_trip_predictions_byte_identical(self, request, which, fitted_model):
        backend = _backend(request, which)
        snapshot = snapshot_model(fitted_model, backend)
        hydrated = hydrate_model(backend, snapshot.digest)
        expected = fitted_model.predict(9)
        assert hydrated.predict(9).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("which", ["local", "object"])
    def test_snapshot_is_content_addressed_and_dedups_chunks(
        self, request, which, fitted_model
    ):
        backend = _backend(request, which)
        first = snapshot_model(fitted_model, backend)
        uploads = []
        original_put_blob = backend.put_blob
        backend.put_blob = lambda digest, array: uploads.append(digest) or original_put_blob(
            digest, array
        )
        try:
            second = snapshot_model(fitted_model, backend)
        finally:
            backend.put_blob = original_put_blob
        assert second.digest == first.digest
        assert uploads == []  # every chunk already in the store

    def test_chunked_payload_reassembles(self, local_backend, fitted_model):
        snapshot = snapshot_model(fitted_model, local_backend, chunk_bytes=1024)
        assert len(snapshot.manifest["chunks"]) > 1
        hydrated = hydrate_model(local_backend, snapshot.digest)
        assert hydrated.predict(4).tobytes() == fitted_model.predict(4).tobytes()

    def test_missing_snapshot_raises_not_found(self, local_backend):
        with pytest.raises(SnapshotNotFoundError):
            hydrate_model(local_backend, "0" * 40)

    def test_tampered_chunk_raises_integrity_error(self, local_backend, fitted_model):
        snapshot = snapshot_model(fitted_model, local_backend)
        chunk = snapshot.manifest["chunks"][0]
        garbled = np.zeros(chunk["bytes"], dtype=np.uint8)
        assert local_backend.put_blob(chunk["digest"], garbled)
        with pytest.raises(SnapshotIntegrityError):
            hydrate_model(local_backend, snapshot.digest)

    def test_fresh_process_hydrates_byte_identical(self, tmp_path, fitted_model):
        backend = LocalFSBackend(tmp_path / "store")
        snapshot = snapshot_model(fitted_model, backend)
        script = (
            "import sys\n"
            "from repro.store import LocalFSBackend\n"
            "from repro.serve import hydrate_model\n"
            "model = hydrate_model(LocalFSBackend(sys.argv[1]), sys.argv[2])\n"
            "print(model.predict(7).tobytes().hex())\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store"), snapshot.digest],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == fitted_model.predict(7).tobytes().hex()


class TestPublish:
    @pytest.mark.parametrize("which", ["local", "object"])
    def test_publish_versions_and_idempotent_republish(
        self, request, which, tmp_path, fitted_model
    ):
        backend = _backend(request, which)
        prefix = str(tmp_path / "models") if which == "local" else "models-vers"
        first = publish_model(fitted_model, backend, "m", doc_prefix=prefix)
        assert (first.digest, first.version) == resolve_model(backend, "m", prefix)
        assert first.version == 1
        again = publish_model(fitted_model, backend, "m", doc_prefix=prefix)
        assert again.version == 1  # identical digest: idempotent deploy
        other = WindowRandomForestForecaster(lookback=6, horizon=4, n_estimators=3).fit(
            np.linspace(0.0, 30.0, 120).reshape(-1, 1)
        )
        bumped = publish_model(other, backend, "m", doc_prefix=prefix)
        assert bumped.version == 2
        assert bumped.digest != first.digest
        assert resolve_model(backend, "m", prefix) == (bumped.digest, 2)

    def test_racing_publishers_both_land(self, object_backend, fitted_model):
        base = publish_model(fitted_model, object_backend, "race", doc_prefix="models-race")
        contenders = [
            WindowRandomForestForecaster(lookback=5 + k, horizon=3, n_estimators=3).fit(
                np.linspace(0.0, 20.0 + k, 110).reshape(-1, 1)
            )
            for k in range(2)
        ]
        results = [None, None]

        def publish(slot):
            results[slot] = publish_model(
                contenders[slot], object_backend, "race", doc_prefix="models-race"
            )

        threads = [threading.Thread(target=publish, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        versions = sorted(result.version for result in results)
        assert versions == [base.version + 1, base.version + 2]
        digest, version = resolve_model(object_backend, "race", "models-race")
        assert version == base.version + 2
        assert digest in {result.digest for result in results}

    def test_model_names_must_be_path_segments(self, local_backend, fitted_model):
        with pytest.raises(ValueError):
            publish_model(fitted_model, local_backend, "a/b")


# -- registry ------------------------------------------------------------------
class _SlowLoadBackend(LocalFSBackend):
    """Counts manifest reads and makes each one slow (single-flight probe)."""

    def __init__(self, root, delay=0.15):
        super().__init__(root)
        self.delay = delay
        self.manifest_reads = 0
        self._count_lock = threading.Lock()

    def get(self, digest):
        with self._count_lock:
            self.manifest_reads += 1
        time.sleep(self.delay)
        return super().get(digest)


class TestModelRegistry:
    def test_single_flight_dedups_concurrent_cold_loads(self, tmp_path, fitted_model):
        backend = _SlowLoadBackend(tmp_path / "store")
        digest = snapshot_model(fitted_model, backend).digest
        backend.manifest_reads = 0
        registry = ModelRegistry(backend, capacity=4)
        models = []

        def fetch():
            models.append(registry.get(digest))

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert backend.manifest_reads == 1  # exactly one store load
        assert len({id(model) for model in models}) == 1
        stats = registry.stats()
        assert stats.loads == 1
        assert stats.single_flight_waits == 7

    def test_lru_evicts_and_rehydrates(self, local_backend, fitted_model):
        digests = []
        for k in range(3):
            variant = WindowRandomForestForecaster(
                lookback=4 + k, horizon=3, n_estimators=2
            ).fit(np.linspace(0.0, 10.0 + k, 100).reshape(-1, 1))
            digests.append(snapshot_model(variant, local_backend).digest)
        registry = ModelRegistry(local_backend, capacity=2)
        for digest in digests:
            registry.get(digest)
        stats = registry.stats()
        assert stats.cached == 2
        assert stats.evictions == 1
        assert registry.peek(digests[0]) is None  # the LRU victim
        registry.get(digests[0])  # rehydrates transparently
        assert registry.stats().loads == 4

    def test_missing_snapshot_does_not_trip_the_breaker(self, local_backend):
        registry = ModelRegistry(local_backend, capacity=2, breaker_failures=2)
        for _ in range(4):
            with pytest.raises(SnapshotNotFoundError):
                registry.get("f" * 40)
        assert registry.stats().breaker_state == "closed"

    def test_unreachable_store_trips_the_circuit(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        backend = ObjectStoreBackend(
            f"http://127.0.0.1:{port}", timeout=0.3, retries=0, retry_backoff=0.0
        )
        registry = ModelRegistry(
            backend,
            capacity=2,
            retry_policy=RetryPolicy(attempts=1, base_backoff=0.0),
            breaker_failures=1,
            breaker_reset_after=60.0,
        )
        with pytest.raises(StoreError):
            registry.get("a" * 40)
        with pytest.raises(CircuitOpenError):
            registry.get("a" * 40)  # refused instantly, no store round trip
        assert registry.stats().breaker_state == "open"
        backend.close()


# -- micro-batcher -------------------------------------------------------------
class _CountingModel:
    """Deterministic forecaster that counts its predict invocations."""

    def __init__(self, columns=1, delay=0.0):
        self.columns = columns
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def predict(self, horizon):
        with self._lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        rows = np.arange(1, horizon + 1, dtype=float).reshape(-1, 1)
        return np.tile(rows, (1, self.columns))


def _run(coro):
    return asyncio.run(coro)


class TestMicroBatcher:
    def test_one_flush_serves_every_horizon_slice(self):
        model = _CountingModel(columns=2)
        with ThreadPoolExecutor(2) as pool:
            async def scenario():
                batcher = MicroBatcher(
                    resolve=lambda digest: model,
                    executor=pool,
                    max_batch=16,
                    max_delay_ms=20.0,
                )
                results = await asyncio.gather(
                    *(batcher.submit("d1", horizon) for horizon in (3, 7, 1, 7, 5))
                )
                return results

            results = _run(scenario())
        assert model.calls == 1  # five requests, one vectorized invocation
        for horizon, result in zip((3, 7, 1, 7, 5), results):
            assert result.batch_size == 5
            assert result.forecast.shape == (horizon, 2)
            assert result.forecast[:, 0].tolist() == list(
                np.arange(1, horizon + 1, dtype=float)
            )

    def test_full_batch_flushes_before_the_window(self):
        model = _CountingModel()
        with ThreadPoolExecutor(2) as pool:
            async def scenario():
                batcher = MicroBatcher(
                    resolve=lambda digest: model,
                    executor=pool,
                    max_batch=4,
                    max_delay_ms=60_000.0,  # the timer must never be what fires
                )
                start = time.perf_counter()
                await asyncio.gather(*(batcher.submit("d1", 2) for _ in range(4)))
                return time.perf_counter() - start

            elapsed = _run(scenario())
        assert model.calls == 1
        assert elapsed < 5.0

    def test_idle_lane_dispatches_without_the_window(self):
        model = _CountingModel()
        resolved = []

        def resolve(digest):
            resolved.append(digest)
            if len(resolved) == 1:
                raise RuntimeError("boom")
            return model

        with ThreadPoolExecutor(2) as pool:
            async def scenario():
                batcher = MicroBatcher(
                    resolve=resolve,
                    executor=pool,
                    max_batch=16,
                    max_delay_ms=60_000.0,  # only a busy lane may wait this long
                )
                # Each lone request finds the lane idle again, whether the
                # invocation before it raised or returned.
                with pytest.raises(RuntimeError, match="boom"):
                    await asyncio.wait_for(batcher.submit("d1", 3), 5.0)
                return [
                    await asyncio.wait_for(batcher.submit("d1", 3), 5.0)
                    for _ in range(2)
                ]

            results = _run(scenario())
        assert model.calls == 2
        for result in results:
            assert result.batch_size == 1
            assert result.forecast[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_busy_lane_gathers_batch_mates(self):
        model = _CountingModel(delay=0.3)
        with ThreadPoolExecutor(2) as pool:
            async def scenario():
                batcher = MicroBatcher(
                    resolve=lambda digest: model,
                    executor=pool,
                    max_batch=3,
                    max_delay_ms=60_000.0,
                )
                first = asyncio.ensure_future(batcher.submit("d1", 2))
                await asyncio.sleep(0.05)  # A is running on the pool
                # B arrives alone behind A and must wait for C and D.
                second = asyncio.ensure_future(batcher.submit("d1", 2))
                await asyncio.sleep(0.03)
                rest = [batcher.submit("d1", 2) for _ in range(2)]
                return await asyncio.wait_for(
                    asyncio.gather(first, second, *rest), 5.0
                )

            results = _run(scenario())
        assert model.calls == 2
        assert [result.batch_size for result in results] == [1, 3, 3, 3]

    def test_lanes_are_per_digest(self):
        models = {"a": _CountingModel(), "b": _CountingModel()}
        with ThreadPoolExecutor(2) as pool:
            async def scenario():
                batcher = MicroBatcher(
                    resolve=lambda digest: models[digest],
                    executor=pool,
                    max_batch=8,
                    max_delay_ms=10.0,
                )
                await asyncio.gather(
                    *(batcher.submit(digest, 3) for digest in ("a", "b", "a", "b"))
                )

            _run(scenario())
        assert models["a"].calls == 1
        assert models["b"].calls == 1

    def test_bounded_queue_sheds_fast(self):
        model = _CountingModel(delay=0.05)
        with ThreadPoolExecutor(2) as pool:
            async def scenario():
                batcher = MicroBatcher(
                    resolve=lambda digest: model,
                    executor=pool,
                    max_batch=64,
                    max_delay_ms=150.0,
                    max_queue=2,
                )
                first = asyncio.ensure_future(batcher.submit("d1", 2))
                second = asyncio.ensure_future(batcher.submit("d1", 2))
                await asyncio.sleep(0)  # both queued, window still open
                shed_started = time.perf_counter()
                with pytest.raises(ServeOverloadError):
                    await batcher.submit("d1", 2)
                shed_seconds = time.perf_counter() - shed_started
                results = await asyncio.gather(first, second)
                return shed_seconds, results, batcher.metrics()["d1"]

            shed_seconds, results, metrics = _run(scenario())
        assert shed_seconds < 0.05  # shed instantly, not after the window
        assert [result.forecast.shape for result in results] == [(2, 1), (2, 1)]
        assert metrics["shed"] == 1
        assert metrics["completed"] == 2

    def test_model_error_fails_the_batch_not_the_batcher(self):
        class Flaky:
            calls = 0

            def predict(self, horizon):
                Flaky.calls += 1
                if Flaky.calls == 1:
                    raise RuntimeError("boom")
                return np.ones((horizon, 1))

        model = Flaky()
        with ThreadPoolExecutor(2) as pool:
            async def scenario():
                batcher = MicroBatcher(
                    resolve=lambda digest: model,
                    executor=pool,
                    max_batch=4,
                    max_delay_ms=5.0,
                )
                with pytest.raises(RuntimeError, match="boom"):
                    await batcher.submit("d1", 2)
                result = await batcher.submit("d1", 2)
                return result, batcher.metrics()["d1"]

            result, metrics = _run(scenario())
        assert result.forecast.shape == (2, 1)
        assert metrics["errors"] == 1
        assert metrics["completed"] == 1

    def test_non_finite_slice_fails_only_its_request(self):
        from repro.exceptions import NonFiniteForecastError

        class Overflowing:
            def predict(self, horizon):
                rows = np.arange(1, horizon + 1, dtype=float).reshape(-1, 1)
                rows[3:] = np.inf  # finite for the first three steps only
                return rows

        with ThreadPoolExecutor(2) as pool:
            async def scenario():
                batcher = MicroBatcher(
                    resolve=lambda digest: Overflowing(),
                    executor=pool,
                    max_batch=2,
                    max_delay_ms=60_000.0,  # both requests share one batch
                )
                short, long = await asyncio.gather(
                    batcher.submit("d1", 3),
                    batcher.submit("d1", 12),
                    return_exceptions=True,
                )
                return short, long, batcher.metrics()["d1"]

            short, long, metrics = _run(scenario())
        assert short.forecast[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert short.batch_size == 2
        assert isinstance(long, NonFiniteForecastError)
        assert metrics["completed"] == 1
        assert metrics["errors"] == 1

    def test_metrics_report_latency_percentiles(self):
        model = _CountingModel()
        with ThreadPoolExecutor(2) as pool:
            async def scenario():
                batcher = MicroBatcher(
                    resolve=lambda digest: model, executor=pool, max_batch=4,
                    max_delay_ms=1.0,
                )
                await asyncio.gather(*(batcher.submit("d1", 2) for _ in range(8)))
                return batcher.metrics()["d1"]

            metrics = _run(scenario())
        assert metrics["requests"] == 8
        assert metrics["completed"] == 8
        assert metrics["p50_ms"] is not None
        assert metrics["p99_ms"] >= metrics["p50_ms"]


# -- satellite: read-only-after-fit thread safety ------------------------------
_PREDICT_PATH_METHODS = ("predict", "_predict", "transform", "inverse_transform")


def _self_writes_in_predict_paths() -> list[str]:
    """Every ``self``-mutation inside a predict-path method, repo-wide."""
    package_root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    violations = []
    for path in sorted(package_root.rglob("*.py")):
        if path.parent.name == "serve":
            # The serving front end has an HTTP handler named ``_predict``;
            # the read-only contract applies to estimators, not routers.
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if (
                    not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or method.name not in _PREDICT_PATH_METHODS
                ):
                    continue
                for statement in ast.walk(method):
                    targets = []
                    if isinstance(statement, ast.Assign):
                        targets = statement.targets
                    elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
                        targets = [statement.target]
                    for target in targets:
                        base = target
                        while isinstance(base, ast.Subscript):
                            base = base.value
                        if (
                            isinstance(base, ast.Attribute)
                            and isinstance(base.value, ast.Name)
                            and base.value.id == "self"
                        ):
                            violations.append(
                                f"{path.relative_to(package_root)}:{statement.lineno} "
                                f"{node.name}.{method.name} writes self.{base.attr}"
                            )
    return violations


class TestPredictThreadSafety:
    def test_no_predict_path_mutates_self(self):
        """AST audit: predict/transform paths never assign fitted state.

        This is the static half of the read-only-after-fit contract in
        :class:`repro.core.base.BaseForecaster`; a new predictor that
        mutates state in ``predict`` shows up here by file and line.
        """
        assert _self_writes_in_predict_paths() == []

    @pytest.mark.parametrize(
        "pipeline_name",
        ["WindowRandomForest", "Arima", "HW_Additive", "MT2RForecaster", "Theta"],
    )
    def test_concurrent_predicts_byte_identical(self, pipeline_name, seasonal_series):
        registry = PipelineRegistry(include_optional=True)
        pipeline = registry.create(
            pipeline_name, lookback=8, horizon=6, allow_log=True
        )
        pipeline.fit(seasonal_series[:140].reshape(-1, 1))
        reference = {h: pipeline.predict(h).tobytes() for h in (3, 6)}
        failures = []
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(3):
                for horizon in (3, 6):
                    if pipeline.predict(horizon).tobytes() != reference[horizon]:
                        failures.append(horizon)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []


# -- satellite: asyncio-safe connection pooling --------------------------------
class TestConnectionPooling:
    def test_short_lived_threads_reuse_one_connection(self, store_server):
        backend = ObjectStoreBackend(store_server.url)
        backend.put("ab" * 20, {"k": 1})
        for _ in range(12):
            # Each request runs on a brand-new thread — the old per-thread
            # affinity opened (and stranded) 12 sockets here.
            thread = threading.Thread(target=backend.get, args=("ab" * 20,))
            thread.start()
            thread.join()
        stats = backend.transport_stats
        assert stats.connections_opened <= 2
        assert stats.pooled_idle >= 1
        backend.close()

    def test_rotating_executors_reuse_the_pool(self, store_server):
        backend = ObjectStoreBackend(store_server.url, pool_size=4)
        backend.put("cd" * 20, {"k": 2})
        for _ in range(3):
            # A replica's hydration path: work arrives via executor threads
            # whose identities rotate across executor lifetimes.
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda _k: backend.get("cd" * 20), range(16)))
        stats = backend.transport_stats
        assert stats.connections_opened <= 4 + 1  # bounded by concurrency, not threads
        assert stats.pooled_idle <= backend.pool_size
        backend.close()
        assert backend.transport_stats.pooled_idle == 0

    def test_burst_beyond_pool_size_is_not_capped_but_not_retained(self, store_server):
        backend = ObjectStoreBackend(store_server.url, pool_size=2)
        backend.put("ef" * 20, {"k": 3})
        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(lambda _k: backend.get("ef" * 20), range(24)))
        stats = backend.transport_stats
        assert stats.pooled_idle <= 2  # excess connections were closed, not pooled
        backend.close()

    def test_backend_usable_after_close(self, store_server):
        backend = ObjectStoreBackend(store_server.url)
        backend.put("0123" * 10, {"k": 4})
        backend.close()
        assert backend.get("0123" * 10) == {"k": 4}
        backend.close()
