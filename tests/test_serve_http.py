"""End-to-end tests for the asyncio serving replica.

Exercises the full path a production request takes: HTTP in, micro-batch,
registry hydration from the object store, vectorized predict on the
worker pool, HTTP out — plus the operational envelope (hot swap under
load, 429 shedding, readiness during a store outage).
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.core.base import BaseForecaster
from repro.hybrid.window_regressor import WindowRandomForestForecaster
from repro.serve import ServingReplica, publish_model
from repro.store import ObjectStoreBackend
from repro.store.server import StoreServer


class SleepyForecaster(BaseForecaster):
    """Constant forecaster whose predict takes ``delay`` seconds.

    Module-level so snapshots of it unpickle; used to hold a batch window
    open long enough to observe queue-bound shedding deterministically.
    """

    def __init__(self, delay: float = 0.2):
        self.delay = delay

    def fit(self, X, y=None):
        X = np.asarray(X, dtype=float).reshape(-1, 1)
        self.level_ = float(X[-1, 0])
        return self

    def predict(self, horizon=None):
        time.sleep(self.delay)
        steps = int(horizon or 1)
        return np.full((steps, 1), self.level_)


def _fit_window_model(seed: float, estimators: int = 6) -> WindowRandomForestForecaster:
    t = np.arange(150, dtype=float)
    series = seed + 0.15 * t + 5.0 * np.sin(2.0 * np.pi * t / 12.0)
    return WindowRandomForestForecaster(
        lookback=8, horizon=4, n_estimators=estimators
    ).fit(series.reshape(-1, 1))


def _request(url: str, method: str, path: str, body: dict | None = None, timeout=10.0):
    host = url.removeprefix("http://")
    conn = http.client.HTTPConnection(host, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def serving(tmp_path_factory):
    server = StoreServer(tmp_path_factory.mktemp("serve-http") / "root")
    server.serve_in_background()
    backend = ObjectStoreBackend(server.url)
    models = {"energy": _fit_window_model(40.0), "retail": _fit_window_model(75.0)}
    published = {
        name: publish_model(model, backend, name) for name, model in models.items()
    }
    replica = ServingReplica(
        store=server.url,
        models=["energy"],  # "retail" is left for on-demand resolution
        max_delay_ms=5.0,
        poll_interval=0.1,
    )
    handle = replica.start_in_background()
    yield types.SimpleNamespace(
        server=server,
        backend=backend,
        replica=replica,
        url=handle.url,
        models=models,
        published=published,
    )
    handle.stop()
    backend.close()
    server.close()


class TestPredictEndpoint:
    def test_forecast_matches_the_published_model(self, serving):
        status, payload = _request(
            serving.url, "POST", "/predict/energy", {"horizon": 6}
        )
        assert status == 200
        assert payload["model"] == "energy"
        assert payload["digest"] == serving.published["energy"].digest
        assert payload["version"] == serving.published["energy"].version
        assert payload["forecast"] == serving.models["energy"].predict(6).tolist()

    def test_concurrent_requests_are_micro_batched(self, serving):
        expected = serving.models["energy"].predict(5).tolist()
        results = []
        barrier = threading.Barrier(16)

        def fire():
            barrier.wait()
            results.append(
                _request(serving.url, "POST", "/predict/energy", {"horizon": 5})
            )
        threads = [threading.Thread(target=fire) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [status for status, _ in results] == [200] * 16
        assert all(payload["forecast"] == expected for _, payload in results)
        assert max(payload["batch_size"] for _, payload in results) > 1

    def test_unknown_name_resolves_on_demand(self, serving):
        status, payload = _request(
            serving.url, "POST", "/predict/retail", {"horizon": 3}
        )
        assert status == 200
        assert payload["digest"] == serving.published["retail"].digest
        status, table = _request(serving.url, "GET", "/models")
        assert status == 200
        assert set(table) >= {"energy", "retail"}

    def test_non_finite_forecast_is_a_500(self, serving):
        from repro.forecasters.naive import DriftForecaster

        ramp = np.linspace(1e306, 1.6e308, 60).reshape(-1, 1)
        publish_model(DriftForecaster(horizon=12).fit(ramp), serving.backend, "overflow")
        status, payload = _request(
            serving.url, "POST", "/predict/overflow", {"horizon": 12}
        )
        assert status == 500
        assert "NonFiniteForecastError" in payload["error"]
        # The first steps stay below the float64 maximum and are served.
        status, payload = _request(
            serving.url, "POST", "/predict/overflow", {"horizon": 3}
        )
        assert status == 200
        assert np.isfinite(payload["forecast"]).all()
        _, metrics = _request(serving.url, "GET", "/metrics")
        assert metrics["models"]["overflow"]["errors"] == 1

    def test_error_statuses(self, serving):
        assert _request(serving.url, "POST", "/predict/nope", {"horizon": 2})[0] == 404
        assert _request(serving.url, "POST", "/predict/energy", {"horizon": 0})[0] == 400
        for horizon in (None, [2], {}, float("inf")):
            status, payload = _request(
                serving.url, "POST", "/predict/energy", {"horizon": horizon}
            )
            assert status == 400, horizon
            assert payload["error"].startswith("bad predict request"), payload
        assert _request(serving.url, "POST", "/predict/energy", {"horizon": 2})[0] == 200
        assert _request(serving.url, "GET", "/predict/energy")[0] == 405
        assert _request(serving.url, "GET", "/does-not-exist")[0] == 404


class TestOpsEndpoints:
    def test_healthz_readyz_metrics(self, serving):
        status, health = _request(serving.url, "GET", "/healthz")
        assert (status, health["status"]) == (200, "ok")
        status, ready = _request(serving.url, "GET", "/readyz")
        assert (status, ready["status"]) == (200, "ready")
        _request(serving.url, "POST", "/predict/energy", {"horizon": 2})
        status, metrics = _request(serving.url, "GET", "/metrics")
        assert status == 200
        energy = metrics["models"]["energy"]
        assert energy["digest"] == serving.published["energy"].digest
        assert energy["completed"] >= 1
        assert metrics["registry"]["loads"] >= 1
        assert metrics["registry"]["breaker_state"] == "closed"

    def test_cli_help_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--help"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
            timeout=120,
        )
        assert result.returncode == 0
        assert "--max-batch" in result.stdout


class TestHotSwap:
    def test_swap_under_load_drops_nothing(self, serving):
        old = publish_model(_fit_window_model(10.0), serving.backend, "swap")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:  # wait for the watcher to route it
            if _request(serving.url, "POST", "/predict/swap", {"horizon": 2})[0] == 200:
                break
            time.sleep(0.05)
        statuses, digests = [], set()
        stop_firing = threading.Event()

        def fire():
            while not stop_firing.is_set():
                status, payload = _request(
                    serving.url, "POST", "/predict/swap", {"horizon": 3}
                )
                statuses.append(status)
                if status == 200:
                    digests.add(payload["digest"])

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        new = publish_model(_fit_window_model(90.0, estimators=4), serving.backend, "swap")
        assert new.digest != old.digest
        # keep the request storm running across the poll + hydrate + swap
        swap_deadline = time.monotonic() + 5.0
        while new.digest not in digests and time.monotonic() < swap_deadline:
            time.sleep(0.05)
        stop_firing.set()
        for thread in threads:
            thread.join()
        assert statuses and set(statuses) == {200}  # zero drops, zero errors
        assert digests == {old.digest, new.digest}  # traffic switched digests
        status, payload = _request(serving.url, "GET", "/models")
        assert payload["swap"] == {"digest": new.digest, "version": new.version}


class TestOverload:
    def test_full_queue_sheds_429_fast(self, tmp_path):
        server = StoreServer(tmp_path / "root")
        server.serve_in_background()
        backend = ObjectStoreBackend(server.url)
        publish_model(SleepyForecaster(delay=0.3).fit(np.ones((20, 1))), backend, "slow")
        replica = ServingReplica(
            store=server.url,
            models=["slow"],
            max_batch=64,
            max_delay_ms=400.0,
            max_queue=2,
        )
        with replica.start_in_background() as handle:
            results = []
            barrier = threading.Barrier(8)

            def fire():
                barrier.wait()
                results.append(
                    _request(handle.url, "POST", "/predict/slow", {"horizon": 1})
                )

            threads = [threading.Thread(target=fire) for _ in range(8)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            counts = {status: 0 for status, _ in results}
            for status, _ in results:
                counts[status] += 1
            assert set(counts) == {200, 429}
            assert counts[429] >= 1  # the bounded queue shed the excess
            assert counts[200] >= 2  # the queued requests still completed
            # shedding happened inline, not after waiting out the window
            assert elapsed < 5.0
        backend.close()
        server.close()


class TestStoreOutage:
    def test_hydrated_models_survive_a_store_outage(self, tmp_path):
        server = StoreServer(tmp_path / "root")
        server.serve_in_background()
        backend = ObjectStoreBackend(server.url)
        model = _fit_window_model(55.0, estimators=4)
        publish_model(model, backend, "durable")
        replica = ServingReplica(store=server.url, models=["durable"], poll_interval=0.1)
        with replica.start_in_background() as handle:
            status, _ = _request(handle.url, "POST", "/predict/durable", {"horizon": 4})
            assert status == 200  # hydrated and cached
            # Simulate the store process dying: stop the listener and sever
            # the replica's pooled keep-alive connections (a crashed server
            # would close them; StoreServer's handler threads outlive close).
            server.close()
            replica.backend.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                status, ready = _request(handle.url, "GET", "/readyz")
                if status == 503:
                    break
                time.sleep(0.1)
            assert (status, ready["status"]) == (503, "degraded")
            assert _request(handle.url, "GET", "/healthz")[0] == 200  # still alive
            # the already-hydrated model keeps serving through the outage
            status, payload = _request(
                handle.url, "POST", "/predict/durable", {"horizon": 4}
            )
            assert status == 200
            assert payload["forecast"] == model.predict(4).tolist()
        backend.close()
