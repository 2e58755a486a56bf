"""Streaming path: append-aware digests, arrival buffer, frame growth,
cache-stat tiers, drift watching, the streaming engine and the serving
hot-swap hook."""

from __future__ import annotations

import hashlib
import json
import time
import weakref

import numpy as np
import pytest

from repro.anomaly import DriftReport, ResidualDriftWatcher
from repro.exceptions import DataQualityError, InvalidParameterError
from repro.exec.cache import EvaluationCache
from repro.forecasters import (
    DriftForecaster,
    MeanForecaster,
    SimpleExponentialSmoothing,
    ThetaForecaster,
    ZeroModelForecaster,
)
from repro.frame import TimeSeriesFrame
from repro.store import LocalFSBackend
from repro.store.digest import (
    _MEMO,
    _guard_sample,
    append_base_stats,
    array_digest,
    clear_digest_memo,
    register_append_base,
)
from repro.stream import ArrivalBuffer, ArrivalReport, StreamingEngine


def _full_hash(values: np.ndarray) -> str:
    return hashlib.blake2b(
        np.ascontiguousarray(values).data, digest_size=16
    ).hexdigest()


@pytest.fixture(autouse=True)
def _clean_digest_state():
    clear_digest_memo()
    yield
    clear_digest_memo()


class TestAppendAwareDigests:
    def test_prefix_digests_match_full_rehash(self):
        base = register_append_base(np.empty(1000))
        data = np.random.default_rng(0).normal(size=1000)
        for stop in (100, 100, 400, 1000):
            base[:stop] = data[:stop]
            assert array_digest(base[:stop]) == _full_hash(data[:stop])

    def test_extension_hashes_only_new_bytes(self):
        base = register_append_base(np.empty(1000))
        base[:600] = 1.0
        array_digest(base[:600])
        before = append_base_stats()["extended_bytes"]
        base[600:1000] = 2.0
        array_digest(base[:1000])
        assert append_base_stats()["extended_bytes"] - before == 400 * 8

    def test_repeated_prefix_is_memoized(self):
        base = register_append_base(np.zeros(512))
        array_digest(base[:256])
        before = append_base_stats()["prefix_hits"]
        array_digest(base[:256])
        assert append_base_stats()["prefix_hits"] == before + 1

    def test_reallocation_carries_hash_state(self):
        old = register_append_base(np.zeros(512))
        array_digest(old[:512])
        new = np.empty(2048)
        new[:512] = old
        register_append_base(new, carry_from=old, carry_bytes=512 * 8)
        before = append_base_stats()["full_rehashes"]
        new[512:700] = 3.0
        assert array_digest(new[:700]) == _full_hash(new[:700])
        # the carried state extended over the gap — no full rehash ran
        assert append_base_stats()["full_rehashes"] == before

    def test_offset_views_do_not_use_the_fast_path(self):
        base = register_append_base(np.arange(600.0))
        # non-zero offset: not a prefix, must fall back to a plain hash
        assert array_digest(base[100:500]) == _full_hash(base[100:500])


class TestDigestMemoGrowthRegression:
    """Satellite 1: the id-keyed memo must not serve stale digests to a
    grown buffer that reuses the id (or the object) of a hashed array."""

    def test_stale_entry_with_matching_guard_is_rejected_by_size(self):
        # Simulate the id-reuse hazard directly: an entry whose weakref
        # and edge guard both match the queried array (exactly what an
        # in-place, zero-padded growth produces) but whose recorded byte
        # count is the old, shorter buffer's.  Only the nbytes check
        # stands between this entry and a stale digest.
        grown = np.zeros(2048)
        _MEMO[id(grown)] = (weakref.ref(grown), 1024, "stale-digest", _guard_sample(grown))
        assert array_digest(grown) == _full_hash(grown)

    def test_growing_an_array_in_a_loop_never_serves_stale_digests(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=700)
        for _ in range(12):
            array = np.ascontiguousarray(values)
            assert array_digest(array) == _full_hash(array)
            # grow: reallocate (frees the old buffer, often reusing ids)
            values = np.concatenate([values, rng.normal(size=137)])


class TestArrivalBuffer:
    def test_append_and_view(self):
        buffer = ArrivalBuffer(n_series=2, capacity=16)
        rows = np.arange(10.0).reshape(5, 2)
        buffer.append(rows)
        assert len(buffer) == 5
        view = buffer.view()
        assert view.shape == (5, 2)
        assert not view.flags.writeable
        np.testing.assert_array_equal(view, rows)

    def test_views_survive_geometric_growth(self):
        buffer = ArrivalBuffer(n_series=1, capacity=8)
        buffer.append(np.ones((8, 1)))
        early = buffer.view()
        buffer.append(np.full((20, 1), 2.0))  # forces reallocation
        np.testing.assert_array_equal(early, np.ones((8, 1)))
        assert len(buffer) == 28
        assert buffer.capacity >= 28

    def test_prefix_digests_are_incremental_across_growth(self):
        buffer = ArrivalBuffer(n_series=1, capacity=8)
        buffer.append(np.arange(8.0).reshape(-1, 1))
        array_digest(buffer.view())
        buffer.append(np.arange(30.0).reshape(-1, 1))
        before = append_base_stats()["full_rehashes"]
        assert array_digest(buffer.view()) == _full_hash(buffer.view())
        assert append_base_stats()["full_rehashes"] == before

    def test_rejects_mismatched_width(self):
        buffer = ArrivalBuffer(n_series=2)
        with pytest.raises(DataQualityError):
            buffer.append(np.ones((3, 3)))


class TestFrameAppendRows:
    def test_append_extends_without_touching_the_original(self):
        X = np.random.default_rng(1).normal(size=(60, 3))
        frame = TimeSeriesFrame.from_array(X)
        extra = np.random.default_rng(2).normal(size=(10, 3))
        grown = frame.append_rows(extra)
        assert len(frame) == 60 and len(grown) == 70
        np.testing.assert_array_equal(grown.to_array(), np.vstack([X, extra]))
        np.testing.assert_array_equal(frame.to_array(), X)

    def test_second_append_reuses_capacity_in_place(self):
        frame = TimeSeriesFrame.from_array(np.zeros((40, 2)))
        g1 = frame.append_rows(np.ones((5, 2)))
        base_before = g1.columns[0].values.base
        g2 = g1.append_rows(np.full((5, 2), 2.0))
        # same capacity buffer: the second append wrote into spare room
        assert g2.columns[0].values.base is base_before

    def test_sibling_append_does_not_clobber(self):
        frame = TimeSeriesFrame.from_array(np.zeros((40, 1)))
        g1 = frame.append_rows(np.ones((5, 1)))
        g2 = g1.append_rows(np.full((3, 1), 2.0))
        g3 = g1.append_rows(np.full((3, 1), 9.0))  # tip moved: must reallocate
        np.testing.assert_array_equal(g2.to_array()[-3:], np.full((3, 1), 2.0))
        np.testing.assert_array_equal(g3.to_array()[-3:], np.full((3, 1), 9.0))

    def test_fingerprints_stay_content_addressed(self):
        X = np.random.default_rng(3).normal(size=(50, 2))
        extra = np.random.default_rng(4).normal(size=(6, 2))
        grown = TimeSeriesFrame.from_array(X).append_rows(extra)
        fresh = TimeSeriesFrame.from_array(np.vstack([X, extra]))
        assert grown.fingerprint() == fresh.fingerprint()

    def test_dictionary_columns_decode_on_append(self):
        X = np.tile(np.array([[1.0, 5.0]]), (40, 1))
        frame = TimeSeriesFrame.from_array(X, dictionary=True)
        assert {c.encoding for c in frame.columns} == {"dict"}
        grown = frame.append_rows(np.array([[7.5, 2.5]]))
        assert {c.encoding for c in grown.columns} == {"plain"}
        np.testing.assert_array_equal(grown.to_array()[-1], [7.5, 2.5])

    def test_shape_validation(self):
        frame = TimeSeriesFrame.from_array(np.zeros((20, 2)))
        with pytest.raises(DataQualityError):
            frame.append_rows(np.zeros((3, 5)))


class TestCacheStatTiers:
    def _make_key(self, cache, train, test):
        return cache.make_key(ZeroModelForecaster(), train, test, 1)

    def test_memory_vs_disk_hits_are_split(self, tmp_path):
        train = np.arange(20.0).reshape(-1, 1)
        test = np.arange(20.0, 26.0).reshape(-1, 1)
        store = LocalFSBackend(tmp_path / "cache")
        writer = EvaluationCache(store=store)
        key = self._make_key(writer, train, test)
        from repro.exec.tasks import FitScoreResult

        writer.put(key, FitScoreResult(tag=0, score=1.0, seconds=0.1, n_train=20))
        assert writer.get(key) is not None  # memory tier
        stats = writer.stats
        assert stats.memory_hits == 1 and stats.disk_hits == 0

        reader = EvaluationCache(store=store)  # cold memory, warm disk
        assert reader.get(self._make_key(reader, train, test)) is not None
        stats = reader.stats
        assert stats.disk_hits == 1 and stats.memory_hits == 0
        assert stats.disk_hit_rate == 1.0

    def test_prefix_hits_are_counted_when_declared(self):
        train = np.arange(30.0).reshape(-1, 1)
        test = np.arange(30.0, 36.0).reshape(-1, 1)
        cache = EvaluationCache()
        key = self._make_key(cache, train, test)
        from repro.exec.tasks import FitScoreResult

        cache.put(key, FitScoreResult(tag=0, score=1.0, seconds=0.1, n_train=30))
        assert cache.get(key) is not None
        assert cache.get(key, prefix=True) is not None
        stats = cache.stats
        assert stats.hits == 2 and stats.prefix_hits == 1

    def test_reset_stats_keeps_entries(self):
        cache = EvaluationCache()
        key = self._make_key(
            cache, np.arange(10.0).reshape(-1, 1), np.arange(4.0).reshape(-1, 1)
        )
        from repro.exec.tasks import FitScoreResult

        cache.put(key, FitScoreResult(tag=0, score=0.5, seconds=0.1, n_train=10))
        cache.get(key)
        cache.reset_stats()
        stats = cache.stats
        assert stats.hits == 0 and stats.misses == 0 and stats.size == 1
        assert cache.get(key) is not None  # entry survived the reset


class TestResidualDriftWatcher:
    def test_quiet_residuals_never_fire(self):
        watcher = ResidualDriftWatcher(threshold=3.5, patience=2, min_history=8)
        rng = np.random.default_rng(5)
        assert all(
            watcher.observe(rng.normal(0, 0.1, size=2)) is None for _ in range(100)
        )

    def test_single_spike_is_not_drift(self):
        watcher = ResidualDriftWatcher(threshold=3.0, patience=3, min_history=8)
        for _ in range(20):
            watcher.observe([0.1])
        assert watcher.observe([50.0]) is None
        assert watcher.streak == 1
        watcher.observe([0.1])
        assert watcher.streak == 0  # streak broken by a normal residual

    def test_sustained_shift_reports_drift(self):
        watcher = ResidualDriftWatcher(threshold=3.0, patience=3, min_history=8)
        for _ in range(20):
            watcher.observe([0.1])
        report = None
        for _ in range(3):
            report = watcher.observe([25.0]) or report
        assert isinstance(report, DriftReport)
        assert report.zscore > 3.0
        assert len(report.run_magnitudes) == 3
        watcher.reset()
        assert watcher.streak == 0

    def test_warmup_never_fires(self):
        watcher = ResidualDriftWatcher(min_history=10, patience=1)
        assert all(watcher.observe([100.0 * i]) is None for i in range(10))


def _engine(**kwargs) -> StreamingEngine:
    params = dict(
        pipelines=[
            ZeroModelForecaster(),
            DriftForecaster(),
            MeanForecaster(),
            ThetaForecaster(),
        ],
        horizon=3,
        watcher=ResidualDriftWatcher(threshold=3.0, patience=2, min_history=10),
        tdaub_params={"min_allocation_size": 40},
    )
    params.update(kwargs)
    return StreamingEngine(**params)


def _smooth_series(n: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(0, 0.2, size=(n, 2)), axis=0)


class TestStreamingEngine:
    def test_cold_start_then_drift_free_appends(self):
        series = _smooth_series(320)
        engine = _engine().start(series[:280])
        assert engine.winner_name_ in engine.ranking_
        for start in range(280, 320, 10):
            report = engine.append(series[start : start + 10])
            assert isinstance(report, ArrivalReport)
            assert not report.reranked
        assert engine.rerank_count_ == 0
        assert len(engine.buffer) == 320

    def test_drift_triggers_warm_rerank_with_prefix_reuse(self):
        series = _smooth_series(330)
        engine = _engine().start(series[:300])
        # drift-free arrivals warm the watcher's residual-regime history
        for start in range(300, 330, 5):
            assert not engine.append(series[start : start + 5]).reranked
        shift = series[-1] + np.cumsum(
            np.random.default_rng(6).normal(4.0, 2.0, size=(30, 2)), axis=0
        )
        reranked = False
        for start in range(0, 30, 5):
            report = engine.append(shift[start : start + 5])
            if report.reranked:
                reranked = True
                assert report.drift is not None
                break
        assert reranked
        assert engine.rerank_count_ == 1
        # the warm rerank served its unchanged-prefix cells, refit none
        assert engine.ranker_.warm_hits_ > 0
        assert engine.ranker_.prefix_refits_ == 0
        assert engine.predict().shape == (3, 2)

    def test_update_seam_keeps_winner_current(self):
        series = _smooth_series(300, seed=9)
        engine = _engine().start(series[:290])
        engine.append(series[290:])
        # the deployed model saw all 300 rows through update()
        assert engine._model_rows == 300

    def test_non_finite_arrival_is_rejected_before_buffering(self):
        series = np.sin(2 * np.pi * np.arange(220.0) / 12.0)
        engine = StreamingEngine(
            [
                ZeroModelForecaster(horizon=4),
                DriftForecaster(horizon=4),
                SimpleExponentialSmoothing(horizon=4),
            ],
            horizon=4,
        ).start(series[:200])
        poisoned = series[200:210].copy()
        poisoned[4] = np.inf
        with pytest.raises(DataQualityError):
            engine.append(poisoned)
        assert len(engine.buffer) == 200
        # the stream goes on: clean arrivals after the rejected one land
        assert engine.append(series[200:210]).total_rows == 210
        assert engine.append(series[210:220]).total_rows == 220

    def test_empty_arrival_is_rejected(self):
        engine = StreamingEngine(
            [ZeroModelForecaster(horizon=4), DriftForecaster(horizon=4)], horizon=4
        ).start(np.sin(np.arange(200.0) / 5).reshape(-1, 1))
        with pytest.raises(DataQualityError):
            engine.append(np.zeros((0, 1)))
        assert len(engine.buffer) == 200

    def test_manual_rerank_without_drift(self):
        series = _smooth_series(280, seed=10)
        engine = _engine().start(series)
        before = engine.ranking_
        engine.rerank()
        assert engine.rerank_count_ == 1
        assert engine.ranking_ == before  # drift-free: ranking is stable


class TestStreamingPublish:
    def test_rerank_publishes_and_replica_hot_swaps(self, tmp_path):
        from repro.serve import ServingReplica, resolve_model
        from repro.store import ObjectStoreBackend
        from repro.store.server import StoreServer

        server = StoreServer(tmp_path / "store-root")
        server.serve_in_background()
        backend = ObjectStoreBackend(server.url)
        handle = None
        try:
            series = _smooth_series(300, seed=13)
            engine = _engine(
                publish_store=backend,
                publish_name="stream-winner",
                # stricter watcher: the warm-up arrivals must not fire on
                # ordinary noise, only the injected regime shift should
                watcher=ResidualDriftWatcher(
                    threshold=5.0, patience=3, min_history=10
                ),
            ).start(series[:280])
            first = engine.rerank()  # publish v1 explicitly
            assert first is not None and first.version == 1

            replica = ServingReplica(
                store=server.url,
                models=["stream-winner"],
                max_delay_ms=5.0,
                poll_interval=0.05,
            )
            handle = replica.start_in_background()
            import http.client

            def request(path, body=None):
                conn = http.client.HTTPConnection(
                    handle.url.removeprefix("http://"), timeout=10.0
                )
                try:
                    payload = json.dumps(body).encode() if body is not None else None
                    conn.request("POST" if body is not None else "GET", path, body=payload)
                    response = conn.getresponse()
                    return response.status, json.loads(response.read().decode())
                finally:
                    conn.close()

            status, payload = request("/predict/stream-winner", {"horizon": 3})
            assert status == 200
            assert payload["version"] == first.version

            # drift-free arrivals warm the watcher's residual history
            for start in range(280, 300, 5):
                assert not engine.append(series[start : start + 5]).reranked

            # drifted arrivals: the engine re-ranks and publishes v2
            shift = series[-1] + np.cumsum(
                np.random.default_rng(14).normal(5.0, 2.0, size=(20, 2)), axis=0
            )
            published = None
            for start in range(0, 20, 5):
                report = engine.append(shift[start : start + 5])
                if report.reranked:
                    published = report.published
                    break
            assert published is not None and published.version == 2
            assert resolve_model(backend, "stream-winner")[1] == 2

            # one replica, zero restarts: it polls the snapshot doc and
            # swaps to the refreshed winner
            deadline = time.time() + 5.0
            swapped = False
            while time.time() < deadline:
                status, payload = request("/predict/stream-winner", {"horizon": 3})
                assert status == 200
                if payload["version"] == published.version:
                    swapped = True
                    break
                time.sleep(0.05)
            assert swapped, "replica never hot-swapped to the re-ranked winner"
        finally:
            if handle is not None:
                handle.stop()
            backend.close()
            server.close()


class TestEngineValidation:
    def test_append_before_start_raises(self):
        with pytest.raises(InvalidParameterError):
            _engine().append(np.ones((2, 2)))
