"""Columnar data plane: frames, spill, refs, fingerprints and chunk faults.

Covers the frame package end to end: in-RAM construction and dictionary
encoding, zero-copy views, spill/load round-trips through both store
backends, the per-column ``FrameRef`` register/resolve path (including
the no-copy regression assertions), fingerprint equality across every
residence (the cache-key invariant), and the ``frame.chunk_read`` fault
seam healing torn and corrupt reads.
"""

import pickle

import numpy as np
import pytest

from repro import faults
from repro.benchmarking import BenchmarkRunner
from repro.exec import DataPlane, FrameRef, SharedMemoryPlane, resolve_payload
from repro.exec.cache import _slice_fingerprint
from repro.faults.plan import FaultPlan, FaultRule
from repro.forecasters.naive import DriftForecaster, ZeroModelForecaster
from repro.frame import (
    ChunkedWindowFramer,
    FrameIntegrityError,
    SpilledFrame,
    TimeSeriesFrame,
    dictionary_encode,
    load_frame,
    spill_frame,
)
from repro.hybrid.window_regressor import WindowRegressor
from repro.ml import StreamingRidge
from repro.ml.linear import RidgeRegression
from repro.store import LocalFSBackend
from repro.store.digest import clear_digest_memo, digest_memo_stats


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


def _table(n=200, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(float(n))
    return {
        "trend": t * 0.5 + rng.normal(0, 0.1, n),
        "season": np.sin(t / 7.0),
        "dow": (t % 7).astype(np.int64),
        "flag": (t % 2 == 0).astype(np.float64),
    }


class TestTimeSeriesFrame:
    def test_from_array_round_trip(self):
        X = np.arange(60.0).reshape(20, 3)
        frame = TimeSeriesFrame.from_array(X, names=["a", "b", "c"])
        assert frame.shape == (20, 3)
        assert frame.names == ("a", "b", "c")
        np.testing.assert_array_equal(frame.to_array(), X)

    def test_dictionary_encoding_applies_and_round_trips(self):
        frame = TimeSeriesFrame.from_columns(_table(), dictionary=True)
        encodings = {c.name: c.encoding for c in frame.columns}
        assert encodings["dow"] == "dict"
        assert encodings["flag"] == "dict"
        assert encodings["trend"] == "plain"
        # Codes are single-byte; decode reproduces the column exactly.
        dow = frame._by_name["dow"]
        assert dow.values.dtype == np.uint8
        np.testing.assert_array_equal(frame.column("dow"), _table()["dow"])

    def test_dictionary_encode_refuses_high_cardinality_and_nan(self):
        assert dictionary_encode(np.arange(1000.0)) is None
        values = np.zeros(64)
        values[3] = np.nan
        assert dictionary_encode(values) is None
        assert dictionary_encode(np.zeros(4)) is None  # too small to bother

    def test_views_are_zero_copy(self):
        frame = TimeSeriesFrame.from_columns(_table())
        window = frame.slice_rows(10, 50)
        picked = frame.select(["season", "trend"])
        assert len(window) == 40
        assert picked.names == ("season", "trend")
        for name in window.names:
            assert np.shares_memory(
                window._by_name[name].values, frame._by_name[name].values
            )
        for name in picked.names:
            assert picked._by_name[name] is frame._by_name[name]

    def test_buffers_are_read_only(self):
        frame = TimeSeriesFrame.from_columns(_table())
        with pytest.raises(ValueError):
            frame._by_name["trend"].values[0] = 99.0

    def test_gather_matches_row_major_slice(self):
        table = _table()
        frame = TimeSeriesFrame.from_columns(table, dictionary=True)
        expected = np.column_stack([table[name] for name in frame.names])
        np.testing.assert_array_equal(frame.gather(13, 77), expected[13:77])
        np.testing.assert_array_equal(frame.to_array(), expected)

    def test_select_composes_digests_without_rehash(self):
        """Satellite: column selection reuses memoized per-column digests."""
        frame = TimeSeriesFrame.from_columns(_table(4096))
        frame.fingerprint()
        clear_digest_memo()
        selected = frame.select(["trend", "season"]).fingerprint()
        stats = digest_memo_stats()
        assert stats["misses"] == 0, "column selection re-hashed a buffer"
        full = dict(zip(frame.names, frame.fingerprint()[2]))
        assert selected[2] == (full["trend"], full["season"])


class TestSpilledFrame:
    def test_spill_fingerprint_and_round_trip(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "store")
        frame = TimeSeriesFrame.from_columns(_table(500), dictionary=True)
        spilled = spill_frame(frame, backend, chunk_rows=64)
        assert spilled.fingerprint() == frame.fingerprint()
        np.testing.assert_array_equal(spilled.to_array(), frame.to_array())
        reloaded = load_frame(spilled.spec, backend)
        assert reloaded.fingerprint() == frame.fingerprint()

    def test_spill_dedups_chunk_blobs(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "store")
        frame = TimeSeriesFrame.from_columns(_table(500))
        first = spill_frame(frame, backend, chunk_rows=64)
        blobs_after_first = sorted(
            p.name for p in (tmp_path / "store" / "blobs").rglob("*.npy")
        )
        second = spill_frame(frame, backend, chunk_rows=64)
        blobs_after_second = sorted(
            p.name for p in (tmp_path / "store" / "blobs").rglob("*.npy")
        )
        assert blobs_after_first == blobs_after_second
        assert first.spec == second.spec

    def test_views_match_in_ram_views(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "store")
        frame = TimeSeriesFrame.from_columns(_table(500), dictionary=True)
        spilled = spill_frame(frame, backend, chunk_rows=64)
        window = spilled.slice_rows(100, 300).select(["season", "dow"])
        twin = frame.slice_rows(100, 300).select(["season", "dow"])
        assert window.fingerprint() == twin.fingerprint()
        np.testing.assert_array_equal(window.to_array(), twin.to_array())
        # Chunk-boundary-straddling slice whose digest must equal the
        # digest of the contiguous in-RAM bytes.
        assert spilled.slice_rows(60, 70).fingerprint() == frame.slice_rows(
            60, 70
        ).fingerprint()

    def test_pickle_round_trip_drops_caches(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "store")
        frame = TimeSeriesFrame.from_columns(_table(500))
        spilled = spill_frame(frame, backend, chunk_rows=64).slice_rows(10, 400)
        spilled.gather(0, 50)  # warm the cache that must not travel
        clone = pickle.loads(pickle.dumps(spilled))
        assert clone.fingerprint() == spilled.fingerprint()
        np.testing.assert_array_equal(clone.to_array(), spilled.to_array())

    def test_empty_slice(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "store")
        frame = TimeSeriesFrame.from_columns(_table(128))
        spilled = spill_frame(frame, backend, chunk_rows=64)
        empty = spilled.slice_rows(128, 128)
        assert len(empty) == 0
        assert empty.gather(0, 0).shape == (0, 4)
        assert empty.fingerprint() == frame.slice_rows(128, 128).fingerprint()

    def test_refuses_unknown_schema(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "store")
        frame = TimeSeriesFrame.from_columns(_table(64))
        spilled = spill_frame(frame, backend, chunk_rows=32)
        bad = dict(spilled.spec, schema=99)
        with pytest.raises(Exception):
            SpilledFrame(bad, backend)


class TestChunkReadFaults:
    def test_corrupt_chunk_heals_on_retry(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "store")
        frame = TimeSeriesFrame.from_columns(_table(500))
        spilled = spill_frame(frame, backend, chunk_rows=64)
        faults.install_plan(
            FaultPlan.of(
                FaultRule(site="frame.chunk_read", action="corrupt", count=2),
                name="garbled-page",
            )
        )
        np.testing.assert_array_equal(spilled.to_array(), frame.to_array())

    def test_torn_read_heals_on_retry(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "store")
        frame = TimeSeriesFrame.from_columns(_table(500))
        spilled = spill_frame(frame, backend, chunk_rows=64)
        faults.install_plan(
            FaultPlan.of(
                FaultRule(site="frame.chunk_read", action="error", count=2),
                name="torn-read",
            )
        )
        np.testing.assert_array_equal(spilled.to_array(), frame.to_array())

    def test_persistent_corruption_raises_loudly(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "store")
        frame = TimeSeriesFrame.from_columns(_table(500))
        spilled = spill_frame(frame, backend, chunk_rows=64)
        faults.install_plan(
            FaultPlan.of(
                FaultRule(site="frame.chunk_read", action="corrupt", count=None),
                name="bad-disk",
            )
        )
        with pytest.raises(FrameIntegrityError):
            spilled.to_array()

    def test_chaos_plan_converges_on_fault_free_manifest(self, tmp_path):
        """A benchmark over spilled frames under chunk faults heals completely."""
        import json

        backend = LocalFSBackend(tmp_path / "store")
        table = _table(120)
        frame = TimeSeriesFrame.from_columns(table)
        datasets = {"spilled": spill_frame(frame, backend, chunk_rows=16)}
        toolkits = {
            "zero": lambda horizon: ZeroModelForecaster(horizon=horizon),
            "drift": lambda horizon: DriftForecaster(horizon=horizon),
        }

        def run(path):
            BenchmarkRunner(horizon=4, manifest_path=str(path), verbose=False).run(
                datasets, toolkits
            )
            record = json.loads(path.read_text(encoding="utf-8"))
            for cell in record["cells"]:
                cell["train_seconds"] = 0.0
            return record

        reference = run(tmp_path / "reference.json")
        faults.install_plan(
            FaultPlan.of(
                FaultRule(site="frame.chunk_read", action="corrupt", count=2),
                FaultRule(site="frame.chunk_read", action="error", after=5, count=2),
                name="chunk-chaos",
            )
        )
        assert run(tmp_path / "chaos.json") == reference


class TestFrameRefDataPlane:
    def test_register_resolve_round_trip(self):
        frame = TimeSeriesFrame.from_columns(_table(300), dictionary=True)
        with DataPlane() as plane:
            ref = plane.register_frame(frame)
            assert isinstance(ref, FrameRef)
            resolved = resolve_payload(ref)
            np.testing.assert_array_equal(resolved.to_array(), frame.to_array())
            assert resolved.fingerprint() == frame.fingerprint()

    def test_resolved_columns_are_views_not_copies(self):
        """Satellite: dataplane-resolved selection shares the pinned bases."""
        frame = TimeSeriesFrame.from_columns(_table(300), dictionary=True)
        with DataPlane() as plane:
            ref = plane.register_frame(frame).select(["trend", "dow"])
            resolved = resolve_payload(ref)
            for name in ("trend", "dow"):
                assert np.shares_memory(
                    resolved._by_name[name].values, frame._by_name[name].values
                ), f"column {name!r} was copied on resolve"

    def test_row_window_and_selection_compose(self):
        frame = TimeSeriesFrame.from_columns(_table(300))
        with DataPlane() as plane:
            ref = plane.register_frame(frame)
            window = ref[40:200].select(["season"])
            assert len(window) == 160
            resolved = resolve_payload(window)
            np.testing.assert_array_equal(
                resolved.to_array(),
                frame.slice_rows(40, 200).select(["season"]).to_array(),
            )

    def test_fingerprint_matches_across_representations(self, tmp_path):
        """The cache-key invariant: same bytes, same key, any residence."""
        backend = LocalFSBackend(tmp_path / "store")
        frame = TimeSeriesFrame.from_columns(_table(300), dictionary=True)
        spilled = spill_frame(frame, backend, chunk_rows=64)
        with DataPlane() as plane:
            ref = plane.register_frame(frame)
            prints = {
                _slice_fingerprint(frame),
                _slice_fingerprint(spilled),
                _slice_fingerprint(ref),
                _slice_fingerprint(ref, plane),
            }
            assert len(prints) == 1
            windows = {
                _slice_fingerprint(frame.slice_rows(25, 250)),
                _slice_fingerprint(spilled.slice_rows(25, 250)),
                _slice_fingerprint(ref[25:250]),
            }
            assert len(windows) == 1
            assert windows != prints

    def test_full_window_fingerprint_hashes_nothing(self):
        frame = TimeSeriesFrame.from_columns(_table(4096))
        with DataPlane() as plane:
            ref = plane.register_frame(frame)
            clear_digest_memo()
            plane.fingerprint(ref)
            assert digest_memo_stats()["misses"] == 0

    def test_shared_memory_plane_pins_per_column(self):
        frame = TimeSeriesFrame.from_columns(_table(4096))
        with SharedMemoryPlane() as plane:
            ref = plane.register_frame(frame)
            assert isinstance(ref, FrameRef)
            resolved = resolve_payload(ref.select(["trend"]))
            np.testing.assert_array_equal(
                resolved.to_array().ravel(), frame.column("trend")
            )

    def test_spilled_frames_pass_through(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "store")
        spilled = spill_frame(
            TimeSeriesFrame.from_columns(_table(300)), backend, chunk_rows=64
        )
        with DataPlane() as plane:
            assert plane.register_frame(spilled) is spilled
            assert resolve_payload(spilled) is spilled


class TestStreamingRidge:
    def test_matches_one_shot_ridge(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 7))
        y = X @ rng.normal(size=7) + rng.normal(scale=0.1, size=400)
        one_shot = RidgeRegression(alpha=0.5).fit(X, y)
        streamed = StreamingRidge(alpha=0.5)
        for start in range(0, len(X), 64):
            streamed.partial_fit(X[start : start + 64], y[start : start + 64])
        np.testing.assert_allclose(
            streamed.predict(X[:10]), one_shot.predict(X[:10]), atol=1e-8
        )

    def test_block_order_does_not_matter_for_sums(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        a = StreamingRidge().fit(X, y)
        b = StreamingRidge()
        b.partial_fit(X[:50], y[:50])
        b.partial_fit(X[50:], y[50:])
        np.testing.assert_allclose(a.predict(X[:5]), b.predict(X[:5]), atol=1e-10)

    def test_multi_output_targets(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(150, 4))
        Y = rng.normal(size=(150, 2))
        model = StreamingRidge().fit(X, Y)
        assert model.predict(X[:7]).shape == (7, 2)


class TestWindowRegressorOnFrames:
    def test_frame_input_matches_array_input(self, tmp_path):
        table = _table(160)
        X = np.column_stack([table[name] for name in table])
        frame = TimeSeriesFrame.from_columns(table)
        array_fit = WindowRegressor(
            regressor=RidgeRegression(alpha=1.0), lookback=6, horizon=4
        ).fit(X)
        frame_fit = WindowRegressor(
            regressor=RidgeRegression(alpha=1.0), lookback=6, horizon=4
        ).fit(frame)
        np.testing.assert_allclose(frame_fit.predict(4), array_fit.predict(4))

    def test_spilled_frame_streams_through_partial_fit(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "store")
        table = _table(160)
        X = np.column_stack([table[name] for name in table])
        spilled = spill_frame(
            TimeSeriesFrame.from_columns(table), backend, chunk_rows=16
        )
        streamed = WindowRegressor(
            regressor=StreamingRidge(alpha=1.0), lookback=6, horizon=1
        ).fit(spilled)
        in_memory = WindowRegressor(
            regressor=StreamingRidge(alpha=1.0), lookback=6, horizon=1
        ).fit(X)
        np.testing.assert_allclose(streamed.predict(4), in_memory.predict(4))
