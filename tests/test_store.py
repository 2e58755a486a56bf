"""Tests for the persistent evaluation store and the two-tier cache."""

import errno
import hashlib
import json
import multiprocessing
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core import TDaub
from repro.exec import DataPlane, EvaluationCache, FitScoreResult, ToolkitRunResult
from repro.exec.cache import _value_fingerprint, array_fingerprint
from repro.forecasters.naive import DriftForecaster, ZeroModelForecaster
from repro.store import LocalFSBackend, key_digest
from repro.store.digest import array_digest


class TestDiskStore:
    """Records in the local on-disk store (``LocalFSBackend``)."""

    def test_round_trip_fit_score_result(self, tmp_path):
        store = LocalFSBackend(tmp_path)
        result = FitScoreResult(tag=4, score=-1.25, seconds=0.5, n_train=120, error="")
        digest = key_digest(("some", "key", 1))
        assert store.put(digest, result)
        assert store.get(digest) == result
        assert len(store) == 1

    def test_round_trip_non_finite_score(self, tmp_path):
        store = LocalFSBackend(tmp_path)
        result = FitScoreResult(
            tag=0, score=-float("inf"), seconds=0.1, n_train=10, error="ValueError('x')"
        )
        store.put("a" * 40, result)
        loaded = store.get("a" * 40)
        assert loaded.score == -float("inf") and loaded.failed

    def test_round_trip_toolkit_result_restores_tuple_tag(self, tmp_path):
        store = LocalFSBackend(tmp_path)
        result = ToolkitRunResult(tag=("dataset", "toolkit"), smape=3.5, seconds=1.0)
        store.put("b" * 40, result)
        assert store.get("b" * 40) == result

    def test_missing_entry_is_none(self, tmp_path):
        assert LocalFSBackend(tmp_path).get("c" * 40) is None

    def test_unrepresentable_value_not_persisted(self, tmp_path):
        store = LocalFSBackend(tmp_path)
        assert not store.put("d" * 40, object())
        assert len(store) == 0

    def test_schema_version_mismatch_evicts(self, tmp_path):
        old = LocalFSBackend(tmp_path, schema_version=1)
        digest = "e" * 40
        old.put(digest, FitScoreResult(tag=0, score=1.0, seconds=0.1, n_train=10))
        path = old.record_path(digest)
        assert path.exists()

        new = LocalFSBackend(tmp_path, schema_version=2)
        assert new.get(digest) is None
        assert not path.exists()  # evicted, not left to be misread again

    def test_corrupt_entry_recovered(self, tmp_path):
        store = LocalFSBackend(tmp_path)
        digest = "f" * 40
        store.put(digest, FitScoreResult(tag=0, score=1.0, seconds=0.1, n_train=10))
        path = store.record_path(digest)
        path.write_text("{ truncated garbage", encoding="utf-8")

        assert store.get(digest) is None
        assert not path.exists()
        # The slot is usable again after recovery.
        store.put(digest, FitScoreResult(tag=0, score=2.0, seconds=0.1, n_train=10))
        assert store.get(digest).score == 2.0

    def test_wrong_json_shape_is_corrupt(self, tmp_path):
        store = LocalFSBackend(tmp_path)
        path = store.record_path("9" * 40)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        assert store.get("9" * 40) is None
        assert not path.exists()

    def test_concurrent_writers_share_one_dir(self, tmp_path):
        """Two processes hammering one store directory: no torn or lost records."""
        ctx = multiprocessing.get_context()
        workers = [
            ctx.Process(target=_writer_process, args=(str(tmp_path), offset))
            for offset in (0, 10)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert worker.exitcode == 0
        store = LocalFSBackend(tmp_path)
        # 20 distinct keys plus 5 contended ones both workers wrote.
        for index in range(20):
            loaded = store.get(key_digest(("distinct", index)))
            assert loaded is not None and loaded.n_train == index
        for index in range(5):
            loaded = store.get(key_digest(("contended", index)))
            assert loaded is not None and loaded.score == float(index)


#: A store directory written by ``DiskStore``, the local record store that
#: ``LocalFSBackend`` absorbed; the keys and values below are exactly what
#: it persisted there.
STORE_V1 = Path(__file__).resolve().parent / "data" / "store_v1"
STORE_V1_RECORDS = {
    ("store_v1", "fit_score_result", "finite"): FitScoreResult(
        tag=2, score=-8.123456789012345, seconds=0.125, n_train=48
    ),
    ("store_v1", "fit_score_result", "failed"): FitScoreResult(
        tag=5,
        score=float("-inf"),
        seconds=0.015625,
        n_train=24,
        error="ValueError('score is not finite: inf')",
    ),
    ("store_v1", "toolkit_run_result", 12): ToolkitRunResult(
        tag=("AirPassengers", "AutoAI-TS"), smape=7.3, seconds=1.5
    ),
    ("store_v1", "json", None): {
        "ranking": ["Arima", "bats"],
        "n": 3,
        "ok": True,
        "x": None,
        "f": 0.1,
    },
}
STORE_V1_BLOBS = [
    np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0,
    np.arange(250, 256, dtype=np.uint8),
]


class TestStoreV1Fixture:
    """Stores written before the local store layers merged still hit."""

    @pytest.fixture()
    def v1_copy(self, tmp_path):
        # Reads evict what they cannot decode: never read the fixture in place.
        return Path(shutil.copytree(STORE_V1, tmp_path / "store_v1"))

    def test_records_and_blobs_read_back_through_the_backend(self, v1_copy):
        store = LocalFSBackend(v1_copy)
        assert len(store) == len(STORE_V1_RECORDS)
        for key, value in STORE_V1_RECORDS.items():
            assert store.get(key_digest(key)) == value
        for array in STORE_V1_BLOBS:
            loaded = store.get_blob(array_digest(array))
            assert loaded.dtype == array.dtype and loaded.shape == array.shape
            assert np.array_equal(loaded, array)

    def test_records_hit_through_the_evaluation_cache(self, v1_copy):
        cache = EvaluationCache(store=str(v1_copy))
        for key, value in STORE_V1_RECORDS.items():
            assert cache.get(key) == value
        assert cache.stats.disk_hits == len(STORE_V1_RECORDS)
        assert cache.stats.misses == 0

    def test_rewriting_the_values_gives_identical_files(self, tmp_path):
        store = LocalFSBackend(tmp_path / "fresh")
        for key, value in STORE_V1_RECORDS.items():
            digest = key_digest(key)
            assert store.put(digest, value)
            written = store.record_path(digest)
            assert written.relative_to(store.root) == Path(digest[:2], f"{digest}.json")
            assert written.read_bytes() == (STORE_V1 / digest[:2] / f"{digest}.json").read_bytes()
        for array in STORE_V1_BLOBS:
            digest = array_digest(array)
            assert store.put_blob(digest, array)
            # numpy owns the ``.npy`` header bytes: compare the array, not the file.
            original = np.load(STORE_V1 / "blobs" / digest[:2] / f"{digest}.npy")
            rewritten = np.load(store.blob_path(digest))
            assert rewritten.dtype == original.dtype and rewritten.shape == original.shape
            assert np.array_equal(rewritten, original)


class TestAtomicWriteStaging:
    """Satellite regression: every atomic write must stage its temp file in
    the destination directory, never the system tmpdir, or the final
    ``os.replace`` breaks with EXDEV whenever ``$TMPDIR`` is a different
    mount (tmpfs, container scratch volumes)."""

    @pytest.fixture()
    def exdev_guard(self, monkeypatch):
        """Make ``os.replace`` behave like a filesystem-per-directory world:
        any cross-directory rename fails with EXDEV."""
        real_replace = os.replace

        def strict_replace(src, dst, **kwargs):
            if os.path.dirname(os.path.abspath(src)) != os.path.dirname(
                os.path.abspath(dst)
            ):
                raise OSError(errno.EXDEV, "Invalid cross-device link", src)
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", strict_replace)

    def test_record_put_survives_exdev_world(self, tmp_path, exdev_guard):
        store = LocalFSBackend(tmp_path)
        digest = key_digest(("exdev", "record"))
        assert store.put(digest, FitScoreResult(tag=0, score=1.0, seconds=0.1, n_train=10))
        assert store.get(digest).score == 1.0

    def test_blob_put_survives_exdev_world(self, tmp_path, exdev_guard):
        store = LocalFSBackend(tmp_path)
        array = np.arange(256.0)
        assert store.put_blob("ab" * 8, array)
        assert np.array_equal(store.get_blob("ab" * 8), array)

    def test_manifest_write_survives_exdev_world(self, tmp_path, exdev_guard):
        path = tmp_path / "deep" / "nested" / "manifest.json"
        LocalFSBackend().write_doc(str(path), '{"cells": []}')
        assert path.read_text(encoding="utf-8") == '{"cells": []}'

    def test_temp_files_are_staged_next_to_the_destination(self, tmp_path, monkeypatch):
        import tempfile as tempfile_module

        staged_dirs = []
        real_mkstemp = tempfile_module.mkstemp

        def spying_mkstemp(*args, **kwargs):
            staged_dirs.append(kwargs.get("dir"))
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile_module, "mkstemp", spying_mkstemp)
        store = LocalFSBackend(tmp_path)
        digest = key_digest(("spy", 1))
        store.put(digest, FitScoreResult(tag=0, score=1.0, seconds=0.1, n_train=10))
        store.put_blob("cd" * 8, np.arange(16.0))
        assert staged_dirs == [
            store.record_path(digest).parent,
            store.blob_path("cd" * 8).parent,
        ]

    def test_no_temp_litter_after_writes(self, tmp_path):
        store = LocalFSBackend(tmp_path)
        store.put(key_digest(("clean", 1)), FitScoreResult(0, 1.0, 0.1, 10))
        store.put_blob("ef" * 8, np.arange(32.0))
        # ``np.save`` refuses an object array with ValueError mid-write: the
        # refused blob must not leave its staged temp file behind.
        assert not store.put_blob("ab" * 8, np.array([object(), 1], dtype=object))
        leftovers = [p for p in tmp_path.rglob(".tmp-*")]
        assert leftovers == []


def _blake2(values: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(values).data, digest_size=16).hexdigest()


class TestDigestMemo:
    """One digest per byte content across cache keys, dataplane refs and
    blob addresses.  Nothing memoizes it: every call hashes the bytes, so
    an array edited in place never keeps the digest of its old content."""

    def test_equal_content_same_digest_across_objects(self):
        array = np.arange(4096.0)
        clone = array.copy()
        assert array is not clone
        assert array_digest(array) == array_digest(clone)

    def test_in_place_edge_mutation_invalidates_the_memo(self):
        array = np.arange(4096.0)
        before = array_digest(array)
        array[0] = -1.0
        after = array_digest(array)
        assert after != before
        array[-1] = -2.0
        assert array_digest(array) != after

    def test_in_place_interior_mutation_changes_the_digest(self):
        """Regression: the digest of an array edited in place, away from
        its first and last bytes, is a fresh hash of the edited bytes."""
        array = np.arange(4096.0)
        before = array_digest(array)
        array[500:700] += 100.0
        assert array_digest(array) == _blake2(array)
        assert array_digest(array) != before

    def test_fingerprint_and_dataplane_share_the_digest(self):
        """The same buffer must produce one address everywhere."""
        array = np.arange(5000.0)
        with DataPlane() as plane:
            assert plane.register(array).digest == array_digest(array)
        assert array_fingerprint(array)[3] == array_digest(array) == _blake2(array)


class TestTwoTierCache:
    @staticmethod
    def _key(array_key, cache, n=20):
        template = DriftForecaster(horizon=6)
        train = np.arange(n, dtype=float).reshape(-1, 1)
        test = np.arange(6, dtype=float).reshape(-1, 1)
        return array_key(cache, template, train, test, 6)

    def test_disk_tier_survives_the_instance(self, array_key, tmp_path):
        first = EvaluationCache(store=tmp_path)
        result = FitScoreResult(tag=0, score=-2.0, seconds=0.3, n_train=20)
        first.put(self._key(array_key, first), result)

        second = EvaluationCache(store=tmp_path)
        assert second.get(self._key(array_key, second)) == result
        stats = second.stats
        assert stats.hits == 1 and stats.disk_hits == 1 and stats.misses == 0

    def test_disk_hit_promoted_to_memory(self, array_key, tmp_path):
        first = EvaluationCache(store=tmp_path)
        first.put(self._key(array_key, first), FitScoreResult(0, 1.0, 0.1, 20))
        second = EvaluationCache(store=tmp_path)
        key = self._key(array_key, second)
        second.get(key)
        second.get(key)
        stats = second.stats
        assert stats.hits == 2 and stats.disk_hits == 1  # second hit was in-memory

    def test_memory_eviction_keeps_persisted_records(self, array_key, tmp_path):
        cache = EvaluationCache(store=tmp_path)
        keys = [self._key(array_key, cache, n=n) for n in (10, 11)]
        cache.put(keys[0], FitScoreResult(0, 1.0, 0.1, 10))
        cache.put(keys[1], FitScoreResult(1, 2.0, 0.1, 11))
        cache.clear()  # drops the memory tier only
        assert len(cache) == 0
        hit = cache.get(keys[0])  # served by the disk tier
        assert hit is not None and hit.score == 1.0
        assert cache.stats.disk_hits == 1

    def test_memory_only_cache_unchanged(self, array_key):
        cache = EvaluationCache()
        assert cache.store is None
        key = self._key(array_key, cache)
        assert cache.get(key) is None
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert cache.stats.disk_hits == 0


class TestFingerprints:
    def test_noncontiguous_view_hits_contiguous_entry(self, array_key):
        """Satellite: equal content must hit regardless of memory layout."""
        cache = EvaluationCache()
        data = np.arange(80.0).reshape(-1, 1)
        template = DriftForecaster(horizon=4)
        test = np.arange(4.0).reshape(-1, 1)
        view = data[::2]  # stride-2 view: same values, non-contiguous
        assert not view.flags.c_contiguous
        cache.put(array_key(cache, template, view, test, 4), "entry")
        contiguous = np.ascontiguousarray(view)
        assert cache.get(array_key(cache, template, contiguous, test, 4)) == "entry"

    def test_contiguous_array_not_copied(self):
        fingerprint = array_fingerprint(np.arange(12.0).reshape(3, 4))
        assert fingerprint[0] == "array" and fingerprint[1] == (3, 4)

    def test_fortran_order_matches_c_order_content(self):
        c_order = np.arange(12.0).reshape(3, 4)
        f_order = np.asfortranarray(c_order)
        assert array_fingerprint(c_order) == array_fingerprint(f_order)

    def test_callable_fingerprint_is_process_independent(self):
        """Satellite: no id() in the fingerprint, so scorers hit across runs."""
        fingerprint = _value_fingerprint(_example_scorer)
        assert fingerprint[0] == "callable"
        assert fingerprint[1] == __name__
        assert fingerprint[2] == "_example_scorer"
        assert all(not isinstance(part, int) or part < 10_000 for part in fingerprint[3:]), (
            "fingerprint must not embed an object id"
        )
        # Identical in a subprocess: the property that makes disk reuse work.
        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        worker = ctx.Process(target=_fingerprint_in_subprocess, args=(queue,))
        worker.start()
        worker.join(timeout=30)
        assert queue.get(timeout=5) == fingerprint

    def test_distinct_functions_fingerprint_differently(self):
        assert _value_fingerprint(_example_scorer) != _value_fingerprint(_other_scorer)

    def test_bound_methods_include_instance_state(self):
        """Two differently-configured scorer objects must not collide."""
        light = _WeightedScorer(0.1)
        heavy = _WeightedScorer(0.9)
        assert _value_fingerprint(light.score) != _value_fingerprint(heavy.score)
        assert _value_fingerprint(light.score) == _value_fingerprint(
            _WeightedScorer(0.1).score
        )

    def test_callable_instance_fingerprint_is_content_based(self):
        """A __call__-style scorer must not embed its memory address."""
        first = _value_fingerprint(_CallableScorer(0.5))
        assert first == _value_fingerprint(_CallableScorer(0.5))
        assert first != _value_fingerprint(_CallableScorer(0.6))
        assert "0x" not in repr(first)

    def test_bound_method_of_plain_object_is_content_based(self):
        fingerprint = _value_fingerprint(_PlainConfig(3).score)
        assert fingerprint == _value_fingerprint(_PlainConfig(3).score)
        assert fingerprint != _value_fingerprint(_PlainConfig(4).score)
        assert "0x" not in repr(fingerprint)

    def test_builtin_bound_to_module(self):
        import math

        assert _value_fingerprint(math.sin) == _value_fingerprint(math.sin)
        assert _value_fingerprint(math.sin) != _value_fingerprint(math.cos)

    def test_partials_include_arguments(self):
        import functools

        base = functools.partial(_example_scorer, None)
        assert _value_fingerprint(base) == _value_fingerprint(
            functools.partial(_example_scorer, None)
        )
        assert _value_fingerprint(base) != _value_fingerprint(
            functools.partial(_example_scorer, None, flip=True)
        )
        assert _value_fingerprint(base) != _value_fingerprint(
            functools.partial(_other_scorer, None)
        )


class TestTDaubPersistentCache:
    def _series(self):
        t = np.arange(240.0)
        return 30.0 + 0.4 * t + 6.0 * np.sin(2 * np.pi * t / 12.0)

    def _selector(self, store_dir):
        return TDaub(
            pipelines=[ZeroModelForecaster(horizon=8), DriftForecaster(horizon=8)],
            horizon=8,
            min_allocation_size=40,
            store=str(store_dir),
        )

    def test_warm_rerun_served_from_disk_with_identical_ranking(self, tmp_path):
        cold = self._selector(tmp_path).fit(self._series())
        warm = self._selector(tmp_path).fit(self._series())

        assert warm.ranked_names_ == cold.ranked_names_
        assert {n: e.scores for n, e in warm.evaluations_.items()} == {
            n: e.scores for n, e in cold.evaluations_.items()
        }
        assert warm.cache_stats_.misses == 0
        assert warm.cache_stats_.disk_hits > 0

    def test_in_task_failures_not_persisted(self, tmp_path):
        """Environment-specific failures stay in-process, never on disk."""

        class _Broken(ZeroModelForecaster):
            def fit(self, X, y=None):
                raise ImportError("optional dependency missing on this shard")

        selector = TDaub(
            pipelines=[_Broken(horizon=8), ZeroModelForecaster(horizon=8)],
            horizon=8,
            min_allocation_size=40,
            store=str(tmp_path),
        ).fit(self._series())
        assert selector.evaluations_["_Broken"].failed
        store = LocalFSBackend(tmp_path)
        assert len(store) > 0  # the healthy pipeline's results are persisted
        for path in store.root.glob("*/*.json"):
            record = json.loads(path.read_text(encoding="utf-8"))
            assert record["payload"]["error"] == ""


class _CallableScorer:
    """Scorer exposing __call__ with the default (address-bearing) repr."""

    def __init__(self, weight: float):
        self.weight = weight

    def __call__(self, model, test):
        return -self.weight


class _PlainConfig:
    """Attribute-configured object with the default repr."""

    def __init__(self, level: int):
        self.level = level

    def score(self, model, test):
        return -float(self.level)


class _WeightedScorer:
    """Configured scorer object with a content-based repr (the documented
    requirement for bound-method scorers to be cacheable across runs)."""

    def __init__(self, weight: float):
        self.weight = weight

    def __repr__(self):
        return f"_WeightedScorer(weight={self.weight!r})"

    def score(self, model, test):
        return -self.weight


def _example_scorer(model, test):
    return 0.0


def _other_scorer(model, test):
    return 1.0


def _fingerprint_in_subprocess(queue):
    queue.put(_value_fingerprint(_example_scorer))


def _writer_process(store_dir: str, offset: int) -> None:
    store = LocalFSBackend(store_dir)
    for index in range(10):
        key = key_digest(("distinct", offset + index))
        store.put(
            key, FitScoreResult(tag=offset + index, score=0.0, seconds=0.0, n_train=offset + index)
        )
    for index in range(5):  # both workers write these: last writer wins, atomically
        store.put(
            key_digest(("contended", index)),
            FitScoreResult(tag=index, score=float(index), seconds=0.0, n_train=1),
        )
