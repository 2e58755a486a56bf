"""Tests for the pluggable store backends and the bundled object store.

Covers the refactor's seams: backend parity (the local-filesystem and
object-store backends must be observationally identical to every
consumer), manifest merge-on-flush over conditional PUT, cross-backend
manifest byte-identity for work-stealing runs, evaluation-cache reuse
through a store URL, and blob spill shared between worker hosts.
"""

import http.client
import json
import pickle
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.benchmarking import BenchmarkRunner, RunManifest, SharedManifest
from repro.benchmarking.results import ToolkitRun
from repro.core import TDaub
from repro.exec import EvaluationCache, FitScoreResult
from repro.forecasters.naive import DriftForecaster, ZeroModelForecaster
from repro.store import (
    LocalFSBackend,
    ObjectStoreBackend,
    StoreBackend,
    StoreError,
    key_digest,
    open_store,
)
from repro.store.digest import array_digest
from repro.store.server import StoreServer


@pytest.fixture()
def store_server(tmp_path):
    server = StoreServer(tmp_path / "server-root")
    server.serve_in_background()
    yield server
    server.close()


@pytest.fixture(params=["localfs", "objectstore"])
def backend(request, tmp_path, store_server) -> StoreBackend:
    if request.param == "localfs":
        return LocalFSBackend(tmp_path / "local-root")
    return ObjectStoreBackend(store_server.url)


def _corrupt_record(backend: StoreBackend, digest: str, garbage: bytes) -> None:
    """Replace one stored record with garbage bytes, backend-appropriately."""
    if isinstance(backend, LocalFSBackend):
        backend.record_path(digest).write_bytes(garbage)
    else:
        backend._request("PUT", f"/records/{digest}", garbage)


def _record_exists(backend: StoreBackend, digest: str) -> bool:
    if isinstance(backend, LocalFSBackend):
        return backend.record_path(digest).exists()
    status, _, _ = backend._request("GET", f"/records/{digest}")
    return status == 200


class TestBackendParity:
    """Both backends must behave identically at every seam."""

    def test_record_round_trip_and_miss(self, backend):
        result = FitScoreResult(tag=3, score=-1.5, seconds=0.4, n_train=80, error="")
        digest = key_digest(("pipeline", "slice", 3))
        assert backend.get(digest) is None
        assert backend.put(digest, result)
        assert backend.get(digest) == result

    def test_unrepresentable_value_refused(self, backend):
        assert not backend.put("a" * 40, object())
        assert backend.get("a" * 40) is None

    def test_corrupt_record_evicted_on_read(self, backend):
        digest = "b" * 40
        # Truncated JSON, then bytes that are not UTF-8 at all.
        for garbage in (b"{ truncated garbage", b"\xff\xfe"):
            assert backend.put(digest, FitScoreResult(0, 1.0, 0.1, 10))
            _corrupt_record(backend, digest, garbage)
            assert backend.get(digest) is None
            assert not _record_exists(backend, digest)
            # The slot is usable again after recovery.
            assert backend.put(digest, FitScoreResult(0, 2.0, 0.1, 10))
            assert backend.get(digest).score == 2.0

    def test_stale_schema_evicted_on_read(self, backend, tmp_path, store_server):
        digest = "c" * 40
        assert backend.put(digest, FitScoreResult(0, 1.0, 0.1, 10))
        if isinstance(backend, LocalFSBackend):
            newer = LocalFSBackend(backend.root, schema_version=backend.schema_version + 1)
        else:
            newer = ObjectStoreBackend(
                store_server.url, schema_version=backend.schema_version + 1
            )
        assert newer.get(digest) is None
        assert not _record_exists(backend, digest)  # evicted, not misread again

    def test_evict_is_idempotent(self, backend):
        backend.evict("d" * 40)  # absent: not an error
        backend.put("d" * 40, FitScoreResult(0, 1.0, 0.1, 10))
        backend.evict("d" * 40)
        assert backend.get("d" * 40) is None

    def test_blob_round_trip(self, backend):
        array = np.arange(300.0).reshape(-1, 3)
        digest = array_digest(array)
        assert not backend.has_blob(digest)
        assert backend.get_blob(digest) is None
        assert backend.put_blob(digest, array)
        assert backend.has_blob(digest)
        loaded = backend.get_blob(digest)
        assert loaded.dtype == array.dtype and np.array_equal(loaded, array)

    def test_corrupt_blob_evicted_on_read(self, backend):
        array = np.arange(64.0)
        digest = array_digest(array)
        assert backend.put_blob(digest, array)
        if isinstance(backend, LocalFSBackend):
            backend.blob_path(digest).write_bytes(b"not an npy payload")
        else:
            backend._request("PUT", f"/blobs/{digest}", b"not an npy payload")
        assert backend.get_blob(digest) is None
        assert not backend.has_blob(digest)

    def test_doc_read_write_update(self, backend, tmp_path):
        name = str(tmp_path / "docs" / "runs" / "m.json")
        assert backend.read_doc(name) is None
        backend.write_doc(name, "first")
        assert backend.read_doc(name) == "first"
        final = backend.update_doc(name, lambda text: text + "+merge")
        assert final == "first+merge"
        assert backend.read_doc(name) == "first+merge"

    def test_update_doc_creates_when_absent(self, backend, tmp_path):
        name = str(tmp_path / "docs" / "fresh.json")
        assert backend.update_doc(name, lambda text: "born" if text is None else text) == "born"

    def test_update_doc_abort_leaves_doc_untouched(self, backend, tmp_path):
        name = str(tmp_path / "docs" / "abort.json")
        backend.write_doc(name, "keep")

        class _Abort(Exception):
            pass

        def fn(text):
            raise _Abort

        with pytest.raises(_Abort):
            backend.update_doc(name, fn)
        assert backend.read_doc(name) == "keep"

    def test_backend_survives_pickling(self, backend):
        clone = pickle.loads(pickle.dumps(backend))
        digest = "e" * 40
        assert clone.put(digest, FitScoreResult(0, 3.0, 0.1, 10))
        assert backend.get(digest).score == 3.0


class TestObjectStoreBackend:
    def test_concurrent_writers_share_one_store(self, store_server):
        """Two writer threads hammering one store: no torn or lost records."""

        def writer(offset: int) -> None:
            own = ObjectStoreBackend(store_server.url)
            for index in range(10):
                own.put(
                    key_digest(("distinct", offset + index)),
                    FitScoreResult(tag=offset + index, score=0.0, seconds=0.0,
                                   n_train=offset + index),
                )
            for index in range(5):  # contended: last writer wins, atomically
                own.put(
                    key_digest(("contended", index)),
                    FitScoreResult(tag=index, score=float(index), seconds=0.0, n_train=1),
                )

        threads = [threading.Thread(target=writer, args=(offset,)) for offset in (0, 10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reader = ObjectStoreBackend(store_server.url)
        for index in range(20):
            loaded = reader.get(key_digest(("distinct", index)))
            assert loaded is not None and loaded.n_train == index
        for index in range(5):
            loaded = reader.get(key_digest(("contended", index)))
            assert loaded is not None and loaded.score == float(index)

    def test_update_doc_cas_loses_no_increment(self, store_server):
        """Contended compare-and-swap: every update lands exactly once."""

        def bump() -> None:
            own = ObjectStoreBackend(store_server.url)
            for _ in range(15):
                own.update_doc("counter", lambda text: str(int(text or 0) + 1))

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert ObjectStoreBackend(store_server.url).read_doc("counter") == "60"

    def test_conditional_put_enforced_by_server(self, store_server):
        """The raw protocol: a stale ETag must be refused with 412."""
        backend = ObjectStoreBackend(store_server.url)
        backend.write_doc("cas-doc", "v1")
        _, etag = backend._read_doc_versioned("cas-doc")
        backend.write_doc("cas-doc", "v2")  # ETag for "v1" is now stale
        status, _, _ = backend._request(
            "PUT", "/docs/cas-doc", b"v3", {"If-Match": f'"{etag}"'}
        )
        assert status == 412
        assert backend.read_doc("cas-doc") == "v2"
        status, _, _ = backend._request(
            "PUT", "/docs/cas-doc", b"v3", {"If-None-Match": "*"}
        )
        assert status == 412  # exists: creation-only PUT refused

    def test_unreachable_store_degrades_to_misses(self):
        dead = ObjectStoreBackend("http://127.0.0.1:9", retries=0, timeout=0.2)
        assert dead.get("f" * 40) is None
        assert not dead.put("f" * 40, FitScoreResult(0, 1.0, 0.1, 10))
        assert not dead.has_blob("f" * 40)
        assert dead.get_blob("f" * 40) is None
        assert not dead.healthy()
        with pytest.raises(StoreError):
            dead.write_doc("doc", "text")

    def test_closed_server_answers_no_open_connection(self, store_server):
        """close() severs the keep-alive connections its handler threads serve.

        Four clients, each on its own open connection, keep requesting while
        the server closes: a request sent after close() returned gets no
        response on any of them.
        """
        connections = [
            http.client.HTTPConnection(*store_server.address, timeout=5) for _ in range(4)
        ]
        for connection in connections:
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()
        closed, answered_after_close = threading.Event(), []

        def keep_requesting(connection):
            try:
                while True:
                    sent_after_close = closed.is_set()
                    connection.request("GET", "/healthz")
                    connection.getresponse().read()
                    if sent_after_close:
                        answered_after_close.append(connection)
                        return
            except (OSError, http.client.HTTPException):  # severed mid-exchange
                return

        threads = [threading.Thread(target=keep_requesting, args=(c,)) for c in connections]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.1)
            store_server.close()
            closed.set()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
            for connection in connections:
                connection.close()
        assert not any(thread.is_alive() for thread in threads)
        assert answered_after_close == []

    def test_invalid_url_rejected(self):
        with pytest.raises(ValueError):
            ObjectStoreBackend("ftp://example.com/store")

    def test_open_store_dispatches_on_scheme(self, tmp_path, store_server):
        assert isinstance(open_store(str(tmp_path)), LocalFSBackend)
        assert isinstance(open_store(store_server.url), ObjectStoreBackend)
        assert open_store(None) is None
        ready = LocalFSBackend(tmp_path)
        assert open_store(ready) is ready

    def test_doc_names_with_slashes_are_distinct(self, store_server):
        backend = ObjectStoreBackend(store_server.url)
        backend.write_doc("runs/a.json", "alpha")
        backend.write_doc("runs_a.json", "beta")
        assert backend.read_doc("runs/a.json") == "alpha"
        assert backend.read_doc("runs_a.json") == "beta"

    def test_oversized_put_refused_without_poisoning_the_connection(self, store_server):
        """A 413 sent before the body is read must close the connection —
        leaving it open would parse the unread body as the next request."""
        import socket as socket_module

        host, port = store_server.address
        with socket_module.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                b"PUT /blobs/" + b"a" * 32 + b" HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: 99999999999\r\n\r\n"
            )
            sock.settimeout(5)
            reply = b""
            while True:  # drain to EOF: the server must actually close
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
            assert b"413" in reply.split(b"\r\n", 1)[0]
            assert b"connection: close" in reply.lower()

    def test_pooled_connection_survives_rejected_put(self, store_server):
        """After an error reply that closes the server side, the client's
        pooled connection must transparently reconnect."""
        backend = ObjectStoreBackend(store_server.url)
        status, _, _ = backend._request("PUT", "/records/NOT-A-DIGEST!", b"body")
        assert status == 400
        assert backend.healthy()  # next request on the pool still works

    def test_head_reports_size_without_etag(self, store_server):
        backend = ObjectStoreBackend(store_server.url)
        array = np.arange(512.0)
        digest = array_digest(array)
        assert backend.put_blob(digest, array)
        status, headers, payload = backend._request("HEAD", f"/blobs/{digest}")
        assert status == 200 and payload == b""
        lowered = {key.lower(): value for key, value in headers.items()}
        assert int(lowered["content-length"]) > array.nbytes  # npy header + data
        assert "etag" not in lowered  # existence probes never hash the blob

    def test_server_refuses_traversal_and_junk(self, store_server):
        backend = ObjectStoreBackend(store_server.url)
        status, _, _ = backend._request("GET", "/records/../../etc/passwd")
        assert status in (400, 404)
        status, _, _ = backend._request("GET", "/nonsense/route")
        assert status == 404
        status, _, _ = backend._request("PUT", "/healthz", b"nope")
        assert status == 405


class TestObjectStoreManifests:
    """Shared-manifest merge-on-flush running on conditional PUT, not flock."""

    def _manifest(self, store_server) -> SharedManifest:
        return SharedManifest(
            "runs/m.json", "fp", backend=ObjectStoreBackend(store_server.url)
        )

    def test_flush_merges_instead_of_clobbering(self, store_server):
        alpha = self._manifest(store_server)
        beta = self._manifest(store_server)
        alpha.record(ToolkitRun("t1", "d1", smape=1.0, train_seconds=0.1))
        beta.record(ToolkitRun("t2", "d1", smape=2.0, train_seconds=0.2))
        alpha.flush()
        beta.flush()  # must not lose alpha's cell
        record = json.loads(beta.backend.read_doc(beta.doc_name))
        assert len(record["cells"]) == 2

    def test_manifest_doc_matches_local_file_byte_for_byte(
        self, store_server, tmp_path
    ):
        """Same cells, same bytes — wherever the manifest document lives."""
        run = ToolkitRun("t1", "d1", smape=1.5, train_seconds=0.25)
        local = RunManifest(tmp_path / "local.json", "fp", spec={"horizon": 6})
        local.record(run)
        local.flush()
        remote = SharedManifest(
            "remote.json",
            "fp",
            spec={"horizon": 6},
            backend=ObjectStoreBackend(store_server.url),
        )
        remote.record(run)
        remote.flush()
        assert (
            remote.backend.read_doc("remote.json")
            == (tmp_path / "local.json").read_text(encoding="utf-8")
        )


def _toy_toolkits():
    return {
        "Zero": lambda horizon: ZeroModelForecaster(horizon=horizon),
        "Drift": lambda horizon: DriftForecaster(horizon=horizon),
    }


def _toy_datasets():
    t = np.arange(120.0)
    return {
        "trend": 10.0 + 0.5 * t,
        "flat": np.full(120, 30.0) + np.sin(t / 9.0),
    }


def _normalized(text: str) -> dict:
    record = json.loads(text)
    for cell in record["cells"]:
        cell["train_seconds"] = 0.0
    return record


class TestShardedObjectStoreExecution:
    """Acceptance: a multi-worker run sharing only an object store converges
    on the single-process local-filesystem artifacts, byte for byte."""

    def test_two_workers_share_one_object_store(self, store_server, tmp_path):
        local_manifest = tmp_path / "local.json"
        BenchmarkRunner(horizon=6, manifest_path=str(local_manifest)).run(
            _toy_datasets(), _toy_toolkits()
        )

        backend = ObjectStoreBackend(store_server.url)
        errors: list = []

        def worker(index: int) -> None:
            try:
                runner = BenchmarkRunner(
                    horizon=6,
                    manifest_path="shared.json",
                    store=ObjectStoreBackend(store_server.url),
                    worker_id=f"w{index}",
                    steal=True,
                )
                runner.run(_toy_datasets(), _toy_toolkits())
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(index,)) for index in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        # The merged manifest document equals the local-fs manifest file
        # byte for byte once wall-clock timings are normalized.
        remote_text = backend.read_doc("shared.json")
        assert remote_text is not None
        assert _normalized(remote_text) == _normalized(
            local_manifest.read_text(encoding="utf-8")
        )
        # No manifest or queue file leaked onto the local filesystem.
        for leaked in ("shared.json", "shared.json.queue.json"):
            assert not (tmp_path / leaked).exists() and not Path(leaked).exists()

        # A plain merge invocation resumes entirely from the store.
        merged = BenchmarkRunner(
            horizon=6, manifest_path="shared.json", store=backend
        ).run(_toy_datasets(), _toy_toolkits())
        assert merged.from_cache_count() == len(merged.runs) == 4

    def test_cli_store_url_round_trip(self, store_server, tmp_path, capsys):
        from repro.benchmarking.__main__ import main

        summary_path = tmp_path / "summary.json"
        assert (
            main(
                [
                    "--suite", "tiny",
                    "--manifest", "cli.json",
                    "--store-url", store_server.url,
                    "--json", str(summary_path),
                    "--quiet",
                ]
            )
            == 0
        )
        first = json.loads(summary_path.read_text())
        assert first["cells"] > 0 and first["from_manifest"] == 0
        assert first["store_url"] == store_server.url
        assert (
            main(
                [
                    "--suite", "tiny",
                    "--manifest", "cli.json",
                    "--store-url", store_server.url,
                    "--resume-strict",
                    "--json", str(summary_path),
                    "--quiet",
                ]
            )
            == 0
        )
        warm = json.loads(summary_path.read_text())
        assert warm["from_manifest"] == warm["cells"] == first["cells"]
        capsys.readouterr()

    def test_cli_rejects_store_url_with_cache_dir(self, tmp_path, capsys):
        from repro.benchmarking.__main__ import main

        code = main(
            [
                "--suite", "tiny",
                "--store-url", "http://127.0.0.1:9",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 2
        assert "--store-url and --cache-dir" in capsys.readouterr().err

    def test_cli_fails_fast_when_store_is_down(self, capsys):
        from repro.benchmarking.__main__ import main

        code = main(["--suite", "tiny", "--store-url", "http://127.0.0.1:9"])
        assert code == 2
        assert "no object store answering" in capsys.readouterr().err


class TestEvaluationCacheOnBackends:
    def _key(self, cache, n=20):
        template = DriftForecaster(horizon=6)
        train = np.arange(n, dtype=float).reshape(-1, 1)
        test = np.arange(6, dtype=float).reshape(-1, 1)
        return cache.make_key(template, train, test, 6)

    def test_object_store_tier_survives_the_instance(self, store_server):
        first = EvaluationCache(store=ObjectStoreBackend(store_server.url))
        result = FitScoreResult(tag=0, score=-2.0, seconds=0.3, n_train=20)
        first.put(self._key(first), result)
        second = EvaluationCache(store=store_server.url)  # URL string form
        assert second.get(self._key(second)) == result
        assert second.stats.disk_hits == 1

    def test_tdaub_warm_rerun_served_from_object_store(self, store_server):
        t = np.arange(240.0)
        series = 30.0 + 0.4 * t + 6.0 * np.sin(2 * np.pi * t / 12.0)

        def selector():
            return TDaub(
                pipelines=[ZeroModelForecaster(horizon=8), DriftForecaster(horizon=8)],
                horizon=8,
                min_allocation_size=40,
                store=store_server.url,
            )

        cold = selector().fit(series)
        warm = selector().fit(series)
        assert warm.ranked_names_ == cold.ranked_names_
        assert warm.cache_stats_.misses == 0
        assert warm.cache_stats_.disk_hits > 0

    def test_existing_diskstore_directory_reused_without_migration(self, tmp_path):
        """A directory given as a path string and as a backend is one store.

        Stores written before the local layers merged are pinned by
        ``tests/data/store_v1`` (see ``test_store.TestStoreV1Fixture``).
        """
        legacy = EvaluationCache(store=str(tmp_path))
        result = FitScoreResult(tag=0, score=-1.0, seconds=0.2, n_train=20)
        legacy.put(self._key(legacy), result)
        modern = EvaluationCache(store=LocalFSBackend(tmp_path))
        assert modern.get(self._key(modern)) == result
        assert modern.stats.disk_hits == 1


def _serve_blob_worker(conn, store_url) -> None:
    from repro.exec import WorkerServer

    server = WorkerServer(blob_store=store_url)
    conn.send(server.address)
    conn.close()
    server.serve_forever()


def _start_blob_worker(store_url):
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_serve_blob_worker, args=(child_conn, store_url))
    process.start()
    child_conn.close()
    address = parent_conn.recv()
    parent_conn.close()
    return process, address


class TestWorkerBlobSpillViaObjectStore:
    def test_replacement_worker_on_new_host_skips_redownload(self, store_server):
        """A fresh WorkerServer sharing only the object store must answer
        blob_has from the shared spill — no shared filesystem involved.

        The two server *processes* model two worker hosts: they share the
        object store, nothing else.
        """
        from repro.exec import RemoteExecutor
        from repro.exec.tasks import FitScoreTask, run_fit_score_task

        t = np.arange(2000.0)
        base = (10.0 + 0.1 * t + np.sin(t / 7.0)).reshape(-1, 1)

        def run_once() -> int:
            process, address = _start_blob_worker(store_server.url)
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
                sent = executor.wire_stats.blob_bytes_sent
                plane.close()
                return sent
            finally:
                process.terminate()
                process.join()

        first_sent = run_once()   # cold: the blob crosses the wire once
        second_sent = run_once()  # "new host": fresh server, same store
        assert first_sent > base.nbytes
        assert second_sent == 0
