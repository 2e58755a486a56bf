"""Perf benchmark: the object-store backend vs the shared filesystem.

The storage refactor makes "shared filesystem" one backend among several:
an ``ObjectStoreBackend`` speaking HTTP to ``python -m repro.store.server``
can hold the same evaluation records and data-plane blobs for shards that
share no mount at all.  This benchmark quantifies the two paths the
ROADMAP called for:

- **Warm-cache re-run** — the same T-Daub ranking twice per backend
  (a local ``store`` directory vs an object-store URL).  The warm pass must serve every
  evaluation from the persistent tier on *both* backends with identical
  rankings; the interesting number is how much of the latency-bound
  speedup survives the HTTP round trips.
- **Blob sync bytes** — a remote ``WorkerServer`` spilling received
  data-plane blobs into the object store.  A *replacement* worker process
  (modelling a restart on a different host, where a ``--blob-dir`` on
  local disk would be gone) must answer ``blob_has`` from the shared
  store and receive **zero** blob bytes.

Writes ``BENCH_object_store.json`` at the repository root; ``--tiny``
runs a seconds-scale version used by CI.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import TDaub
from repro.exec import RemoteExecutor
from repro.exec.tasks import FitScoreTask, run_fit_score_task
from repro.forecasters.naive import DriftForecaster
from repro.store.server import StoreServer

from bench_perf_persistent_cache import LatencyBoundForecaster

_HORIZON = 12
_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_object_store.json"


def _series(n: int) -> np.ndarray:
    t = np.arange(float(n))
    noise = np.random.default_rng(23).normal(0, 0.5, n)
    return 20.0 + 0.8 * t + 5.0 * np.sin(2 * np.pi * t / 12.0) + noise


def _pipelines(count: int, latency: float) -> list[LatencyBoundForecaster]:
    dampings = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0][:count]
    return [
        LatencyBoundForecaster(damping=d, latency=latency, horizon=_HORIZON)
        for d in dampings
    ]


def _rank(store, series: np.ndarray, count: int, latency: float) -> tuple[TDaub, float]:
    selector = TDaub(
        pipelines=_pipelines(count, latency),
        horizon=_HORIZON,
        min_allocation_size=60,
        store=store,
    )
    start = time.perf_counter()
    selector.fit(series)
    return selector, time.perf_counter() - start


def _fingerprint(selector: TDaub) -> tuple:
    return (
        tuple(selector.ranked_names_),
        tuple(
            (name, tuple(e.allocation_sizes), tuple(e.scores), e.final_score)
            for name, e in sorted(selector.evaluations_.items())
        ),
    )


def _warm_rerun_record(store_url: str, tiny: bool) -> dict:
    series = _series(300)
    count, latency = (4, 0.01) if tiny else (8, 0.08)
    store_dir = tempfile.mkdtemp(prefix="repro-objstore-bench-")
    try:
        local_cold, local_cold_s = _rank(store_dir, series, count, latency)
        local_warm, local_warm_s = _rank(store_dir, series, count, latency)
        remote_cold, remote_cold_s = _rank(store_url, series, count, latency)
        remote_warm, remote_warm_s = _rank(store_url, series, count, latency)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    reference = _fingerprint(local_cold)
    identical = all(
        _fingerprint(s) == reference for s in (local_warm, remote_cold, remote_warm)
    )
    return {
        "n_pipelines": count,
        "latency_seconds_per_fit": latency,
        "local_cold_seconds": round(local_cold_s, 4),
        "local_warm_seconds": round(local_warm_s, 4),
        "object_cold_seconds": round(remote_cold_s, 4),
        "object_warm_seconds": round(remote_warm_s, 4),
        "local_warm_speedup": round(local_cold_s / local_warm_s, 3),
        "object_warm_speedup": round(remote_cold_s / remote_warm_s, 3),
        "identical_rankings": identical,
        "local_warm_misses": local_warm.cache_stats_.misses,
        "object_warm_misses": remote_warm.cache_stats_.misses,
        "object_warm_disk_hits": remote_warm.cache_stats_.disk_hits,
    }


def _serve_worker(conn, store_url) -> None:
    from repro.exec import WorkerServer

    server = WorkerServer(blob_store=store_url)
    conn.send(server.address)
    conn.close()
    server.serve_forever()


def _blob_bytes_through_worker(store_url: str, base: np.ndarray) -> int:
    """Run one remote fit against a fresh worker process; return blob bytes."""
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_serve_worker, args=(child_conn, store_url))
    process.start()
    child_conn.close()
    address = parent_conn.recv()
    parent_conn.close()
    try:
        executor = RemoteExecutor(["%s:%d" % address])
        plane = executor.create_dataplane()
        ref = plane.register(base)
        split = int(len(base) * 0.8)
        outcomes = executor.map_tasks(
            run_fit_score_task,
            [
                FitScoreTask(
                    tag=0,
                    template=DriftForecaster(horizon=_HORIZON),
                    train=ref[:split],
                    test=ref[split:],
                    horizon=_HORIZON,
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


def _blob_sync_record(store_url: str, tiny: bool) -> dict:
    base = _series(20_000 if tiny else 400_000).reshape(-1, 1)
    cold_bytes = _blob_bytes_through_worker(store_url, base)
    # A *different* worker process: restart on another host.  Only the
    # object store is shared — and it already holds the blob.
    restart_bytes = _blob_bytes_through_worker(store_url, base)
    return {
        "base_bytes": int(base.nbytes),
        "cold_blob_bytes_sent": int(cold_bytes),
        "restart_blob_bytes_sent": int(restart_bytes),
    }


def run(tiny: bool) -> dict:
    with StoreServer(tempfile.mkdtemp(prefix="repro-objstore-root-")) as server:
        server.serve_in_background()
        record = {
            "benchmark": "object_store_backend",
            "kind": "machinery",
            "mode": "tiny" if tiny else "full",
            "warm_rerun": _warm_rerun_record(server.url, tiny),
            "blob_sync": _blob_sync_record(server.url, tiny),
        }
        shutil.rmtree(server.state.root, ignore_errors=True)
        return record


def _check(record: dict) -> None:
    warm = record["warm_rerun"]
    assert warm["identical_rankings"], "rankings must match across backends"
    assert warm["local_warm_misses"] == 0, "local warm run must be fully served"
    assert warm["object_warm_misses"] == 0, "object warm run must be fully served"
    assert warm["object_warm_speedup"] > 1.0, warm
    blobs = record["blob_sync"]
    assert blobs["cold_blob_bytes_sent"] > blobs["base_bytes"], blobs
    assert blobs["restart_blob_bytes_sent"] == 0, (
        "a replacement worker sharing only the object store must not "
        f"re-download blobs: {blobs}"
    )


def _report(record: dict) -> None:
    warm, blobs = record["warm_rerun"], record["blob_sync"]
    print()
    print("Object-store backend vs shared filesystem")
    print(
        f"  warm re-run   : local {warm['local_warm_speedup']:.2f}x, "
        f"object store {warm['object_warm_speedup']:.2f}x "
        f"(rankings identical: {warm['identical_rankings']})"
    )
    print(
        f"  blob sync     : cold {blobs['cold_blob_bytes_sent']} B, "
        f"replacement worker {blobs['restart_blob_bytes_sent']} B "
        f"(base {blobs['base_bytes']} B)"
    )


def test_object_store_backend_perf():
    record = run(tiny=False)
    _RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    _report(record)
    print(f"  record        : {_RESULT_PATH}")
    _check(record)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-scale variant for CI smoke runs (no BENCH file)",
    )
    parser.add_argument("--json", default=None, help="write the run record here")
    args = parser.parse_args(argv)
    record = run(tiny=args.tiny)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    if not args.tiny:
        _RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    _report(record)
    _check(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
