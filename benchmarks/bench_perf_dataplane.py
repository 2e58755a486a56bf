"""Perf benchmark: the zero-copy data plane vs by-value task payloads.

T-Daub's rounds repeatedly evaluate N pipelines on nested slices of one
training array.  Shipping those slices *by value* makes the engine pay per
task for what the data plane pays once per run:

- **process backend** (``spawn`` — the serialization-bound configuration,
  and the only start method on Windows/macOS): every task pickles its full
  train/test arrays into the worker, and the parent hashes the same slice
  once per pipeline for the evaluation cache.  With the plane, the base
  array is pinned in shared memory once, tasks carry ``ArrayRef`` slices,
  and per-slice fingerprints are memoized.
- **remote backend**: every task frame re-sends identical bytes over the
  socket.  With the plane, the base crosses the wire once as a
  content-addressed blob and task frames collapse to refs.

The benchmark runs an identical long-series, many-pipeline T-Daub matrix
with the plane on and off, asserts byte-identical rankings and score
histories, and writes ``BENCH_dataplane.json`` at the repository root:
>= 1.5x wall-clock on the process matrix and the measured bytes-on-wire
reduction on the remote matrix.

``--tiny`` runs a seconds-scale version (short series, fork backend) that
asserts only the by-ref == by-value equivalence — the CI smoke mode.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import TDaub
from repro.exec import ProcessExecutor, RemoteExecutor
from repro.forecasters.naive import (
    DriftForecaster,
    SeasonalNaiveForecaster,
    ZeroModelForecaster,
)

_HORIZON = 12
_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dataplane.json"


def _series(n_rows: int) -> np.ndarray:
    t = np.arange(float(n_rows))
    noise = np.random.default_rng(23).normal(0.0, 1.0, n_rows)
    return 40.0 + 1e-5 * t + 6.0 * np.sin(2 * np.pi * t / 96.0) + noise


def _pipelines(n_pipelines: int) -> list:
    """Cheap vectorized-fit pipelines with deterministic, distinct scores."""
    candidates = [
        ZeroModelForecaster(horizon=_HORIZON),
        DriftForecaster(horizon=_HORIZON),
    ] + [
        SeasonalNaiveForecaster(seasonal_period=period, horizon=_HORIZON)
        for period in (96, 48, 24, 12, 7, 5, 3, 2)
    ]
    return candidates[:n_pipelines]


def _rank(series, n_pipelines, executor, dataplane, n_jobs):
    selector = TDaub(
        pipelines=_pipelines(n_pipelines),
        horizon=_HORIZON,
        min_allocation_size=(len(series) * 4 // 5) // 2,  # two fixed rounds
        test_fraction=0.04,
        run_to_completion=1,
        n_jobs=n_jobs,
        executor=executor,
        dataplane=dataplane,
    )
    start = time.perf_counter()
    selector.fit(series)
    return selector, time.perf_counter() - start


def _result_signature(selector) -> tuple:
    return (
        tuple(selector.ranked_names_),
        tuple(
            (name, tuple(e.allocation_sizes), tuple(e.scores))
            for name, e in sorted(selector.evaluations_.items())
        ),
    )


def _warm_workers(start_method: str, n_jobs: int) -> None:
    """Warm the worker-startup path (interpreter + numpy import caches).

    Runs a tiny real task through a throwaway executor so neither timed
    configuration pays first-spawn cold costs.
    """
    from repro.exec import FitScoreTask, run_fit_score_task

    tiny = _series(256)
    task = FitScoreTask(
        tag=0,
        template=ZeroModelForecaster(horizon=_HORIZON),
        train=tiny[:200].reshape(-1, 1),
        test=tiny[200:].reshape(-1, 1),
        horizon=_HORIZON,
    )
    executor = ProcessExecutor(n_jobs=n_jobs, start_method=start_method)
    executor.map_tasks(run_fit_score_task, [task, task])


def _process_matrix(n_rows: int, n_pipelines: int, start_method: str, n_jobs: int) -> dict:
    """By-ref vs by-value on the process backend (same schedule both ways)."""
    series = _series(n_rows)
    results = {}
    timings = {}
    _warm_workers(start_method, n_jobs)
    for dataplane in (False, True):
        executor = ProcessExecutor(n_jobs=n_jobs, start_method=start_method)
        selector, seconds = _rank(series, n_pipelines, executor, dataplane, n_jobs)
        results[dataplane] = _result_signature(selector)
        timings[dataplane] = seconds
    identical = results[True] == results[False]
    speedup = timings[False] / timings[True]
    return {
        "n_rows": n_rows,
        "payload_mb": round(series.nbytes / 1e6, 1),
        "n_pipelines": n_pipelines,
        "n_jobs": n_jobs,
        "start_method": start_method,
        "by_value_seconds": round(timings[False], 4),
        "by_ref_seconds": round(timings[True], 4),
        "speedup": round(speedup, 3),
        "identical_results": identical,
    }


def _serve_worker(conn) -> None:
    from repro.exec import WorkerServer

    server = WorkerServer()
    conn.send(server.address)
    conn.close()
    server.serve_forever()


def _remote_matrix(n_rows: int, n_pipelines: int, n_jobs: int) -> dict:
    """By-ref vs by-value over a real socket to a separate worker process."""
    series = _series(n_rows)
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_serve_worker, args=(child_conn,))
    process.start()
    child_conn.close()
    address = parent_conn.recv()
    parent_conn.close()
    try:
        results, timings, wires = {}, {}, {}
        for dataplane in (False, True):
            executor = RemoteExecutor(["%s:%d" % address])
            selector, seconds = _rank(series, n_pipelines, executor, dataplane, n_jobs)
            results[dataplane] = _result_signature(selector)
            timings[dataplane] = seconds
            wires[dataplane] = executor.wire_stats
    finally:
        process.terminate()
        process.join()
    identical = results[True] == results[False]
    by_value, by_ref = wires[False], wires[True]
    return {
        "n_rows": n_rows,
        "payload_mb": round(series.nbytes / 1e6, 1),
        "n_pipelines": n_pipelines,
        "by_value_seconds": round(timings[False], 4),
        "by_ref_seconds": round(timings[True], 4),
        "speedup": round(timings[False] / timings[True], 3),
        "by_value_bytes_sent": by_value.bytes_sent,
        "by_ref_bytes_sent": by_ref.bytes_sent,
        "by_ref_task_bytes_sent": by_ref.task_bytes_sent,
        "by_ref_blob_bytes_sent": by_ref.blob_bytes_sent,
        "wire_reduction": round(by_value.bytes_sent / max(by_ref.bytes_sent, 1), 1),
        "identical_results": identical,
    }


def run(tiny: bool) -> dict:
    if tiny:
        process = _process_matrix(
            n_rows=20_000, n_pipelines=4, start_method="fork", n_jobs=2
        )
        remote = _remote_matrix(n_rows=20_000, n_pipelines=4, n_jobs=2)
    else:
        # The serialization-bound configuration: spawn workers receive task
        # payloads by pickling, so a 400 MB series makes data movement —
        # per-task pickling into the worker plus per-job slice hashing for
        # the evaluation cache — the dominant cost the plane removes.
        process = _process_matrix(
            n_rows=50_000_000, n_pipelines=8, start_method="spawn", n_jobs=2
        )
        remote = _remote_matrix(n_rows=1_500_000, n_pipelines=8, n_jobs=2)
    return {
        "benchmark": "dataplane",
        "kind": "machinery",
        "mode": "tiny" if tiny else "full",
        "process_matrix": process,
        "remote_matrix": remote,
    }


def _report(record: dict) -> None:
    process, remote = record["process_matrix"], record["remote_matrix"]
    print()
    print(
        f"Zero-copy data plane ({record['mode']} mode, "
        f"{process['n_pipelines']} pipelines)"
    )
    print(
        f"  process[{process['start_method']}] {process['payload_mb']}MB series : "
        f"by-value {process['by_value_seconds']:7.2f}s -> "
        f"by-ref {process['by_ref_seconds']:7.2f}s "
        f"({process['speedup']:.2f}x, identical: {process['identical_results']})"
    )
    print(
        f"  remote {remote['payload_mb']}MB series  : "
        f"by-value {remote['by_value_bytes_sent'] / 1e6:8.1f}MB on wire -> "
        f"by-ref {remote['by_ref_bytes_sent'] / 1e6:8.1f}MB "
        f"({remote['wire_reduction']}x fewer bytes, "
        f"{remote['speedup']:.2f}x wall, identical: {remote['identical_results']})"
    )


def test_dataplane_speedup():
    """Full matrix: >= 1.5x on the process backend, fewer bytes on remote."""
    record = run(tiny=False)
    _RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    _report(record)
    print(f"  record          : {_RESULT_PATH}")

    process, remote = record["process_matrix"], record["remote_matrix"]
    assert process["identical_results"], "by-ref ranking diverged from by-value"
    assert remote["identical_results"], "remote by-ref ranking diverged"
    assert process["speedup"] >= 1.5, (
        f"expected >= 1.5x on the serialization-bound process matrix, "
        f"measured {process['speedup']:.2f}x"
    )
    assert remote["by_ref_bytes_sent"] < remote["by_value_bytes_sent"] / 2, (
        "the data plane must cut remote bytes-on-wire at least in half"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-scale smoke mode: assert by-ref == by-value only",
    )
    parser.add_argument("--json", default=None, help="write the run record here")
    args = parser.parse_args(argv)

    record = run(tiny=args.tiny)
    _report(record)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    if not args.tiny:
        _RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(f"  record          : {_RESULT_PATH}")

    process, remote = record["process_matrix"], record["remote_matrix"]
    if not (process["identical_results"] and remote["identical_results"]):
        print("FAIL: by-ref results diverged from by-value", file=sys.stderr)
        return 1
    if not args.tiny:
        if process["speedup"] < 1.5:
            print(f"FAIL: speedup {process['speedup']:.2f}x < 1.5x", file=sys.stderr)
            return 1
        if remote["by_ref_bytes_sent"] >= remote["by_value_bytes_sent"] / 2:
            print("FAIL: remote bytes-on-wire not halved", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
