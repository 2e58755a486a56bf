"""Perf benchmark: the zero-copy data plane vs by-value task payloads.

T-Daub's rounds repeatedly evaluate N pipelines on nested slices of one
training array.  Shipping those slices *by value* to workers that do not
share the caller's memory makes the engine pay per task for what the
data plane pays once per run:

- **process backend** (``spawn`` — the serialization-bound configuration,
  and the only start method on Windows/macOS): every task pickles its full
  train/test arrays into the worker.  With the plane, the base array is
  pinned in shared memory once and tasks carry ``ArrayRef`` slices.
  Either way the evaluation cache keys on the parent's local views, so
  both sides hash the same slices.
- **remote backend**: every task frame re-sends identical bytes over the
  socket.  With the plane, the base crosses the wire once as a
  content-addressed blob and task frames collapse to refs.

The by-value side of each matrix is the same executor with
``create_dataplane()`` returning ``None``.  The benchmark runs an
identical long-series, many-pipeline T-Daub matrix both ways, asserts
byte-identical rankings and score histories, and writes
``BENCH_dataplane.json`` at the repository root: >= 1.5x wall-clock on
the spawn matrix and the measured bytes-on-wire reduction on the remote
matrix.  Full mode adds a **fork** leg on the spawn leg's matrix: ``fork``
children inherit the caller's pages, so ``ProcessExecutor`` ships by
value there, and the leg times that default against the same executor
forced onto :class:`~repro.exec.SharedMemoryPlane` in alternating pairs.
It records both times and gates nothing.

``--tiny`` runs a seconds-scale version (short series, spawn workers)
that asserts only the by-ref == by-value equivalence — the CI smoke mode.
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
from repro.exec import ProcessExecutor, RemoteExecutor, SharedMemoryPlane
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


class ByValueProcessExecutor(ProcessExecutor):
    """Process workers sent every task slice by value."""

    def create_dataplane(self):
        return None


class ByValueRemoteExecutor(RemoteExecutor):
    """Remote lanes sent every task slice by value."""

    def create_dataplane(self):
        return None


class SharedMemoryForkExecutor(ProcessExecutor):
    """Fork workers forced onto the shared-memory plane."""

    def __init__(self, n_jobs: int):
        super().__init__(n_jobs, start_method="fork")

    def create_dataplane(self):
        return SharedMemoryPlane()


def _rank(series, n_pipelines, executor, n_jobs):
    selector = TDaub(
        pipelines=_pipelines(n_pipelines),
        horizon=_HORIZON,
        min_allocation_size=(len(series) * 4 // 5) // 2,  # two fixed rounds
        test_fraction=0.04,
        run_to_completion=1,
        n_jobs=n_jobs,
        executor=executor,
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
    for by_ref, backend in ((False, ByValueProcessExecutor), (True, ProcessExecutor)):
        executor = backend(n_jobs=n_jobs, start_method=start_method)
        selector, seconds = _rank(series, n_pipelines, executor, n_jobs)
        results[by_ref] = _result_signature(selector)
        timings[by_ref] = seconds
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


def _fork_matrix(n_rows: int, n_pipelines: int, n_jobs: int, pairs: int) -> dict:
    """Default fork executor (by value) vs the same one forced onto shared memory.

    Runs ``pairs`` pairs, alternating which side goes first, and records
    every time: the leg shows what the plane would cost where workers
    already share the caller's pages.
    """
    series = _series(n_rows)
    _warm_workers("fork", n_jobs)
    sides = {
        "default": lambda: ProcessExecutor(n_jobs=n_jobs, start_method="fork"),
        "shared_memory": lambda: SharedMemoryForkExecutor(n_jobs),
    }
    runs, signatures = [], set()
    for pair in range(pairs):
        order = ("default", "shared_memory") if pair % 2 == 0 else ("shared_memory", "default")
        times = {}
        for side in order:
            selector, seconds = _rank(series, n_pipelines, sides[side](), n_jobs)
            signatures.add(_result_signature(selector))
            times[f"{side}_seconds"] = round(seconds, 4)
        runs.append({"first": order[0], **times})
    return {
        "n_rows": n_rows,
        "payload_mb": round(series.nbytes / 1e6, 1),
        "n_pipelines": n_pipelines,
        "n_jobs": n_jobs,
        "pairs": runs,
        "default_faster_pairs": sum(
            run["default_seconds"] < run["shared_memory_seconds"] for run in runs
        ),
        "identical_results": len(signatures) == 1,
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
        for by_ref, backend in ((False, ByValueRemoteExecutor), (True, RemoteExecutor)):
            executor = backend(["%s:%d" % address])
            selector, seconds = _rank(series, n_pipelines, executor, n_jobs)
            results[by_ref] = _result_signature(selector)
            timings[by_ref] = seconds
            wires[by_ref] = executor.wire_stats
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
    record = {"benchmark": "dataplane", "kind": "machinery", "mode": "tiny" if tiny else "full"}
    if tiny:
        record["process_matrix"] = _process_matrix(
            n_rows=20_000, n_pipelines=4, start_method="spawn", n_jobs=2
        )
        record["remote_matrix"] = _remote_matrix(n_rows=20_000, n_pipelines=4, n_jobs=2)
        return record
    # The serialization-bound configuration: spawn workers receive task
    # payloads by pickling, so a 400 MB series makes data movement —
    # per-task pickling into the worker plus per-job slice hashing for
    # the evaluation cache — the dominant cost the plane removes.
    matrix = {"n_rows": 50_000_000, "n_pipelines": 8, "n_jobs": 2}
    record["process_matrix"] = _process_matrix(start_method="spawn", **matrix)
    record["fork_matrix"] = _fork_matrix(pairs=5, **matrix)
    record["remote_matrix"] = _remote_matrix(n_rows=1_500_000, n_pipelines=8, n_jobs=2)
    return record


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
    fork = record.get("fork_matrix")
    if fork is not None:
        times = ", ".join(
            f"{run['default_seconds']:.2f}/{run['shared_memory_seconds']:.2f}s"
            for run in fork["pairs"]
        )
        print(
            f"  process[fork] {fork['payload_mb']}MB series    : "
            f"by-value/forced-plane {times} "
            f"(by-value faster in {fork['default_faster_pairs']}/{len(fork['pairs'])}, "
            f"identical: {fork['identical_results']})"
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
    assert record["fork_matrix"]["identical_results"], "fork by-ref ranking diverged"
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

    legs = ("process_matrix", "fork_matrix", "remote_matrix")
    if not all(record[leg]["identical_results"] for leg in legs if leg in record):
        print("FAIL: by-ref results diverged from by-value", file=sys.stderr)
        return 1
    process, remote = record["process_matrix"], record["remote_matrix"]
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
