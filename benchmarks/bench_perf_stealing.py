"""Perf benchmark: work-stealing workers vs static dealing on a skewed matrix.

The acceptance scenario for the cost-aware work-stealing scheduler: a
benchmark matrix with one long-pole cell (a 2400-point series under a
10-pipeline splittable toolkit) and fifteen cheap cells.  Static
round-robin dealing strands every heavy cell on one shard — the second
worker idles while the first grinds — so the 2-way static split barely
beats single-process.  Work stealing must:

- reach **>= 1.7x** over the single-process wall-clock with two elastic
  workers (one of which joins ~0.25s late, i.e. no membership list),
- report the static 2-worker baseline alongside, demonstrating the skew
  pathology stealing exists to fix,
- produce a merged manifest **byte-identical** to the single-process run
  (train-second timings normalized, per the sharded-bench convention),
- and show the late joiner stealing at least one cell, with the split of
  the long-pole cell visible in the scheduler provenance.

Workers are real OS processes (fork) running the same ``BenchmarkRunner``
stealing path as ``python -m repro.benchmarking --steal``.  Results land
in ``BENCH_stealing.json`` at the repository root.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import tempfile
import time
from pathlib import Path

from repro.benchmarking import BenchmarkRunner

from bench_perf_sharded_matrix import (
    _HORIZON,
    _normalized_manifest,
    run_static_skewed_worker,
    skewed_suite,
    skewed_toolkits,
)

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_stealing.json"
_JOIN_DELAY_SECONDS = 0.25
_SPEEDUP_FLOOR = 1.7


def _run_stealing_worker(manifest_path: str, worker: str, record_root: str) -> None:
    """One elastic worker process: the exact path ``--steal`` takes."""
    datasets, toolkits = skewed_suite(), skewed_toolkits(record_root)
    runner = BenchmarkRunner(
        horizon=_HORIZON,
        manifest_path=manifest_path,
        worker_id=worker,
        reclaim_stale=60.0,
        steal=True,
        split_threshold=2.0,
    )
    runner.run(datasets, toolkits)


def _queue_doc(manifest_path: Path) -> dict:
    return json.loads(
        Path(f"{manifest_path}.queue.json").read_text(encoding="utf-8")
    )


def test_stealing_two_workers_skewed_matrix():
    workdir = Path(tempfile.mkdtemp(prefix="repro-stealing-bench-"))
    ctx = multiprocessing.get_context("fork")
    try:
        # Separate record roots per scenario: the wave markers are a cache,
        # and a shared one would let scenario N+1 ride scenario N's warmth.
        roots = {}
        for scenario in ("single", "static", "steal"):
            roots[scenario] = workdir / f"waves-{scenario}"
            roots[scenario].mkdir()

        # -- single process --------------------------------------------------
        single_manifest = workdir / "single.json"
        datasets = skewed_suite()
        start = time.perf_counter()
        single = BenchmarkRunner(
            horizon=_HORIZON, manifest_path=str(single_manifest)
        ).run(datasets, skewed_toolkits(str(roots["single"])))
        single_seconds = time.perf_counter() - start
        assert len(single.runs) == 16

        # -- static round-robin dealing, 2 workers ---------------------------
        static_manifest = workdir / "static.json"
        static_workers = [
            ctx.Process(
                target=run_static_skewed_worker,
                args=(str(static_manifest), index, 2, str(roots["static"])),
            )
            for index in range(2)
        ]
        start = time.perf_counter()
        for worker in static_workers:
            worker.start()
        for worker in static_workers:
            worker.join()
        static_seconds = time.perf_counter() - start
        assert all(worker.exitcode == 0 for worker in static_workers)

        # -- work stealing: one worker starts, a second joins mid-run --------
        steal_manifest = workdir / "steal.json"
        first = ctx.Process(
            target=_run_stealing_worker,
            args=(str(steal_manifest), "w1", str(roots["steal"])),
        )
        joiner = ctx.Process(
            target=_run_stealing_worker,
            args=(str(steal_manifest), "w2", str(roots["steal"])),
        )
        start = time.perf_counter()
        first.start()
        time.sleep(_JOIN_DELAY_SECONDS)
        joiner.start()
        first.join()
        joiner.join()
        stealing_seconds = time.perf_counter() - start
        assert first.exitcode == 0 and joiner.exitcode == 0

        # The merge invocation reads everything back from the shared manifest.
        merged = BenchmarkRunner(
            horizon=_HORIZON, manifest_path=str(steal_manifest)
        ).run(datasets, skewed_toolkits(str(roots["steal"])))
        assert merged.from_cache_count() == len(merged.runs) == 16

        manifests_identical = _normalized_manifest(steal_manifest) == _normalized_manifest(
            single_manifest
        )

        queue = _queue_doc(steal_manifest)
        workers = queue.get("workers", {})
        joiner_stolen = int(workers.get("w2", {}).get("stolen", 0))
        split_cells = sorted(
            {
                (entry["dataset"], entry["toolkit"])
                for entry in queue.get("entries", [])
                if entry.get("kind") == "part"
            }
        )
        unsettled = [
            (entry["dataset"], entry["toolkit"], entry.get("kind"))
            for entry in queue.get("entries", [])
            if entry.get("state") not in ("done", "abandoned")
        ]

        stealing_speedup = single_seconds / stealing_seconds
        static_speedup = single_seconds / static_seconds

        record = {
            "benchmark": "stealing_two_workers_skewed_matrix",
            "kind": "machinery",
            "cells": len(single.runs),
            "n_workers": 2,
            "join_delay_seconds": _JOIN_DELAY_SECONDS,
            "single_process_seconds": round(single_seconds, 4),
            "static_two_worker_seconds": round(static_seconds, 4),
            "stealing_two_worker_seconds": round(stealing_seconds, 4),
            "static_speedup": round(static_speedup, 3),
            "stealing_speedup": round(stealing_speedup, 3),
            "manifests_identical": manifests_identical,
            "joiner_stolen_cells": joiner_stolen,
            "split_cells": [list(cell) for cell in split_cells],
            "steal_events": sum(
                1 for event in queue.get("events", []) if event.get("kind") == "steal"
            ),
        }
        _RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

        print()
        print("Work-stealing benchmark: skewed 16-cell matrix, 2 elastic workers")
        print(f"  single process       : {single_seconds:6.2f}s")
        print(f"  static 2-worker deal : {static_seconds:6.2f}s  ({static_speedup:.2f}x)")
        print(f"  stealing (late join) : {stealing_seconds:6.2f}s  ({stealing_speedup:.2f}x)")
        print(f"  merged manifest identical: {manifests_identical}")
        print(f"  joiner stole {joiner_stolen} cell(s); split: {split_cells}")

        assert manifests_identical
        assert not unsettled, f"queue entries left unsettled: {unsettled}"
        assert joiner_stolen >= 1, "late joiner never stole a cell"
        assert split_cells, "cost model never split the long-pole cell"
        assert stealing_speedup >= _SPEEDUP_FLOOR, (
            f"stealing reached only {stealing_speedup:.2f}x over single-process "
            f"(static baseline: {static_speedup:.2f}x)"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
