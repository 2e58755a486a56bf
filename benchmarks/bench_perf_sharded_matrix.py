"""Perf benchmark: a two-worker sharded matrix vs a single-process run.

The acceptance scenario for manifest-driven sharding: two shard workers on
a 2-way split of one suite, checkpointing into one shared manifest, must

- produce a merged manifest and summary tables **identical** to a
  single-process run of the same suite (wall-clock timing fields are
  normalized before the byte comparison — train seconds are measurements
  of this machine right now, not facts of the suite), and
- finish in **under ~60 %** of the single-process wall-clock.

The toolkits model the training profile that makes sharding pay: a
deterministic numpy estimation plus a blocking external wait, so the
matrix cost is latency-bound and a 2-way split should approach a 2x
speedup (the gap to the ideal 50 % is the fork/claim/lock overhead this
benchmark exists to keep honest).

Workers are real OS processes (fork), each running the plain
``BenchmarkRunner`` worker path used by ``python -m repro.benchmarking
--worker --shard K/N``.  Results land in ``BENCH_sharded.json`` at the
repository root.
"""

from __future__ import annotations

import copy
import hashlib
import json
import multiprocessing
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.benchmarking import (
    BenchmarkRunner,
    ShardCoordinator,
    render_detail_table,
)
from repro.core.base import BaseForecaster

_HORIZON = 8
_LATENCY_SECONDS = 0.2
_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"

# -- skewed-matrix workload (shared with bench_perf_stealing) ------------------
# One long-pole dataset under a 10-pipeline wave toolkit plus short series
# under cheap toolkits: the matrix static round-robin dealing handles worst
# (the long pole strands its shard) and work stealing exists to fix.
_WAVE_SECONDS = 0.08
_WAVE_SAMPLES = 30
_SKEW_LIGHT_LATENCY = 0.05


class LatencyBoundToolkit(BaseForecaster):
    """Damped-drift toolkit whose training blocks on an external call.

    Distinct ``damping`` values give every toolkit column distinct,
    deterministic forecasts, so equality of the sharded and single-process
    summaries is a meaningful check.
    """

    def __init__(
        self, damping: float = 1.0, latency: float = _LATENCY_SECONDS, horizon: int = 1
    ):
        self.damping = damping
        self.latency = latency
        self.horizon = horizon

    def fit(self, X, y=None) -> "LatencyBoundToolkit":
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        steps = np.arange(len(X), dtype=float)
        slopes = [np.polyfit(steps, column, deg=1)[0] for column in X.T]
        self.level_ = X[-1]
        self.slope_ = np.asarray(slopes, dtype=float)
        time.sleep(float(self.latency))
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        steps = int(horizon if horizon is not None else self.horizon)
        offsets = np.arange(1, steps + 1, dtype=float).reshape(-1, 1)
        return self.level_.reshape(1, -1) + float(self.damping) * offsets * self.slope_.reshape(
            1, -1
        )


def _make_toolkit(damping: float, latency: float = _LATENCY_SECONDS):
    def factory(horizon: int) -> LatencyBoundToolkit:
        return LatencyBoundToolkit(damping=damping, latency=latency, horizon=horizon)

    return factory


def _toolkits() -> dict:
    return {f"Latency(d={d:g})": _make_toolkit(d) for d in (0.0, 0.5, 1.0, 2.0)}


def _suite() -> dict[str, np.ndarray]:
    t = np.arange(200.0)
    generator = np.random.default_rng(23)
    return {
        "trend": 20.0 + 0.8 * t + generator.normal(0, 0.5, 200),
        "seasonal": 60.0 + 9.0 * np.sin(2 * np.pi * t / 12.0) + generator.normal(0, 0.5, 200),
        "walk": 100.0 + np.cumsum(generator.normal(0.05, 0.8, 200)),
        "damped": 40.0 + 10.0 * np.exp(-t / 90.0) * np.sin(t / 6.0) + generator.normal(0, 0.3, 200),
    }


def _run_shard_worker(manifest_path: str, shard_index: int, n_shards: int) -> None:
    """One worker process: the exact path `--worker --shard K/N` takes."""
    datasets, toolkits = _suite(), _toolkits()
    coordinator = ShardCoordinator(datasets, toolkits, n_shards)
    runner = BenchmarkRunner(
        horizon=_HORIZON,
        manifest_path=manifest_path,
        worker_id=f"shard-{shard_index + 1}/{n_shards}",
    )
    runner.run(datasets, toolkits, cells=coordinator.cells(shard_index))


class SplittableWaveToolkit(BaseForecaster):
    """A heavy toolkit whose training is a sequence of cacheable waves.

    Each wave blocks for ``wave_seconds`` unless a marker for (training
    bytes, wave index) already exists in ``record_root`` — the stand-in for
    a shared evaluation store serving a previously computed wave.  A
    ``part=(k, n)`` instance executes only every n-th wave (one disjoint
    share of the cell), which is what the work-stealing scheduler's split
    protocol runs concurrently; the subsequent full execution finds every
    wave warm.  The forecast is a deterministic function of the training
    data alone, so cache state never shows in the results.
    """

    def __init__(
        self,
        record_root: str = "",
        damping: float = 0.7,
        wave_seconds: float = _WAVE_SECONDS,
        part: tuple[int, int] | None = None,
        horizon: int = 1,
    ):
        self.record_root = record_root
        self.damping = damping
        self.wave_seconds = wave_seconds
        self.part = part
        self.horizon = horizon

    def fit(self, X, y=None) -> "SplittableWaveToolkit":
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        digest = hashlib.blake2b(X.tobytes(), digest_size=8).hexdigest()
        waves = max(len(X) // _WAVE_SAMPLES, 1)
        indices = range(waves)
        if self.part is not None:
            index, n_parts = self.part
            indices = [w for w in indices if w % int(n_parts) == int(index)]
        root = Path(self.record_root)
        for wave in indices:
            marker = root / f"{digest}-{wave}.wave"
            if not marker.exists():
                time.sleep(float(self.wave_seconds))
                marker.touch()
        steps = np.arange(len(X), dtype=float)
        slopes = [np.polyfit(steps, column, deg=1)[0] for column in X.T]
        self.level_ = X[-1]
        self.slope_ = np.asarray(slopes, dtype=float)
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        steps = int(horizon if horizon is not None else self.horizon)
        offsets = np.arange(1, steps + 1, dtype=float).reshape(-1, 1)
        return self.level_.reshape(1, -1) + float(self.damping) * offsets * self.slope_.reshape(
            1, -1
        )


class WavePartFactory:
    """Factory for one disjoint share of a split wave cell (picklable)."""

    def __init__(self, record_root: str, index: int, n_parts: int):
        self.record_root = record_root
        self.index = int(index)
        self.n_parts = int(n_parts)

    def __call__(self, horizon: int) -> SplittableWaveToolkit:
        return SplittableWaveToolkit(
            record_root=self.record_root,
            part=(self.index, self.n_parts),
            horizon=horizon,
        )


class WaveToolkitFactory:
    """Splittable heavy-toolkit factory with a cost-model pipeline hint."""

    #: Cost-model hint: like AutoAI-TS, one cell ranks ~10 inner pipelines.
    pipeline_count = 10

    def __init__(self, record_root: str):
        self.record_root = record_root

    def __call__(self, horizon: int) -> SplittableWaveToolkit:
        return SplittableWaveToolkit(record_root=self.record_root, horizon=horizon)

    def split_parts(self, n_parts: int) -> list[WavePartFactory]:
        n_parts = max(2, min(int(n_parts), 8))
        return [
            WavePartFactory(self.record_root, index, n_parts)
            for index in range(n_parts)
        ]


def skewed_suite() -> dict[str, np.ndarray]:
    """One 2400-point long pole plus three 200-point short series."""
    generator = np.random.default_rng(31)
    t_long = np.arange(2400.0)
    t_short = np.arange(200.0)
    return {
        "longpole": 50.0 + 0.3 * t_long + 6.0 * np.sin(2 * np.pi * t_long / 48.0)
        + generator.normal(0, 0.4, 2400),
        "short_trend": 20.0 + 0.8 * t_short + generator.normal(0, 0.5, 200),
        "short_seasonal": 60.0 + 9.0 * np.sin(2 * np.pi * t_short / 12.0)
        + generator.normal(0, 0.5, 200),
        "short_walk": 100.0 + np.cumsum(generator.normal(0.05, 0.8, 200)),
    }


def skewed_toolkits(record_root: str) -> dict:
    """One splittable heavy column plus three cheap latency columns."""
    toolkits = {"WaveAuto": WaveToolkitFactory(record_root)}
    for damping in (0.0, 0.5, 1.0):
        factory = _make_toolkit(damping)

        def light(horizon, _factory=factory):
            toolkit = _factory(horizon)
            toolkit.latency = _SKEW_LIGHT_LATENCY
            return toolkit

        toolkits[f"Latency(d={damping:g})"] = light
    return toolkits


def run_static_skewed_worker(
    manifest_path: str, shard_index: int, n_shards: int, record_root: str
) -> None:
    """Static-dealing baseline worker on the skewed matrix.

    The round-robin deal sends every fourth cell to each shard, and with
    four toolkit columns that lands *all* heavy wave cells on shard 1 —
    the skew pathology `bench_perf_stealing` measures stealing against.
    """
    datasets, toolkits = skewed_suite(), skewed_toolkits(record_root)
    coordinator = ShardCoordinator(datasets, toolkits, n_shards)
    runner = BenchmarkRunner(
        horizon=_HORIZON,
        manifest_path=manifest_path,
        worker_id=f"static-{shard_index + 1}/{n_shards}",
    )
    runner.run(datasets, toolkits, cells=coordinator.cells(shard_index))


def _normalized_manifest(path: str | Path) -> dict:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    for cell in record.get("cells", []):
        cell["train_seconds"] = 0.0
    return record


def _normalized_table(results) -> str:
    normalized = copy.deepcopy(results)
    for run in normalized.runs:
        run.train_seconds = 0.0
        run.from_cache = False
    return render_detail_table(normalized, "Sharded matrix (timings normalized)")


def test_sharded_matrix_two_workers_speedup():
    workdir = Path(tempfile.mkdtemp(prefix="repro-sharded-bench-"))
    datasets, toolkits = _suite(), _toolkits()
    try:
        single_manifest = workdir / "single.json"
        start = time.perf_counter()
        single = BenchmarkRunner(
            horizon=_HORIZON, manifest_path=str(single_manifest)
        ).run(datasets, toolkits)
        single_seconds = time.perf_counter() - start

        sharded_manifest = workdir / "sharded.json"
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_run_shard_worker, args=(str(sharded_manifest), index, 2))
            for index in range(2)
        ]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        sharded_seconds = time.perf_counter() - start
        assert all(worker.exitcode == 0 for worker in workers)

        # The merge invocation reads everything back from the shared manifest.
        merged = BenchmarkRunner(horizon=_HORIZON, manifest_path=str(sharded_manifest)).run(
            datasets, toolkits
        )
        assert merged.from_cache_count() == len(merged.runs) == 16

        manifests_identical = _normalized_manifest(sharded_manifest) == _normalized_manifest(
            single_manifest
        )
        tables_identical = _normalized_table(merged) == _normalized_table(single)
        ratio = sharded_seconds / single_seconds

        record = {
            "benchmark": "sharded_matrix_two_workers",
            "kind": "machinery",
            "cells": len(single.runs),
            "n_workers": 2,
            "latency_seconds_per_fit": _LATENCY_SECONDS,
            "single_process_seconds": round(single_seconds, 4),
            "sharded_seconds": round(sharded_seconds, 4),
            "speedup": round(single_seconds / sharded_seconds, 3),
            "wallclock_ratio": round(ratio, 3),
            "manifests_identical": manifests_identical,
            "tables_identical": tables_identical,
        }
        _RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

        print()
        print("Sharded benchmark matrix: 2 workers vs single process (16 cells)")
        print(f"  single process : {single_seconds:6.2f}s")
        print(f"  2 shard workers: {sharded_seconds:6.2f}s  ({ratio:4.0%} of single)")
        print(f"  merged manifest identical: {manifests_identical}")
        print(f"  summary tables identical : {tables_identical}")

        assert manifests_identical
        assert tables_identical
        assert ratio < 0.6, f"sharded run took {ratio:.0%} of single-process wall-clock"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
