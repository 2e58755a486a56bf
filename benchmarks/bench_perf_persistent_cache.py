"""Perf benchmark: warm T-Daub re-run served from the persistent store.

Every T-Daub evaluation is a pure function of ``(pipeline parameters, data
slice, horizon)``, so a disk-backed evaluation store lets a *second*
invocation of the same ranking — a re-run after a crash, a nightly
benchmark on unchanged data, another shard pointing at the same store —
skip every fit entirely.

This benchmark runs the same ranking twice against one ``store`` directory:

- **cold** — empty store; every evaluation pays its full training cost,
- **warm** — a fresh ``TDaub`` instance in the same process configuration a
  new run would use, with every evaluation served from disk,

asserting a >= 5x wall-clock speedup with byte-identical rankings and score
histories, and writing the timings to ``BENCH_persistent.json`` at the
repository root.

As in ``bench_perf_parallel_tdaub``, the candidates model the training
profile of real AutoML deployments: a deterministic numpy estimation plus a
blocking external wait.  The wait is what the cold run pays per evaluation
and the warm run skips.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import TDaub
from repro.core.base import BaseForecaster

_HORIZON = 12
_LATENCY_SECONDS = 0.08
_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_persistent.json"


class LatencyBoundForecaster(BaseForecaster):
    """Damped-drift forecaster whose training blocks on an external call.

    Distinct ``damping`` values give the candidates distinct, deterministic
    scores so the ranking equality check is meaningful.
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
        slopes = [np.polyfit(steps, column, deg=1)[0] for column in X.T]
        self.level_ = X[-1]
        self.slope_ = np.asarray(slopes, dtype=float)
        time.sleep(float(self.latency))
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        steps = int(horizon if horizon is not None else self.horizon)
        offsets = np.arange(1, steps + 1, dtype=float).reshape(-1, 1)
        return self.level_.reshape(1, -1) + float(self.damping) * offsets * self.slope_.reshape(1, -1)


def _candidate_pipelines() -> list[LatencyBoundForecaster]:
    dampings = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    return [LatencyBoundForecaster(damping=d, horizon=_HORIZON) for d in dampings]


def _series() -> np.ndarray:
    t = np.arange(300.0)
    noise = np.random.default_rng(11).normal(0, 0.5, 300)
    return 20.0 + 0.8 * t + 5.0 * np.sin(2 * np.pi * t / 12.0) + noise


def _rank(store_dir: str) -> tuple[TDaub, float]:
    selector = TDaub(
        pipelines=_candidate_pipelines(),
        horizon=_HORIZON,
        min_allocation_size=60,
        store=store_dir,
    )
    start = time.perf_counter()
    selector.fit(_series())
    return selector, time.perf_counter() - start


def _fingerprint(selector: TDaub) -> tuple:
    """Everything the ranking reports: order, score histories, final scores."""
    return (
        tuple(selector.ranked_names_),
        tuple(
            (name, tuple(e.allocation_sizes), tuple(e.scores), e.final_score)
            for name, e in sorted(selector.evaluations_.items())
        ),
    )


def test_persistent_cache_warm_rerun_speedup():
    store_dir = tempfile.mkdtemp(prefix="repro-eval-store-")
    try:
        cold_selector, cold_seconds = _rank(store_dir)
        warm_selector, warm_seconds = _rank(store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    speedup = cold_seconds / warm_seconds
    identical = _fingerprint(cold_selector) == _fingerprint(warm_selector)
    warm_stats = warm_selector.cache_stats_

    record = {
        "benchmark": "persistent_cache_warm_rerun",
        "kind": "machinery",
        "n_pipelines": len(_candidate_pipelines()),
        "latency_seconds_per_fit": _LATENCY_SECONDS,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(speedup, 3),
        "identical_ranking": identical,
        "ranking": cold_selector.ranked_names_,
        "cold_cache": cold_selector.cache_stats_.__dict__,
        "warm_cache": warm_stats.__dict__,
    }
    _RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print("Persistent evaluation store: warm re-run vs cold run (8 pipelines)")
    print(f"  cold run : {cold_seconds:6.2f}s  ({cold_selector.cache_stats_.misses} fits)")
    print(f"  warm run : {warm_seconds:6.2f}s  ({warm_stats.disk_hits} disk hits)")
    print(f"  speedup  : {speedup:5.2f}x  (ranking identical: {identical})")
    print(f"  record   : {_RESULT_PATH}")

    assert identical, "warm ranking must match the cold reference exactly"
    assert warm_stats.disk_hits > 0, "warm run must be served from the disk tier"
    assert warm_stats.misses == 0, "warm run must not recompute any evaluation"
    assert speedup >= 5.0, f"expected >= 5x warm-rerun speedup, measured {speedup:.2f}x"


if __name__ == "__main__":
    test_persistent_cache_warm_rerun_speedup()
