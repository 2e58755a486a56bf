"""Perf benchmark: warm streaming re-rank vs cold full re-rank.

The incremental evaluation engine's promise, recorded in
``BENCH_streaming.json`` at the repository root: after appending **5 %
new arrivals** to an already-ranked series, a **warm-started** rolling
origin T-Daub re-rank (``TDaub(warm_start=...)``) must be at least
**5x faster** than ranking the grown series cold, while producing the
**byte-identical final ranking** on drift-free data — and it must get
there the honest way:

- every unchanged-prefix evaluation cell is served from the adopted,
  content-keyed cache (``prefix_refits_ == 0``: the warm run never
  re-fits a fully-cached prefix round);
- T-Daub's ``warm_hits_`` counter, the unchanged-prefix cells served
  from that cache, is positive.

Pipelines are sleep-bound (the same trick as ``bench_perf_chaos``): each
fit blocks on a deterministic latency, so the warm/cold ratio measures
how many cells each run actually fit — the quantity the engine
optimizes — rather than numpy noise on toy models.

``--tiny`` runs a seconds-scale version for CI smoke; ``--json`` writes
the record somewhere other than ``BENCH_streaming.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.base import BaseForecaster
from repro.core.tdaub import TDaub
from repro.stream import ArrivalBuffer

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_streaming.json"


class SleepyTrendToolkit(BaseForecaster):
    """Deterministic trend extrapolator whose fit costs a fixed sleep.

    Scores are pure functions of (damping, train bytes), so the drift-free
    warm vs cold ranking comparison is exact; the sleep makes wall-clock
    proportional to the number of cells actually fit.
    """

    def __init__(self, damping: float = 1.0, latency: float = 0.05, horizon: int = 1):
        self.damping = damping
        self.latency = latency
        self.horizon = horizon

    def fit(self, X, y=None) -> "SleepyTrendToolkit":
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        steps = np.arange(len(X), dtype=float)
        self.level_ = X[-1].copy()
        self.slope_ = np.asarray(
            [np.polyfit(steps, column, deg=1)[0] for column in X.T], dtype=float
        )
        time.sleep(float(self.latency))
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        steps = int(horizon if horizon is not None else self.horizon)
        offsets = np.arange(1, steps + 1, dtype=float).reshape(-1, 1)
        return self.level_.reshape(1, -1) + float(self.damping) * offsets * self.slope_.reshape(
            1, -1
        )


def _pipelines(latency: float, horizon: int, count: int) -> list[SleepyTrendToolkit]:
    dampings = np.linspace(0.0, 2.1, count)
    return [
        SleepyTrendToolkit(damping=float(d), latency=latency, horizon=horizon)
        for d in dampings
    ]


def _series(n_rows: int) -> np.ndarray:
    t = np.arange(n_rows, dtype=float)
    generator = np.random.default_rng(7)
    seasonal = 8.0 * np.sin(2.0 * np.pi * t / 12.0)
    return (60.0 + 0.4 * t + seasonal + generator.normal(0, 0.6, n_rows)).reshape(-1, 1)


def _cells(ranker: TDaub) -> dict:
    return {
        name: [list(ev.allocation_sizes), [round(s, 12) for s in ev.scores]]
        for name, ev in sorted(ranker.evaluations_.items())
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true", help="seconds-scale CI smoke run")
    parser.add_argument("--json", default=None, help="override the output JSON path")
    args = parser.parse_args(argv)

    if args.tiny:
        n_rows, latency, count = 200, 0.01, 5
        grid = dict(min_allocation_size=30, n_test=12, horizon=4)
    else:
        n_rows, latency, count = 400, 0.05, 8
        grid = dict(min_allocation_size=40, n_test=24, horizon=8)

    n_delta = max(1, n_rows // 20)  # the promised 5% arrival batch
    data = _series(n_rows + n_delta)

    buffer = ArrivalBuffer(n_series=1, capacity=2 * (n_rows + n_delta))
    buffer.append(data[:n_rows])

    def _ranker(warm_start=None) -> TDaub:
        return TDaub(
            _pipelines(latency, grid["horizon"], count),
            eval_protocol="rolling_origin",
            warm_start=warm_start,
            **grid,
        )

    initial = _ranker()
    start = time.perf_counter()
    initial.fit(buffer.view())
    initial_seconds = time.perf_counter() - start

    buffer.append(data[n_rows:])

    warm = _ranker(warm_start=initial.warm_state_)
    start = time.perf_counter()
    warm.fit(buffer.view())
    warm_seconds = time.perf_counter() - start
    warm_cache_stats = warm.warm_state_.cache.stats

    cold = _ranker()  # fresh cache: every cell re-fits
    start = time.perf_counter()
    cold.fit(buffer.view())
    cold_seconds = time.perf_counter() - start

    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    ranking_identical = list(warm.ranked_names_) == list(cold.ranked_names_)
    cells_identical = _cells(warm) == _cells(cold)

    record = {
        "benchmark": "streaming_warm_rerank_vs_cold",
        "kind": "machinery",
        "mode": "tiny" if args.tiny else "full",
        "n_rows": n_rows,
        "n_delta": n_delta,
        "n_pipelines": count,
        "fit_latency_seconds": latency,
        "initial_rank_seconds": round(initial_seconds, 4),
        "warm_rerank_seconds": round(warm_seconds, 4),
        "cold_rerank_seconds": round(cold_seconds, 4),
        "warm_speedup": round(speedup, 2),
        "warm_hits": warm.warm_hits_,
        "prefix_refits": warm.prefix_refits_,
        "cache_memory_hits": warm_cache_stats.memory_hits,
        "ranking_identical": ranking_identical,
        "cells_identical": cells_identical,
        "final_ranking": list(warm.ranked_names_),
    }
    out = Path(args.json) if args.json else _RESULT_PATH
    out.write_text(json.dumps(record, indent=2) + "\n")

    print(f"Streaming benchmark: {count} pipelines, {n_rows}+{n_delta} rows (+5%)")
    print(f"  initial cold rank : {initial_seconds:6.2f}s")
    print(f"  warm re-rank      : {warm_seconds:6.2f}s  ({speedup:.1f}x faster than cold)")
    print(f"  cold re-rank      : {cold_seconds:6.2f}s")
    print(f"  warm hits         : {warm.warm_hits_} (prefix re-fits: {warm.prefix_refits_})")
    print(f"  ranking identical : {ranking_identical} (cells identical: {cells_identical})")

    failures = []
    if speedup < 5.0:
        failures.append(f"warm re-rank only {speedup:.2f}x faster than cold (< 5x gate)")
    if not ranking_identical:
        failures.append("warm and cold rankings diverged on drift-free data")
    if not cells_identical:
        failures.append("warm and cold evaluation cells diverged on drift-free data")
    if warm.warm_hits_ <= 0:
        failures.append("no unchanged-prefix cache hits recorded during the warm re-rank")
    if warm.prefix_refits_ != 0:
        failures.append(
            f"warm re-rank re-fit {warm.prefix_refits_} fully-cached prefix rounds"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
