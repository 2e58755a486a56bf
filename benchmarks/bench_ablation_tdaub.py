"""Ablation A1: T-Daub reverse allocation vs original Daub vs full evaluation.

The design choice behind section 4.2 is that allocating the *most recent*
data first (reverse allocation) ranks pipelines more faithfully on time
series than the original Daub's oldest-first allocation
(``TDaub(allocation_direction="oldest_first")``), while both are much
cheaper than training every pipeline on the full data.  The benchmark runs
the three selectors on a regime-change series (old regime flat, recent
regime trending) and compares selection quality and cost.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import TDaub, clone
from repro.core.registry import PipelineRegistry
from repro.metrics import smape

_HORIZON = 12
_PIPELINE_NAMES = ["HW_Additive", "MT2RForecaster", "Arima", "LocalizedFlattenAutoEnsembler"]


def _regime_change_series() -> np.ndarray:
    """Flat-then-trending series where only the recent regime matters."""
    rng = np.random.default_rng(42)
    flat = 100.0 + rng.normal(0, 1.0, 260)
    t = np.arange(140.0)
    trending = 100.0 + 1.5 * t + 6.0 * np.sin(2 * np.pi * t / 12.0) + rng.normal(0, 1.0, 140)
    return np.concatenate([flat, trending])


def _pipelines():
    return PipelineRegistry().create_all(lookback=12, horizon=_HORIZON, names=_PIPELINE_NAMES)


def _evaluate_selector(selector, train, test):
    start = time.perf_counter()
    selector.fit(train)
    seconds = time.perf_counter() - start
    forecast = selector.best_pipeline_.predict(len(test))
    return smape(test, forecast), seconds, selector


def test_ablation_tdaub_vs_daub_vs_full(benchmark):
    series = _regime_change_series()
    train, test = series[:-_HORIZON], series[-_HORIZON:]

    def run_tdaub():
        return _evaluate_selector(
            TDaub(pipelines=_pipelines(), horizon=_HORIZON, min_allocation_size=40), train, test
        )

    tdaub_smape, tdaub_seconds, tdaub_selector = benchmark.pedantic(
        run_tdaub, rounds=1, iterations=1
    )

    daub_smape, daub_seconds, _ = _evaluate_selector(
        TDaub(
            pipelines=_pipelines(),
            horizon=_HORIZON,
            min_allocation_size=40,
            allocation_direction="oldest_first",
        ),
        train,
        test,
    )

    # "Full evaluation": every pipeline trained on all the data, best kept.
    full_start = time.perf_counter()
    full_scores = {}
    for pipeline in _pipelines():
        candidate = clone(pipeline)
        candidate.set_horizon(_HORIZON)
        candidate.fit(train)
        full_scores[pipeline.name] = smape(test, candidate.predict(len(test)))
    full_seconds = time.perf_counter() - full_start
    full_best_smape = min(full_scores.values())

    print()
    print("Ablation A1: pipeline selection strategies on a regime-change series")
    print(f"  T-Daub (recent first) : SMAPE {tdaub_smape:6.2f}  in {tdaub_seconds:6.2f}s")
    print(f"  Daub   (oldest first) : SMAPE {daub_smape:6.2f}  in {daub_seconds:6.2f}s")
    print(f"  Full evaluation       : SMAPE {full_best_smape:6.2f}  in {full_seconds:6.2f}s")
    print(f"  winning pipeline (T-Daub): {tdaub_selector.best_pipeline_name_}")

    # T-Daub's selection should be at least as good as oldest-first Daub's and
    # close to the full-evaluation oracle.
    assert tdaub_smape <= daub_smape + 1.0
    assert tdaub_smape <= full_best_smape * 3.0 + 5.0
