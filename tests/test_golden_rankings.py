"""Golden rankings: one end-to-end parity gate for AutoAI-TS and T-Daub.

``tests/golden/rankings.json`` pins what the rankings *are*, bit for bit:

- ``autoai``: four zero-conf ``AutoAITS(prediction_horizon=12)`` fits on
  AirPassengers[:72], hyndsight[:84], nn5tn10dim[:84, :1] and the
  three-series nn5tn10dim[:84, :3]: the look-back, the ranking, every
  pipeline's ``(allocation, score)`` cells and final score, the winner, the
  holdout SMAPE and the SHA-256 of ``predict(12)``.
- ``tdaub``: ``TDaub`` over eight statistical forecasters on the full
  hyndsight series at ``n_jobs=1``: the ranking, the cells and the
  ``(phase, allocation)`` progress sequence.  The same run on two worker
  threads must equal that entry too: ``n_jobs`` changes only the wall
  clock, never the schedule.
- ``warm``: a rolling-origin cold rank on 300 rows and a warm re-rank on 340
  rows: both rankings and the warm-hit and prefix-refit counts.

Floats are stored as ``float.hex`` so a one-ulp drift shows.  ``np.exp`` and
the BLAS kernels differ by CPU, so the comparison runs only on the numeric
stack the fixture records (numpy, scipy, Python minor version, machine and
numpy's runtime SIMD features); elsewhere the tests skip and name the
mismatch.  A run never writes the fixture unless asked::

    PYTHONPATH=src python -m pytest tests/test_golden_rankings.py --regen-golden
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro import AutoAITS
from repro.core import TDaub
from repro.data.multivariate_suite import load_multivariate_dataset
from repro.data.univariate_suite import load_univariate_dataset
from repro.forecasters import (
    DoubleExponentialSmoothing,
    DriftForecaster,
    HoltWintersForecaster,
    MeanForecaster,
    SeasonalNaiveForecaster,
    SimpleExponentialSmoothing,
    ThetaForecaster,
    ZeroModelForecaster,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "rankings.json"
HORIZON = 12


def _simd_found() -> list[str]:
    """The ``found`` list of ``numpy.show_runtime()``'s SIMD extensions."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]]


def environment() -> dict:
    # Patch releases keep float semantics; a minor release may not (3.12's
    # builtin sum() of floats is compensated), so the minor version is pinned.
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "simd_found": _simd_found(),
    }


def _hex(value) -> str | None:
    return None if value is None else float(value).hex()


def _evaluation_record(evaluations) -> dict:
    return {
        "cells": {
            name: [
                [int(size), _hex(score)]
                for size, score in zip(evaluation.allocation_sizes, evaluation.scores)
            ]
            for name, evaluation in evaluations.items()
        },
        "final_scores": {
            name: _hex(evaluation.final_score) for name, evaluation in evaluations.items()
        },
    }


def _autoai_section() -> dict:
    inputs = {
        "AirPassengers": load_univariate_dataset("AirPassengers", seed_offset=0)[:72],
        "hyndsight": load_univariate_dataset("hyndsight", seed_offset=0)[:84],
        "nn5tn10dim": load_multivariate_dataset("nn5tn10dim", seed_offset=0)[:84, :1],
        "nn5tn10dim_3series": load_multivariate_dataset("nn5tn10dim", seed_offset=0)[:84, :3],
    }
    section = {}
    for label, series in inputs.items():
        model = AutoAITS(prediction_horizon=HORIZON).fit(series)
        forecast = np.ascontiguousarray(model.predict(HORIZON), dtype=np.float64)
        section[label] = {
            "lookback": int(model.lookback_),
            "ranking": list(model.ranked_pipelines_),
            **_evaluation_record(model.evaluations_),
            "winner": model.best_pipeline_name_,
            "holdout_smape": _hex(model.holdout_report_.smape),
            "forecast_sha256": hashlib.sha256(forecast.tobytes()).hexdigest(),
        }
    return section


def _inventory() -> list:
    return [
        ZeroModelForecaster(horizon=HORIZON),
        DriftForecaster(horizon=HORIZON),
        MeanForecaster(horizon=HORIZON),
        SeasonalNaiveForecaster(seasonal_period=7, horizon=HORIZON),
        SimpleExponentialSmoothing(horizon=HORIZON),
        DoubleExponentialSmoothing(horizon=HORIZON),
        ThetaForecaster(horizon=HORIZON),
        HoltWintersForecaster(seasonal="additive", seasonal_period=7, horizon=HORIZON),
    ]


def _tdaub_run(n_jobs: int, executor: str) -> dict:
    series = load_univariate_dataset("hyndsight", seed_offset=0)
    progress: list[list] = []
    selector = TDaub(
        _inventory(),
        horizon=HORIZON,
        min_allocation_size=24,
        run_to_completion=2,
        n_jobs=n_jobs,
        executor=executor,
        progress_callback=lambda event: progress.append([event["phase"], event["allocation"]]),
    ).fit(series)
    return {
        "ranking": list(selector.ranked_names_),
        **_evaluation_record(selector.evaluations_),
        "progress": progress,
    }


def _tdaub_section() -> dict:
    return {"n_jobs=1": _tdaub_run(1, "serial")}


def _warm_section() -> dict:
    series = load_univariate_dataset("hyndsight", seed_offset=0)
    params = dict(horizon=HORIZON, min_allocation_size=24, eval_protocol="rolling_origin")
    cold = TDaub(_inventory(), **params).fit(series[:300])
    warm = TDaub(_inventory(), warm_start=cold, **params).fit(series[:340])
    return {
        "cold_ranking": list(cold.ranked_names_),
        "warm_ranking": list(warm.ranked_names_),
        "warm_hits": int(warm.warm_hits_),
        "prefix_refits": int(warm.prefix_refits_),
    }


SECTIONS = {"autoai": _autoai_section, "tdaub": _tdaub_section, "warm": _warm_section}


def compute_golden() -> dict:
    return {"environment": environment(), **{name: build() for name, build in SECTIONS.items()}}


def first_difference(expected, actual, path: str = "$"):
    """``(path, expected, actual)`` of the first differing entry, or ``None``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in list(expected) + [key for key in actual if key not in expected]:
            if key not in expected or key not in actual:
                return f"{path}.{key}", expected.get(key), actual.get(key)
            found = first_difference(expected[key], actual[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for index, (left, right) in enumerate(zip(expected, actual)):
            found = first_difference(left, right, f"{path}[{index}]")
            if found is not None:
                return found
        if len(expected) != len(actual):
            return f"{path} length", len(expected), len(actual)
        return None
    return None if expected == actual else (path, expected, actual)


@pytest.fixture(scope="module")
def golden(request) -> dict:
    if request.config.getoption("--regen-golden", default=False):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    recorded = json.loads(GOLDEN_PATH.read_text())
    here = environment()
    for key, expected in recorded["environment"].items():
        if here.get(key) != expected:
            pytest.skip(
                f"golden rankings were recorded on another numeric stack: "
                f"{key} is {here.get(key)!r} here, {expected!r} in the fixture"
            )
    return recorded


def _assert_matches(expected, computed, path: str) -> None:
    # A JSON round trip turns tuples into lists, as in the fixture.
    mismatch = first_difference(expected, json.loads(json.dumps(computed)), path)
    if mismatch is not None:
        at, recorded, found = mismatch
        pytest.fail(f"first difference at {at}: fixture {recorded!r}, this run {found!r}")


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_rankings_match_golden(golden, section):
    _assert_matches(golden[section], SECTIONS[section](), f"$.{section}")


def test_tdaub_on_two_workers_matches_the_one_job_entry(golden):
    _assert_matches(golden["tdaub"]["n_jobs=1"], _tdaub_run(2, "threads"), "$.tdaub.n_jobs=1")
