"""Benchmark configuration: toolkit factories and experiment profiles.

A *toolkit factory* is a callable ``(horizon) -> forecaster`` returning a
fresh zero-conf model; the runner calls it once per data set so state never
leaks between runs.  Profiles bundle the knobs that trade fidelity for wall
clock time: the paper-scale profile uses every data set at full length,
while the fast profile (default for the pytest benchmarks) truncates series
and subsamples the suites so the whole matrix finishes on a laptop in
minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from ..baselines import (
    ComponentToolkit,
    DeepARLike,
    GLSToolkit,
    MotifToolkit,
    NBeatsBaseline,
    PmdarimaLike,
    ProphetLike,
    PyAFLike,
    RollingRegressorToolkit,
    WindowRegressorToolkit,
)
from ..core.autoai_ts import AutoAITS
from ..core.base import BaseForecaster
from ..core.registry import PAPER_PIPELINE_NAMES, PipelineRegistry
from ..data.multivariate_suite import MULTIVARIATE_DATASET_SPECS, load_multivariate_dataset
from ..data.univariate_suite import UNIVARIATE_DATASET_SPECS, load_univariate_dataset

__all__ = [
    "BenchmarkProfile",
    "FAST_PROFILE",
    "FULL_PROFILE",
    "sota_toolkit_factories",
    "autoai_toolkit_factories",
    "internal_pipeline_factories",
    "profile_univariate_datasets",
    "profile_multivariate_datasets",
]

ToolkitFactory = Callable[[int], BaseForecaster]


@dataclass(frozen=True)
class BenchmarkProfile:
    """Size/scope knobs for one benchmark run.

    Attributes
    ----------
    name:
        Profile label used in reports.
    max_series_length:
        Cap on the length of each (surrogate) series; ``None`` = paper size.
    univariate_limit / multivariate_limit:
        Number of data sets drawn from each suite; ``None`` = all of them.
    horizon:
        Forecasting horizon (the paper reports horizon 12).
    """

    name: str
    max_series_length: int | None
    univariate_limit: int | None
    multivariate_limit: int | None
    horizon: int = 12


#: Laptop-scale profile used by the pytest benchmarks: a representative
#: subset of data sets, each truncated, so the full toolkit matrix runs in
#: minutes while preserving the rank structure.
FAST_PROFILE = BenchmarkProfile(
    name="fast",
    max_series_length=300,
    univariate_limit=12,
    multivariate_limit=3,
    horizon=12,
)

#: Paper-scale profile: all 62 + 9 data sets at their published lengths.
FULL_PROFILE = BenchmarkProfile(
    name="full",
    max_series_length=None,
    univariate_limit=None,
    multivariate_limit=None,
    horizon=12,
)


def _spread_indices(total: int, limit: int | None) -> list[int]:
    """Pick ``limit`` indices spread evenly over ``range(total)``.

    The suites are ordered by data-set size and grouped by domain, so an
    evenly spread subset keeps the fast profile representative (seasonal,
    trending, bursty, random-walk and energy data sets all appear) instead of
    only sampling the small monthly sets at the front.
    """
    if limit is None or limit >= total:
        return list(range(total))
    return sorted(set(np.linspace(0, total - 1, int(limit)).round().astype(int).tolist()))


def profile_univariate_datasets(profile: BenchmarkProfile) -> Dict[str, np.ndarray]:
    """Load the univariate suite subset described by a profile."""
    indices = _spread_indices(len(UNIVARIATE_DATASET_SPECS), profile.univariate_limit)
    return {
        UNIVARIATE_DATASET_SPECS[i].name: load_univariate_dataset(
            UNIVARIATE_DATASET_SPECS[i].name, max_length=profile.max_series_length
        )
        for i in indices
    }


def profile_multivariate_datasets(profile: BenchmarkProfile) -> Dict[str, np.ndarray]:
    """Load the multivariate suite subset described by a profile."""
    indices = _spread_indices(len(MULTIVARIATE_DATASET_SPECS), profile.multivariate_limit)
    return {
        MULTIVARIATE_DATASET_SPECS[i].name: load_multivariate_dataset(
            MULTIVARIATE_DATASET_SPECS[i].name, max_length=profile.max_series_length
        )
        for i in indices
    }


def sota_toolkit_factories() -> Dict[str, ToolkitFactory]:
    """Factories for the ten SOTA toolkits with their Table 3 defaults."""
    return {
        "PMDArima": lambda horizon: PmdarimaLike(horizon=horizon),
        "DeepAR": lambda horizon: DeepARLike(horizon=horizon),
        "WindowRegressor": lambda horizon: WindowRegressorToolkit(horizon=horizon),
        "PyAF": lambda horizon: PyAFLike(horizon=horizon),
        "GLS": lambda horizon: GLSToolkit(horizon=horizon),
        "RollingRegressor": lambda horizon: RollingRegressorToolkit(horizon=horizon),
        "NBeats": lambda horizon: NBeatsBaseline(horizon=horizon, epochs=30),
        "Motif": lambda horizon: MotifToolkit(horizon=horizon),
        "Component": lambda horizon: ComponentToolkit(horizon=horizon),
        "Prophet": lambda horizon: ProphetLike(horizon=horizon),
    }


def autoai_toolkit_factories(store=None, budget: float | None = None) -> Dict[str, ToolkitFactory]:
    """Factory for AutoAI-TS itself (10 internal pipelines, zero-conf).

    ``store`` (a shared directory, a store URL — e.g. an object store no
    two cells need a common mount for — or any
    :class:`~repro.store.StoreBackend`) points the inner pipeline ranking
    at a persistent evaluation store shared across cells and runs, and
    ``budget`` bounds each cell's ranking phase in wall-clock seconds on
    every backend.
    """

    def make(horizon: int) -> AutoAITS:
        return AutoAITS(prediction_horizon=horizon, store=store, budget=budget)

    return {"AutoAI-TS": make}


def internal_pipeline_factories(lookback: int = 8) -> Dict[str, ToolkitFactory]:
    """One factory per internal AutoAI-TS pipeline (Table 6 / Figures 14-15)."""
    registry = PipelineRegistry()

    def make_factory(pipeline_name: str) -> ToolkitFactory:
        def factory(horizon: int) -> BaseForecaster:
            return registry.create(pipeline_name, lookback=lookback, horizon=horizon)

        return factory

    return {name: make_factory(name) for name in PAPER_PIPELINE_NAMES}
