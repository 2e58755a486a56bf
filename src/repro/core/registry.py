"""Pipeline inventory: the ten pre-composed AutoAI-TS pipelines.

"Currently, pre-composed pipelines are instantiated but the system can also
dynamically generate new pipelines" (paper section 4).  The inventory matches
Table 6 / Figures 14-15 of the paper:

========================================  ===========================================
Pipeline name                             Composition
========================================  ===========================================
``HW_Additive``                           Holt-Winters additive seasonality
``HW_Multiplicative``                     Holt-Winters multiplicative seasonality
``Arima``                                 auto-order ARIMA
``bats``                                  Box-Cox + trend + seasonal + ARMA errors
``MT2RForecaster``                        trend + residual VAR (multivariate hybrid)
``WindowRandomForest``                    random forest over look-back windows
``WindowSVR``                             SVR over look-back windows
``FlattenAutoEnsembler, log``             log transform + flattened-window ensemble
``DifferenceFlattenAutoEnsembler, log``   log transform + differenced-window ensemble
``LocalizedFlattenAutoEnsembler``         localized-window ensemble
========================================  ===========================================

The registry also exposes named factories so users can register additional
pipelines (e.g. the deep-learning candidates) without modifying the system,
which is the extensibility property section 4 advertises ("about 80
different pipelines" were tested with the same mechanism).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

from ..dl.forecaster import MLPForecaster, NBeatsLikeForecaster
from ..exceptions import InvalidParameterError
from ..forecasters.arima import AutoARIMAForecaster
from ..forecasters.bats import BATSForecaster
from ..forecasters.holtwinters import HoltWintersForecaster
from ..forecasters.theta import ThetaForecaster
from ..hybrid.auto_ensembler import (
    DifferenceFlattenAutoEnsembler,
    FlattenAutoEnsembler,
    LocalizedFlattenAutoEnsembler,
)
from ..hybrid.mt2r import MT2RForecaster
from ..hybrid.window_regressor import WindowRandomForestForecaster, WindowSVRForecaster
from ..transforms.stateless import LogTransform
from .base import BaseForecaster
from .pipeline import ForecastingPipeline

__all__ = [
    "PipelineRegistry",
    "default_pipeline_inventory",
    "PAPER_PIPELINE_NAMES",
]

PipelineFactory = Callable[[int, int, bool], ForecastingPipeline]


def _pipeline_factory(
    name: str, use_log: bool, make_forecaster: Callable[..., BaseForecaster]
) -> PipelineFactory:
    """Factory ``(lookback, horizon, allow_log)`` of one named pipeline.

    It returns a fresh, unfitted :class:`ForecastingPipeline`: a log step
    when ``use_log`` and ``allow_log`` both hold, then the forecaster
    ``make_forecaster(lookback=..., horizon=...)`` builds.
    """

    def factory(lookback: int, horizon: int, allow_log: bool) -> ForecastingPipeline:
        return ForecastingPipeline(
            steps=[("log", LogTransform())] if use_log and allow_log else [],
            forecaster=make_forecaster(lookback=lookback, horizon=horizon),
            name_override=name,
        )

    return factory


def _mt2r(lookback: int, horizon: int) -> MT2RForecaster:
    return MT2RForecaster(residual_lags=max(2, min(lookback, 8)), horizon=horizon)


#: ``(name, use_log, make_forecaster)`` of the ten paper pipelines, in the
#: order of Table 6.
_DEFAULT_PIPELINES = (
    ("FlattenAutoEnsembler, log", True, FlattenAutoEnsembler),
    ("WindowRandomForest", False, WindowRandomForestForecaster),
    ("WindowSVR", False, WindowSVRForecaster),
    ("MT2RForecaster", False, _mt2r),
    ("bats", False, lambda lookback, horizon: BATSForecaster(horizon=horizon)),
    ("DifferenceFlattenAutoEnsembler, log", True, DifferenceFlattenAutoEnsembler),
    ("LocalizedFlattenAutoEnsembler", False, LocalizedFlattenAutoEnsembler),
    ("Arima", False, lambda lookback, horizon: AutoARIMAForecaster(horizon=horizon)),
    ("HW_Additive", False,
     lambda lookback, horizon: HoltWintersForecaster(seasonal="additive", horizon=horizon)),
    ("HW_Multiplicative", False,
     lambda lookback, horizon: HoltWintersForecaster(seasonal="multiplicative", horizon=horizon)),
)

#: The ten pipeline names of the paper, in the order of Table 6.
PAPER_PIPELINE_NAMES = tuple(name for name, _, _ in _DEFAULT_PIPELINES)

#: Extra (non-default) pipelines: deep learning and Theta candidates.
_OPTIONAL_PIPELINES = (
    ("MLPForecaster", False,
     lambda lookback, horizon: MLPForecaster(lookback=max(lookback, 4), horizon=horizon)),
    ("NBeatsLike", False,
     lambda lookback, horizon: NBeatsLikeForecaster(lookback=max(lookback, 4), horizon=horizon)),
    ("Theta", False, lambda lookback, horizon: ThetaForecaster(horizon=horizon)),
)


def _factories(table) -> Dict[str, PipelineFactory]:
    return {name: _pipeline_factory(name, use_log, make) for name, use_log, make in table}


class PipelineRegistry:
    """Factory registry that instantiates the pipeline inventory.

    The default registry knows the ten paper pipelines plus optional
    deep-learning and Theta candidates.  New factories can be registered at
    runtime; the orchestrator only relies on the common pipeline API.
    """

    def __init__(self, include_optional: bool = False):
        self._factories: Dict[str, PipelineFactory] = _factories(_DEFAULT_PIPELINES)
        self._optional: Dict[str, PipelineFactory] = _factories(_OPTIONAL_PIPELINES)
        if include_optional:
            self._factories.update(self._optional)

    # -- registration ---------------------------------------------------------
    def register(self, name: str, factory: PipelineFactory, overwrite: bool = False) -> None:
        """Register a new pipeline factory under ``name``."""
        if name in self._factories and not overwrite:
            raise InvalidParameterError(f"Pipeline {name!r} is already registered.")
        self._factories[name] = factory

    def unregister(self, name: str) -> None:
        """Remove a pipeline factory."""
        if name not in self._factories:
            raise InvalidParameterError(f"Pipeline {name!r} is not registered.")
        del self._factories[name]

    def enable_optional(self, names: Iterable[str] | None = None) -> None:
        """Enable some or all optional pipelines (DL / Theta candidates)."""
        for name, factory in self._optional.items():
            if names is None or name in set(names):
                self._factories[name] = factory

    @property
    def names(self) -> list[str]:
        """Registered pipeline names, paper pipelines first."""
        ordered = [name for name in PAPER_PIPELINE_NAMES if name in self._factories]
        extras = sorted(name for name in self._factories if name not in set(ordered))
        return ordered + extras

    # -- instantiation ----------------------------------------------------------
    def create(
        self, name: str, lookback: int = 8, horizon: int = 1, allow_log: bool = True
    ) -> ForecastingPipeline:
        """Instantiate one pipeline by name."""
        if name not in self._factories:
            raise InvalidParameterError(
                f"Unknown pipeline {name!r}. Registered: {self.names}."
            )
        pipeline = self._factories[name](int(lookback), int(horizon), bool(allow_log))
        pipeline.set_horizon(int(horizon))
        return pipeline

    def create_all(
        self,
        lookback: int = 8,
        horizon: int = 1,
        allow_log: bool = True,
        names: Iterable[str] | None = None,
    ) -> list[ForecastingPipeline]:
        """Instantiate every registered pipeline (or the requested subset)."""
        selected = list(names) if names is not None else self.names
        return [
            self.create(name, lookback=lookback, horizon=horizon, allow_log=allow_log)
            for name in selected
        ]


def default_pipeline_inventory(
    lookback: int = 8, horizon: int = 1, allow_log: bool = True
) -> list[ForecastingPipeline]:
    """Convenience helper returning the ten paper pipelines."""
    return PipelineRegistry().create_all(
        lookback=lookback, horizon=horizon, allow_log=allow_log
    )
