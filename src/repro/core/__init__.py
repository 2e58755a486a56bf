"""Core of the AutoAI-TS reproduction: estimator framework and orchestrator."""

from .autoai_ts import AutoAITS, HoldoutReport
from .base import (
    BaseEstimator,
    BaseForecaster,
    BaseRegressor,
    BaseTransformer,
    check_is_fitted,
    clone,
)
from .lookback import DEFAULT_LOOKBACK, LookbackDiscovery, LookbackResult
from .pipeline import ForecastingPipeline
from .progress import ProgressReporter
from .quality import QualityReport, check_data_quality, clean_data
from .registry import PAPER_PIPELINE_NAMES, PipelineRegistry, default_pipeline_inventory
from .tdaub import PipelineEvaluation, TDaub, TDaubResult, TDaubWarmState

__all__ = [
    "AutoAITS",
    "HoldoutReport",
    "BaseEstimator",
    "BaseForecaster",
    "BaseRegressor",
    "BaseTransformer",
    "check_is_fitted",
    "clone",
    "LookbackDiscovery",
    "LookbackResult",
    "DEFAULT_LOOKBACK",
    "ForecastingPipeline",
    "ProgressReporter",
    "QualityReport",
    "check_data_quality",
    "clean_data",
    "PipelineRegistry",
    "default_pipeline_inventory",
    "PAPER_PIPELINE_NAMES",
    "TDaub",
    "TDaubResult",
    "TDaubWarmState",
    "PipelineEvaluation",
]
