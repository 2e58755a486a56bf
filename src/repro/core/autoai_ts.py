"""AutoAITS: the zero-configuration orchestrator (paper figure 2).

Given a 2-D array of time series, :class:`AutoAITS` transparently performs
every stage of the paper's architecture:

1. **Quality check** — validate the input, detect missing/negative values,
   clean the data (interpolation) and decide which transforms are allowed.
2. **Zero Model** — train the trivial last-value baseline immediately so a
   usable model exists from the first seconds.
3. **Look-back window computation** — discover candidate look-back lengths
   from timestamps and values (skipped when the user supplies one).
4. **Pipeline generation** — instantiate the pipeline inventory with the
   chosen look-back, horizon and transform gates.
5. **T-Daub** — rank pipelines on reverse data allocations of the training
   split, keeping a holdout for reported evaluation.
6. **Final training** — retrain the best pipeline(s) on the full training
   data and report holdout accuracy and timing.

The public API is scikit-learn style: ``fit(X)``, ``predict(horizon)``,
``score(X_true)``; columns of ``X`` are individual time series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .._validation import as_2d_array, check_fraction, check_horizon, check_positive_int
from ..exceptions import InvalidParameterError, NonFiniteForecastError, NotFittedError
from ..forecasters.naive import ZeroModelForecaster
from ..metrics.errors import smape
from .base import BaseForecaster
from .lookback import LookbackDiscovery
from .progress import ProgressReporter
from .quality import check_data_quality, clean_data
from .registry import PipelineRegistry
from .tdaub import TDaub

__all__ = ["AutoAITS", "HoldoutReport"]


@dataclass
class HoldoutReport:
    """Accuracy and timing of the selected pipeline(s) on the holdout split."""

    pipeline_name: str
    smape: float
    train_seconds: float
    predict_seconds: float
    horizon: int


class AutoAITS(BaseForecaster):
    """Zero-conf AutoAI for time series forecasting.

    Parameters
    ----------
    prediction_horizon:
        Number of future values to predict (>= 1).
    lookback_window:
        Look-back window length for ML/DL pipelines.  ``None`` (default)
        triggers the automatic discovery of section 4.1.
    max_look_back:
        Optional upper bound handed to the look-back discovery.
    holdout_fraction:
        Fraction of the data kept out of pipeline selection and used only for
        the reported evaluation (paper: 20%).
    pipeline_names:
        Subset of registry pipelines to consider (default: all ten).
    include_deep_learning:
        Also include the MLP / N-BEATS-like pipelines in the inventory.
    run_to_completion:
        Number of top pipelines retrained on the full training split by T-Daub.
    positive_forecasts:
        Clip forecasts at zero (useful for count-like data); off by default.
    verbose:
        Print progress messages (quality check, look-back, T-Daub, holdout).
    n_jobs:
        Number of pipeline evaluations T-Daub runs concurrently in its
        fixed-allocation rounds and scoring phase.  It changes only the
        wall clock: every ``n_jobs`` and backend ranks as the paper's
        sequential algorithm does (``n_jobs=1``, the default).
    executor:
        Execution backend handed to T-Daub: ``None`` (auto), ``"serial"``,
        ``"threads"``, ``"processes"`` or a ``repro.exec.BaseExecutor``.
    store:
        A persistent evaluation store handed to T-Daub: a directory path,
        an ``http://`` object-store URL (for shards that share no
        filesystem) or any :class:`~repro.store.StoreBackend`.  Fits of
        identical (pipeline, data slice, horizon) combinations are served
        from the store across processes and runs — point several
        benchmark workers at one store to split the work.
    budget:
        Wall-clock budget in seconds for the T-Daub ranking phase,
        enforced cooperatively on every execution backend.  When it runs
        out the ranking falls back to the learning-curve projections
        gathered so far (the fitted model is still delivered).
    progress_callback:
        Forwarded verbatim to T-Daub (see
        :class:`~repro.core.tdaub.TDaub`): per-round progress and
        learning-curve cost projections, doubling as an in-fit liveness
        heartbeat for schedulers watching this fit from outside.
    """

    def __init__(
        self,
        prediction_horizon: int = 1,
        lookback_window: int | None = None,
        max_look_back: int | None = None,
        holdout_fraction: float = 0.2,
        pipeline_names: list[str] | None = None,
        include_deep_learning: bool = False,
        min_allocation_size: int | None = None,
        geo_increment_size: float = 2.0,
        run_to_completion: int = 1,
        positive_forecasts: bool = False,
        verbose: bool = False,
        random_state: int | None = 0,
        n_jobs: int | None = None,
        executor=None,
        store=None,
        budget: float | None = None,
        progress_callback=None,
    ):
        self.prediction_horizon = prediction_horizon
        self.lookback_window = lookback_window
        self.max_look_back = max_look_back
        self.holdout_fraction = holdout_fraction
        self.pipeline_names = pipeline_names
        self.include_deep_learning = include_deep_learning
        self.min_allocation_size = min_allocation_size
        self.geo_increment_size = geo_increment_size
        self.run_to_completion = run_to_completion
        self.positive_forecasts = positive_forecasts
        self.verbose = verbose
        self.random_state = random_state
        self.n_jobs = n_jobs
        self.executor = executor
        self.store = store
        self.budget = budget
        self.progress_callback = progress_callback

    # -- orchestration ---------------------------------------------------------
    def fit(self, X, y=None, timestamps=None) -> "AutoAITS":
        """Run the full zero-conf workflow on the input series."""
        horizon = check_horizon(self.prediction_horizon)
        check_fraction(self.holdout_fraction, "holdout_fraction")
        for name in ("lookback_window", "max_look_back"):
            if getattr(self, name) is not None:
                check_positive_int(getattr(self, name), name)
        start_time = time.perf_counter()
        progress = ProgressReporter(verbose=self.verbose)
        self.progress_ = progress

        # 1. Quality check and cleaning.
        progress.report("quality-check", "validating input data")
        X = as_2d_array(X, name="input data")
        self.quality_report_ = check_data_quality(X)
        for message in self.quality_report_.messages:
            progress.report("quality-check", message)
        data = clean_data(X, self.quality_report_)

        # 2. Zero Model: an immediately available baseline.
        progress.report("zero-model", "training last-value baseline")
        self.zero_model_ = ZeroModelForecaster(horizon=horizon).fit(data)

        # Holdout split (last 20% of the data is never shown to T-Daub).
        n_holdout = max(int(round(len(data) * float(self.holdout_fraction))), horizon)
        n_holdout = min(n_holdout, len(data) // 2)
        if len(data) - n_holdout < 8:
            raise InvalidParameterError(
                f"Not enough data ({len(data)} samples) to reserve a holdout of "
                f"{n_holdout} samples."
            )
        train, holdout = data[: len(data) - n_holdout], data[len(data) - n_holdout :]
        self._train_data = train
        self._full_data = data

        # 3. Look-back window computation (skipped when the user provides one).
        if self.lookback_window is not None:
            lookback = int(self.lookback_window)
            progress.report("look-back", f"user supplied look-back window: {lookback}")
            self.lookback_result_ = None
        else:
            discovery = LookbackDiscovery(
                max_look_back=self.max_look_back, random_state=self.random_state
            )
            self.lookback_result_ = discovery.discover(train, timestamps=timestamps)
            lookback = self.lookback_result_.selected
            progress.report(
                "look-back",
                f"discovered look-back window {lookback} "
                f"(candidates: {self.lookback_result_.candidates})",
            )
        self.lookback_ = lookback

        # 4. Pipeline generation.
        registry = PipelineRegistry(include_optional=self.include_deep_learning)
        self.registry_ = registry
        pipelines = registry.create_all(
            lookback=lookback,
            horizon=horizon,
            allow_log=self.quality_report_.allow_log_transforms,
            names=self.pipeline_names,
        )
        progress.report("pipeline-generation", f"instantiated {len(pipelines)} pipelines")

        # 5. T-Daub ranking and selection on the training split.
        tdaub = TDaub(
            pipelines=pipelines,
            min_allocation_size=self.min_allocation_size,
            geo_increment_size=self.geo_increment_size,
            run_to_completion=self.run_to_completion,
            horizon=horizon,
            verbose=self.verbose,
            n_jobs=self.n_jobs,
            executor=self.executor,
            store=self.store,
            budget=self.budget,
            progress_callback=self.progress_callback,
        )
        progress.report("t-daub", "ranking pipelines with reverse data allocation")
        tdaub.fit(train)
        self.tdaub_ = tdaub
        self.budget_exhausted_ = getattr(tdaub, "budget_exhausted_", False)
        self.ranked_pipelines_ = tdaub.ranked_names_
        self.evaluations_ = tdaub.evaluations_
        progress.report(
            "t-daub",
            "ranking: " + ", ".join(tdaub.ranked_names_[: min(3, len(tdaub.ranked_names_))]),
        )

        # 6. Evaluate the winner on the holdout, then retrain it on all data.
        best_name = tdaub.best_pipeline_name_ if tdaub.best_pipeline_ is not None else None
        if best_name is None:
            progress.report("holdout", "all pipelines failed; falling back to Zero Model")
            self.best_pipeline_ = self.zero_model_
            self.best_pipeline_name_ = "ZeroModel"
            self.holdout_report_ = HoldoutReport(
                pipeline_name="ZeroModel",
                smape=smape(holdout, self.zero_model_.predict(len(holdout))),
                train_seconds=0.0,
                predict_seconds=0.0,
                horizon=horizon,
            )
        else:
            predict_start = time.perf_counter()
            holdout_forecast = tdaub.best_pipeline_.predict(len(holdout))
            predict_seconds = time.perf_counter() - predict_start
            holdout_smape = smape(holdout, holdout_forecast)
            train_seconds = tdaub.evaluations_[best_name].train_seconds
            self.holdout_report_ = HoldoutReport(
                pipeline_name=best_name,
                smape=holdout_smape,
                train_seconds=train_seconds,
                predict_seconds=predict_seconds,
                horizon=horizon,
            )
            progress.report(
                "holdout",
                f"best pipeline {best_name}: SMAPE={holdout_smape:.2f} "
                f"(train {train_seconds:.2f}s)",
            )

            # Final refit on the complete cleaned data set so the deployed
            # model uses every observation.
            progress.report("final-training", f"retraining {best_name} on all data")
            final_pipeline = registry.create(
                best_name,
                lookback=lookback,
                horizon=horizon,
                allow_log=self.quality_report_.allow_log_transforms,
            )
            try:
                final_pipeline.fit(data)
                self.best_pipeline_ = final_pipeline
            except Exception:  # noqa: BLE001 - keep the T-Daub-trained model
                self.best_pipeline_ = tdaub.best_pipeline_
            self.best_pipeline_name_ = best_name

        self.total_seconds_ = time.perf_counter() - start_time
        progress.report("done", f"total {self.total_seconds_:.2f}s")
        return self

    # -- prediction --------------------------------------------------------------
    def predict(self, horizon: int | None = None) -> np.ndarray:
        """Forecast future values with the selected pipeline.

        Returns a 2-D array with ``horizon`` rows and one column per input
        series (paper section 3 data semantics).  Raises
        :class:`~repro.exceptions.NonFiniteForecastError` instead of
        returning NaN or inf, e.g. when the continuation exceeds float64.
        """
        if not hasattr(self, "best_pipeline_"):
            raise NotFittedError("AutoAITS")
        horizon = check_horizon(
            horizon if horizon is not None else self.prediction_horizon
        )
        # Overflow surfaces as the error below, not as a RuntimeWarning.
        with np.errstate(all="ignore"):
            forecast = np.asarray(self.best_pipeline_.predict(horizon), dtype=float)
        if forecast.ndim == 1:
            forecast = forecast.reshape(-1, 1)
        finite_rows = np.isfinite(forecast).all(axis=1)
        if not finite_rows.all():
            step = int(np.argmin(finite_rows)) + 1
            raise NonFiniteForecastError(
                f"pipeline {self.best_pipeline_name_!r} forecast is non-finite "
                f"at step {step} of {horizon}"
            )
        if self.positive_forecasts:
            forecast = np.clip(forecast, 0.0, None)
        return forecast

    def score(self, X_true, horizon: int | None = None) -> float:
        """Negative SMAPE of forecasts against ``X_true`` (higher is better)."""
        X_true = as_2d_array(X_true, name="X_true")
        steps = horizon if horizon is not None else len(X_true)
        forecast = self.predict(steps)
        rows = min(len(forecast), len(X_true))
        return -smape(X_true[:rows], forecast[:rows])

    # -- reporting ----------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable summary of the run (ranking plus holdout accuracy)."""
        if not hasattr(self, "best_pipeline_"):
            raise NotFittedError("AutoAITS")
        rows = self.tdaub_.result_.ranking_table() if hasattr(self, "tdaub_") else []
        lines = [
            f"AutoAI-TS run summary ({self.total_seconds_:.2f}s total)",
            f"  look-back window : {self.lookback_}",
            f"  best pipeline    : {self.best_pipeline_name_}",
            f"  holdout SMAPE    : {self.holdout_report_.smape:.3f}",
            "  pipeline ranking :",
        ]
        for rank, (name, score, seconds) in enumerate(rows, start=1):
            lines.append(f"    {rank:>2d}. {name:<40s} score={score:8.3f}  {seconds:7.2f}s")
        return "\n".join(lines)
