"""Tests for the quality check, cleaning, pipeline composition and progress reporter."""

import numpy as np
import pytest

from repro.core import ForecastingPipeline, ProgressReporter, check_data_quality, clean_data
from repro.core.base import BaseTransformer
from repro.exceptions import DataQualityError, NotFittedError, PipelineExecutionError
from repro.forecasters.holtwinters import HoltWintersForecaster
from repro.forecasters.naive import ZeroModelForecaster
from repro.hybrid.auto_ensembler import FlattenAutoEnsembler
from repro.metrics import smape
from repro.ml import RidgeRegression
from repro.transforms import LogTransform


class TestQualityCheck:
    def test_clean_data_report(self, seasonal_series):
        report = check_data_quality(seasonal_series)
        assert report.n_samples == len(seasonal_series)
        assert report.n_series == 1
        assert not report.has_missing
        assert not report.has_negative
        assert report.allow_log_transforms

    def test_missing_values_detected(self):
        data = np.array([1.0, np.nan, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
        report = check_data_quality(data)
        assert report.has_missing
        assert report.missing_fraction == pytest.approx(1 / 9)
        assert any("Missing" in message for message in report.messages)

    def test_negative_values_disable_log(self):
        data = np.array([-1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        report = check_data_quality(data)
        assert report.has_negative
        assert not report.allow_log_transforms

    def test_constant_series_flagged(self):
        data = np.column_stack([np.arange(20.0), np.full(20, 5.0)])
        report = check_data_quality(data)
        assert report.constant_series == [1]

    def test_too_short_raises(self):
        with pytest.raises(DataQualityError):
            check_data_quality(np.array([1.0, 2.0, 3.0]))

    def test_all_nan_raises(self):
        with pytest.raises(DataQualityError):
            check_data_quality(np.full(20, np.nan))

    def test_infinite_values_count_as_missing(self):
        data = np.array([1.0, np.inf, 3.0, 4.0, -np.inf, 6.0, 7.0, 8.0])
        report = check_data_quality(data)
        assert report.has_missing and not report.has_negative
        assert report.missing_fraction == pytest.approx(2 / 8)
        assert any("Infinite" in message for message in report.messages)
        cleaned = clean_data(data, report)
        assert cleaned[1, 0] == pytest.approx(2.0) and cleaned[4, 0] == pytest.approx(5.0)
        with pytest.raises(DataQualityError):
            check_data_quality(np.resize([np.inf, -np.inf, np.nan], 20))

    def test_string_data_raises(self):
        with pytest.raises(DataQualityError):
            check_data_quality(["a"] * 20)

    def test_clean_data_interpolates(self):
        data = np.array([1.0, np.nan, 3.0, 4.0, np.nan, 6.0, 7.0, 8.0])
        cleaned = clean_data(data)
        assert not np.isnan(cleaned).any()
        assert cleaned[1, 0] == pytest.approx(2.0)

    def test_clean_data_copies_when_clean(self, seasonal_series):
        cleaned = clean_data(seasonal_series)
        assert cleaned is not seasonal_series
        assert np.allclose(cleaned.ravel(), seasonal_series)


class _StandardizeTransform(BaseTransformer):
    """Affine transform that learns a per-column shift and scale in ``fit``."""

    def fit(self, X, y=None) -> "_StandardizeTransform":
        X = np.asarray(X, dtype=float)
        self.shift_ = X.mean(axis=0)
        self.scale_ = X.std(axis=0)
        return self

    def transform(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.shift_) / self.scale_

    def inverse_transform(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) * self.scale_ + self.shift_


class TestForecastingPipeline:
    def test_transform_then_forecast_roundtrip(self, weekly_series):
        pipeline = ForecastingPipeline(
            steps=[("log", LogTransform())],
            forecaster=HoltWintersForecaster(seasonal="additive", seasonal_period=7, horizon=14),
        )
        train, test = weekly_series[:-14], weekly_series[-14:]
        pipeline.fit(train)
        forecast = pipeline.predict(14)
        assert forecast.shape == (14, 1)
        # Forecast must come back on the original scale, not the log scale.
        assert forecast.mean() > 10.0
        assert smape(test, forecast) < 25.0

    def test_inverse_applied_in_reverse_order(self, weekly_series):
        pipeline = ForecastingPipeline(
            steps=[("scale", _StandardizeTransform()), ("log", LogTransform())],
            forecaster=ZeroModelForecaster(horizon=3),
        )
        pipeline.fit(weekly_series)
        forecast = pipeline.predict(3)
        # Zero model repeats the last (transformed) value, so inverting both
        # transforms must give back (approximately) the last original value.
        assert np.allclose(forecast.ravel(), weekly_series[-1], rtol=1e-6)

    def test_name_derived_and_overridden(self):
        derived = ForecastingPipeline(
            steps=[("log", LogTransform())], forecaster=ZeroModelForecaster()
        )
        assert "log" in derived.name
        explicit = ForecastingPipeline(forecaster=ZeroModelForecaster(), name_override="custom")
        assert explicit.name == "custom"

    def test_missing_forecaster_raises(self, seasonal_series):
        with pytest.raises(PipelineExecutionError):
            ForecastingPipeline(steps=[]).fit(seasonal_series)

    def test_predict_before_fit_raises(self):
        pipeline = ForecastingPipeline(forecaster=ZeroModelForecaster())
        with pytest.raises(NotFittedError):
            pipeline.predict(1)

    def test_failure_inside_forecaster_is_wrapped(self, seasonal_series):
        class _BrokenRegressor(RidgeRegression):
            def fit(self, X, y):
                raise RuntimeError("training blew up")

        pipeline = ForecastingPipeline(
            forecaster=FlattenAutoEnsembler(lookback=8, horizon=1, regressors=[_BrokenRegressor()])
        )
        with pytest.raises(PipelineExecutionError) as excinfo:
            pipeline.fit(seasonal_series)
        assert excinfo.value.stage == "fit"

    def test_set_horizon_propagates(self):
        pipeline = ForecastingPipeline(forecaster=ZeroModelForecaster(horizon=1))
        pipeline.set_horizon(9)
        assert pipeline.forecaster.horizon == 9
        assert pipeline.default_horizon == 9

    def test_set_lookback_propagates(self):
        pipeline = ForecastingPipeline(forecaster=FlattenAutoEnsembler(lookback=8))
        pipeline.set_lookback(20)
        assert pipeline.forecaster.lookback == 20

    def test_original_estimators_not_mutated_by_fit(self, seasonal_series):
        forecaster = ZeroModelForecaster(horizon=2)
        pipeline = ForecastingPipeline(forecaster=forecaster)
        pipeline.fit(seasonal_series)
        assert not forecaster.is_fitted  # the pipeline fits a clone


class TestProgressReporter:
    def test_collects_events_and_stages(self):
        reporter = ProgressReporter(verbose=False)
        reporter.report("stage-a", "first")
        reporter.report("stage-b", "second")
        reporter.report("stage-a", "third")
        assert len(reporter.events) == 3
        assert reporter.stages() == ["stage-a", "stage-b"]
        assert reporter.events[0].elapsed_seconds <= reporter.events[-1].elapsed_seconds

    def test_render_ranking_table(self):
        reporter = ProgressReporter()
        table = reporter.render_ranking([("pipeline-x", -1.23, 4.5), ("pipeline-y", -2.0, 0.1)])
        assert "pipeline-x" in table
        assert "1" in table.splitlines()[1]

    def test_verbose_prints(self, capsys):
        reporter = ProgressReporter(verbose=True)
        reporter.report("stage", "hello world")
        captured = capsys.readouterr()
        assert "hello world" in captured.out
