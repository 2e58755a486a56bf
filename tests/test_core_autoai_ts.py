"""Integration tests for the AutoAITS zero-conf orchestrator."""

import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.ml
from repro import AutoAITS
from repro.exceptions import InvalidParameterError, NonFiniteForecastError, NotFittedError
from repro.metrics import smape

#: A small pipeline subset keeps the orchestration tests fast while still
#: exercising statistical, hybrid and window-ML pipelines together.
FAST_PIPELINES = ["HW_Additive", "MT2RForecaster", "WindowSVR", "Arima"]


@pytest.fixture(scope="module")
def fitted_model(seasonal_series):
    model = AutoAITS(prediction_horizon=12, pipeline_names=FAST_PIPELINES, random_state=0)
    return model.fit(seasonal_series)


class TestZeroConfWorkflow:
    def test_all_stages_reported(self, fitted_model):
        stages = fitted_model.progress_.stages()
        for stage in ("quality-check", "zero-model", "look-back", "pipeline-generation",
                      "t-daub", "holdout", "done"):
            assert stage in stages

    def test_lookback_discovered(self, fitted_model):
        assert 2 <= fitted_model.lookback_ <= 80

    def test_ranking_covers_requested_pipelines(self, fitted_model):
        assert set(fitted_model.ranked_pipelines_) == set(FAST_PIPELINES)

    def test_best_pipeline_predicts_2d(self, fitted_model):
        forecast = fitted_model.predict(12)
        assert forecast.shape == (12, 1)
        assert np.all(np.isfinite(forecast))

    def test_holdout_report_fields(self, fitted_model):
        report = fitted_model.holdout_report_
        assert report.pipeline_name in FAST_PIPELINES
        assert 0.0 <= report.smape <= 200.0
        assert report.train_seconds >= 0.0
        assert report.horizon == 12

    def test_beats_zero_model_on_seasonal_data(self, fitted_model, seasonal_series):
        forecast = fitted_model.predict(12).ravel()
        zero_forecast = np.full(12, seasonal_series[-1])
        # Compare against the continuation of the underlying generator.
        t = np.arange(len(seasonal_series), len(seasonal_series) + 12)
        truth = 100.0 + 0.2 * t + 10.0 * np.sin(2.0 * np.pi * t / 12.0)
        assert smape(truth, forecast) < smape(truth, zero_forecast)

    def test_summary_text(self, fitted_model):
        text = fitted_model.summary()
        assert "best pipeline" in text
        assert fitted_model.best_pipeline_name_ in text

    def test_score_method(self, fitted_model, seasonal_series):
        truth = seasonal_series[-12:]
        assert -200.0 <= fitted_model.score(truth) <= 0.0


class TestInputHandling:
    def test_user_lookback_skips_discovery(self, seasonal_series):
        model = AutoAITS(
            prediction_horizon=6, lookback_window=15, pipeline_names=["MT2RForecaster"]
        ).fit(seasonal_series)
        assert model.lookback_ == 15
        assert model.lookback_result_ is None

    def test_missing_values_are_cleaned(self, seasonal_series):
        noisy = seasonal_series.copy()
        noisy[10] = np.nan
        noisy[57] = np.nan
        model = AutoAITS(prediction_horizon=4, pipeline_names=["HW_Additive"]).fit(noisy)
        assert model.quality_report_.has_missing
        assert np.all(np.isfinite(model.predict(4)))

    def test_infinite_values_are_cleaned(self):
        # +inf and -inf count as missing: interpolated before any pipeline
        # sees them, so the fit neither warns nor picks a model it cannot
        # forecast with.  The conftest gate fails the session on a warning.
        t = np.arange(96.0)
        series = 10.0 + np.sin(2 * np.pi * t / 12.0)
        series[50] = np.inf
        series[70] = -np.inf
        model = AutoAITS(prediction_horizon=6).fit(series)
        report = model.quality_report_
        assert report.has_missing and report.allow_log_transforms
        assert any("Infinite" in message for message in report.messages)
        assert np.all(np.isfinite(model.predict(6)))

    def test_negative_data_disables_log_pipelines(self):
        t = np.arange(200.0)
        series = 10.0 * np.sin(2 * np.pi * t / 12.0)  # crosses zero
        model = AutoAITS(
            prediction_horizon=4,
            pipeline_names=["FlattenAutoEnsembler, log", "HW_Additive"],
        ).fit(series)
        assert not model.quality_report_.allow_log_transforms
        assert np.all(np.isfinite(model.predict(4)))

    def test_multivariate_output_columns(self, multivariate_series):
        model = AutoAITS(
            prediction_horizon=6, pipeline_names=["MT2RForecaster", "HW_Additive"]
        ).fit(multivariate_series)
        assert model.predict(6).shape == (6, 3)

    def test_positive_forecasts_clipped(self, seasonal_series):
        model = AutoAITS(
            prediction_horizon=4, pipeline_names=["MT2RForecaster"], positive_forecasts=True
        ).fit(seasonal_series)
        assert np.all(model.predict(4) >= 0.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            AutoAITS().predict(1)

    def test_invalid_horizon_raises(self, seasonal_series):
        with pytest.raises(InvalidParameterError):
            AutoAITS(prediction_horizon=0).fit(seasonal_series)

    @pytest.mark.parametrize(
        "param, value",
        [("lookback_window", 0), ("lookback_window", -3), ("max_look_back", 0), ("max_look_back", -2)],
    )
    def test_bad_window_parameter_raises_before_any_cell(self, seasonal_series, param, value):
        steps = []
        model = AutoAITS(prediction_horizon=6, progress_callback=steps.append, **{param: value})
        with pytest.raises(InvalidParameterError, match=param):
            model.fit(seasonal_series)
        assert steps == []

    def test_too_short_series_raises(self):
        with pytest.raises(Exception):
            AutoAITS(prediction_horizon=2).fit(np.arange(6.0))

    def test_horizon_longer_than_trained_still_works(self, seasonal_series):
        model = AutoAITS(prediction_horizon=4, pipeline_names=["HW_Additive"]).fit(seasonal_series)
        assert model.predict(20).shape == (20, 1)

    def test_overflowing_forecast_raises_typed_error(self):
        # The true continuation of exp(5.5 t) leaves float64 at step 11.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = AutoAITS(prediction_horizon=12).fit(np.exp(5.5 * np.arange(120.0)))
        # The regressors of repro.ml overflow silently; other layers still warn.
        ml_package = Path(repro.ml.__file__).resolve().parent
        from_ml = [
            f"{caught_warning.filename}:{caught_warning.lineno}: {caught_warning.message}"
            for caught_warning in caught
            if issubclass(caught_warning.category, RuntimeWarning)
            and Path(caught_warning.filename).resolve().is_relative_to(ml_package)
        ]
        assert from_ml == []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteForecastError, match="step 11 of 12") as error:
                model.predict(12)
            forecast = model.predict(10)
        assert model.best_pipeline_name_ in str(error.value)
        assert forecast.shape == (10, 1)
        assert np.all(np.isfinite(forecast))
