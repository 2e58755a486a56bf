"""Tests for window regressors, auto-ensemblers, MT2R and the DL forecasters."""

import numpy as np
import pytest

from repro.dl import FeedForwardNetwork, MLPForecaster, NBeatsLikeForecaster
from repro.exceptions import InvalidParameterError
from repro.hybrid import (
    DifferenceFlattenAutoEnsembler,
    FlattenAutoEnsembler,
    LocalizedFlattenAutoEnsembler,
    MT2RForecaster,
    WindowRandomForestForecaster,
    WindowRegressor,
    WindowSVRForecaster,
)
from repro.metrics import smape
from repro.ml import RidgeRegression


def _split(series, horizon=12):
    return series[:-horizon], series[-horizon:]


class TestWindowRegressor:
    def test_recursive_forecast_shape(self, seasonal_series):
        model = WindowRegressor(regressor=RidgeRegression(), lookback=12, horizon=6)
        model.fit(seasonal_series)
        assert model.predict(6).shape == (6, 1)

    def test_accuracy_on_seasonal_data(self, seasonal_series):
        train, test = _split(seasonal_series)
        model = WindowRegressor(regressor=RidgeRegression(), lookback=24, horizon=12).fit(train)
        assert smape(test, model.predict(12)) < 10.0

    def test_lookback_shrinks_for_short_series(self, short_series):
        model = WindowRegressor(regressor=RidgeRegression(), lookback=50, horizon=1)
        model.fit(short_series)
        assert model._lookback_used < 50
        assert np.all(np.isfinite(model.predict(2)))

    def test_multivariate_forecast(self, multivariate_series):
        model = WindowRegressor(regressor=RidgeRegression(), lookback=8, horizon=4)
        model.fit(multivariate_series)
        assert model.predict(4).shape == (4, 3)

    def test_named_variants(self):
        assert WindowRandomForestForecaster().name == "WindowRandomForest"
        assert WindowSVRForecaster().name == "WindowSVR"

    def test_window_svr_accuracy(self, seasonal_series):
        train, test = _split(seasonal_series)
        model = WindowSVRForecaster(lookback=24, horizon=12).fit(train)
        assert smape(test, model.predict(12)) < 12.0


class TestAutoEnsemblers:
    @pytest.mark.parametrize(
        "ensembler_cls",
        [FlattenAutoEnsembler, DifferenceFlattenAutoEnsembler, LocalizedFlattenAutoEnsembler],
    )
    def test_forecast_shape_and_accuracy(self, ensembler_cls, seasonal_series):
        train, test = _split(seasonal_series)
        model = ensembler_cls(lookback=12, horizon=12, regressors=[RidgeRegression()])
        model.fit(train)
        forecast = model.predict(12)
        assert forecast.shape == (12, 1)
        assert smape(test, forecast) < 15.0

    def test_weights_sum_to_one(self, seasonal_series):
        model = FlattenAutoEnsembler(lookback=8, horizon=4).fit(seasonal_series[:120])
        for ensemble in model.models_:
            assert np.isclose(ensemble.weights_.sum(), 1.0)

    def test_difference_variant_handles_trend(self):
        series = 5.0 + 2.0 * np.arange(150.0)
        model = DifferenceFlattenAutoEnsembler(
            lookback=6, horizon=5, regressors=[RidgeRegression()]
        ).fit(series)
        forecast = model.predict(5).ravel()
        expected = 5.0 + 2.0 * np.arange(150, 155)
        assert np.allclose(forecast, expected, rtol=0.05)

    def test_multivariate(self, multivariate_series):
        model = LocalizedFlattenAutoEnsembler(
            lookback=6, horizon=3, regressors=[RidgeRegression()]
        ).fit(multivariate_series[:150])
        assert model.predict(3).shape == (3, 3)

    def test_names(self):
        assert FlattenAutoEnsembler().name == "FlattenAutoEnsembler"
        assert DifferenceFlattenAutoEnsembler().name == "DifferenceFlattenAutoEnsembler"
        assert LocalizedFlattenAutoEnsembler().name == "LocalizedFlattenAutoEnsembler"


class TestMT2R:
    def test_captures_linear_trend(self):
        series = 3.0 + 0.7 * np.arange(200.0)
        forecast = MT2RForecaster(horizon=5).fit(series).predict(5).ravel()
        expected = 3.0 + 0.7 * np.arange(200, 205)
        assert np.allclose(forecast, expected, rtol=0.02)

    def test_multivariate_uses_cross_series_residuals(self, multivariate_series):
        model = MT2RForecaster(horizon=6).fit(multivariate_series)
        assert model.var_coefficients_ is not None
        assert model.predict(6).shape == (6, 3)

    def test_constant_series_skips_var(self):
        data = np.column_stack([np.full(50, 3.0), np.full(50, 7.0)])
        model = MT2RForecaster().fit(data)
        assert model.var_coefficients_ is None
        assert np.allclose(model.predict(4), [[3.0, 7.0]] * 4, atol=1e-6)

    def test_invalid_trend_degree(self):
        with pytest.raises(InvalidParameterError):
            MT2RForecaster(trend_degree=-1).fit(np.arange(30.0))

    def test_accuracy_on_seasonal_data(self, seasonal_series):
        train, test = _split(seasonal_series)
        model = MT2RForecaster(residual_lags=12, horizon=12).fit(train)
        assert smape(test, model.predict(12)) < 12.0


class TestFeedForwardNetwork:
    def test_learns_xor_like_function(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = (X[:, 0] * X[:, 1]).reshape(-1, 1)
        network = FeedForwardNetwork((2, 32, 1), learning_rate=5e-3, random_state=0)
        losses = network.train(X, y, epochs=200, batch_size=32)
        assert losses[-1] < losses[0] * 0.2

    def test_parameter_count(self):
        network = FeedForwardNetwork((3, 5, 1))
        assert network.n_parameters == 3 * 5 + 5 + 5 * 1 + 1

    def test_invalid_configuration_raises(self):
        with pytest.raises(InvalidParameterError):
            FeedForwardNetwork((3,))
        with pytest.raises(InvalidParameterError):
            FeedForwardNetwork((3, 0, 1))
        with pytest.raises(InvalidParameterError):
            FeedForwardNetwork((3, 4, 1), activation="swish")

    def test_identity_activation_is_linear_model(self):
        X = np.random.default_rng(1).normal(size=(200, 2))
        y = (X @ np.array([1.0, -2.0])).reshape(-1, 1)
        network = FeedForwardNetwork((2, 4, 1), activation="identity", learning_rate=1e-2)
        network.train(X, y, epochs=300, batch_size=50)
        predictions = network.forward(X)
        assert float(np.mean((predictions - y) ** 2)) < 0.05


class TestDLForecasters:
    def test_mlp_forecaster_shape_and_accuracy(self, seasonal_series):
        train, test = _split(seasonal_series)
        model = MLPForecaster(lookback=24, horizon=12, epochs=80, random_state=0).fit(train)
        forecast = model.predict(12)
        assert forecast.shape == (12, 1)
        assert smape(test, forecast) < 15.0

    def test_mlp_longer_horizon_than_trained(self, seasonal_series):
        model = MLPForecaster(lookback=12, horizon=4, epochs=30).fit(seasonal_series)
        assert model.predict(10).shape == (10, 1)

    def test_nbeats_multivariate_shape(self, multivariate_series):
        model = NBeatsLikeForecaster(lookback=12, horizon=4, n_blocks=2, epochs=20)
        model.fit(multivariate_series[:200])
        assert model.predict(4).shape == (4, 3)

    def test_nbeats_finite_forecasts(self, random_walk_series):
        model = NBeatsLikeForecaster(lookback=16, horizon=6, n_blocks=2, epochs=20)
        model.fit(random_walk_series)
        assert np.all(np.isfinite(model.predict(6)))
