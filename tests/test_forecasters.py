"""Tests for the statistical forecasters."""

import pickle
import warnings

import numpy as np
import pytest

from repro.exceptions import DataQualityError, InvalidParameterError, NotFittedError
from repro.forecasters import (
    ARIMAForecaster,
    AutoARIMAForecaster,
    BATSForecaster,
    DoubleExponentialSmoothing,
    DriftForecaster,
    HoltWintersForecaster,
    SeasonalNaiveForecaster,
    SimpleExponentialSmoothing,
    ThetaForecaster,
    ZeroModelForecaster,
)
from repro.metrics import smape


def _split(series, horizon=12):
    return series[:-horizon], series[-horizon:]


class TestZeroModel:
    def test_repeats_last_value(self):
        model = ZeroModelForecaster().fit(np.array([1.0, 2.0, 5.0]))
        assert np.allclose(model.predict(4).ravel(), 5.0)

    def test_multivariate_shape(self, multivariate_series):
        model = ZeroModelForecaster().fit(multivariate_series)
        assert model.predict(7).shape == (7, 3)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            ZeroModelForecaster().predict(1)


class TestSeasonalNaive:
    def test_repeats_last_season(self):
        series = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), 6)
        model = SeasonalNaiveForecaster(seasonal_period=4).fit(series)
        assert np.allclose(model.predict(8).ravel(), np.tile([1.0, 2.0, 3.0, 4.0], 2))

    def test_short_series_falls_back_to_last_value(self):
        model = SeasonalNaiveForecaster(seasonal_period=10).fit(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(model.predict(3).ravel(), 3.0)

    def test_accurate_on_pure_seasonal_data(self, weekly_series):
        train, test = _split(weekly_series, 14)
        model = SeasonalNaiveForecaster(seasonal_period=7).fit(train)
        assert smape(test, model.predict(14).ravel()) < 15.0


class TestDrift:
    def test_linear_extrapolation(self):
        model = DriftForecaster().fit(np.arange(0.0, 50.0))
        assert np.allclose(model.predict(3).ravel(), [50.0, 51.0, 52.0])

    def test_single_point_has_zero_drift(self):
        model = DriftForecaster().fit(np.array([7.0]))
        assert np.allclose(model.predict(2).ravel(), 7.0)

    def test_overflowing_forecast_is_non_finite_without_a_warning(self):
        model = DriftForecaster().fit(np.array([0.0, 8e307, 1.6e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forecast = model.predict(4)
        assert not np.isfinite(forecast).all()


class TestExponentialSmoothing:
    def test_ses_flat_forecast(self, random_walk_series):
        model = SimpleExponentialSmoothing().fit(random_walk_series)
        forecast = model.predict(5).ravel()
        assert np.allclose(forecast, forecast[0])

    def test_ses_level_near_recent_values(self):
        series = np.concatenate([np.full(50, 10.0), np.full(50, 20.0)])
        model = SimpleExponentialSmoothing().fit(series)
        assert model.predict(1).ravel()[0] == pytest.approx(20.0, abs=1.0)

    def test_holt_captures_trend(self):
        series = 5.0 + 0.5 * np.arange(100.0)
        model = DoubleExponentialSmoothing().fit(series)
        forecast = model.predict(10).ravel()
        expected = 5.0 + 0.5 * np.arange(100, 110)
        assert np.allclose(forecast, expected, atol=1.0)

    def test_damped_trend_flatter_than_undamped(self):
        series = 5.0 + 0.5 * np.arange(100.0)
        damped = DoubleExponentialSmoothing(damped=True).fit(series).predict(20).ravel()
        undamped = DoubleExponentialSmoothing(damped=False).fit(series).predict(20).ravel()
        assert damped[-1] <= undamped[-1] + 1e-9

    def test_fixed_alpha_respected(self):
        model = SimpleExponentialSmoothing(alpha=0.3).fit(np.arange(30.0))
        assert model.alphas_[0] == pytest.approx(0.3)


class TestHoltWinters:
    def test_additive_beats_naive_on_seasonal_data(self, seasonal_series):
        train, test = _split(seasonal_series)
        hw = HoltWintersForecaster(seasonal="additive", seasonal_period=12).fit(train)
        naive = ZeroModelForecaster().fit(train)
        assert smape(test, hw.predict(12).ravel()) < smape(test, naive.predict(12).ravel())

    def test_multiplicative_on_positive_data(self, weekly_series):
        train, test = _split(weekly_series)
        model = HoltWintersForecaster(seasonal="multiplicative", seasonal_period=7).fit(train)
        assert smape(test, model.predict(12).ravel()) < 20.0

    def test_multiplicative_falls_back_for_negative_data(self):
        series = np.sin(np.arange(100.0) / 5.0)  # crosses zero
        model = HoltWintersForecaster(seasonal="multiplicative").fit(series)
        assert model.effective_seasonal_[0] == "additive"

    def test_period_discovered_automatically(self, seasonal_series):
        model = HoltWintersForecaster(seasonal="additive").fit(seasonal_series)
        assert model.models_[0]["period"] == pytest.approx(12, abs=1)

    def test_invalid_seasonal_mode_raises(self):
        with pytest.raises(InvalidParameterError):
            HoltWintersForecaster(seasonal="triangular").fit(np.arange(50.0))

    def test_short_series_does_not_crash(self, short_series):
        forecast = HoltWintersForecaster().fit(short_series).predict(3)
        assert np.all(np.isfinite(forecast))

    def test_name_property(self):
        assert HoltWintersForecaster(seasonal="additive").name == "HW_Additive"
        assert HoltWintersForecaster(seasonal="multiplicative").name == "HW_Multiplicative"


class TestARIMA:
    def test_ar1_forecast_reverts_to_mean(self):
        generator = np.random.default_rng(0)
        x = np.zeros(800)
        for t in range(1, 800):
            x[t] = 5.0 + 0.6 * (x[t - 1] - 5.0) + generator.normal(0, 0.5)
        model = ARIMAForecaster(p=1, d=0, q=0).fit(x)
        long_run = model.predict(50).ravel()
        assert long_run[-1] == pytest.approx(5.0, abs=0.5)

    def test_differencing_handles_trend(self):
        series = 2.0 * np.arange(200.0) + np.random.default_rng(1).normal(0, 0.5, 200)
        model = ARIMAForecaster(p=1, d=1, q=0).fit(series)
        forecast = model.predict(5).ravel()
        expected = 2.0 * np.arange(200, 205)
        assert np.allclose(forecast, expected, rtol=0.05)

    def test_forecast_is_finite_even_with_ma_terms(self, seasonal_series):
        model = ARIMAForecaster(p=2, d=1, q=1).fit(seasonal_series)
        assert np.all(np.isfinite(model.predict(24)))

    def test_negative_order_raises(self):
        with pytest.raises(InvalidParameterError):
            ARIMAForecaster(p=-1).fit(np.arange(50.0))

    def test_short_series_degrades_to_naive(self):
        model = ARIMAForecaster(p=5, d=1, q=5).fit(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(model.predict(3).ravel(), 3.0)

    def test_constant_series(self):
        model = ARIMAForecaster(p=1, d=0, q=0).fit(np.full(60, 4.0))
        assert np.allclose(model.predict(5).ravel(), 4.0)

    def test_multivariate_independent_models(self, multivariate_series):
        model = ARIMAForecaster(p=1, d=1, q=0).fit(multivariate_series)
        assert model.predict(6).shape == (6, 3)


class TestAutoARIMA:
    def test_random_walk_selects_differencing(self, random_walk_series):
        model = AutoARIMAForecaster(max_p=2, max_q=2).fit(random_walk_series)
        assert model.orders_[0][1] >= 1

    def test_stationary_series_no_differencing(self):
        noise = np.random.default_rng(2).normal(size=300)
        model = AutoARIMAForecaster(max_p=2, max_q=1).fit(noise)
        assert model.orders_[0][1] == 0

    def test_forecast_reasonable_on_trend(self, seasonal_series):
        train, test = _split(seasonal_series)
        model = AutoARIMAForecaster().fit(train)
        assert smape(test, model.predict(12).ravel()) < 20.0


class TestBATS:
    def test_positive_seasonal_data(self, weekly_series):
        train, test = _split(weekly_series, 14)
        model = BATSForecaster().fit(train)
        assert smape(test, model.predict(14).ravel()) < 20.0

    def test_box_cox_disabled_for_negative_data(self):
        series = np.sin(np.arange(120.0) / 6.0) * 10.0
        model = BATSForecaster().fit(series)
        assert model.models_[0]["box_cox"] is None

    def test_box_cox_enabled_for_positive_data(self, weekly_series):
        model = BATSForecaster().fit(weekly_series)
        assert model.models_[0]["box_cox"] is not None

    def test_name(self):
        assert BATSForecaster().name == "bats"


class TestTheta:
    def test_captures_trend_direction(self):
        series = 10.0 + 0.4 * np.arange(150.0)
        forecast = ThetaForecaster().fit(series).predict(10).ravel()
        assert forecast[-1] > forecast[0]

    def test_reasonable_accuracy(self, seasonal_series):
        train, test = _split(seasonal_series)
        assert smape(test, ThetaForecaster().fit(train).predict(12).ravel()) < 25.0


SMOOTHING_FAMILY = [
    ("hw_additive", lambda: HoltWintersForecaster(seasonal="additive", seasonal_period=12)),
    (
        "hw_multiplicative",
        lambda: HoltWintersForecaster(seasonal="multiplicative", seasonal_period=12),
    ),
    ("ses", SimpleExponentialSmoothing),
    ("des", DoubleExponentialSmoothing),
    ("des_damped", lambda: DoubleExponentialSmoothing(damped=True)),
    ("theta", ThetaForecaster),
    ("bats", BATSForecaster),
]

NON_FINITE_CASES = [
    pytest.param(factory, stage, id=f"{name}-{stage}")
    for name, factory in SMOOTHING_FAMILY
    for stage in ("fit", "update")
    if stage == "fit" or factory().supports_incremental_update
]


def _corrupt(block, kind, at):
    bad = block.copy()
    if kind == "nan_block":
        bad[at : at + 6] = np.nan
    else:
        bad[at] = np.inf if kind == "+inf" else -np.inf
    return bad


class TestNonFiniteInput:
    """NaN or inf input gives a typed error, never an all-NaN forecast."""

    @pytest.mark.parametrize("kind", ["nan_block", "+inf", "-inf"])
    @pytest.mark.parametrize("factory,stage", NON_FINITE_CASES)
    def test_non_finite_block_raises(self, seasonal_series, factory, stage, kind):
        if stage == "fit":
            with pytest.raises(DataQualityError):
                factory().fit(_corrupt(seasonal_series, kind, at=40))
            return
        model = factory().fit(seasonal_series[:200])
        fitted = pickle.dumps(model)
        with pytest.raises(DataQualityError):
            model.update(_corrupt(seasonal_series[200:], kind, at=10))
        assert pickle.dumps(model) == fitted
