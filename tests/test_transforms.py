"""Tests for stateless/stateful transforms, scalers, imputation, resampling, windows."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import InvalidParameterError, NotFittedError
from repro.transforms import (
    BoxCoxTransform,
    DifferenceTransform,
    Downsampler,
    FisherTransform,
    FlattenTransform,
    IdentityTransform,
    InterpolationImputer,
    LocalizedFlattenTransform,
    LogTransform,
    MinMaxScaler,
    NormalizedFlattenTransform,
    SlidingWindowFramer,
    SqrtTransform,
    StandardScaler,
    Upsampler,
    make_supervised_windows,
)

positive_series = hnp.arrays(
    np.float64, st.integers(8, 40), elements=st.floats(0.1, 1e4)
)
any_series = hnp.arrays(
    np.float64, st.integers(8, 40), elements=st.floats(-1e4, 1e4)
)


class TestStatelessRoundtrips:
    @pytest.mark.parametrize(
        "transform_cls", [IdentityTransform, LogTransform, SqrtTransform, BoxCoxTransform]
    )
    def test_roundtrip_positive_data(self, transform_cls, weekly_series):
        data = weekly_series.reshape(-1, 1)
        transform = transform_cls()
        transformed = transform.fit_transform(data)
        restored = transform.inverse_transform(transformed)
        assert np.allclose(restored, data, rtol=1e-5, atol=1e-6)

    def test_log_handles_negative_with_offset(self):
        data = np.array([[-5.0], [0.0], [10.0]])
        transform = LogTransform()
        restored = transform.inverse_transform(transform.fit_transform(data))
        assert np.allclose(restored, data, atol=1e-6)

    def test_log_inverse_overflows_to_inf_without_warning(self):
        transform = LogTransform().fit([[1.0], [2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored = transform.inverse_transform([[800.0], [1.5]])
        assert restored[0, 0] == np.inf
        assert restored[1, 0] == np.exp(1.5)  # finite values keep their bits

    def test_fisher_roundtrip_within_range(self, seasonal_series):
        data = seasonal_series.reshape(-1, 1)
        transform = FisherTransform()
        restored = transform.inverse_transform(transform.fit_transform(data))
        # Interior points round-trip; extremes are clipped by the margin.
        interior = (data > np.quantile(data, 0.02)) & (data < np.quantile(data, 0.98))
        assert np.allclose(restored[interior], data[interior], rtol=1e-2)

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LogTransform().transform([[1.0]])

    @given(positive_series)
    @settings(max_examples=30, deadline=None)
    def test_log_roundtrip_property(self, values):
        data = values.reshape(-1, 1)
        transform = LogTransform()
        restored = transform.inverse_transform(transform.fit_transform(data))
        assert np.allclose(restored, data, rtol=1e-6, atol=1e-6)

    @given(any_series)
    @settings(max_examples=30, deadline=None)
    def test_sqrt_roundtrip_property(self, values):
        data = values.reshape(-1, 1)
        transform = SqrtTransform()
        restored = transform.inverse_transform(transform.fit_transform(data))
        assert np.allclose(restored, data, rtol=1e-5, atol=1e-5)


class TestDifferenceTransform:
    def test_transform_shape(self, seasonal_series):
        data = seasonal_series.reshape(-1, 1)
        transform = DifferenceTransform().fit(data)
        assert transform.transform(data).shape == (len(data) - 1, 1)

    def test_inverse_integrates_forecast(self):
        data = np.arange(20.0).reshape(-1, 1)
        transform = DifferenceTransform().fit(data)
        future_differences = np.ones((5, 1))
        restored = transform.inverse_transform(future_differences)
        assert np.allclose(restored.ravel(), [20.0, 21.0, 22.0, 23.0, 24.0])

    def test_second_order(self):
        data = (np.arange(30.0) ** 2).reshape(-1, 1)
        transform = DifferenceTransform(order=2).fit(data)
        assert transform.transform(data).shape == (28, 1)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            DifferenceTransform(order=5).fit(np.arange(4.0).reshape(-1, 1))


class TestFlattenFamily:
    def test_flatten_shape(self, seasonal_series):
        data = seasonal_series[:50].reshape(-1, 1)
        transform = FlattenTransform(lookback=6).fit(data)
        windows = transform.transform(data)
        assert windows.shape == (45, 6)

    def test_flatten_multivariate_shape(self, multivariate_series):
        data = multivariate_series[:40]
        transform = FlattenTransform(lookback=5).fit(data)
        assert transform.transform(data).shape == (36, 15)

    def test_localized_windows_anchor_at_zero(self, seasonal_series):
        data = seasonal_series[:50].reshape(-1, 1)
        transform = LocalizedFlattenTransform(lookback=4).fit(data)
        windows = transform.transform(data)
        # Last element of every window is anchored to zero.
        assert np.allclose(windows[:, -1], 0.0)

    def test_normalized_windows_standardised(self, seasonal_series):
        data = seasonal_series[:60].reshape(-1, 1)
        transform = NormalizedFlattenTransform(lookback=8).fit(data)
        windows = transform.transform(data)
        assert np.allclose(windows.mean(axis=1), 0.0, atol=1e-8)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            FlattenTransform(lookback=10).fit(np.arange(5.0).reshape(-1, 1))


class TestScalers:
    def test_standard_scaler_moments(self, seasonal_series):
        data = seasonal_series.reshape(-1, 1)
        scaled = StandardScaler().fit_transform(data)
        assert scaled.mean() == pytest.approx(0.0, abs=1e-9)
        assert scaled.std() == pytest.approx(1.0, abs=1e-9)

    def test_minmax_range(self, seasonal_series):
        data = seasonal_series.reshape(-1, 1)
        scaled = MinMaxScaler().fit_transform(data)
        assert scaled.min() == pytest.approx(0.0)
        assert scaled.max() == pytest.approx(1.0)

    def test_minmax_invalid_range_raises(self):
        with pytest.raises(ValueError):
            MinMaxScaler(feature_min=1.0, feature_max=0.0).fit(np.ones((5, 1)))

    def test_constant_column_does_not_divide_by_zero(self):
        data = np.full((10, 1), 7.0)
        assert np.all(np.isfinite(StandardScaler().fit_transform(data)))
        assert np.all(np.isfinite(MinMaxScaler().fit_transform(data)))

    @given(hnp.arrays(np.float64, (20, 2), elements=st.floats(-1e5, 1e5)))
    @settings(max_examples=30, deadline=None)
    def test_scaler_roundtrip_property(self, data):
        for scaler in (StandardScaler(), MinMaxScaler()):
            transformed = scaler.fit_transform(data)
            restored = scaler.inverse_transform(transformed)
            assert np.allclose(restored, data, rtol=1e-6, atol=1e-5)


class TestImputer:
    def test_linear_interpolation(self):
        data = np.array([[1.0], [np.nan], [3.0]])
        filled = InterpolationImputer().fit_transform(data)
        assert filled[1, 0] == pytest.approx(2.0)

    def test_leading_and_trailing_nans(self):
        data = np.array([[np.nan], [2.0], [np.nan]])
        filled = InterpolationImputer().fit_transform(data)
        assert np.all(np.isfinite(filled))

    def test_all_nan_column_becomes_zero(self):
        data = np.array([[np.nan], [np.nan]])
        filled = InterpolationImputer().fit_transform(data)
        assert np.allclose(filled, 0.0)

    @pytest.mark.parametrize("method", ["linear", "nearest", "ffill", "mean"])
    def test_all_methods_remove_nans(self, method):
        data = np.array([[1.0], [np.nan], [5.0], [np.nan], [2.0]])
        filled = InterpolationImputer(method=method).fit_transform(data)
        assert not np.isnan(filled).any()

    def test_unknown_method_raises(self):
        with pytest.raises(InvalidParameterError):
            InterpolationImputer(method="magic").fit(np.ones((3, 1)))


class TestResampling:
    def test_downsample_mean(self):
        data = np.arange(10.0).reshape(-1, 1)
        down = Downsampler(factor=2, aggregation="mean").fit_transform(data)
        assert np.allclose(down.ravel(), [0.5, 2.5, 4.5, 6.5, 8.5])

    def test_downsample_last(self):
        data = np.arange(9.0).reshape(-1, 1)
        down = Downsampler(factor=3, aggregation="last").fit_transform(data)
        assert np.allclose(down.ravel(), [2.0, 5.0, 8.0])

    def test_upsample_linear_length(self):
        data = np.array([[0.0], [2.0], [4.0]])
        up = Upsampler(factor=2).fit_transform(data)
        assert len(up) == 5
        assert up[1, 0] == pytest.approx(1.0)

    def test_upsample_then_downsample_preserves_points(self):
        data = np.arange(12.0).reshape(-1, 1)
        up = Upsampler(factor=3).fit_transform(data)
        assert np.allclose(up[::3].ravel(), data.ravel())

    def test_invalid_aggregation_raises(self):
        with pytest.raises(InvalidParameterError):
            Downsampler(aggregation="median-ish").fit(np.ones((4, 1)))


class TestSupervisedWindows:
    def test_shapes_univariate(self, seasonal_series):
        features, targets = make_supervised_windows(seasonal_series[:50], lookback=6, horizon=2)
        assert features.shape == (43, 6)
        assert targets.shape == (43, 2)

    def test_shapes_multivariate_with_target_column(self, multivariate_series):
        features, targets = make_supervised_windows(
            multivariate_series[:40], lookback=5, horizon=1, target_column=1
        )
        assert features.shape == (35, 15)
        assert targets.shape == (35,)

    def test_window_contents(self):
        series = np.arange(10.0)
        features, targets = make_supervised_windows(series, lookback=3, horizon=1)
        assert np.allclose(features[0], [0.0, 1.0, 2.0])
        assert targets[0] == 3.0
        assert np.allclose(features[-1], [6.0, 7.0, 8.0])
        assert targets[-1] == 9.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            make_supervised_windows(np.arange(5.0), lookback=4, horizon=3)

    def test_unflattened_keeps_3d(self):
        features, _ = make_supervised_windows(np.arange(20.0), lookback=4, horizon=1, flatten=False)
        assert features.shape == (16, 4, 1)

    def test_framer_stores_last_window(self, seasonal_series):
        data = seasonal_series[:30].reshape(-1, 1)
        framer = SlidingWindowFramer(lookback=5).fit(data)
        assert np.allclose(framer.last_window_.ravel(), data[-5:].ravel())
        assert framer.transform(data).shape == (26, 5)
