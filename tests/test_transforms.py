"""Tests for the log transform, imputation and supervised windows."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import InvalidParameterError, NotFittedError
from repro.transforms import InterpolationImputer, LogTransform, make_supervised_windows

positive_series = hnp.arrays(
    np.float64, st.integers(8, 40), elements=st.floats(0.1, 1e4)
)


class TestStatelessRoundtrips:
    @pytest.mark.parametrize("transform_cls", [LogTransform])
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
