"""Tests for signal generators, the synthetic set and the benchmark suites."""

import numpy as np
import pytest

from repro.data import (
    MULTIVARIATE_DATASET_SPECS,
    SYNTHETIC_SIGNAL_NAMES,
    SignalSpec,
    UNIVARIATE_DATASET_SPECS,
    compose_signal,
    load_multivariate_dataset,
    load_univariate_dataset,
    multivariate_suite,
    synthetic_dataset,
    synthetic_signal,
    univariate_suite,
)
from repro.data.synthetic import FIGURE5_SIGNALS, SYNTHETIC_LENGTH
from repro.stats import dominant_period


class TestSignalComposer:
    def test_deterministic_given_seed(self):
        spec = SignalSpec(length=100, level=5.0, noise_std=1.0)
        assert np.allclose(compose_signal(spec, seed=3), compose_signal(spec, seed=3))
        assert not np.allclose(compose_signal(spec, seed=3), compose_signal(spec, seed=4))

    def test_trend_component(self):
        signal = compose_signal(SignalSpec(length=100, trend=2.0))
        assert signal[-1] == pytest.approx(198.0)

    def test_seasonal_component_period(self):
        spec = SignalSpec(length=400, seasonal_periods=(20.0,), seasonal_amplitudes=(5.0,))
        assert dominant_period(compose_signal(spec)) == pytest.approx(20, abs=1)

    def test_outliers_injected(self):
        spec = SignalSpec(length=200, level=10.0, noise_std=0.1, outlier_fraction=0.05)
        signal = compose_signal(spec, seed=1)
        assert np.abs(signal - 10.0).max() > 3.0

    def test_positive_clipping(self):
        spec = SignalSpec(length=50, level=-10.0, positive=True)
        assert compose_signal(spec).min() > 0.0


class TestSyntheticDataset:
    def test_has_21_signals_of_2000_points(self):
        dataset = synthetic_dataset()
        assert len(dataset) == 21
        assert all(len(series) == SYNTHETIC_LENGTH for series in dataset.values())
        # Paper: 21 series x 2000 points = 42,000 samples.
        assert sum(len(series) for series in dataset.values()) == 42000

    def test_figure5_signals_exist(self):
        assert set(FIGURE5_SIGNALS) <= set(SYNTHETIC_SIGNAL_NAMES)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            synthetic_signal("nonexistent")

    def test_length_override(self):
        assert len(synthetic_signal("sine_wave", length=300)) == 300

    def test_constant_signal_is_constant(self):
        signal = synthetic_signal("constant")
        assert np.ptp(signal) == 0.0

    def test_dual_seasonality_has_both_periods(self):
        from repro.stats.spectral import spectral_peaks

        signal = synthetic_signal("dual_seasonality")
        peaks = spectral_peaks(signal, n_peaks=4)
        assert any(abs(p - 24) <= 2 for p in peaks)
        assert any(abs(p - 168) <= 10 for p in peaks)

    def test_increasing_amplitude(self):
        signal = synthetic_signal("increasing_amplitude_cosine")
        first_amplitude = np.ptp(signal[:200])
        last_amplitude = np.ptp(signal[-200:])
        assert last_amplitude > 2.0 * first_amplitude


class TestUnivariateSuite:
    def test_62_specs(self):
        assert len(UNIVARIATE_DATASET_SPECS) == 62

    def test_sizes_span_paper_range(self):
        sizes = [spec.paper_size for spec in UNIVARIATE_DATASET_SPECS]
        assert min(sizes) == 144
        assert max(sizes) == 145366

    def test_names_unique(self):
        names = [spec.name for spec in UNIVARIATE_DATASET_SPECS]
        assert len(names) == len(set(names))

    def test_load_respects_max_length(self):
        series = load_univariate_dataset("PJME-MW", max_length=500)
        assert len(series) == 500

    def test_small_dataset_keeps_paper_size(self):
        assert len(load_univariate_dataset("AirPassengers", max_length=10000)) == 144

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_univariate_dataset("NotADataset")

    def test_suite_limit(self):
        suite = univariate_suite(max_length=200, limit=5)
        assert len(suite) == 5

    def test_airpassengers_is_seasonal(self):
        series = load_univariate_dataset("AirPassengers")
        assert dominant_period(series, max_period=60) == pytest.approx(12, abs=1)

    def test_deterministic(self):
        a = load_univariate_dataset("goog", max_length=300)
        b = load_univariate_dataset("goog", max_length=300)
        assert np.allclose(a, b)


class TestMultivariateSuite:
    def test_9_specs(self):
        assert len(MULTIVARIATE_DATASET_SPECS) == 9

    def test_shapes_match_specs(self):
        for spec in MULTIVARIATE_DATASET_SPECS[:4]:
            data = load_multivariate_dataset(spec.name, max_length=150)
            assert data.shape[1] == spec.n_series
            assert data.shape[0] == min(spec.paper_rows, 150)

    def test_paper_shape_includes_timestamp_column(self):
        spec = MULTIVARIATE_DATASET_SPECS[0]
        assert spec.paper_shape == (143, 11)

    def test_series_within_dataset_differ(self):
        data = load_multivariate_dataset("rossmann", max_length=200)
        assert not np.allclose(data[:, 0], data[:, 1])

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_multivariate_dataset("NotADataset")

    def test_suite_limit(self):
        suite = multivariate_suite(max_length=100, limit=2)
        assert len(suite) == 2
