"""AutoTS model-list baselines: WindowRegressor, GLS, RollingRegression, Motif, Component.

The paper runs Catlin's AutoTS five times, each restricted to a single
``model_list`` (Table 3), producing five "toolkits": WindowRegressor, GLS,
RollingRegressor, Motif and Component (ComponentAnalysis).  Each class below
re-implements the corresponding AutoTS model family with this library's
substrates, keeping the zero-conf defaults:

* ``WindowRegressorToolkit`` — regression on flattened look-back windows.
* ``GLSToolkit`` — generalized least squares on deterministic regressors
  (trend + seasonal dummies), with an AR(1)-whitened refit (the "generalized"
  part of GLS).
* ``RollingRegressorToolkit`` — regression on rolling summary statistics
  (means/mins/maxes over several windows) instead of raw lags.
* ``MotifToolkit`` — motif simulation: find the k historical windows most
  similar to the current one and average their continuations.
* ``ComponentToolkit`` — component analysis: decompose into trend, seasonal
  and remainder via moving averages, forecast each component separately.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_array, check_horizon
from ..core.base import BaseForecaster, check_is_fitted
from ..forecasters.ets import DoubleExponentialSmoothing
from ..hybrid.window_regressor import WindowRegressor
from ..ml.linear import RidgeRegression
from ..stats.acf import acf
from ..stats.spectral import dominant_period

__all__ = [
    "WindowRegressorToolkit",
    "GLSToolkit",
    "RollingRegressorToolkit",
    "MotifToolkit",
    "ComponentToolkit",
]


class WindowRegressorToolkit(BaseForecaster):
    """AutoTS ``WindowRegressor``: ridge regression over look-back windows."""

    def __init__(self, window_size: int = 10, horizon: int = 1):
        self.window_size = window_size
        self.horizon = horizon

    def fit(self, X, y=None) -> "WindowRegressorToolkit":
        X = as_2d_array(X)
        self.model_ = WindowRegressor(
            regressor=RidgeRegression(alpha=1.0),
            lookback=int(self.window_size),
            horizon=int(self.horizon),
        )
        self.model_.fit(X)
        self.n_series_ = X.shape[1]
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("model_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        return self.model_.predict(horizon)

    @property
    def name(self) -> str:
        return "WindowRegressor"


class GLSToolkit(BaseForecaster):
    """AutoTS ``GLS``: trend + seasonal-dummy regression with AR(1) whitening."""

    def __init__(self, horizon: int = 1):
        self.horizon = horizon

    def _design(self, time_index: np.ndarray, period: int) -> np.ndarray:
        columns = [np.ones_like(time_index), time_index]
        if period >= 2:
            phases = (time_index.astype(int)) % period
            for phase in range(1, period):
                columns.append((phases == phase).astype(float))
        return np.column_stack(columns)

    def _fit_single(self, series: np.ndarray) -> dict:
        n_samples = len(series)
        time_index = np.arange(n_samples, dtype=float)
        period = dominant_period(series, max_period=min(24, n_samples // 3)) or 0

        design = self._design(time_index, period)
        coefficients, _, _, _ = np.linalg.lstsq(design, series, rcond=None)
        residuals = series - design @ coefficients

        # AR(1) whitening: estimate rho and refit on quasi-differenced data.
        rho = float(acf(residuals, nlags=1)[1]) if n_samples > 4 else 0.0
        rho = float(np.clip(rho, -0.95, 0.95))
        if abs(rho) > 0.05:
            whitened_y = series[1:] - rho * series[:-1]
            whitened_design = design[1:] - rho * design[:-1]
            coefficients, _, _, _ = np.linalg.lstsq(whitened_design, whitened_y, rcond=None)
        return {"coefficients": coefficients, "period": period, "n_samples": n_samples}

    def fit(self, X, y=None) -> "GLSToolkit":
        X = as_2d_array(X)
        self.models_ = [self._fit_single(X[:, j]) for j in range(X.shape[1])]
        self.n_series_ = X.shape[1]
        return self

    def _predict_single(self, model: dict, horizon: int) -> np.ndarray:
        start = model["n_samples"]
        future_index = np.arange(start, start + horizon, dtype=float)
        design = self._design(future_index, model["period"])
        expected_width = len(model["coefficients"])
        if design.shape[1] != expected_width:  # defensive: period mismatch
            design = design[:, :expected_width]
        return design @ model["coefficients"]

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("models_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        columns = [self._predict_single(model, horizon) for model in self.models_]
        return np.column_stack(columns)

    @property
    def name(self) -> str:
        return "GLS"


class RollingRegressorToolkit(BaseForecaster):
    """AutoTS ``RollingRegression``: ridge regression on rolling statistics."""

    def __init__(self, windows: tuple[int, ...] = (3, 7, 14), horizon: int = 1):
        self.windows = windows
        self.horizon = horizon

    def _features_at(self, series: np.ndarray, end: int) -> np.ndarray:
        """Rolling statistics of ``series[:end]`` (the feature row for time ``end``)."""
        values = []
        for window in self.windows:
            window = int(window)
            segment = series[max(0, end - window) : end]
            if len(segment) == 0:
                segment = series[:1]
            values.extend(
                [float(np.mean(segment)), float(np.min(segment)), float(np.max(segment))]
            )
        values.append(float(series[end - 1]))
        return np.asarray(values)

    def _fit_single(self, series: np.ndarray) -> dict:
        max_window = max(int(w) for w in self.windows)
        start = max_window + 1
        if len(series) <= start + 4:
            return {"model": None, "last_value": float(series[-1])}
        features = np.stack([self._features_at(series, end) for end in range(start, len(series))])
        targets = series[start:]
        model = RidgeRegression(alpha=1.0)
        model.fit(features, targets)
        return {"model": model, "series": series.copy()}

    def fit(self, X, y=None) -> "RollingRegressorToolkit":
        X = as_2d_array(X)
        self.models_ = [self._fit_single(X[:, j]) for j in range(X.shape[1])]
        self.n_series_ = X.shape[1]
        return self

    def _predict_single(self, model: dict, horizon: int) -> np.ndarray:
        if model["model"] is None:
            return np.full(horizon, model["last_value"])
        series = list(model["series"])
        forecasts = []
        for _ in range(horizon):
            features = self._features_at(np.asarray(series), len(series))
            prediction = float(np.asarray(model["model"].predict(features.reshape(1, -1))).ravel()[0])
            forecasts.append(prediction)
            series.append(prediction)
        return np.asarray(forecasts)

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("models_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        columns = [self._predict_single(model, horizon) for model in self.models_]
        return np.column_stack(columns)

    @property
    def name(self) -> str:
        return "RollingRegressor"


class MotifToolkit(BaseForecaster):
    """AutoTS ``MotifSimulation``: forecast from the continuations of similar windows."""

    def __init__(self, window_size: int = 10, n_motifs: int = 5, horizon: int = 1):
        self.window_size = window_size
        self.n_motifs = n_motifs
        self.horizon = horizon

    def _fit_single(self, series: np.ndarray) -> dict:
        return {"series": series.copy()}

    def fit(self, X, y=None) -> "MotifToolkit":
        X = as_2d_array(X)
        self.models_ = [self._fit_single(X[:, j]) for j in range(X.shape[1])]
        self.n_series_ = X.shape[1]
        return self

    def _predict_single(self, model: dict, horizon: int) -> np.ndarray:
        series = model["series"]
        window = int(min(self.window_size, max(2, len(series) // 4)))
        query = series[-window:]
        query_anchor = query[-1]

        candidates = []
        for start in range(len(series) - window - horizon + 1):
            segment = series[start : start + window]
            distance = float(np.mean((segment - segment[-1] - (query - query_anchor)) ** 2))
            candidates.append((distance, start))
        if not candidates:
            return np.full(horizon, float(series[-1]))
        candidates.sort(key=lambda item: item[0])
        k = max(1, min(int(self.n_motifs), len(candidates)))

        continuations = []
        for _, start in candidates[:k]:
            anchor = series[start + window - 1]
            continuation = series[start + window : start + window + horizon] - anchor
            continuations.append(continuation)
        return query_anchor + np.mean(continuations, axis=0)

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("models_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        columns = [self._predict_single(model, horizon) for model in self.models_]
        return np.column_stack(columns)

    @property
    def name(self) -> str:
        return "Motif"


class ComponentToolkit(BaseForecaster):
    """AutoTS ``ComponentAnalysis``: decompose, forecast components, recompose."""

    def __init__(self, horizon: int = 1):
        self.horizon = horizon

    def _fit_single(self, series: np.ndarray) -> dict:
        n_samples = len(series)
        period = dominant_period(series, max_period=n_samples // 3) or 0

        # Trend: centred moving average (falls back to the raw series).
        window = period if period >= 2 else max(3, n_samples // 10)
        kernel = np.ones(window) / window
        padded = np.concatenate([np.full(window // 2, series[0]), series, np.full(window - window // 2 - 1, series[-1])])
        trend = np.convolve(padded, kernel, mode="valid")[:n_samples]

        detrended = series - trend
        if period >= 2:
            profile = np.zeros(period)
            for phase in range(period):
                values = detrended[phase::period]
                profile[phase] = float(np.mean(values)) if len(values) else 0.0
        else:
            profile = np.zeros(1)

        trend_model = DoubleExponentialSmoothing(horizon=self.horizon)
        trend_model.fit(trend.reshape(-1, 1))
        return {
            "trend_model": trend_model,
            "profile": profile,
            "period": max(period, 1),
            "n_samples": n_samples,
        }

    def fit(self, X, y=None) -> "ComponentToolkit":
        X = as_2d_array(X)
        self.models_ = [self._fit_single(X[:, j]) for j in range(X.shape[1])]
        self.n_series_ = X.shape[1]
        return self

    def _predict_single(self, model: dict, horizon: int) -> np.ndarray:
        trend_forecast = model["trend_model"].predict(horizon).ravel()
        period = model["period"]
        phases = (model["n_samples"] + np.arange(horizon)) % period
        seasonal_forecast = model["profile"][phases] if period > 1 else np.zeros(horizon)
        return trend_forecast + seasonal_forecast

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("models_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        columns = [self._predict_single(model, horizon) for model in self.models_]
        return np.column_stack(columns)

    @property
    def name(self) -> str:
        return "Component"
