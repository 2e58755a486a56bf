"""Simple and double (Holt) exponential smoothing.

Building blocks for the Holt-Winters and BATS forecasters and usable as
stand-alone pipeline candidates.  Smoothing parameters are optimised by
minimising the in-sample one-step-ahead squared error with scipy's bounded
optimiser, mirroring the state-space methodology referenced in the paper
(Hyndman et al., "Forecasting with exponential smoothing").

The recursions run on Python floats from ``ndarray.tolist()`` under the
exactness rules of :mod:`repro.forecasters.holtwinters`: the same IEEE
operations on the same operands as the ``np.float64`` loops they replaced
(only ``1 - alpha`` and ``(1 - beta) * phi`` are hoisted), ``** 2`` kept
for squared errors, an overflowing square adding ``inf``, and the
objective returned as ``np.float64``.  The optimiser therefore sees the
same objective values and fits the same parameters.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from .._validation import as_2d_array, check_horizon
from ..core.base import BaseForecaster, check_is_fitted
from ..exceptions import DataQualityError


def _check_update_block(X_new, n_series: int) -> np.ndarray:
    X_new = as_2d_array(X_new, name="X_new", allow_nan=False)
    if X_new.shape[1] != n_series:
        raise DataQualityError(
            f"update block has {X_new.shape[1]} series, the fitted model has "
            f"{n_series}."
        )
    return X_new

__all__ = ["SimpleExponentialSmoothing", "DoubleExponentialSmoothing"]


def _ses_filter(values: list[float], alpha: float) -> tuple[float, float]:
    """Level recursion over ``values`` (Python floats); return (sse, level)."""
    alpha = float(alpha)
    keep_alpha = 1 - alpha
    level = values[0]
    sse = 0.0
    for value in values[1:]:
        try:
            sse += (value - level) ** 2
        except OverflowError:
            sse += math.inf
        level = alpha * value + keep_alpha * level
    return sse, level


def _ses_sse(alpha: float, values: list[float]) -> np.float64:
    return np.float64(_ses_filter(values, alpha)[0])


def _holt_filter(
    values: list[float], alpha: float, beta: float, phi: float
) -> tuple[float, float, float]:
    """Holt's level/trend recursion over ``values`` (Python floats); return
    (sse, level, trend)."""
    alpha, beta, phi = float(alpha), float(beta), float(phi)
    keep_alpha = 1 - alpha
    keep_trend = (1 - beta) * phi
    level = values[0]
    trend = values[1] - values[0] if len(values) > 1 else 0.0
    sse = 0.0
    for value in values[1:]:
        forecast = level + phi * trend
        try:
            sse += (value - forecast) ** 2
        except OverflowError:
            sse += math.inf
        new_level = alpha * value + keep_alpha * forecast
        trend = beta * (new_level - level) + keep_trend * trend
        level = new_level
    return sse, level, trend


def _holt_sse(params: np.ndarray, values: list[float], damped: bool) -> np.float64:
    phi = params[2] if damped else 1.0
    return np.float64(_holt_filter(values, params[0], params[1], phi)[0])


class SimpleExponentialSmoothing(BaseForecaster):
    """Exponentially weighted level model (flat forecast function)."""

    supports_incremental_update = True

    def __init__(self, alpha: float | None = None, horizon: int = 1):
        self.alpha = alpha
        self.horizon = horizon

    def _fit_single(self, series: np.ndarray) -> tuple[float, float]:
        values = series.tolist()
        if self.alpha is not None:
            alpha = float(np.clip(self.alpha, 1e-4, 1.0))
        elif len(series) < 3 or np.ptp(series) == 0:
            alpha = 0.5
        else:
            result = optimize.minimize_scalar(
                _ses_sse, bounds=(1e-4, 1.0), args=(values,), method="bounded"
            )
            alpha = float(result.x)
        _, level = _ses_filter(values, alpha)
        return alpha, float(level)

    def fit(self, X, y=None) -> "SimpleExponentialSmoothing":
        X = as_2d_array(X, allow_nan=False)
        fitted = [self._fit_single(X[:, j]) for j in range(X.shape[1])]
        self.alphas_ = np.array([item[0] for item in fitted])
        self.levels_ = np.array([item[1] for item in fitted])
        self.n_series_ = X.shape[1]
        return self

    def update(self, X_new, X_full=None) -> "SimpleExponentialSmoothing":
        """Continue the level recursion over the new rows, smoothing
        parameters frozen at their fitted values.

        With a fixed ``alpha`` this is byte-identical to a cold refit on
        the concatenated series: the recursion is the same elementwise
        IEEE expression over the same operands.  With auto-optimised
        alpha a cold refit would re-optimise on the longer series; the
        update deliberately keeps the fitted parameters (that is the O(Δ)
        point) so forecasts agree only approximately there.
        """
        check_is_fitted(self, ("levels_",))
        X_new = _check_update_block(X_new, self.n_series_)
        levels = self.levels_
        for row in X_new:
            levels = self.alphas_ * row + (1 - self.alphas_) * levels
        self.levels_ = levels
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("levels_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        return np.tile(self.levels_, (horizon, 1))


class DoubleExponentialSmoothing(BaseForecaster):
    """Holt's linear (optionally damped) trend method."""

    supports_incremental_update = True

    def __init__(
        self,
        alpha: float | None = None,
        beta: float | None = None,
        damped: bool = False,
        horizon: int = 1,
    ):
        self.alpha = alpha
        self.beta = beta
        self.damped = damped
        self.horizon = horizon

    def _fit_single(self, series: np.ndarray) -> tuple[float, float, float, float, float]:
        values = series.tolist()
        if len(series) < 4 or np.ptp(series) == 0:
            alpha, beta, phi = 0.5, 0.1, 0.98 if self.damped else 1.0
        elif self.alpha is not None and self.beta is not None:
            alpha = float(np.clip(self.alpha, 1e-4, 1.0))
            beta = float(np.clip(self.beta, 1e-4, 1.0))
            phi = 0.98 if self.damped else 1.0
        else:
            if self.damped:
                initial = np.array([0.5, 0.1, 0.95])
                bounds = [(1e-4, 1.0), (1e-4, 1.0), (0.8, 1.0)]
            else:
                initial = np.array([0.5, 0.1])
                bounds = [(1e-4, 1.0), (1e-4, 1.0)]
            result = optimize.minimize(
                _holt_sse,
                initial,
                args=(values, self.damped),
                bounds=bounds,
                method="L-BFGS-B",
            )
            alpha, beta = float(result.x[0]), float(result.x[1])
            phi = float(result.x[2]) if self.damped else 1.0

        _, level, trend = _holt_filter(values, alpha, beta, phi)
        return alpha, beta, phi, float(level), float(trend)

    def fit(self, X, y=None) -> "DoubleExponentialSmoothing":
        X = as_2d_array(X, allow_nan=False)
        fitted = [self._fit_single(X[:, j]) for j in range(X.shape[1])]
        self.alphas_ = np.array([item[0] for item in fitted])
        self.betas_ = np.array([item[1] for item in fitted])
        self.phis_ = np.array([item[2] for item in fitted])
        self.levels_ = np.array([item[3] for item in fitted])
        self.trends_ = np.array([item[4] for item in fitted])
        self.n_series_ = X.shape[1]
        return self

    def update(self, X_new, X_full=None) -> "DoubleExponentialSmoothing":
        """Continue Holt's level/trend recursion with frozen parameters.

        Byte-identical to a cold refit when ``alpha``/``beta`` are fixed
        (same elementwise recursion over the same operands); with
        optimised parameters the update keeps the fitted values rather
        than re-optimising — see :meth:`SimpleExponentialSmoothing.update`.
        """
        check_is_fitted(self, ("levels_",))
        X_new = _check_update_block(X_new, self.n_series_)
        levels, trends = self.levels_, self.trends_
        alphas, betas, phis = self.alphas_, self.betas_, self.phis_
        for row in X_new:
            forecast = levels + phis * trends
            new_levels = alphas * row + (1 - alphas) * forecast
            trends = betas * (new_levels - levels) + (1 - betas) * phis * trends
            levels = new_levels
        self.levels_, self.trends_ = levels, trends
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("levels_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        forecasts = np.empty((horizon, self.n_series_))
        for j in range(self.n_series_):
            phi = self.phis_[j]
            if phi == 1.0:
                damping = np.arange(1, horizon + 1, dtype=float)
            else:
                damping = np.cumsum(phi ** np.arange(1, horizon + 1))
            forecasts[:, j] = self.levels_[j] + damping * self.trends_[j]
        return forecasts
