"""Naive forecasting baselines, including the paper's Zero Model.

"The Zero Model simply outputs the most recent value of a time series as the
next prediction.  For prediction horizons greater than 1 the most recent
value is repeated." (paper section 4).  The seasonal naive and drift variants
are used by the MASE metric, the ablation benchmarks and the data-suite
sanity tests.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_array, check_horizon, check_positive_int, check_update_block
from ..core.base import BaseForecaster, check_is_fitted

__all__ = [
    "ZeroModelForecaster",
    "SeasonalNaiveForecaster",
    "DriftForecaster",
    "MeanForecaster",
]


class ZeroModelForecaster(BaseForecaster):
    """Repeat the last observed value of every series over the horizon."""

    supports_incremental_update = True

    def __init__(self, horizon: int = 1):
        self.horizon = horizon

    def fit(self, X, y=None) -> "ZeroModelForecaster":
        X = as_2d_array(X)
        self.last_values_ = X[-1].copy()
        self.n_series_ = X.shape[1]
        return self

    def update(self, X_new, X_full=None) -> "ZeroModelForecaster":
        """O(1) update: only the newest row matters (byte-identical to refit)."""
        check_is_fitted(self, ("last_values_",))
        X_new = check_update_block(X_new, self.n_series_)
        self.last_values_ = X_new[-1].copy()
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("last_values_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        return np.tile(self.last_values_, (horizon, 1))


class SeasonalNaiveForecaster(BaseForecaster):
    """Repeat the last full season of every series.

    Falls back to the Zero Model behaviour when the series is shorter than
    one season.
    """

    def __init__(self, seasonal_period: int = 1, horizon: int = 1):
        self.seasonal_period = seasonal_period
        self.horizon = horizon

    supports_incremental_update = True

    def fit(self, X, y=None) -> "SeasonalNaiveForecaster":
        period = check_positive_int(self.seasonal_period, "seasonal_period")
        X = as_2d_array(X)
        if len(X) >= period:
            self.last_season_ = X[-period:].copy()
        else:
            self.last_season_ = np.tile(X[-1], (period, 1))
        self.n_series_ = X.shape[1]
        self.n_obs_ = len(X)
        # Observed (not tiled) trailing rows, up to one season: the state
        # update() needs to reproduce a cold refit exactly.
        self._tail_ = X[-period:].copy()
        return self

    def update(self, X_new, X_full=None) -> "SeasonalNaiveForecaster":
        """O(period) update: roll the observed tail (byte-identical to refit)."""
        check_is_fitted(self, ("last_season_",))
        X_new = check_update_block(X_new, self.n_series_)
        period = check_positive_int(self.seasonal_period, "seasonal_period")
        tail = np.vstack([self._tail_, X_new])[-period:]
        self.n_obs_ += len(X_new)
        self._tail_ = tail
        if self.n_obs_ >= period:
            self.last_season_ = tail.copy()
        else:
            self.last_season_ = np.tile(tail[-1], (period, 1))
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("last_season_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        period = len(self.last_season_)
        repeats = int(np.ceil(horizon / period))
        tiled = np.tile(self.last_season_, (repeats, 1))
        return tiled[:horizon]


class DriftForecaster(BaseForecaster):
    """Extrapolate the average first difference (random walk with drift)."""

    supports_incremental_update = True

    def __init__(self, horizon: int = 1):
        self.horizon = horizon

    def fit(self, X, y=None) -> "DriftForecaster":
        X = as_2d_array(X)
        self.last_values_ = X[-1].copy()
        self.first_values_ = X[0].copy()
        self.n_obs_ = len(X)
        if len(X) > 1:
            self.drift_ = (X[-1] - X[0]) / (len(X) - 1)
        else:
            self.drift_ = np.zeros(X.shape[1])
        self.n_series_ = X.shape[1]
        return self

    def update(self, X_new, X_full=None) -> "DriftForecaster":
        """O(1) update from (first value, count): byte-identical to a refit —
        the drift is the same ``(last - first) / (n - 1)`` expression on the
        same operand bytes."""
        check_is_fitted(self, ("last_values_",))
        X_new = check_update_block(X_new, self.n_series_)
        self.n_obs_ += len(X_new)
        self.last_values_ = X_new[-1].copy()
        if self.n_obs_ > 1:
            self.drift_ = (self.last_values_ - self.first_values_) / (self.n_obs_ - 1)
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("last_values_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        steps = np.arange(1, horizon + 1).reshape(-1, 1)
        with np.errstate(over="ignore"):  # inf is reported by the finite checks downstream
            return self.last_values_ + steps * self.drift_


class MeanForecaster(BaseForecaster):
    """Forecast the historical mean of every series.

    Exists mainly as the simplest *sufficient-statistics* forecaster: the
    fitted state is a per-series running sum and a count, so ``update`` is
    O(len(X_new)) and exact up to float summation order (a cold refit sums
    all rows in one vectorized pass, the incremental path adds block sums —
    algebraically identical, associatively different).
    """

    supports_incremental_update = True

    def __init__(self, horizon: int = 1):
        self.horizon = horizon

    def fit(self, X, y=None) -> "MeanForecaster":
        X = as_2d_array(X)
        self.sum_ = X.sum(axis=0)
        self.n_obs_ = len(X)
        self.mean_ = self.sum_ / self.n_obs_
        self.n_series_ = X.shape[1]
        return self

    def update(self, X_new, X_full=None) -> "MeanForecaster":
        check_is_fitted(self, ("mean_",))
        X_new = check_update_block(X_new, self.n_series_)
        self.sum_ = self.sum_ + X_new.sum(axis=0)
        self.n_obs_ += len(X_new)
        self.mean_ = self.sum_ / self.n_obs_
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("mean_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        return np.tile(self.mean_, (horizon, 1))

    @property
    def name(self) -> str:
        return "Mean"
