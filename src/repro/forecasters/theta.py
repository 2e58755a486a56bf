"""Theta method forecaster.

Not part of the paper's ten-pipeline inventory but included as an optional
pipeline (the paper notes the system "can incorporate any other type of
model family without requiring any changes"), and used by the ablation
benchmarks as an additional cheap statistical candidate.  The classic
Theta(0, 2) decomposition is equivalent to simple exponential smoothing with
drift, which is how it is implemented here.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_array, check_horizon
from ..core.base import BaseForecaster, check_is_fitted
from .ets import SimpleExponentialSmoothing

__all__ = ["ThetaForecaster"]


class ThetaForecaster(BaseForecaster):
    """Theta(0, 2) method: SES forecast plus half the linear trend slope."""

    supports_incremental_update = True

    def __init__(self, horizon: int = 1, alpha: float | None = None):
        self.horizon = horizon
        self.alpha = alpha

    def fit(self, X, y=None) -> "ThetaForecaster":
        X = as_2d_array(X, allow_nan=False)
        self.n_series_ = X.shape[1]
        self._ses = SimpleExponentialSmoothing(alpha=self.alpha, horizon=self.horizon).fit(X)

        # Linear trend slope per series (theta line with theta = 2 doubles the
        # curvature; its mean contribution reduces to half the OLS slope).
        time_index = np.arange(len(X), dtype=float)
        centered_time = time_index - time_index.mean()
        denominator = float(np.dot(centered_time, centered_time))
        slopes = []
        for j in range(X.shape[1]):
            series = X[:, j]
            if denominator == 0:
                slopes.append(0.0)
            else:
                slopes.append(float(np.dot(centered_time, series - series.mean()) / denominator))
        self.slopes_ = np.array(slopes)
        # Sufficient statistics of the OLS slope: with t = 0..n-1 the
        # centered-time denominator and cross term are closed forms of
        # (n, sum y, sum t*y), so update() extends the trend in O(Δ).
        self.n_obs_ = len(X)
        self._y_sum_ = X.sum(axis=0)
        self._ty_sum_ = time_index @ X
        return self

    def update(self, X_new, X_full=None) -> "ThetaForecaster":
        """O(Δ) update of the SES level and the trend's sufficient stats.

        The recomputed slope is the same OLS estimate a cold refit would
        produce, but from accumulated (n, Σy, Σty) rather than one
        vectorized pass over the full series — algebraically identical,
        associatively different, so parity is tight-tolerance rather than
        byte-exact (the SES level side is byte-exact for fixed alpha; see
        :meth:`SimpleExponentialSmoothing.update`).
        """
        check_is_fitted(self, ("slopes_",))
        X_new = as_2d_array(X_new, name="X_new", allow_nan=False)
        self._ses.update(X_new)
        t_new = np.arange(self.n_obs_, self.n_obs_ + len(X_new), dtype=float)
        self._y_sum_ = self._y_sum_ + X_new.sum(axis=0)
        self._ty_sum_ = self._ty_sum_ + t_new @ X_new
        self.n_obs_ += len(X_new)
        n = float(self.n_obs_)
        t_sum = n * (n - 1.0) / 2.0
        t2_sum = (n - 1.0) * n * (2.0 * n - 1.0) / 6.0
        denominator = t2_sum - t_sum * t_sum / n
        if denominator == 0:
            self.slopes_ = np.zeros(self.n_series_)
        else:
            self.slopes_ = (self._ty_sum_ - t_sum * self._y_sum_ / n) / denominator
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("slopes_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        ses_forecast = self._ses.predict(horizon)
        steps = np.arange(1, horizon + 1, dtype=float).reshape(-1, 1)
        return ses_forecast + 0.5 * self.slopes_ * steps

    @property
    def name(self) -> str:
        return "Theta"
