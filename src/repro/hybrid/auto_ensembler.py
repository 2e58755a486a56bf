"""AutoEnsembler pipelines over flattened look-back windows.

Three of the paper's ten pipelines are ensembles over flattened look-back
windows (figure 14/15): ``FlattenAutoEnsembler (log)``,
``DifferenceFlattenAutoEnsembler (log)`` and
``LocalizedFlattenAutoEnsembler``.  Each one

1. optionally applies a stateless log transform (handled by the surrounding
   :class:`~repro.core.pipeline.ForecastingPipeline`),
2. builds its flatten variant inline (plain, differenced, or localized
   windows),
3. fits a small pool of heterogeneous regressors on the windowed problem,
4. scores the pool on the most recent validation tail, and
5. forecasts with a performance-weighted combination of the pool members
   (the "auto" part: the ensemble composition adapts to the data set).
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_array, check_horizon, check_positive_int
from ..core.base import BaseForecaster, BaseRegressor, check_is_fitted, clone
from ..ml.boosting import GradientBoostingRegressor
from ..ml.forest import RandomForestRegressor
from ..ml.linear import RidgeRegression
from ..transforms.window import make_supervised_windows

__all__ = [
    "FlattenAutoEnsembler",
    "DifferenceFlattenAutoEnsembler",
    "LocalizedFlattenAutoEnsembler",
]


def _default_pool() -> list[BaseRegressor]:
    """The heterogeneous regressor pool behind the auto-ensembles."""
    return [
        RidgeRegression(alpha=1.0),
        RandomForestRegressor(n_estimators=30, max_depth=8, random_state=0),
        GradientBoostingRegressor(n_estimators=60, max_depth=3, random_state=0),
    ]


class FlattenAutoEnsembler(BaseForecaster):
    """Ensemble of regressors over flattened (raw) look-back windows."""

    #: how the window features are expressed; overridden by subclasses.
    _mode = "flatten"

    def __init__(
        self,
        lookback: int = 8,
        horizon: int = 1,
        regressors: list[BaseRegressor] | None = None,
        validation_fraction: float = 0.2,
    ):
        self.lookback = lookback
        self.horizon = horizon
        self.regressors = regressors
        self.validation_fraction = validation_fraction

    # -- feature construction ------------------------------------------------
    def _prepare_series(self, X: np.ndarray) -> np.ndarray:
        """Series the windows are built from (differenced for the Difference variant)."""
        if self._mode == "difference":
            return np.diff(X, axis=0)
        return X

    def _build_training_set(
        self, series: np.ndarray, lookback: int, column: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        features, targets = make_supervised_windows(
            series, lookback, 1, target_column=column
        )
        if self._mode == "localized":
            n_windows = features.shape[0]
            windows = features.reshape(n_windows, lookback, series.shape[1])
            anchors = windows[:, -1, column]
            windows = windows - windows[:, -1:, :]
            features = windows.reshape(n_windows, lookback * series.shape[1])
            targets = targets - anchors
            return features, targets, anchors
        return features, targets, np.zeros(features.shape[0])

    # -- fitting ----------------------------------------------------------------
    def fit(self, X, y=None) -> "FlattenAutoEnsembler":
        X = as_2d_array(X)
        check_horizon(self.horizon)
        lookback = check_positive_int(self.lookback, "lookback")

        prepared = self._prepare_series(X)
        max_lookback = max(1, len(prepared) - 4)
        lookback = min(lookback, max_lookback)

        pool_template = self.regressors if self.regressors is not None else _default_pool()

        self.column_models_: list[list[BaseRegressor]] = []
        self.column_weights_: list[np.ndarray] = []
        for column in range(X.shape[1]):
            features, targets, _ = self._build_training_set(prepared, lookback, column)
            n_windows = len(features)
            n_validation = max(1, int(round(self.validation_fraction * n_windows)))
            n_validation = min(n_validation, n_windows - 1) if n_windows > 1 else 0

            models: list[BaseRegressor] = []
            errors: list[float] = []
            for template in pool_template:
                model = clone(template)
                if n_validation:
                    model.fit(features[:-n_validation], targets[:-n_validation])
                    predictions = np.asarray(
                        model.predict(features[-n_validation:]), dtype=float
                    ).ravel()
                    error = float(
                        np.mean(np.abs(predictions - np.asarray(targets[-n_validation:]).ravel()))
                    )
                else:
                    model.fit(features, targets)
                    error = 1.0
                # Refit on all windows so the deployed member uses every sample.
                model = clone(template)
                model.fit(features, targets)
                models.append(model)
                errors.append(error)

            errors_array = np.asarray(errors, dtype=float)
            # Inverse-error weights; guard against all-zero errors.
            with np.errstate(divide="ignore"):
                weights = 1.0 / np.clip(errors_array, 1e-12, None)
            weights = weights / weights.sum()
            self.column_models_.append(models)
            self.column_weights_.append(weights)

        self._lookback_used = lookback
        self._n_series = X.shape[1]
        self._last_original = X[-1].copy()
        self._last_window_prepared = prepared[-lookback:].copy()
        return self

    # -- forecasting -----------------------------------------------------------
    def _predict_one_step(self, window: np.ndarray) -> np.ndarray:
        """One-step-ahead prediction for every series from a prepared window."""
        step = np.empty(self._n_series)
        for column in range(self._n_series):
            if self._mode == "localized":
                features = (window - window[-1:]).reshape(1, -1)
                anchor = window[-1, column]
            else:
                features = window.reshape(1, -1)
                anchor = 0.0
            members = self.column_models_[column]
            weights = self.column_weights_[column]
            combined = 0.0
            for weight, model in zip(weights, members):
                prediction = np.asarray(model.predict(features), dtype=float).ravel()[0]
                combined += weight * prediction
            step[column] = combined + anchor
        return step

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("column_models_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)

        window = self._last_window_prepared.copy()
        prepared_forecasts = np.empty((horizon, self._n_series))
        for step in range(horizon):
            prepared_forecasts[step] = self._predict_one_step(window)
            window = np.vstack([window[1:], prepared_forecasts[step]])

        if self._mode == "difference":
            # Integrate the differenced forecasts from the last observed level.
            return np.cumsum(prepared_forecasts, axis=0) + self._last_original
        return prepared_forecasts

    @property
    def name(self) -> str:
        return "FlattenAutoEnsembler"


class DifferenceFlattenAutoEnsembler(FlattenAutoEnsembler):
    """AutoEnsembler over windows of first differences (integrated forecasts)."""

    _mode = "difference"

    @property
    def name(self) -> str:
        return "DifferenceFlattenAutoEnsembler"


class LocalizedFlattenAutoEnsembler(FlattenAutoEnsembler):
    """AutoEnsembler over level-anchored (localized) windows."""

    _mode = "localized"

    @property
    def name(self) -> str:
        return "LocalizedFlattenAutoEnsembler"
