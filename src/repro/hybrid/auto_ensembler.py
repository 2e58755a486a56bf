"""AutoEnsembler pipelines: a weighted regressor pool over look-back windows.

Three of the paper's ten pipelines are ensembles over flattened look-back
windows (figure 14/15): ``FlattenAutoEnsembler (log)``,
``DifferenceFlattenAutoEnsembler (log)`` and
``LocalizedFlattenAutoEnsembler``.  Each is a
:class:`~repro.hybrid.window_regressor.WindowRegressor` whose per-series
regressor is one ensemble:

1. the optional log transform belongs to the surrounding
   :class:`~repro.core.pipeline.ForecastingPipeline`;
2. the flatten variant picks the windows: raw, cut from first differences
   (forecasts are integrated from the last observed row), or localized
   (each window relative to its last row);
3. each pool member is fit on every window but a validation tail, scored
   by its mean absolute error there, and refit on every window;
4. the forecast combines the members with normalised inverse-error weights
   (the "auto" part: the ensemble composition adapts to the data set).
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_array
from ..core.base import BaseRegressor, clone
from ..ml.boosting import GradientBoostingRegressor
from ..ml.forest import RandomForestRegressor
from ..ml.linear import RidgeRegression
from .window_regressor import WindowRegressor

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


class _InverseErrorEnsemble(BaseRegressor):
    """A regressor pool weighted by each member's error on a validation tail.

    ``fit`` takes each pool member in turn: it fits a clone on every row but
    the last ``validation_fraction``, scores its mean absolute error on
    those rows, then fits a fresh clone on every row.  The weights are the
    normalised inverse errors; ``predict`` sums the weighted member
    predictions in pool order.
    """

    def __init__(
        self, regressors: list[BaseRegressor] | None = None, validation_fraction: float = 0.2
    ):
        self.regressors = regressors
        self.validation_fraction = validation_fraction

    def fit(self, X, y) -> "_InverseErrorEnsemble":
        n_rows = len(X)
        n_validation = max(1, int(round(self.validation_fraction * n_rows)))
        n_validation = min(n_validation, n_rows - 1) if n_rows > 1 else 0
        n_train = n_rows - n_validation
        pool = self.regressors if self.regressors is not None else _default_pool()
        self.members_: list[BaseRegressor] = []
        errors: list[float] = []
        for template in pool:
            model = clone(template).fit(X[:n_train], y[:n_train])
            if n_validation:
                predictions = np.asarray(model.predict(X[n_train:]), dtype=float).ravel()
                residuals = predictions - np.asarray(y[n_train:]).ravel()
                errors.append(float(np.mean(np.abs(residuals))))
            else:
                errors.append(1.0)
            # Refit on all windows so the deployed member uses every sample.
            self.members_.append(clone(template).fit(X, y))
        # Inverse-error weights; guard against all-zero errors.
        with np.errstate(divide="ignore"):
            weights = 1.0 / np.clip(np.asarray(errors, dtype=float), 1e-12, None)
        self.weights_ = weights / weights.sum()
        return self

    def predict(self, X) -> np.ndarray:
        combined = 0.0
        for weight, model in zip(self.weights_, self.members_):
            combined = combined + weight * np.asarray(model.predict(X), dtype=float).ravel()
        return combined


class FlattenAutoEnsembler(WindowRegressor):
    """Ensemble of regressors over flattened (raw) look-back windows."""

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

    @property
    def regressor(self) -> BaseRegressor:
        """The ensemble each series' clone fits."""
        return _InverseErrorEnsemble(self.regressors, self.validation_fraction)

    @property
    def name(self) -> str:
        return "FlattenAutoEnsembler"


class DifferenceFlattenAutoEnsembler(FlattenAutoEnsembler):
    """AutoEnsembler over windows of first differences (integrated forecasts)."""

    def _prepare(self, X):
        """First differences; the last observed row is kept for ``_restore``."""
        X = as_2d_array(X)
        self._last_row = X[-1].copy()
        return np.diff(X, axis=0)

    def _restore(self, forecasts: np.ndarray) -> np.ndarray:
        # Integrate the differenced forecasts from the last observed level.
        return np.cumsum(forecasts, axis=0) + self._last_row

    @property
    def name(self) -> str:
        return "DifferenceFlattenAutoEnsembler"


class LocalizedFlattenAutoEnsembler(FlattenAutoEnsembler):
    """AutoEnsembler over level-anchored (localized) windows."""

    _localized = True

    @property
    def name(self) -> str:
        return "LocalizedFlattenAutoEnsembler"
