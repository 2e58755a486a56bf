"""Linear least-squares regressors (ordinary and ridge).

Both support multi-output targets, which the window-based forecasters use to
predict a whole horizon in one shot (direct multi-step forecasting).
"""

from __future__ import annotations

import numpy as np

from .._validation import check_consistent_length
from ..core.base import BaseRegressor, check_is_fitted
from ..exceptions import InvalidParameterError

__all__ = ["LinearRegression", "RidgeRegression", "StreamingRidge"]


def _prepare(X, y) -> tuple[np.ndarray, np.ndarray, bool]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    single_output = y.ndim == 1
    if single_output:
        y = y.reshape(-1, 1)
    check_consistent_length(X, y)
    return X, y, single_output


class LinearRegression(BaseRegressor):
    """Ordinary least squares linear regression."""

    def __init__(self, fit_intercept: bool = True):
        self.fit_intercept = fit_intercept

    def fit(self, X, y) -> "LinearRegression":
        X, y, self._single_output = _prepare(X, y)
        if self.fit_intercept:
            design = np.column_stack([np.ones(len(X)), X])
        else:
            design = X
        solution, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        if self.fit_intercept:
            self.intercept_ = solution[0]
            self.coef_ = solution[1:]
        else:
            self.intercept_ = np.zeros(y.shape[1])
            self.coef_ = solution
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ("coef_",))
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        predictions = X @ self.coef_ + self.intercept_
        if self._single_output:
            return predictions.ravel()
        return predictions


class StreamingRidge(BaseRegressor):
    """Ridge regression fit from accumulated raw second moments.

    The closed-form ridge solution needs only ``X'X``, ``X'y`` and the
    column sums — all additive over row blocks — so the model can consume
    a lag matrix **block by block** (:meth:`partial_fit`) without the full
    tensor ever existing.  This is the estimator the out-of-core framing
    path pairs with :class:`repro.frame.framer.ChunkedWindowFramer`: peak
    memory is one block plus two ``(d, d)``/``(d, k)`` accumulators.

    Determinism: given the same block sequence the accumulators see the
    same floating-point operations in the same order, so two runs (or an
    in-memory and an out-of-core run using identical ``block_windows``)
    produce bit-identical coefficients.  Note the raw-moment centering
    (``X'X - n·x̄x̄'``) is *mathematically* equal to
    :class:`RidgeRegression`'s centered Gram but associates differently,
    so coefficients agree only to numerical precision with the one-shot
    solver — run-to-run equality is exact, cross-solver equality is
    approximate.

    ``fit(X, y)`` is reset + one ``partial_fit`` (drop-in for the batch
    API); the solve happens lazily on first :meth:`predict`.
    """

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True):
        self.alpha = alpha
        self.fit_intercept = fit_intercept

    def _reset(self) -> None:
        self._xtx = None
        self._xty = None
        self._x_sum = None
        self._y_sum = None
        self._n = 0
        self._solved = False

    def partial_fit(self, X, y) -> "StreamingRidge":
        """Fold one block of rows into the moment accumulators."""
        if self.alpha < 0:
            raise InvalidParameterError(f"alpha must be >= 0, got {self.alpha}.")
        X, y, single_output = _prepare(X, y)
        if getattr(self, "_xtx", None) is None:
            if self._n_accumulated() == 0:
                self._reset()
            d, k = X.shape[1], y.shape[1]
            self._xtx = np.zeros((d, d))
            self._xty = np.zeros((d, k))
            self._x_sum = np.zeros(d)
            self._y_sum = np.zeros(k)
            self._single_output = single_output
        self._xtx += X.T @ X
        self._xty += X.T @ y
        self._x_sum += X.sum(axis=0)
        self._y_sum += y.sum(axis=0)
        self._n += len(X)
        self._solved = False
        return self

    def _n_accumulated(self) -> int:
        return int(getattr(self, "_n", 0))

    def fit(self, X, y) -> "StreamingRidge":
        self._reset()
        return self.partial_fit(X, y)

    def _solve(self) -> None:
        if self._n == 0 or self._xtx is None:
            raise RuntimeError("StreamingRidge has seen no data.")
        n = float(self._n)
        if self.fit_intercept:
            x_mean = self._x_sum / n
            y_mean = self._y_sum / n
            gram = self._xtx - n * np.outer(x_mean, x_mean)
            moment = self._xty - n * np.outer(x_mean, y_mean)
        else:
            x_mean = np.zeros(self._xtx.shape[0])
            y_mean = np.zeros(self._xty.shape[1])
            gram = self._xtx.copy()
            moment = self._xty.copy()
        gram += self.alpha * np.eye(gram.shape[0])
        try:
            self.coef_ = np.linalg.solve(gram, moment)
        except np.linalg.LinAlgError:
            self.coef_, _, _, _ = np.linalg.lstsq(gram, moment, rcond=None)
        self.intercept_ = y_mean - x_mean @ self.coef_
        self.n_features_in_ = gram.shape[0]
        self._solved = True

    def predict(self, X) -> np.ndarray:
        if not getattr(self, "_solved", False):
            self._solve()
        check_is_fitted(self, ("coef_",))
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        predictions = X @ self.coef_ + self.intercept_
        if self._single_output:
            return predictions.ravel()
        return predictions


class RidgeRegression(BaseRegressor):
    """Linear regression with L2 regularisation (closed form).

    The intercept is never penalised: features and targets are centred before
    solving so the ridge penalty applies only to the slope coefficients.
    """

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True):
        self.alpha = alpha
        self.fit_intercept = fit_intercept

    def fit(self, X, y) -> "RidgeRegression":
        if self.alpha < 0:
            raise InvalidParameterError(f"alpha must be >= 0, got {self.alpha}.")
        X, y, self._single_output = _prepare(X, y)

        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = y.mean(axis=0)
            X_centered = X - x_mean
            y_centered = y - y_mean
        else:
            x_mean = np.zeros(X.shape[1])
            y_mean = np.zeros(y.shape[1])
            X_centered, y_centered = X, y

        n_features = X.shape[1]
        # Inputs near the float range overflow the products; the non-finite
        # coefficients that follow fail the fit's score, so they need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = X_centered.T @ X_centered + self.alpha * np.eye(n_features)
            moment = X_centered.T @ y_centered
        try:
            self.coef_ = np.linalg.solve(gram, moment)
        except np.linalg.LinAlgError:
            self.coef_, _, _, _ = np.linalg.lstsq(gram, moment, rcond=None)
        self.intercept_ = y_mean - x_mean @ self.coef_
        self.n_features_in_ = n_features
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ("coef_",))
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        predictions = X @ self.coef_ + self.intercept_
        if self._single_output:
            return predictions.ravel()
        return predictions
