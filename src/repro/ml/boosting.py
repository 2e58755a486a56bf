"""Gradient boosted regression trees (XGBoost-style model family).

The paper lists XGBoost among the ML models; this implementation provides
the same family — stage-wise additive trees fitted to gradients of a squared
or huber loss with shrinkage, subsampling and optional early stopping — on
top of the CART tree in :mod:`repro.ml.tree`.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_consistent_length, check_positive_int
from ..core.base import BaseRegressor, check_is_fitted
from ..exceptions import InvalidParameterError
from .tree import DecisionTreeRegressor, TreeArrays

__all__ = ["GradientBoostingRegressor"]

_LOSSES = ("squared_error", "huber")


class GradientBoostingRegressor(BaseRegressor):
    """Stage-wise additive boosting of shallow regression trees."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        loss: str = "squared_error",
        huber_delta: float = 1.0,
        n_iter_no_change: int | None = None,
        validation_fraction: float = 0.1,
        random_state: int | None = 0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.loss = loss
        self.huber_delta = huber_delta
        self.n_iter_no_change = n_iter_no_change
        self.validation_fraction = validation_fraction
        self.random_state = random_state

    def _negative_gradient(self, y: np.ndarray, predictions: np.ndarray) -> np.ndarray:
        residuals = y - predictions
        if self.loss == "squared_error":
            return residuals
        # Huber: residual inside delta, delta * sign outside.
        delta = self.huber_delta
        return np.where(np.abs(residuals) <= delta, residuals, delta * np.sign(residuals))

    def fit(self, X, y) -> "GradientBoostingRegressor":
        if self.loss not in _LOSSES:
            raise InvalidParameterError(
                f"Unknown loss {self.loss!r}; expected one of {_LOSSES}."
            )
        if not 0.0 < self.subsample <= 1.0:
            raise InvalidParameterError("subsample must be in (0, 1].")
        check_positive_int(self.n_estimators, "n_estimators")

        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        check_consistent_length(X, y)

        rng = np.random.default_rng(self.random_state)
        n_samples = len(y)

        # Optional validation split for early stopping (most recent rows,
        # consistent with temporal ordering of windowed features).
        if self.n_iter_no_change is not None and n_samples >= 20:
            n_validation = max(1, int(round(self.validation_fraction * n_samples)))
            X_train, y_train = X[:-n_validation], y[:-n_validation]
            X_val, y_val = X[-n_validation:], y[-n_validation:]
        else:
            X_train, y_train = X, y
            X_val = y_val = None

        self.init_prediction_ = float(np.mean(y_train))
        predictions = np.full(len(y_train), self.init_prediction_)
        validation_predictions = (
            np.full(len(y_val), self.init_prediction_) if y_val is not None else None
        )

        self.estimators_: list[DecisionTreeRegressor] = []
        self.train_scores_: list[float] = []
        best_validation_loss = np.inf
        rounds_without_improvement = 0

        for iteration in range(int(self.n_estimators)):
            gradient = self._negative_gradient(y_train, predictions)

            if self.subsample < 1.0:
                sample_size = max(2, int(round(self.subsample * len(y_train))))
                sample_indices = rng.choice(len(y_train), size=sample_size, replace=False)
            else:
                sample_indices = np.arange(len(y_train))

            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X_train[sample_indices], gradient[sample_indices])
            self.estimators_.append(tree)

            predictions += self.learning_rate * tree.predict(X_train)
            self.train_scores_.append(float(np.mean((y_train - predictions) ** 2)))

            if validation_predictions is not None:
                validation_predictions += self.learning_rate * tree.predict(X_val)
                validation_loss = float(np.mean((y_val - validation_predictions) ** 2))
                if validation_loss < best_validation_loss - 1e-12:
                    best_validation_loss = validation_loss
                    rounds_without_improvement = 0
                else:
                    rounds_without_improvement += 1
                    if rounds_without_improvement >= int(self.n_iter_no_change):
                        break

        self.n_estimators_ = len(self.estimators_)
        self.trees_ = TreeArrays.concat([tree.tree_ for tree in self.estimators_])
        self.n_features_in_ = X.shape[1]
        return self

    def _stages(self, X) -> np.ndarray:
        """Prediction after each stage, shape ``(stages + 1, rows)``.

        Row 0 is the initial prediction; stages are added in tree order,
        exactly as a running ``predictions += learning_rate * tree`` would.
        """
        check_is_fitted(self, ("trees_",))
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        steps = np.empty((self.n_estimators_ + 1, len(X)))
        steps[0] = self.init_prediction_
        steps[1:] = self.learning_rate * self.trees_.predict(X)
        return np.cumsum(steps, axis=0)

    def predict(self, X) -> np.ndarray:
        return self._stages(X)[-1]

    def staged_predict(self, X):
        """Yield predictions after each boosting stage (used in tests)."""
        yield from self._stages(X)[1:]
