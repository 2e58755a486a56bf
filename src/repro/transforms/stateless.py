"""Stateless transforms: log, sqrt, Fisher and Box-Cox.

"Input time series data is first transformed using stateless transformers
(transformers that do not remember the state of the operation) such as log,
fisher, box_cox, etc." (paper section 3).  They store only the fitted
transformation parameters (e.g. the Box-Cox lambda or a positivity offset),
never the data itself, and are invertible element-wise.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_array
from ..core.base import BaseTransformer, check_is_fitted
from ..stats.boxcox import boxcox_lambda, boxcox_transform, inverse_boxcox_transform

__all__ = [
    "IdentityTransform",
    "LogTransform",
    "SqrtTransform",
    "FisherTransform",
    "BoxCoxTransform",
]


class IdentityTransform(BaseTransformer):
    """No-op transform, useful as a pipeline placeholder."""

    def fit(self, X, y=None) -> "IdentityTransform":
        self.n_features_ = as_2d_array(X).shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        return as_2d_array(X)

    def inverse_transform(self, X) -> np.ndarray:
        return as_2d_array(X)


class LogTransform(BaseTransformer):
    """Natural-log transform with an automatic positivity offset.

    When the training data contains values <= 0 an offset is learned so the
    shifted data is strictly positive; the offset is removed again by
    :meth:`inverse_transform`.  The quality-check stage normally disables the
    log transform for negative data, but the offset makes the transform safe
    even if it is applied anyway.
    """

    def __init__(self, offset: float | None = None):
        self.offset = offset

    def fit(self, X, y=None) -> "LogTransform":
        X = as_2d_array(X)
        if self.offset is not None:
            self.offset_ = float(self.offset)
        else:
            minimum = float(np.nanmin(X))
            self.offset_ = 0.0 if minimum > 0 else abs(minimum) + 1.0
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, ("offset_",))
        X = as_2d_array(X)
        return np.log(np.clip(X + self.offset_, 1e-12, None))

    def inverse_transform(self, X) -> np.ndarray:
        check_is_fitted(self, ("offset_",))
        X = as_2d_array(X)
        # Past ~709.78 exp is inf: the finite checks on cell scores and on
        # AutoAITS.predict report it, so it must not also warn here.
        with np.errstate(over="ignore"):
            return np.exp(X) - self.offset_


class SqrtTransform(BaseTransformer):
    """Square-root transform with an automatic positivity offset."""

    def __init__(self, offset: float | None = None):
        self.offset = offset

    def fit(self, X, y=None) -> "SqrtTransform":
        X = as_2d_array(X)
        if self.offset is not None:
            self.offset_ = float(self.offset)
        else:
            minimum = float(np.nanmin(X))
            self.offset_ = 0.0 if minimum >= 0 else abs(minimum)
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, ("offset_",))
        X = as_2d_array(X)
        return np.sqrt(np.clip(X + self.offset_, 0.0, None))

    def inverse_transform(self, X) -> np.ndarray:
        check_is_fitted(self, ("offset_",))
        X = as_2d_array(X)
        return np.square(X) - self.offset_


class FisherTransform(BaseTransformer):
    """Fisher z-transform (arctanh) applied after rescaling into (-1, 1).

    The training data's range is remembered so the transform and its inverse
    are consistent; values outside the training range are clipped into the
    open interval to keep arctanh finite.
    """

    def __init__(self, margin: float = 1e-3):
        self.margin = margin

    def fit(self, X, y=None) -> "FisherTransform":
        X = as_2d_array(X)
        self.minimum_ = np.nanmin(X, axis=0)
        self.maximum_ = np.nanmax(X, axis=0)
        span = self.maximum_ - self.minimum_
        span[span == 0] = 1.0
        self.span_ = span
        return self

    def _to_unit(self, X: np.ndarray) -> np.ndarray:
        scaled = 2.0 * (X - self.minimum_) / self.span_ - 1.0
        limit = 1.0 - self.margin
        return np.clip(scaled, -limit, limit)

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, ("minimum_", "span_"))
        X = as_2d_array(X)
        return np.arctanh(self._to_unit(X))

    def inverse_transform(self, X) -> np.ndarray:
        check_is_fitted(self, ("minimum_", "span_"))
        X = as_2d_array(X)
        unit = np.tanh(X)
        return (unit + 1.0) / 2.0 * self.span_ + self.minimum_


class BoxCoxTransform(BaseTransformer):
    """Box-Cox power transform with per-column automatic lambda selection."""

    def __init__(self, lam: float | None = None):
        self.lam = lam

    def fit(self, X, y=None) -> "BoxCoxTransform":
        X = as_2d_array(X)
        minimum = float(np.nanmin(X))
        self.offset_ = 0.0 if minimum > 0 else abs(minimum) + 1.0
        shifted = X + self.offset_
        if self.lam is not None:
            self.lambdas_ = np.full(X.shape[1], float(self.lam))
        else:
            self.lambdas_ = np.array(
                [boxcox_lambda(shifted[:, j]) for j in range(X.shape[1])]
            )
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, ("lambdas_",))
        X = as_2d_array(X) + self.offset_
        columns = [
            boxcox_transform(np.clip(X[:, j], 1e-12, None), self.lambdas_[j])
            for j in range(X.shape[1])
        ]
        return np.column_stack(columns)

    def inverse_transform(self, X) -> np.ndarray:
        check_is_fitted(self, ("lambdas_",))
        X = as_2d_array(X)
        columns = [
            inverse_boxcox_transform(X[:, j], self.lambdas_[j]) for j in range(X.shape[1])
        ]
        return np.column_stack(columns) - self.offset_
