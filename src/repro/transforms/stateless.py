"""The stateless log transform of the paper's ``(log)`` pipelines.

"Input time series data is first transformed using stateless transformers
(transformers that do not remember the state of the operation) such as log,
fisher, box_cox, etc." (paper section 3).  Of those, the ten-pipeline
inventory uses log only.  It stores only its positivity offset, never the
data itself, and is invertible element-wise.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_array
from ..core.base import BaseTransformer, check_is_fitted

__all__ = ["LogTransform"]


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
