"""Error metrics.

The paper evaluates every toolkit with the Symmetric Mean Absolute
Percentage Error (SMAPE), reported on a 0-200 scale (a model that fails to
finish is recorded as 0 and excluded from ranking).
"""

from __future__ import annotations

import numpy as np

__all__ = ["smape"]


def _align(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        y_true = y_true.reshape(-1)
        y_pred = y_pred.reshape(-1)
        n = min(len(y_true), len(y_pred))
        if n == 0:
            raise ValueError("Cannot compute a metric on empty arrays.")
        y_true, y_pred = y_true[:n], y_pred[:n]
    if y_true.size == 0:
        raise ValueError("Cannot compute a metric on empty arrays.")
    return y_true, y_pred


def smape(y_true, y_pred) -> float:
    """Symmetric mean absolute percentage error on the 0-200 scale.

    ``200 * |y - yhat| / (|y| + |yhat|)`` averaged over all points, with the
    convention that a point where both actual and forecast are zero
    contributes zero error.
    """
    y_true, y_pred = _align(y_true, y_pred)
    numerator = np.abs(y_true - y_pred)
    denominator = np.abs(y_true) + np.abs(y_pred)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denominator == 0, 0.0, numerator / denominator)
    return float(200.0 * np.mean(ratio))
