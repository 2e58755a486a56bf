"""Input validation helpers shared across the library.

The public AutoAI-TS API (paper section 3) uses 2-D arrays in which columns
are individual time series and rows are samples.  These helpers normalise
user input into that canonical shape and perform the defensive checks the
paper's "quality check" stage relies on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import DataQualityError, InvalidParameterError

__all__ = [
    "as_2d_array",
    "as_1d_array",
    "check_positive_int",
    "check_fraction",
    "check_horizon",
    "check_consistent_length",
    "has_missing",
    "has_negative",
    "num_series",
]


def as_2d_array(values, name: str = "X", dtype=float, allow_nan: bool = True) -> np.ndarray:
    """Coerce ``values`` to a 2-D float array of shape ``(n_samples, n_series)``.

    1-D input is treated as a single time series (one column).  Non-numeric
    input raises :class:`DataQualityError` because it indicates the data did
    not pass the paper's quality check (strings / unexpected characters).

    Columnar frames (``repro.frame``) are accepted by duck type — the
    marker attribute, not an import, so this module stays dependency-free
    — and are **materialized** here: this is the compatibility path for
    consumers that only speak 2-D arrays.  Code that can stream should
    check ``is_timeseries_frame`` itself before falling through to this.

    ``allow_nan=False`` rejects any non-finite value, NaN or infinite, with
    :class:`DataQualityError`.
    """
    if getattr(values, "is_timeseries_frame", False):
        values = values.to_array()
    try:
        array = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DataQualityError(
            f"{name} contains non-numeric values and cannot be used for "
            f"forecasting: {exc}"
        ) from exc

    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2:
        raise DataQualityError(
            f"{name} must be a 1-D or 2-D array, got {array.ndim} dimensions."
        )
    if array.shape[0] == 0:
        raise DataQualityError(f"{name} is empty: at least one sample is required.")
    if not allow_nan and not np.isfinite(array).all():
        raise DataQualityError(f"{name} contains NaN or infinite values.")
    return array


def as_1d_array(values, name: str = "y", dtype=float) -> np.ndarray:
    """Coerce ``values`` to a 1-D float array, squeezing single columns."""
    array = np.asarray(values, dtype=dtype)
    if array.ndim == 2 and array.shape[1] == 1:
        array = array.ravel()
    if array.ndim != 1:
        raise DataQualityError(f"{name} must be a 1-D array, got shape {array.shape}.")
    return array


def check_positive_int(value, name: str, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer >= ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}.")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}.")
    return int(value)


def check_fraction(value, name: str) -> float:
    """Validate that ``value`` lies strictly inside ``(0, 1)``."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise InvalidParameterError(f"{name} must be in (0, 1), got {value}.")
    return value


def check_horizon(horizon) -> int:
    """Validate a prediction horizon (>= 1)."""
    return check_positive_int(horizon, "prediction_horizon", minimum=1)


def check_consistent_length(*arrays: Sequence) -> None:
    """Raise if the arrays do not all share the same first dimension."""
    lengths = {len(a) for a in arrays if a is not None}
    if len(lengths) > 1:
        raise DataQualityError(
            f"Input arrays have inconsistent lengths: {sorted(lengths)}."
        )


def has_missing(array: np.ndarray) -> bool:
    """Return True when the array contains NaN values."""
    return bool(np.isnan(array).any())


def has_negative(array: np.ndarray) -> bool:
    """Return True when the array contains negative values (ignoring NaNs)."""
    return bool(np.nanmin(array) < 0) if array.size else False


def num_series(array: np.ndarray) -> int:
    """Number of time series (columns) in a canonical 2-D array."""
    return 1 if array.ndim == 1 else array.shape[1]
