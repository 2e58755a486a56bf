"""Input data quality check and cleaning (first stage of figure 2).

"Once the data is provided to the system, it performs an initial quality
check of the input data which includes looking for missing or NaN values,
unexpected characters or values such as strings in the time series, it also
checks if there are negative values so that system can disable certain
transformations such as log transform."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import as_2d_array
from ..exceptions import DataQualityError
from ..transforms.impute import interpolate_series

__all__ = ["QualityReport", "check_data_quality", "clean_data"]


@dataclass
class QualityReport:
    """Findings of the quality check, used to gate transforms and pipelines.

    Attributes
    ----------
    n_samples, n_series:
        Shape of the (canonicalised) input.
    has_missing:
        True when NaNs or infinite values were found; both count as missing
        and are interpolated by :func:`clean_data`.
    has_negative:
        True when negative finite values are present; log/Box-Cox style
        transforms are disabled in that case.
    constant_series:
        Indices of series with zero variance (some models degrade to naive
        forecasts on them).
    missing_fraction:
        Fraction of NaN or infinite cells in the raw input.
    messages:
        Human readable notes displayed in the progress output.
    """

    n_samples: int
    n_series: int
    has_missing: bool
    has_negative: bool
    constant_series: list[int] = field(default_factory=list)
    missing_fraction: float = 0.0
    messages: list[str] = field(default_factory=list)

    @property
    def allow_log_transforms(self) -> bool:
        """Whether log/Box-Cox transforms may be used on this data."""
        return not self.has_negative


def check_data_quality(X, min_samples: int = 8) -> QualityReport:
    """Validate the input array and summarise its quality.

    Raises
    ------
    DataQualityError
        When the input is not numeric, is empty, is shorter than
        ``min_samples`` or holds no finite value.
    """
    array = as_2d_array(X, name="input data")
    n_samples, n_series = array.shape

    if n_samples < min_samples:
        raise DataQualityError(
            f"Time series of length {n_samples} is too short; at least "
            f"{min_samples} observations are required."
        )

    finite_mask = np.isfinite(array)
    if not finite_mask.any():
        raise DataQualityError("Input data contains only missing or infinite values.")

    missing_fraction = float(1.0 - finite_mask.mean())
    has_missing = not finite_mask.all()
    n_infinite = int(np.isinf(array).sum())
    has_negative = bool(array[finite_mask].min() < 0)

    constant_series = []
    for column in range(n_series):
        values = array[:, column]
        finite = values[np.isfinite(values)]
        if len(finite) == 0 or np.nanmax(finite) - np.nanmin(finite) == 0:
            constant_series.append(column)

    messages = []
    if n_infinite:
        messages.append(f"Infinite values detected ({n_infinite}); treated as missing.")
    if has_missing:
        messages.append(
            f"Missing values detected ({missing_fraction:.1%}); interpolation will be applied."
        )
    if has_negative:
        messages.append("Negative values detected; log-style transforms disabled.")
    if constant_series:
        messages.append(f"Constant series detected at columns {constant_series}.")

    return QualityReport(
        n_samples=n_samples,
        n_series=n_series,
        has_missing=has_missing,
        has_negative=has_negative,
        constant_series=constant_series,
        missing_fraction=missing_fraction,
        messages=messages,
    )


def clean_data(X, report: QualityReport | None = None) -> np.ndarray:
    """Return a cleaned copy of the data (NaN and ±inf interpolated column-wise)."""
    array = as_2d_array(X, name="input data")
    if report is None:
        report = check_data_quality(array)
    if not report.has_missing:
        return array.copy()
    array = np.where(np.isfinite(array), array, np.nan)
    columns = [interpolate_series(array[:, j], "linear") for j in range(array.shape[1])]
    return np.column_stack(columns)
