"""Statistical tests and descriptive checks on time series.

Includes the zero-crossing analysis from the look-back discovery mechanism
(section 4.1), a Dickey-Fuller style stationarity statistic used by ARIMA's
automatic differencing, and small helpers shared by the quality-check
stage.
"""

from __future__ import annotations

import numpy as np

from .linear_model import ols_fit

__all__ = [
    "zero_crossings",
    "mean_crossing_period",
    "adf_stationarity_stat",
    "is_constant",
    "ndiffs",
]


def zero_crossings(x) -> np.ndarray:
    """Indices where the mean-adjusted series crosses zero.

    The series is mean-adjusted first (paper: "we obtain the mean adjusted
    time series ... and find the indices where zero crossings happen").
    """
    x = np.asarray(x, dtype=float).ravel()
    if len(x) < 2:
        return np.array([], dtype=int)
    centered = x - np.mean(x)
    signs = np.sign(centered)
    # Treat exact zeros as belonging to the previous sign to avoid double counting.
    for i in range(1, len(signs)):
        if signs[i] == 0:
            signs[i] = signs[i - 1]
    crossings = np.where(np.diff(signs) != 0)[0]
    return crossings


def mean_crossing_period(x) -> float | None:
    """Average distance between adjacent zero crossings of the centred series.

    This is the value-index look-back estimate of section 4.1.  Returns
    ``None`` when fewer than two crossings exist.
    """
    crossings = zero_crossings(x)
    if len(crossings) < 2:
        return None
    return float(np.mean(np.diff(crossings)))


def adf_stationarity_stat(x, max_lag: int | None = None) -> float:
    """Augmented Dickey-Fuller style t-statistic on the lagged-level term.

    A strongly negative statistic indicates stationarity.  The implementation
    regresses ``diff(x)`` on ``x[t-1]`` plus lagged differences and a constant
    and returns the t-statistic of the ``x[t-1]`` coefficient.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = len(x)
    if n < 10 or is_constant(x):
        return 0.0
    if max_lag is None:
        max_lag = int(np.floor(12 * (n / 100.0) ** 0.25))
    max_lag = int(min(max(max_lag, 0), n // 2 - 2))

    dx = np.diff(x)
    level = x[:-1]
    rows = len(dx) - max_lag
    if rows < 5:
        max_lag = 0
        rows = len(dx)

    y = dx[max_lag:]
    columns = [level[max_lag:]]
    for lag in range(1, max_lag + 1):
        columns.append(dx[max_lag - lag : len(dx) - lag])
    X = np.column_stack(columns)

    result = ols_fit(X, y, fit_intercept=True)
    design = np.column_stack([np.ones(len(X)), X])
    try:
        cov = result.sigma2 * np.linalg.inv(design.T @ design)
    except np.linalg.LinAlgError:
        return 0.0
    se = np.sqrt(np.clip(np.diag(cov), 1e-30, None))
    # coefficient index 1 corresponds to the lagged level term.
    t_stat = result.coefficients[1] / se[1]
    return float(t_stat)


def is_constant(x, tolerance: float = 1e-12) -> bool:
    """True when the series has (numerically) zero variance."""
    x = np.asarray(x, dtype=float).ravel()
    if len(x) == 0:
        return True
    finite = x[np.isfinite(x)]
    if len(finite) == 0:
        return True
    return bool(np.nanmax(finite) - np.nanmin(finite) <= tolerance)


def ndiffs(x, max_d: int = 2, threshold: float = -2.86) -> int:
    """Number of differences needed for stationarity (ADF-based heuristic).

    ``threshold`` is the 5% Dickey-Fuller critical value for the
    constant-only regression; the series is differenced until the statistic
    falls below it or ``max_d`` is reached.
    """
    x = np.asarray(x, dtype=float).ravel()
    d = 0
    current = x
    while d < max_d:
        if is_constant(current) or len(current) < 10:
            break
        stat = adf_stationarity_stat(current)
        if stat < threshold:
            break
        current = np.diff(current)
        d += 1
    return d
