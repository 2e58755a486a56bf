"""Autocorrelation and Yule-Walker estimation.

These power ARIMA order selection, the BATS ARMA-error component and the
seasonality heuristics used when only values (no timestamps) are available.
"""

from __future__ import annotations

import numpy as np

__all__ = ["acf", "yule_walker"]


def acf(x, nlags: int | None = None, adjusted: bool = False) -> np.ndarray:
    """Sample autocorrelation function up to ``nlags`` (inclusive).

    Parameters
    ----------
    x:
        1-D series.
    nlags:
        Number of lags; defaults to ``min(10 * log10(n), n - 1)`` which is the
        conventional Box-Jenkins choice.
    adjusted:
        When True, divide by ``n - k`` instead of ``n`` (unbiased-ish).
    """
    x = np.asarray(x, dtype=float).ravel()
    n = len(x)
    if n < 2:
        return np.ones(1)
    if nlags is None:
        nlags = int(min(10 * np.log10(n), n - 1))
    nlags = int(min(max(nlags, 1), n - 1))

    centered = x - np.mean(x)
    variance = float(np.dot(centered, centered))
    if variance <= 0:
        result = np.zeros(nlags + 1)
        result[0] = 1.0
        return result

    result = np.empty(nlags + 1)
    result[0] = 1.0
    for lag in range(1, nlags + 1):
        cov = float(np.dot(centered[: n - lag], centered[lag:]))
        denom = variance * (n / (n - lag)) if adjusted else variance
        result[lag] = cov / denom
    return result


def yule_walker(x, order: int) -> tuple[np.ndarray, float]:
    """Estimate AR(``order``) coefficients with the Yule-Walker equations.

    Returns ``(coefficients, sigma2)`` where ``sigma2`` is the innovation
    variance estimate.  Used to initialise ARIMA fits and by the DeepAR-like
    baseline's autoregressive scaling.
    """
    x = np.asarray(x, dtype=float).ravel()
    order = int(order)
    if order < 1:
        return np.zeros(0), float(np.var(x)) if len(x) else 0.0
    if len(x) <= order + 1:
        return np.zeros(order), float(np.var(x)) if len(x) else 0.0

    autocorr = acf(x, nlags=order)
    # Toeplitz system R * phi = r
    R = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            R[i, j] = autocorr[abs(i - j)]
    r = autocorr[1 : order + 1]
    try:
        coefficients = np.linalg.solve(R, r)
    except np.linalg.LinAlgError:
        coefficients, _, _, _ = np.linalg.lstsq(R, r, rcond=None)
    variance = float(np.var(x)) * float(1.0 - np.dot(coefficients, r))
    return coefficients, max(variance, 1e-12)
