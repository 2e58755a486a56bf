"""Ordinary least squares with the summary statistics the paper needs.

The look-back influence vector (paper section 4.1) scores candidate windows
with "F-test from linear regression"; ARIMA estimation and the T-Daub
learning-curve projection also need plain OLS fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OLSResult", "ols_fit", "f_test_regression"]


@dataclass
class OLSResult:
    """Result of an ordinary least squares fit.

    Attributes
    ----------
    coefficients:
        Fitted coefficients, intercept first when ``fit_intercept`` was used.
    residuals:
        ``y - X @ coefficients`` for the training data.
    r_squared:
        Coefficient of determination on the training data.
    f_statistic:
        Overall regression F statistic (explained vs. residual variance).
    sigma2:
        Residual variance estimate (sum of squared residuals / dof).
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    r_squared: float
    f_statistic: float
    sigma2: float

    def predict(self, X: np.ndarray, fit_intercept: bool = True) -> np.ndarray:
        """Predict responses for a new design matrix."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if fit_intercept:
            X = np.column_stack([np.ones(len(X)), X])
        return X @ self.coefficients


def ols_fit(X, y, fit_intercept: bool = True) -> OLSResult:
    """Fit ``y ~ X`` by least squares and return coefficients plus diagnostics.

    Uses :func:`numpy.linalg.lstsq` which handles rank-deficient designs
    gracefully (important for short T-Daub learning curves where the scores
    can be collinear).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if len(X) != len(y):
        raise ValueError(f"X and y have different lengths: {len(X)} vs {len(y)}.")

    n_samples, n_features = X.shape
    design = np.column_stack([np.ones(n_samples), X]) if fit_intercept else X
    coefficients, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coefficients
    residuals = y - fitted

    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else (
        0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    )

    dof_model = n_features
    dof_resid = max(n_samples - design.shape[1], 1)
    sigma2 = ss_res / dof_resid

    if ss_res <= 0 or dof_model == 0:
        f_statistic = np.inf if ss_tot > 0 else 0.0
    else:
        ss_reg = max(ss_tot - ss_res, 0.0)
        f_statistic = (ss_reg / dof_model) / (ss_res / dof_resid)

    return OLSResult(
        coefficients=coefficients,
        residuals=residuals,
        r_squared=float(np.clip(r_squared, -np.inf, 1.0)),
        f_statistic=float(f_statistic),
        sigma2=float(sigma2),
    )


def f_test_regression(X, y) -> float:
    """Return the overall regression F statistic of ``y ~ X``.

    This is the measure used to build the influence vector for candidate
    look-back windows: larger F statistics indicate the window's lagged
    values carry more linear signal about the next observation.
    """
    result = ols_fit(X, y, fit_intercept=True)
    if not np.isfinite(result.f_statistic):
        return float(1e12)
    return result.f_statistic
