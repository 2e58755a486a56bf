"""Holt-Winters triple exponential smoothing (additive and multiplicative).

Two of the ten AutoAI-TS pipelines are ``HW_Additive`` and
``HW_Multiplicative`` (figure 14/15).  The seasonal period is discovered
automatically from the data when not supplied, and the three smoothing
parameters are optimised by minimising the in-sample one-step-ahead squared
error.

The smoothing recursion is the fit's hot loop: L-BFGS-B evaluates it a few
hundred times per fit.  It runs on Python floats from ``ndarray.tolist()``,
several times faster than ``np.float64`` scalars, and keeps every output bit
of the numpy-scalar recursion, so the optimiser sees the same objective
values, takes the same path and fits the same parameters:

- The initial state does not depend on the smoothing parameters, so it is
  computed once per fit, outside the objective.
- Each step evaluates the same IEEE operations on the same operands.  Only
  ``1 - alpha``, ``1 - beta`` and ``1 - gamma`` are hoisted, and
  ``level + trend`` is computed once per step; ``(level + trend) + season``
  is the original evaluation order.
- Squared errors keep ``** 2``: C ``pow`` does not round ``x ** 2`` like
  ``x * x`` for every double.
- Python's ``** 2`` raises ``OverflowError`` where ``np.float64`` returns
  ``inf`` (errors above about 1.34e154), so an overflowing square adds
  ``inf`` to the sum.
- The sum, level and trend are returned as ``np.float64``, as numpy
  arithmetic produced them, so pickled models (and the serving layer's
  snapshot digests) keep their bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import as_2d_array, check_horizon, check_update_block
from ..core.base import BaseForecaster, check_is_fitted
from ..exceptions import InvalidParameterError
from ..stats.spectral import dominant_period

__all__ = ["HoltWintersForecaster"]

_SEASONAL_MODES = ("additive", "multiplicative")


def _initial_state(series: np.ndarray, period: int, seasonal: str):
    """Classical decomposition-style initial level, trend and seasonal terms.

    Deliberately *prefix-stable*: only the first two seasons of data feed
    the initial state, so appending observations to a series that already
    covered two seasons leaves the initialization — and therefore any
    continued recursion — identical to a cold refit's.  That property is
    what makes :meth:`HoltWintersForecaster.update` exact.
    """
    n_seasons = len(series) // period
    if n_seasons >= 2:
        first_season = series[:period]
        second_season = series[period : 2 * period]
        level = float(np.mean(first_season))
        trend = float((np.mean(second_season) - np.mean(first_season)) / period)
    else:
        level = float(series[0])
        trend = float((series[-1] - series[0]) / max(len(series) - 1, 1))

    # Mean of each offset over the first one or two seasons; offsets a
    # series shorter than one season never reaches take ``level``.
    seasons = max(min(n_seasons, 2), 1)
    covered = min(len(series), period)
    season_means = np.full(period, level)
    season_means[:covered] = series[: seasons * covered].reshape(seasons, covered).mean(axis=0)
    if seasonal == "additive":
        seasonals = season_means - level
    elif level != 0:
        seasonals = season_means / level
    else:
        seasonals = np.ones(period)
    return level, trend, seasonals


def _advance_filter(
    values: list[float],
    period: int,
    seasonal: str,
    alpha: float,
    beta: float,
    gamma: float,
    level: float,
    trend: float,
    seasonals: np.ndarray,
    t0: int = 0,
):
    """Advance the recursion over ``values`` from state at time ``t0``.

    ``values`` holds the observations as Python floats
    (``ndarray.tolist()``).  Returns ``(sse, level, trend, seasonals)``.
    """
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    level, trend = float(level), float(trend)
    keep_alpha, keep_beta, keep_gamma = 1 - alpha, 1 - beta, 1 - gamma
    season = seasonals.tolist()
    sse = 0.0
    if seasonal == "additive":
        for t, value in enumerate(values, start=t0):
            index = t % period
            current = season[index]
            base = level + trend
            try:
                sse += (value - (base + current)) ** 2
            except OverflowError:
                sse += math.inf
            previous_level = level
            level = alpha * (value - current) + keep_alpha * base
            season[index] = gamma * (value - level) + keep_gamma * current
            trend = beta * (level - previous_level) + keep_beta * trend
    else:
        for t, value in enumerate(values, start=t0):
            index = t % period
            current = season[index]
            base = level + trend
            try:
                sse += (value - base * current) ** 2
            except OverflowError:
                sse += math.inf
            previous_level = level
            divisor = current if current != 0 else 1e-10
            level = alpha * (value / divisor) + keep_alpha * base
            level_divisor = level if level != 0 else 1e-10
            season[index] = gamma * (value / level_divisor) + keep_gamma * current
            trend = beta * (level - previous_level) + keep_beta * trend
    return np.float64(sse), np.float64(level), np.float64(trend), np.array(season)


class HoltWintersForecaster(BaseForecaster):
    """Triple exponential smoothing with additive or multiplicative seasonality.

    Supports :meth:`update`: the state recursion continues over new rows
    with frozen configuration (see the method's docstring for exactness
    conditions).

    Parameters
    ----------
    seasonal:
        ``"additive"`` or ``"multiplicative"``.  Multiplicative seasonality
        requires strictly positive data; the model falls back to additive
        seasonality when the input violates that (and records the fallback in
        ``effective_seasonal_``).
    seasonal_period:
        Number of observations per season; discovered from the data via
        spectral analysis when ``None``.
    """

    supports_incremental_update = True

    def __init__(
        self,
        seasonal: str = "additive",
        seasonal_period: int | None = None,
        alpha: float | None = None,
        beta: float | None = None,
        gamma: float | None = None,
        horizon: int = 1,
    ):
        self.seasonal = seasonal
        self.seasonal_period = seasonal_period
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.horizon = horizon

    def _resolve_period(self, series: np.ndarray) -> int:
        if self.seasonal_period is not None:
            period = int(self.seasonal_period)
            if period < 2:
                raise InvalidParameterError("seasonal_period must be >= 2.")
        else:
            period = dominant_period(series, max_period=len(series) // 2) or 0
        if period < 2 or period * 2 > len(series):
            # No usable seasonality: fall back to a short pseudo-season which
            # reduces the model to (almost) Holt's linear trend.
            period = 2 if len(series) >= 4 else 1
        return max(period, 1)

    def _fit_single(self, series: np.ndarray):
        seasonal = self.seasonal
        if seasonal == "multiplicative" and np.nanmin(series) <= 0:
            seasonal = "additive"
        period = self._resolve_period(series)
        values = series.tolist()
        state = _initial_state(series, period, seasonal)

        fixed = (self.alpha, self.beta, self.gamma)
        if all(value is not None for value in fixed):
            alpha, beta, gamma = (float(np.clip(v, 1e-4, 1.0)) for v in fixed)
        elif len(series) < 2 * period or np.ptp(series) == 0:
            alpha, beta, gamma = 0.5, 0.05, 0.1
        else:
            from scipy import optimize

            def objective(params: np.ndarray) -> float:
                return _advance_filter(values, period, seasonal, *params, *state)[0]

            result = optimize.minimize(
                objective,
                np.array([0.3, 0.05, 0.1]),
                bounds=[(1e-4, 1.0)] * 3,
                method="L-BFGS-B",
            )
            alpha, beta, gamma = (float(v) for v in result.x)

        _, level, trend, seasonals = _advance_filter(
            values, period, seasonal, alpha, beta, gamma, *state
        )
        return {
            "seasonal": seasonal,
            "period": period,
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "level": level,
            "trend": trend,
            "seasonals": seasonals,
            "n_obs": len(series),
        }

    def update(self, X_new, X_full=None) -> "HoltWintersForecaster":
        """Continue each column's smoothing recursion over the new rows.

        The model's configuration (seasonal mode, period, smoothing
        parameters) is frozen at its fitted values; only the level, trend
        and seasonal state advance.  Because :func:`_initial_state` is
        prefix-stable, this is byte-identical to a cold refit when the
        parameters are fixed, the original fit saw at least two full
        seasons, and the period/seasonal-mode resolution would not change
        on the longer series — the conditions the parity test pins.
        """
        check_is_fitted(self, ("models_",))
        X_new = check_update_block(X_new, self.n_series_)
        for j, model in enumerate(self.models_):
            _, level, trend, seasonals = _advance_filter(
                X_new[:, j].tolist(),
                model["period"],
                model["seasonal"],
                model["alpha"],
                model["beta"],
                model["gamma"],
                model["level"],
                model["trend"],
                model["seasonals"],
                t0=model["n_obs"],
            )
            model["level"] = level
            model["trend"] = trend
            model["seasonals"] = seasonals
            model["n_obs"] += len(X_new)
        return self

    def fit(self, X, y=None) -> "HoltWintersForecaster":
        if self.seasonal not in _SEASONAL_MODES:
            raise InvalidParameterError(
                f"seasonal must be one of {_SEASONAL_MODES}, got {self.seasonal!r}."
            )
        X = as_2d_array(X, allow_nan=False)
        self.models_ = [self._fit_single(X[:, j]) for j in range(X.shape[1])]
        self.effective_seasonal_ = [model["seasonal"] for model in self.models_]
        self.n_series_ = X.shape[1]
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("models_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        forecasts = np.empty((horizon, self.n_series_))
        for j, model in enumerate(self.models_):
            period = model["period"]
            seasonals = model["seasonals"]
            start = model["n_obs"]
            for step in range(1, horizon + 1):
                season_index = (start + step - 1) % period
                base = model["level"] + step * model["trend"]
                if model["seasonal"] == "additive":
                    forecasts[step - 1, j] = base + seasonals[season_index]
                else:
                    forecasts[step - 1, j] = base * seasonals[season_index]
        return forecasts

    @property
    def name(self) -> str:
        suffix = "Multiplicative" if self.seasonal == "multiplicative" else "Additive"
        return f"HW_{suffix}"
