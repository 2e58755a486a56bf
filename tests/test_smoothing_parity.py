"""Parity oracle: the float-loop smoothing recursions against frozen
numpy-scalar references.

The references below are the ``np.float64`` scalar loops that
:mod:`repro.forecasters.holtwinters` and :mod:`repro.forecasters.ets`
replaced, copied verbatim: Holt-Winters' per-offset initial state and its
filter, the SES and Holt objectives, and the SES and Holt final-state
loops.  Every case of a randomized grid (both seasonal modes, periods
2-300 with series shorter than one and than two seasons, random start
times, negative values, magnitudes from 1e-3 to 1e12, exact zeros that hit
both multiplicative divisor guards, and a series whose squared errors
overflow) must give byte-identical sums and states of the same types.  The
seven smoothing forecasters, fitted on suite surrogates, must fit the same
parameters, forecast the same bytes and pickle to the same bytes as fits
with the references patched in.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data import load_univariate_dataset
from repro.forecasters import (
    BATSForecaster,
    DoubleExponentialSmoothing,
    HoltWintersForecaster,
    SimpleExponentialSmoothing,
    ThetaForecaster,
)
from repro.forecasters import ets, holtwinters

# The references warn on the overflow series; the float loops do not.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# -- frozen reference ------------------------------------------------------------


def _reference_initial_state(series: np.ndarray, period: int, seasonal: str):
    n_seasons = len(series) // period
    if n_seasons >= 2:
        first_season = series[:period]
        second_season = series[period : 2 * period]
        level = float(np.mean(first_season))
        trend = float((np.mean(second_season) - np.mean(first_season)) / period)
    else:
        level = float(series[0])
        trend = float((series[-1] - series[0]) / max(len(series) - 1, 1))

    seasonals = np.zeros(period)
    usable_seasons = max(min(n_seasons, 2), 1)
    for offset in range(period):
        values = series[offset::period][:usable_seasons]
        season_mean = float(np.mean(values)) if len(values) else level
        if seasonal == "additive":
            seasonals[offset] = season_mean - level
        else:
            seasonals[offset] = season_mean / level if level != 0 else 1.0
    return level, trend, seasonals


def _reference_advance_filter(
    series, period, seasonal, alpha, beta, gamma, level, trend, seasonals, t0=0
):
    seasonals = seasonals.copy()
    sse = 0.0
    for t, value in enumerate(series, start=t0):
        season_index = t % period
        if seasonal == "additive":
            forecast = level + trend + seasonals[season_index]
        else:
            forecast = (level + trend) * seasonals[season_index]
        sse += (value - forecast) ** 2

        previous_level = level
        if seasonal == "additive":
            level = alpha * (value - seasonals[season_index]) + (1 - alpha) * (level + trend)
            seasonals[season_index] = gamma * (value - level) + (1 - gamma) * seasonals[
                season_index
            ]
        else:
            divisor = seasonals[season_index] if seasonals[season_index] != 0 else 1e-10
            level = alpha * (value / divisor) + (1 - alpha) * (level + trend)
            level_divisor = level if level != 0 else 1e-10
            seasonals[season_index] = gamma * (value / level_divisor) + (1 - gamma) * seasonals[
                season_index
            ]
        trend = beta * (level - previous_level) + (1 - beta) * trend
    return sse, level, trend, seasonals


def _reference_ses_sse(alpha, series):
    level = series[0]
    sse = 0.0
    for value in series[1:]:
        sse += (value - level) ** 2
        level = alpha * value + (1 - alpha) * level
    return sse


def _reference_holt_sse(params, series, damped):
    alpha, beta = params[0], params[1]
    phi = params[2] if damped else 1.0
    level = series[0]
    trend = series[1] - series[0] if len(series) > 1 else 0.0
    sse = 0.0
    for value in series[1:]:
        forecast = level + phi * trend
        sse += (value - forecast) ** 2
        new_level = alpha * value + (1 - alpha) * forecast
        trend = beta * (new_level - level) + (1 - beta) * phi * trend
        level = new_level
    return sse


def _reference_ses_level(series, alpha):
    level = series[0]
    for value in series[1:]:
        level = alpha * value + (1 - alpha) * level
    return level


def _reference_holt_state(series, alpha, beta, phi):
    level = series[0]
    trend = series[1] - series[0] if len(series) > 1 else 0.0
    for value in series[1:]:
        forecast = level + phi * trend
        new_level = alpha * value + (1 - alpha) * forecast
        trend = beta * (new_level - level) + (1 - beta) * phi * trend
        level = new_level
    return level, trend


def _patch_references(patch) -> None:
    """Route the forecasters' kernels through the references.

    The kernels take the series as Python floats; the references get it
    back as the float64 array it came from, so they run on ``np.float64``
    scalars as before.
    """

    def array(values):
        return np.asarray(values, dtype=float)

    patch.setattr(holtwinters, "_initial_state", _reference_initial_state)
    patch.setattr(
        holtwinters,
        "_advance_filter",
        lambda values, *args, **kwargs: _reference_advance_filter(array(values), *args, **kwargs),
    )
    patch.setattr(ets, "_ses_sse", lambda alpha, values: _reference_ses_sse(alpha, array(values)))
    patch.setattr(
        ets,
        "_holt_sse",
        lambda params, values, damped: _reference_holt_sse(params, array(values), damped),
    )
    patch.setattr(
        ets,
        "_ses_filter",
        lambda values, alpha: (None, _reference_ses_level(array(values), alpha)),
    )
    patch.setattr(
        ets,
        "_holt_filter",
        lambda values, alpha, beta, phi: (
            None,
            *_reference_holt_state(array(values), alpha, beta, phi),
        ),
    )


# -- helpers ---------------------------------------------------------------------


def _assert_same(actual, expected) -> None:
    """Same type, and for values the same dtype, shape and bytes."""
    assert type(actual) is type(expected)
    if isinstance(expected, tuple):
        assert len(actual) == len(expected)
        for item, reference in zip(actual, expected):
            _assert_same(item, reference)
        return
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _overflow_series() -> np.ndarray:
    """Squared one-step errors above float max: ``np.float64`` gives inf,
    Python's ``** 2`` raises."""
    rng = np.random.default_rng(160)
    return np.abs(rng.normal(size=48)) * 1e160 + 1e150


def _random_series(rng, n: int, period: int) -> np.ndarray:
    magnitude = 10.0 ** rng.uniform(-3.0, 12.0)
    offset = rng.choice([0.0, 3.0, -3.0]) * magnitude
    t = np.arange(n)
    series = offset + magnitude * (
        rng.normal(size=n) + rng.uniform(0, 2) * np.sin(2 * np.pi * t / period)
    )
    if rng.random() < 0.5:
        # Whole offsets at zero: their seasonal terms start at zero.
        offsets = rng.choice(period, size=max(1, period // 4), replace=False)
        for start in offsets:
            series[start::period] = rng.choice([0.0, -0.0])
    if rng.random() < 0.3:
        # A zero run: the level falls to exactly zero.
        start = int(rng.integers(0, n))
        series[start : start + int(rng.integers(1, 3 * period))] = 0.0
    return series


def _filter_case(rng):
    seasonal = str(rng.choice(["additive", "multiplicative"]))
    period = int(rng.integers(2, 301))
    shape = rng.integers(3)
    if shape == 0:  # shorter than one season
        n = int(rng.integers(1, period))
    elif shape == 1:  # at least one season, shorter than two
        n = int(rng.integers(period, 2 * period))
    else:
        n = int(rng.integers(2 * period, 3 * period + 1))
    series = _random_series(rng, n, period)
    alpha, beta, gamma = rng.uniform(1e-4, 1.0, size=3)
    t0 = int(rng.integers(0, 10 * period))
    return series, period, seasonal, (alpha, beta, gamma), t0


# -- kernel parity ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_holt_winters_kernels_match_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        series, period, seasonal, params, t0 = _filter_case(rng)
        state = holtwinters._initial_state(series, period, seasonal)
        expected_state = _reference_initial_state(series, period, seasonal)
        _assert_same(state, expected_state)
        _assert_same(
            holtwinters._advance_filter(series.tolist(), period, seasonal, *params, *state, t0=t0),
            _reference_advance_filter(series, period, seasonal, *params, *expected_state, t0=t0),
        )
        # Continue from the filtered state with np.float64 level and trend,
        # as update() does with a fitted model's state.
        _, level, trend, seasonals = _reference_advance_filter(
            series, period, seasonal, *params, *expected_state
        )
        more = _random_series(rng, int(rng.integers(1, 2 * period)), period)
        _assert_same(
            holtwinters._advance_filter(
                more.tolist(), period, seasonal, *params, level, trend, seasonals, t0=len(series)
            ),
            _reference_advance_filter(
                more, period, seasonal, *params, level, trend, seasonals, t0=len(series)
            ),
        )


@pytest.mark.parametrize("seed", range(40))
def test_exponential_smoothing_kernels_match_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(6):
        n = int(rng.integers(2, 600))
        series = _random_series(rng, n, int(rng.integers(2, 50)))
        alpha = rng.uniform(1e-4, 1.0)
        _assert_same(ets._ses_sse(alpha, series.tolist()), _reference_ses_sse(alpha, series))
        damped = bool(rng.random() < 0.5)
        params = np.array([*rng.uniform(1e-4, 1.0, size=2), rng.uniform(0.8, 1.0)])
        _assert_same(
            ets._holt_sse(params, series.tolist(), damped),
            _reference_holt_sse(params, series, damped),
        )
        _, level = ets._ses_filter(series.tolist(), alpha)
        assert np.float64(level).tobytes() == _reference_ses_level(series, alpha).tobytes()
        phi = params[2] if damped else 1.0
        _, level, trend = ets._holt_filter(series.tolist(), *params[:2], phi)
        expected_level, expected_trend = _reference_holt_state(series, *params[:2], phi)
        assert np.float64(level).tobytes() == np.float64(expected_level).tobytes()
        assert np.float64(trend).tobytes() == np.float64(expected_trend).tobytes()


@pytest.mark.parametrize("seasonal", ["additive", "multiplicative"])
def test_overflowing_squares_sum_to_inf(seasonal):
    series = _overflow_series()
    state = holtwinters._initial_state(series, 12, seasonal)
    result = holtwinters._advance_filter(series.tolist(), 12, seasonal, 0.3, 0.05, 0.1, *state)
    expected = _reference_advance_filter(
        series, 12, seasonal, 0.3, 0.05, 0.1, *_reference_initial_state(series, 12, seasonal)
    )
    assert result[0] == np.inf
    _assert_same(result, expected)
    assert ets._ses_sse(0.3, series.tolist()) == np.inf
    _assert_same(ets._ses_sse(0.3, series.tolist()), _reference_ses_sse(0.3, series))
    params = np.array([0.5, 0.1, 0.95])
    _assert_same(
        ets._holt_sse(params, series.tolist(), True), _reference_holt_sse(params, series, True)
    )


def test_single_squared_errors_match_reference():
    """``x * x`` and ``pow(x, 2)`` round apart for some doubles; a sum of one
    squared error shows which of the two a kernel computes."""
    rng = np.random.default_rng(2)
    candidates = rng.normal(size=20_000) * 10.0 ** rng.uniform(-3.0, 12.0, size=20_000)
    # Empty where the C library's pow rounds every square correctly.
    split = [x for x in candidates.tolist() if x**2 != x * x]
    params = np.array([0.5, 0.1, 0.95])
    for x in split + candidates[:20].tolist():
        # Both modes forecast exactly zero from these states.
        for seasonal, seasonals in [("additive", np.zeros(3)), ("multiplicative", np.ones(3))]:
            state = (0.0, 0.0, seasonals)
            _assert_same(
                holtwinters._advance_filter([x], 3, seasonal, 0.3, 0.05, 0.1, *state),
                _reference_advance_filter(np.array([x]), 3, seasonal, 0.3, 0.05, 0.1, *state),
            )
        _assert_same(ets._ses_sse(0.3, [0.0, x]), _reference_ses_sse(0.3, np.array([0.0, x])))
        _assert_same(
            ets._holt_sse(params, [0.0, 0.0, x], True),
            _reference_holt_sse(params, np.array([0.0, 0.0, x]), True),
        )


def test_multiplicative_divisor_guards_match_reference():
    """Both guards of the multiplicative recursion fire: a seasonal term at
    zero, and a level that lands exactly on zero under a nonzero value."""
    period = 6
    cases = []
    # Offset 2 is zero in both seasons: its seasonal term starts at zero.
    series = np.tile([4.0, 5.0, 0.0, 6.0, 5.0, 4.0], 4)
    state = _reference_initial_state(series, period, "multiplicative")
    assert state[2][2] == 0
    cases.append((series, state))
    # A zero start: level and trend start at zero, seasonal terms at one.
    series = np.concatenate([np.zeros(3 * period), np.arange(1.0, 13.0)])
    state = _reference_initial_state(series, period, "multiplicative")
    assert state[0] == 0 and state[1] == 0
    cases.append((series, state))
    for series, state in cases:
        _assert_same(holtwinters._initial_state(series, period, "multiplicative"), state)
    # 0.5 * (2 / 1) + (1 - 0.5) * (-1 + -1) is exactly zero.
    series = np.array([2.0, 3.0, 1.0, 2.5])
    state = (-1.0, -1.0, np.ones(period))
    first = _reference_advance_filter(series[:1], period, "multiplicative", 0.5, 0.1, 0.2, *state)
    assert first[1] == 0
    cases.append((series, state))
    for series, state in cases:
        _assert_same(
            holtwinters._advance_filter(
                series.tolist(), period, "multiplicative", 0.5, 0.1, 0.2, *state
            ),
            _reference_advance_filter(series, period, "multiplicative", 0.5, 0.1, 0.2, *state),
        )


# -- forecaster parity -----------------------------------------------------------

FORECASTERS = [
    ("hw_additive", lambda: HoltWintersForecaster(seasonal="additive", horizon=12)),
    ("hw_multiplicative", lambda: HoltWintersForecaster(seasonal="multiplicative", horizon=12)),
    ("ses", lambda: SimpleExponentialSmoothing(horizon=12)),
    ("des", lambda: DoubleExponentialSmoothing(horizon=12)),
    ("des_damped", lambda: DoubleExponentialSmoothing(damped=True, horizon=12)),
    ("theta", lambda: ThetaForecaster(horizon=12)),
    ("bats", lambda: BATSForecaster(horizon=12)),
]

SURROGATES = {
    "AirPassengers": lambda: load_univariate_dataset("AirPassengers"),
    "hyndsight": lambda: load_univariate_dataset("hyndsight"),
    "ec2-cpu": lambda: load_univariate_dataset("ec2-cpu-utilization-24ae8d")[:600],
    "overflow": _overflow_series,
}


def _assert_same_model(fitted, reference) -> None:
    for attribute in vars(reference):
        assert pickle.dumps(getattr(fitted, attribute)) == pickle.dumps(
            getattr(reference, attribute)
        ), attribute
    assert fitted.predict(12).tobytes() == reference.predict(12).tobytes()
    assert pickle.dumps(fitted) == pickle.dumps(reference)


@pytest.mark.parametrize("surrogate", list(SURROGATES))
@pytest.mark.parametrize(
    "factory", [case[1] for case in FORECASTERS], ids=[case[0] for case in FORECASTERS]
)
def test_forecaster_matches_reference_fit(factory, surrogate, monkeypatch):
    series = np.asarray(SURROGATES[surrogate](), dtype=float)
    fitted = factory().fit(series)
    with monkeypatch.context() as patch:
        _patch_references(patch)
        reference = factory().fit(series)
    _assert_same_model(fitted, reference)

    if not fitted.supports_incremental_update:
        return
    split = len(series) * 3 // 4
    fitted = factory().fit(series[:split]).update(series[split:])
    with monkeypatch.context() as patch:
        _patch_references(patch)
        reference = factory().fit(series[:split]).update(series[split:])
    _assert_same_model(fitted, reference)


@pytest.mark.parametrize("seasonal", ["additive", "multiplicative"])
def test_overflow_series_fits_with_fixed_period(seasonal, monkeypatch):
    series = _overflow_series()
    fitted = HoltWintersForecaster(seasonal=seasonal, seasonal_period=12).fit(series)
    assert fitted.effective_seasonal_ == [seasonal]
    with monkeypatch.context() as patch:
        _patch_references(patch)
        reference = HoltWintersForecaster(seasonal=seasonal, seasonal_period=12).fit(series)
    _assert_same_model(fitted, reference)
