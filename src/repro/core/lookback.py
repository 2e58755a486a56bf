"""Automatic look-back window discovery (paper section 4.1).

The mechanism combines a *timestamp index assessment* (observation frequency
→ candidate seasonal periods, Table 1) with a *value index assessment*
(zero-crossing spacing and spectral analysis), sanity-filters the candidate
windows, and ranks them with an influence vector built from simple models
(linear-regression F-test, mutual information, random-forest error) on
randomly sampled windows.  Multivariate inputs are handled by running the
univariate discovery per series and combining the preferred values under the
``max_look_back`` budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import as_2d_array
from ..stats.linear_model import f_test_regression
from ..stats.mutual_info import mutual_information
from ..stats.spectral import dominant_period, spectral_peaks
from ..stats.stattests import is_constant, mean_crossing_period
from ..timeutils.frequency import Frequency, infer_frequency
from ..timeutils.seasonality import candidate_seasonal_periods
from ..ml.forest import RandomForestRegressor

__all__ = ["LookbackDiscovery", "LookbackResult", "DEFAULT_LOOKBACK"]

#: "If no value is found then the default values passed to the function is
#: returned (we use 8 as default value)."
DEFAULT_LOOKBACK = 8

#: "we randomly sample nearly 800 windows"
_INFLUENCE_SAMPLE_SIZE = 800


@dataclass
class LookbackResult:
    """Outcome of the look-back discovery for one data set.

    Attributes
    ----------
    selected:
        The final recommended look-back window length.
    candidates:
        All surviving candidate windows, best first.
    per_series:
        For multivariate data, the preferred window of each series.
    sources:
        Mapping from candidate value to how it was discovered
        (``"seasonal"``, ``"zero_crossing"``, ``"spectral"`` or ``"default"``).
    """

    selected: int
    candidates: list[int] = field(default_factory=list)
    per_series: list[int] = field(default_factory=list)
    sources: dict[int, str] = field(default_factory=dict)


class LookbackDiscovery:
    """Automatic look-back window length discovery.

    Parameters
    ----------
    max_look_back:
        Optional user budget; candidate windows above it are discarded and
        the multivariate combination caps windows so that
        ``window * n_series <= max_look_back``.
    default:
        Value returned when no candidate survives the sanity checks.
    influence_sample_size:
        Number of windows sampled when building the influence vector.
    multivariate_mode:
        ``"cap"`` (option 1 in the paper: cap violating values) or
        ``"drop"`` (option 2: ignore violating values).
    """

    def __init__(
        self,
        max_look_back: int | None = None,
        default: int = DEFAULT_LOOKBACK,
        influence_sample_size: int = _INFLUENCE_SAMPLE_SIZE,
        multivariate_mode: str = "cap",
        random_state: int | None = 0,
    ):
        self.max_look_back = max_look_back
        self.default = default
        self.influence_sample_size = influence_sample_size
        self.multivariate_mode = multivariate_mode
        self.random_state = random_state

    # -- candidate generation ------------------------------------------------
    def _timestamp_candidates(self, timestamps, series_length: int) -> list[int]:
        frequency = infer_frequency(timestamps)
        if frequency is Frequency.UNKNOWN:
            return []
        return candidate_seasonal_periods(frequency, series_length=series_length)

    def _value_candidates(
        self, series: np.ndarray, seasonal_periods: list[int]
    ) -> dict[int, str]:
        candidates: dict[int, str] = {}

        crossing = mean_crossing_period(series)
        if crossing is not None:
            value = int(round(crossing))
            if value > 1:
                candidates.setdefault(value, "zero_crossing")

        # One spectral candidate per seasonal period (the period bounds the
        # search), plus an unbounded spectral candidate when no timestamp
        # information is available.
        search_bounds = seasonal_periods if seasonal_periods else [len(series) // 2]
        for bound in search_bounds:
            period = dominant_period(series, max_period=int(bound))
            if period is not None and period > 1:
                candidates.setdefault(period, "spectral")
        # A few secondary spectral peaks bounded so a window repeats at least
        # three times in the series — these catch short seasonalities (e.g. a
        # daily cycle in hourly data) that the dominant peak can mask.
        for period in spectral_peaks(series, n_peaks=3, max_period=len(series) // 3):
            candidates.setdefault(period, "spectral")
        return candidates

    # -- sanity checks ---------------------------------------------------------
    def _sanity_filter(self, candidates: dict[int, str], series_length: int) -> dict[int, str]:
        filtered: dict[int, str] = {}
        for value, source in candidates.items():
            if value in (0, 1):
                continue
            if value > series_length:
                continue
            if self.max_look_back is not None and value > int(self.max_look_back):
                continue
            # A window must repeat at least three times, which is stricter
            # than the paper's "greater than the length of the dataset" rule
            # because a look-back near the series length leaves almost no
            # supervised windows to score it on or to train pipelines with.
            if value > series_length // 3:
                continue
            filtered[value] = source
        return filtered

    # -- influence-vector ranking ----------------------------------------------
    def _influence_measures(self, series: np.ndarray, lookback: int, rng) -> tuple[float, float, float]:
        """(F-test, mutual information, negative RF error) for one window length."""
        n_windows_available = len(series) - lookback
        if n_windows_available < 4:
            return 0.0, 0.0, -np.inf
        sample_size = min(int(self.influence_sample_size), n_windows_available)
        starts = rng.choice(n_windows_available, size=sample_size, replace=False)
        features = np.stack([series[start : start + lookback] for start in starts])
        targets = np.array([series[start + lookback] for start in starts])

        f_stat = f_test_regression(features, targets)
        mi = mutual_information(features[:, -1], targets)

        forest = RandomForestRegressor(n_estimators=10, max_depth=6, random_state=0)
        fit_size = min(len(features), 200)
        forest.fit(features[:fit_size], targets[:fit_size])
        predictions = forest.predict(features[:fit_size])
        rf_mae = float(np.mean(np.abs(predictions - targets[:fit_size])))
        return float(f_stat), float(mi), -rf_mae

    def _rank_candidates(self, series: np.ndarray, candidates: dict[int, str]) -> list[int]:
        """Order candidate windows by average influence rank (best first)."""
        values = sorted(candidates)
        if len(values) <= 1:
            return values

        rng = np.random.default_rng(self.random_state)
        measures = np.array(
            [self._influence_measures(series, value, rng) for value in values]
        )
        # Convert each influence measure into ranks (higher measure = better = rank 1).
        ranks = np.zeros_like(measures)
        for column in range(measures.shape[1]):
            order = np.argsort(-measures[:, column], kind="stable")
            ranks[order, column] = np.arange(1, len(values) + 1)
        average_rank = ranks.mean(axis=1)
        ordering = np.argsort(average_rank, kind="stable")
        return [values[index] for index in ordering]

    # -- public API --------------------------------------------------------------
    def discover_univariate(self, series, timestamps=None) -> LookbackResult:
        """Discover look-back candidates for a single series."""
        series = np.asarray(series, dtype=float).ravel()
        series = series[np.isfinite(series)]
        if len(series) < 4 or is_constant(series):
            return LookbackResult(
                selected=int(self.default),
                candidates=[int(self.default)],
                sources={int(self.default): "default"},
            )

        seasonal_periods = self._timestamp_candidates(timestamps, len(series))
        candidates: dict[int, str] = {
            period: "seasonal" for period in seasonal_periods
        }
        candidates.update(
            {
                value: source
                for value, source in self._value_candidates(series, seasonal_periods).items()
                if value not in candidates
            }
        )
        candidates = self._sanity_filter(candidates, len(series))

        if not candidates:
            return LookbackResult(
                selected=int(self.default),
                candidates=[int(self.default)],
                sources={int(self.default): "default"},
            )

        ordered = self._rank_candidates(series, candidates)
        return LookbackResult(
            selected=ordered[0],
            candidates=ordered,
            sources=candidates,
        )

    def discover(self, X, timestamps=None) -> LookbackResult:
        """Discover a look-back window for univariate or multivariate data."""
        X = as_2d_array(X)
        n_series = X.shape[1]
        if n_series == 1:
            return self.discover_univariate(X[:, 0], timestamps)

        per_series_results = [
            self.discover_univariate(X[:, column], timestamps) for column in range(n_series)
        ]
        preferred = [result.selected for result in per_series_results]
        # Union of preferred values (one per series), processed in decreasing order.
        unique_preferred = sorted(set(preferred), reverse=True)

        selected_windows: list[int] = []
        budget = int(self.max_look_back) if self.max_look_back is not None else None
        for window in unique_preferred:
            if budget is not None and window * n_series > budget:
                if self.multivariate_mode == "drop":
                    continue
                capped = max(1, budget // n_series)
                if capped not in selected_windows:
                    selected_windows.append(capped)
            else:
                if window not in selected_windows:
                    selected_windows.append(window)

        if not selected_windows:
            selected_windows = [max(1, int(self.default))]

        sources: dict[int, str] = {}
        for result in per_series_results:
            sources.update(result.sources)
        return LookbackResult(
            selected=selected_windows[0],
            candidates=selected_windows,
            per_series=preferred,
            sources=sources,
        )
