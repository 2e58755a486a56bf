"""Online residual drift watching for streaming re-ranking.

A streaming engine needs a tiny stateful observer that is fed one forecast
residual per arrival and decides *now* whether the deployed ranking has
gone stale.  :class:`ResidualDriftWatcher` applies a robust statistic
(median/MAD z-score, consistent with a standard normal via the 0.6745
factor) to the stream of per-arrival residual magnitudes: a run of
``patience`` consecutive robust outliers raises a :class:`DriftReport`,
which :class:`repro.stream.StreamingEngine` answers with a warm-started
re-rank.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["DriftReport", "ResidualDriftWatcher"]


@dataclass
class DriftReport:
    """Evidence that the forecast residuals left their historical regime."""

    #: index of the arrival (0-based, counted across the watcher's life)
    #: whose residual completed the patience run.
    arrival_index: int
    #: robust z-score of the triggering residual magnitude.
    zscore: float
    #: the residual magnitudes of the whole patience run, oldest first.
    run_magnitudes: tuple[float, ...]
    #: how many reference residuals the decision was based on.
    history_size: int


class ResidualDriftWatcher:
    """Flag drift after ``patience`` consecutive outlier residuals.

    Parameters
    ----------
    threshold:
        Robust z-score above which one residual magnitude counts as an
        outlier.  The score is ``0.6745 * (m - median) / MAD`` over the
        rolling history of magnitudes (falling back to mean/std when the
        MAD collapses to zero).
    patience:
        Number of *consecutive* outliers required before reporting.  A
        single spike is an anomaly; a sustained run is drift.
    min_history:
        Observations accumulated before any decision is attempted — the
        warm-up during which the watcher only learns the residual regime.
    window:
        Length of the rolling reference history.  Bounded so the regime
        estimate tracks slow, accepted change instead of the full past.
    """

    def __init__(
        self,
        threshold: float = 3.5,
        patience: int = 3,
        min_history: int = 12,
        window: int = 256,
    ):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if min_history < 2:
            raise ValueError("min_history must be >= 2")
        self.threshold = float(threshold)
        self.patience = int(patience)
        self.min_history = int(min_history)
        self._history: deque[float] = deque(maxlen=int(window))
        self._streak: list[float] = []
        self._arrivals = 0

    @property
    def streak(self) -> int:
        """Current count of consecutive outlier residuals."""
        return len(self._streak)

    def _zscore(self, magnitude: float) -> float:
        history = np.asarray(self._history, dtype=float)
        median = float(np.median(history))
        mad = float(np.median(np.abs(history - median)))
        if mad > 0:
            return 0.6745 * (magnitude - median) / mad
        std = float(history.std())
        if std > 0:
            return (magnitude - float(history.mean())) / std
        return 0.0 if magnitude == median else np.inf

    def observe(self, residual) -> DriftReport | None:
        """Feed one arrival's forecast residual; report drift or ``None``.

        ``residual`` is the (actual - predicted) row for the arrival —
        scalar or one value per series; the watcher tracks its mean
        absolute magnitude so multivariate drift in any subset of series
        still moves the statistic.
        """
        magnitude = float(np.mean(np.abs(np.asarray(residual, dtype=float))))
        index = self._arrivals
        self._arrivals += 1

        report = None
        if len(self._history) >= self.min_history:
            zscore = self._zscore(magnitude)
            if zscore > self.threshold:
                self._streak.append(magnitude)
                if len(self._streak) >= self.patience:
                    report = DriftReport(
                        arrival_index=index,
                        zscore=float(zscore),
                        run_magnitudes=tuple(self._streak),
                        history_size=len(self._history),
                    )
            else:
                self._streak.clear()
        # Outlier magnitudes still enter the reference history: if the new
        # regime is accepted (no re-rank, or post-reset), the watcher
        # adapts to it instead of firing forever.
        self._history.append(magnitude)
        return report

    def reset(self) -> None:
        """Clear the outlier streak (called after a re-rank handled drift)."""
        self._streak.clear()
