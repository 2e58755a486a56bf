"""Window regression: the one engine behind the paper's window pipelines.

"Generally, ML based approaches perform transformations on time series data
and then model time series forecasting problem as an IID problem" (paper
section 3).  :class:`WindowRegressor` frames the series into look-back
windows once per fit, trains one clone of any
:class:`~repro.core.base.BaseRegressor` per series on the one-step-ahead
targets, and forecasts recursively: each step's predictions are fed back
into the window.

Five of the paper's ten pipelines (figure 14/15) run on it:
``WindowRandomForest`` and ``WindowSVR`` below, and the three AutoEnsemblers
of :mod:`repro.hybrid.auto_ensembler`.  Those vary the series the windows
are cut from (``_prepare`` and ``_restore``) or localize each window
(``_localized``), and plug in one ensemble regressor.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_array, check_horizon, check_positive_int
from ..core.base import BaseForecaster, BaseRegressor, check_is_fitted, clone
from ..exceptions import InvalidParameterError
from ..ml.forest import RandomForestRegressor
from ..ml.svr import SVR
from ..transforms.window import make_supervised_windows

__all__ = ["WindowRegressor", "WindowRandomForestForecaster", "WindowSVRForecaster"]


class WindowRegressor(BaseForecaster):
    """Forecaster that wraps an IID regressor behind a look-back window.

    Parameters
    ----------
    regressor:
        Any estimator with ``fit(X, y)`` / ``predict(X)``.  One clone is
        trained per output series.
    lookback:
        Look-back window length.  The AutoAI-TS orchestrator sets this from
        the automatic look-back discovery; the default of 8 matches the
        paper's fallback value.
    horizon:
        Default number of steps ``predict`` forecasts.
    """

    #: When True, each window is shifted by its last row before the
    #: regressor sees it, targets are fit relative to that row, and the row
    #: is added back to each forecast.
    _localized = False

    def __init__(
        self,
        regressor: BaseRegressor | None = None,
        lookback: int = 8,
        horizon: int = 1,
    ):
        self.regressor = regressor
        self.lookback = lookback
        self.horizon = horizon

    def _prepare(self, X):
        """The series the windows are cut from: the input itself here."""
        return X

    def _restore(self, forecasts: np.ndarray) -> np.ndarray:
        """Map forecasts of the prepared series back to the input's scale."""
        return forecasts

    def _effective_lookback(self, n_samples: int) -> int:
        lookback = check_positive_int(self.lookback, "lookback")
        # Leave room for at least a handful of training windows.
        return int(max(1, min(lookback, n_samples - 4)))

    def _fit_windows(self, features: np.ndarray, targets, lookback: int, partial: bool) -> None:
        """Fit (or ``partial_fit``) each series' model on its target column.

        Every model sees the same window matrix, localized here when the
        class asks for it.
        """
        n_windows = len(features)
        targets = np.asarray(targets).reshape(n_windows, self._n_series)
        if self._localized:
            windows = features.reshape(n_windows, lookback, self._n_series)
            targets = targets - windows[:, -1, :]
            features = (windows - windows[:, -1:, :]).reshape(n_windows, -1)
        for column, model in enumerate(self.models_):
            fit = model.partial_fit if partial else model.fit
            fit(features, np.ascontiguousarray(targets[:, column]))

    def fit(self, X, y=None) -> "WindowRegressor":
        if not getattr(X, "is_timeseries_frame", False):
            X = as_2d_array(X)
        check_horizon(self.horizon)
        series = self._prepare(X)
        frame_input = getattr(series, "is_timeseries_frame", False)
        n_samples, self._n_series = series.shape
        lookback = self._effective_lookback(n_samples)

        base = self.regressor if self.regressor is not None else RandomForestRegressor()
        self.models_: list[BaseRegressor] = [clone(base) for _ in range(self._n_series)]

        if frame_input and hasattr(base, "partial_fit"):
            # Out-of-core path: the framer streams supervised-window
            # blocks straight off the frame's chunks and each per-column
            # model folds them in via partial_fit — the full lag tensor
            # never exists.  Identical block sequence → bit-identical
            # coefficients, so two out-of-core runs (or an in-memory run
            # on the same frame) converge on the same model.
            from ..frame.framer import ChunkedWindowFramer

            for features, targets in ChunkedWindowFramer(series, lookback, 1).blocks():
                self._fit_windows(features, targets, lookback, partial=True)
        else:
            # The lag matrix is identical for every output series, so it is
            # framed once (a vectorized sliding_window_view inside; frames
            # delegate to the streaming framer) with the all-series
            # targets; each per-column model then trains on its own column
            # of the target block instead of re-framing the series.
            features, targets = make_supervised_windows(series, lookback, 1)
            self._fit_windows(features, targets, lookback, partial=False)

        self._lookback_used = lookback
        # The window the first forecast starts from.  With one-step targets
        # it is also all the context update() needs: appending Δ rows to it
        # frames exactly the Δ windows a cold refit would add.
        if frame_input:
            self._last_window = series.gather(n_samples - lookback, n_samples)
        else:
            self._last_window = series[-lookback:].copy()
        return self

    @property
    def supports_incremental_update(self) -> bool:
        """True when the wrapped regressor can fold in new windows.

        Checked on the *template* regressor so schedulers can ask before
        fitting; per-column clones share the capability.
        """
        base = self.regressor if self.regressor is not None else RandomForestRegressor()
        return hasattr(base, "partial_fit")

    def update(self, X_new, X_full=None) -> "WindowRegressor":
        """Fold the Δ new supervised windows into each per-column model.

        Only the windows that end inside ``X_new`` are framed (from the
        retained last window plus the new rows) and passed to
        ``partial_fit`` — O(Δ · lookback) work.  Parity with a cold refit
        is the regressor's own partial-fit contract: for
        :class:`~repro.ml.linear.StreamingRidge` the accumulated moments
        are algebraically those of a one-shot fit, equal up to float
        summation order (documented there).  Regressors without
        ``partial_fit`` fall back to the base full-refit path.
        """
        check_is_fitted(self, ("models_",))
        if not all(hasattr(model, "partial_fit") for model in self.models_):
            return super().update(X_new, X_full=X_full)
        X_new = as_2d_array(X_new, name="X_new")
        if X_new.shape[1] != self._n_series:
            raise InvalidParameterError(
                f"update block has {X_new.shape[1]} series, the fitted model "
                f"has {self._n_series}."
            )
        lookback = self._lookback_used
        rows = np.vstack([np.asarray(self._last_window, dtype=float), X_new])
        features, targets = make_supervised_windows(rows, lookback, 1)
        self._fit_windows(features, targets, lookback, partial=True)
        self._last_window = rows[-lookback:].copy()
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        check_is_fitted(self, ("models_",))
        horizon = check_horizon(horizon if horizon is not None else self.horizon)
        window = self._last_window.copy()
        forecasts = np.empty((horizon, self._n_series))
        for step in range(horizon):
            anchor = window[-1]
            features = (window - anchor if self._localized else window).reshape(1, -1)
            for column, model in enumerate(self.models_):
                prediction = np.asarray(model.predict(features), dtype=float).ravel()
                forecasts[step, column] = prediction[0]
            if self._localized:
                # Only here: adding a 0.0 anchor would turn a -0.0 into 0.0.
                forecasts[step] += anchor
            window = np.vstack([window[1:], forecasts[step]])
        return self._restore(forecasts)

    @property
    def name(self) -> str:
        inner = type(self.regressor).__name__ if self.regressor is not None else "RandomForest"
        return f"Window{inner}"


class WindowRandomForestForecaster(WindowRegressor):
    """``WindowRandomForest`` pipeline: random forest over look-back windows."""

    def __init__(
        self,
        lookback: int = 8,
        horizon: int = 1,
        n_estimators: int = 50,
        max_depth: int | None = 10,
        random_state: int | None = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.random_state = random_state
        super().__init__(
            regressor=RandomForestRegressor(
                n_estimators=n_estimators, max_depth=max_depth, random_state=random_state
            ),
            lookback=lookback,
            horizon=horizon,
        )

    @classmethod
    def _get_param_names(cls):
        return ("lookback", "horizon", "n_estimators", "max_depth", "random_state")

    @property
    def name(self) -> str:
        return "WindowRandomForest"


class WindowSVRForecaster(WindowRegressor):
    """``WindowSVR`` pipeline: support vector regression over look-back windows."""

    def __init__(
        self,
        lookback: int = 8,
        horizon: int = 1,
        C: float = 1.0,
        epsilon: float = 0.1,
        kernel: str = "rbf",
    ):
        self.C = C
        self.epsilon = epsilon
        self.kernel = kernel
        super().__init__(
            regressor=SVR(kernel=kernel, C=C, epsilon=epsilon),
            lookback=lookback,
            horizon=horizon,
        )

    @classmethod
    def _get_param_names(cls):
        return ("lookback", "horizon", "C", "epsilon", "kernel")

    @property
    def name(self) -> str:
        return "WindowSVR"
