"""Sliding-window supervised framing of time series.

The ML and deep-learning forecasters transform the forecasting problem into
an IID regression problem: each look-back window of ``lookback`` consecutive
observations becomes a feature row and the following ``horizon`` values
become the regression target(s).
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_array, check_positive_int

__all__ = ["make_supervised_windows"]


def make_supervised_windows(
    X,
    lookback: int,
    horizon: int = 1,
    target_column: int | None = None,
    flatten: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Convert a (multi-)series array into supervised ``(features, targets)``.

    Parameters
    ----------
    X:
        2-D array of shape ``(n_samples, n_series)`` (1-D is accepted and
        treated as a single series).
    lookback:
        Number of past observations in each feature window.
    horizon:
        Number of future observations in each target.
    target_column:
        When given, targets contain only that series; otherwise targets cover
        all series.
    flatten:
        When True (default) feature windows are flattened to
        ``lookback * n_series`` columns; otherwise they keep the
        ``(lookback, n_series)`` shape (used by sequence models).

    Returns
    -------
    features:
        ``(n_windows, lookback * n_series)`` (or 3-D when ``flatten=False``).
    targets:
        ``(n_windows, horizon * n_targets)``; squeezed to 1-D when a single
        value per window is produced.

    Columnar frames (``repro.frame``) delegate to the streaming
    :class:`~repro.frame.framer.ChunkedWindowFramer` — the full tensor is
    still returned (this function's contract), but the source rows are
    gathered block by block, so a spilled frame is never materialized
    whole alongside its lag matrix.  The output is byte-identical to
    framing ``frame.to_array()`` here.
    """
    if getattr(X, "is_timeseries_frame", False):
        from ..frame.framer import ChunkedWindowFramer

        return ChunkedWindowFramer(
            X, lookback, horizon, target_column=target_column, flatten=flatten
        ).materialize()
    X = as_2d_array(X)
    lookback = check_positive_int(lookback, "lookback")
    horizon = check_positive_int(horizon, "horizon")

    n_samples, n_series = X.shape
    n_windows = n_samples - lookback - horizon + 1
    if n_windows <= 0:
        raise ValueError(
            f"Series of length {n_samples} is too short for lookback={lookback} "
            f"and horizon={horizon}."
        )

    # Strided framing: sliding_window_view yields (n - w + 1, n_series, w)
    # with the window on the last axis; transposing to time-major
    # (window, step, series) reproduces the per-window layout of the naive
    # ``X[start : start + w]`` loop, and one vectorized copy materializes
    # the whole lag matrix.
    feature_view = np.lib.stride_tricks.sliding_window_view(X, lookback, axis=0)
    features = feature_view[:n_windows].transpose(0, 2, 1).copy()
    target_view = np.lib.stride_tricks.sliding_window_view(X, horizon, axis=0)
    targets = target_view[lookback : lookback + n_windows].transpose(0, 2, 1)
    if target_column is not None:
        targets = targets[:, :, [target_column]]
    targets = targets.copy().reshape(n_windows, -1)

    if flatten:
        features = features.reshape(n_windows, lookback * n_series)
    if targets.shape[1] == 1:
        targets = targets.ravel()
    return features, targets
