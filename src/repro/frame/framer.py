"""Streaming supervised-window framing pushed down onto columnar frames.

:func:`repro.transforms.window.make_supervised_windows` materializes the
full lag tensor: ``n_windows x (lookback * n_series)`` floats in one
allocation, which for month-long high-frequency series is the single
biggest resident object in a run — often bigger than the data itself by
a factor of ``lookback``.  :class:`ChunkedWindowFramer` streams the same
tensor in **blocks**:

- the source stays columnar (a :class:`~repro.frame.frame.TimeSeriesFrame`
  or a :class:`~repro.frame.chunked.SpilledFrame`; plain arrays are
  accepted for convenience) and only ``block_windows + lookback +
  horizon - 1`` rows are ever materialized at once;
- each block applies the *exact* strided recipe of
  ``make_supervised_windows`` to its row range, so the concatenation of
  all blocks is byte-identical to the one-shot tensor — the parity tests
  assert ``tobytes()`` equality across dtypes, odd lengths, edge-case
  lookback/horizon and chunk-boundary-straddling windows;
- against a spilled frame the row ranges are gathered from mmap'd
  chunks, so peak anonymous memory is one block, not one tensor.

Block sizing defaults to a ~64 MiB window budget clamped to
``[256, n_windows]``; callers with streaming estimators
(:class:`repro.ml.linear.StreamingRidge`) consume :meth:`blocks`
directly, everyone else gets :meth:`materialize` as a drop-in
``make_supervised_windows``.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_array, check_positive_int
from .frame import is_frame

__all__ = ["ChunkedWindowFramer"]

#: Default per-block materialization budget (bytes of feature+target
#: windows), before clamping to ``[_MIN_BLOCK_WINDOWS, n_windows]``.
_BLOCK_BUDGET_BYTES = 64 << 20

#: Floor on the block size: below this the per-block strided-framing
#: overhead dominates and streaming stops paying for itself.
_MIN_BLOCK_WINDOWS = 256


class ChunkedWindowFramer:
    """Stream ``make_supervised_windows`` output in bounded blocks.

    Parameters mirror :func:`make_supervised_windows` (``lookback``,
    ``horizon``, ``target_column``, ``flatten``) plus:

    block_windows:
        Windows per yielded block; default derives from
        ``memory_budget``.
    memory_budget:
        Approximate bytes of materialized windows per block used to size
        the default ``block_windows``.
    """

    def __init__(
        self,
        source,
        lookback: int,
        horizon: int = 1,
        target_column: int | None = None,
        flatten: bool = True,
        block_windows: int | None = None,
        memory_budget: int = _BLOCK_BUDGET_BYTES,
    ):
        self.lookback = check_positive_int(lookback, "lookback")
        self.horizon = check_positive_int(horizon, "horizon")
        self.target_column = target_column
        self.flatten = bool(flatten)
        if is_frame(source):
            self.source = source
            n_samples, n_series = source.shape
        else:
            # Plain arrays stream too — row ranges are then slices, and
            # the framer degrades into a block-wise make_supervised_windows.
            self.source = as_2d_array(source)
            n_samples, n_series = self.source.shape
        self.n_series = int(n_series)
        self.n_windows = n_samples - self.lookback - self.horizon + 1
        if self.n_windows <= 0:
            raise ValueError(
                f"Series of length {n_samples} is too short for "
                f"lookback={self.lookback} and horizon={self.horizon}."
            )
        if block_windows is None:
            window_bytes = (self.lookback + self.horizon) * self.n_series * 8
            block_windows = int(memory_budget) // max(window_bytes, 1)
        self.block_windows = max(min(int(block_windows), self.n_windows), 1)
        if self.n_windows >= _MIN_BLOCK_WINDOWS:
            self.block_windows = max(self.block_windows, _MIN_BLOCK_WINDOWS)

    # -- streaming -------------------------------------------------------------
    def _rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` of the source as a float64 2-D block."""
        if is_frame(self.source):
            return self.source.gather(start, stop)
        return self.source[start:stop]

    def blocks(self):
        """Yield ``(features, targets)`` per block, in window order.

        Each block covers windows ``[w0, w0 + m)`` and is computed from
        source rows ``[w0, w0 + m + lookback + horizon - 1)`` with the
        same strided recipe as :func:`make_supervised_windows` — window
        ``i`` never sees different bytes because of where a block (or a
        spilled chunk) boundary fell.
        """
        lookback, horizon = self.lookback, self.horizon
        for w0 in range(0, self.n_windows, self.block_windows):
            m = min(self.block_windows, self.n_windows - w0)
            rows = self._rows(w0, w0 + m + lookback + horizon - 1)
            feature_view = np.lib.stride_tricks.sliding_window_view(rows, lookback, axis=0)
            features = feature_view[:m].transpose(0, 2, 1).copy()
            target_view = np.lib.stride_tricks.sliding_window_view(rows, horizon, axis=0)
            targets = target_view[lookback : lookback + m].transpose(0, 2, 1)
            if self.target_column is not None:
                targets = targets[:, :, [self.target_column]]
            targets = targets.copy().reshape(m, -1)
            if self.flatten:
                features = features.reshape(m, lookback * self.n_series)
            if targets.shape[1] == 1:
                targets = targets.ravel()
            yield features, targets

    # -- materialization -------------------------------------------------------
    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """The full ``(features, targets)`` pair, byte-identical to
        ``make_supervised_windows(source, ...)``.

        Concatenating the blocks reproduces the one-shot tensor exactly
        (same values, dtype, order and contiguity); out-of-core callers
        should consume :meth:`blocks` instead of calling this.
        """
        features_parts, target_parts = [], []
        for features, targets in self.blocks():
            features_parts.append(features)
            target_parts.append(targets)
        if len(features_parts) == 1:
            return features_parts[0], target_parts[0]
        return np.concatenate(features_parts), np.concatenate(target_parts)

    def __repr__(self) -> str:
        return (
            f"ChunkedWindowFramer(n_windows={self.n_windows}, "
            f"lookback={self.lookback}, horizon={self.horizon}, "
            f"block_windows={self.block_windows})"
        )
