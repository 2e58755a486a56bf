"""Append-only arrival buffer backing the streaming evaluation path.

The streaming engine needs one growing 2-D series whose *prefix bytes
never move*: every rolling-origin evaluation cell and every cache record
is keyed on those bytes.  :class:`ArrivalBuffer` owns a private writable
capacity buffer, hands consumers **read-only** zero-offset views, and
grows geometrically, so an append copies history only when it outgrows
the capacity.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_2d_array
from ..exceptions import DataQualityError, InvalidParameterError

__all__ = ["ArrivalBuffer"]


class ArrivalBuffer:
    """Append-only ``(n_rows, n_series)`` float64 buffer with stable views.

    Parameters
    ----------
    n_series:
        Number of series (columns).  Fixed for the buffer's life.
    capacity:
        Initial row capacity; grows geometrically when exceeded.
    """

    def __init__(self, n_series: int, capacity: int = 256):
        if n_series < 1:
            raise InvalidParameterError("n_series must be >= 1")
        self._n_series = int(n_series)
        capacity = max(int(capacity), 8)
        self._base = np.empty((capacity, self._n_series), dtype=np.float64)
        self._rows = 0

    # -- shape ---------------------------------------------------------------
    def __len__(self) -> int:
        return self._rows

    @property
    def n_series(self) -> int:
        return self._n_series

    @property
    def capacity(self) -> int:
        return len(self._base)

    # -- growth --------------------------------------------------------------
    def append(self, rows) -> np.ndarray:
        """Append ``rows`` (coerced to ``(delta, n_series)`` float64).

        Returns a read-only view of just the appended rows.  Existing
        views handed out by :meth:`view` keep their bytes — on overflow
        the buffer reallocates rather than moving them.
        """
        rows = as_2d_array(rows, name="rows")
        if rows.shape[1] != self._n_series:
            raise DataQualityError(
                f"appended rows have {rows.shape[1]} series, the buffer holds "
                f"{self._n_series}."
            )
        delta = len(rows)
        if delta == 0:
            return self.view()[self._rows :]
        needed = self._rows + delta
        if needed > len(self._base):
            capacity = max(2 * len(self._base), needed)
            new_base = np.empty((capacity, self._n_series), dtype=np.float64)
            new_base[: self._rows] = self._base[: self._rows]
            self._base = new_base
        self._base[self._rows : needed] = rows
        self._rows = needed
        appended = self._base[self._rows - delta : self._rows]
        appended = appended.view()
        appended.flags.writeable = False
        return appended

    # -- access --------------------------------------------------------------
    def view(self) -> np.ndarray:
        """Read-only zero-offset view of all rows appended so far."""
        view = self._base[: self._rows]
        view = view.view()
        view.flags.writeable = False
        return view

    def __repr__(self) -> str:
        return (
            f"ArrivalBuffer(rows={self._rows}, n_series={self._n_series}, "
            f"capacity={self.capacity})"
        )
