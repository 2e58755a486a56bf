"""Columnar time-series frames: named, dtype-tagged, per-column buffers.

Every layer of the reproduction historically moved monolithic row-major
2-D ndarrays: a multivariate suite with 40 exogenous columns shipped,
hashed and pinned the whole base even when a task consumed two columns.
:class:`TimeSeriesFrame` makes the **column** the unit of addressing:

- each column is an individually contiguous 1-D buffer with its own
  name, logical dtype and content digest (memoized — selecting columns
  composes digests instead of rehashing bytes);
- low-cardinality columns (holiday flags, day-of-week, regime ids) are
  **dictionary-encoded**: the physical buffer holds small-int codes and
  the distinct values live in a tiny dictionary array;
- row slicing and column selection are zero-copy views sharing the
  parent's buffers, so splitting a frame into train/test or picking 2 of
  40 exogenous columns never touches the data.

Frames are treated as **immutable** once constructed (buffers are
exposed read-only, and the constructors copy an array its caller can
still write); the digests, the data plane and the spill format all rely
on that.  The chunked on-disk twin lives in
:mod:`repro.frame.chunked`, and :class:`repro.frame.framer.ChunkedWindowFramer`
streams supervised windows out of either residence.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DataQualityError, InvalidParameterError
from ..store.digest import array_digest

__all__ = [
    "BaseFrame",
    "TimeSeriesFrame",
    "FrameColumn",
    "dictionary_encode",
    "is_frame",
]

#: Cardinality cap for automatic dictionary encoding: codes must fit a
#: single byte, or the "compression" stops paying for itself on the
#: float columns this library moves.
_DICT_MAX_CARDINALITY = 255


def is_frame(obj) -> bool:
    """True for any frame residence (in-RAM or spilled), duck-typed.

    Consumers check the marker attribute instead of importing this
    package so low-level modules (validation, the execution engine) stay
    import-cycle free.
    """
    return bool(getattr(obj, "is_timeseries_frame", False))


def _read_only(values: np.ndarray) -> np.ndarray:
    view = values.view()
    view.flags.writeable = False
    return view


def _detached(values: np.ndarray, source) -> np.ndarray:
    """``values``, built from the caller's ``source``, or a copy of it when
    it shares bytes the caller can still write through ``source``.

    Column digests are memoized, so a buffer that changes under a frame
    would keep naming its old bytes.  A source that is read-only down to
    its last ndarray base stays zero-copy.
    """
    base = source
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return values.copy() if np.may_share_memory(values, source) else values
        base = base.base
    return values


def dictionary_encode(
    values: np.ndarray, max_cardinality: int = _DICT_MAX_CARDINALITY
) -> tuple[np.ndarray, np.ndarray] | None:
    """Encode a low-cardinality column as ``(codes, dictionary)``.

    Returns ``None`` when encoding does not apply: too many distinct
    values, non-finite entries (the dictionary round-trips through JSON
    in the spill spec) or a column too small to bother.  ``codes`` are
    ``uint8`` — by construction the dictionary fits one byte of code
    space — and ``dictionary[codes]`` reproduces the column exactly.
    """
    values = np.ascontiguousarray(values)
    if values.size < 16:
        return None
    if np.issubdtype(values.dtype, np.floating) and not np.isfinite(values).all():
        return None
    dictionary, codes = np.unique(values, return_inverse=True)
    if dictionary.size > min(max_cardinality, max(2, values.size // 8)):
        return None
    return codes.astype(np.uint8), dictionary


class FrameColumn:
    """One named column: physical buffer plus optional dictionary.

    ``values`` is the physical 1-D buffer (the codes when dictionary
    encoded); ``dictionary`` maps codes back to logical values.  Both are
    exposed read-only.  ``digest()`` names the column's content — for
    encoded columns a pair (codes digest, dictionary digest) so two
    encodings of the same logical data only match when bytes match.
    """

    __slots__ = ("name", "values", "dictionary", "_digest")

    def __init__(self, name: str, values: np.ndarray, dictionary: np.ndarray | None = None):
        values = np.asarray(values)
        if values.ndim != 1:
            raise DataQualityError(
                f"frame column {name!r} must be 1-D, got shape {values.shape}."
            )
        if not values.flags.c_contiguous:
            values = np.ascontiguousarray(values)
        self.name = str(name)
        self.values = _read_only(values)
        self.dictionary = None if dictionary is None else _read_only(
            np.ascontiguousarray(dictionary)
        )
        self._digest: tuple | None = None

    @property
    def encoding(self) -> str:
        return "plain" if self.dictionary is None else "dict"

    @property
    def dtype(self) -> np.dtype:
        """Logical dtype: what :meth:`decoded` yields."""
        return self.values.dtype if self.dictionary is None else self.dictionary.dtype

    def decoded(self) -> np.ndarray:
        """Logical values: a zero-copy view for plain columns, a decode
        materialization for dictionary-encoded ones."""
        if self.dictionary is None:
            return self.values
        return self.dictionary[self.values]

    def digest(self) -> tuple:
        """Memoized content digest(s) of the physical buffer(s)."""
        if self._digest is None:
            if self.dictionary is None:
                self._digest = (array_digest(self.values),)
            else:
                self._digest = (array_digest(self.values), array_digest(self.dictionary))
        return self._digest

    def sliced(self, start: int, stop: int) -> "FrameColumn":
        """Row-sliced view sharing this column's buffers (zero copy)."""
        view = FrameColumn.__new__(FrameColumn)
        view.name = self.name
        view.values = self.values[start:stop]
        view.dictionary = self.dictionary
        view._digest = None
        return view

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return (
            f"FrameColumn({self.name!r}, n={len(self.values)}, "
            f"dtype={self.dtype.str!r}, encoding={self.encoding!r})"
        )


class BaseFrame:
    """Interface shared by every frame residence (in-RAM and spilled).

    The contract every consumer leans on:

    - ``len(frame)`` / ``shape`` / ``names`` / ``dtypes`` describe the table;
    - ``select(names)`` and ``slice_rows(start, stop)`` are cheap views;
    - ``gather(start, stop)`` materializes a bounded row range as a
      row-major float array — the only primitive the streaming framer
      needs, so out-of-core residences only have to answer bounded reads;
    - ``to_array()`` materializes the whole table (convenience for
      consumers that cannot stream; out-of-core callers should not);
    - ``fingerprint()`` is the content identity: per-column digests of
      the **sliced physical bytes**, so the same logical content
      fingerprints identically whether it lives in RAM, in shared
      memory, or in spilled chunks.
    """

    #: Duck-typing marker checked by :func:`is_frame` (and by
    #: ``repro._validation.as_2d_array``, which materializes frames for
    #: consumers that only speak 2-D arrays).
    is_timeseries_frame = True

    # Subclasses implement:  names, dtypes, __len__, select, slice_rows,
    # gather, column, fingerprint.

    @property
    def n_columns(self) -> int:
        return len(self.names)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self), self.n_columns)

    def to_array(self, dtype=float) -> np.ndarray:
        """Materialize the full table as a row-major 2-D array."""
        return self.gather(0, len(self), dtype=dtype)

    def __repr__(self) -> str:
        rows, cols = self.shape
        return f"{type(self).__name__}(rows={rows}, columns={cols})"


class TimeSeriesFrame(BaseFrame):
    """In-RAM columnar frame over :class:`FrameColumn` buffers."""

    def __init__(self, columns: list[FrameColumn]):
        if not columns:
            raise DataQualityError("a TimeSeriesFrame needs at least one column.")
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise DataQualityError(
                f"frame columns disagree on length: {sorted(lengths)}."
            )
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise DataQualityError(f"duplicate column names: {names}.")
        self._columns = list(columns)
        self._by_name = {column.name: column for column in columns}
        self._fingerprint: tuple | None = None

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_array(
        cls, X, names: list[str] | None = None, dictionary: bool = False
    ) -> "TimeSeriesFrame":
        """Split a row-major ``(n_samples, n_series)`` array into columns.

        ``dictionary=True`` additionally dictionary-encodes columns whose
        cardinality qualifies (see :func:`dictionary_encode`).  A column
        that would share the bytes of an array the caller can still write
        is copied.
        """
        from .._validation import as_2d_array

        source, X = X, as_2d_array(X, dtype=None)
        if names is None:
            names = [f"c{j}" for j in range(X.shape[1])]
        if len(names) != X.shape[1]:
            raise InvalidParameterError(
                f"{len(names)} names for {X.shape[1]} columns."
            )
        columns = []
        for j, name in enumerate(names):
            values = np.ascontiguousarray(X[:, j])
            encoded = dictionary_encode(values) if dictionary else None
            if encoded is None:
                columns.append(FrameColumn(name, _detached(values, source)))
            else:
                codes, mapping = encoded
                columns.append(FrameColumn(name, codes, mapping))
        return cls(columns)

    @classmethod
    def from_columns(cls, columns, dictionary: bool = False) -> "TimeSeriesFrame":
        """Build a frame from ``{name: 1-D values}`` (ordered) pairs.

        Values the caller can still write are copied; read-only arrays are
        kept zero-copy.
        """
        items = columns.items() if hasattr(columns, "items") else columns
        built = []
        for name, source in items:
            values = np.ascontiguousarray(source)
            encoded = dictionary_encode(values) if dictionary else None
            if encoded is None:
                built.append(FrameColumn(name, _detached(values, source)))
            else:
                codes, mapping = encoded
                built.append(FrameColumn(name, codes, mapping))
        return cls(built)

    # -- shape -----------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self._columns)

    @property
    def dtypes(self) -> tuple[str, ...]:
        return tuple(column.dtype.str for column in self._columns)

    @property
    def columns(self) -> tuple[FrameColumn, ...]:
        return tuple(self._columns)

    def __len__(self) -> int:
        return len(self._columns[0])

    # -- views -----------------------------------------------------------------
    def select(self, names) -> "TimeSeriesFrame":
        """Column projection: a frame sharing the selected buffers."""
        missing = [name for name in names if name not in self._by_name]
        if missing:
            raise KeyError(f"unknown frame columns: {missing}; have {list(self.names)}")
        return TimeSeriesFrame([self._by_name[name] for name in names])

    def slice_rows(self, start: int, stop: int) -> "TimeSeriesFrame":
        """Row window: a frame of zero-copy column views."""
        start, stop, _ = slice(start, stop).indices(len(self))
        stop = max(stop, start)
        return TimeSeriesFrame([column.sliced(start, stop) for column in self._columns])

    def column(self, name: str) -> np.ndarray:
        """Logical values of one column (view unless dictionary-encoded)."""
        return self._by_name[name].decoded()

    # -- materialization -------------------------------------------------------
    def gather(self, start: int, stop: int, out: np.ndarray | None = None, dtype=float) -> np.ndarray:
        """Materialize rows ``[start, stop)`` as a row-major array.

        The staging buffer is the caller's only allocation (reusable via
        ``out``); values are exactly ``as_2d_array(base)[start:stop]`` of
        the equivalent row-major array, which is what keeps the streaming
        framer byte-identical to the in-memory one.
        """
        start, stop, _ = slice(start, stop).indices(len(self))
        rows = max(stop - start, 0)
        if out is None:
            out = np.empty((rows, len(self._columns)), dtype=dtype)
        for j, column in enumerate(self._columns):
            if column.dictionary is None:
                out[:rows, j] = column.values[start:stop]
            else:
                out[:rows, j] = column.dictionary[column.values[start:stop]]
        return out[:rows]

    # -- identity --------------------------------------------------------------
    def fingerprint(self) -> tuple:
        """Content fingerprint: per-column digests of the sliced bytes.

        Memoized per frame object (row-sliced views are frame objects of
        their own, so a persistent train split hashes once).  Selecting
        columns composes the per-column digests — it never rehashes, and
        never copies the base the way ``array_digest`` on a
        non-contiguous 2-D column view would.
        """
        if self._fingerprint is None:
            self._fingerprint = (
                "frame",
                len(self),
                tuple(
                    (column.name, column.dtype.str, column.encoding) + column.digest()
                    for column in self._columns
                ),
            )
        return self._fingerprint
