"""Columnar time-series frames and out-of-core supervised framing.

The columnar data plane of the reproduction (see the README's
"Columnar frames & out-of-core framing" section):

- :class:`TimeSeriesFrame` — named, dtype-tagged, individually
  contiguous column buffers with dictionary-encoded low-cardinality
  columns; row slices and column selections are zero-copy views.
- :func:`spill_frame` / :class:`SpilledFrame` — the chunked on-disk
  twin, published through any ``StoreBackend``'s blob family and read
  back via mmap'd chunks with digest-verified, fault-healing reads.
- :class:`ChunkedWindowFramer` — streaming lag framing, byte-identical
  to ``make_supervised_windows`` while materializing one block at a
  time.
- :class:`FrameRef` — per-column data-plane addressing (defined in
  :mod:`repro.exec.dataplane`, re-exported here).
"""

from ..exec.dataplane import FrameColumnRef, FrameRef  # noqa: F401
from .chunked import (
    FRAME_SCHEMA_VERSION,
    FrameIntegrityError,
    SpilledFrame,
    load_frame,
    spill_frame,
)
from .frame import (
    BaseFrame,
    FrameColumn,
    TimeSeriesFrame,
    dictionary_encode,
    is_frame,
)
from .framer import ChunkedWindowFramer

__all__ = [
    "BaseFrame",
    "TimeSeriesFrame",
    "FrameColumn",
    "SpilledFrame",
    "FrameIntegrityError",
    "FrameRef",
    "FrameColumnRef",
    "ChunkedWindowFramer",
    "spill_frame",
    "load_frame",
    "dictionary_encode",
    "is_frame",
    "FRAME_SCHEMA_VERSION",
]
