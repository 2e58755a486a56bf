"""Chunked on-disk frames spilled through the ``StoreBackend`` blob family.

A :class:`~repro.frame.frame.TimeSeriesFrame` whose supervised-window
tensor would not fit in RAM is **spilled**: each column's physical buffer
is cut into fixed-row chunks, every chunk is published as an ordinary
content-addressed blob (the same ``.npy`` objects the data plane already
spills and syncs), and a tiny JSON-able *spec* records the layout —
schema version, row count, chunk size, and per column the logical dtype,
encoding, chunk digest list, full-column digest and (for
dictionary-encoded columns) the dictionary blob.

:class:`SpilledFrame` is the out-of-core residence over such a spec.  It
honors the full :class:`~repro.frame.frame.BaseFrame` contract:

- ``slice_rows`` / ``select`` adjust the row window / column set without
  touching a byte (splits share one chunk cache);
- ``gather`` decodes a bounded row range chunk by chunk — on a local
  backend each chunk is ``np.load(..., mmap_mode="r")`` straight off the
  blob file, so pages stay **file-backed** and never count against an
  anonymous-memory budget (``RLIMIT_DATA``); remote backends fall back to
  ``get_blob`` with a small LRU;
- ``fingerprint()`` equals the in-RAM frame's fingerprint for the same
  logical content: full columns reuse the digests recorded at spill time,
  row slices are hashed incrementally over the chunk slices — the same
  byte stream ``array_digest`` would see.

Every chunk read passes the ``frame.chunk_read`` fault seam and a digest
check with bounded retries (an mmap that fails verification is re-read
through ``get_blob``), so torn or short reads heal instead of silently
corrupting a lag matrix; persistent corruption raises
:class:`FrameIntegrityError` loudly.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from .. import faults
from ..exceptions import DataQualityError, InvalidParameterError
from ..faults import garble
from ..store.base import StoreError
from ..store.digest import array_digest
from ..store.localfs import LocalFSBackend
from .frame import BaseFrame, TimeSeriesFrame

__all__ = [
    "FRAME_SCHEMA_VERSION",
    "SpilledFrame",
    "FrameIntegrityError",
    "spill_frame",
    "load_frame",
]

#: Version stamp embedded in every spill spec; a reader refuses specs it
#: does not understand instead of mis-decoding chunk layouts.
FRAME_SCHEMA_VERSION = 1

#: Default chunk sizing: aim for ~4 MiB of physical bytes per row-chunk
#: across the frame — big enough to amortize per-blob overhead, small
#: enough that a handful of cached chunks stays negligible next to any
#: realistic memory budget.
_TARGET_CHUNK_BYTES = 4 << 20

#: Chunk reads that fail verification are retried this many times before
#: the frame gives up loudly.
_READ_ATTEMPTS = 3

#: LRU capacity of the shared chunk cache (chunks, not bytes — local
#: chunks are mmaps and cost no anonymous memory anyway).
_CACHE_CHUNKS = 16


class FrameIntegrityError(StoreError):
    """A spilled chunk failed digest verification after bounded retries."""


def _digest_size_of(digest: str) -> int:
    return len(digest) // 2


class _ChunkCache:
    """Shared LRU of verified chunks, keyed by digest.

    One cache object is shared by a spilled frame and every view derived
    from it, so a train/test split of the same base reads each chunk
    once.  Deliberately not pickled — a worker rebuilds its own.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int = _CACHE_CHUNKS):
        self.capacity = int(capacity)
        self._entries: OrderedDict[str, np.ndarray] = OrderedDict()

    def get(self, digest: str) -> np.ndarray | None:
        chunk = self._entries.get(digest)
        if chunk is not None:
            self._entries.move_to_end(digest)
        return chunk

    def put(self, digest: str, chunk: np.ndarray) -> None:
        self._entries[digest] = chunk
        self._entries.move_to_end(digest)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def drop(self, digest: str) -> None:
        self._entries.pop(digest, None)


def spill_frame(
    frame: TimeSeriesFrame,
    backend,
    chunk_rows: int | None = None,
    target_chunk_bytes: int = _TARGET_CHUNK_BYTES,
) -> "SpilledFrame":
    """Publish ``frame``'s columns as chunked blobs; return the spilled twin.

    Chunk blobs are content-addressed, so re-spilling the same frame (or
    two frames sharing columns) writes nothing new — ``has_blob`` dedups
    exactly like the data plane's remote sync.  The returned
    :class:`SpilledFrame` fingerprints identically to ``frame``.
    """
    if not getattr(frame, "is_timeseries_frame", False):
        frame = TimeSeriesFrame.from_array(frame)
    if chunk_rows is None:
        row_bytes = sum(column.values.itemsize for column in frame.columns)
        chunk_rows = max(1024, int(target_chunk_bytes) // max(row_bytes, 1))
    chunk_rows = int(chunk_rows)
    if chunk_rows < 1:
        raise InvalidParameterError(f"chunk_rows must be >= 1, got {chunk_rows}.")

    n_rows = len(frame)
    columns_spec = []
    for column in frame.columns:
        values = column.values
        chunks = []
        for start in range(0, n_rows, chunk_rows):
            chunk = values[start : start + chunk_rows]
            digest = array_digest(np.ascontiguousarray(chunk))
            if not backend.has_blob(digest) and not backend.put_blob(digest, chunk):
                raise StoreError(
                    f"could not spill chunk {digest} of column {column.name!r} "
                    f"to {backend.describe()}."
                )
            chunks.append(digest)
        spec = {
            "name": column.name,
            "dtype": column.dtype.str,
            "physical_dtype": values.dtype.str,
            "encoding": column.encoding,
            "chunks": chunks,
            # Recorded at spill time so full-column fingerprints never
            # re-hash — and match the in-RAM frame's digests exactly.
            "digest": column.digest()[0],
            "dictionary": None,
            "dictionary_dtype": None,
        }
        if column.dictionary is not None:
            dict_digest = array_digest(column.dictionary)
            if not backend.has_blob(dict_digest) and not backend.put_blob(
                dict_digest, column.dictionary
            ):
                raise StoreError(
                    f"could not spill dictionary {dict_digest} of column "
                    f"{column.name!r} to {backend.describe()}."
                )
            spec["dictionary"] = dict_digest
            spec["dictionary_dtype"] = column.dictionary.dtype.str
        columns_spec.append(spec)

    return SpilledFrame(
        {
            "schema": FRAME_SCHEMA_VERSION,
            "n_rows": n_rows,
            "chunk_rows": chunk_rows,
            "columns": columns_spec,
        },
        backend,
    )


def load_frame(spec: dict, backend) -> "SpilledFrame":
    """Reconstruct a spilled frame from its spec against ``backend``."""
    return SpilledFrame(spec, backend)


class SpilledFrame(BaseFrame):
    """Out-of-core frame residence: a spill spec plus a blob backend.

    Picklable (spec + backend + view window travel; caches do not), so a
    spilled frame ships to process and remote workers as-is — workers
    pull only the chunks their row window actually touches.
    """

    def __init__(self, spec: dict, backend, start: int = 0, stop: int | None = None,
                 columns: tuple[int, ...] | None = None, _cache: _ChunkCache | None = None):
        if spec.get("schema") != FRAME_SCHEMA_VERSION:
            raise DataQualityError(
                f"unsupported frame spec schema {spec.get('schema')!r} "
                f"(this reader speaks {FRAME_SCHEMA_VERSION})."
            )
        self.spec = spec
        self.backend = backend
        self._start = int(start)
        self._stop = int(spec["n_rows"]) if stop is None else int(stop)
        self._column_ids = (
            tuple(range(len(spec["columns"]))) if columns is None else tuple(columns)
        )
        if not self._column_ids:
            raise DataQualityError("a SpilledFrame view needs at least one column.")
        self._cache = _ChunkCache() if _cache is None else _cache
        self._dicts: dict[int, np.ndarray] = {}
        self._fingerprint: tuple | None = None
        self._slice_digests: dict[tuple[int, int, int], str] = {}

    # -- pickling --------------------------------------------------------------
    def __getstate__(self):
        return {
            "spec": self.spec,
            "backend": self.backend,
            "start": self._start,
            "stop": self._stop,
            "columns": self._column_ids,
        }

    def __setstate__(self, state):
        self.__init__(
            state["spec"], state["backend"], state["start"], state["stop"], state["columns"]
        )

    # -- shape -----------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        columns = self.spec["columns"]
        return tuple(columns[j]["name"] for j in self._column_ids)

    @property
    def dtypes(self) -> tuple[str, ...]:
        columns = self.spec["columns"]
        return tuple(columns[j]["dtype"] for j in self._column_ids)

    def __len__(self) -> int:
        return max(self._stop - self._start, 0)

    # -- views -----------------------------------------------------------------
    def select(self, names) -> "SpilledFrame":
        by_name = {self.spec["columns"][j]["name"]: j for j in self._column_ids}
        missing = [name for name in names if name not in by_name]
        if missing:
            raise KeyError(f"unknown frame columns: {missing}; have {list(self.names)}")
        return SpilledFrame(
            self.spec, self.backend, self._start, self._stop,
            tuple(by_name[name] for name in names), _cache=self._cache,
        )

    def slice_rows(self, start: int, stop: int) -> "SpilledFrame":
        start, stop, _ = slice(start, stop).indices(len(self))
        stop = max(stop, start)
        return SpilledFrame(
            self.spec, self.backend, self._start + start, self._start + stop,
            self._column_ids, _cache=self._cache,
        )

    # -- chunk IO --------------------------------------------------------------
    def _mmap_chunk(self, digest: str) -> np.ndarray | None:
        """Memory-map a chunk blob off a local backend (None when not local).

        File-backed mappings are the whole point of the out-of-core path:
        the kernel pages chunk bytes in and out on demand and none of it
        counts as anonymous memory, so a lag tensor built from mmap'd
        chunks respects an ``RLIMIT_DATA`` budget the materialized tensor
        would blow through.
        """
        backend = self.backend
        if not isinstance(backend, LocalFSBackend) or backend.root is None:
            return None
        try:
            path = backend.blob_path(digest)
            if not path.is_file():
                return None
            return np.load(path, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError):
            return None

    def _read_chunk(self, digest: str) -> np.ndarray:
        """One verified chunk: cache → mmap → ``get_blob``, healing torn reads.

        Every attempt passes the ``frame.chunk_read`` seam (detail = the
        chunk digest) and a full digest check.  ``error`` rules model a
        torn/short read, ``corrupt`` a garbled page — both are caught by
        verification and retried; after an mmap fails verification the
        retry re-reads through ``get_blob`` in case the mapping itself is
        the problem.  Persistent mismatch raises loudly: a lag matrix
        built from a bad chunk must never reach a model.
        """
        cached = self._cache.get(digest)
        if cached is not None:
            return cached
        mmap_ok = True
        for attempt in range(_READ_ATTEMPTS):
            rule = faults.fire("frame.chunk_read", digest)
            chunk = self._mmap_chunk(digest) if mmap_ok else None
            if chunk is None:
                chunk = self.backend.get_blob(digest)
            if rule is not None and chunk is not None:
                if rule.action == "error":
                    # A torn read: the caller saw only part of the chunk.
                    chunk = np.ascontiguousarray(chunk)[: max(len(chunk) // 2, 0)]
                elif rule.action == "corrupt":
                    page = np.ascontiguousarray(chunk)
                    chunk = np.frombuffer(
                        garble(page.tobytes()), dtype=page.dtype
                    ).reshape(page.shape)
            if chunk is not None and array_digest(chunk) == digest:
                self._cache.put(digest, chunk)
                return chunk
            # Verification failed (or the blob is gone): distrust the
            # mapping and any stale cache entry before trying again.
            mmap_ok = False
            self._cache.drop(digest)
        raise FrameIntegrityError(
            f"chunk {digest} failed verification {_READ_ATTEMPTS} times "
            f"(backend: {self.backend.describe()})."
        )

    def _dictionary(self, column_id: int) -> np.ndarray:
        mapping = self._dicts.get(column_id)
        if mapping is None:
            spec = self.spec["columns"][column_id]
            mapping = self._read_chunk(spec["dictionary"])
            self._dicts[column_id] = mapping
        return mapping

    # -- materialization -------------------------------------------------------
    def gather(self, start: int, stop: int, out: np.ndarray | None = None, dtype=float) -> np.ndarray:
        start, stop, _ = slice(start, stop).indices(len(self))
        rows = max(stop - start, 0)
        if out is None:
            out = np.empty((rows, len(self._column_ids)), dtype=dtype)
        lo = self._start + start
        hi = lo + rows
        chunk_rows = int(self.spec["chunk_rows"])
        for j, column_id in enumerate(self._column_ids):
            spec = self.spec["columns"][column_id]
            mapping = None if spec["dictionary"] is None else self._dictionary(column_id)
            filled = 0
            for chunk_index in range(lo // chunk_rows, (max(hi, lo + 1) - 1) // chunk_rows + 1):
                if filled >= rows:
                    break
                chunk = self._read_chunk(spec["chunks"][chunk_index])
                c_lo = max(lo - chunk_index * chunk_rows, 0)
                c_hi = min(hi - chunk_index * chunk_rows, len(chunk))
                if c_hi <= c_lo:
                    continue
                part = chunk[c_lo:c_hi]
                if mapping is not None:
                    part = mapping[part]
                out[filled : filled + len(part), j] = part
                filled += len(part)
        return out[:rows]

    def column(self, name: str) -> np.ndarray:
        """Logical values of one column, fully materialized."""
        index = self.names.index(name)
        return np.ascontiguousarray(self.gather(0, len(self))[:, index])

    def to_frame(self) -> TimeSeriesFrame:
        """Materialize back into an in-RAM frame (tests and small views)."""
        from .frame import FrameColumn

        columns = []
        for column_id in self._column_ids:
            spec = self.spec["columns"][column_id]
            physical = self._column_physical(column_id)
            if spec["dictionary"] is None:
                columns.append(FrameColumn(spec["name"], physical))
            else:
                columns.append(
                    FrameColumn(spec["name"], physical, self._dictionary(column_id))
                )
        return TimeSeriesFrame(columns)

    def _column_physical(self, column_id: int) -> np.ndarray:
        """The row window of one column's physical buffer, materialized."""
        spec = self.spec["columns"][column_id]
        chunk_rows = int(self.spec["chunk_rows"])
        out = np.empty(len(self), dtype=np.dtype(spec["physical_dtype"]))
        filled = 0
        lo, hi = self._start, self._stop
        for chunk_index in range(lo // chunk_rows, (max(hi, lo + 1) - 1) // chunk_rows + 1):
            if filled >= len(out):
                break
            chunk = self._read_chunk(spec["chunks"][chunk_index])
            c_lo = max(lo - chunk_index * chunk_rows, 0)
            c_hi = min(hi - chunk_index * chunk_rows, len(chunk))
            if c_hi <= c_lo:
                continue
            part = chunk[c_lo:c_hi]
            out[filled : filled + len(part)] = part
            filled += len(part)
        return out[:filled]

    # -- identity --------------------------------------------------------------
    def _sliced_digest(self, column_id: int) -> str:
        """Digest of the row window of one column's physical bytes.

        A full window reuses the digest recorded at spill time; a proper
        slice is hashed incrementally across the chunk slices — the exact
        byte stream ``array_digest`` sees on the in-RAM view, so spilled
        and resident fingerprints agree representation-free.
        """
        spec = self.spec["columns"][column_id]
        if self._start == 0 and self._stop == int(self.spec["n_rows"]):
            return spec["digest"]
        key = (column_id, self._start, self._stop)
        memo = self._slice_digests.get(key)
        if memo is not None:
            return memo
        chunk_rows = int(self.spec["chunk_rows"])
        hasher = hashlib.blake2b(digest_size=_digest_size_of(spec["digest"]))
        lo, hi = self._start, self._stop
        for chunk_index in range(lo // chunk_rows, (hi - 1) // chunk_rows + 1) if hi > lo else ():
            chunk = self._read_chunk(spec["chunks"][chunk_index])
            c_lo = max(lo - chunk_index * chunk_rows, 0)
            c_hi = min(hi - chunk_index * chunk_rows, len(chunk))
            if c_hi <= c_lo:
                continue
            hasher.update(np.ascontiguousarray(chunk[c_lo:c_hi]).data)
        digest = hasher.hexdigest()
        self._slice_digests[key] = digest
        return digest

    def fingerprint(self) -> tuple:
        if self._fingerprint is None:
            entries = []
            for column_id in self._column_ids:
                spec = self.spec["columns"][column_id]
                digests = (self._sliced_digest(column_id),)
                if spec["dictionary"] is not None:
                    digests += (spec["dictionary"],)
                entries.append((spec["name"], spec["dtype"], spec["encoding"]) + digests)
            self._fingerprint = ("frame", len(self), tuple(entries))
        return self._fingerprint

    def __repr__(self) -> str:
        rows, cols = self.shape
        return (
            f"SpilledFrame(rows={rows}, columns={cols}, "
            f"chunk_rows={self.spec['chunk_rows']}, backend={self.backend.describe()})"
        )
