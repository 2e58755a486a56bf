"""Zero-copy data plane: pin base arrays once, ship slices by reference.

Every execution backend used to move task data *by value*: a T-Daub round
with N pipelines pickled the same training slice N times into the process
pool, and the remote backend re-sent identical bytes over the socket for
every task of every batch.  On long series the per-task payload dominates
the actual fit time.  This module separates **data distribution** from
**task dispatch**:

- A :class:`DataPlane` *registers* each base array once per run and hands
  back an :class:`ArrayRef` — ``(digest, start, stop)`` plus enough
  metadata for any worker to reconstruct the slice.  T-Daub's nested
  reverse allocations become literal ``(base_ref, offset)`` pairs:
  ``ref[start:stop]`` derives a narrower ref without touching the bytes.
- Workers *resolve* refs through :func:`resolve_array`, which walks the
  available distribution channels: the in-process registry (serial/thread
  backends and ``fork`` children inherit it for free), a
  ``multiprocessing.shared_memory`` segment (the process backend — one
  copy at registration, every worker maps the same pages), or the
  content-addressed blob registry fed by the remote wire protocol's
  ``blob_put`` frames (see :mod:`repro.exec.remote`).

Planes are per-run objects created by ``executor.create_dataplane()`` and
closed by the caller that created them; shared-memory segments are
refcounted in the module registry and unlinked when the last plane using a
digest closes.  A process that dies without closing is covered by
``multiprocessing.resource_tracker``, which unlinks leaked segments when
the process tree exits.  Workers merely *attach* segments; the creator
alone owns tracker registration and cleanup (see ``_attach_segment`` for
the per-version details).

Everything here is transport: resolving a ref yields an array whose
content is byte-identical to what the by-value path would have shipped,
so cache keys, rankings and manifests are unchanged — by-value remains
the fallback for custom executors (``create_dataplane() -> None``).
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import secrets
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..store.digest import array_digest

__all__ = [
    "ArrayRef",
    "FrameColumnRef",
    "FrameRef",
    "DataPlane",
    "SharedMemoryPlane",
    "array_digest",
    "array_fingerprint",
    "resolve_array",
    "resolve_frame",
    "resolve_payload",
    "hydrate_task",
    "publish_blob",
    "blob_is_known",
    "SHM_NAME_PREFIX",
]

#: Prefix of every shared-memory segment the plane creates.  Recognizable on
#: purpose: ``ls /dev/shm | grep repro-dp-`` after a test run is the leak
#: gate (CI greps for exactly this).
SHM_NAME_PREFIX = "repro-dp-"


# ``array_digest`` now lives in :mod:`repro.store.digest` (one digest per
# byte content across the cache, the data plane and every blob store) and
# is memoized per array object — registering a dataset, fingerprinting it
# for the suite spec and addressing its blob hash the buffer once.  It is
# re-exported here because this was its historical home.


def array_fingerprint(values: np.ndarray) -> tuple:
    """Content fingerprint of an array: shape, dtype and a BLAKE2 digest.

    Already-contiguous arrays are hashed through their buffer directly
    (zero copies); only non-contiguous views pay one compaction copy.
    (This is the fingerprint :class:`repro.exec.cache.EvaluationCache`
    keys slices on; it lives here so the plane can memoize it per ref.)
    """
    values = np.asarray(values)
    return ("array", values.shape, values.dtype.str, array_digest(values))


@dataclass(frozen=True)
class ArrayRef:
    """A slice of a registered base array, by reference.

    ``digest`` addresses the base array's *content* (BLAKE2 of its buffer);
    ``start``/``stop`` bound the row slice.  ``shape``/``dtype`` describe
    the base so a worker can reconstruct a view from raw bytes, and
    ``shm_name`` names the shared-memory segment when the process backend
    pinned one.  Refs are tiny and picklable — that is the whole point.
    """

    digest: str
    start: int
    stop: int
    shape: tuple
    dtype: str
    shm_name: str | None = None

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, item: slice) -> "ArrayRef":
        """Derive a narrower ref; supports contiguous row slices only."""
        if not isinstance(item, slice) or item.step not in (None, 1):
            raise TypeError("ArrayRef supports contiguous row slices (no step)")
        start, stop, _ = item.indices(len(self))
        return dataclasses.replace(
            self, start=self.start + start, stop=self.start + max(stop, start)
        )

    def slice(self, start: int, stop: int) -> "ArrayRef":
        """Explicit form of ``ref[start:stop]``."""
        return self[start:stop]


@dataclass(frozen=True)
class FrameColumnRef:
    """One column of a registered frame, by reference.

    ``values`` addresses the column's *physical* buffer (dictionary codes
    when ``encoding == "dict"``, the logical values otherwise) as an
    ordinary full-range :class:`ArrayRef`; ``dictionary`` addresses the
    decode table.  ``dtype`` is the **logical** dtype string.
    """

    name: str
    dtype: str
    encoding: str
    values: ArrayRef
    dictionary: ArrayRef | None = None


@dataclass(frozen=True)
class FrameRef:
    """A row window over selected columns of a registered frame.

    The per-column generalization of :class:`ArrayRef`: where an
    ``ArrayRef`` names one monolithic base, a ``FrameRef`` carries one
    tiny ref *per column* plus a shared row window.  Narrowing is free in
    both axes — ``ref[a:b]`` moves the window, :meth:`select` drops
    column refs — and every distribution channel (shared memory, remote
    blob sync, blob spill) moves only the buffers the surviving refs
    name: selecting 2 of 40 exogenous columns ships and hashes 2
    buffers, not the base.
    """

    columns: tuple[FrameColumnRef, ...]
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def __getitem__(self, item: slice) -> "FrameRef":
        """Derive a narrower row window; contiguous row slices only."""
        if not isinstance(item, slice) or item.step not in (None, 1):
            raise TypeError("FrameRef supports contiguous row slices (no step)")
        start, stop, _ = item.indices(len(self))
        return dataclasses.replace(
            self, start=self.start + start, stop=self.start + max(stop, start)
        )

    def slice(self, start: int, stop: int) -> "FrameRef":
        """Explicit form of ``ref[start:stop]``."""
        return self[start:stop]

    def select(self, names) -> "FrameRef":
        """Column projection: keep only the named column refs."""
        by_name = {column.name: column for column in self.columns}
        missing = [name for name in names if name not in by_name]
        if missing:
            raise KeyError(
                f"unknown frame columns: {missing}; have {list(self.names)}"
            )
        return dataclasses.replace(
            self, columns=tuple(by_name[name] for name in names)
        )


class _BaseEntry:
    """One registered base array in the process-wide registry."""

    __slots__ = ("array", "refcount", "shm")

    def __init__(self, array: np.ndarray, shm=None):
        self.array = array
        self.refcount = 0
        self.shm = shm  # creator-side SharedMemory handle, if pinned


#: Process-wide registry of registered bases.  Serial/thread backends and
#: ``fork`` children resolve straight out of this dict; planes refcount
#: entries so overlapping runs on the same data share one registration.
#: Guarded by ``_REGISTRY_LOCK``: concurrent planes (thread-backend cells
#: each fitting a nested AutoAI-TS, say) register and release the same
#: digests, and an unlocked read-modify-write of the refcounts would drop
#: live entries or leak segments.
_LOCAL_BASES: dict[str, _BaseEntry] = {}

#: Segments this process *attached* (did not create), keyed by name.
_SHM_ATTACHMENTS: dict[str, tuple[Any, np.ndarray]] = {}

#: Content-addressed blobs received over the remote wire protocol.  A
#: worker server publishes every ``blob_put`` here, so task processes it
#: forks inherit the bytes and a digest it has seen is never re-sent.
#: Ordered for LRU eviction (see ``evict_spilled_blobs``).
_RECEIVED_BLOBS: "OrderedDict[str, np.ndarray]" = OrderedDict()

#: Re-entrant so :class:`SharedMemoryPlane` can hold it across its
#: check-then-create section while the helpers it calls re-acquire.
_REGISTRY_LOCK = threading.RLock()


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _release_shm(shm) -> None:
    """Close and unlink a creator-side segment, tolerating repeats."""
    try:
        shm.close()
    except (OSError, BufferError):
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):
        pass


def _retain_base(digest: str, array: np.ndarray, shm=None) -> _BaseEntry:
    with _REGISTRY_LOCK:
        entry = _LOCAL_BASES.get(digest)
        if entry is None:
            entry = _LOCAL_BASES[digest] = _BaseEntry(_read_only(array), shm)
        elif shm is not None and entry.shm is None:
            # Upgrade: a plain registration gains a pinned segment so process
            # workers can attach it; existing refs keep resolving by digest.
            entry.array = _read_only(array)
            entry.shm = shm
        entry.refcount += 1
        return entry


def _release_base(digest: str) -> None:
    with _REGISTRY_LOCK:
        entry = _LOCAL_BASES.get(digest)
        if entry is None:
            return
        entry.refcount -= 1
        if entry.refcount > 0:
            return
        del _LOCAL_BASES[digest]
        shm = entry.shm
    if shm is not None:
        _release_shm(shm)


def _attach_segment(name: str, shape: tuple, dtype: str) -> np.ndarray | None:
    """Map a shared-memory segment by name; ``None`` when it is gone.

    On Python 3.13+ the attach passes ``track=False``: the creator owns
    the segment, and an attaching task process must not enroll it with a
    resource tracker.  Before 3.13 every ``SharedMemory`` registers with
    the tracker unconditionally — but worker processes (fork or spawn)
    inherit the *creator's* tracker, whose per-name cache is a set, so the
    attach-side registration dedupes to a no-op.  Crucially we must NOT
    ``unregister`` here: with a shared tracker that would erase the
    creator's registration and break its crash cleanup.
    """
    cached = _SHM_ATTACHMENTS.get(name)
    if cached is not None:
        return cached[1]
    from multiprocessing import shared_memory

    try:
        if sys.version_info >= (3, 13):
            shm = shared_memory.SharedMemory(name=name, track=False)
        else:
            shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return None
    base = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    base.flags.writeable = False
    _SHM_ATTACHMENTS[name] = (shm, base)
    return base


@atexit.register
def _close_attachments() -> None:  # pragma: no cover - interpreter shutdown
    for shm, _ in list(_SHM_ATTACHMENTS.values()):
        try:
            shm.close()
        except (OSError, BufferError):
            pass
    _SHM_ATTACHMENTS.clear()


def install_blob(digest: str, array: np.ndarray) -> None:
    """Install an array as a resolvable received blob (most recently used)."""
    with _REGISTRY_LOCK:
        _RECEIVED_BLOBS[digest] = _read_only(np.asarray(array))
        _RECEIVED_BLOBS.move_to_end(digest)


def publish_blob(digest: str, shape: tuple, dtype: str, payload: bytes) -> None:
    """Install bytes received over the wire as a resolvable base array."""
    install_blob(digest, np.frombuffer(payload, dtype=np.dtype(dtype)).reshape(shape))


def blob_is_known(digest: str) -> bool:
    """True when this process can already resolve ``digest`` locally."""
    return digest in _RECEIVED_BLOBS or digest in _LOCAL_BASES


def evict_spilled_blobs(cap_bytes: int, is_spilled) -> None:
    """Drop least-recently-used received blobs until under ``cap_bytes``.

    Only blobs ``is_spilled(digest)`` confirms are safely on disk are
    evicted — an evicted digest answers ``blob_has`` False and simply gets
    re-promoted (or re-sent) on demand, so a long-lived worker server's
    memory stays bounded without ever losing bytes.
    """
    with _REGISTRY_LOCK:
        total = sum(array.nbytes for array in _RECEIVED_BLOBS.values())
        for digest in list(_RECEIVED_BLOBS):
            if total <= cap_bytes:
                return
            if is_spilled(digest):
                total -= _RECEIVED_BLOBS.pop(digest).nbytes


def ensure_task_blobs(task: Any, fetch) -> None:
    """Re-promote spilled blobs a dataclass task references from disk.

    Called by the worker server before dispatching a task whose refs may
    have been LRU-evicted from memory: ``fetch(digest)`` loads the spilled
    array (or returns ``None``), and forked task processes then inherit it.
    """
    if not dataclasses.is_dataclass(task) or isinstance(task, type):
        return
    for field in dataclasses.fields(task):
        value = getattr(task, field.name)
        for ref in _iter_array_refs(value):
            if not blob_is_known(ref.digest):
                spilled = fetch(ref.digest)
                if spilled is not None:
                    install_blob(ref.digest, spilled)


def _iter_array_refs(value: Any):
    """Every :class:`ArrayRef` a task field transports (frames included)."""
    if isinstance(value, ArrayRef):
        yield value
    elif isinstance(value, FrameRef):
        for column in value.columns:
            yield column.values
            if column.dictionary is not None:
                yield column.dictionary


def resolve_array(data: Any) -> np.ndarray:
    """Materialize a task payload: arrays pass through, refs are resolved.

    Resolution walks the distribution channels in cost order: the
    in-process registry (free — serial/thread backends, ``fork`` children
    and the registering process itself), received remote blobs, then a
    shared-memory attach by name (``spawn`` workers).  The returned slice
    is a read-only view of the pinned base — zero copies on every path.
    """
    if not isinstance(data, ArrayRef):
        return data
    base = None
    entry = _LOCAL_BASES.get(data.digest)
    if entry is not None:
        base = entry.array
    elif data.digest in _RECEIVED_BLOBS:
        with _REGISTRY_LOCK:
            base = _RECEIVED_BLOBS.get(data.digest)
            if base is not None:
                # Refresh recency so the eviction policy is truly LRU.
                _RECEIVED_BLOBS.move_to_end(data.digest)
    if base is None and entry is None and data.shm_name is not None:
        base = _attach_segment(data.shm_name, data.shape, data.dtype)
    if base is None:
        raise LookupError(
            f"ArrayRef {data.digest[:12]}… cannot be resolved in this process: "
            "the base array was not registered here, no blob with that digest "
            "was received, and no shared-memory segment is attachable"
        )
    if tuple(base.shape) != tuple(data.shape):
        raise LookupError(
            f"ArrayRef {data.digest[:12]}… resolved to shape {base.shape}, "
            f"expected {data.shape}"
        )
    return base[data.start : data.stop]


def resolve_frame(ref: FrameRef):
    """Materialize a :class:`FrameRef` as an in-RAM columnar frame.

    Each column's physical base is resolved through the same channel walk
    as :func:`resolve_array` and the row window is applied as a **view**
    — a resolved frame shares the pinned bases column for column, and
    selecting columns before resolution means unselected bases are never
    even looked up.  The satellite no-copy regression tests assert
    ``np.shares_memory`` between resolved columns and the registry bases.
    """
    from ..frame.frame import FrameColumn, TimeSeriesFrame

    columns = []
    for column_ref in ref.columns:
        base = resolve_array(column_ref.values)
        values = base[ref.start - column_ref.values.start : ref.stop - column_ref.values.start]
        dictionary = (
            None
            if column_ref.dictionary is None
            else resolve_array(column_ref.dictionary)
        )
        column = FrameColumn.__new__(FrameColumn)
        column.name = column_ref.name
        column.values = values
        column.dictionary = dictionary
        column._digest = None
        columns.append(column)
    return TimeSeriesFrame(columns)


def _frame_ref_fingerprint(ref: FrameRef) -> tuple:
    """Per-column content fingerprint of a :class:`FrameRef` window.

    Matches ``TimeSeriesFrame.fingerprint()`` of the resolved frame
    exactly (the cache-key invariant across representations).  A window
    covering the whole base reuses the digests already embedded in the
    column refs — no bytes are touched; only proper row windows hash
    their sliced views.
    """
    entries = []
    for column in ref.columns:
        if ref.start == column.values.start and ref.stop == column.values.stop:
            values_digest = column.values.digest
        else:
            base = resolve_array(column.values)
            values_digest = array_digest(
                base[ref.start - column.values.start : ref.stop - column.values.start]
            )
        digests = (values_digest,)
        if column.dictionary is not None:
            digests += (column.dictionary.digest,)
        entries.append((column.name, column.dtype, column.encoding) + digests)
    return ("frame", len(ref), tuple(entries))


def resolve_payload(data: Any) -> Any:
    """Materialize any task payload: refs resolve, frames and arrays pass.

    The one resolution entry point task runners should use now that
    payloads come in four shapes: plain arrays, :class:`ArrayRef`,
    in-RAM/spilled frames (pass through — spilled frames are already
    lazy) and :class:`FrameRef`.
    """
    if isinstance(data, FrameRef):
        return resolve_frame(data)
    return resolve_array(data)


def hydrate_task(task: Any) -> Any:
    """Return a copy of a dataclass task with every ref field resolved.

    Used by a worker server whose local engine cannot ``fork`` (and so
    cannot hand its blob registry to task processes for free): the refs
    are materialized once in the server process and the task proceeds by
    value from there.  ``FrameRef`` fields hydrate into in-RAM frames
    whose columns are views of the server's bases.  Non-dataclass tasks
    pass through untouched.
    """
    if not dataclasses.is_dataclass(task) or isinstance(task, type):
        return task
    updates = {
        field.name: resolve_payload(value)
        for field in dataclasses.fields(task)
        if isinstance(value := getattr(task, field.name), (ArrayRef, FrameRef))
    }
    return dataclasses.replace(task, **updates) if updates else task


class DataPlane:
    """In-process data plane: plain references (serial/thread backends).

    ``register`` pins a base array in the process-wide registry and returns
    a full-range :class:`ArrayRef`; tasks carry derived sub-refs and
    workers resolve them through :func:`resolve_array`.  The plane also
    memoizes per-slice content fingerprints, so a T-Daub round hashing the
    same slice for N pipelines pays for one hash instead of N.

    Planes are context managers; ``close`` releases every registration
    (refcounted — a digest shared with another live plane survives).
    """

    def __init__(self):
        self._retained: list[str] = []
        self._fingerprints: dict[tuple, tuple] = {}
        self._closed = False

    # -- registration ----------------------------------------------------------
    def register(self, array: np.ndarray) -> ArrayRef | np.ndarray:
        """Pin one base array; returns a ref (or the array when it cannot pin).

        The base is coerced to a C-contiguous float array — exactly the
        form the evaluation cache fingerprints — so resolving a ref yields
        bytes identical to the by-value path.  A plane that cannot pin
        (see :class:`SharedMemoryPlane`) returns the array unchanged and
        the caller transparently stays by-value for that input.
        """
        if self._closed:
            raise RuntimeError("DataPlane is closed")
        base = np.ascontiguousarray(np.asarray(array, dtype=float))
        digest = array_digest(base)
        ref = self._pin(digest, base)
        if ref is None:
            return base
        self._retained.append(digest)
        return ref

    def _pin(self, digest: str, base: np.ndarray) -> ArrayRef | None:
        _retain_base(digest, base)
        return ArrayRef(
            digest=digest,
            start=0,
            stop=len(base),
            shape=tuple(base.shape),
            dtype=base.dtype.str,
            shm_name=None,
        )

    def register_frame(self, frame) -> "FrameRef | Any":
        """Pin a columnar frame per column; returns a :class:`FrameRef`.

        Each column's physical buffer (and dictionary) is pinned through
        the same ``_pin`` seam as monolithic bases, so every subclass
        channel — shared-memory segments, remote blob enrollment — is
        per-column automatically.  Buffers keep their own dtypes: codes
        stay ``uint8``, no float coercion (the logical decode happens at
        gather time).  Spilled frames pass through untouched (they are
        already tiny, lazy and picklable), as does any frame when some
        buffer cannot be pinned — by-value fallback, same contract as
        :meth:`register`.
        """
        if self._closed:
            raise RuntimeError("DataPlane is closed")
        columns = getattr(frame, "columns", None)
        if columns is None:
            # Out-of-core residences have no in-RAM buffers to pin.
            return frame
        pinned: list[str] = []
        column_refs = []
        for column in columns:
            digests = column.digest()
            ref = self._pin(digests[0], column.values)
            if ref is None:
                break
            pinned.append(digests[0])
            dictionary_ref = None
            if column.dictionary is not None:
                dictionary_ref = self._pin(digests[1], column.dictionary)
                if dictionary_ref is None:
                    break
                pinned.append(digests[1])
            column_refs.append(
                FrameColumnRef(
                    name=column.name,
                    dtype=column.dtype.str,
                    encoding=column.encoding,
                    values=ref,
                    dictionary=dictionary_ref,
                )
            )
        else:
            self._retained.extend(pinned)
            return FrameRef(columns=tuple(column_refs), start=0, stop=len(frame))
        # A buffer refused to pin: release what this call retained and
        # fall back to shipping the frame by value.
        for digest in pinned:
            _release_base(digest)
        return frame

    # -- resolution ------------------------------------------------------------
    def resolve(self, data: Any) -> np.ndarray:
        return resolve_payload(data)

    def fingerprint(self, data: Any) -> tuple:
        """Content fingerprint of a payload slice (memoized per ref).

        Plain arrays hash directly; ``ArrayRef`` slices memoize per
        ``(digest, start, stop)``; frames answer their own per-column
        fingerprint; ``FrameRef`` windows memoize here, reusing the
        registered base digests outright when the window covers the full
        base (the common train-on-everything case hashes nothing).
        """
        if isinstance(data, FrameRef):
            cached = self._fingerprints.get(data)
            if cached is None:
                cached = self._fingerprints[data] = _frame_ref_fingerprint(data)
            return cached
        if getattr(data, "is_timeseries_frame", False):
            return data.fingerprint()
        if not isinstance(data, ArrayRef):
            return array_fingerprint(np.asarray(data, dtype=float))
        key = (data.digest, data.start, data.stop)
        cached = self._fingerprints.get(key)
        if cached is None:
            cached = self._fingerprints[key] = array_fingerprint(resolve_array(data))
        return cached

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Release every registration (idempotent)."""
        if self._closed:
            return
        self._closed = True
        retained, self._retained = self._retained, []
        for digest in retained:
            _release_base(digest)
        self._fingerprints.clear()

    def __enter__(self) -> "DataPlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-order dependent safety net
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(registered={len(self._retained)}, "
            f"closed={self._closed})"
        )


class SharedMemoryPlane(DataPlane):
    """Data plane of the process backend: bases pinned in shared memory.

    ``register`` copies the base once into a ``multiprocessing.shared_memory``
    segment; worker processes map the same pages (``fork`` children resolve
    through the inherited registry without even attaching).  Segments are
    refcounted across planes and unlinked when the last plane using a
    digest closes; a crash of the creating process is covered by the
    resource tracker.  When a segment cannot be created (no ``/dev/shm``,
    size limits) the array is returned unchanged — by-value fallback.
    """

    def _pin(self, digest: str, base: np.ndarray) -> ArrayRef | None:
        from multiprocessing import shared_memory

        # Check-then-create must be atomic with the registry, or two planes
        # racing on one digest would each pin a segment and leak one.
        with _REGISTRY_LOCK:
            entry = _LOCAL_BASES.get(digest)
            if entry is not None and entry.shm is not None:
                # Already pinned (by this plane or another live one): share it.
                _retain_base(digest, entry.array)
                base = entry.array
                shm_name = entry.shm.name
            else:
                if base.nbytes == 0:
                    return None
                try:
                    shm = shared_memory.SharedMemory(
                        name=f"{SHM_NAME_PREFIX}{secrets.token_hex(8)}",
                        create=True,
                        size=base.nbytes,
                    )
                except (OSError, ValueError):
                    return None
                pinned = np.ndarray(base.shape, dtype=base.dtype, buffer=shm.buf)
                pinned[...] = base
                _retain_base(digest, pinned, shm=shm)
                base = pinned
                shm_name = shm.name
        return ArrayRef(
            digest=digest,
            start=0,
            stop=len(base),
            shape=tuple(base.shape),
            dtype=base.dtype.str,
            shm_name=shm_name,
        )


def active_segments() -> list[str]:
    """Names of shared-memory segments currently pinned by this process."""
    return [
        entry.shm.name for entry in _LOCAL_BASES.values() if entry.shm is not None
    ]
