"""Unified BLAKE2 content digests shared by every storage consumer.

Three subsystems address content by digest: the evaluation cache names
records after their key, the data plane names base arrays after their
buffer, and blob spill/sync uses the data plane's digests as object
addresses.  Historically each computed its own hash; this module is the
single source of those digests so one array hashed once serves cache
keys, ``ArrayRef`` addresses and blob names alike.

- :func:`key_digest` — record addresses (20-byte BLAKE2 of the cache
  key's canonical ``repr``), unchanged since the first persistent store,
  so existing stores keep hitting.
- :func:`array_digest` — blob/ref addresses (16-byte BLAKE2 of the raw
  array buffer), exactly the data plane's historical scheme.
- :func:`text_digest` — ETags for mutable documents (manifests, work
  queues) in the object-store protocol.

``array_digest`` additionally **memoizes per array object**: registering
a dataset with the data plane, fingerprinting it for the suite spec and
addressing its blob all hash the same buffer, and on long series each
extra pass is a full-content scan.  The memo is keyed by object identity
with a weak reference guarding against id reuse, and only arrays at
least ``_MEMO_MIN_BYTES`` big are remembered (hashing tiny arrays is
cheaper than the bookkeeping).  The memo assumes what every fingerprint
consumer here already assumes: arrays are not mutated in place between
uses within a run.  As a tripwire, an edge sample of the buffer is
re-checked on every hit, so typical in-place mutations (appended
arrivals, rolled windows, rescales) re-hash instead of returning a stale
digest; only a mutation confined strictly to interior bytes escapes.
Call :func:`clear_digest_memo` to drop the memo.

**Append bases.**  Streaming workloads grow one buffer for the life of a
run: an arrival buffer appends rows, every ranking pass hashes dozens of
*prefixes* of the same bytes, and a per-object memo is useless because
each prefix is a fresh transient view.  :func:`register_append_base`
declares a buffer append-only (bytes ``[0, n)`` never change once
written), after which :func:`array_digest` recognizes any zero-offset
contiguous prefix view of it and serves the digest from an incremental
BLAKE2 state: extending a hashed prefix by Δ bytes costs O(Δ), and every
previously requested prefix length is memoized outright.  The digests
are byte-for-byte the ones a full rehash would produce, so cache keys —
and warm persistent stores — are unchanged by the fast path.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from typing import Any, Hashable

import numpy as np

__all__ = [
    "array_digest",
    "key_digest",
    "text_digest",
    "clear_digest_memo",
    "digest_memo_stats",
    "register_append_base",
    "append_base_stats",
]

#: Arrays smaller than this are hashed directly; the memo dict would cost
#: more than the hash.
_MEMO_MIN_BYTES = 4096

#: ``id(array) -> (weakref, nbytes, digest, guard)``.  The weakref both
#: evicts the entry when the array is collected and guards against id reuse
#: (an entry whose referent is not the queried array is stale and ignored);
#: ``guard`` is a cheap edge sample of the buffer re-checked on every hit.
_MEMO: dict[int, tuple[Any, int, str, bytes]] = {}
_MEMO_LOCK = threading.Lock()
_memo_hits = 0
_memo_misses = 0

_GUARD_BYTES = 32


class _AppendEntry:
    """Incremental hash state of one registered append-only base buffer.

    ``states`` maps a byte count to a BLAKE2 object that has consumed
    exactly those leading bytes (hashlib objects stay updatable after
    ``hexdigest``); ``digests`` memoizes finished prefix digests.  A new
    prefix length extends the nearest smaller state over only the gap.
    """

    __slots__ = ("ref", "states", "digests")

    def __init__(self, ref: Any):
        self.ref = ref
        self.states: dict[int, Any] = {}
        self.digests: dict[int, str] = {}


#: ``id(base) -> _AppendEntry``; weakref cleanup mirrors ``_MEMO``.
_APPEND: dict[int, _AppendEntry] = {}
_APPEND_LOCK = threading.Lock()
_append_hits = 0
_append_extended_bytes = 0
_append_full_rehashes = 0


def register_append_base(
    base: np.ndarray,
    carry_from: np.ndarray | None = None,
    carry_bytes: int | None = None,
) -> np.ndarray:
    """Declare ``base`` an append-only buffer with incremental prefix hashing.

    The registering owner promises that bytes ``[0, n)`` are never
    rewritten once a length-``n`` prefix has been exposed for hashing —
    exactly the discipline :class:`repro.stream.ArrivalBuffer` and
    ``TimeSeriesFrame.append_rows`` enforce by handing out read-only
    views.  When the owner reallocates (geometric capacity growth copies
    the prefix into a bigger buffer), pass the old buffer as
    ``carry_from`` with ``carry_bytes`` (the copied byte count): the old
    incremental states transfer instead of rehashing history.  Returns
    ``base`` for chaining.
    """
    base = np.asarray(base)
    if not base.flags.c_contiguous:
        raise ValueError("an append base must be C-contiguous")
    key = id(base)
    try:
        ref = weakref.ref(base, lambda _ref, _key=key: _APPEND.pop(_key, None))
    except TypeError:  # pragma: no cover - ndarray subclasses without weakref
        return base
    entry = _AppendEntry(ref)
    with _APPEND_LOCK:
        if carry_from is not None:
            donor = _APPEND.get(id(carry_from))
            if donor is not None and donor.ref() is carry_from:
                limit = donor.ref().nbytes if carry_bytes is None else int(carry_bytes)
                limit = min(limit, base.nbytes)
                entry.states = {
                    stop: state.copy()
                    for stop, state in donor.states.items()
                    if stop <= limit
                }
                entry.digests = {
                    stop: digest
                    for stop, digest in donor.digests.items()
                    if stop <= limit
                }
        _APPEND[key] = entry
    return base


def _append_entry_for(values: np.ndarray) -> tuple[_AppendEntry, np.ndarray] | None:
    """The registered base ``values`` is a zero-offset prefix view of, if any."""
    candidates = [values]
    base = values.base
    if isinstance(base, np.ndarray):
        candidates.append(base)
    for candidate in candidates:
        entry = _APPEND.get(id(candidate))
        if entry is None or entry.ref() is not candidate:
            continue
        if (
            values.ctypes.data == candidate.ctypes.data
            and values.nbytes <= candidate.nbytes
        ):
            return entry, candidate
        return None
    return None


def _append_prefix_digest(entry: _AppendEntry, base: np.ndarray, nbytes: int) -> str:
    global _append_hits, _append_extended_bytes, _append_full_rehashes
    with _APPEND_LOCK:
        digest = entry.digests.get(nbytes)
        if digest is not None:
            _append_hits += 1
            return digest
        start = 0
        state = None
        for stop in entry.states:
            if start < stop <= nbytes:
                start = stop
        if start:
            state = entry.states[start].copy()
        else:
            state = hashlib.blake2b(digest_size=16)
            _append_full_rehashes += 1
        if nbytes > start:
            state.update(base.data.cast("B")[start:nbytes])
            _append_extended_bytes += nbytes - start
        entry.states[nbytes] = state
        digest = state.hexdigest()
        entry.digests[nbytes] = digest
        return digest


def append_base_stats() -> dict:
    """Counters of the append-base fast path (for benchmarks and tests)."""
    with _APPEND_LOCK:
        return {
            "bases": len(_APPEND),
            "prefix_hits": _append_hits,
            "extended_bytes": _append_extended_bytes,
            "full_rehashes": _append_full_rehashes,
        }


def _hash_buffer(values: np.ndarray) -> str:
    return hashlib.blake2b(values.data, digest_size=16).hexdigest()


def _guard_sample(values: np.ndarray) -> bytes:
    """First and last bytes of the buffer: a cheap in-place-mutation tripwire.

    Most real mutations of a hashed base (appended arrivals, a rolled
    window, a rescale) touch the buffer's edges; sampling them catches
    those without rescanning megabytes.  A mutation confined strictly to
    interior bytes still slips through — the documented residual of the
    no-mutation assumption.
    """
    flat = values.data.cast("B")
    return bytes(flat[:_GUARD_BYTES]) + bytes(flat[-_GUARD_BYTES:])


def array_digest(values: np.ndarray) -> str:
    """BLAKE2 content digest of an array's buffer (memoized per object).

    This is the digest the data plane embeds in :class:`ArrayRef`, the
    blob stores use as object addresses, and the evaluation cache folds
    into its slice fingerprints — one name per byte content everywhere.
    """
    global _memo_hits, _memo_misses
    values = np.asarray(values)
    if not values.flags.c_contiguous:
        # The compaction copy is transient; memoizing it would be useless.
        return _hash_buffer(np.ascontiguousarray(values))
    appendable = _append_entry_for(values)
    if appendable is not None:
        entry, base = appendable
        return _append_prefix_digest(entry, base, values.nbytes)
    if values.nbytes < _MEMO_MIN_BYTES:
        return _hash_buffer(values)
    key = id(values)
    guard = _guard_sample(values)
    with _MEMO_LOCK:
        entry = _MEMO.get(key)
        # The stored byte count must match too: an in-place ``resize``
        # keeps the object (and its id) while growing the buffer, and a
        # zero-padded growth leaves the edge sample unchanged — without
        # the size check such an array would be served its stale,
        # shorter-prefix digest.
        if (
            entry is not None
            and entry[0]() is values
            and entry[1] == values.nbytes
            and entry[3] == guard
        ):
            _memo_hits += 1
            return entry[2]
    digest = _hash_buffer(values)
    try:
        ref = weakref.ref(values, lambda _ref, _key=key: _MEMO.pop(_key, None))
    except TypeError:  # pragma: no cover - ndarray subclasses without weakref
        return digest
    with _MEMO_LOCK:
        _memo_misses += 1
        _MEMO[key] = (ref, values.nbytes, digest, guard)
    return digest


def key_digest(key: Hashable) -> str:
    """Stable content address of one cache key.

    Keys are nested tuples of primitives (strings, numbers, ``None``,
    bytes) whose ``repr`` is deterministic across processes and runs, so a
    digest of the ``repr`` is a valid cross-run address.  (This is exactly
    why callable fingerprints must not include ``id(...)`` — see
    ``repro.exec.cache._value_fingerprint``.)
    """
    return hashlib.blake2b(repr(key).encode("utf-8"), digest_size=20).hexdigest()


def text_digest(payload: bytes | str) -> str:
    """Digest used as the ETag of mutable store documents."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.blake2b(payload, digest_size=20).hexdigest()


def clear_digest_memo() -> None:
    """Drop every memoized array digest and reset the counters.

    Also forgets registered append bases (owners must re-register), so
    tests get a clean slate for both fast paths.
    """
    global _memo_hits, _memo_misses
    global _append_hits, _append_extended_bytes, _append_full_rehashes
    with _MEMO_LOCK:
        _MEMO.clear()
        _memo_hits = 0
        _memo_misses = 0
    with _APPEND_LOCK:
        _APPEND.clear()
        _append_hits = 0
        _append_extended_bytes = 0
        _append_full_rehashes = 0


def digest_memo_stats() -> dict:
    """``{"hits", "misses", "entries", "bytes"}`` of the array-digest memo."""
    with _MEMO_LOCK:
        return {
            "hits": _memo_hits,
            "misses": _memo_misses,
            "entries": len(_MEMO),
            "bytes": sum(entry[1] for entry in _MEMO.values()),
        }
