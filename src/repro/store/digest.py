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

A prefix view of a growing buffer (a streaming series after an append)
is a new object, so its digest is a full hash of its own bytes: a digest
names content, never the buffer a view came from.
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
    """Drop every memoized array digest and reset the counters."""
    global _memo_hits, _memo_misses
    with _MEMO_LOCK:
        _MEMO.clear()
        _memo_hits = 0
        _memo_misses = 0


def digest_memo_stats() -> dict:
    """``{"hits", "misses", "entries", "bytes"}`` of the array-digest memo."""
    with _MEMO_LOCK:
        return {
            "hits": _memo_hits,
            "misses": _memo_misses,
            "entries": len(_MEMO),
            "bytes": sum(entry[1] for entry in _MEMO.values()),
        }
