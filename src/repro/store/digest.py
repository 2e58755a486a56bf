"""Unified BLAKE2 content digests shared by every storage consumer.

Three subsystems address content by digest: the evaluation cache names
records after their key, the data plane names base arrays after their
buffer, and blob spill/sync uses the data plane's digests as object
addresses.  This module is the single source of those digests, so the
same bytes get one name everywhere.

- :func:`key_digest` — record addresses (20-byte BLAKE2 of the cache
  key's canonical ``repr``), unchanged since the first persistent store,
  so existing stores keep hitting.
- :func:`array_digest` — blob/ref addresses (16-byte BLAKE2 of the raw
  array buffer), exactly the data plane's historical scheme.
- :func:`text_digest` — ETags for mutable documents (manifests, work
  queues) in the object-store protocol.

The module keeps no state.  ``array_digest`` hashes the bytes on every
call, so a digest names what an array holds now, never what the same
object held when it was last hashed.  A caller that keys one slice many
times fingerprints it once and reuses the fingerprint, as T-Daub does
for each slice of a fit.
"""

from __future__ import annotations

import hashlib
from typing import Hashable

import numpy as np

__all__ = ["array_digest", "key_digest", "text_digest"]


def _hash_buffer(values: np.ndarray) -> str:
    return hashlib.blake2b(values.data, digest_size=16).hexdigest()


def array_digest(values: np.ndarray) -> str:
    """BLAKE2 content digest of an array's bytes in C order.

    This is the digest the data plane embeds in :class:`ArrayRef`, the
    blob stores use as object addresses, and the evaluation cache folds
    into its array fingerprints — one name per byte content everywhere.
    A contiguous array is hashed through its buffer; only a
    non-contiguous view pays one compaction copy.
    """
    return _hash_buffer(np.ascontiguousarray(values))


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
