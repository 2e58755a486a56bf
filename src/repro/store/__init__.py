"""Pluggable storage backends behind every persistence path.

One interface — :class:`StoreBackend` — behind the evaluation cache's
persistent tier, the data plane's blob spill/sync and the shared run
manifests, with two implementations:

- :class:`LocalFSBackend` — records and blobs under one directory plus
  ``flock``-guarded documents by path; :mod:`repro.store.localfs` is the
  one module that knows this on-disk format.
- :class:`ObjectStoreBackend` — an S3-style HTTP client for the bundled
  ``python -m repro.store.server``, so shards with **no shared
  filesystem** (cloud workers, separate hosts) still share one store.
  Documents get lock-free compare-and-swap via ETag-conditional PUT.

:func:`open_store` maps user-facing configuration (a URL or a directory
path) to the right backend; :mod:`repro.store.digest` is the single home
of the BLAKE2 content digests every consumer shares.
"""

from __future__ import annotations

import os

from .base import CircuitOpenError, StoreBackend, StoreError
from .digest import array_digest, key_digest, text_digest
from .localfs import LocalFSBackend
from .objectstore import ObjectStoreBackend, StoreTransportStats

__all__ = [
    "StoreBackend",
    "StoreError",
    "CircuitOpenError",
    "LocalFSBackend",
    "ObjectStoreBackend",
    "StoreTransportStats",
    "open_store",
    "array_digest",
    "key_digest",
    "text_digest",
]


def open_store(target: "str | os.PathLike | StoreBackend | None") -> StoreBackend | None:
    """Resolve user-facing storage configuration to a backend.

    ``http(s)://`` URLs open an :class:`ObjectStoreBackend`; anything
    else is a filesystem path for a :class:`LocalFSBackend`; a ready
    backend instance passes through; ``None`` stays ``None``.
    """
    if target is None or isinstance(target, StoreBackend):
        return target
    text = os.fspath(target)
    if text.startswith(("http://", "https://")):
        return ObjectStoreBackend(text)
    return LocalFSBackend(text)
