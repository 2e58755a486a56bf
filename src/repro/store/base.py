"""The pluggable storage interface behind every persistence path.

Before this package, "persistent" meant "a directory on a shared
filesystem": the evaluation cache's disk tier, the data plane's blob
spill and the shared run manifests all hard-coded
:class:`repro.exec.store.DiskStore` plus ``flock``.  :class:`StoreBackend`
turns that assumption into one backend among several.  It covers the
three object families those consumers actually use:

**Records** (``get`` / ``put`` / ``evict``)
    Small immutable JSON documents addressed by a content digest of their
    key — the evaluation cache's persistent tier.  ``put`` is idempotent:
    two writers racing on one digest publish identical content.

**Blobs** (``put_blob`` / ``get_blob`` / ``has_blob``)
    Raw arrays addressed by the digest of their buffer — the data plane's
    spill and sync target.  Content addressing makes ``has_blob`` a safe
    dedup probe: a digest a backend has ever seen never travels again,
    even to a worker restarted on a different host.

**Documents** (``read_doc`` / ``write_doc`` / ``update_doc``)
    Small *mutable* texts addressed by name — run manifests and
    work-queue documents.  :meth:`~StoreBackend.update_doc` is the lease
    primitive that replaces raw ``FileLock``: an atomic read-modify-write whose
    concurrency control is whatever the backend does best (an advisory
    ``flock`` on the local filesystem, a conditional-PUT compare-and-swap
    loop against the object store).  Callers express merges and queue
    pulls as a pure function of the current text and never touch locks
    directly.

Backends must be **picklable** (state only — no sockets or file
descriptors), because benchmark toolkit factories carry them into worker
processes.
"""

from __future__ import annotations

import abc
from typing import Any, Callable

__all__ = ["StoreBackend", "StoreError", "CircuitOpenError"]


class StoreError(OSError):
    """A backend could not complete an operation (unreachable, conflicted).

    Subclasses :class:`OSError` on purpose: every existing consumer of the
    disk store already treats ``OSError`` as "the persistence layer is
    having a bad day, degrade gracefully", and a remote backend's failures
    deserve exactly that handling.
    """


class CircuitOpenError(StoreError):
    """An operation was refused *without being tried*: the circuit is open.

    Raised by backends guarding their transport with a
    :class:`~repro.resilience.CircuitBreaker` once consecutive failures
    trip it: instead of paying the full retry × backoff budget against a
    store known to be down, the call fails in microseconds and degrades
    exactly like any other :class:`StoreError` (record misses, refused
    writes).  Consumers that must *not* proceed without the store (e.g. a
    manifest flush) still see it loudly — it is a ``StoreError``, never a
    silent ``None``.
    """


class StoreBackend(abc.ABC):
    """Abstract storage backend — see the module docstring for the model."""

    # -- records ---------------------------------------------------------------
    @abc.abstractmethod
    def get(self, digest: str) -> Any | None:
        """Return the decoded record for ``digest`` or ``None`` on a miss.

        Corrupt and schema-incompatible records are evicted and reported
        as misses — a poisoned record must never poison the run.
        """

    @abc.abstractmethod
    def put(self, digest: str, value: Any) -> bool:
        """Persist one record; ``False`` when the value cannot be stored."""

    @abc.abstractmethod
    def evict(self, digest: str) -> None:
        """Delete one record (missing records are fine)."""

    # -- blobs -----------------------------------------------------------------
    @abc.abstractmethod
    def put_blob(self, digest: str, array) -> bool:
        """Persist one array blob; ``False`` when the write failed."""

    @abc.abstractmethod
    def get_blob(self, digest: str):
        """Load one array blob (``None`` on a miss; corrupt blobs evicted)."""

    @abc.abstractmethod
    def has_blob(self, digest: str) -> bool:
        """True when the backend holds bytes for ``digest``."""

    # -- documents -------------------------------------------------------------
    @abc.abstractmethod
    def read_doc(self, name: str) -> str | None:
        """Return the current text of one document (``None`` when absent)."""

    @abc.abstractmethod
    def write_doc(self, name: str, text: str) -> None:
        """Atomically publish ``text`` as the document's new content."""

    @abc.abstractmethod
    def update_doc(self, name: str, fn: Callable[[str | None], str]) -> str:
        """Atomic read-modify-write: the lease primitive.

        ``fn`` receives the current text (``None`` when the document does
        not exist) and returns the replacement; the backend guarantees no
        concurrent update is lost between the read and the write.  ``fn``
        may run **more than once** (optimistic backends retry on
        conflict), so it must be a pure function of its input plus
        captured immutable state.  Returns the text that won.  ``fn`` may
        raise to abort — the exception propagates and the document is
        left untouched.
        """

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Release connections/handles (idempotent; default no-op)."""

    def describe(self) -> str:
        """Human-readable location, for logs and error messages."""
        return repr(self)
