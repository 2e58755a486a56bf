"""The pluggable storage interface behind every persistence path.

The evaluation cache's persistent tier, the data plane's blob spill
and the shared run manifests all persist through :class:`StoreBackend`,
whichever backend holds the bytes: a local directory
(:class:`~repro.store.localfs.LocalFSBackend`) or the bundled object
store (:class:`~repro.store.objectstore.ObjectStoreBackend`).  It covers
the three object families those consumers actually use:

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
    primitive: an atomic read-modify-write whose concurrency control is
    whatever the backend does best (an advisory ``flock`` on the local
    filesystem, a conditional-PUT compare-and-swap loop against the
    object store).  Callers express merges and queue pulls as a pure
    function of the current text and never touch locks directly.

Backends must be **picklable** (state only — no sockets or file
descriptors), because benchmark toolkit factories carry them into worker
processes.

Both backends store a record as the same JSON text, produced and
validated by :func:`encode_record` / :func:`decode_record`, so a store
copied from one backend to the other keeps hitting.
"""

from __future__ import annotations

import abc
import dataclasses
import json
from typing import Any, Callable

__all__ = [
    "StoreBackend",
    "StoreError",
    "CircuitOpenError",
    "SCHEMA_VERSION",
    "encode_record",
    "decode_record",
]

#: Version stamp written into every record.  Bump whenever the key
#: construction or the value encoding changes incompatibly: old records are
#: then evicted on first read instead of being misinterpreted.
SCHEMA_VERSION = 1


def _encode_value(value: Any) -> tuple[str, Any] | None:
    """Encode one cached value as a ``(kind, payload)`` JSON pair.

    Returns ``None`` for values the store cannot represent; those stay in
    the memory tier only.
    """
    from ..exec.tasks import FitScoreResult, ToolkitRunResult

    if isinstance(value, FitScoreResult):
        payload = dataclasses.asdict(value)
        # Whether the producer run got the value from its own cache is not a
        # property of the evaluation; records always persist a fresh result.
        payload["from_cache"] = False
        return ("fit_score_result", payload)
    if isinstance(value, ToolkitRunResult):
        return ("toolkit_run_result", dataclasses.asdict(value))
    if isinstance(value, (str, int, float, bool, type(None), list, dict)):
        return ("json", value)
    return None


def _decode_value(kind: str, payload: Any) -> Any:
    """Inverse of :func:`_encode_value`; raises on unknown kinds."""
    from ..exec.tasks import FitScoreResult, ToolkitRunResult

    if kind in ("fit_score_result", "toolkit_run_result"):
        payload = dict(payload)
        # JSON has no tuples; restore the conventional tuple tags (e.g. the
        # benchmark matrix's ``(dataset, toolkit)`` cell addresses).
        if isinstance(payload.get("tag"), list):
            payload["tag"] = tuple(payload["tag"])
        cls = FitScoreResult if kind == "fit_score_result" else ToolkitRunResult
        return cls(**payload)
    if kind == "json":
        return payload
    raise ValueError(f"unknown record kind {kind!r}")


def encode_record(digest: str, value: Any, schema_version: int = SCHEMA_VERSION) -> str | None:
    """Serialize one cached value as the canonical record text.

    Returns ``None`` for values no backend can represent; those stay in
    the memory tier only.
    """
    encoded = _encode_value(value)
    if encoded is None:
        return None
    kind, payload = encoded
    record = {"schema": schema_version, "key": digest, "kind": kind, "payload": payload}
    try:
        return json.dumps(record)
    except (TypeError, ValueError):
        # A representable container holding an unrepresentable leaf
        # (e.g. a FitScoreResult whose tag is an arbitrary object).
        return None


def decode_record(text: str, schema_version: int = SCHEMA_VERSION) -> Any:
    """Inverse of :func:`encode_record`.

    Raises ``ValueError``/``KeyError``/``TypeError`` on corrupt or
    schema-incompatible records — callers evict the record and report a
    miss.
    """
    record = json.loads(text)
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    if record.get("schema") != schema_version:
        raise ValueError(f"schema {record.get('schema')!r}")
    return _decode_value(record["kind"], record["payload"])


class StoreError(OSError):
    """A backend could not complete an operation (unreachable, conflicted).

    Subclasses :class:`OSError` on purpose: every existing consumer of the
    local store already treats ``OSError`` as "the persistence layer is
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
