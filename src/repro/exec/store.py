"""Disk tier of the evaluation cache: content-addressed persistent records.

:class:`EvaluationCache` keeps its hot entries in memory, but a memory-only
cache dies with the process — every benchmark invocation re-pays the full
cost of evaluations an earlier run already computed.  Because each
evaluation is a pure function of ``(pipeline parameters, data slice,
horizon)``, its result can be persisted once and reused by any later
process that lands on the same structural fingerprint.

:class:`DiskStore` implements that persistent tier:

- **Content addressing** — entries are named by a BLAKE2 digest of the
  canonical serialization of the cache key (the nested tuples produced by
  :func:`repro.exec.cache.EvaluationCache.make_key`), sharded into
  two-character subdirectories so huge stores stay listable.
- **Versioned schema** — every record carries ``schema``; reading a record
  written by an incompatible version evicts it and reports a miss, so
  stores survive library upgrades without manual cleanup.
- **Atomic writes** — records are written to a temporary file in the same
  directory and published with :func:`os.replace`, so concurrent writers
  (benchmark shards pointing at one shared ``cache_dir``) never expose a
  torn record to readers.
- **Corrupt-entry recovery** — unreadable or truncated records (killed
  writer on a filesystem without atomic rename, disk corruption) are
  deleted on read and treated as misses rather than poisoning the run.

Records are JSON documents; array-valued payloads are inlined as nested
lists (the stored values are small score/timing records — large ``npz``
blobs would hang off ``payload["npz"]`` by relative path if ever needed).
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any

from ..store.digest import key_digest

try:  # POSIX advisory locks; Windows falls back to the mkdir spin-lock.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "DiskStore",
    "FileLock",
    "key_digest",
    "atomic_write_text",
    "encode_record",
    "decode_record",
    "SCHEMA_VERSION",
]

#: Version stamp written into every record.  Bump whenever the key
#: construction or the value encoding changes incompatibly: old records are
#: then evicted on first read instead of being misinterpreted.
SCHEMA_VERSION = 1


def _stage_temp(path: Path, suffix: str) -> tuple[int, str]:
    """Open a staging temp file for an atomic write-then-rename at ``path``.

    The temp file is created in the *destination directory*, never the
    system tmpdir: ``os.replace`` is only atomic within one filesystem,
    and staging in ``$TMPDIR`` (frequently a different mount — tmpfs, a
    container scratch volume) would make the final rename fail with
    ``EXDEV`` — or worse, tempt a non-atomic copy fallback that exposes
    torn records to concurrent readers.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    return tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=suffix)


def atomic_write_text(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` via write-then-rename.

    Concurrent readers either see the previous content or the full new
    content, never a torn record; shared by the evaluation store and the
    benchmark run manifests.
    """
    fd, temp_name = _stage_temp(path, path.suffix)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_name, path)
    except OSError:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class FileLock:
    """Advisory inter-process lock guarding a shared file's read-modify-write.

    Atomic write-then-rename keeps individual writes safe, but a *merge*
    (read the current content, fold in new cells, write the union) needs
    mutual exclusion or two concurrent writers lose each other's updates.
    Benchmark workers sharing one run manifest or work queue serialize
    their merges through this lock.

    On POSIX the lock is ``flock`` on a sidecar file, which conflicts
    between file descriptors (so two threads of one process exclude each
    other too) and is released by the kernel when the holder dies — a
    crashed worker never wedges the others.  Where ``fcntl`` is missing the
    lock falls back to an atomic ``mkdir`` spin-lock.

    Acquisition polls with a timeout instead of blocking forever so a
    stuck peer surfaces as a loud ``TimeoutError`` rather than a hang.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        timeout: float = 30.0,
        poll_interval: float = 0.02,
    ):
        self.path = Path(path)
        self.timeout = float(timeout)
        self.poll_interval = float(poll_interval)
        self._fd: int | None = None
        self._held_dir = False

    def acquire(self) -> None:
        if self._fd is not None or self._held_dir:
            raise RuntimeError(f"lock {self.path} is already held (not reentrant)")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout
        while True:
            if self._try_acquire():
                return
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"could not acquire {self.path} within {self.timeout:g}s; "
                    "another worker holds it (or, with the mkdir fallback, "
                    "died holding it — delete the lock directory to recover)"
                )
            time.sleep(self.poll_interval)

    def _try_acquire(self) -> bool:
        if fcntl is not None:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                return False
            self._fd = fd
            return True
        try:  # pragma: no cover - non-POSIX platforms
            os.mkdir(f"{self.path}.d")
        except FileExistsError:  # pragma: no cover
            return False
        self._held_dir = True  # pragma: no cover
        return True  # pragma: no cover

    def release(self) -> None:
        if self._fd is not None:
            fd, self._fd = self._fd, None
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        elif self._held_dir:  # pragma: no cover - non-POSIX platforms
            self._held_dir = False
            try:
                os.rmdir(f"{self.path}.d")
            except OSError:
                pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        held = self._fd is not None or self._held_dir
        return f"FileLock(path={str(self.path)!r}, held={held})"


def _encode_value(value: Any) -> tuple[str, Any] | None:
    """Encode one cached value as a ``(kind, payload)`` JSON pair.

    Returns ``None`` for values the store cannot represent; those stay in
    the memory tier only.
    """
    from .tasks import FitScoreResult, ToolkitRunResult

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
    from .tasks import FitScoreResult, ToolkitRunResult

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

    Shared by every record backend (the local disk store and the HTTP
    object store write byte-identical documents, so a store migrated
    between them keeps hitting).  Returns ``None`` for values no backend
    can represent; those stay in the memory tier only.
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


class DiskStore:
    """Content-addressed, crash-safe record store under one directory.

    Parameters
    ----------
    cache_dir:
        Root directory of the store; created on first write.  Multiple
        processes may share one directory — writes are atomic and
        idempotent (two writers racing on one key publish identical
        content).
    schema_version:
        Overridable for tests only; records carrying a different version
        are evicted on read.
    """

    def __init__(self, cache_dir: str | os.PathLike, schema_version: int = SCHEMA_VERSION):
        self.cache_dir = Path(cache_dir)
        self.schema_version = int(schema_version)

    # -- addressing ------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        """Record path for one digest (sharded by the first two hex chars)."""
        return self.cache_dir / digest[:2] / f"{digest}.json"

    # -- record operations -----------------------------------------------------
    def get(self, digest: str) -> Any | None:
        """Return the stored value for ``digest`` or ``None`` on a miss.

        Corrupt and schema-incompatible records are deleted and reported
        as misses.
        """
        path = self.path_for(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except (FileNotFoundError, NotADirectoryError):
            return None
        except OSError:
            return None
        try:
            return decode_record(text, self.schema_version)
        except (ValueError, KeyError, TypeError):
            self._evict(path)
            return None

    def put(self, digest: str, value: Any) -> bool:
        """Persist one value; returns False when it cannot be represented."""
        text = encode_record(digest, value, self.schema_version)
        if text is None:
            return False
        try:
            atomic_write_text(self.path_for(digest), text)
        except OSError:
            return False
        return True

    def evict(self, digest: str) -> None:
        """Delete one record (a missing record is not an error)."""
        self._evict(self.path_for(digest))

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- blobs -----------------------------------------------------------------
    # Array blobs share the store's content-address scheme but live as raw
    # ``.npy`` files (JSON-encoding megabytes of floats would be absurd).
    # The remote data plane spills received base arrays here so a restarted
    # worker server still answers ``blob_has`` without a re-send.
    def blob_path(self, digest: str) -> Path:
        """Blob location for one digest (same two-char sharding as records)."""
        return self.cache_dir / "blobs" / digest[:2] / f"{digest}.npy"

    def put_blob(self, digest: str, array) -> bool:
        """Persist one array blob atomically; False when the write failed."""
        import numpy as np

        path = self.blob_path(digest)
        try:
            # Staged next to the destination (see _stage_temp): a blob can
            # be hundreds of megabytes, and publishing it across mount
            # boundaries from the system tmpdir would fail with EXDEV.
            fd, temp_name = _stage_temp(path, ".npy")
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.save(handle, np.asarray(array), allow_pickle=False)
                os.replace(temp_name, path)
            except OSError:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        except (OSError, ValueError):
            return False
        return True

    def get_blob(self, digest: str):
        """Load one array blob, evicting unreadable files (``None`` on miss)."""
        import numpy as np

        path = self.blob_path(digest)
        try:
            return np.load(path, allow_pickle=False)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._evict(path)
            return None

    def has_blob(self, digest: str) -> bool:
        return self.blob_path(digest).is_file()

    # -- maintenance -----------------------------------------------------------
    def __len__(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))

    def clear(self) -> None:
        """Delete every record (the directory itself is kept)."""
        if not self.cache_dir.is_dir():
            return
        for path in self.cache_dir.glob("*/*.json"):
            self._evict(path)

    def __repr__(self) -> str:
        return f"DiskStore(cache_dir={str(self.cache_dir)!r}, schema_version={self.schema_version})"
