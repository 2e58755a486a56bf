"""Local-filesystem backend: the one module that knows the on-disk format.

:class:`LocalFSBackend` keeps records and blobs under one root directory:

- **Content addressing** — a record lives at ``<root>/<d[:2]>/<d>.json``
  and a blob at ``<root>/blobs/<d[:2]>/<d>.npy`` for digest ``d`` (the
  two-character shards keep huge stores listable).  The bundled object
  store (:mod:`repro.store.server`) persists through the same
  :meth:`~LocalFSBackend.record_path` / :meth:`~LocalFSBackend.blob_path`,
  so a store directory can be served over HTTP one day and opened as a
  ``LocalFSBackend`` the next.
- **Versioned records** — record text comes from
  :func:`~repro.store.base.encode_record`; reading a record written by an
  incompatible schema evicts it and reports a miss, so stores survive
  library upgrades without manual cleanup.
- **Atomic writes** — every file is written by :func:`atomic_write`: a
  temp file staged in the destination directory, published with
  :func:`os.replace`.  Concurrent writers (benchmark workers sharing one
  store) never expose a torn file to readers.
- **Corrupt-entry recovery** — unreadable, truncated or non-UTF-8 records
  and unreadable blobs are deleted on read and treated as misses rather
  than poisoning the run.

Documents are addressed by *filesystem path* (the historical contract of
run manifests: ``--manifest runs/tiny.json`` is a path, absolute or
CWD-relative).  :meth:`~LocalFSBackend.update_doc` supplies the lease the
shared-manifest protocol needs via a :class:`FileLock` on a ``.lock``
sidecar next to the document — ``flock`` conflicts between processes and
threads alike and is released by the kernel when a holder dies, so a
crashed worker never wedges the fleet.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path
from typing import IO, Any, Callable

import numpy as np

from .base import SCHEMA_VERSION, StoreBackend, decode_record, encode_record

try:  # POSIX advisory locks; Windows falls back to the mkdir spin-lock.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = ["LocalFSBackend", "FileLock", "atomic_write"]


def atomic_write(path: Path, write: Callable[[IO[bytes]], Any]) -> None:
    """Publish a file at ``path`` via write-then-rename.

    ``write`` fills a binary handle on a temp file; concurrent readers see
    either the previous content or the full new content, never a torn
    file.  The temp file is created in the *destination directory*, never
    the system tmpdir: ``os.replace`` is only atomic within one
    filesystem, and staging in ``$TMPDIR`` (frequently a different mount —
    tmpfs, a container scratch volume) would make the final rename fail
    with ``EXDEV``.  Any exception, ``write``'s own included, unlinks the
    temp file before it propagates.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _write_text(path: Path, text: str) -> None:
    atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


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


class LocalFSBackend(StoreBackend):
    """Records and blobs under one directory, documents by path.

    Parameters
    ----------
    root:
        Directory of the record/blob store, created on first write.
        Multiple processes may share one directory — writes are atomic
        and idempotent (two writers racing on one digest publish
        identical content).  ``None`` builds a documents-only backend
        (e.g. for a runner that manages manifests but has no evaluation
        store) — record and blob operations then report misses and refuse
        writes.
    schema_version:
        Overridable for tests only; records carrying a different version
        are evicted on read.
    lock_timeout:
        Seconds :meth:`update_doc` waits for a document's lock before
        failing loudly.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        schema_version: int | None = None,
        lock_timeout: float = 60.0,
    ):
        self.root = None if root is None else Path(root)
        self.schema_version = SCHEMA_VERSION if schema_version is None else int(schema_version)
        self.lock_timeout = float(lock_timeout)

    # -- addressing ------------------------------------------------------------
    def record_path(self, digest: str) -> Path:
        """Record file for one digest (sharded by its first two hex chars)."""
        return self.root / digest[:2] / f"{digest}.json"

    def blob_path(self, digest: str) -> Path:
        """Blob file for one digest (same two-char sharding as records)."""
        return self.root / "blobs" / digest[:2] / f"{digest}.npy"

    # -- records ---------------------------------------------------------------
    def get(self, digest: str) -> Any | None:
        if self.root is None:
            return None
        path = self.record_path(digest)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            # Decoding sits inside the evicting ``try``: non-UTF-8 bytes
            # raise ``UnicodeDecodeError``, a ``ValueError``.
            return decode_record(raw.decode("utf-8"), self.schema_version)
        except (ValueError, KeyError, TypeError):
            _unlink(path)
            return None

    def put(self, digest: str, value: Any) -> bool:
        if self.root is None:
            return False
        text = encode_record(digest, value, self.schema_version)
        if text is None:
            return False
        try:
            _write_text(self.record_path(digest), text)
        except OSError:
            return False
        return True

    def evict(self, digest: str) -> None:
        if self.root is not None:
            _unlink(self.record_path(digest))

    # -- blobs -----------------------------------------------------------------
    # Blobs share the records' content-address scheme but live as raw
    # ``.npy`` files (JSON-encoding megabytes of floats would be absurd).
    def put_blob(self, digest: str, array) -> bool:
        if self.root is None:
            return False
        try:
            atomic_write(
                self.blob_path(digest),
                lambda handle: np.save(handle, np.asarray(array), allow_pickle=False),
            )
        except (OSError, ValueError):
            # ``ValueError``: an object array ``np.save`` refuses to pickle.
            return False
        return True

    def get_blob(self, digest: str):
        if self.root is None:
            return None
        path = self.blob_path(digest)
        try:
            return np.load(path, allow_pickle=False)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            _unlink(path)
            return None

    def has_blob(self, digest: str) -> bool:
        return self.root is not None and self.blob_path(digest).is_file()

    # -- documents -------------------------------------------------------------
    # Documents keep their historical path semantics on purpose: manifests
    # written before this backend existed stay readable at the very names
    # their runs recorded.
    def read_doc(self, name: str) -> str | None:
        try:
            return Path(name).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def write_doc(self, name: str, text: str) -> None:
        _write_text(Path(name), text)

    def update_doc(self, name: str, fn: Callable[[str | None], str]) -> str:
        path = Path(name)
        with FileLock(path.with_name(path.name + ".lock"), timeout=self.lock_timeout):
            try:
                current = path.read_text(encoding="utf-8")
            except FileNotFoundError:
                current = None
            text = fn(current)
            _write_text(path, text)
        return text

    # -- lifecycle -------------------------------------------------------------
    def __len__(self) -> int:
        if self.root is None or not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def describe(self) -> str:
        return "local documents" if self.root is None else str(self.root)

    def __repr__(self) -> str:
        root = None if self.root is None else str(self.root)
        return f"LocalFSBackend(root={root!r})"
