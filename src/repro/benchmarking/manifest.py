"""Run manifests: crash-safe records of completed benchmark-matrix cells.

A benchmark run over a large suite can take hours; losing the whole matrix
to one interruption (preempted node, ctrl-C, crashed toolkit taking the
process down) forces a full re-pay on the next invocation.  The manifest
makes runs **resumable**: :class:`~repro.benchmarking.runner.BenchmarkRunner`
records every finished ``(dataset, toolkit)`` cell into a JSON manifest as
the matrix progresses, and a re-invocation with the *same suite* skips the
finished cells and merges their recorded results.

"Same suite" is established by a **suite fingerprint** — a digest of the
runner's split parameters plus the content fingerprints of every data set
and the names of every toolkit.  A manifest whose fingerprint does not
match the current invocation is stale (different data, horizon or toolkit
set) and must not be merged, or resumed summaries could mix results from
two different experiments.  A mismatch is never silent: the manifest also
stores the human-readable suite *spec*, so the loader can name exactly
which knobs diverged, warn loudly, and — in strict mode — refuse to
continue instead of quietly re-paying the whole run.

Manifests are written canonically (cells sorted by ``(dataset, toolkit)``,
atomic write-then-rename), so two runs of the same suite — by one worker or
several, interrupted or not — converge on byte-identical manifest files.

Manifests are **documents** of a pluggable
:class:`~repro.store.StoreBackend`: by default they are plain files (the
historical contract — ``--manifest runs/tiny.json`` is a path), but a
runner handed an :class:`~repro.store.ObjectStoreBackend` keeps them in
the shared object store instead, so workers on different hosts need no
shared filesystem at all.

:class:`SharedManifest` extends the ledger to **concurrent workers**
writing into one manifest document with *merge-on-flush*: a flush re-reads
the stored manifest and publishes the union of its cells and ours in one
atomic read-modify-write (:meth:`~repro.store.StoreBackend.update_doc` — an
advisory ``flock`` lease on the local filesystem, an ETag-conditional-PUT
compare-and-swap loop against the object store), so late flushes never
clobber another worker's cells.  Which worker runs which cell is decided
by the work-stealing :class:`~repro.benchmarking.sharding.CellQueue`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from ..exec.cache import array_fingerprint
from ..store import LocalFSBackend, StoreBackend
from .results import ToolkitRun

__all__ = [
    "RunManifest",
    "SharedManifest",
    "ManifestMismatchError",
    "ManifestMismatchWarning",
    "suite_spec",
    "suite_fingerprint",
    "MANIFEST_SCHEMA_VERSION",
]

#: Bump when the manifest layout or the cell record fields change
#: incompatibly; old manifests are then discarded instead of misread.
MANIFEST_SCHEMA_VERSION = 2


class ManifestMismatchError(RuntimeError):
    """Strict resume was requested but the manifest cannot be resumed."""


class ManifestMismatchWarning(UserWarning):
    """An existing manifest was discarded instead of resumed."""


def suite_spec(
    datasets: Mapping[str, np.ndarray],
    toolkits: Mapping[str, Any] | Iterable[str],
    horizon: int,
    train_fraction: float,
    evaluation_window: int | None,
    max_train_seconds: float | None = None,
) -> dict:
    """JSON-able description of one benchmark suite.

    Covers everything that determines a cell's result: the split knobs, the
    per-run training budget (a raised budget must re-measure cells the old
    budget preempted), the data itself (content digests, so a regenerated
    but identical suite still matches) and the toolkit names.  Toolkit
    *implementations* are not fingerprinted — rerunning a suite after a
    code change reuses recorded cells, exactly like the evaluation store
    reuses pipeline fits; delete the manifest to force a re-measure.

    The spec is stored inside the manifest so a later invocation that does
    not match can report *which* knob diverged, not just that one did.
    """
    dataset_digests = {}
    for name in sorted(datasets):
        value = datasets[name]
        if getattr(value, "is_timeseries_frame", False):
            # Columnar frames fingerprint per column — and identically
            # whether resident or spilled, so an out-of-core run and its
            # in-memory twin produce byte-identical suite specs (and
            # therefore mergeable, byte-identical manifests).
            digest = hashlib.blake2b(
                repr(value.fingerprint()).encode("utf-8"), digest_size=16
            ).hexdigest()
            rows, columns = value.shape
            dataset_digests[name] = f"frame:{digest}:{rows}x{columns}"
            continue
        kind, shape, dtype, digest = array_fingerprint(
            np.asarray(value, dtype=float)
        )
        dataset_digests[name] = f"{digest}:{dtype}:{'x'.join(map(str, shape))}"
    return {
        "horizon": int(horizon),
        "train_fraction": float(train_fraction),
        "evaluation_window": None if evaluation_window is None else int(evaluation_window),
        "max_train_seconds": None if max_train_seconds is None else float(max_train_seconds),
        "datasets": dataset_digests,
        "toolkits": sorted(toolkits),
    }


def fingerprint_of_spec(spec: Mapping[str, Any]) -> str:
    """Digest of a canonical serialization of one suite spec."""
    canonical = json.dumps(
        {"schema": MANIFEST_SCHEMA_VERSION, **spec}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=20).hexdigest()


def suite_fingerprint(
    datasets: Mapping[str, np.ndarray],
    toolkits: Mapping[str, Any] | Iterable[str],
    horizon: int,
    train_fraction: float,
    evaluation_window: int | None,
    max_train_seconds: float | None = None,
) -> str:
    """Content fingerprint of one benchmark suite (see :func:`suite_spec`)."""
    return fingerprint_of_spec(
        suite_spec(
            datasets,
            toolkits,
            horizon,
            train_fraction,
            evaluation_window,
            max_train_seconds,
        )
    )


def _describe_spec_mismatch(ours: Mapping[str, Any] | None, theirs: Any) -> str:
    """Name the knobs on which two suite specs diverge."""
    if not isinstance(theirs, Mapping) or ours is None:
        return "the stored manifest does not carry a comparable suite spec"
    differences = []
    for knob in ("horizon", "train_fraction", "evaluation_window", "max_train_seconds"):
        if ours.get(knob) != theirs.get(knob):
            differences.append(
                f"{knob}: manifest={theirs.get(knob)!r} current={ours.get(knob)!r}"
            )
    ours_data = ours.get("datasets", {}) or {}
    theirs_data = theirs.get("datasets", {}) or {}
    if ours_data != theirs_data:
        added = sorted(set(ours_data) - set(theirs_data))
        removed = sorted(set(theirs_data) - set(ours_data))
        changed = sorted(
            name
            for name in set(ours_data) & set(theirs_data)
            if ours_data[name] != theirs_data[name]
        )
        parts = []
        if added:
            parts.append(f"added {added}")
        if removed:
            parts.append(f"removed {removed}")
        if changed:
            parts.append(f"content changed for {changed}")
        differences.append("datasets: " + "; ".join(parts))
    if list(ours.get("toolkits", [])) != list(theirs.get("toolkits", [])):
        differences.append(
            f"toolkits: manifest={theirs.get('toolkits')!r} current={ours.get('toolkits')!r}"
        )
    if not differences:
        return "suite specs differ in a way the comparison could not localize"
    return "; ".join(differences)


class RunManifest:
    """Completed-cell ledger of one benchmark run, persisted as JSON.

    Parameters
    ----------
    path:
        Manifest file location.
    fingerprint:
        Suite fingerprint of the current invocation; loaded cells are only
        trusted when the stored fingerprint matches.
    spec:
        The JSON-able suite spec behind the fingerprint (see
        :func:`suite_spec`).  Stored in the manifest so a mismatching later
        invocation can name the knobs that diverged.
    backend:
        Storage backend holding the manifest document.  ``None`` (default)
        keeps the historical behavior: ``path`` is a filesystem location,
        written atomically.  An :class:`~repro.store.ObjectStoreBackend`
        stores the document under the same name in the shared store.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        fingerprint: str,
        spec: Mapping[str, Any] | None = None,
        backend: StoreBackend | None = None,
    ):
        self.path = Path(path)
        self.backend = backend if backend is not None else LocalFSBackend()
        self.fingerprint = fingerprint
        self.spec = dict(spec) if spec is not None else None
        self._cells: dict[tuple[str, str], ToolkitRun] = {}
        self.resumed = False

    @property
    def doc_name(self) -> str:
        """Backend document name of the manifest (its path, verbatim)."""
        return str(self.path)

    # -- loading ---------------------------------------------------------------
    def load(self, strict: bool = False) -> bool:
        """Merge cells recorded by a previous run of the same suite.

        Returns True when an existing, fingerprint-matching manifest was
        merged.  A corrupt, schema-incompatible or fingerprint-mismatching
        manifest is *not* merged — and never silently: a loud
        :class:`ManifestMismatchWarning` names the mismatched knobs (the
        whole suite would otherwise be quietly re-paid in full).  With
        ``strict=True`` the warning becomes a :class:`ManifestMismatchError`
        so CI resume jobs fail fast instead of re-running for hours.
        """
        problem = None
        cells: Any = []
        try:
            text = self.backend.read_doc(self.doc_name)
        except (OSError, ValueError) as exc:
            text = None
            problem = f"manifest is unreadable ({exc})"
        if text is None and problem is None:
            if strict:
                raise ManifestMismatchError(
                    f"strict resume: no manifest exists at {self.path} "
                    f"({self.backend.describe()})"
                )
            return False
        if problem is None:
            try:
                record = json.loads(text)
                if not isinstance(record, dict):
                    raise ValueError("manifest is not an object")
                if record.get("schema") != MANIFEST_SCHEMA_VERSION:
                    problem = (
                        f"manifest schema {record.get('schema')!r} does not match the "
                        f"current schema {MANIFEST_SCHEMA_VERSION}"
                    )
                elif record.get("fingerprint") != self.fingerprint:
                    problem = (
                        "suite fingerprint mismatch — "
                        + _describe_spec_mismatch(self.spec, record.get("suite"))
                    )
                else:
                    cells = record.get("cells", [])
            except (ValueError, TypeError) as exc:
                problem = f"manifest is unreadable ({exc})"
        if problem is not None:
            message = (
                f"Not resuming from {self.path}: {problem}. Every cell of this "
                "suite will be recomputed (the stale manifest is overwritten on "
                "the next checkpoint)."
            )
            if strict:
                raise ManifestMismatchError(message)
            warnings.warn(message, ManifestMismatchWarning, stacklevel=2)
            return False
        self._merge_payloads(cells, from_cache=True)
        self.resumed = bool(self._cells)
        return self.resumed

    def _merge_payloads(self, cells: Any, from_cache: bool) -> None:
        for payload in cells:
            try:
                run = ToolkitRun(**payload)
            except TypeError:
                continue
            run.from_cache = from_cache
            self._cells.setdefault((run.dataset, run.toolkit), run)

    # -- cell access -----------------------------------------------------------
    def get(self, dataset: str, toolkit: str) -> ToolkitRun | None:
        return self._cells.get((dataset, toolkit))

    def record(self, run: ToolkitRun) -> None:
        """Remember one finished cell (call :meth:`flush` to persist)."""
        self._cells[(run.dataset, run.toolkit)] = run

    def __len__(self) -> int:
        return len(self._cells)

    # -- persistence -----------------------------------------------------------
    def _record_document(self) -> dict:
        """The canonical JSON document: cells sorted, provenance stripped."""
        cells = []
        for key in sorted(self._cells):
            payload = dataclasses.asdict(self._cells[key])
            # Cache provenance is per-invocation state, not a suite fact.
            payload["from_cache"] = False
            cells.append(payload)
        record = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "cells": cells,
        }
        if self.spec is not None:
            record["suite"] = self.spec
        return record

    def flush(self) -> None:
        """Atomically publish the manifest with every cell recorded so far."""
        self.backend.write_doc(self.doc_name, json.dumps(self._record_document(), indent=1))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(path={str(self.path)!r}, "
            f"cells={len(self._cells)}, resumed={self.resumed})"
        )


class SharedManifest(RunManifest):
    """A run manifest safely shared by concurrent work-stealing workers.

    Adds merge-on-flush on top of :class:`RunManifest` (see the module
    docstring).  It runs through
    :meth:`~repro.store.StoreBackend.update_doc`, so mutual exclusion is
    the backend's best mechanism — ``flock`` on a local filesystem,
    conditional PUT against an object store — and this class never
    touches a lock directly.
    """

    def _merge_stored_cells(self, text: str | None) -> None:
        """Fold cells another worker flushed meanwhile into our ledger.

        Our own cells win: the queue leases each cell to one worker at a
        time, so a conflict can only be a cell we recomputed after
        reclaiming a stale lease — the freshest measurement is ours.
        """
        if text is None:
            return
        try:
            record = json.loads(text)
        except (ValueError, TypeError):
            return
        if (
            isinstance(record, dict)
            and record.get("schema") == MANIFEST_SCHEMA_VERSION
            and record.get("fingerprint") == self.fingerprint
        ):
            self._merge_payloads(record.get("cells", []), from_cache=True)

    def flush(self) -> None:
        """Merge-then-publish in one atomic update (never clobbers peers)."""

        def transact(text: str | None) -> str:
            self._merge_stored_cells(text)
            return json.dumps(self._record_document(), indent=1)

        self.backend.update_doc(self.doc_name, transact)
