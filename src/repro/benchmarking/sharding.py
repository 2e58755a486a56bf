"""Work-stealing cell queue: several workers share one benchmark matrix.

The paper's evaluation is a (dataset, toolkit) matrix — 62 univariate plus
multivariate data sets by 10 toolkits — whose cells are all independent,
so the natural scale-out unit is a *cell*.  :class:`CellQueue` is the one
way several workers share a matrix: every worker pulls its next cell from
a shared queue document next to the run manifest (``python -m
repro.benchmarking --steal --manifest shared.json``), so workers need no
rendezvous service and no dealt slice, and may join or leave mid-run.  The
results half — merging every worker's cells into one manifest — lives in
:class:`~repro.benchmarking.manifest.SharedManifest`.

Convergence mirrors the multiple-admissible-schedules framing of
determination provenance: whichever worker computes a cell, the shared
manifest merges to the same canonical byte content, and the queue's entries
and event log record which worker actually ran it.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .. import faults
from ..store import LocalFSBackend, StoreBackend

__all__ = [
    "CellQueue",
    "entry_key",
    "QUEUE_SCHEMA_VERSION",
]

#: Bump when the queue document layout changes incompatibly; a stale-schema
#: queue doc is discarded (re-seeded) instead of misread.
QUEUE_SCHEMA_VERSION = 1


class _AbortUpdate(Exception):
    """Raised inside an ``update_doc`` function to leave the doc untouched."""


def entry_key(entry: Mapping[str, Any]) -> tuple:
    """Identity of one queue entry: ``(dataset, toolkit, part|None)``.

    The ``seq`` number is display order, not identity — two workers seeding
    concurrently must agree on which entries are the same work.
    """
    part = entry.get("part")
    return (
        str(entry["dataset"]),
        str(entry["toolkit"]),
        None if part is None else tuple(int(p) for p in part),
    )


class _QueueBeacon:
    """Picklable liveness callback bound to one leased queue entry.

    Threaded into cell execution (``ToolkitRunTask.heartbeat``) and handed
    to T-Daub as ``progress_callback``: every invocation refreshes the
    entry's heartbeat in the shared queue document so a legitimately slow
    cell does not look dead and invite a spurious steal, and a T-Daub
    ``projected_total_seconds`` refines the entry's cost online.  Fires at
    most once per ``interval`` seconds and swallows every store error —
    liveness reporting must never take down the cell it reports on.
    """

    def __init__(
        self,
        backend: StoreBackend,
        doc: str,
        token: str,
        key: tuple,
        interval: float = 1.0,
    ):
        self.backend = backend
        self.doc = doc
        self.token = token
        self.key = key
        self.interval = float(interval)
        self._last = 0.0

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_last"] = 0.0  # throttle clock is per-process
        return state

    def __call__(self, info: Mapping[str, Any] | None = None) -> None:
        now = time.monotonic()
        if now - self._last < self.interval:
            return
        self._last = now
        projected = None
        if info is not None:
            try:
                value = float(info.get("projected_total_seconds"))
                if math.isfinite(value) and value > 0.0:
                    projected = value
            except (TypeError, ValueError):
                pass

        def transact(text: str | None) -> str:
            record = _parse_queue(text)
            if record is None:
                raise _AbortUpdate
            touched = False
            for entry in record["entries"]:
                if entry.get("token") == self.token and entry_key(entry) == self.key:
                    entry["heartbeat"] = time.time()
                    if projected is not None:
                        entry["cost"] = projected
                    touched = True
            if not touched:
                raise _AbortUpdate
            return json.dumps(record, indent=1)

        try:
            self.backend.update_doc(self.doc, transact)
        except _AbortUpdate:
            pass
        except Exception:  # noqa: BLE001 — liveness is strictly best-effort
            pass


def _parse_queue(text: str | None) -> dict | None:
    """Parse a queue document; ``None`` when absent/corrupt/incompatible."""
    if text is None:
        return None
    try:
        record = json.loads(text)
    except (ValueError, TypeError):
        return None
    if (
        isinstance(record, dict)
        and record.get("schema") == QUEUE_SCHEMA_VERSION
        and isinstance(record.get("entries"), list)
    ):
        record.setdefault("rates", {})
        record.setdefault("workers", {})
        record.setdefault("events", [])
        return record
    return None


class CellQueue:
    """A work-stealing cell queue shared by elastic benchmark workers.

    Every worker *pulls* its next cell from one shared queue document, so
    membership is elastic — a worker joins mid-run by pulling, leaves by
    dying (its leases age out and are re-pulled by peers).  All mutations
    run through the backend's atomic read-modify-write
    (:meth:`~repro.store.StoreBackend.update_doc`), like the
    :class:`~repro.benchmarking.manifest.SharedManifest` merge-on-flush, so
    two workers racing one pull can never both be granted the same entry.

    Entries are ordered longest-projected-cost-first (LPT) and come in
    three kinds, planned by
    :meth:`~repro.benchmarking.costmodel.CellCostModel.plan_entries`:

    - ``cell`` — one whole (dataset, toolkit) cell;
    - ``part`` — one disjoint share of a split long-pole cell (parts warm
      a shared evaluation store and are never recorded in the manifest);
    - ``merge`` — the full canonical execution of a split cell, runnable
      only once every sibling part is done or abandoned.

    Stealing has two modes, both recorded as provenance events: a worker
    that drains the pending queue *reclaims* a running entry whose
    heartbeat shows no progress for ``reclaim_stale`` seconds
    (``mode="reclaim"`` — the dead-peer path), and a worker that pulls a
    pending part of a cell a peer is already executing shares that cell's
    remaining waves (``mode="split"``).

    Each queue object carries a secret token: worker names are display
    labels, the token is the credential that makes a retried CAS grant
    idempotent (a conditional PUT applied but unacknowledged re-runs the
    grant against a document that already holds our leases).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        fingerprint: str,
        backend: StoreBackend | None = None,
        worker: str = "",
        reclaim_stale: float | None = None,
        lock_timeout: float = 60.0,
        max_attempts: int = 3,
    ):
        self.path = Path(path)
        self.backend = (
            backend if backend is not None else LocalFSBackend(lock_timeout=lock_timeout)
        )
        self.fingerprint = fingerprint
        self.worker = worker or f"worker-{os.getpid()}"
        self.reclaim_stale = None if reclaim_stale is None else float(reclaim_stale)
        self.max_attempts = int(max_attempts)
        self._token = secrets.token_hex(16)
        # Entries this object currently holds a lease on (granted by pull,
        # dropped by complete/requeue).  Distinguishes a lost-CAS-reply
        # re-grant (ours in the doc, absent here) from work already
        # executing locally.
        self._active: set[tuple] = set()

    @staticmethod
    def doc_for_manifest(manifest_path: str | os.PathLike) -> Path:
        """Queue document location for a given manifest path."""
        path = Path(manifest_path)
        return path.with_name(path.name + ".queue.json")

    @property
    def doc_name(self) -> str:
        return str(self.path)

    def _update_doc_if_changed(self, fn: Callable[[str | None], str]) -> None:
        try:
            self.backend.update_doc(self.doc_name, fn)
        except _AbortUpdate:
            pass

    def _parse(self, text: str | None) -> dict | None:
        record = _parse_queue(text)
        if record is None or record.get("fingerprint") != self.fingerprint:
            return None
        return record

    # -- seeding ---------------------------------------------------------------
    def exists(self) -> bool:
        """True when a fingerprint-matching queue document exists."""
        try:
            return self._parse(self.backend.read_doc(self.doc_name)) is not None
        except OSError:
            return False

    def seed(self, entries: Iterable[Mapping[str, Any]], rates: Mapping[str, float] | None = None) -> bool:
        """Publish the queue once; first worker wins, later seeds no-op.

        Idempotent under elastic membership: every worker calls ``seed``
        with its own plan, and the transaction aborts writeless when a
        fingerprint-matching queue already exists (a joining worker must
        adopt the in-flight plan, not replace it — replacing would lose
        peers' leases).  Returns True when this call created the queue.
        """
        planned = [dict(entry) for entry in entries]
        seeded = False

        def transact(text: str | None) -> str:
            nonlocal seeded
            seeded = False
            if self._parse(text) is not None:
                raise _AbortUpdate
            seeded = True
            return json.dumps(
                {
                    "schema": QUEUE_SCHEMA_VERSION,
                    "fingerprint": self.fingerprint,
                    "entries": planned,
                    "rates": {
                        str(name): float(value) for name, value in (rates or {}).items()
                    },
                    "workers": {},
                    "events": [
                        {
                            "kind": "seed",
                            "worker": self.worker,
                            "at": time.time(),
                            "entries": len(planned),
                        }
                    ],
                },
                indent=1,
            )

        self._update_doc_if_changed(transact)
        return seeded

    # -- leasing ---------------------------------------------------------------
    def _freshness(self, entry: Mapping[str, Any]) -> float:
        try:
            claimed = float(entry.get("claimed_at", 0.0))
        except (TypeError, ValueError):
            claimed = 0.0
        try:
            heartbeat = float(entry.get("heartbeat", 0.0))
        except (TypeError, ValueError):
            heartbeat = 0.0
        return max(claimed, heartbeat)

    def _is_stale(self, entry: Mapping[str, Any], now: float) -> bool:
        if self.reclaim_stale is None:
            return False
        return now - self._freshness(entry) > self.reclaim_stale

    @staticmethod
    def _merge_runnable(entry: Mapping[str, Any], entries: list[dict]) -> bool:
        """A merge entry runs only after every sibling part settled."""
        dataset, toolkit = entry["dataset"], entry["toolkit"]
        return all(
            sibling.get("state") in ("done", "abandoned")
            for sibling in entries
            if sibling.get("kind") == "part"
            and sibling["dataset"] == dataset
            and sibling["toolkit"] == toolkit
        )

    def pull(self, limit: int = 1) -> list[dict]:
        """Atomically lease up to ``limit`` entries, longest-cost-first.

        One transaction: refresh every pending entry's cost from the
        queue's learned per-toolkit rates, collect the runnable candidates
        (pending entries with satisfied merge dependencies, plus running
        entries gone heartbeat-stale under ``reclaim_stale``), sort by
        ``(-cost, seq)`` and mark the winners as running under this
        worker's token.  Reclaims and shared-cell part pulls are recorded
        as steal events with the victim in ``stolen_from``.

        Returns the leased entry dicts (possibly fewer than ``limit``;
        empty when nothing is runnable — check :meth:`counts` to decide
        between waiting on peers and exiting).
        """
        limit = max(int(limit), 1)
        granted: list[dict] = []

        def transact(text: str | None) -> str:
            nonlocal granted
            granted = []
            record = self._parse(text)
            if record is None:
                raise _AbortUpdate
            now = time.time()
            entries = record["entries"]
            rates = record.get("rates", {})
            for entry in entries:
                if entry.get("state") == "pending":
                    rate = rates.get(entry["toolkit"])
                    if rate is not None and float(rate) > 0.0:
                        entry["cost"] = float(entry["units"]) * float(rate)
            # Leases of ours already in the doc but not locally active are
            # lost-CAS-reply re-grants: adopt them first, free of charge.
            for entry in entries:
                if (
                    entry.get("state") == "running"
                    and entry.get("token") == self._token
                    and entry_key(entry) not in self._active
                    and len(granted) < limit
                ):
                    granted.append(entry)
            candidates = []
            for entry in entries:
                if any(entry is taken for taken in granted):
                    continue
                state = entry.get("state")
                if state == "pending":
                    if entry.get("kind") == "merge" and not self._merge_runnable(
                        entry, entries
                    ):
                        continue
                    candidates.append(entry)
                elif state == "running" and entry.get("token") != self._token:
                    if self._is_stale(entry, now):
                        candidates.append(entry)
            candidates.sort(key=lambda e: (-float(e.get("cost", 0.0)), int(e["seq"])))
            steal_events = []
            for entry in candidates[: limit - len(granted)]:
                if entry.get("state") == "running":
                    victim = str(entry.get("worker", ""))
                    entry.setdefault("stolen_from", []).append(victim)
                    steal_events.append(
                        {
                            "kind": "steal",
                            "mode": "reclaim",
                            "dataset": entry["dataset"],
                            "toolkit": entry["toolkit"],
                            "part": entry.get("part"),
                            "from": victim,
                            "worker": self.worker,
                            "at": now,
                        }
                    )
                elif entry.get("kind") == "part":
                    # Sharing the remaining waves of a cell a peer already
                    # started is the split-mode steal.
                    owners = {
                        str(sibling.get("worker", ""))
                        for sibling in record["entries"]
                        if sibling.get("kind") in ("part", "merge")
                        and sibling["dataset"] == entry["dataset"]
                        and sibling["toolkit"] == entry["toolkit"]
                        and sibling.get("state") in ("running", "done")
                        and sibling.get("worker")
                    }
                    owners.discard(self.worker)
                    if owners:
                        victim = sorted(owners)[0]
                        entry.setdefault("stolen_from", []).append(victim)
                        steal_events.append(
                            {
                                "kind": "steal",
                                "mode": "split",
                                "dataset": entry["dataset"],
                                "toolkit": entry["toolkit"],
                                "part": entry.get("part"),
                                "from": victim,
                                "worker": self.worker,
                                "at": now,
                            }
                        )
                entry["state"] = "running"
                entry["worker"] = self.worker
                entry["token"] = self._token
                entry["claimed_at"] = now
                entry["heartbeat"] = now
                granted.append(entry)
            if not granted:
                raise _AbortUpdate
            if steal_events:
                record["events"].extend(steal_events)
                stats = record["workers"].setdefault(
                    self.worker, {"cells": 0, "parts": 0, "stolen": 0, "seconds": 0.0}
                )
                stats["stolen"] = int(stats.get("stolen", 0)) + len(steal_events)
            return json.dumps(record, indent=1)

        self._update_doc_if_changed(transact)
        for entry in granted:
            self._active.add(entry_key(entry))
        # Chaos seam: dying here leaves durable leases nobody is executing —
        # only reclaim_stale peers can heal them.
        faults.check("queue.pull", detail=self.worker)
        return [dict(entry) for entry in granted]

    def complete(self, entry: Mapping[str, Any], seconds: float | None = None) -> bool:
        """Mark one leased entry done and feed its wall-clock to the rates.

        Whole-cell wall-clock refines the toolkit's seconds-per-unit rate
        (EMA), re-pricing every still-pending cell at the next pull.
        Returns False (without writing) when the lease is no longer ours —
        a peer reclaimed the entry while we computed; the result is still
        correct, the peer's account of the work stands.
        """
        key = entry_key(entry)
        done = False

        def transact(text: str | None) -> str:
            nonlocal done
            done = False
            record = self._parse(text)
            if record is None:
                raise _AbortUpdate
            now = time.time()
            target = None
            for candidate in record["entries"]:
                if entry_key(candidate) == key:
                    target = candidate
                    break
            if target is None or target.get("state") == "done":
                raise _AbortUpdate
            if target.get("state") == "running" and target.get("token") != self._token:
                raise _AbortUpdate
            target["state"] = "done"
            target["worker"] = self.worker
            target["token"] = self._token
            target["heartbeat"] = now
            if seconds is not None:
                target["seconds"] = float(seconds)
            stats = record["workers"].setdefault(
                self.worker, {"cells": 0, "parts": 0, "stolen": 0, "seconds": 0.0}
            )
            slot = "parts" if target.get("kind") == "part" else "cells"
            stats[slot] = int(stats.get(slot, 0)) + 1
            if seconds is not None:
                stats["seconds"] = float(stats.get("seconds", 0.0)) + float(seconds)
            if (
                target.get("kind") == "cell"
                and seconds is not None
                and float(seconds) >= 0.0
                and float(target.get("units", 0.0)) > 0.0
            ):
                sample = float(seconds) / float(target["units"])
                previous = record["rates"].get(target["toolkit"])
                record["rates"][target["toolkit"]] = (
                    sample if previous is None else 0.5 * float(previous) + 0.5 * sample
                )
            done = True
            return json.dumps(record, indent=1)

        self._update_doc_if_changed(transact)
        self._active.discard(key)
        return done

    def requeue(self, entry: Mapping[str, Any]) -> bool:
        """Return a leased entry to the pending pool after a transient failure.

        Each requeue burns one attempt; an entry requeued ``max_attempts``
        times is marked ``abandoned`` instead (a merge whose parts were
        abandoned still runs — it just finds a colder cache).  Returns True
        when the entry went back to pending, False when it was abandoned or
        the lease was no longer ours.
        """
        key = entry_key(entry)
        requeued = False

        def transact(text: str | None) -> str:
            nonlocal requeued
            requeued = False
            record = self._parse(text)
            if record is None:
                raise _AbortUpdate
            target = None
            for candidate in record["entries"]:
                if entry_key(candidate) == key:
                    target = candidate
                    break
            if (
                target is None
                or target.get("state") != "running"
                or target.get("token") != self._token
            ):
                raise _AbortUpdate
            target["attempts"] = int(target.get("attempts", 0)) + 1
            target["worker"] = ""
            target["token"] = ""
            target["claimed_at"] = 0.0
            target["heartbeat"] = 0.0
            if target["attempts"] >= self.max_attempts:
                target["state"] = "abandoned"
            else:
                target["state"] = "pending"
                requeued = True
            return json.dumps(record, indent=1)

        self._update_doc_if_changed(transact)
        self._active.discard(key)
        return requeued

    def beacon(self, entry: Mapping[str, Any], interval: float = 1.0) -> _QueueBeacon:
        """Liveness callback for one leased entry (see :class:`_QueueBeacon`)."""
        return _QueueBeacon(
            self.backend, self.doc_name, self._token, entry_key(entry), interval=interval
        )

    # -- inspection ------------------------------------------------------------
    def snapshot(self) -> dict | None:
        """Plain (non-transactional) read of the queue document."""
        try:
            return self._parse(self.backend.read_doc(self.doc_name))
        except OSError:
            return None

    def counts(self) -> dict[str, int]:
        """Entry counts by state (all zero when the queue does not exist)."""
        counts = {"pending": 0, "running": 0, "done": 0, "abandoned": 0}
        record = self.snapshot()
        if record is not None:
            for entry in record["entries"]:
                state = str(entry.get("state", ""))
                if state in counts:
                    counts[state] += 1
        return counts

    def provenance(self) -> dict[tuple[str, str], str]:
        """``{(dataset, toolkit): worker}`` for finished cells.

        Split cells are credited to the merge runner — the worker whose
        full execution produced the recorded result; the parts' share
        shows up in :meth:`scheduler_stats` instead.
        """
        record = self.snapshot()
        if record is None:
            return {}
        return {
            (str(entry["dataset"]), str(entry["toolkit"])): str(entry.get("worker", ""))
            for entry in record["entries"]
            if entry.get("kind") in ("cell", "merge") and entry.get("state") == "done"
        }

    def scheduler_stats(self) -> dict | None:
        """Scheduler provenance: per-worker stats, splits, steals, events."""
        record = self.snapshot()
        if record is None:
            return None
        split_cells = sorted(
            {
                (str(entry["dataset"]), str(entry["toolkit"]))
                for entry in record["entries"]
                if entry.get("kind") == "part"
            }
        )
        events = [event for event in record.get("events", []) if isinstance(event, dict)]
        return {
            "workers": {
                str(name): dict(stats)
                for name, stats in record.get("workers", {}).items()
                if isinstance(stats, Mapping)
            },
            "splits": [list(cell) for cell in split_cells],
            "steals": sum(1 for event in events if event.get("kind") == "steal"),
            "rates": dict(record.get("rates", {})),
            "events": events,
        }

    def __repr__(self) -> str:
        return (
            f"CellQueue(path={str(self.path)!r}, worker={self.worker!r}, "
            f"reclaim_stale={self.reclaim_stale})"
        )
