"""Deterministic fault injection for chaos-testing the whole stack.

The fleet this system targets fails in boring, repeatable ways — spot
instances die mid-task, the object store browns out, a partition eats a
conditional PUT's response — and the recovery machinery (task
resubmission, lane rejoin, bounded retry, the store circuit breaker,
stale-lease reclaim) only stays honest if those failures are *exercised
systematically*.  This package makes them injectable, deterministic and
replayable:

- **Sites** are named seams compiled into the production code paths (the
  registry below).  With no plan installed a seam is one module-global
  ``None`` check — cheap enough to leave in the hot paths permanently
  (the ``bench_perf_chaos`` benchmark gates the overhead at <2%).
- **Plans** (:class:`FaultPlan`) bind sites to actions with counter-based
  trigger windows and a seed, so every chaos run is replayable byte for
  byte — see :mod:`repro.faults.plan`.
- :func:`install_plan` / :func:`clear_plan` activate a plan process-wide;
  ``python -m repro.benchmarking --fault-plan plan.json`` does the same
  from the CLI.

Site registry
-------------
======================== =============================== =======================
site                     detail                          honored actions
======================== =============================== =======================
``remote.server.task``   ``host:port`` of the worker     ``crash`` (listener and
                                                         connection die mid-task),
                                                         ``drop`` (connection only),
                                                         ``stall``, ``corrupt``
                                                         (garbled outcome frame)
``remote.lane.blob_put`` blob digest                     ``corrupt`` (garbled
                                                         payload; the worker's
                                                         digest check refuses it)
``store.client.request`` ``METHOD /path``                ``error`` (simulated
                                                         transport failure),
                                                         ``stall``
``store.client.blob``    blob digest                     ``corrupt`` (payload
                                                         garbled before decode)
``store.server.request`` ``METHOD /path``                ``http_503``, ``stall``
``store.server.doc_put`` quoted document name            ``drop`` (write applied,
                                                         response lost — a
                                                         partition mid-CAS)
``queue.pull``           worker id                       ``error`` (die after
                                                         leasing, before running:
                                                         the grants stay
                                                         ``running`` until a
                                                         ``reclaim_stale`` peer
                                                         takes them over)
``runner.checkpoint``    worker id (or ``""``)           ``error`` (die right
                                                         after a checkpoint)
``frame.chunk_read``     chunk blob digest               ``error`` (torn/short
                                                         read: the chunk comes
                                                         back truncated),
                                                         ``corrupt`` (garbled
                                                         page), ``stall`` —
                                                         digest verification
                                                         catches both and the
                                                         read retries, falling
                                                         back from mmap to
                                                         ``get_blob`` (see
                                                         ``repro.frame.chunked``)
======================== =============================== =======================

Seams call :func:`fire` and interpret the returned rule themselves, so a
site only ever produces failures its real-world counterpart could.
``stall`` is handled centrally (the event sleeps, then proceeds cleanly).
"""

from __future__ import annotations

import time

from .injector import FaultInjector, garble
from .plan import FAULT_ACTIONS, FaultPlan, FaultRule, InjectedFault

__all__ = [
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "InjectedFault",
    "FAULT_ACTIONS",
    "install_plan",
    "clear_plan",
    "active_injector",
    "fire",
    "check",
    "garble",
]

#: The process-wide injector. ``None`` (the default) keeps every seam on
#: its zero-cost path; tests and the ``--fault-plan`` CLI flag install one.
_ACTIVE: FaultInjector | None = None


def install_plan(plan: FaultPlan) -> FaultInjector:
    """Activate ``plan`` process-wide and return its injector."""
    global _ACTIVE
    _ACTIVE = FaultInjector(plan)
    return _ACTIVE


def clear_plan() -> None:
    """Deactivate fault injection (idempotent)."""
    global _ACTIVE
    _ACTIVE = None


def active_injector() -> FaultInjector | None:
    """The installed injector, or ``None`` when injection is off."""
    return _ACTIVE


def fire(site: str, detail: str = "") -> FaultRule | None:
    """Report one event at ``site``; return the rule that fires, if any.

    ``stall`` rules are handled here (sleep, then proceed as if nothing
    fired) so every seam gets stalls for free; any other firing rule is
    returned for the seam to interpret.  With no plan installed this is a
    single global read — the seams stay in production code permanently.
    """
    injector = _ACTIVE
    if injector is None:
        return None
    rule = injector.fire(site, detail)
    if rule is not None and rule.action == "stall":
        time.sleep(rule.seconds)
        return None
    return rule


def check(site: str, detail: str = "") -> None:
    """Seam helper for sites whose only failure mode is dying in place."""
    rule = fire(site, detail)
    if rule is not None and rule.action == "error":
        raise InjectedFault(f"injected fault at {site} ({detail})")
