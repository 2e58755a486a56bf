"""Command-line benchmark harness with resumable and work-stealing runs.

Runs a toolkit-by-dataset matrix, prints the paper-style detail table and
(optionally) checkpoints progress into a run manifest so an interrupted or
repeated invocation skips finished cells::

    python -m repro.benchmarking --suite tiny --manifest runs/tiny.json --resume
    python -m repro.benchmarking --suite univariate --profile fast \\
        --manifest runs/uni.json --resume --cache-dir runs/eval-store --autoai

**Work-stealing runs** split one matrix across concurrent workers that
share a manifest (and optionally a ``--cache-dir``): every ``--steal``
worker pulls cells longest-projected-cost-first from a queue document next
to the manifest, steals from stalled peers, and any number of workers —
including ones joining mid-run — drain one matrix without
pre-partitioning.  A final plain invocation with ``--resume`` merges the
shared manifest into the full summary::

    python -m repro.benchmarking --steal --manifest runs/m.json &
    python -m repro.benchmarking --steal --manifest runs/m.json &   # join any time
    wait
    python -m repro.benchmarking --manifest runs/m.json --resume

With ``--store-url`` the manifest, queue document and evaluation records
live in a shared object store (``python -m repro.store.server``) instead
of the filesystem, so the workers may run on different hosts with no
shared mount; ``--manifest`` then names the manifest *document* inside
the store.

``--resume`` merges a previous manifest of the same suite; without it an
existing manifest is overwritten.  ``--resume-strict`` additionally *fails*
(exit code 2) when no resumable manifest exists, instead of quietly
re-paying the whole suite.  ``--cache-dir`` points the AutoAI-TS cells
(``--autoai``) at a persistent evaluation store shared across cells and
invocations.  ``--json`` writes a machine-readable summary — used by CI to
assert that a warm re-run is served from the persistent records.

Exit codes: 0 all cells succeeded within budget; 1 at least one cell
permanently failed or went over budget (a failure summary is printed, so
CI jobs can gate on it); 2 a strict resume found no usable manifest, or the
flags do not fit together.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys

import numpy as np

from ..exec.remote import RemoteExecutor
from .experiment import (
    FAST_PROFILE,
    FULL_PROFILE,
    autoai_toolkit_factories,
    profile_multivariate_datasets,
    profile_univariate_datasets,
    sota_toolkit_factories,
)
from .manifest import ManifestMismatchError
from .reporting import render_detail_table, render_shard_provenance
from .runner import BenchmarkRunner
from .sharding import CellQueue

__all__ = ["main"]


def _tiny_suite() -> dict[str, np.ndarray]:
    """Four tiny deterministic series: a smoke suite that runs in seconds."""
    t = np.arange(120.0)
    return {
        "tiny_trend": 10.0 + 0.5 * t + np.sin(t / 9.0),
        "tiny_seasonal": 50.0 + 8.0 * np.sin(2.0 * np.pi * t / 12.0) + 0.1 * t,
        "tiny_damped": 30.0 + 5.0 * np.exp(-t / 80.0) * np.sin(t / 5.0),
        "tiny_steps": 20.0 + np.floor(t / 30.0) * 4.0 + np.cos(t / 7.0),
    }


def _tiny_toolkits() -> dict:
    from ..forecasters.naive import DriftForecaster, ZeroModelForecaster
    from ..forecasters.theta import ThetaForecaster

    return {
        "Zero": lambda horizon: ZeroModelForecaster(horizon=horizon),
        "Drift": lambda horizon: DriftForecaster(horizon=horizon),
        "Theta": lambda horizon: ThetaForecaster(horizon=horizon),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchmarking",
        description="Run a resumable AutoAI-TS benchmark matrix, alone or as "
        "one of several work-stealing workers.",
    )
    parser.add_argument(
        "--suite",
        choices=("tiny", "univariate", "multivariate"),
        default="tiny",
        help="data-set suite (default: tiny smoke suite)",
    )
    parser.add_argument(
        "--profile",
        choices=("fast", "full"),
        default="fast",
        help="size profile for the univariate/multivariate suites",
    )
    parser.add_argument("--horizon", type=int, default=12, help="forecast horizon")
    parser.add_argument(
        "--manifest", default=None, help="run-manifest path enabling checkpoint/resume"
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="merge a previous manifest of the same suite instead of overwriting it",
    )
    parser.add_argument(
        "--resume-strict",
        action="store_true",
        help="like --resume, but exit 2 when no resumable manifest exists "
        "(suite mismatch, corrupt or missing file) instead of recomputing",
    )
    parser.add_argument(
        "--steal",
        action="store_true",
        help="run as one elastic work-stealing worker: pull cells "
        "longest-projected-cost-first from a shared queue document next to "
        "--manifest (required), stealing from stalled peers; workers may "
        "join mid-run",
    )
    parser.add_argument(
        "--split-threshold",
        type=float,
        default=2.0,
        metavar="FACTOR",
        help="with --steal, decompose a cell projected above FACTOR x the "
        "median cell cost into parts multiple workers can run concurrently "
        "(toolkit must support splitting; 0 disables; default: 2.0)",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="with --steal, identity recorded with this worker's queue "
        "leases (default: steal@host:pid)",
    )
    parser.add_argument(
        "--reclaim-stale",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --steal, treat another worker's queue lease as abandoned "
        "once its newest claimed_at/heartbeat timestamp is older than "
        "SECONDS, making a dead worker's cells pullable again (default: 300)",
    )
    parser.add_argument(
        "--no-dataplane",
        action="store_true",
        help="ship task data by value instead of through the zero-copy "
        "data plane (shared-memory/blob distribution of dataset arrays)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent evaluation store for the AutoAI-TS cells "
        "(a local directory; see --store-url for the no-shared-filesystem path)",
    )
    parser.add_argument(
        "--store-url",
        default=None,
        metavar="URL",
        help="object-store URL (python -m repro.store.server) holding the "
        "manifest, queue document and evaluation records — lets stealing "
        "workers on different hosts share one run with no shared filesystem",
    )
    parser.add_argument(
        "--autoai", action="store_true", help="include the AutoAI-TS toolkit column"
    )
    parser.add_argument(
        "--max-train-seconds",
        type=float,
        default=None,
        help="per-cell training budget",
    )
    parser.add_argument("--jobs", type=int, default=None, help="concurrent cells")
    parser.add_argument(
        "--executor",
        choices=("serial", "threads", "processes", "remote"),
        default=None,
        help="execution backend (default: serial, or processes when --jobs > 1)",
    )
    parser.add_argument(
        "--workers",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="remote worker addresses for --executor remote "
        "(each runs `python -m repro.exec.remote`)",
    )
    parser.add_argument("--json", default=None, help="write a JSON run summary here")
    parser.add_argument("--quiet", action="store_true", help="suppress per-cell logs")
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="development/chaos-testing only: activate the deterministic "
        "fault-injection plan in this JSON file (see repro.faults) for the "
        "whole invocation",
    )
    return parser


def _resolve_executor(args):
    """Executor knob from ``--executor``/``--workers``; raises ``ValueError``
    with a user-facing message on a misconfiguration."""
    from ..exceptions import InvalidParameterError

    if args.workers:
        if args.executor not in (None, "remote"):
            raise ValueError(
                f"--workers only applies to --executor remote, not "
                f"--executor {args.executor}"
            )
        addresses = [part for part in args.workers.split(",") if part.strip()]
        try:
            return RemoteExecutor(addresses)
        except (InvalidParameterError, ValueError) as exc:
            raise ValueError(str(exc)) from exc
    if args.executor == "remote":
        try:
            return RemoteExecutor.from_env()
        except InvalidParameterError as exc:
            raise ValueError(
                f"{exc} (hint: pass --workers HOST:PORT,HOST:PORT)"
            ) from exc
    return args.executor


def _failure_summary(results) -> list[str]:
    """One line per cell that permanently failed or blew its budget."""
    lines = []
    for run in results.runs:
        if run.failed or run.over_budget:
            status = "over budget" if run.over_budget else "failed"
            detail = f": {run.error}" if run.error else ""
            lines.append(f"  {run.dataset} × {run.toolkit} [{status}]{detail}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.fault_plan is not None:
        from .. import faults

        try:
            plan = faults.FaultPlan.load(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load fault plan {args.fault_plan!r}: {exc}", file=sys.stderr)
            return 2
        faults.install_plan(plan)
        print(
            f"[benchmark] CHAOS: fault plan {plan.name or args.fault_plan} active "
            f"({len(plan.rules)} rules, seed {plan.seed})",
            file=sys.stderr,
        )

    if args.steal and args.manifest is None:
        print(
            "error: --steal requires --manifest (the queue document "
            "lives next to it, shared by all workers)",
            file=sys.stderr,
        )
        return 2
    if not args.steal and (args.worker_id is not None or args.reclaim_stale is not None):
        print("error: --worker-id/--reclaim-stale require --steal", file=sys.stderr)
        return 2
    if (args.resume or args.resume_strict) and args.manifest is None:
        # Silently ignoring the flag would be exactly the quiet full
        # re-pay that --resume-strict exists to prevent.
        print("error: --resume/--resume-strict require --manifest", file=sys.stderr)
        return 2

    store = None
    if args.store_url is not None:
        if args.cache_dir is not None:
            print(
                "error: --store-url and --cache-dir are two homes for the same "
                "records; pick one (the object store replaces the local directory)",
                file=sys.stderr,
            )
            return 2
        from ..store import ObjectStoreBackend

        store = ObjectStoreBackend(args.store_url)
        if not store.healthy():
            print(
                f"error: no object store answering at {args.store_url} "
                "(start one with: python -m repro.store.server)",
                file=sys.stderr,
            )
            return 2

    profile = FULL_PROFILE if args.profile == "full" else FAST_PROFILE
    if args.suite == "tiny":
        datasets = _tiny_suite()
        toolkits = dict(_tiny_toolkits())
    elif args.suite == "univariate":
        datasets = profile_univariate_datasets(profile)
        toolkits = dict(sota_toolkit_factories())
    else:
        datasets = profile_multivariate_datasets(profile)
        toolkits = dict(sota_toolkit_factories())
    if args.autoai:
        # The per-cell training budget also bounds the inner T-Daub ranking
        # cooperatively, so a slow pipeline cannot stall an AutoAI-TS cell
        # even on backends that cannot preempt it.
        toolkits = {
            **autoai_toolkit_factories(
                store=store if store is not None else args.cache_dir,
                budget=args.max_train_seconds,
            ),
            **toolkits,
        }

    worker_id = None
    if args.steal:
        worker_id = args.worker_id or (
            f"steal@{socket.gethostname()}:{os.getpid()}"
        )
        if args.reclaim_stale is None:
            # Elastic membership leans on stale-lease recovery: a worker
            # that dies mid-cell must not strand the cell forever, so
            # stealing defaults to a conservative reclaim horizon instead
            # of "never" (the in-cell heartbeat beacon keeps live slow
            # cells well inside it).
            args.reclaim_stale = 300.0
        if not args.quiet:
            print(f"[benchmark] worker {worker_id}: stealing from the shared queue")

    try:
        executor = _resolve_executor(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runner = BenchmarkRunner(
        horizon=args.horizon,
        max_train_seconds=args.max_train_seconds,
        n_jobs=args.jobs,
        executor=executor,
        manifest_path=args.manifest,
        store=store,
        worker_id=worker_id,
        reclaim_stale=args.reclaim_stale,
        dataplane=not args.no_dataplane,
        steal=args.steal,
        split_threshold=args.split_threshold,
        verbose=not args.quiet,
    )
    resume: bool | str = args.resume or args.resume_strict
    if args.resume_strict:
        resume = "strict"
    if args.steal and not resume:
        # Stealing workers always merge: overwriting the shared manifest
        # from one worker would throw away every other worker's cells.
        resume = True
    try:
        results = runner.run(datasets, toolkits, resume=resume)
    except ManifestMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    title = f"Benchmark matrix ({args.suite} suite, horizon {args.horizon})"
    if args.steal:
        title += f" — stealing worker {worker_id}"
    print(render_detail_table(results, title))

    provenance = {}
    scheduler = None
    manifest = runner.last_manifest_
    if manifest is not None:
        reported = {(run.dataset, run.toolkit) for run in results.runs}
        # Provenance lives in the queue document (which worker ran each
        # cell, splits, steals, per-worker load).  A merging invocation
        # reads it the same way the workers wrote it; a run no stealing
        # worker touched has no queue document and prints no footnote.
        queue = getattr(runner, "last_queue_", None)
        if queue is None:
            queue = CellQueue(
                CellQueue.doc_for_manifest(manifest.path),
                manifest.fingerprint,
                backend=manifest.backend,
                worker="provenance-reader",
            )
        provenance = {
            cell: worker
            for cell, worker in queue.provenance().items()
            if cell in reported
        }
        scheduler = queue.scheduler_stats()
        footnote = render_shard_provenance(provenance, scheduler=scheduler)
        if footnote:
            print(f"\n{footnote}")

    failures = _failure_summary(results)
    summary = {
        "suite": args.suite,
        "horizon": args.horizon,
        "cells": len(results.runs),
        "from_manifest": results.from_cache_count(),
        "failures": len(failures),
        "datasets": results.dataset_names,
        "toolkits": results.toolkit_names,
        "manifest": args.manifest,
        "store_url": args.store_url,
        "resumed": bool(resume),
        "steal": bool(args.steal),
        "worker_id": worker_id,
        "workers": sorted(set(provenance.values())) if provenance else [],
        "scheduler": scheduler,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
    print(
        f"\n{summary['cells']} cells, {summary['from_manifest']} from manifest, "
        f"{summary['failures']} failures"
    )
    if failures:
        print("Failed or over-budget cells:", file=sys.stderr)
        for line in failures:
            print(line, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
