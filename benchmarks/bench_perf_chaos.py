"""Perf benchmark: what chaos costs — seam overhead and kill-recovery.

Two promises of the fault-injection layer (``repro.faults``) are
quantified here and recorded in ``BENCH_chaos.json`` at the repository
root:

- **The seams are free when dormant.**  Every hot path that can host a
  fault (task dispatch, store requests, blob transfers, queue pulls)
  now crosses a named seam.  With no plan installed that crossing is one
  ``None`` check; with an inert plan installed it is one dictionary
  probe.  The benchmark runs the same two-worker remote matrix with no
  plan and with an installed-but-never-firing plan and asserts the
  wall-clock overhead stays **under 2 %** (the paired runs are
  sleep-dominated by design, so the comparison is stable), plus a
  microbenchmark of the disabled ``faults.fire`` call itself.

- **Losing a worker costs time, never answers.**  The matrix is run
  once fault-free on two workers, then again under a plan that crashes
  one of the two workers mid-task.  The surviving worker absorbs the
  dead lane's queue (at-least-once resubmission), the merged manifest
  must be byte-identical to the fault-free run (wall-clock timing
  fields normalized, as every cross-run comparison in this repo does),
  and the recorded degradation ratio stays bounded — near 2x, the
  honest price of finishing a two-worker matrix on one worker.

``--tiny`` runs a seconds-scale version for CI smoke; ``--json`` writes
the record somewhere other than ``BENCH_chaos.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import faults
from repro.benchmarking import BenchmarkRunner
from repro.core.base import BaseForecaster
from repro.exec import RemoteExecutor
from repro.exec.remote import WorkerServer
from repro.faults import FaultPlan, FaultRule
from repro.resilience import RetryPolicy

_HORIZON = 8
_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"


class LatencyBoundToolkit(BaseForecaster):
    """Drift toolkit whose training blocks on a deterministic sleep.

    The sleep makes each run's wall-clock dominated by a fixed, known
    quantity, so the no-plan vs inert-plan comparison measures seam cost
    rather than scheduler noise, and the kill-recovery ratio measures
    queue absorption rather than numpy variance.
    """

    def __init__(self, damping: float = 1.0, latency: float = 0.1, horizon: int = 1):
        self.damping = damping
        self.latency = latency
        self.horizon = horizon

    def fit(self, X, y=None) -> "LatencyBoundToolkit":
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        steps = np.arange(len(X), dtype=float)
        slopes = [np.polyfit(steps, column, deg=1)[0] for column in X.T]
        self.level_ = X[-1]
        self.slope_ = np.asarray(slopes, dtype=float)
        time.sleep(float(self.latency))
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        steps = int(horizon if horizon is not None else self.horizon)
        offsets = np.arange(1, steps + 1, dtype=float).reshape(-1, 1)
        return self.level_.reshape(1, -1) + float(self.damping) * offsets * self.slope_.reshape(1, -1)


def _latency_toolkit(horizon: int, damping: float, latency: float) -> LatencyBoundToolkit:
    return LatencyBoundToolkit(damping=damping, latency=latency, horizon=horizon)


def _toolkits(latency: float, count: int) -> dict:
    # functools.partial of a module-level function, NOT a closure: the
    # factory rides inside every ToolkitRunTask, and an unpicklable
    # factory makes the remote backend silently fall back to inline
    # execution — which would fake a perfect chaos score by never
    # putting a task on the worker that is supposed to crash.
    dampings = (0.0, 0.5, 1.0, 2.0)[:count]
    return {
        f"Latency(d={d:g})": functools.partial(_latency_toolkit, damping=d, latency=latency)
        for d in dampings
    }


def _suite(count: int) -> dict[str, np.ndarray]:
    t = np.arange(160.0)
    generator = np.random.default_rng(23)
    series = {
        "trend": 20.0 + 0.8 * t + generator.normal(0, 0.5, 160),
        "seasonal": 60.0 + 9.0 * np.sin(2 * np.pi * t / 12.0) + generator.normal(0, 0.5, 160),
        "walk": 100.0 + np.cumsum(generator.normal(0.05, 0.8, 160)),
        "damped": 40.0 + 10.0 * np.exp(-t / 70.0) * np.sin(t / 6.0),
    }
    return dict(list(series.items())[:count])


def _normalized(path: Path) -> dict:
    record = json.loads(path.read_text(encoding="utf-8"))
    for cell in record["cells"]:
        cell["train_seconds"] = 0.0
    return record


def _run_matrix(manifest: Path, datasets, toolkits, plan: FaultPlan | None) -> float:
    """One two-worker remote run of the matrix; returns wall-clock seconds."""
    servers = [WorkerServer(), WorkerServer()]
    for server in servers:
        server.serve_in_background()
    try:
        if plan is not None:
            faults.install_plan(plan)
        executor = RemoteExecutor(
            ["%s:%d" % server.address for server in servers],
            retry_policy=RetryPolicy(attempts=3, base_backoff=0.05, max_backoff=0.2),
        )
        start = time.perf_counter()
        BenchmarkRunner(
            horizon=_HORIZON, manifest_path=str(manifest), executor=executor, verbose=False
        ).run(datasets, toolkits)
        return time.perf_counter() - start
    finally:
        faults.clear_plan()
        for server in servers:
            server.close()


def _crash_plan(address: str) -> FaultPlan:
    # Crash the matched worker on the very first task it receives: the
    # firing is then guaranteed (any task routed to it triggers the kill)
    # and the survivor measurably absorbs the whole matrix.
    return FaultPlan.of(
        FaultRule(site="remote.server.task", action="crash", count=1, match=address),
        name="bench-kill-one-of-two",
    )


def _run_kill_matrix(manifest: Path, datasets, toolkits) -> float:
    """Two-worker run where one worker crashes mid-task."""
    servers = [WorkerServer(), WorkerServer()]
    for server in servers:
        server.serve_in_background()
    try:
        faults.install_plan(_crash_plan("%s:%d" % servers[0].address))
        executor = RemoteExecutor(
            ["%s:%d" % server.address for server in servers],
            retry_policy=RetryPolicy(attempts=3, base_backoff=0.05, max_backoff=0.2),
        )
        start = time.perf_counter()
        BenchmarkRunner(
            horizon=_HORIZON, manifest_path=str(manifest), executor=executor, verbose=False
        ).run(datasets, toolkits)
        return time.perf_counter() - start
    finally:
        faults.clear_plan()
        for server in servers:
            server.close()


def _seam_microbench(iterations: int = 200_000) -> float:
    """Per-call cost of a disabled seam, in nanoseconds."""
    faults.clear_plan()
    fire = faults.fire
    start = time.perf_counter()
    for _ in range(iterations):
        fire("bench.disabled.seam")
    return (time.perf_counter() - start) / iterations * 1e9


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="seconds-scale CI smoke mode")
    parser.add_argument("--json", default=None, help="result path (default: BENCH_chaos.json)")
    args = parser.parse_args(argv)

    if args.tiny:
        datasets, toolkits = _suite(3), _toolkits(latency=0.06, count=2)
        overhead_budget_pct = 5.0  # shared CI runners: wider noise floor
    else:
        datasets, toolkits = _suite(4), _toolkits(latency=0.12, count=4)
        overhead_budget_pct = 2.0
    cells = len(datasets) * len(toolkits)

    inert_plan = FaultPlan.of(
        # A store seam in a run with no store: installed, probed, never fires.
        FaultRule(site="store.server.request", action="http_503", count=None),
        name="bench-inert",
    )

    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-bench-"))
    try:
        # Paired min-of-2 runs: sleeps dominate, min strips scheduler noise.
        free_seconds = min(
            _run_matrix(workdir / f"free{i}.json", datasets, toolkits, None) for i in (0, 1)
        )
        inert_seconds = min(
            _run_matrix(workdir / f"inert{i}.json", datasets, toolkits, inert_plan)
            for i in (0, 1)
        )
        kill_seconds = _run_kill_matrix(workdir / "kill.json", datasets, toolkits)

        reference = _normalized(workdir / "free0.json")
        inert_identical = _normalized(workdir / "inert0.json") == reference
        kill_identical = _normalized(workdir / "kill.json") == reference

        overhead_pct = max(0.0, inert_seconds / free_seconds - 1.0) * 100.0
        degradation = kill_seconds / free_seconds
        seam_ns = _seam_microbench()

        record = {
            "benchmark": "chaos_seam_overhead_and_kill_recovery",
            "kind": "machinery",
            "cells": cells,
            "n_workers": 2,
            "mode": "tiny" if args.tiny else "full",
            "fault_free_seconds": round(free_seconds, 4),
            "inert_plan_seconds": round(inert_seconds, 4),
            "seam_overhead_pct": round(overhead_pct, 3),
            "disabled_seam_ns_per_call": round(seam_ns, 1),
            "kill_one_of_two_seconds": round(kill_seconds, 4),
            "kill_degradation_ratio": round(degradation, 3),
            "inert_manifest_identical": inert_identical,
            "kill_manifest_identical": kill_identical,
        }
        out = Path(args.json) if args.json else _RESULT_PATH
        out.write_text(json.dumps(record, indent=2) + "\n")

        print(f"Chaos benchmark: {cells} cells, 2 remote workers")
        print(f"  fault-free        : {free_seconds:6.2f}s")
        print(f"  inert plan        : {inert_seconds:6.2f}s  (+{overhead_pct:.2f}% seam overhead)")
        print(f"  disabled seam     : {seam_ns:6.0f}ns per crossing")
        print(f"  one worker killed : {kill_seconds:6.2f}s  ({degradation:.2f}x fault-free)")
        print(f"  inert manifest identical: {inert_identical}")
        print(f"  chaos manifest identical: {kill_identical}")

        failures = []
        if not inert_identical:
            failures.append("inert-plan manifest diverged from the fault-free run")
        if not kill_identical:
            failures.append("kill-one-worker manifest diverged from the fault-free run")
        if overhead_pct >= overhead_budget_pct:
            failures.append(
                f"seam overhead {overhead_pct:.2f}% >= {overhead_budget_pct:.0f}% budget"
            )
        if seam_ns >= 2_000:
            failures.append(f"disabled seam costs {seam_ns:.0f}ns >= 2µs per crossing")
        if degradation >= 4.0:
            failures.append(f"kill recovery took {degradation:.2f}x fault-free (>= 4x)")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
