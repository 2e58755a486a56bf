"""Chaos acceptance suite: the benchmark matrix under injected faults.

Each test drives the same tiny benchmark matrix under one deterministic
:class:`~repro.faults.FaultPlan` — a worker crashing mid-task, a store
brown-out, corrupt blob bytes, a stalled lane, a partition eating the ack
of a work-queue write, a worker dying between queue pull and checkpoint — and
asserts the recovery machinery heals the run completely: the resulting
manifest is byte-identical to the fault-free reference (after zeroing
the wall-clock ``train_seconds`` timings, as every cross-run comparison
in this repo does).
"""

import json

import numpy as np
import pytest

from repro import faults
from repro.benchmarking import BenchmarkRunner
from repro.exec import RemoteExecutor
from repro.exec.remote import WorkerServer
from repro.faults import FaultPlan, FaultRule, InjectedFault
from repro.forecasters.naive import DriftForecaster, ZeroModelForecaster
from repro.resilience import RetryPolicy
from repro.store import ObjectStoreBackend
from repro.store.server import StoreServer

HORIZON = 6


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


@pytest.fixture()
def store_server(tmp_path):
    server = StoreServer(tmp_path / "server-root")
    server.serve_in_background()
    yield server
    server.close()


# Toolkit factories must be module-level functions: lambdas cannot pickle
# across the remote wire and would silently fall back inline, bypassing
# exactly the failure domain these tests exist to exercise.
def _zero_toolkit(horizon):
    return ZeroModelForecaster(horizon=horizon)


def _drift_toolkit(horizon):
    return DriftForecaster(horizon=horizon)


def _toolkits():
    return {"Zero": _zero_toolkit, "Drift": _drift_toolkit}


def _datasets():
    t = np.arange(120.0)
    return {
        "trend": 10.0 + 0.5 * t,
        "season": 30.0 + 5.0 * np.sin(2.0 * np.pi * t / 12.0),
        "steps": 20.0 + np.floor(t / 30.0) * 2.0,
    }


def _normalized(text: str) -> dict:
    record = json.loads(text)
    for cell in record["cells"]:
        cell["train_seconds"] = 0.0
    return record


@pytest.fixture(scope="module")
def reference() -> dict:
    """The fault-free manifest every chaos run must converge on."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "reference.json"
        BenchmarkRunner(
            horizon=HORIZON, manifest_path=str(path), verbose=False
        ).run(_datasets(), _toolkits())
        return _normalized(path.read_text(encoding="utf-8"))


def _remote_executor(*addresses, **kwargs) -> RemoteExecutor:
    kwargs.setdefault(
        "retry_policy", RetryPolicy(attempts=3, base_backoff=0.02, max_backoff=0.1)
    )
    return RemoteExecutor(list(addresses), **kwargs)


class TestChaosMatrix:
    def test_worker_crash_mid_task(self, tmp_path, reference):
        """Plan 1: one of two workers dies mid-task; survivors finish."""
        crash, survivor = WorkerServer(), WorkerServer()
        for server in (crash, survivor):
            server.serve_in_background()
        crash_address = "%s:%d" % crash.address
        try:
            faults.install_plan(
                FaultPlan.of(
                    FaultRule(
                        site="remote.server.task",
                        action="crash",
                        after=1,
                        count=1,
                        match=crash_address,
                    ),
                    name="worker-crash-mid-task",
                )
            )
            manifest = tmp_path / "chaos.json"
            BenchmarkRunner(
                horizon=HORIZON,
                manifest_path=str(manifest),
                executor=_remote_executor(crash_address, "%s:%d" % survivor.address),
                verbose=False,
            ).run(_datasets(), _toolkits())
            assert _normalized(manifest.read_text(encoding="utf-8")) == reference
        finally:
            crash.close()
            survivor.close()

    def test_store_503_burst(self, tmp_path, store_server, reference):
        """Plan 2: the object store browns out; bounded retry rides it."""
        faults.install_plan(
            FaultPlan.of(
                FaultRule(site="store.server.request", action="http_503", count=2),
                FaultRule(
                    site="store.server.request", action="http_503", after=6, count=2
                ),
                name="store-503-burst",
            )
        )
        backend = ObjectStoreBackend(
            store_server.url,
            retry_policy=RetryPolicy(attempts=4, base_backoff=0.01, max_backoff=0.05),
        )
        BenchmarkRunner(
            horizon=HORIZON, manifest_path="chaos.json", store=backend, verbose=False
        ).run(_datasets(), _toolkits())
        assert _normalized(backend.read_doc("chaos.json")) == reference

    def test_corrupt_blob_payload(self, tmp_path, reference):
        """Plan 3: a data-plane blob garbles in flight; the worker's digest
        check refuses it and the lane re-sends on reconnect."""
        server = WorkerServer()
        server.serve_in_background()
        try:
            faults.install_plan(
                FaultPlan.of(
                    FaultRule(site="remote.lane.blob_put", action="corrupt", count=1),
                    name="corrupt-blob-payload",
                )
            )
            manifest = tmp_path / "chaos.json"
            BenchmarkRunner(
                horizon=HORIZON,
                manifest_path=str(manifest),
                executor=_remote_executor("%s:%d" % server.address),
                verbose=False,
            ).run(_datasets(), _toolkits())
            assert _normalized(manifest.read_text(encoding="utf-8")) == reference
        finally:
            server.close()

    def test_stalled_lane(self, tmp_path, reference):
        """Plan 4: a worker stalls past the reply budget; the client
        declares the lane dead and resubmits the in-flight task."""
        server = WorkerServer()
        server.serve_in_background()
        try:
            faults.install_plan(
                FaultPlan.of(
                    FaultRule(
                        site="remote.server.task",
                        action="stall",
                        seconds=2.0,
                        after=1,
                        count=1,
                    ),
                    name="stalled-lane",
                )
            )
            manifest = tmp_path / "chaos.json"
            BenchmarkRunner(
                horizon=HORIZON,
                manifest_path=str(manifest),
                # Stall (2.0s) >> budget (0.75s) + grace (0.25s): the lane
                # must be declared dead rather than waited out.
                max_train_seconds=0.75,
                executor=_remote_executor(
                    "%s:%d" % server.address, reply_grace=0.25
                ),
                verbose=False,
            ).run(_datasets(), _toolkits())
            text = manifest.read_text(encoding="utf-8")
            normalized = _normalized(text)
            # The budgeted run records the same cells/values; only the
            # max_train_seconds knob in the stored spec may differ.
            assert normalized["cells"] == reference["cells"]
        finally:
            server.close()

    def test_partition_during_queue_pull(self, tmp_path, store_server, reference):
        """Plan 5: the ack of a work-queue conditional PUT is lost after the
        seed; the CAS loop re-reads and the token re-grants idempotently."""
        faults.install_plan(
            FaultPlan.of(
                FaultRule(
                    site="store.server.doc_put",
                    action="drop",
                    match="queue.json",
                    after=1,
                ),
                name="partition-during-pull",
            )
        )
        backend = ObjectStoreBackend(
            store_server.url,
            retry_policy=RetryPolicy(attempts=4, base_backoff=0.01, max_backoff=0.05),
        )
        runner = BenchmarkRunner(
            horizon=HORIZON,
            manifest_path="chaos.json",
            store=backend,
            worker_id="chaos-worker",
            steal=True,
            verbose=False,
        )
        runner.run(_datasets(), _toolkits())
        assert faults.active_injector().stats()["store.server.doc_put:drop[0]"]["fired"] == 1
        assert _normalized(backend.read_doc("chaos.json")) == reference
        assert runner.last_queue_.counts()["done"] == 6

    def test_death_between_claim_and_checkpoint(self, tmp_path, store_server, reference):
        """Plan 6: a worker dies after persisting queue leases but before
        running them; a reclaiming peer takes the cells over."""
        backend_url = store_server.url
        faults.install_plan(
            FaultPlan.of(
                FaultRule(site="queue.pull", action="error", match="doomed"),
                name="death-after-pull",
            )
        )
        doomed = BenchmarkRunner(
            horizon=HORIZON,
            manifest_path="chaos.json",
            store=ObjectStoreBackend(backend_url),
            worker_id="doomed",
            steal=True,
            verbose=False,
        )
        with pytest.raises(InjectedFault):
            doomed.run(_datasets(), _toolkits())
        # The grants are durable but orphaned: nothing requeued them.
        backend = ObjectStoreBackend(backend_url)
        queue = json.loads(backend.read_doc("chaos.json.queue.json"))
        running = [entry for entry in queue["entries"] if entry["state"] == "running"]
        assert running and {entry["worker"] for entry in running} == {"doomed"}
        # Age them out and let a rescuer reclaim and finish the matrix.
        for entry in running:
            entry["claimed_at"] -= 3600.0
            entry["heartbeat"] -= 3600.0
        backend.write_doc("chaos.json.queue.json", json.dumps(queue))
        faults.clear_plan()
        BenchmarkRunner(
            horizon=HORIZON,
            manifest_path="chaos.json",
            store=backend,
            worker_id="rescuer",
            steal=True,
            reclaim_stale=60.0,
            verbose=False,
        ).run(_datasets(), _toolkits())
        assert _normalized(backend.read_doc("chaos.json")) == reference
        events = json.loads(backend.read_doc("chaos.json.queue.json"))["events"]
        assert any(
            event.get("kind") == "steal"
            and event.get("mode") == "reclaim"
            and event.get("from") == "doomed"
            for event in events
        )

    def test_fault_free_run_with_inert_plan_matches_reference(self, tmp_path, reference):
        """An installed plan whose rules never fire must change nothing."""
        faults.install_plan(
            FaultPlan.of(
                FaultRule(site="store.server.request", action="http_503", count=None),
                name="inert-without-a-store",
            )
        )
        manifest = tmp_path / "inert.json"
        BenchmarkRunner(
            horizon=HORIZON, manifest_path=str(manifest), verbose=False
        ).run(_datasets(), _toolkits())
        assert _normalized(manifest.read_text(encoding="utf-8")) == reference


class TestFaultPlanCLI:
    def test_cli_activates_a_plan_and_still_succeeds(self, tmp_path, capsys):
        from repro.benchmarking.__main__ import main

        plan_path = tmp_path / "plan.json"
        FaultPlan.of(
            FaultRule(site="store.server.request", action="http_503", count=1),
            name="cli-smoke",
        ).dump(plan_path)
        assert (
            main(
                [
                    "--suite", "tiny",
                    "--manifest", str(tmp_path / "cli.json"),
                    "--fault-plan", str(plan_path),
                    "--quiet",
                ]
            )
            == 0
        )
        assert "CHAOS" in capsys.readouterr().err
        assert faults.active_injector() is not None  # plan was installed

    def test_cli_rejects_an_unreadable_plan(self, tmp_path, capsys):
        from repro.benchmarking.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        assert main(["--suite", "tiny", "--fault-plan", str(bad)]) == 2
        assert "cannot load fault plan" in capsys.readouterr().err
