"""Tests for the self-healing layer: retry, breaker, fault injection.

Covers the :mod:`repro.resilience` primitives in isolation (bounded
backoff math, the breaker automaton under an injected clock), the
:mod:`repro.faults` plan/injector machinery (deterministic windows,
serialization, site seams), and the healing behaviours they exist to
exercise: the object-store transport absorbing injected faults and 503
bursts, the circuit breaker degrading a down store to fast misses, lane
reconnect and at-least-once task resubmission in the remote executor,
and the concurrent stale-lease reclaim race on the work queue.
"""

import json
import logging
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.benchmarking import CellCostModel, CellQueue, entry_key
from repro.exec import FitScoreTask, RemoteExecutor, run_fit_score_task
from repro.exec.remote import WorkerServer
from repro.faults import FaultInjector, FaultPlan, FaultRule, InjectedFault, garble
from repro.forecasters.naive import DriftForecaster
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.store import (
    CircuitOpenError,
    LocalFSBackend,
    ObjectStoreBackend,
    StoreError,
)
from repro.store.digest import array_digest
from repro.store.server import StoreServer


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Fault plans are process-global: never let one leak across tests."""
    faults.clear_plan()
    yield
    faults.clear_plan()


@pytest.fixture()
def store_server(tmp_path):
    server = StoreServer(tmp_path / "server-root")
    server.serve_in_background()
    yield server
    server.close()


# Snappy transport tuning for tests: full budget spent in milliseconds.
_FAST = RetryPolicy(attempts=3, base_backoff=0.005, max_backoff=0.02)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=-1.0)

    def test_backoff_grows_and_clamps_without_jitter(self):
        policy = RetryPolicy(attempts=6, base_backoff=0.1, max_backoff=0.5, jitter=False)
        assert [policy.backoff(k) for k in range(5)] == [0.1, 0.2, 0.4, 0.5, 0.5]
        assert policy.retries == 5

    def test_jitter_draws_within_the_envelope(self):
        import random

        policy = RetryPolicy(attempts=4, base_backoff=0.1, max_backoff=1.0)
        rng = random.Random(7)
        draws = [policy.backoff(2, rng) for _ in range(50)]
        assert all(0.0 <= draw <= 0.4 for draw in draws)
        assert len(set(draws)) > 1  # actually jittered

    def test_seeded_rng_makes_backoff_reproducible(self):
        import random

        policy = RetryPolicy(attempts=4, base_backoff=0.1)
        first = [policy.backoff(k, random.Random(3)) for k in range(3)]
        second = [policy.backoff(k, random.Random(3)) for k in range(3)]
        assert first == second


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_and_short_circuits(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_after=5.0, clock=clock)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"  # one blip is not an outage
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.stats().short_circuits == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe_then_closes_on_success(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 6.0
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else still refused
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_reopens_for_another_cooldown(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after=5.0, clock=clock)
        breaker.record_failure()
        clock.now = 6.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        clock.now = 10.0  # cooldown restarted at 6.0, not elapsed yet
        assert not breaker.allow()
        clock.now = 11.5
        assert breaker.allow()
        assert breaker.stats().opens == 2


class TestFaultPlans:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(site="x", action="meltdown")
        with pytest.raises(ValueError):
            FaultRule(site="", action="error")
        with pytest.raises(ValueError):
            FaultRule(site="x", action="error", count=0)
        with pytest.raises(ValueError):
            FaultRule(site="x", action="error", probability=0.0)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.of(
            FaultRule(site="store.server.request", action="http_503", count=3),
            FaultRule(site="remote.server.task", action="stall", seconds=0.5, after=2),
            FaultRule(site="manifest.claim", action="error", match="w1", count=None),
            seed=42,
            name="burst-then-stall",
        )
        path = tmp_path / "plan.json"
        plan.dump(path)
        assert FaultPlan.load(path) == plan
        assert plan.sites() == [
            "manifest.claim",
            "remote.server.task",
            "store.server.request",
        ]

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json(
                json.dumps({"rules": [{"site": "x", "action": "error", "color": "red"}]})
            )

    def test_after_and_count_open_a_deterministic_window(self):
        injector = FaultInjector(
            FaultPlan.of(FaultRule(site="s", action="error", after=2, count=2))
        )
        fired = [injector.fire("s") is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]

    def test_match_filters_on_the_detail_string(self):
        injector = FaultInjector(
            FaultPlan.of(FaultRule(site="s", action="error", match="worker-2", count=None))
        )
        assert injector.fire("s", detail="worker-1") is None
        assert injector.fire("s", detail="worker-2") is not None

    def test_exhausted_rule_stops_shadowing_later_rules(self):
        injector = FaultInjector(
            FaultPlan.of(
                FaultRule(site="s", action="stall", seconds=0.0, count=1),
                FaultRule(site="s", action="error", count=1),
            )
        )
        assert injector.fire("s").action == "stall"
        assert injector.fire("s").action == "error"
        assert injector.fire("s") is None

    def test_probability_is_seed_deterministic(self):
        plan = FaultPlan.of(
            FaultRule(site="s", action="error", probability=0.5, count=None), seed=9
        )

        def sequence() -> list[bool]:
            injector = FaultInjector(plan)
            return [injector.fire("s") is not None for _ in range(20)]

        first, second = sequence(), sequence()
        assert first == second
        assert True in first and False in first  # the gate actually gates

    def test_module_seams_no_plan_is_a_noop(self):
        assert faults.fire("anything") is None
        faults.check("anything")  # must not raise

    def test_install_fire_and_clear(self):
        faults.install_plan(FaultPlan.of(FaultRule(site="s", action="error")))
        with pytest.raises(InjectedFault):
            faults.check("s")
        faults.clear_plan()
        faults.check("s")

    def test_stall_is_handled_centrally(self):
        faults.install_plan(
            FaultPlan.of(FaultRule(site="s", action="stall", seconds=0.05))
        )
        start = time.perf_counter()
        assert faults.fire("s") is None  # slept, then reported clean
        assert time.perf_counter() - start >= 0.04

    def test_garble_changes_bytes_and_keeps_length(self):
        payload = b"\x93NUMPY...rest-of-the-payload"
        broken = garble(payload)
        assert broken != payload and len(broken) == len(payload)
        assert garble(b"") == b""


class TestStoreTransportHealing:
    def test_retry_absorbs_injected_transport_faults(self, store_server):
        backend = ObjectStoreBackend(store_server.url, retry_policy=_FAST)
        faults.install_plan(
            FaultPlan.of(FaultRule(site="store.client.request", action="error", count=2))
        )
        backend.write_doc("healed.json", "alive")
        assert backend.read_doc("healed.json") == "alive"
        stats = backend.transport_stats
        assert stats.retries >= 2 and stats.exhausted == 0
        assert stats.breaker.state == "closed"

    def test_503_burst_absorbed_by_retry(self, store_server):
        backend = ObjectStoreBackend(store_server.url, retry_policy=_FAST)
        faults.install_plan(
            FaultPlan.of(FaultRule(site="store.server.request", action="http_503", count=2))
        )
        backend.write_doc("burst.json", "hello")
        assert backend.read_doc("burst.json") == "hello"
        assert backend.transport_stats.retries >= 2

    def test_persistent_503_surfaces_after_the_budget(self, store_server):
        backend = ObjectStoreBackend(store_server.url, retry_policy=_FAST)
        faults.install_plan(
            FaultPlan.of(
                FaultRule(site="store.server.request", action="http_503", count=None)
            )
        )
        with pytest.raises(StoreError):
            backend.write_doc("never.json", "x")
        assert backend.transport_stats.exhausted == 1

    def test_breaker_opens_after_exhausted_requests_then_recovers(self, store_server):
        backend = ObjectStoreBackend(
            store_server.url,
            retry_policy=RetryPolicy(attempts=2, base_backoff=0.0, jitter=False),
            breaker_failures=2,
            breaker_reset_after=0.15,
        )
        faults.install_plan(
            FaultPlan.of(FaultRule(site="store.client.request", action="error", count=4))
        )
        assert backend.get("e" * 40) is None  # budget exhausted -> miss
        assert backend.get("e" * 40) is None  # second exhaustion trips it
        stats = backend.transport_stats
        assert stats.exhausted == 2 and stats.breaker.state == "open"
        # Open circuit: refused in microseconds, degrades like any miss.
        with pytest.raises(CircuitOpenError):
            backend._request("GET", "/healthz")
        start = time.perf_counter()
        assert backend.get("e" * 40) is None
        assert time.perf_counter() - start < 0.05
        assert backend.transport_stats.breaker.short_circuits >= 2
        # After the cooldown one half-open probe tests recovery.
        time.sleep(0.2)
        faults.clear_plan()
        assert backend.healthy()
        assert backend.transport_stats.breaker.state == "closed"

    def test_corrupt_blob_payload_is_never_served(self, store_server):
        backend = ObjectStoreBackend(store_server.url, retry_policy=_FAST)
        array = np.arange(64.0)
        digest = array_digest(array)
        assert backend.put_blob(digest, array)
        faults.install_plan(
            FaultPlan.of(FaultRule(site="store.client.blob", action="corrupt", count=1))
        )
        assert backend.get_blob(digest) is None  # refused, not returned corrupt
        faults.clear_plan()
        assert backend.put_blob(digest, array)
        loaded = backend.get_blob(digest)
        assert loaded is not None and np.array_equal(loaded, array)

    def test_partition_during_conditional_put_grants_exactly_once(self, store_server):
        queue = CellQueue(
            "runs/m.json.queue.json",
            "fp",
            backend=ObjectStoreBackend(store_server.url, retry_policy=_FAST),
            worker="solo",
        )
        queue.seed(_one_cell_plan())
        faults.install_plan(
            FaultPlan.of(FaultRule(site="store.server.doc_put", action="drop", count=1))
        )
        granted = queue.pull()
        assert [entry_key(entry) for entry in granted] == [("d1", "t1", None)]
        record = json.loads(queue.backend.read_doc(queue.doc_name))
        running = [entry for entry in record["entries"] if entry["state"] == "running"]
        assert len(running) == 1  # applied once, despite the lost ack
        assert running[0]["worker"] == "solo"
        assert queue.pull() == []  # and never granted twice

    def test_backend_pickles_without_runtime_state(self, store_server):
        import pickle

        backend = ObjectStoreBackend(store_server.url, breaker_failures=7)
        backend.write_doc("p.json", "x")  # populate pool and counters
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.breaker_failures == 7
        assert clone.transport_stats.requests == 0  # fresh runtime per process
        assert clone.read_doc("p.json") == "x"


def _chaos_square(x):
    return x * x


class TestRemoteHealing:
    def _executor(self, *addresses, **kwargs) -> RemoteExecutor:
        kwargs.setdefault(
            "retry_policy", RetryPolicy(attempts=3, base_backoff=0.02, max_backoff=0.1)
        )
        return RemoteExecutor(list(addresses), **kwargs)

    def test_crashed_worker_resubmits_in_flight_task_to_survivor(self):
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
                    )
                )
            )
            executor = self._executor(crash_address, "%s:%d" % survivor.address)
            outcomes = executor.map_tasks(_chaos_square, list(range(8)))
            assert [o.value for o in outcomes] == [x * x for x in range(8)]
            resubmitted = [o for o in outcomes if o.retried_on]
            assert len(resubmitted) == 1
            assert resubmitted[0].retried_on == (crash_address,)
        finally:
            crash.close()
            survivor.close()

    def test_dropped_connection_reconnects_to_the_same_worker(self):
        server = WorkerServer()
        server.serve_in_background()
        address = "%s:%d" % server.address
        try:
            faults.install_plan(
                FaultPlan.of(
                    FaultRule(site="remote.server.task", action="drop", after=1, count=1)
                )
            )
            outcomes = self._executor(address).map_tasks(_chaos_square, [1, 2, 3])
            assert [o.value for o in outcomes] == [1, 4, 9]
            # The dropped task healed by reconnecting to the same worker.
            assert [o.retried_on for o in outcomes].count((address,)) == 1
        finally:
            server.close()

    def test_garbled_outcome_frame_is_retried(self):
        server = WorkerServer()
        server.serve_in_background()
        try:
            faults.install_plan(
                FaultPlan.of(FaultRule(site="remote.server.task", action="corrupt", count=1))
            )
            outcomes = self._executor("%s:%d" % server.address).map_tasks(
                _chaos_square, [5, 6]
            )
            assert [o.value for o in outcomes] == [25, 36]
            assert sum(1 for o in outcomes if o.retried_on) == 1
        finally:
            server.close()

    def test_resubmission_cap_bounds_the_retries(self):
        server = WorkerServer()
        server.serve_in_background()
        try:
            faults.install_plan(
                FaultPlan.of(FaultRule(site="remote.server.task", action="drop", count=None))
            )
            executor = self._executor("%s:%d" % server.address, max_task_retries=1)
            outcomes = executor.map_tasks(_chaos_square, [4])
            assert outcomes[0].value is None and "died" in outcomes[0].error
            # Tried once, resubmitted once: the cap held.
            assert len(outcomes[0].retried_on) == 2
        finally:
            server.close()

    def test_worker_refuses_blob_whose_payload_fails_its_digest(self):
        server = WorkerServer()
        try:
            base = np.arange(64.0)
            digest = array_digest(base)
            payload = np.ascontiguousarray(base).tobytes()
            reply = server._handle_blob(
                ("blob_put", digest, base.shape, base.dtype.str, garble(payload))
            )
            assert reply == ("blob_state", digest, False)
            reply = server._handle_blob(
                ("blob_put", digest, base.shape, base.dtype.str, payload)
            )
            assert reply == ("blob_state", digest, True)
        finally:
            server.close()

    def test_corrupt_blob_push_heals_on_reconnect(self):
        server = WorkerServer()
        server.serve_in_background()
        try:
            faults.install_plan(
                FaultPlan.of(
                    FaultRule(site="remote.lane.blob_put", action="corrupt", count=1)
                )
            )
            executor = self._executor("%s:%d" % server.address)
            plane = executor.create_dataplane()
            base = np.arange(2000.0).reshape(-1, 1)
            ref = plane.register(base)
            outcomes = executor.map_tasks(
                run_fit_score_task,
                [
                    FitScoreTask(
                        tag=0,
                        template=DriftForecaster(horizon=4),
                        train=ref[:1600],
                        test=ref[1600:],
                        horizon=4,
                    )
                ],
            )
            assert outcomes[0].ok, outcomes[0].error
            plane.close()
        finally:
            server.close()

    def test_garbage_session_logs_a_structured_warning(self, caplog):
        server = WorkerServer()
        server.serve_in_background()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.exec.remote"):
                sock = socket.create_connection(server.address, timeout=2.0)
                sock.sendall(struct.pack(">I", 8) + b"notapick")
                try:
                    assert sock.recv(1) == b""  # server dropped the session
                except OSError:
                    pass
                sock.close()
                deadline = time.time() + 2.0
                while time.time() < deadline and not any(
                    "dropping session" in record.getMessage()
                    for record in caplog.records
                ):
                    time.sleep(0.01)
            dropped = [
                record.getMessage()
                for record in caplog.records
                if "dropping session" in record.getMessage()
            ]
            assert dropped, "expected a structured session-drop warning"
            assert "127.0.0.1" in dropped[0]  # names the peer, not just 'a client'
            assert "UnpicklingError" in dropped[0]
        finally:
            server.close()


def _one_cell_plan() -> list[dict]:
    toolkits = {"t1": None}
    return CellCostModel({"d1": np.zeros(10)}, toolkits).plan_entries(
        [("d1", "t1")], toolkits, split_threshold=None
    )


def _age_leases(backend, doc_name: str, seconds: float) -> None:
    """Rewind every running lease in a queue document."""
    record = json.loads(backend.read_doc(doc_name))
    for entry in record["entries"]:
        if entry["state"] == "running":
            entry["claimed_at"] -= seconds
            entry["heartbeat"] -= seconds
    backend.write_doc(doc_name, json.dumps(record))


class TestConcurrentStaleReclaim:
    """Two rescuers race a CAS reclaim: exactly one wins, the loser
    re-derives cleanly — on both backends."""

    @pytest.fixture(params=["localfs", "objectstore"])
    def backend(self, request, tmp_path, store_server):
        if request.param == "localfs":
            return LocalFSBackend(tmp_path / "local-root")
        return ObjectStoreBackend(store_server.url)

    def _queue(self, backend, tmp_path, worker, **kwargs) -> CellQueue:
        return CellQueue(
            str(tmp_path / "m.json.queue.json"),
            "fp",
            backend=backend,
            worker=worker,
            **kwargs,
        )

    def test_exactly_one_rescuer_wins_the_reclaim(self, backend, tmp_path):
        dead = self._queue(backend, tmp_path, "dead")
        dead.seed(_one_cell_plan())
        assert len(dead.pull()) == 1
        _age_leases(backend, dead.doc_name, 3600.0)

        barrier = threading.Barrier(2)
        winners: dict[str, list] = {}
        errors: list = []

        def rescue(name: str) -> None:
            try:
                queue = self._queue(backend, tmp_path, name, reclaim_stale=60.0)
                barrier.wait(timeout=10.0)
                winners[name] = queue.pull()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=rescue, args=(name,)) for name in ("r1", "r2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert not errors
        grants = [grant for grant in winners.values() if grant]
        assert len(grants) == 1 and len(grants[0]) == 1
        assert grants[0][0]["stolen_from"] == ["dead"]

        record = json.loads(backend.read_doc(dead.doc_name))
        winner = next(name for name, grant in winners.items() if grant)
        (entry,) = record["entries"]
        assert entry["worker"] == winner
        assert entry["stolen_from"] == ["dead"]  # one takeover, no duplicates
        steals = [event for event in record["events"] if event["kind"] == "steal"]
        assert len(steals) == 1 and steals[0]["from"] == "dead"
