"""Tests for the cost-aware work-stealing scheduler.

Covers the scheduler's seams: the structural cost model (units, LPT
order, online rates, split planning, T-Daub cost projection), the CAS
cell queue (seed idempotence, exactly-once leasing under concurrent
pulls on both store backends, merge gating, requeue/abandon, both steal
modes, in-cell heartbeat beacons), the runner's stealing path (manifest
byte-identity with a plain run, split-cell merge determinism on both
backends, a late-joining worker that steals), and the scheduler
provenance rendering.
"""

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.benchmarking import (
    BenchmarkRunner,
    CellCostModel,
    CellQueue,
    entry_key,
    pipeline_count,
    render_shard_provenance,
    split_factories,
)
from repro.benchmarking.costmodel import MAX_SPLIT_PARTS, project_cost_curve
from repro.core import TDaub
from repro.core.base import BaseForecaster
from repro.forecasters.naive import DriftForecaster, ZeroModelForecaster
from repro.store import LocalFSBackend, ObjectStoreBackend, StoreBackend
from repro.store.server import StoreServer


@pytest.fixture()
def store_server(tmp_path):
    server = StoreServer(tmp_path / "server-root")
    server.serve_in_background()
    yield server
    server.close()


@pytest.fixture(params=["localfs", "objectstore"])
def backend(request, tmp_path, store_server) -> StoreBackend:
    if request.param == "localfs":
        return LocalFSBackend(tmp_path / "local-root")
    return ObjectStoreBackend(store_server.url)


# -- toolkit fixtures ----------------------------------------------------------


def _drift(horizon: int) -> DriftForecaster:
    return DriftForecaster(horizon=horizon)


def _zero(horizon: int) -> ZeroModelForecaster:
    return ZeroModelForecaster(horizon=horizon)


class MarkerToolkit(BaseForecaster):
    """Deterministic drift fit whose work is a set of cacheable markers.

    ``part=(k, n)`` instances touch only every n-th marker — the disjoint
    work shares the split protocol runs concurrently — while the full
    toolkit touches all of them.  The forecast depends only on the
    training data, so marker (cache) state never shows in results.
    """

    def __init__(
        self, record_root: str = "", part=None, wave_delay: float = 0.0, horizon: int = 1
    ):
        self.record_root = record_root
        self.part = part
        self.wave_delay = wave_delay
        self.horizon = horizon

    def fit(self, X, y=None) -> "MarkerToolkit":
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        waves = max(len(X) // 25, 1)
        indices = range(waves)
        if self.part is not None:
            index, n_parts = self.part
            indices = [w for w in indices if w % int(n_parts) == int(index)]
        root = Path(self.record_root)
        for wave in indices:
            marker = root / f"wave-{len(X)}-{wave}.marker"
            if not marker.exists() and self.wave_delay:
                time.sleep(float(self.wave_delay))
            marker.touch()
        self.level_ = X[-1]
        self.slope_ = (X[-1] - X[0]) / max(len(X) - 1, 1)
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        steps = int(horizon if horizon is not None else self.horizon)
        offsets = np.arange(1, steps + 1, dtype=float).reshape(-1, 1)
        return self.level_.reshape(1, -1) + offsets * self.slope_.reshape(1, -1)


class MarkerPartFactory:
    def __init__(self, record_root: str, index: int, n_parts: int, wave_delay: float = 0.0):
        self.record_root = record_root
        self.index = int(index)
        self.n_parts = int(n_parts)
        self.wave_delay = wave_delay

    def __call__(self, horizon: int) -> MarkerToolkit:
        return MarkerToolkit(
            record_root=self.record_root,
            part=(self.index, self.n_parts),
            wave_delay=self.wave_delay,
            horizon=horizon,
        )


class SplittableFactory:
    """Splittable factory advertising an AutoAI-like pipeline count."""

    pipeline_count = 10

    def __init__(self, record_root: str = "", max_parts: int = 4, wave_delay: float = 0.0):
        self.record_root = record_root
        self.max_parts = int(max_parts)
        self.wave_delay = wave_delay

    def __call__(self, horizon: int) -> MarkerToolkit:
        return MarkerToolkit(
            record_root=self.record_root, wave_delay=self.wave_delay, horizon=horizon
        )

    def split_parts(self, n_parts: int) -> list:
        n_parts = max(2, min(int(n_parts), self.max_parts))
        return [
            MarkerPartFactory(self.record_root, index, n_parts, wave_delay=self.wave_delay)
            for index in range(n_parts)
        ]


class SlowToolkit(BaseForecaster):
    """Drift fit that blocks, for timing-sensitive membership tests."""

    def __init__(self, delay: float = 0.05, horizon: int = 1):
        self.delay = delay
        self.horizon = horizon

    def fit(self, X, y=None) -> "SlowToolkit":
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        time.sleep(float(self.delay))
        self.level_ = X[-1]
        self.slope_ = (X[-1] - X[0]) / max(len(X) - 1, 1)
        return self

    def predict(self, horizon: int | None = None) -> np.ndarray:
        steps = int(horizon if horizon is not None else self.horizon)
        offsets = np.arange(1, steps + 1, dtype=float).reshape(-1, 1)
        return self.level_.reshape(1, -1) + offsets * self.slope_.reshape(1, -1)


def _suite(long: int = 400, short: int = 100) -> dict[str, np.ndarray]:
    t_long = np.arange(float(long))
    t_short = np.arange(float(short))
    return {
        "long": 10.0 + 0.5 * t_long,
        "a": 5.0 + 0.2 * t_short,
        "b": 50.0 - 0.1 * t_short,
    }


# -- cost model ----------------------------------------------------------------


class TestCostModel:
    def test_pipeline_count_defaults_and_bounds(self):
        assert pipeline_count(_drift) == 1
        assert pipeline_count(SplittableFactory()) == 10

        class Zero:
            pipeline_count = 0

        class Junk:
            pipeline_count = "many"

        assert pipeline_count(Zero()) == 1
        assert pipeline_count(Junk()) == 1

    def test_units_scale_with_samples_columns_pipelines(self):
        datasets = {"u": np.zeros(100), "m": np.zeros((100, 3))}
        model = CellCostModel(datasets, {"plain": _drift, "auto": SplittableFactory()})
        assert model.units("u", "plain") == 100.0
        assert model.units("m", "plain") == 300.0
        assert model.units("u", "auto") == 1000.0
        # No observations: rate 1.0, estimates are relative structural sizes.
        assert model.estimate("m", "auto") == 3000.0

    def test_rate_median_fallback_and_ema_observation(self):
        model = CellCostModel({}, {}, rates={"A": 2.0, "B": 4.0})
        assert model.rate("A") == 2.0
        assert model.rate("unseen") == 3.0  # median of known peers
        model.observe("C", units=100.0, seconds=50.0)
        assert model.rates["C"] == 0.5  # first sample taken verbatim
        model.observe("C", units=100.0, seconds=150.0)
        assert model.rates["C"] == pytest.approx(1.0)  # EMA(0.5, 1.5)
        # Junk observations are ignored.
        model.observe("C", units=0.0, seconds=10.0)
        model.observe("C", units=10.0, seconds=float("nan"))
        assert model.rates["C"] == pytest.approx(1.0)

    def test_lpt_order_is_stable_on_ties(self):
        datasets = {"big": np.zeros(300), "s1": np.zeros(100), "s2": np.zeros(100)}
        model = CellCostModel(datasets, {"t": _drift})
        cells = [("s1", "t"), ("s2", "t"), ("big", "t")]
        assert model.order(cells) == [("big", "t"), ("s1", "t"), ("s2", "t")]

    def test_plan_entries_splits_only_splittable_long_poles(self):
        datasets = _suite()
        toolkits = {"auto": SplittableFactory(max_parts=4), "plain": _drift}
        model = CellCostModel(datasets, toolkits)
        entries = model.plan_entries(
            [(d, t) for d in datasets for t in toolkits], toolkits, split_threshold=2.0
        )
        by_kind = {}
        for entry in entries:
            by_kind.setdefault(entry["kind"], []).append(entry)
        # ("long","auto") = 4000 units is the only cell above 2x the median
        # (700); estimate/threshold = ceil(4000/1400) asks for 3 parts.
        split = {(e["dataset"], e["toolkit"]) for e in by_kind.get("part", [])}
        assert split == {("long", "auto")}
        parts = by_kind["part"]
        assert len(parts) == 3
        assert all(e["units"] == pytest.approx(4000.0 / 3) for e in parts)
        merges = by_kind["merge"]
        assert len(merges) == 1
        # The merge replays a warmed cell: costed like one part, not the cell.
        assert merges[0]["units"] == pytest.approx(4000.0 / 3)
        # Entries come out LPT: the split cell's parts lead the queue.
        assert entries[0]["kind"] == "part"
        # Disabled thresholds plan whole cells only.
        flat = model.plan_entries(
            [(d, t) for d in datasets for t in toolkits], toolkits, split_threshold=None
        )
        assert {e["kind"] for e in flat} == {"cell"}

    def test_plan_entries_caps_requested_parts(self):
        datasets = {"huge": np.zeros(100_000)}
        datasets.update({f"tiny{i}": np.zeros(10) for i in range(8)})
        toolkits = {"auto": SplittableFactory(max_parts=64)}
        model = CellCostModel(datasets, toolkits)
        entries = model.plan_entries(
            [(d, "auto") for d in datasets], toolkits, split_threshold=2.0
        )
        # The huge cell asks for est/threshold ≈ 5000 parts; the planner
        # caps the request at MAX_SPLIT_PARTS before consulting the factory.
        parts = [e for e in entries if e["kind"] == "part"]
        assert len(parts) == MAX_SPLIT_PARTS

    def test_project_cost_curve(self):
        # Linear curve: 0.01 s per sample, projected to 1000 samples.
        assert project_cost_curve([100, 200, 300], [1.0, 2.0, 3.0], 1000) == pytest.approx(
            10.0
        )
        assert project_cost_curve([100], [1.0], 1000) is None
        assert project_cost_curve([], [], 1000) is None
        # A projection never undercuts what was already spent.
        assert project_cost_curve([100, 200], [5.0, 5.0], 50) == pytest.approx(5.0)


# -- cell queue ----------------------------------------------------------------


def _plan(datasets=None, toolkits=None, split_threshold=None):
    datasets = datasets if datasets is not None else _suite()
    toolkits = toolkits if toolkits is not None else {"drift": _drift, "zero": _zero}
    model = CellCostModel(datasets, toolkits)
    cells = [(d, t) for d in datasets for t in toolkits]
    return model.plan_entries(cells, toolkits, split_threshold=split_threshold)


def _doc(backend, tmp_path, name: str) -> str:
    """A per-test document name valid for either backend.

    Local documents resolve against the filesystem directly (historical
    path semantics), so they must live under ``tmp_path``; object-store
    documents are naturally namespaced by the per-test server root.
    """
    if isinstance(backend, LocalFSBackend):
        return str(tmp_path / name)
    return f"runs/{name}"


@pytest.fixture()
def queue_doc(backend, tmp_path) -> str:
    return _doc(backend, tmp_path, "m.json.queue.json")


def _queue(backend, worker, doc="", **kwargs) -> CellQueue:
    return CellQueue(doc, "fp", backend=backend, worker=worker, **kwargs)


def _age_entries(backend, doc, seconds: float) -> None:
    """Backdate every running entry's lease, as if its worker froze."""
    record = json.loads(backend.read_doc(doc))
    for entry in record["entries"]:
        if entry["state"] == "running":
            entry["claimed_at"] -= seconds
            entry["heartbeat"] -= seconds
    backend.update_doc(doc, lambda _text: json.dumps(record))


class TestCellQueue:
    def test_seed_first_worker_wins(self, backend, queue_doc):
        one = _queue(backend, "one", queue_doc)
        two = _queue(backend, "two", queue_doc)
        assert not one.exists()
        assert one.seed(_plan())
        assert one.exists()
        # A joining worker's seed adopts the in-flight plan, not replaces it.
        rival_plan = _plan({"other": np.zeros(10)}, {"drift": _drift})
        assert not two.seed(rival_plan)
        snapshot = two.snapshot()
        assert len(snapshot["entries"]) == 6
        assert {e["dataset"] for e in snapshot["entries"]} == {"long", "a", "b"}

    def test_pull_is_lpt_ordered(self, backend, queue_doc):
        queue = _queue(backend, "w", queue_doc)
        queue.seed(_plan())
        seen = []
        while True:
            granted = queue.pull()
            if not granted:
                break
            seen.append((granted[0]["dataset"], granted[0]["toolkit"]))
            queue.complete(granted[0], seconds=0.0)
        assert len(seen) == 6
        # The two "long" cells (400 units each) lead; ties stay in seq order.
        assert seen[:2] == [("long", "drift"), ("long", "zero")]

    def test_concurrent_pulls_grant_exactly_once(self, backend, queue_doc):
        import pickle

        seeder = _queue(backend, "seeder", queue_doc)
        seeder.seed(_plan())
        grants: dict[str, list[tuple]] = {}
        errors: list[BaseException] = []

        def drain(name: str) -> None:
            # Per-thread backend clone: real workers never share a connection.
            queue = _queue(pickle.loads(pickle.dumps(backend)), name, queue_doc)
            mine = grants.setdefault(name, [])
            try:
                while True:
                    granted = queue.pull()
                    if not granted:
                        break
                    for entry in granted:
                        mine.append(entry_key(entry))
                        queue.complete(entry, seconds=0.0)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drain, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        everything = [key for keys in grants.values() for key in keys]
        assert len(everything) == 6
        assert len(set(everything)) == 6  # no double-grants
        counts = _queue(backend, "reader", queue_doc).counts()
        assert counts == {"pending": 0, "running": 0, "done": 6, "abandoned": 0}

    def test_merge_waits_for_sibling_parts(self, backend, queue_doc):
        toolkits = {"auto": SplittableFactory(max_parts=2)}
        datasets = {"long": np.arange(400.0), "a": np.arange(100.0)}
        queue = _queue(backend, "w", queue_doc)
        queue.seed(
            CellCostModel(datasets, toolkits).plan_entries(
                [("long", "auto"), ("a", "auto")], toolkits, split_threshold=1.1
            )
        )
        parts = []
        while True:
            granted = queue.pull()
            if not granted:
                break
            entry = granted[0]
            if entry["kind"] == "merge":
                # Both parts must have settled before the merge is granted.
                assert all(p["state"] == "done" for p in _settled(queue, "part"))
                queue.complete(entry, seconds=0.0)
            elif entry["kind"] == "part":
                parts.append(entry)
                if len(parts) == 2:
                    for part in parts:
                        queue.complete(part, seconds=0.0)
            else:
                queue.complete(entry, seconds=0.0)
        counts = queue.counts()
        assert counts["done"] == 4 and counts["pending"] == 0

    def test_requeue_returns_then_abandons(self, backend, queue_doc):
        queue = _queue(backend, "w", queue_doc, max_attempts=2)
        queue.seed(_plan({"a": np.zeros(10)}, {"drift": _drift}))
        entry = queue.pull()[0]
        assert queue.requeue(entry)  # attempt 1: back to pending
        entry = queue.pull()[0]
        assert entry["attempts"] == 1
        assert not queue.requeue(entry)  # attempt 2: abandoned
        assert queue.counts()["abandoned"] == 1
        assert queue.pull() == []

    def test_stale_running_entry_is_reclaimed_as_steal(self, backend, queue_doc):
        victim = _queue(backend, "victim", queue_doc)
        victim.seed(_plan({"a": np.zeros(10)}, {"drift": _drift}))
        held = victim.pull()[0]
        fresh_rival = _queue(backend, "rival", queue_doc, reclaim_stale=1000.0)
        assert fresh_rival.pull() == []  # a fresh lease is never stolen
        _age_entries(backend, victim.doc_name, 30.0)
        conservative = _queue(backend, "peer", queue_doc)
        assert conservative.pull() == []  # no threshold: aged leases stay blocked
        rival = _queue(backend, "rival", queue_doc, reclaim_stale=0.5)
        stolen = rival.pull()
        assert [entry_key(e) for e in stolen] == [entry_key(held)]
        assert stolen[0]["stolen_from"] == ["victim"]
        stats = rival.scheduler_stats()
        assert stats["steals"] == 1
        assert stats["workers"]["rival"]["stolen"] == 1
        assert stats["events"][-1]["mode"] == "reclaim"
        # The victim's late completion is rejected; the thief's stands.
        assert not victim.complete(held, seconds=1.0)
        assert rival.complete(stolen[0], seconds=1.0)

    def test_pulling_a_running_cells_part_is_a_split_steal(self, backend, queue_doc):
        toolkits = {"auto": SplittableFactory(max_parts=2)}
        datasets = {"long": np.arange(400.0), "a": np.arange(100.0)}
        first = _queue(backend, "first", queue_doc)
        first.seed(
            CellCostModel(datasets, toolkits).plan_entries(
                [("long", "auto"), ("a", "auto")], toolkits, split_threshold=1.1
            )
        )
        mine = first.pull()[0]
        assert mine["kind"] == "part"
        joiner = _queue(backend, "joiner", queue_doc)
        theirs = joiner.pull()[0]
        assert theirs["kind"] == "part"
        assert (theirs["dataset"], theirs["toolkit"]) == ("long", "auto")
        assert theirs["stolen_from"] == ["first"]
        stats = joiner.scheduler_stats()
        assert stats["workers"]["joiner"]["stolen"] == 1
        assert stats["events"][-1]["mode"] == "split"

    def test_lost_cas_reply_regrant_is_adopted(self, backend, queue_doc):
        queue = _queue(backend, "w", queue_doc)
        queue.seed(_plan({"a": np.zeros(10)}, {"drift": _drift}))
        entry = queue.pull()[0]
        # Simulate a lost CAS reply: the lease is in the doc under our
        # token, but this process never learned it was granted.
        queue._active.clear()
        again = queue.pull()
        assert [entry_key(e) for e in again] == [entry_key(entry)]
        assert again[0]["attempts"] == entry["attempts"]  # adopted, not re-leased
        # Names are labels, not credentials: a same-named imposter is denied.
        assert _queue(backend, "w", queue_doc).pull() == []

    def test_beacon_refreshes_heartbeat_and_refines_cost(self, backend, queue_doc):
        queue = _queue(backend, "w", queue_doc)
        queue.seed(_plan())
        entry = queue.pull()[0]
        _age_entries(backend, queue.doc_name, 30.0)
        beacon = queue.beacon(entry, interval=0.0)
        beacon()
        snapshot = queue.snapshot()
        ours = next(e for e in snapshot["entries"] if entry_key(e) == entry_key(entry))
        assert time.time() - ours["heartbeat"] < 5.0
        # A rival that would have stolen the aged lease now finds it fresh.
        rival = _queue(backend, "rival", queue_doc, reclaim_stale=10.0)
        rival_granted = rival.pull()
        assert all(entry_key(e) != entry_key(entry) for e in rival_granted)
        # A T-Daub projection refines the entry's cost online.
        beacon({"projected_total_seconds": 42.5})
        snapshot = queue.snapshot()
        ours = next(e for e in snapshot["entries"] if entry_key(e) == entry_key(entry))
        assert ours["cost"] == pytest.approx(42.5)

    def test_beacon_survives_pickling(self, backend, queue_doc):
        import pickle

        queue = _queue(backend, "w", queue_doc)
        queue.seed(_plan({"a": np.zeros(10)}, {"drift": _drift}))
        entry = queue.pull()[0]
        beacon = pickle.loads(pickle.dumps(queue.beacon(entry, interval=0.0)))
        beacon()
        ours = queue.snapshot()["entries"][0]
        assert time.time() - ours["heartbeat"] < 5.0


def _settled(queue: CellQueue, kind: str) -> list[dict]:
    return [e for e in queue.snapshot()["entries"] if e["kind"] == kind]


# -- T-Daub cost projection ----------------------------------------------------


class TestTDaubCostProjection:
    def _series(self) -> np.ndarray:
        t = np.arange(300.0)
        return 10.0 + 0.5 * t + 5.0 * np.sin(2 * np.pi * t / 12.0)

    def _pipelines(self):
        return [ZeroModelForecaster(horizon=4), DriftForecaster(horizon=4)]

    def test_progress_events_and_cost_projection(self):
        events = []
        selector = TDaub(
            pipelines=self._pipelines(),
            horizon=4,
            progress_callback=events.append,
            memoize=False,
        )
        selector.fit(self._series())
        assert events, "fit never reported progress"
        assert {e["phase"] for e in events} <= {"fixed", "accelerate", "score"}
        spent = [e["seconds_spent"] for e in events]
        assert spent == sorted(spent)  # cumulative clock never runs backwards
        assert selector.cost_projection_ is not None
        assert selector.cost_projection_ >= spent[-1] * 0.999
        projected = [
            e["projected_total_seconds"]
            for e in events
            if e["projected_total_seconds"] is not None
        ]
        assert projected, "no round ever published a cost projection"

    def test_broken_callback_never_breaks_the_fit(self):
        def explode(_info):
            raise RuntimeError("observer bug")

        selector = TDaub(
            pipelines=self._pipelines(),
            horizon=4,
            progress_callback=explode,
            memoize=False,
        )
        selector.fit(self._series())
        assert selector.best_pipeline_ is not None


# -- runner stealing path ------------------------------------------------------


def _normalized(path) -> dict:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    for cell in record.get("cells", []):
        cell["train_seconds"] = 0.0
    return record


class TestStealingRunner:
    def test_stealing_manifest_matches_plain_run(self, tmp_path):
        datasets = _suite()
        toolkits = {"drift": _drift, "zero": _zero}
        plain_path = tmp_path / "plain.json"
        BenchmarkRunner(horizon=4, manifest_path=str(plain_path)).run(datasets, toolkits)
        steal_path = tmp_path / "steal.json"
        runner = BenchmarkRunner(
            horizon=4, manifest_path=str(steal_path), worker_id="solo", steal=True
        )
        results = runner.run(datasets, toolkits)
        assert len(results.runs) == 6
        assert _normalized(steal_path) == _normalized(plain_path)
        queue = runner.last_queue_
        assert queue.counts() == {"pending": 0, "running": 0, "done": 6, "abandoned": 0}
        assert set(queue.provenance().values()) == {"solo"}

    def test_split_cell_merge_is_deterministic(self, backend, tmp_path):
        datasets = _suite()
        plain_root = tmp_path / "plain-waves"
        steal_root = tmp_path / "steal-waves"
        plain_root.mkdir()
        steal_root.mkdir()
        plain_path = _doc(backend, tmp_path, "plain.json")
        steal_path = _doc(backend, tmp_path, "steal.json")
        BenchmarkRunner(horizon=4, manifest_path=plain_path, store=backend).run(
            datasets, {"auto": SplittableFactory(str(plain_root)), "zero": _zero}
        )
        runner = BenchmarkRunner(
            horizon=4,
            manifest_path=steal_path,
            store=backend,
            worker_id="solo",
            steal=True,
            split_threshold=0.5,
        )
        runner.run(datasets, {"auto": SplittableFactory(str(steal_root)), "zero": _zero})
        plain_doc = json.loads(backend.read_doc(plain_path))
        steal_doc = json.loads(backend.read_doc(steal_path))
        for record in (plain_doc, steal_doc):
            for cell in record.get("cells", []):
                cell["train_seconds"] = 0.0
        assert steal_doc == plain_doc
        stats = runner.last_queue_.scheduler_stats()
        assert stats["splits"], "threshold 0.5 should have split the long cell"
        # Parts warmed the record root before the merge replayed the cell.
        assert any(steal_root.iterdir())
        counts = runner.last_queue_.counts()
        assert counts["pending"] == 0 and counts["running"] == 0

    def test_late_joining_worker_steals_cells(self, tmp_path):
        datasets = {"long": np.arange(600.0), "a": np.arange(100.0)}
        manifest_path = tmp_path / "m.json"
        root = tmp_path / "waves"
        root.mkdir()

        def toolkits():
            return {
                "auto": SplittableFactory(str(root), max_parts=8, wave_delay=0.03),
                "slow": lambda horizon: SlowToolkit(delay=0.05, horizon=horizon),
            }

        def work(worker: str) -> None:
            BenchmarkRunner(
                horizon=4,
                manifest_path=str(manifest_path),
                worker_id=worker,
                steal=True,
                split_threshold=0.5,
                reclaim_stale=60.0,
            ).run(datasets, toolkits())

        first = threading.Thread(target=work, args=("w1",))
        first.start()
        time.sleep(0.2)
        work("w2")  # elastic membership: joins by pulling, no rendezvous
        first.join()
        doc = CellQueue.doc_for_manifest(manifest_path)
        record = json.loads(doc.read_text(encoding="utf-8"))
        workers = record["workers"]
        assert "w2" in workers, "the late joiner never contributed"
        assert int(workers["w2"].get("stolen", 0)) >= 1
        states = {entry["state"] for entry in record["entries"]}
        assert states == {"done"}
        # And the manifest matches a plain single-process run byte-for-byte.
        plain_root = tmp_path / "plain-waves"
        plain_root.mkdir()
        plain_path = tmp_path / "plain.json"
        BenchmarkRunner(horizon=4, manifest_path=str(plain_path)).run(
            datasets,
            {
                "auto": SplittableFactory(str(plain_root), max_parts=8),
                "slow": lambda horizon: SlowToolkit(delay=0.0, horizon=horizon),
            },
        )
        assert _normalized(manifest_path) == _normalized(plain_path)


# -- provenance rendering ------------------------------------------------------


class TestSchedulerRendering:
    def test_scheduler_block_renders_workers_and_splits(self):
        scheduler = {
            "workers": {
                "w1": {"cells": 5, "parts": 3, "stolen": 0, "seconds": 12.5},
                "w2": {"cells": 1, "parts": 2, "stolen": 3, "seconds": 4.0},
            },
            "splits": [["longpole", "WaveAuto"]],
            "steals": 3,
        }
        text = render_shard_provenance({}, scheduler=scheduler)
        assert "Scheduler (1 cells split, 3 steals):" in text
        assert "w2: 1 cells, 2 parts, 3 stolen, 4.00s busy" in text
        assert "split: longpole×WaveAuto" in text

    def test_provenance_only_rendering_is_unchanged(self):
        text = render_shard_provenance({("d", "t"): "w1"})
        assert "Shard provenance (1 cells, 1 workers):" in text
        assert "Scheduler" not in text

    def test_empty_everything_renders_nothing(self):
        assert render_shard_provenance({}) == ""
        assert render_shard_provenance({}, scheduler=None) == ""
