"""Perf benchmark: micro-batched serving vs one-predict-per-request.

The serving layer's bet is that for window/tree forecasters the cost of
``predict`` is per-*invocation*, not per-request: a forecast of the
longest requested horizon contains every shorter horizon as a prefix, so
a flush of N queued requests costs ONE vectorized predict plus N
zero-copy slices.  This benchmark measures that bet end to end through
the real HTTP replica:

- **Batched vs unbatched** — the same closed-loop client storm (fixed
  thread count, thousands of requests) against two replicas serving the
  same published snapshot: one with the micro-batch window open
  (``max_batch=64``), one degenerated to a per-request baseline
  (``max_batch=1``, zero delay).  Reported: sustained req/s and
  p50/p99 latency for both.  The acceptance bar is **>= 3x the baseline
  throughput at equal-or-better p99**.
- **Hot swap under load** — a request storm runs while a new model
  version is published.  Every response must be HTTP 200 (zero drops,
  zero errors) and the digests observed must switch from the old
  snapshot to the new one.

Writes ``BENCH_serving.json`` at the repository root; ``--tiny`` runs a
seconds-scale variant used by CI (no BENCH file).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.hybrid.window_regressor import WindowRandomForestForecaster
from repro.serve import ServingReplica, publish_model
from repro.store import ObjectStoreBackend
from repro.store.server import StoreServer

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
_HORIZONS = (6, 12, 18, 24)


def _fit_model(
    seed: float, estimators: int = 10, lookback: int = 8, samples: int = 240
) -> WindowRandomForestForecaster:
    t = np.arange(samples, dtype=float)
    noise = np.random.default_rng(int(seed)).normal(0.0, 1.0, t.size)
    series = seed + 0.2 * t + 8.0 * np.sin(2.0 * np.pi * t / 12.0) + noise
    return WindowRandomForestForecaster(
        lookback=lookback, horizon=4, n_estimators=estimators
    ).fit(series.reshape(-1, 1))


class _Client:
    """One closed-loop client thread over a persistent connection."""

    def __init__(self, url: str, model: str):
        self.host = url.removeprefix("http://")
        self.path = f"/predict/{model}"
        self.conn: http.client.HTTPConnection | None = None
        self.latencies: list[float] = []
        self.statuses: list[int] = []
        self.digests: set[str] = set()

    def request(self, horizon: int) -> None:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, timeout=30.0)
        body = json.dumps({"horizon": horizon}).encode()
        started = time.perf_counter()
        try:
            self.conn.request("POST", self.path, body=body)
            response = self.conn.getresponse()
            payload = json.loads(response.read().decode())
            status = response.status
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = None
            status, payload = 599, {}
        self.latencies.append(time.perf_counter() - started)
        self.statuses.append(status)
        if status == 200:
            self.digests.add(payload["digest"])

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()


def _storm(url, model, clients, requests_each, duration=None, stop=None):
    """Run a closed-loop storm; returns the client objects and wall seconds."""
    pool = [_Client(url, model) for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def run(client: _Client) -> None:
        barrier.wait()
        sent = 0
        while True:
            if stop is not None and stop.is_set():
                break
            if duration is None and sent >= requests_each:
                break
            client.request(_HORIZONS[sent % len(_HORIZONS)])
            sent += 1

    threads = [threading.Thread(target=run, args=(client,)) for client in pool]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    if duration is not None:
        time.sleep(duration)
        assert stop is not None
        stop.set()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    for client in pool:
        client.close()
    return pool, wall


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _throughput_record(store_url: str, tiny: bool) -> dict:
    clients, requests_each = (6, 20) if tiny else (24, 120)
    backend = ObjectStoreBackend(store_url)
    # A deliberately invocation-heavy model (~10 ms per recursive predict):
    # batching pays off exactly when predict cost is per-invocation.
    publish_model(
        _fit_model(40.0, estimators=100, lookback=16, samples=480), backend, "bench"
    )
    modes = {
        "unbatched": dict(max_batch=1, max_delay_ms=0.0),
        "batched": dict(max_batch=64, max_delay_ms=5.0),
    }
    results = {}
    for mode, knobs in modes.items():
        replica = ServingReplica(store=store_url, models=["bench"], **knobs)
        with replica.start_in_background() as handle:
            _storm(handle.url, "bench", clients, max(4, requests_each // 8))  # warm-up
            pool, wall = _storm(handle.url, "bench", clients, requests_each)
        latencies = [s for client in pool for s in client.latencies]
        statuses = [s for client in pool for s in client.statuses]
        metrics = replica.batcher.metrics()
        batch_stats = next(iter(metrics.values())) if metrics else {}
        results[mode] = {
            "requests": len(statuses),
            "errors": sum(1 for s in statuses if s != 200),
            "wall_seconds": round(wall, 4),
            "req_per_s": round(len(statuses) / wall, 1),
            "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
            "mean_batch": batch_stats.get("mean_batch"),
            "max_batch": batch_stats.get("max_batch"),
        }
    backend.close()
    batched, unbatched = results["batched"], results["unbatched"]
    return {
        "clients": clients,
        "requests_per_mode": clients * requests_each,
        "unbatched": unbatched,
        "batched": batched,
        "throughput_ratio": round(batched["req_per_s"] / unbatched["req_per_s"], 2),
        "p99_ratio": round(batched["p99_ms"] / unbatched["p99_ms"], 3),
    }


def _hot_swap_record(store_url: str, tiny: bool) -> dict:
    clients = 4 if tiny else 8
    backend = ObjectStoreBackend(store_url)
    old = publish_model(_fit_model(10.0), backend, "swap")
    replica = ServingReplica(
        store=store_url,
        models=["swap"],
        max_batch=64,
        max_delay_ms=5.0,
        poll_interval=0.1,
    )
    published_at = [None]
    new_digest = [None]

    def publisher() -> None:
        time.sleep(0.3 if tiny else 0.6)
        published_at[0] = time.perf_counter()
        new_digest[0] = publish_model(
            _fit_model(90.0, estimators=8), backend, "swap"
        ).digest

    with replica.start_in_background() as handle:
        stop = threading.Event()
        publish_thread = threading.Thread(target=publisher)
        publish_thread.start()
        pool, wall = _storm(
            handle.url, "swap", clients, None,
            duration=1.2 if tiny else 2.5, stop=stop,
        )
        publish_thread.join()
        # keep polling until traffic has actually switched to the new digest
        tail = _Client(handle.url, "swap")
        switch_deadline = time.monotonic() + 10.0
        while time.monotonic() < switch_deadline:
            tail.request(3)
            if new_digest[0] in tail.digests:
                break
            time.sleep(0.05)
        tail.close()
        swapped_at = time.perf_counter()
        swaps = replica._swaps
    backend.close()
    statuses = [s for client in pool for s in client.statuses] + tail.statuses
    digests = set().union(*(client.digests for client in pool), tail.digests)
    return {
        "clients": clients,
        "requests": len(statuses),
        "non_200": sum(1 for s in statuses if s != 200),
        "digests_observed": sorted(digests),
        "old_digest": old.digest,
        "new_digest": new_digest[0],
        "switched": new_digest[0] in digests,
        "swap_latency_s": round(swapped_at - published_at[0], 3),
        "replica_swaps": swaps,
    }


def run(tiny: bool) -> dict:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as root:
        with StoreServer(Path(root) / "store") as server:
            server.serve_in_background()
            record = {
                "benchmark": "serving_micro_batch",
                "kind": "machinery",
                "mode": "tiny" if tiny else "full",
                "throughput": _throughput_record(server.url, tiny),
                "hot_swap": _hot_swap_record(server.url, tiny),
            }
    return record


def _report(record: dict) -> None:
    thr, swap = record["throughput"], record["hot_swap"]
    print()
    print("Micro-batched serving vs per-request baseline")
    for mode in ("unbatched", "batched"):
        row = thr[mode]
        print(
            f"  {mode:<10s}: {row['req_per_s']:>8.1f} req/s  "
            f"p50 {row['p50_ms']:>7.2f} ms  p99 {row['p99_ms']:>8.2f} ms  "
            f"errors {row['errors']}"
        )
    print(
        f"  batching    : {thr['throughput_ratio']:.2f}x throughput at "
        f"{thr['p99_ratio']:.2f}x the baseline p99"
    )
    print(
        f"  hot swap    : {swap['requests']} requests during swap, "
        f"{swap['non_200']} non-200, switched={swap['switched']} "
        f"in {swap['swap_latency_s']}s"
    )


def _check(record: dict, tiny: bool) -> None:
    thr, swap = record["throughput"], record["hot_swap"]
    assert thr["unbatched"]["errors"] == 0
    assert thr["batched"]["errors"] == 0
    # the tentpole claim: >= 3x throughput at equal-or-better tail latency
    # (the tiny CI variant only sanity-checks the direction of the win).
    assert thr["throughput_ratio"] >= (1.3 if tiny else 3.0), thr
    assert thr["p99_ratio"] <= 1.05, thr
    assert swap["non_200"] == 0, swap
    assert swap["switched"], swap
    assert set(swap["digests_observed"]) == {swap["old_digest"], swap["new_digest"]}


def test_serving_perf():
    record = run(tiny=False)
    _RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    _report(record)
    print(f"  record      : {_RESULT_PATH}")
    _check(record, tiny=False)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-scale variant for CI smoke runs (no BENCH file)",
    )
    parser.add_argument("--json", default=None, help="write the run record here")
    args = parser.parse_args(argv)
    record = run(tiny=args.tiny)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    if not args.tiny:
        _RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    _report(record)
    _check(record, tiny=args.tiny)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
