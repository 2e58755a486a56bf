"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload fit_suite --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``):

- ``fit_suite``: serial ``AutoAITS(prediction_horizon=12)`` fit + predict(12)
  on AirPassengers[:72], hyndsight[:84] and one nn5tn10dim series [:84].
- ``stream_drift``: a ``StreamingEngine`` over the ec2-cpu surrogate: start
  on 2,000 rows, then 240 appends of 8 rows with six injected level shifts.
- ``serve_mix``: closed-loop predict traffic over one connection against a
  ``python -m repro.serve`` replica serving three published snapshots.

With ``--trace 0`` a run sets up ``SETUPS`` times (median reported, plus
the one-time import cost), then repeats timed passes for about
``--seconds`` (at least one pass) and prints the end-to-end metrics.  With
``--trace 1`` it runs exactly one pass with the layer wrappers of
``tracing.py`` installed and prints the per-layer metrics; its counts
repeat exactly between runs of the same seed.

Every workload reports the same end-to-end metrics: ``setup_s``, ``pass_s``,
``peak_rss_mb`` and ``smape_mean`` (holdout SMAPE of the fits, of each
block's forecast before its append, or of the served forecasts).

``pass_s`` is the median wall time of the run's passes.  Passes are short
(about 5-9 s for fit_suite, 4-6 s for stream_drift, 2-4 s for serve_mix)
so that a run holds several: the host speed of a 2-vCPU VM on a shared
machine swings up to 2x within seconds and drifts for minutes (a fixed
0.1 s loop ranged 0.074-0.24 s over four minutes), and a run of a single
43 s pass spread 25-40% between runs.  Over ten seeds, this median spread
less than the sum of each op's fastest repetition (0.03-0.13 against
0.05-0.18 of the median on a busy host).  The workload's own figures
(``append_p50_ms``, ``rerank_p50_ms``, ``req_per_s``,
``latency_p50_ms``/``p90``/``p99`` with the sample count, per-input fit
seconds, passes per run) are printed above the result line and kept in the
run record under ``perfbench/out/records`` with the host-speed probe,
versions, BLAS setting, commit and seed.  The last stdout line is the JSON
result.  Times are wall clock and never normalized by the probe.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUPS = 3
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "smape_mean": "%",
}


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def host_probe() -> dict:
    """Fixed pure-Python and numpy kernels; stored beside the metrics, never applied."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for index in range(3_000_000):
        total += index & 7
    python_s = time.perf_counter() - start
    matrix = np.random.default_rng(0).standard_normal((192, 192))
    start = time.perf_counter()
    for _ in range(30):
        matrix = np.tanh(matrix @ matrix.T / 192.0)
    numpy_s = time.perf_counter() - start
    return {"python_loop_s": python_s, "numpy_kernel_s": numpy_s}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def span_cost_s() -> float:
    """Wall cost of one recorded span around a no-op call, for the overhead estimate."""
    from tracing import Tracer

    tracer = Tracer()
    noop = tracer.wrap(lambda: None, "calibration")
    calls = 20_000
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return (time.perf_counter() - start) / calls


def end_to_end(workload, passes, setup_s: float, import_s: float, peak_rss_mb: float):
    """The shared metric set plus the workload's own named metrics."""
    ops = [op for result in passes for op in result.ops]
    if workload.name == "stream_drift":
        latencies = [seconds for label, seconds in ops if label == "append"]
    else:
        latencies = [seconds for _, seconds in ops]
    smapes = [value for result in passes for value in result.smape_values]
    metrics = {
        "setup_s": import_s + setup_s,
        "pass_s": statistics.median(result.wall_s for result in passes),
        "peak_rss_mb": peak_rss_mb,
        "smape_mean": statistics.fmean(smapes) if smapes else 0.0,
    }
    op_p50_ms = percentile(latencies, 50) * 1000.0
    named: dict[str, tuple[float, str]] = {
        "setup_s": (metrics["setup_s"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_s": (metrics["pass_s"], "s"),
        "passes": (len(passes), "count"),
        "smape_mean": (metrics["smape_mean"], "%"),
    }
    if workload.name == "fit_suite":
        for label in dict(ops):
            fits = [seconds for name, seconds in ops if name == label]
            named[f"fit_s.{label}"] = (statistics.median(fits), "s")
    elif workload.name == "stream_drift":
        reranks = [seconds for label, seconds in ops if label == "rerank"]
        named["append_p50_ms"] = (op_p50_ms, "ms")
        named["rerank_p50_ms"] = (percentile(reranks, 50) * 1000.0, "ms")
        named["reranks_per_pass"] = (len(reranks) / len(passes), "count")
    else:
        completed = sum(result.attempted - result.failed for result in passes)
        wall = sum(result.wall_s for result in passes)
        named["req_per_s"] = (completed / wall, "req/s")
        named["latency_p50_ms"] = (op_p50_ms, "ms")
        named["latency_p90_ms"] = (percentile(latencies, 90) * 1000.0, "ms")
        named["latency_p99_ms"] = (percentile(latencies, 99) * 1000.0, "ms")
        named["latency_samples"] = (len(latencies), "count")
    return metrics, named


def serve_counters(before: dict, after: dict, client_p50_ms: dict, digests: dict) -> dict:
    """Batcher and registry counters of the pass, from two ``/metrics`` reads.

    ``serve.http_ms`` is the client's p50 minus the replica's p50 (queue
    plus predict, as the batcher times it), averaged over the models.
    """
    def total(payload, key):
        return sum(entry.get(key, 0) or 0 for entry in payload.get("digests", {}).values())

    batches = total(after, "batches") - total(before, "batches")
    completed = total(after, "completed") - total(before, "completed")
    replica_p50 = {
        name: after["digests"][digest].get("p50_ms") or 0.0 for name, digest in digests.items()
    }
    registry = after.get("registry", {})
    return {
        "serve.batcher.batches": batches,
        "serve.batcher.mean_batch": completed / batches if batches else 0.0,
        "serve.batcher.p50_ms": statistics.fmean(replica_p50.values()),
        "serve.batcher.shed": total(after, "shed") - total(before, "shed"),
        "serve.batcher.errors": total(after, "errors") - total(before, "errors"),
        "serve.registry.loads": registry.get("loads", 0),
        "serve.registry.hits": registry.get("hits", 0),
        "serve.http_ms": statistics.fmean(
            client_p50_ms[name] - replica_p50[name] for name in digests
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for variable in BLAS_VARIABLES:
        os.environ[variable] = "1"
    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import scipy

        import workloads
        from tracing import PER_LAYER, SpanTable, Tracer, install_wrappers, layer_metrics
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - import_start
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    probe_before = host_probe()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cls = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    if cls is workloads.ServeMix:
        workload = cls(args.seed, workdir, traced=traced)
    else:
        workload = cls(args.seed, workdir)
    record: dict = {}
    try:
        setups = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = statistics.median(setups)

        passes = []
        if traced:
            tracer = Tracer()
            before = workload.metrics() if cls is workloads.ServeMix else None
            if cls is not workloads.ServeMix:
                install_wrappers(tracer)
            try:
                passes.append(workload.run_pass(tracer))
            finally:
                tracer.uninstall()
        else:
            # Start another pass while at least half of the slowest one so
            # far fits in the time left, so runs end near --seconds.
            started = time.perf_counter()
            slowest = 0.0
            while not passes or time.perf_counter() - started + slowest / 2 <= args.seconds:
                began = time.perf_counter()
                passes.append(workload.run_pass())
                slowest = max(slowest, time.perf_counter() - began)

        if cls is workloads.ServeMix:
            peak_rss_mb = workload.peak_rss_mb()
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, named = end_to_end(workload, passes, setup_s, import_s, peak_rss_mb)

        if traced:
            traces = OUT_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            stamp = f"{args.workload}-seed{args.seed}-{int(time.time())}-{os.getpid()}"
            if cls is workloads.ServeMix:
                after = workload.metrics()
                workload.close()
                trace_path = traces / f"{stamp}-replica.npz"
                shutil.move(str(workload.trace_path), trace_path)
                table = SpanTable.load(trace_path)
            else:
                trace_path = traces / f"{stamp}.npz"
                tracer.save(trace_path)
                table = SpanTable.from_tracer(tracer)
            layers = {name: 0.0 for name, _, _ in PER_LAYER}
            layers.update(layer_metrics(table, replica=cls is workloads.ServeMix))
            if cls is workloads.ServeMix:
                client_p50 = {
                    name: percentile([t for label, t in passes[0].ops if label == name], 50) * 1000.0
                    for name in workload.digests
                }
                layers.update(serve_counters(before, after, client_p50, workload.digests))
            layers["trace.pass_s"] = metrics["pass_s"]
            layers["trace.overhead_s"] = layers["trace.spans"] * span_cost_s()
            record["trace_file"] = str(trace_path.relative_to(ROOT))
            units = {name: unit for name, unit, _ in PER_LAYER}
            reported = {name: (layers[name], units[name]) for name, _, _ in PER_LAYER}
        else:
            reported = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas_threads={variable: os.environ[variable] for variable in BLAS_VARIABLES},
        git_commit=git_commit(),
        host_probe={"before": probe_before, "after": host_probe()},
        import_s=import_s,
        setup_runs_s=setups,
        passes=[
            {"wall_s": result.wall_s, "cpu_s": result.cpu_s,
             "attempted": result.attempted, "failed": result.failed,
             "problems": result.problems, "details": result.details}
            for result in passes
        ],
        named_metrics={name: {"value": value, "unit": unit} for name, (value, unit) in named.items()},
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    )
    records = OUT_DIR / "records"
    if traced:
        untraced = sorted(records.glob(f"{args.workload}-seed{args.seed}-trace0-*.json"))
        if untraced:
            baseline = json.loads(untraced[-1].read_text(encoding="utf-8"))
            record["overhead_vs_untraced_s"] = metrics["pass_s"] - baseline["metrics"]["pass_s"]["value"]
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, default=float), encoding="utf-8")

    for name, (value, unit) in named.items():
        print(f"{args.workload:<13s} {name:<28s} {value:14.4f} {unit}")
    if traced:
        for name, (value, unit) in reported.items():
            print(f"{args.workload:<13s} {name:<44s} {value:16.6f} {unit}")
        if "overhead_vs_untraced_s" in record:
            print(f"{args.workload:<13s} {'trace.overhead_vs_untraced_s':<44s} "
                  f"{record['overhead_vs_untraced_s']:16.6f} s")
    for problem in (p for result in passes for p in result.problems):
        print(f"{args.workload}: FAILED {problem}")
    print(f"record: {path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
