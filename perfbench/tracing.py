"""Span recorder and the wrappers that time the program's layers from outside.

A traced benchmark run installs wrappers around the public callables
behind each per-layer metric: methods are patched on their class, module
functions in every ``repro`` module that holds a reference to them (the
place a caller looks them up, e.g. ``repro.core.tdaub.run_fit_score_task``).
Each call records one span — name, start, end, parent span and op id — in
columnar in-memory arrays; nothing is written until the run ends.

Self time is a span's duration minus the part its children cover.  Spans
nest per thread (a child always closes before its parent), so that part
is the plain sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import json
import pickle
import re
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

__all__ = ["Tracer", "SpanTable", "install_wrappers", "layer_metrics", "metric_token", "PER_LAYER"]

_UNSAFE = re.compile(r"[^A-Za-z0-9]+")


def metric_token(name: str) -> str:
    """``"FlattenAutoEnsembler, log"`` -> ``"FlattenAutoEnsembler_log"``."""
    return _UNSAFE.sub("_", str(name)).strip("_")


class Tracer:
    """Columnar span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.op_labels: list[str] = [""]
        self.op_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            with self._lock:
                ident = self._ids.setdefault(name, len(self.names))
                if ident == len(self.names):
                    self.names.append(name)
        return ident

    def begin(self, name: str) -> int:
        ident = self._intern(name)
        stack = self._stack()
        with self._lock:
            index = len(self.start)
            self.name.append(ident)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        now = time.perf_counter()
        self._stack().pop()
        self.end[index] = now

    def begin_op(self, label: str) -> int:
        """Start a new benchmark op; later spans carry its id."""
        self.op_labels.append(label)
        self.op_id = len(self.op_labels) - 1
        return self.op_id

    def wrap(self, fn, name, after=None):
        """Return ``fn`` timed as a span; ``name`` may be ``f(args) -> str``."""
        tracer = self
        dynamic = callable(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name(args) if dynamic else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(index)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- patching ------------------------------------------------------------
    def patch_method(self, cls, attr: str, name, after=None) -> None:
        """Wrap ``cls.attr`` when ``cls`` defines it itself."""
        original = cls.__dict__.get(attr)
        if original is None or hasattr(original, "__perfbench_original__"):
            return
        setattr(cls, attr, self.wrap(original, name, after))
        self._patches.append((cls, attr, original))

    def patch_function(self, fn, name, after=None) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that references it."""
        traced = self.wrap(fn, name, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32, count=n).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32, count=n).copy(),
        }

    def save(self, path) -> None:
        """Write every span, plus names, op labels and counts, as ``.npz``."""
        meta = {"names": self.names, "op_labels": self.op_labels, "counts": dict(self.counts)}
        np.savez_compressed(path, meta=np.array(json.dumps(meta)), **self.arrays())


class SpanTable:
    """Durations, self times and ancestry over a saved or live span set."""

    def __init__(self, names, name, start, end, parent, op, op_labels, counts):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int64)
        self.duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.op = np.asarray(op, dtype=np.int64)
        self.op_labels = list(op_labels)
        self.counts = dict(counts)
        child = np.zeros(len(self.duration))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child
        self._ids = {label: index for index, label in enumerate(self.names)}

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "SpanTable":
        data = tracer.arrays()
        return cls(tracer.names, data["name"], data["start"], data["end"],
                   data["parent"], data["op"], tracer.op_labels, tracer.counts)

    @classmethod
    def load(cls, path) -> "SpanTable":
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            return cls(meta["names"], data["name"], data["start"], data["end"],
                       data["parent"], data["op"], meta["op_labels"], meta["counts"])

    # -- selection -----------------------------------------------------------
    def mask(self, prefix: str) -> np.ndarray:
        """Spans whose name equals ``prefix`` or starts with ``prefix:``."""
        wanted = [
            index for label, index in self._ids.items()
            if label == prefix or label.startswith(prefix + ":")
        ]
        return np.isin(self.name, wanted)

    def total(self, prefix: str) -> float:
        """Duration of the outermost ``prefix`` spans (nested ones overlap)."""
        mask = self.mask(prefix)
        return float(self.duration[mask & ~self.with_ancestor(mask, prefix)].sum())

    def self_total(self, prefix: str) -> float:
        return float(self.self_time[self.mask(prefix)].sum())

    def calls(self, prefix: str) -> int:
        return int(self.mask(prefix).sum())

    def by_suffix(self, prefix: str) -> dict[str, np.ndarray]:
        """Durations of ``prefix:<suffix>`` spans grouped by suffix."""
        groups: dict[str, np.ndarray] = {}
        for label, index in self._ids.items():
            if label.startswith(prefix + ":"):
                groups[label[len(prefix) + 1 :]] = self.duration[self.name == index]
        return groups

    def by_op(self, prefix: str) -> dict[str, float]:
        """Total duration of ``prefix`` spans grouped by op label."""
        mask = self.mask(prefix)
        totals: dict[str, float] = defaultdict(float)
        for op, duration in zip(self.op[mask], self.duration[mask]):
            totals[self.op_labels[op]] += float(duration)
        return dict(totals)

    def with_ancestor(self, mask: np.ndarray, ancestor: str) -> np.ndarray:
        """Subset of ``mask`` whose parent chain reaches an ``ancestor`` span."""
        target = self.mask(ancestor)
        index = np.flatnonzero(mask)
        cursor = self.parent[index].copy()
        found = np.zeros(len(index), dtype=bool)
        alive = np.flatnonzero(cursor >= 0)
        while len(alive):
            current = cursor[alive]
            hit = target[current]
            found[alive[hit]] = True
            cursor[alive] = np.where(hit, -1, self.parent[current])
            alive = alive[cursor[alive] >= 0]
        result = np.zeros(len(mask), dtype=bool)
        result[index] = found
        return result


# -- the wrappers ----------------------------------------------------------------

def _after_tdaub(tracer, args, kwargs, result) -> None:
    ranker = args[0]
    evaluations = getattr(ranker, "evaluations_", {}) or {}
    tracer.counts["core.tdaub.cells"] += sum(len(e.scores) for e in evaluations.values())
    tracer.counts["core.tdaub.warm_hits"] += int(getattr(ranker, "warm_hits_", 0))
    tracer.counts["core.tdaub.prefix_refits"] += int(getattr(ranker, "prefix_refits_", 0))


def _after_task(tracer, args, kwargs, result) -> None:
    score = getattr(result, "score", None)
    if getattr(result, "error", "") or score is None or not np.isfinite(score):
        tracer.counts["exec.tasks.failed"] += 1


def _after_cache_get(tracer, args, kwargs, result) -> None:
    tracer.counts["exec.cache.hits" if result is not None else "exec.cache.misses"] += 1


def _after_tree_fit(tracer, args, kwargs, result) -> None:
    tracer.counts["ml.tree.nodes"] += int(getattr(args[0], "n_nodes_", 0))


def _after_tree_predict(tracer, args, kwargs, result) -> None:
    tracer.counts["ml.tree.predict_rows"] += int(np.shape(result)[0]) if np.ndim(result) else 1


def _after_digest(tracer, args, kwargs, result) -> None:
    payload = args[0] if args else b""
    size = getattr(payload, "nbytes", None)
    if size is None:
        size = len(payload.encode("utf-8") if isinstance(payload, str) else payload)
    tracer.counts["store.digest.bytes"] += int(size)


def _record_bytes(value) -> int:
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _backend_io(kind: str, size_of):
    def after(tracer, args, kwargs, result) -> None:
        tracer.counts[f"store.backend.{kind}s"] += 1
        size = size_of(args, result)
        if size:
            tracer.counts[f"store.backend.bytes_{'read' if kind == 'read' else 'written'}"] += int(size)

    return after


def _text_size(text) -> int:
    return len(text.encode("utf-8")) if isinstance(text, str) else 0


def _forecaster_name(args) -> str:
    return "forecasters.fit:" + type(args[0]).__name__


def _pipeline_name(args) -> str:
    return "core.pipeline.fit:" + metric_token(getattr(args[0], "name", type(args[0]).__name__))


def _pipeline_predict_name(args) -> str:
    return "core.pipeline.predict:" + metric_token(getattr(args[0], "name", type(args[0]).__name__))


def install_wrappers(tracer: Tracer) -> None:
    """Patch every callable behind the per-layer metrics (see ``PER_LAYER``)."""
    import repro
    import repro.anomaly.watch
    import repro.core.autoai_ts as autoai_ts
    import repro.core.quality as quality
    import repro.exec.executor as executor
    import repro.exec.tasks as tasks
    import repro.forecasters as forecasters
    import repro.hybrid as hybrid
    import repro.metrics.errors as errors
    import repro.ml as ml
    import repro.serve  # noqa: F401 - its ``publish_model`` re-export is patched too
    import repro.serve.registry  # noqa: F401 - looks up ``hydrate_model``
    import repro.serve.snapshot as snapshot
    import repro.store.digest as digest
    import repro.stream as stream
    import repro.transforms.window as window
    from repro.core.base import BaseForecaster
    from repro.core.lookback import LookbackDiscovery
    from repro.core.pipeline import ForecastingPipeline
    from repro.core.tdaub import TDaub
    from repro.exec.cache import EvaluationCache
    from repro.store.localfs import LocalFSBackend
    from repro.transforms.stateless import LogTransform

    patch, patch_fn = tracer.patch_method, tracer.patch_function

    # core
    patch(autoai_ts.AutoAITS, "fit", "core.autoai.fit")
    patch_fn(quality.check_data_quality, "core.quality")
    patch_fn(quality.clean_data, "core.quality")
    patch(LookbackDiscovery, "discover", "core.lookback")
    patch(TDaub, "fit", "core.tdaub", _after_tdaub)
    patch(ForecastingPipeline, "fit", _pipeline_name)
    patch(ForecastingPipeline, "predict", _pipeline_predict_name)

    # exec
    patch_fn(tasks.run_fit_score_task, "exec.task", _after_task)
    patch(EvaluationCache, "make_key", "exec.cache.make_key")
    patch(EvaluationCache, "get", "exec.cache.get", _after_cache_get)
    for cls in (executor.SerialExecutor, executor.ThreadExecutor, executor.ProcessExecutor):
        patch(cls, "map_tasks", "exec.executor.map_tasks")

    # store
    patch_fn(digest.array_digest, "store.digest", _after_digest)
    patch_fn(digest.text_digest, "store.digest", _after_digest)
    blob_size = lambda args, result: getattr(args[2] if len(args) > 2 else None, "nbytes", 0)  # noqa: E731
    io = {
        "get": ("read", lambda args, result: _record_bytes(result) if result is not None else 0),
        "put": ("write", lambda args, result: _record_bytes(args[2])),
        "get_blob": ("read", lambda args, result: getattr(result, "nbytes", 0)),
        "put_blob": ("write", blob_size),
        "has_blob": ("read", lambda args, result: 0),
        "read_doc": ("read", lambda args, result: _text_size(result)),
        "write_doc": ("write", lambda args, result: _text_size(args[2])),
        "update_doc": ("write", lambda args, result: _text_size(result)),
    }
    for attr, (kind, size_of) in io.items():
        patch(LocalFSBackend, attr, "store.backend", _backend_io(kind, size_of))

    # ml
    patch(ml.DecisionTreeRegressor, "fit", "ml.tree.fit", _after_tree_fit)
    patch(ml.DecisionTreeRegressor, "predict", "ml.tree.predict", _after_tree_predict)
    patch(ml.RandomForestRegressor, "fit", "ml.forest.fit")
    patch(ml.GradientBoostingRegressor, "fit", "ml.boosting.fit")
    patch(ml.SVR, "fit", "ml.svr.fit")
    for cls in (ml.LinearRegression, ml.RidgeRegression, ml.StreamingRidge):
        patch(cls, "fit", "ml.linear.fit")
        patch(cls, "partial_fit", "ml.linear.fit")

    # forecasters and hybrids
    for cls_name in forecasters.__all__:
        cls = getattr(forecasters, cls_name)
        if isinstance(cls, type) and issubclass(cls, BaseForecaster):
            patch(cls, "fit", _forecaster_name)
            patch(cls, "update", "forecasters.update")
    patch(BaseForecaster, "update", "forecasters.update")
    patch(hybrid.FlattenAutoEnsembler, "fit", "hybrid.auto_ensembler.fit")
    patch(hybrid.FlattenAutoEnsembler, "predict", "hybrid.auto_ensembler.predict")
    patch(hybrid.WindowRegressor, "fit", "hybrid.window_regressor.fit")
    patch(hybrid.WindowRegressor, "predict", "hybrid.window_regressor.predict")
    patch(hybrid.WindowRegressor, "update", "hybrid.window_regressor.update")
    patch(hybrid.MT2RForecaster, "fit", "hybrid.mt2r.fit")

    # transforms and metrics
    patch_fn(window.make_supervised_windows, "transforms.window")
    for attr in ("fit", "transform", "inverse_transform"):
        patch(LogTransform, attr, "transforms.log")
    patch_fn(errors.smape, "metrics.smape")

    # stream and anomaly
    patch(stream.StreamingEngine, "append", "stream.append")
    patch(stream.StreamingEngine, "rerank", "stream.rerank")
    patch(stream.ArrivalBuffer, "append", "stream.buffer")
    patch(stream.ArrivalBuffer, "view", "stream.buffer")
    patch(repro.anomaly.watch.ResidualDriftWatcher, "observe", "anomaly.watch")

    # serve
    patch_fn(snapshot.publish_model, "serve.snapshot.publish")
    patch_fn(snapshot.hydrate_model, "serve.snapshot.hydrate")


#: Per-layer metric names and units, in the order ``BENCHMARK.json`` lists them.
PIPELINES = (
    "FlattenAutoEnsembler_log", "WindowRandomForest", "WindowSVR", "MT2RForecaster", "bats",
    "Arima", "HW_Additive", "HW_Multiplicative", "DifferenceFlattenAutoEnsembler_log",
    "LocalizedFlattenAutoEnsembler",
)
FORECASTERS = (
    "ZeroModelForecaster", "SeasonalNaiveForecaster", "DriftForecaster", "MeanForecaster",
    "SimpleExponentialSmoothing", "DoubleExponentialSmoothing", "ThetaForecaster",
    "HoltWintersForecaster", "BATSForecaster", "AutoARIMAForecaster", "ARIMAForecaster",
)
FIT_INPUTS = ("AirPassengers", "hyndsight", "nn5tn10dim")
SERVED_MODELS = ("WindowRandomForest", "LocalizedFlattenAutoEnsembler", "HW_Additive")

PER_LAYER: list[tuple[str, str, str]] = (
    [(f"core.autoai.fit_s.{name}", "s", "lower") for name in FIT_INPUTS]
    + [
        ("core.quality.s", "s", "lower"),
        ("core.lookback.s", "s", "lower"),
        ("core.tdaub.s", "s", "lower"),
        ("core.tdaub.self_s", "s", "lower"),
        ("core.tdaub.cells", "count", "lower"),
        ("core.tdaub.fits", "count", "lower"),
        ("core.tdaub.warm_hits", "count", "higher"),
        ("core.tdaub.prefix_refits", "count", "lower"),
        ("core.final_refit_s", "s", "lower"),
    ]
    + [(f"core.pipeline.fit_s.{name}", "s", "lower") for name in PIPELINES]
    + [
        ("core.pipeline.predict_s", "s", "lower"),
        ("exec.tasks.calls", "count", "lower"),
        ("exec.tasks.s", "s", "lower"),
        ("exec.tasks.failed", "count", "lower"),
        ("exec.cache.make_key_s", "s", "lower"),
        ("exec.cache.hits", "count", "higher"),
        ("exec.cache.misses", "count", "lower"),
        ("exec.executor.dispatch_s", "s", "lower"),
        ("store.digest.calls", "count", "lower"),
        ("store.digest.bytes", "bytes", "lower"),
        ("store.digest.s", "s", "lower"),
        ("store.backend.reads", "count", "lower"),
        ("store.backend.writes", "count", "lower"),
        ("store.backend.bytes_read", "bytes", "lower"),
        ("store.backend.bytes_written", "bytes", "lower"),
        ("store.backend.s", "s", "lower"),
        ("ml.tree.fit_calls", "count", "lower"),
        ("ml.tree.nodes", "count", "lower"),
        ("ml.tree.fit_s", "s", "lower"),
        ("ml.tree.predict_calls", "count", "lower"),
        ("ml.tree.predict_rows", "count", "lower"),
        ("ml.tree.predict_s", "s", "lower"),
        ("ml.forest.fit_s", "s", "lower"),
        ("ml.boosting.fit_s", "s", "lower"),
        ("ml.svr.fit_s", "s", "lower"),
        ("ml.linear.fit_s", "s", "lower"),
    ]
    + [(f"forecasters.fit_s.{name}", "s", "lower") for name in FORECASTERS]
    + [
        ("forecasters.update_s", "s", "lower"),
        ("hybrid.auto_ensembler.fit_s", "s", "lower"),
        ("hybrid.auto_ensembler.predict_s", "s", "lower"),
        ("hybrid.window_regressor.fit_s", "s", "lower"),
        ("hybrid.window_regressor.predict_s", "s", "lower"),
        ("hybrid.window_regressor.update_s", "s", "lower"),
        ("hybrid.mt2r.fit_s", "s", "lower"),
        ("transforms.window.s", "s", "lower"),
        ("transforms.log.s", "s", "lower"),
        ("metrics.smape.calls", "count", "lower"),
        ("stream.append_s", "s", "lower"),
        ("stream.buffer.s", "s", "lower"),
        ("stream.rerank_s", "s", "lower"),
        ("stream.reranks", "count", "lower"),
        ("anomaly.watch.s", "s", "lower"),
        ("serve.snapshot.publish_s", "s", "lower"),
        ("serve.snapshot.hydrate_s", "s", "lower"),
    ]
    + [(f"serve.model.predict_ms.{name}", "ms", "lower") for name in SERVED_MODELS]
    + [
        ("serve.batcher.batches", "count", "lower"),
        ("serve.batcher.mean_batch", "count", "higher"),
        ("serve.batcher.p50_ms", "ms", "lower"),
        ("serve.batcher.shed", "count", "lower"),
        ("serve.batcher.errors", "count", "lower"),
        ("serve.registry.loads", "count", "lower"),
        ("serve.registry.hits", "count", "higher"),
        ("serve.http_ms", "ms", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.pass_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def layer_metrics(table: SpanTable, replica: bool = False) -> dict[str, float]:
    """Every span-derived per-layer metric (the ``serve.batcher``/``registry``
    and ``serve.http_ms`` rows come from the replica's ``/metrics``).

    ``replica`` marks a serving replica's table, whose pipeline predicts
    are the per-model request costs.
    """
    values: dict[str, float] = {}
    fits = table.by_op("core.autoai.fit")
    for name in FIT_INPUTS:
        values[f"core.autoai.fit_s.{name}"] = fits.get(name, 0.0)
    values["core.quality.s"] = table.total("core.quality")
    values["core.lookback.s"] = table.total("core.lookback")
    values["core.tdaub.s"] = table.total("core.tdaub")
    values["core.tdaub.self_s"] = table.self_total("core.tdaub")
    tasks = table.mask("exec.task")
    values["core.tdaub.fits"] = int(table.with_ancestor(tasks, "core.tdaub").sum())
    for key in ("cells", "warm_hits", "prefix_refits"):
        values[f"core.tdaub.{key}"] = int(table.counts.get(f"core.tdaub.{key}", 0))

    # A winner refit is a top-level model fit under AutoAITS or T-Daub that
    # no evaluation task (T-Daub cell) encloses.
    model_fit = table.mask("core.pipeline.fit") | table.mask("forecasters.fit") | table.mask(
        "hybrid.window_regressor.fit"
    )
    outer = model_fit & ~table.with_ancestor(model_fit, "exec.task")
    nested = table.with_ancestor(outer, "core.pipeline.fit") | table.with_ancestor(
        outer, "forecasters.fit"
    ) | table.with_ancestor(outer, "hybrid.window_regressor.fit")
    top = outer & ~nested
    under_core = table.with_ancestor(top, "core.tdaub") | table.with_ancestor(top, "core.autoai.fit")
    values["core.final_refit_s"] = float(table.duration[under_core].sum())

    pipeline_fits = table.by_suffix("core.pipeline.fit")
    for name in PIPELINES:
        values[f"core.pipeline.fit_s.{name}"] = float(pipeline_fits.get(name, np.zeros(0)).sum())
    values["core.pipeline.predict_s"] = table.total("core.pipeline.predict")

    values["exec.tasks.calls"] = table.calls("exec.task")
    values["exec.tasks.s"] = table.total("exec.task")
    values["exec.tasks.failed"] = int(table.counts.get("exec.tasks.failed", 0))
    values["exec.cache.make_key_s"] = table.total("exec.cache.make_key")
    values["exec.cache.hits"] = int(table.counts.get("exec.cache.hits", 0))
    values["exec.cache.misses"] = int(table.counts.get("exec.cache.misses", 0))
    values["exec.executor.dispatch_s"] = table.self_total("exec.executor.map_tasks")

    values["store.digest.calls"] = table.calls("store.digest")
    values["store.digest.bytes"] = int(table.counts.get("store.digest.bytes", 0))
    values["store.digest.s"] = table.total("store.digest")
    for key in ("reads", "writes", "bytes_read", "bytes_written"):
        values[f"store.backend.{key}"] = int(table.counts.get(f"store.backend.{key}", 0))
    values["store.backend.s"] = table.total("store.backend")

    values["ml.tree.fit_calls"] = table.calls("ml.tree.fit")
    values["ml.tree.nodes"] = int(table.counts.get("ml.tree.nodes", 0))
    values["ml.tree.fit_s"] = table.total("ml.tree.fit")
    values["ml.tree.predict_calls"] = table.calls("ml.tree.predict")
    values["ml.tree.predict_rows"] = int(table.counts.get("ml.tree.predict_rows", 0))
    values["ml.tree.predict_s"] = table.total("ml.tree.predict")
    for layer in ("forest", "boosting", "svr", "linear"):
        values[f"ml.{layer}.fit_s"] = table.total(f"ml.{layer}.fit")

    forecaster_fits = table.by_suffix("forecasters.fit")
    for name in FORECASTERS:
        values[f"forecasters.fit_s.{name}"] = float(forecaster_fits.get(name, np.zeros(0)).sum())
    values["forecasters.update_s"] = table.total("forecasters.update")
    for key in ("auto_ensembler.fit", "auto_ensembler.predict", "window_regressor.fit",
                "window_regressor.predict", "window_regressor.update", "mt2r.fit"):
        values[f"hybrid.{key}_s"] = table.total(f"hybrid.{key}")

    values["transforms.window.s"] = table.total("transforms.window")
    values["transforms.log.s"] = table.total("transforms.log")
    values["metrics.smape.calls"] = table.calls("metrics.smape")

    values["stream.append_s"] = table.total("stream.append")
    values["stream.buffer.s"] = table.total("stream.buffer")
    values["stream.rerank_s"] = table.total("stream.rerank")
    values["stream.reranks"] = table.calls("stream.rerank")
    values["anomaly.watch.s"] = table.total("anomaly.watch")

    values["serve.snapshot.publish_s"] = table.total("serve.snapshot.publish")
    values["serve.snapshot.hydrate_s"] = table.total("serve.snapshot.hydrate")
    predicts = table.by_suffix("core.pipeline.predict") if replica else {}
    for name in SERVED_MODELS:
        samples = predicts.get(name, np.zeros(0))
        values[f"serve.model.predict_ms.{name}"] = (
            float(np.median(samples)) * 1000.0 if len(samples) else 0.0
        )
    values["trace.spans"] = len(table.duration)
    return values
