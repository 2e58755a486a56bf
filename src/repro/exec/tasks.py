"""Task payloads and runners executed by the execution engine.

Two task shapes cover the hot paths of the reproduction:

``FitScoreTask`` / :func:`run_fit_score_task`
    One T-Daub evaluation: clone an unfitted pipeline template, fit it on a
    training slice and score it on the internal test split.
``ToolkitRunTask`` / :func:`run_toolkit_task`
    One benchmark-matrix cell: build a toolkit from its factory, fit it on
    the shared training split and SMAPE-score its forecast.

The runner functions are module-level (picklable) and all imports from the
core package happen lazily inside them so ``repro.exec`` never imports
``repro.core`` at module load time (``repro.core.tdaub`` imports this
package, and a top-level back-import would create a cycle).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .dataplane import ArrayRef, FrameRef, resolve_payload

__all__ = [
    "FitScoreTask",
    "FitScoreResult",
    "run_fit_score_task",
    "ToolkitRunTask",
    "ToolkitRunResult",
    "run_toolkit_task",
]


def _apply_horizon(model: Any, horizon: int) -> None:
    """Propagate the forecasting horizon to a freshly created model."""
    if hasattr(model, "set_horizon"):
        model.set_horizon(int(horizon))
    elif hasattr(model, "horizon"):
        model.horizon = int(horizon)


@dataclass
class FitScoreTask:
    """One independent (pipeline template, allocation slice) evaluation.

    ``train``/``test`` are either array values, zero-copy
    :class:`~repro.exec.dataplane.ArrayRef`/:class:`~repro.exec.dataplane.FrameRef`
    slices of data the caller registered with the execution engine's data
    plane, or columnar frames (spilled frames ship as tiny lazy specs);
    the runner resolves refs in the worker, so a ref task pickles in
    bytes instead of megabytes.
    """

    tag: Any
    template: Any
    train: np.ndarray | ArrayRef | FrameRef
    test: np.ndarray | ArrayRef | FrameRef
    horizon: int
    scorer: Callable[[Any, np.ndarray], float] | None = None


@dataclass
class FitScoreResult:
    """Outcome of one :class:`FitScoreTask`.

    ``from_cache`` is stamped by the caller when the result was served by a
    cache tier instead of a fresh fit; persisted records always store it as
    False.
    """

    tag: Any
    score: float
    seconds: float
    n_train: int
    error: str = ""
    from_cache: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.error)


def run_fit_score_task(task: FitScoreTask) -> FitScoreResult:
    """Fit a clone of the task's template and score it on the test slice.

    Failures never propagate: a broken pipeline yields ``score=-inf`` with
    the exception recorded, mirroring T-Daub's keep-going semantics.  A
    non-finite score (say a forecast that overflowed to ``inf``) is such a
    failure too, so it can neither rank nor be persisted.
    """
    from ..core.base import clone

    start = time.perf_counter()
    try:
        train = resolve_payload(task.train)
        test = resolve_payload(task.test)
        candidate = clone(task.template)
        _apply_horizon(candidate, task.horizon)
        candidate.fit(train)
        if task.scorer is not None:
            score = float(task.scorer(candidate, test))
        else:
            score = float(candidate.score(test, horizon=len(test)))
        if not np.isfinite(score):
            raise ValueError(f"score is not finite: {score}")
        error = ""
    except Exception as exc:  # noqa: BLE001 - failures become -inf scores
        score = float("-inf")
        error = repr(exc)
    return FitScoreResult(
        tag=task.tag,
        score=score,
        seconds=time.perf_counter() - start,
        n_train=int(len(task.train)),
        error=error,
    )


@dataclass
class ToolkitRunTask:
    """One (dataset, toolkit) cell of the benchmark matrix.

    Like :class:`FitScoreTask`, ``train``/``test`` may be data-plane
    :class:`~repro.exec.dataplane.ArrayRef`/:class:`~repro.exec.dataplane.FrameRef`
    slices or columnar frames instead of array values.
    """

    tag: Any
    factory: Callable[[int], Any]
    train: np.ndarray | ArrayRef | FrameRef
    test: np.ndarray | ArrayRef | FrameRef
    horizon: int
    evaluation_window: int | None = None
    #: Optional liveness callback (e.g. a queue lease heartbeat beacon).
    #: Pulsed once when the cell starts; models exposing an unset
    #: ``progress_callback`` attribute also receive it, so long fits keep
    #: heartbeating from *inside* execution instead of looking dead until
    #: the next checkpoint.
    heartbeat: Callable[..., None] | None = None


@dataclass
class ToolkitRunResult:
    """Outcome of one :class:`ToolkitRunTask` (paper's "smape (seconds)")."""

    tag: Any
    smape: float
    seconds: float
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)


def run_toolkit_task(task: ToolkitRunTask) -> ToolkitRunResult:
    """Build, fit and SMAPE-score one toolkit on the shared split."""
    from ..metrics.errors import smape

    window = task.evaluation_window or task.horizon
    window = min(window, len(task.test))
    start = time.perf_counter()
    try:
        train = resolve_payload(task.train)
        test = resolve_payload(task.test)
        if getattr(test, "is_timeseries_frame", False):
            # Scoring only reads the evaluation window; materialize just
            # those rows instead of the whole (possibly spilled) split.
            test = test.gather(0, min(window, len(test)))
        model = task.factory(task.horizon)
        if task.heartbeat is not None:
            try:
                task.heartbeat()
            except Exception:  # noqa: BLE001 — liveness is best-effort
                pass
            # Thread the beacon into models that accept a progress
            # callback (AutoAITS/T-Daub) without overriding one the
            # factory already configured.
            if (
                hasattr(model, "progress_callback")
                and getattr(model, "progress_callback") is None
            ):
                model.progress_callback = task.heartbeat
        model.fit(train)
        elapsed = time.perf_counter() - start
        forecast = np.asarray(model.predict(window), dtype=float)
        if forecast.ndim == 1:
            forecast = forecast.reshape(-1, 1)
        if not np.all(np.isfinite(forecast)):
            raise ValueError("forecast contains non-finite values")
        error_value = smape(test[:window], forecast[:window])
        return ToolkitRunResult(tag=task.tag, smape=float(error_value), seconds=float(elapsed))
    except Exception as exc:  # noqa: BLE001 - failures become "0 (0)" entries
        elapsed = time.perf_counter() - start
        return ToolkitRunResult(tag=task.tag, smape=0.0, seconds=float(elapsed), error=repr(exc))
