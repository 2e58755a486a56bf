"""Per-cell cost estimation for the work-stealing scheduler.

The benchmark matrix is only embarrassingly parallel if every cell costs
about the same; real (dataset, toolkit) matrices are skewed — one long
series under the AutoAI-TS column can cost more than the rest of the
matrix combined.  A scheduler that knows *roughly* how expensive each
cell is can order the queue longest-processing-time-first (LPT: the
classic 4/3-approximation for makespan) and decompose cells projected
far above the rest into concurrently executable parts, instead of
stranding one worker on the long pole while the fleet idles.

The model is deliberately simple and self-correcting:

- the **prior** is structural: ``units = samples x columns x pipelines``
  (a toolkit factory may advertise its internal pipeline count via a
  ``pipeline_count`` attribute — the AutoAI-TS factory advertises its
  10-pipeline default inventory, a plain toolkit fits one model);
- the **rate** (seconds per unit) is learned online, per toolkit, from
  completed-cell wall-clock: ``CellQueue.complete`` folds each whole
  cell's seconds into an exponential moving average (EMA) kept in the
  shared queue document, so every worker prices the remaining cells
  with the fleet's measurements.  A running cell re-prices its own
  entry: its queue beacon, handed to T-Daub as ``progress_callback``,
  writes T-Daub's learning-curve cost projection into the entry.

Cost estimates order and split work; they never touch results.  A wrong
estimate costs wall-clock, not correctness — whichever worker runs a
cell, the manifest merges to the same canonical bytes.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "CellCostModel",
    "pipeline_count",
    "split_factories",
    "DEFAULT_SPLIT_THRESHOLD",
    "MAX_SPLIT_PARTS",
]

#: A cell estimated above ``DEFAULT_SPLIT_THRESHOLD x median cell cost``
#: is decomposed into parts (when its factory supports splitting).
DEFAULT_SPLIT_THRESHOLD = 2.0

#: Upper bound on the parts one cell is decomposed into — a split buys
#: at most fleet-width concurrency, and every part pays queue round-trips.
MAX_SPLIT_PARTS = 8


def pipeline_count(factory: Any) -> int:
    """Number of internal pipelines a toolkit factory will rank (>= 1).

    Factories may advertise it via a ``pipeline_count`` attribute; plain
    single-model toolkits default to 1.
    """
    try:
        count = int(getattr(factory, "pipeline_count", 1))
    except (TypeError, ValueError):
        return 1
    return max(count, 1)


def split_factories(factory: Any, n_parts: int) -> list | None:
    """Decompose one toolkit factory into concurrently executable parts.

    A factory opts into splitting by exposing ``split_parts(n) -> [part
    factories]``; each part factory is a normal ``(horizon) -> model``
    callable that performs a disjoint share of the cell's work (e.g. one
    slice of T-Daub's evaluation waves) against a *shared* evaluation
    store.  Parts only warm that store — the cell's recorded result
    always comes from one full execution (the merge step), which the
    warmed store serves mostly from cache, so the merged manifest is
    byte-identical to an unsplit run by construction.

    Returns ``None`` for atomic factories (no ``split_parts``, or fewer
    than two parts returned — the factory may cap ``n``).
    """
    splitter = getattr(factory, "split_parts", None)
    if not callable(splitter):
        return None
    parts = list(splitter(int(n_parts)))
    return parts if len(parts) >= 2 else None


class CellCostModel:
    """Relative cost estimates for the cells of one benchmark matrix.

    Parameters
    ----------
    datasets:
        The suite, exactly as handed to the runner (name -> 2-D array).
    toolkits:
        Toolkit factories by name (``pipeline_count`` attributes are
        honoured; see :func:`pipeline_count`).
    rates:
        Prior seconds-per-unit rates by toolkit name (e.g. read back
        from a shared queue document so a late-joining worker prices
        cells with the fleet's observations).  Unknown toolkits fall
        back to the median known rate, or 1.0 when nothing has been
        observed — estimates are then *relative*, which is all LPT
        ordering and split thresholds need.
    """

    def __init__(
        self,
        datasets: Mapping[str, Any],
        toolkits: Mapping[str, Callable],
        rates: Mapping[str, float] | None = None,
    ):
        self._units: dict[tuple[str, str], float] = {}
        self._toolkit_units: dict[str, float] = {}
        for toolkit, factory in toolkits.items():
            self._toolkit_units[toolkit] = float(pipeline_count(factory))
        for dataset, data in datasets.items():
            if getattr(data, "is_timeseries_frame", False):
                # Columnar frames answer their shape without materializing
                # (np.asarray on a spilled frame would pull every chunk).
                samples, columns = float(len(data)), float(data.n_columns)
            else:
                array = np.asarray(data)
                samples = float(array.shape[0]) if array.ndim else 1.0
                columns = float(array.shape[1]) if array.ndim > 1 else 1.0
            for toolkit in toolkits:
                self._units[(dataset, toolkit)] = (
                    samples * columns * self._toolkit_units[toolkit]
                )
        self.rates: dict[str, float] = {
            str(name): float(value)
            for name, value in (rates or {}).items()
            if np.isfinite(value) and float(value) > 0.0
        }

    # -- estimation ------------------------------------------------------------
    def units(self, dataset: str, toolkit: str) -> float:
        """Structural size of one cell (samples x columns x pipelines)."""
        return self._units.get((dataset, toolkit), 1.0)

    def rate(self, toolkit: str) -> float:
        """Seconds per unit for one toolkit (median of peers when unseen)."""
        known = self.rates.get(toolkit)
        if known is not None:
            return known
        if self.rates:
            return float(np.median(list(self.rates.values())))
        return 1.0

    def estimate(self, dataset: str, toolkit: str) -> float:
        """Projected cost of one cell in seconds (relative pre-observation)."""
        return self.units(dataset, toolkit) * self.rate(toolkit)

    def order(self, cells: Iterable[tuple[str, str]]) -> list[tuple[str, str]]:
        """Cells sorted longest-projected-first (LPT), ties in given order."""
        indexed = list(enumerate(cells))
        indexed.sort(key=lambda pair: (-self.estimate(*pair[1]), pair[0]))
        return [cell for _, cell in indexed]

    # -- queue planning --------------------------------------------------------
    def plan_entries(
        self,
        cells: Sequence[tuple[str, str]],
        toolkits: Mapping[str, Callable],
        split_threshold: float | None = DEFAULT_SPLIT_THRESHOLD,
    ) -> list[dict]:
        """Queue entries for ``cells``: LPT order, long poles split.

        Every cell becomes one ``cell`` entry — except cells whose
        estimate exceeds ``split_threshold x median`` *and* whose factory
        supports :func:`split_factories`: those become ``n`` ``part``
        entries (disjoint work shares warming the shared evaluation
        store) plus one ``merge`` entry that runs the full cell against
        the warmed store once every part is done.  ``split_threshold``
        ``None`` (or a non-positive value) disables splitting.
        """
        ordered = self.order(cells)
        estimates = {cell: self.estimate(*cell) for cell in ordered}
        median = float(np.median(list(estimates.values()))) if estimates else 0.0
        threshold = (
            None
            if split_threshold is None or float(split_threshold) <= 0.0
            else float(split_threshold)
        )
        entries: list[dict] = []
        seq = 0

        def entry(dataset, toolkit, kind, part, units):
            nonlocal seq
            record = {
                "seq": seq,
                "dataset": dataset,
                "toolkit": toolkit,
                "kind": kind,
                "part": part,
                "units": float(units),
                "cost": float(units) * self.rate(toolkit),
                "state": "pending",
                "worker": "",
                "token": "",
                "claimed_at": 0.0,
                "heartbeat": 0.0,
                "seconds": None,
                "attempts": 0,
                "stolen_from": [],
            }
            seq += 1
            return record

        for dataset, toolkit in ordered:
            units = self.units(dataset, toolkit)
            estimate = estimates[(dataset, toolkit)]
            parts = None
            if threshold is not None and median > 0.0 and estimate > threshold * median:
                requested = min(
                    MAX_SPLIT_PARTS, max(2, math.ceil(estimate / (threshold * median)))
                )
                parts = split_factories(toolkits.get(toolkit), requested)
            if parts is None:
                entries.append(entry(dataset, toolkit, "cell", None, units))
                continue
            n_parts = len(parts)
            for index in range(n_parts):
                entries.append(
                    entry(dataset, toolkit, "part", [index, n_parts], units / n_parts)
                )
            # The merge re-runs the full cell against the store the parts
            # warmed: costed like one part, not like the whole cell.
            entries.append(entry(dataset, toolkit, "merge", None, units / n_parts))
        return entries

    def __repr__(self) -> str:
        return (
            f"CellCostModel(cells={len(self._units)}, "
            f"observed_toolkits={sorted(self.rates)})"
        )
