"""Text rendering of the paper's tables and figures.

The paper reports results as detail tables ("smape (seconds)" per data set
and toolkit — Tables 4, 5, 6), average-rank bar charts (Figures 6, 8, 10,
12) and per-rank histograms (Figures 7, 9, 11, 13-15).  These renderers
produce the same content as aligned text so the benchmark harness can print
paper-comparable artifacts without a plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..metrics.ranking import RankSummary, rank_histogram
from .results import BenchmarkResults

__all__ = [
    "render_detail_table",
    "render_average_rank_figure",
    "render_rank_histogram",
    "render_shard_provenance",
    "render_training_time_figure",
]


def _order_toolkits(results: BenchmarkResults, summary: RankSummary) -> list[str]:
    ordered = summary.ordered_toolkits()
    # Toolkits that never produced a successful run still deserve a column.
    missing = [name for name in results.toolkit_names if name not in ordered]
    return ordered + missing


def render_detail_table(
    results: BenchmarkResults,
    title: str,
    toolkit_order: Sequence[str] | None = None,
) -> str:
    """Per-dataset "smape (seconds)" detail table (Tables 4, 5 and 6)."""
    order = list(toolkit_order) if toolkit_order else _order_toolkits(
        results, results.accuracy_ranking()
    )
    name_width = max([len(name) for name in results.dataset_names] + [7]) + 2
    column_width = max([len(name) for name in order] + [16]) + 2

    lines = [title, ""]
    header = f"{'Index':>5s}  {'Dataset':<{name_width}s}" + "".join(
        f"{name:>{column_width}s}" for name in order
    )
    lines.append(header)
    lines.append("-" * len(header))
    for index, dataset in enumerate(results.dataset_names, start=1):
        cells = []
        for toolkit in order:
            run = results.run_for(toolkit, dataset)
            cells.append(run.table_cell if run is not None else "-")
        lines.append(
            f"{index:>5d}  {dataset:<{name_width}s}"
            + "".join(f"{cell:>{column_width}s}" for cell in cells)
        )
    footnotes = []
    if any(run.over_budget for run in results.runs):
        footnotes.append("* exceeded the per-run training-time budget")
    cached = results.from_cache_count()
    if cached:
        footnotes.append(
            f"† served from the run manifest ({cached}/{len(results.runs)} cells resumed)"
        )
    if footnotes:
        lines.append("")
        lines.extend(footnotes)
    return "\n".join(lines)


def render_shard_provenance(
    provenance: Mapping[tuple[str, str], str],
    max_cells_listed: int = 4,
    scheduler: Mapping[str, object] | None = None,
) -> str:
    """Footnotes naming which worker computed which matrix cells.

    ``provenance`` is the queue-document mapping from
    :meth:`~repro.benchmarking.sharding.CellQueue.provenance`.  The detail
    tables themselves stay provenance-free (a multi-worker run and a
    single-process run render byte-identically); these footnotes are the
    place the split is reported.

    ``scheduler`` — the work-stealing run's
    :meth:`~repro.benchmarking.sharding.CellQueue.scheduler_stats` — adds
    per-worker load (cells, split parts, steals, wall-clock) and the
    split/steal totals, so skew is diagnosable from the artifact alone.
    """
    if not provenance and not scheduler:
        return ""
    lines: list[str] = []
    if provenance:
        by_worker: dict[str, list[tuple[str, str]]] = {}
        for cell in sorted(provenance):
            by_worker.setdefault(provenance[cell], []).append(cell)
        lines.append(
            f"Shard provenance ({len(provenance)} cells, {len(by_worker)} workers):"
        )
        for worker in sorted(by_worker):
            cells = by_worker[worker]
            listed = ", ".join(
                f"{dataset}×{toolkit}" for dataset, toolkit in cells[:max_cells_listed]
            )
            if len(cells) > max_cells_listed:
                listed += f", … {len(cells) - max_cells_listed} more"
            lines.append(f"  {worker}: {len(cells)} cells ({listed})")
    if scheduler:
        workers = scheduler.get("workers") or {}
        splits = scheduler.get("splits") or []
        steals = int(scheduler.get("steals") or 0)
        if lines:
            lines.append("")
        lines.append(
            f"Scheduler ({len(splits)} cells split, {steals} steals):"
        )
        for worker in sorted(workers):
            stats = workers[worker]
            lines.append(
                f"  {worker}: {int(stats.get('cells', 0))} cells, "
                f"{int(stats.get('parts', 0))} parts, "
                f"{int(stats.get('stolen', 0))} stolen, "
                f"{float(stats.get('seconds', 0.0)):.2f}s busy"
            )
        for dataset, toolkit in splits:
            lines.append(f"  split: {dataset}×{toolkit}")
    return "\n".join(lines)


def _render_bar(value: float, scale: float, width: int = 40) -> str:
    filled = int(round(width * value / scale)) if scale > 0 else 0
    return "#" * max(filled, 1)


def render_average_rank_figure(summary: RankSummary, title: str) -> str:
    """Average-rank bar chart (Figures 6 and 10; smaller bar = better)."""
    lines = [title, ""]
    if not summary.average_rank:
        return "\n".join(lines + ["(no successful runs)"])
    worst = max(summary.average_rank.values())
    for name in summary.ordered_toolkits():
        value = summary.average_rank[name]
        lines.append(f"{name:<18s} {value:5.2f}  {_render_bar(value, worst)}")
    lines.append("")
    lines.append(f"(average rank over {summary.n_datasets} data sets; lower is better)")
    return "\n".join(lines)


def render_training_time_figure(summary: RankSummary, title: str) -> str:
    """Average training-time-rank chart (Figures 8 and 12)."""
    return render_average_rank_figure(summary, title)


def render_rank_histogram(summary: RankSummary, title: str, max_rank: int | None = None) -> str:
    """Number-of-datasets-per-rank histogram (Figures 7, 9, 11, 13, 14, 15)."""
    lines = [title, ""]
    dense = rank_histogram(summary, max_rank=max_rank)
    if not dense:
        return "\n".join(lines + ["(no successful runs)"])
    n_ranks = len(next(iter(dense.values())))
    header = f"{'toolkit/pipeline':<36s}" + "".join(f"  r{rank:<3d}" for rank in range(1, n_ranks + 1))
    lines.append(header)
    lines.append("-" * len(header))
    for name in summary.ordered_toolkits():
        counts = dense.get(name, [0] * n_ranks)
        lines.append(f"{name:<36s}" + "".join(f"  {count:<4d}" for count in counts))
    lines.append("")
    lines.append("(cell = number of data sets on which the toolkit achieved that rank)")
    return "\n".join(lines)
