"""Original Daub selector (oldest-first allocation) for ablation studies.

The paper's T-Daub differs from Daub (Sabharwal, Samulowitz & Tesauro, AAAI
2015) in one key way: data is allocated in *reverse* order so every
allocation contains the most recent observations.  Keeping the original
oldest-first variant around lets the ablation benchmark quantify how much
the reverse allocation matters on time series data.
"""

from __future__ import annotations

from typing import Sequence

from .base import BaseForecaster
from .tdaub import TDaub

__all__ = ["Daub"]


class Daub(TDaub):
    """Incremental data allocation with the original oldest-first ordering."""

    def __init__(
        self,
        pipelines: Sequence[BaseForecaster] = (),
        min_allocation_size: int | None = None,
        allocation_size: int | None = None,
        fixed_allocation_cutoff: int | None = None,
        geo_increment_size: float = 2.0,
        run_to_completion: int = 1,
        test_fraction: float = 0.2,
        horizon: int = 1,
        scorer=None,
        verbose: bool = False,
        n_jobs: int | None = None,
        executor=None,
        memoize: bool = True,
        store=None,
        budget: float | None = None,
    ):
        super().__init__(
            pipelines=pipelines,
            min_allocation_size=min_allocation_size,
            allocation_size=allocation_size,
            fixed_allocation_cutoff=fixed_allocation_cutoff,
            geo_increment_size=geo_increment_size,
            run_to_completion=run_to_completion,
            test_fraction=test_fraction,
            horizon=horizon,
            allocation_direction="oldest_first",
            scorer=scorer,
            verbose=verbose,
            n_jobs=n_jobs,
            executor=executor,
            memoize=memoize,
            store=store,
            budget=budget,
        )

    @classmethod
    def _get_param_names(cls):
        # ``allocation_direction`` is fixed by this subclass and therefore not
        # exposed as a constructor parameter.
        return (
            "pipelines",
            "min_allocation_size",
            "allocation_size",
            "fixed_allocation_cutoff",
            "geo_increment_size",
            "run_to_completion",
            "test_fraction",
            "horizon",
            "scorer",
            "verbose",
            "n_jobs",
            "executor",
            "memoize",
            "store",
            "budget",
        )
