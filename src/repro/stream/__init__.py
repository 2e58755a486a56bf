"""Incremental evaluation engine: streaming re-ranking over arrivals.

The batch engine treats every invocation as cold — appending Δ rows to a
T-length series re-fits and re-ranks everything.  This package is the
incremental path:

- :class:`ArrivalBuffer` — an append-only series whose prefix bytes
  never move, so every evaluation cell over an old prefix keys the same
  cache record after an append;
- the :meth:`~repro.core.base.BaseForecaster.update` seam — deployed
  winners absorb arrivals from sufficient statistics where the math
  allows, with a verified full-refit fallback elsewhere;
- :class:`StreamingEngine` — residual drift watching
  (:class:`repro.anomaly.ResidualDriftWatcher`) over the deployed
  winner's one-step-ahead errors, answered by a **warm-started**
  rolling-origin T-Daub re-rank (``TDaub(warm_start=...)``) that serves
  every unchanged-prefix evaluation cell from the content-keyed cache and
  optionally publishes the refreshed winner to the serving layer's
  snapshot store.
"""

from .buffer import ArrivalBuffer
from .engine import ArrivalReport, StreamingEngine

__all__ = ["ArrivalBuffer", "ArrivalReport", "StreamingEngine"]
