"""Drift-aware streaming orchestration over warm-started T-Daub.

:class:`StreamingEngine` closes the loop the ROADMAP calls "streaming
ingest + drift-aware refit": arrivals land in an append-only
:class:`~repro.stream.ArrivalBuffer`, the deployed winner absorbs them
through the :meth:`~repro.core.base.BaseForecaster.update` seam (O(Δ)
where the math allows, verified full refit otherwise), a
:class:`~repro.anomaly.ResidualDriftWatcher` scores each arrival's
forecast residual, and a sustained residual regime change triggers a
**warm-started** re-rank — T-Daub replays its rolling-origin schedule
with every unchanged-prefix cell served from cache, so re-ranking after
Δ arrivals re-fits only the cells that see new rows.  Optionally the
refreshed winner is published to the serving layer's content-addressed
snapshot store, where running replicas hot-swap to it with zero dropped
requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import as_2d_array
from ..anomaly.watch import DriftReport, ResidualDriftWatcher
from ..core.base import BaseForecaster
from ..core.tdaub import TDaub
from ..exceptions import InvalidParameterError
from .buffer import ArrivalBuffer

__all__ = ["StreamingEngine", "ArrivalReport"]


@dataclass
class ArrivalReport:
    """What one :meth:`StreamingEngine.append` call did."""

    n_new: int
    total_rows: int
    drift: DriftReport | None = None
    reranked: bool = False
    ranking: list[str] = field(default_factory=list)
    #: winner name after this append (unchanged unless a re-rank ran).
    winner: str = ""
    #: snapshot metadata when the re-ranked winner was published.
    published: object = None


class StreamingEngine:
    """Continuously-ranked forecasting over a growing series.

    Parameters
    ----------
    pipelines:
        Candidate pipelines, handed to :class:`~repro.core.TDaub` under
        ``eval_protocol="rolling_origin"`` (the protocol whose evaluation
        cells are pure functions of series prefixes).
    horizon:
        Forecast horizon of the ranking and the deployed winner.
    n_test:
        Rolling test-window length (pinned across re-ranks so warm runs
        reuse the cold run's cells).  ``None`` lets the first ranking
        derive it, after which it is pinned automatically.
    watcher:
        Drift detector fed one residual per arrival; defaults to a
        :class:`~repro.anomaly.ResidualDriftWatcher` with stock settings.
    rerank_on_drift:
        When True (default), a drift report triggers :meth:`rerank`
        immediately inside :meth:`append`.
    publish_store / publish_name:
        When ``publish_store`` is set (a :class:`~repro.store.StoreBackend`,
        store URL or directory path), every re-rank publishes the new
        winner as a model snapshot under ``publish_name`` via
        :func:`repro.serve.publish_model` — live replicas subscribed to
        that name hot-swap to it.
    tdaub_params:
        Extra keyword arguments forwarded to every :class:`TDaub`
        construction (executor, n_jobs, store, min_allocation_size, ...).
    """

    def __init__(
        self,
        pipelines,
        horizon: int = 1,
        n_test: int | None = None,
        watcher: ResidualDriftWatcher | None = None,
        rerank_on_drift: bool = True,
        publish_store=None,
        publish_name: str = "streaming-winner",
        capacity: int = 256,
        tdaub_params: dict | None = None,
    ):
        self.pipelines = list(pipelines)
        self.horizon = int(horizon)
        self.n_test = n_test
        self.watcher = watcher if watcher is not None else ResidualDriftWatcher()
        self.rerank_on_drift = bool(rerank_on_drift)
        self.publish_store = publish_store
        self.publish_name = str(publish_name)
        self._capacity = int(capacity)
        self.tdaub_params = dict(tdaub_params or {})
        self._buffer: ArrivalBuffer | None = None
        self._ranker: TDaub | None = None
        self._model: BaseForecaster | None = None
        self._model_rows = 0
        self.rerank_count_ = 0
        self.published_ = []

    # -- lifecycle -----------------------------------------------------------
    @property
    def buffer(self) -> ArrivalBuffer:
        if self._buffer is None:
            raise InvalidParameterError("StreamingEngine.start() has not run yet.")
        return self._buffer

    @property
    def ranker_(self) -> TDaub:
        if self._ranker is None:
            raise InvalidParameterError("StreamingEngine.start() has not run yet.")
        return self._ranker

    @property
    def winner_name_(self) -> str:
        return getattr(self.ranker_, "best_pipeline_name_", "")

    @property
    def ranking_(self) -> list[str]:
        return list(self.ranker_.ranked_names_)

    def _make_ranker(self, warm_start=None) -> TDaub:
        return TDaub(
            self.pipelines,
            horizon=self.horizon,
            eval_protocol="rolling_origin",
            n_test=self.n_test,
            warm_start=warm_start,
            **self.tdaub_params,
        )

    def start(self, X0) -> "StreamingEngine":
        """Cold-rank on the initial history and deploy the winner."""
        X0 = as_2d_array(X0, name="X0")
        self._buffer = ArrivalBuffer(
            n_series=X0.shape[1], capacity=max(self._capacity, 2 * len(X0))
        )
        self._buffer.append(X0)
        self._ranker = self._make_ranker()
        self._ranker.fit(self._buffer.view())
        # Pin the geometry: later warm runs must replay these exact cells.
        self.n_test = int(self._ranker.warm_state_.n_test)
        self._model = self._ranker.best_pipeline_
        self._model_rows = len(self._buffer)
        return self

    # -- streaming -----------------------------------------------------------
    def append(self, rows) -> ArrivalReport:
        """Ingest arrivals: update the winner, watch residuals, maybe re-rank.

        Residuals are computed *before* the model sees the new rows (the
        honest one-step-ahead error a deployed forecaster would have
        made), then the winner absorbs them via ``update`` and the
        watcher decides whether the residual regime drifted.  ``rows``
        must be non-empty and finite: an empty block, or rows holding NaN
        or ±inf, raise :class:`~repro.exceptions.DataQualityError` before
        the watcher, the buffer or the winner sees them.
        """
        buffer = self.buffer
        rows = as_2d_array(rows, name="rows", allow_nan=False)
        report = ArrivalReport(n_new=len(rows), total_rows=len(buffer) + len(rows))

        drift: DriftReport | None = None
        if self._model is not None:
            try:
                predicted = np.asarray(
                    self._model.predict(len(rows)), dtype=float
                ).reshape(len(rows), -1)
            except Exception:  # noqa: BLE001 - a broken winner must not drop data
                predicted = None
            if predicted is not None and predicted.shape == rows.shape:
                for row, forecast in zip(rows, predicted):
                    found = self.watcher.observe(row - forecast)
                    if found is not None:
                        drift = found

        buffer.append(rows)
        self._absorb(buffer)

        report.drift = drift
        if drift is not None and self.rerank_on_drift:
            published = self.rerank()
            report.reranked = True
            report.published = published
            self.watcher.reset()
        report.ranking = self.ranking_
        report.winner = self.winner_name_
        report.total_rows = len(buffer)
        return report

    def _absorb(self, buffer: ArrivalBuffer) -> None:
        """Fold rows the deployed model has not seen into its fitted state."""
        if self._model is None:
            return
        view = buffer.view()
        new = view[self._model_rows :]
        if len(new) == 0:
            return
        update = getattr(self._model, "update", None)
        try:
            if callable(update):
                update(new, X_full=view)
            else:
                self._model.fit(view)
        except Exception:  # noqa: BLE001 - fall back to the refit everyone trusts
            self._model.fit(view)
        self._model_rows = len(buffer)

    def rerank(self):
        """Warm-started re-rank over the full buffer; redeploy the winner.

        Returns the published snapshot when ``publish_store`` is set,
        else ``None``.
        """
        warm = getattr(self.ranker_, "warm_state_", None)
        ranker = self._make_ranker(warm_start=warm)
        ranker.fit(self.buffer.view())
        self._ranker = ranker
        self._model = ranker.best_pipeline_
        self._model_rows = len(self.buffer)
        self.rerank_count_ += 1
        published = None
        if self.publish_store is not None and self._model is not None:
            from ..serve import publish_model
            from ..store import open_store

            backend = open_store(self.publish_store)
            published = publish_model(self._model, backend, self.publish_name)
            self.published_.append(published)
        return published

    # -- forecasting ---------------------------------------------------------
    def predict(self, horizon: int | None = None) -> np.ndarray:
        """Forecast with the currently deployed winner."""
        if self._model is None:
            raise InvalidParameterError("StreamingEngine has no deployed model yet.")
        return self._model.predict(horizon if horizon is not None else self.horizon)
