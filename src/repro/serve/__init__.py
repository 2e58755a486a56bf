"""Online serving: fitted models as store objects behind an async front end.

The training side of this system can rank ten thousand pipelines across a
fleet; this package is the request path that serves their forecasts.  Its
organizing idea is that **a fitted model is just another store object**:

:mod:`repro.serve.snapshot`
    ``snapshot_model`` serializes a fitted pipeline into content-addressed
    blobs plus a manifest record in any :class:`~repro.store.StoreBackend`,
    and ``publish_model`` points a CAS-versioned model document
    (``docs: models/<name>``) at the snapshot digest.  Any replica can
    hydrate any model by digest; re-publishing a re-ranked winner is one
    conditional document update.

:mod:`repro.serve.registry`
    ``ModelRegistry`` hydrates snapshots with an LRU cache and
    **single-flight dedup** — a thousand concurrent requests for a cold
    model trigger exactly one store load — guarded by the shared
    :class:`~repro.resilience.RetryPolicy` / :class:`~repro.resilience.
    CircuitBreaker` pair on the hydration path.

:mod:`repro.serve.batcher`
    ``MicroBatcher`` queues predict requests per model digest.  A request
    for an idle model is dispatched on the next loop tick; requests queued
    behind a running invocation wait for batch-mates (up to ``max_batch``
    requests or ``max_delay_ms``).  Each flush executes **one** vectorized
    ``predict`` on a thread pool and slices each request's horizon out of
    the shared forecast — the core throughput optimisation.  Queues are
    bounded; excess load is shed fast (HTTP 429) instead of growing
    without bound.

:mod:`repro.serve.server`
    ``ServingReplica`` is the asyncio HTTP front end: request routing,
    ``/healthz`` / ``/readyz`` probes, per-model latency and throughput
    counters (``/metrics``), and a background watcher that polls model
    documents and hot-swaps hydrated models between flushes — a re-rank
    publishing a new winner never drops an in-flight request.

``python -m repro.serve`` starts a replica from the command line.
"""

from __future__ import annotations

from .batcher import MicroBatcher, ServeOverloadError
from .registry import ModelRegistry
from .server import ServingReplica
from .snapshot import (
    ModelSnapshot,
    PublishedModel,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    hydrate_model,
    model_doc_name,
    publish_model,
    resolve_model,
    snapshot_model,
)

__all__ = [
    "snapshot_model",
    "hydrate_model",
    "publish_model",
    "resolve_model",
    "model_doc_name",
    "ModelSnapshot",
    "PublishedModel",
    "SnapshotNotFoundError",
    "SnapshotIntegrityError",
    "ModelRegistry",
    "MicroBatcher",
    "ServeOverloadError",
    "ServingReplica",
]
