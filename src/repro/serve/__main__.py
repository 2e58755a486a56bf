"""``python -m repro.serve`` — run one serving replica until killed.

Example::

    python -m repro.store.server --port 7171 --root store-root &
    python -m repro.serve --store http://127.0.0.1:7171 \
        --models energy,retail --port 7272 --max-batch 64 --max-delay-ms 3

Any number of replicas can point at one store; each resolves, hydrates
and hot-swaps its models independently.
"""

from __future__ import annotations

import asyncio
import os
from typing import Sequence

from .server import ServingReplica

__all__ = ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve micro-batched forecasts from published model snapshots.",
    )
    parser.add_argument(
        "--store",
        required=True,
        help="object-store URL (http://host:port) or local store directory",
    )
    parser.add_argument(
        "--models",
        default="",
        help="comma-separated model names to resolve at startup (others are "
        "resolved on first request)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument("--port", type=int, default=7272, help="listen port (0 = any)")
    parser.add_argument("--max-batch", type=int, default=32, help="requests per flush")
    parser.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="longest a request waits for batch-mates while its model is busy, in "
        "milliseconds (a request for an idle model is dispatched at once)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=1024, help="queued requests per model before 429"
    )
    parser.add_argument(
        "--capacity", type=int, default=8, help="hydrated models kept resident (LRU)"
    )
    parser.add_argument(
        "--poll-interval", type=float, default=0.5, help="hot-swap poll seconds"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="model-invocation threads"
    )
    parser.add_argument(
        "--doc-prefix",
        default="models",
        help="model-document namespace (object store) or directory (local store)",
    )
    args = parser.parse_args(argv)

    replica = ServingReplica(
        store=args.store,
        models=[name for name in args.models.split(",") if name],
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        max_queue=args.max_queue,
        capacity=args.capacity,
        poll_interval=args.poll_interval,
        workers=args.workers,
        doc_prefix=args.doc_prefix,
    )

    async def run() -> None:
        await replica.start()
        host, port = replica.address
        print(
            f"[serve] replica on http://{host}:{port} "
            f"(store {replica.backend.describe()}, "
            f"models {sorted(replica._table) or 'on-demand'}, pid {os.getpid()})",
            flush=True,
        )
        assert replica._server is not None
        try:
            await replica._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await replica.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
