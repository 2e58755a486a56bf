"""``python -m repro.store.server`` — the bundled S3-style object store.

A deliberately small HTTP server speaking the protocol
:class:`~repro.store.objectstore.ObjectStoreBackend` expects, so cloud
shards with **no shared filesystem** can still share one evaluation
store, one blob vault, one run manifest and its work queue.  Three object
families, three URL prefixes::

    GET/HEAD/PUT/DELETE  /records/<digest>   immutable JSON records
    GET/HEAD/PUT/DELETE  /blobs/<digest>     immutable ``.npy`` blobs
    GET/HEAD/PUT/DELETE  /docs/<name>        mutable documents (manifests, queues)
    GET                  /healthz            object counts, for smoke tests

Semantics:

- **ETag = BLAKE2 digest of the body** on every GET/HEAD/PUT response, so
  clients can cache and compare content without a second round trip.
- **Conditional PUT** on documents: ``If-Match: "<etag>"`` succeeds only
  against exactly that stored content, ``If-None-Match: *`` only against
  absence; anything else is ``412 Precondition Failed``.  This is the
  compare-and-swap the work queue and the shared manifest run on — the
  object-store replacement for ``flock``.
- Records and blobs are content-addressed and therefore idempotent:
  concurrent PUTs of one digest publish identical bytes, last write wins
  harmlessly.
- Writes are atomic (:func:`~repro.store.localfs.atomic_write`: staged in
  the destination directory, published with ``os.replace``), so a killed
  server never leaves a torn object.

The server is threaded (one OS thread per connection, HTTP/1.1
keep-alive) and persists everything under ``--root``.  Records and blobs
sit at the paths :class:`~repro.store.localfs.LocalFSBackend` gives
them, so a store directory can be served over HTTP one day and opened
as a ``LocalFSBackend`` the next.

This process trusts its network: there is no authentication and request
bodies are JSON/array bytes interpreted by clients.  Bind it to loopback
or a private interface, exactly like ``python -m repro.exec.remote``.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Sequence

from .. import faults
from .digest import text_digest
from .localfs import LocalFSBackend, atomic_write

__all__ = ["StoreServer", "main"]

#: Bodies beyond this size are refused before reading: a confused client
#: must not make the server buffer gigabytes.
MAX_BODY_BYTES = 512 * 1024 * 1024

_DIGEST_RE = re.compile(r"^[0-9a-f]{8,128}$")
#: Document names arrive percent-quoted (``quote(name, safe="")``), so a
#: valid segment never contains ``/``; this guard also refuses dot-files
#: and anything that could walk out of the docs directory.
_DOC_RE = re.compile(r"^[A-Za-z0-9._%+-]{1,512}$")


class _StoreState:
    """On-disk state shared by every request thread of one server."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.layout = LocalFSBackend(self.root)
        # Document compare-and-swap must read, compare and publish as one
        # step; a single process-wide lock is plenty at manifest sizes.
        self.doc_lock = threading.Lock()

    def counts(self) -> dict:
        records = sum(1 for _ in self.root.glob("??/*.json")) if self.root.is_dir() else 0
        blobs = sum(1 for _ in self.root.glob("blobs/??/*.npy")) if self.root.is_dir() else 0
        docs_dir = self.root / "docs"
        docs = sum(1 for _ in docs_dir.iterdir()) if docs_dir.is_dir() else 0
        return {"status": "ok", "records": records, "blobs": blobs, "docs": docs}


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive is what makes the client's pooled connections worth
    # having; HTTP/1.1 requires Content-Length on every response below.
    protocol_version = "HTTP/1.1"
    server_version = "repro-store/1"
    # Small request/response pairs on persistent connections: Nagle plus
    # delayed ACKs would add ~40ms to every round trip.
    disable_nagle_algorithm = True

    state: _StoreState  # injected by StoreServer

    # -- plumbing --------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _reply(
        self,
        status: int,
        body: bytes = b"",
        etag: str | None = None,
        content_type: str = "application/octet-stream",
        head_only: bool = False,
        close: bool = False,
    ) -> None:
        # ``close=True`` is for error replies sent *before* the request
        # body was consumed: leaving the keep-alive connection open would
        # make the unread body bytes parse as the next request line,
        # poisoning every later exchange on the pooled connection.
        if close:
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if etag is not None:
            self.send_header("ETag", f'"{etag}"')
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        if body and not head_only:
            self.wfile.write(body)

    def _read_body(self) -> bytes | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._reply(400, b"bad Content-Length", close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._reply(413, b"body too large", close=True)
            return None
        return self.rfile.read(length)

    def _route(self) -> tuple[str, str] | None:
        """Split ``/family/name`` and validate the name, or answer an error.

        Error replies close the connection when a request body may still
        be sitting unread on the socket (PUT).
        """
        unread_body = self.command == "PUT"
        path = self.path.split("?", 1)[0]
        if path in ("/healthz", "/"):
            return ("health", "")
        parts = path.strip("/").split("/")
        if len(parts) != 2 or parts[0] not in ("records", "blobs", "docs"):
            self._reply(404, b"unknown route", close=unread_body)
            return None
        family, name = parts
        pattern = _DOC_RE if family == "docs" else _DIGEST_RE
        if not pattern.match(name):
            self._reply(400, b"invalid object name", close=unread_body)
            return None
        return family, name

    def _object_path(self, family: str, name: str) -> Path:
        if family == "records":
            return self.state.layout.record_path(name)
        if family == "blobs":
            return self.state.layout.blob_path(name)
        return self.state.root / "docs" / name

    def _injected_unavailable(self) -> bool:
        """``store.server.request`` seam: answer 503 before doing any work.

        Simulates a proxy/broker brownout in front of the store.  The
        reply closes the connection (the request body, if any, is still
        unread on the socket) — exactly how a load balancer sheds load.
        """
        rule = faults.fire("store.server.request", detail=f"{self.command} {self.path}")
        if rule is not None and rule.action == "http_503":
            self._reply(503, b"injected unavailability", close=True)
            return True
        return False

    # -- verbs -----------------------------------------------------------------
    def _get(self, head_only: bool) -> None:
        if self._injected_unavailable():
            return
        route = self._route()
        if route is None:
            return
        family, name = route
        if family == "health":
            body = json.dumps(self.state.counts()).encode("utf-8")
            self._reply(200, body, content_type="application/json", head_only=head_only)
            return
        path = self._object_path(family, name)
        if head_only:
            # HEAD is the dedup probe (``has_blob``): existence and size
            # from ``stat``, never a read — hashing a multi-hundred-MB
            # blob to decorate an existence check with an ETag would make
            # every probe cost a full disk scan.
            try:
                size = path.stat().st_size
            except (FileNotFoundError, NotADirectoryError):
                self._reply(404, head_only=True)
                return
            except OSError:
                self._reply(500, head_only=True)
                return
            self.send_response(200)
            self.send_header("Content-Type", "application/octet-stream")
            self.send_header("Content-Length", str(size))
            self.end_headers()
            return
        try:
            body = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            self._reply(404, b"not found")
            return
        except OSError:
            self._reply(500, b"unreadable object")
            return
        self._reply(200, body, etag=text_digest(body))

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._get(head_only=False)

    def do_HEAD(self) -> None:  # noqa: N802
        self._get(head_only=True)

    def do_PUT(self) -> None:  # noqa: N802
        if self._injected_unavailable():
            return
        route = self._route()
        if route is None:
            return
        family, name = route
        if family == "health":
            self._reply(405, b"read-only route", close=True)
            return
        body = self._read_body()
        if body is None:
            return
        path = self._object_path(family, name)
        if family == "docs":
            self._put_doc(path, body)
            return
        # Records and blobs are content-addressed: unconditional, idempotent.
        try:
            atomic_write(path, lambda handle: handle.write(body))
        except OSError:
            self._reply(507, b"write failed")
            return
        self._reply(201, b"", etag=text_digest(body))

    def _put_doc(self, path: Path, body: bytes) -> None:
        """Document PUT honoring ``If-Match`` / ``If-None-Match: *``."""
        if_match = self.headers.get("If-Match")
        if_none_match = self.headers.get("If-None-Match")
        with self.state.doc_lock:
            try:
                current = path.read_bytes()
            except (FileNotFoundError, NotADirectoryError):
                current = None
            if if_none_match is not None:
                if if_none_match.strip() != "*":
                    self._reply(400, b"only If-None-Match: * is supported")
                    return
                if current is not None:
                    self._reply(412, b"document exists", etag=text_digest(current))
                    return
            if if_match is not None:
                expected = if_match.strip().strip('"')
                if current is None or text_digest(current) != expected:
                    self._reply(
                        412,
                        b"etag mismatch",
                        etag=None if current is None else text_digest(current),
                    )
                    return
            try:
                atomic_write(path, lambda handle: handle.write(body))
            except OSError:
                self._reply(507, b"write failed")
                return
        rule = faults.fire("store.server.doc_put", detail=path.name)
        if rule is not None and rule.action == "drop":
            # The write is durable but the response never arrives — a
            # partition hitting exactly the conditional PUT's ack.  The
            # client's transport retry will fail the precondition (412,
            # the ETag moved under it) and re-derive from the stored text.
            self.close_connection = True
            return
        self._reply(200 if current is not None else 201, b"", etag=text_digest(body))

    def do_DELETE(self) -> None:  # noqa: N802
        if self._injected_unavailable():
            return
        route = self._route()
        if route is None:
            return
        family, name = route
        if family == "health":
            self._reply(405, b"read-only route")
            return
        try:
            self._object_path(family, name).unlink()
        except FileNotFoundError:
            self._reply(404, b"not found")
            return
        except OSError:
            self._reply(500, b"delete failed")
            return
        self._reply(204)


class _HTTPServer(ThreadingHTTPServer):
    """Threaded server whose ``server_close`` also severs open connections:
    ``shutdown()`` stops only the accept loop, and a handler thread blocked
    on a keep-alive connection would go on answering it."""

    daemon_threads = True
    _closing = False

    def __init__(self, *args):
        super().__init__(*args)
        self._connections: set[socket.socket] = set()

    def process_request(self, request, client_address):
        self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        self._closing = True
        for connection in list(self._connections):
            with contextlib.suppress(OSError):  # already closed by its handler
                connection.shutdown(socket.SHUT_RDWR)

    def handle_error(self, request, client_address):
        # A handler whose connection close() severed mid-reply is no fault.
        if not self._closing:
            super().handle_error(request, client_address)


class StoreServer:
    """Embeddable object-store server (the CLI wraps this too).

    Parameters
    ----------
    root:
        Directory persisting every object; created on first write.
    host, port:
        Listen address; ``port=0`` picks a free port (``.address`` reports
        the bound one — handy for tests).
    """

    def __init__(self, root: str | os.PathLike, host: str = "127.0.0.1", port: int = 0):
        self.state = _StoreState(root)
        handler = type("BoundHandler", (_Handler,), {"state": self.state})
        self._httpd = _HTTPServer((host, port), handler)
        self.address: tuple[str, int] = self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=0.1)

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()

    def __enter__(self) -> "StoreServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"StoreServer(url={self.url!r}, root={str(self.state.root)!r})"


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.store.server``: serve an object store until killed."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.store.server",
        description="Serve records, blobs and documents for ObjectStoreBackend clients.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument("--port", type=int, default=7171, help="listen port (0 = any)")
    parser.add_argument(
        "--root",
        default="repro-store",
        help="directory persisting every object (LocalFSBackend layout)",
    )
    args = parser.parse_args(argv)
    server = StoreServer(root=args.root, host=args.host, port=args.port)
    host, port = server.address
    print(
        f"[store] serving on http://{host}:{port} "
        f"(root {args.root}, pid {os.getpid()})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
