"""A thin HTTP/JSON front end over :class:`~repro.serve.backend.LocalBackend`.

Stdlib-only (``http.server``): a :class:`EmbeddingServer` wraps a backend
in a ``ThreadingHTTPServer`` — one handler thread per connection, all of
them readers against immutable snapshots, so the GIL-released numpy kernels
(kNN matrix product, fetch gathers) overlap across requests while a writer
thread commits through the same store.

Protocol (all bodies JSON; responses carry ``version``/``head_version``/
``staleness`` on every query):

====================  =====================================================
``GET /health``        liveness + head version
``GET /stats``         router/backend bookkeeping
``GET /versions``      resolvable versions, head, pinned set
``POST /fetch``        ``{"fact_ids": [..], "version": v?}``
``POST /knn``          ``{"query": fid|[floats], "k": 5?, "relation": R?,
                       "version": v?, "index": "exact"|"ivf"?, "nprobe": n?}``
``POST /slice``        ``{"relation": R, "version": v?}``
``POST /pin``          ``{"version": v?}`` — lease a version (head if absent)
``POST /release``      ``{"version": v}`` — drop one lease
====================  =====================================================

Errors map to HTTP status: unknown fact/version → 404, malformed request
→ 400, anything else → 500, always with ``{"error": ...}``; a 500 says only
``"internal error"``, never the exception text.  A ``Content-Length`` that
is negative (400) or above :data:`MAX_BODY_BYTES` (413) is refused before
any of the body is read, and the connection is closed.  Bind with
``port=0`` to let the OS pick a free port (tests do); ``server.port``
reports the bound one.  :class:`~repro.serve.client.ServeClient` is the
matching client.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.backend import LocalBackend

MAX_BODY_BYTES = 1 << 20
"""Largest request body the server reads (1 MiB)."""


class _Refused(Exception):
    """A request refused before its body is read."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's backend."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # headers and body go out as separate writes; without TCP_NODELAY the
    # second write stalls ~40ms behind the peer's delayed ACK (Nagle)
    disable_nagle_algorithm = True

    # the EmbeddingServer injects itself here via a subclass attribute
    embedding_server: "EmbeddingServer"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep the serving hot path quiet; telemetry covers it

    def _respond(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise _Refused(400, "malformed Content-Length") from None
        if length < 0:
            raise _Refused(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise _Refused(413, f"request body over {MAX_BODY_BYTES} bytes")
        if length == 0:
            return {}
        data = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        backend = self.embedding_server.backend
        try:
            if self.path == "/health":
                self._respond(
                    200, {"ok": True, "head_version": backend.router.head_version()}
                )
            elif self.path == "/stats":
                self._respond(200, backend.stats())
            elif self.path == "/versions":
                self._respond(200, backend.versions())
            else:
                self._respond(404, {"error": f"unknown endpoint {self.path!r}"})
        except Exception:
            self._respond(500, {"error": "internal error"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        backend = self.embedding_server.backend
        try:
            body = self._body()
            if self.path == "/fetch":
                result = backend.fetch(
                    body["fact_ids"], version=body.get("version")
                )
            elif self.path == "/knn":
                result = backend.knn(
                    body["query"],
                    k=body.get("k", 5),
                    relation=body.get("relation"),
                    version=body.get("version"),
                    index=body.get("index"),
                    nprobe=body.get("nprobe"),
                )
            elif self.path == "/slice":
                result = backend.slice(body["relation"], version=body.get("version"))
            elif self.path == "/pin":
                result = backend.pin(body.get("version"))
            elif self.path == "/release":
                result = backend.release(body["version"])
            else:
                self._respond(404, {"error": f"unknown endpoint {self.path!r}"})
                return
            self._respond(200, result)
        except _Refused as exc:
            # the unread body would be parsed as the next request
            self.close_connection = True
            self._respond(exc.status, {"error": str(exc)})
        except KeyError as exc:
            self._respond(404, {"error": f"not found: {exc}"})
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            self._respond(400, {"error": str(exc)})
        except Exception:
            self._respond(500, {"error": "internal error"})


class EmbeddingServer:
    """Serves a backend over HTTP from a daemon thread.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.  ``start()``/``stop()`` are idempotent; ``stop()`` also
    releases every lease HTTP clients still hold.  Usable as a context
    manager.
    """

    def __init__(
        self,
        backend: LocalBackend,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.backend = backend
        handler = type("_BoundHandler", (_Handler,), {"embedding_server": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` requests)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "EmbeddingServer":
        """Begin serving from a background daemon thread."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, close the socket and release client-held leases."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()
        self.backend.release_all()

    def __enter__(self) -> "EmbeddingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EmbeddingServer(url={self.url!r})"
