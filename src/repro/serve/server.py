"""A thin HTTP/JSON front end over :class:`~repro.serve.backend.LocalBackend`.

:class:`EmbeddingServer` accepts connections on a
``socketserver.ThreadingTCPServer`` and runs one keep-alive request loop
per connection on its own handler thread (at most :data:`MAX_CONNECTIONS`
of them), all of them readers against
immutable snapshots, so the GIL-released numpy kernels (kNN matrix
product, fetch gathers) overlap across requests while a writer thread
commits through the same store.  The HTTP/1.1 framing is the lean one in
:mod:`repro.serve.wire`, shared with the client.

Protocol (request bodies are JSON, answers JSON or answer frames; answers
carry ``version``/``head_version``/``staleness`` on every query):

====================  =====================================================
``GET /health``        liveness + head version
``GET /stats``         router/backend bookkeeping
``GET /versions``      resolvable versions, head, pinned set
``POST /fetch``        ``{"fact_ids": [..], "version": v?}``, at most
                       :data:`MAX_FETCH_IDS` ids
``POST /knn``          ``{"query": fid|[floats], "k": 5?, "relation": R?,
                       "version": v?, "index": "exact"|"ivf"?, "nprobe": n?}``
``POST /slice``        ``{"relation": R, "version": v?}``
``POST /pin``          ``{"version": v?}`` — lease a version (head if absent)
``POST /release``      ``{"version": v}`` — drop one lease
====================  =====================================================

``/fetch`` and ``/slice`` answers are frames (see :mod:`repro.serve.wire`):
one JSON line in which ``fact_ids`` and ``vectors`` are ``{"dtype":
"<i8"|"<f8", "shape": [..]}``, then ``\\n`` and the arrays' raw
little-endian bytes, written from the backend's arrays with one
``sendmsg`` (``LocalBackend.fetch/slice(..., arrays=True)``; no list is
built).  :class:`~repro.serve.client.ServeClient` decodes them back to
the backend's lists.  Every other answer, errors included, is plain
JSON.

Errors map to HTTP status: unknown fact/version → 404, malformed request
→ 400, a method other than GET/POST → 405, anything else → 500, always
with ``{"error": ...}``; a 500 says only ``"internal error"``, never the
exception text.  ``k`` and ``nprobe`` must be integers ≥ 1, ``version``
an integer and ``fact_ids`` a list of integers.

Edge bounds: a start line over 64 KiB answers 414, a header line over
64 KiB or more than 100 headers 431; a ``Content-Length`` that is
malformed or negative (400) or above :data:`MAX_BODY_BYTES` (413), and any
``Transfer-Encoding`` (400), are refused before a byte of the body is read
and the connection is closed.  A connection that has not delivered a whole
request within :data:`IDLE_TIMEOUT_S` of accepting it or of the last
answer is closed.  A connection accepted while :data:`MAX_CONNECTIONS` are
live gets 503 with ``Retry-After`` and is closed, without a thread.  Each
refusal counts as ``serve.rejects.{reason}`` on the backend's telemetry.
HTTP/1.0 peers, ``Connection: close`` and ``Expect: 100-continue`` are
honoured.

Bind with ``port=0`` to let the OS pick a free port (tests do);
``server.port`` reports the bound one.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from email.utils import formatdate
from http import HTTPStatus

from repro.serve.backend import LocalBackend
from repro.serve.wire import Refused, Wire, encode_frame

MAX_BODY_BYTES = 1 << 20
"""Largest request body the server reads (1 MiB)."""

MAX_FETCH_IDS = 10_000
"""Most fact ids one ``/fetch`` may name."""

IDLE_TIMEOUT_S = 60.0
"""Seconds a connection may take to deliver its next whole request."""

MAX_CONNECTIONS = 64
"""Most connections served at once, one handler thread each."""


def _count_reject(backend: LocalBackend, reason: str) -> None:
    backend.telemetry.metrics.counter(f"serve.rejects.{reason}").inc()


# ------------------------------------------------------------ request head


def _parse_head(start_line: str, headers: dict[str, str]) -> tuple[str, str, str, int]:
    """``(method, path, connection, content length)`` of a request head.

    ``connection`` is ``"close"``, ``"keep-alive"`` (an HTTP/1.0 peer that
    asked for it) or ``""`` (HTTP/1.1 keep-alive, the default).
    """
    parts = start_line.split()
    if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
        raise Refused(400, "bad_request_line", f"malformed request line {start_line!r:.80}")
    method, path, version = parts
    if "transfer-encoding" in headers:
        raise Refused(400, "transfer_encoding", "Transfer-Encoding bodies are not accepted")
    tokens = {t.strip() for t in headers.get("connection", "").lower().split(",")}
    if "close" in tokens:
        connection = "close"
    elif version == "HTTP/1.0":
        connection = "keep-alive" if "keep-alive" in tokens else "close"
    else:
        connection = ""
    value = headers.get("content-length", "0")
    if not (value.isascii() and value.isdigit()):
        raise Refused(400, "content_length", f"malformed Content-Length {value!r:.40}")
    # a long digit string is over the cap whatever it says (and int() of
    # one over 4300 digits raises)
    length = int(value) if len(value) <= 20 else MAX_BODY_BYTES + 1
    if length > MAX_BODY_BYTES:
        raise Refused(413, "body_too_large", f"request body over {MAX_BODY_BYTES} bytes")
    return method, path, connection, length


# ----------------------------------------------------------------- routing


def _json_object(body: bytes) -> dict:
    if not body:
        return {}
    try:
        data = json.loads(body.decode("utf-8"))
    except RecursionError:
        raise ValueError("request body nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("request body must be a JSON object")
    return data


def _int(value: object, name: str, minimum: int | None = None) -> int:
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise Refused(400, f"bad_{name}", f"{name} must be an integer{bound}, got {value!r:.40}")
    return value


def _optional_int(body: dict, name: str, minimum: int | None = None) -> int | None:
    value = body.get(name)
    return None if value is None else _int(value, name, minimum)


def _str(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise Refused(400, f"bad_{name}", f"{name} must be a string, got {value!r:.40}")
    return value


def _optional_str(body: dict, name: str) -> str | None:
    value = body.get(name)
    return None if value is None else _str(value, name)


def _required(body: dict, name: str) -> object:
    if name not in body:
        raise ValueError(f"request body lacks {name!r}")
    return body[name]


def _fact_ids(body: dict) -> list[int]:
    fact_ids = _required(body, "fact_ids")
    if not isinstance(fact_ids, list):
        raise Refused(400, "bad_fact_ids", "fact_ids must be a list of integers")
    if len(fact_ids) > MAX_FETCH_IDS:
        raise Refused(400, "too_many_ids", f"at most {MAX_FETCH_IDS} fact ids per fetch")
    return [_int(fid, "fact_ids") for fid in fact_ids]


def _query(body: dict) -> int | list:
    query = _required(body, "query")
    if isinstance(query, list):
        if not all(type(x) in (int, float) for x in query):
            raise Refused(400, "bad_query", "a query vector must be a list of numbers")
        return query
    return _int(query, "query")


def _route(backend: LocalBackend, method: str, path: str, body: bytes) -> tuple[int, dict]:
    """``(status, payload)`` of one request; raises what the backend raises."""
    if method == "GET":
        if path == "/health":
            return 200, {"ok": True, "head_version": backend.router.head_version()}
        if path == "/stats":
            return 200, backend.stats()
        if path == "/versions":
            return 200, backend.versions()
        return 404, {"error": f"unknown endpoint {path!r}"}
    if method != "POST":
        return 405, {"error": f"method {method!r} not allowed"}
    request = _json_object(body)
    version = _optional_int(request, "version")
    if path == "/fetch":
        result = backend.fetch(_fact_ids(request), version=version, arrays=True)
    elif path == "/knn":
        result = backend.knn(
            _query(request),
            k=_int(request.get("k", 5), "k", 1),
            relation=_optional_str(request, "relation"),
            version=version,
            index=_optional_str(request, "index"),
            nprobe=_optional_int(request, "nprobe", 1),
        )
    elif path == "/slice":
        relation = _str(_required(request, "relation"), "relation")
        result = backend.slice(relation, version=version, arrays=True)
    elif path == "/pin":
        result = backend.pin(version)
    elif path == "/release":
        result = backend.release(_int(_required(request, "version"), "version"))
    else:
        return 404, {"error": f"unknown endpoint {path!r}"}
    return 200, result


def _answer(backend: LocalBackend, method: str, path: str, body: bytes) -> tuple[int, list]:
    """``(status, body buffers)`` answering one request; never raises."""
    try:
        status, payload = _route(backend, method, path, body)
        return status, encode_frame(payload)
    except Refused as exc:
        _count_reject(backend, exc.reason)
        status, error = exc.status, str(exc)
    except KeyError as exc:
        status, error = 404, f"not found: {exc}"
    except (ValueError, TypeError, OverflowError) as exc:
        status, error = 400, str(exc)
    except Exception:
        status, error = 500, "internal error"
    return status, encode_frame({"error": error})


# -------------------------------------------------------------- connection


def _send(
    sock: socket.socket, status: int, buffers: list, connection: str, extra: str = ""
) -> None:
    """Write one answer: its head, then ``buffers`` as :func:`encode_frame` gave them."""
    # reading left the timeout at what remained of the request's deadline;
    # a peer that does not read its answer gets the full idle time
    sock.settimeout(IDLE_TIMEOUT_S)
    length = sum(len(b) for b in buffers)
    kind = "application/json" if len(buffers) == 1 else "application/octet-stream"
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Server: repro-serve\r\nDate: {formatdate(usegmt=True)}\r\n"
        f"Content-Type: {kind}\r\nContent-Length: {length}\r\n"
        + (f"Connection: {connection}\r\n" if connection else "")
        + extra
        + "\r\n"
    )
    # the JSON line is short: join it to the head, send the arrays in place
    pending = [head.encode("latin-1") + buffers[0], *buffers[1:]]
    while pending:
        sent = sock.sendmsg(pending)
        while pending and sent >= len(pending[0]):
            sent -= len(pending.pop(0))
        if sent:
            pending[0] = memoryview(pending[0])[sent:]


class _Handler(socketserver.BaseRequestHandler):
    """One connection's keep-alive loop: read a request, answer it, repeat."""

    server: "_TCPServer"

    def handle(self) -> None:
        wire = Wire(self.request)
        try:
            # small request/response pairs on a keep-alive connection: never
            # let Nagle hold an answer back waiting for a delayed ACK
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while self._serve_one(wire):
                pass
        except OSError:
            pass  # the peer reset or went away; the connection is done

    def _serve_one(self, wire: Wire) -> bool:
        """Answer one request; False once the connection should close."""
        backend = self.server.backend
        deadline = time.monotonic() + IDLE_TIMEOUT_S
        try:
            head = wire.read_head(deadline)
            if head is None:
                return False
            method, path, connection, length = _parse_head(*head)
            if length and head[1].get("expect", "").lower() == "100-continue":
                wire.sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = wire.read_body(length, deadline)
        except Refused as exc:
            # an unread body would be parsed as the next request: close
            _count_reject(backend, exc.reason)
            _send(wire.sock, exc.status, encode_frame({"error": str(exc)}), "close")
            return False
        except TimeoutError:
            _count_reject(backend, "timeout")
            return False
        except ConnectionError:
            return False
        status, answer = _answer(backend, method, path, body)
        _send(wire.sock, status, answer, connection)
        return connection != "close"


class _TCPServer(socketserver.ThreadingTCPServer):
    """Starts one handler thread per connection, at most :data:`MAX_CONNECTIONS` live."""

    allow_reuse_address = True
    daemon_threads = True
    backend: LocalBackend

    def __init__(self, *args, **kwargs):
        self._live = 0
        self._live_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        # runs on the acceptor thread: refusing here starts no thread
        with self._live_lock:
            admitted = self._live < MAX_CONNECTIONS
            self._live += admitted
        if admitted:
            try:
                super().process_request(request, client_address)
            except BaseException:
                self._release()  # no thread started to release it
                raise
            return
        _count_reject(self.backend, "saturated")
        try:
            # a few hundred bytes into a new socket's empty send buffer:
            # this cannot block the acceptor
            error = f"server saturated: {MAX_CONNECTIONS} connections live"
            _send(request, 503, encode_frame({"error": error}), "close",
                  "Retry-After: 1\r\n")
        except OSError:
            pass  # the peer is gone already
        self.shutdown_request(request)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._release()

    def _release(self) -> None:
        with self._live_lock:
            self._live -= 1


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
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.backend = backend
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._tcp.server_address[0]

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` requests)."""
        return self._tcp.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "EmbeddingServer":
        """Begin serving from a background daemon thread."""
        if self._thread is None:
            # the acceptor checks for stop() every poll interval
            self._thread = threading.Thread(
                target=self._tcp.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-serve-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, close the socket and release client-held leases."""
        if self._thread is not None:
            self._tcp.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._tcp.server_close()
        self.backend.release_all()

    def __enter__(self) -> "EmbeddingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EmbeddingServer(url={self.url!r})"
