"""HTTP client for the serve tier — the remote face of ``LocalBackend``.

:class:`ServeClient` mirrors the :class:`~repro.serve.backend.LocalBackend`
method-for-method and returns the same JSON dicts, so callers (the load
generator, replica processes attaching to a served store, tests) can swap
the in-process and networked transports without code changes.  Each client
owns one persistent ``TCP_NODELAY`` socket framed by
:mod:`repro.serve.wire`, so use one client per thread — connections are
not thread-safe.

Results are exact by construction: ``fact_ids`` and ``vectors`` arrive as
the raw little-endian bytes of the server's arrays after a one-line JSON
head (:func:`~repro.serve.wire.decode_frame`), not as decimal text, and
each becomes a list by one ``np.frombuffer(...).tolist()``.  A pinned
remote reader therefore sees results bit-identical to a local reader of
the same version (``-0.0``, infinities, NaN and subnormals included).
The remaining floats (kNN scores) are JSON, whose ``repr`` encoding also
round-trips IEEE-754 doubles.
"""

from __future__ import annotations

import json
import socket

from repro.serve.wire import Wire, decode_frame


class ServeError(RuntimeError):
    """A non-2xx response from the serve tier; carries the HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class _Stale(ConnectionError):
    """The connection closed or reset before a byte of the answer arrived."""


class ServeClient:
    """Talks to an :class:`~repro.serve.server.EmbeddingServer`.

    Not thread-safe: give each reader thread its own client (they each
    keep one persistent connection).  Usable as a context manager.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8765, timeout: float = 10.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._wire: Wire | None = None

    # ----------------------------------------------------------- transport

    def _connection(self) -> Wire:
        if self._wire is None:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            # small request/response pairs on a keep-alive connection: never
            # let Nagle hold a packet back waiting for a delayed ACK
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._wire = Wire(sock)
        return self._wire

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        message = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
        ).encode("latin-1") + payload
        try:
            status, data = self._exchange(message)
        except _Stale:
            # the server dropped the kept-alive connection: reconnect once
            status, data = self._exchange(message)
        result = decode_frame(data)
        if status >= 300:
            raise ServeError(status, str(result.get("error", result)))
        return result

    def _exchange(self, message: bytes) -> tuple[int, bytes]:
        """Send one request; ``(status, body)`` of its answer.

        Raises :class:`_Stale` when no byte of the answer arrived, the one
        case in which resending is safe.
        """
        wire = self._connection()
        before = wire.bytes_read
        try:
            wire.sock.sendall(message)
            head = wire.read_head()
            if head is None:
                raise _Stale
            status_line, headers = head
            version, _, rest = status_line.partition(" ")
            if not version.startswith("HTTP/") or not rest[:3].isdigit():
                raise ValueError(f"malformed status line {status_line!r:.80}")
            length = headers.get("content-length", "")
            if not length.isdigit():
                raise ValueError(f"answer without a valid Content-Length: {length!r:.40}")
            data = wire.read_body(int(length))
        except ConnectionError as exc:
            self.close()
            if wire.bytes_read == before:
                raise _Stale from exc
            raise
        except BaseException:
            self.close()
            raise
        if headers.get("connection", "").lower() == "close" or version == "HTTP/1.0":
            self.close()
        return int(rest[:3]), data

    def close(self) -> None:
        """Close the persistent connection (reopened lazily on next call)."""
        if self._wire is not None:
            self._wire.sock.close()
            self._wire = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- queries

    def health(self) -> dict:
        """Liveness probe; includes the writer's head version."""
        return self._request("GET", "/health")

    def stats(self) -> dict:
        """Server-side router/backend bookkeeping."""
        return self._request("GET", "/stats")

    def versions(self) -> dict:
        """Resolvable versions, head and pinned set."""
        return self._request("GET", "/versions")

    def fetch(self, fact_ids: list[int], version: int | None = None) -> dict:
        """Batched fetch-by-fact-id at ``version`` (latest when None)."""
        body: dict = {"fact_ids": [int(fid) for fid in fact_ids]}
        if version is not None:
            body["version"] = int(version)
        return self._request("POST", "/fetch", body)

    def knn(
        self,
        query: int | list[float],
        k: int = 5,
        relation: str | None = None,
        version: int | None = None,
        index: str | None = None,
        nprobe: int | None = None,
    ) -> dict:
        """Top-``k`` cosine neighbours of a fact id or raw vector.

        ``index``/``nprobe`` select and tune the answering index per query
        (exact default; HTTP 400 when the server cannot answer ``index``).
        """
        body: dict = {"query": query, "k": int(k)}
        if relation is not None:
            body["relation"] = relation
        if version is not None:
            body["version"] = int(version)
        if index is not None:
            body["index"] = index
        if nprobe is not None:
            body["nprobe"] = int(nprobe)
        return self._request("POST", "/knn", body)

    def slice(self, relation: str, version: int | None = None) -> dict:
        """All live facts of one relation."""
        body: dict = {"relation": relation}
        if version is not None:
            body["version"] = int(version)
        return self._request("POST", "/slice", body)

    # ------------------------------------------------------------- pinning

    def pin(self, version: int | None = None) -> dict:
        """Lease ``version`` (head when None) server-side; returns it."""
        body = {} if version is None else {"version": int(version)}
        return self._request("POST", "/pin", body)

    def release(self, version: int) -> dict:
        """Drop one server-side lease on ``version``."""
        return self._request("POST", "/release", {"version": int(version)})
