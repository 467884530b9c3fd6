"""The HTTP edge: framing, bounds, parameter checks and a fuzzed peer."""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Telemetry
from repro.serve import EmbeddingServer, LocalBackend, ServeClient, ServeError
from repro.serve import server as server_module
from repro.serve.server import MAX_FETCH_IDS
from repro.serve.wire import decode_frame, encode_frame


def parse_responses(raw: bytes) -> list[tuple[int, dict, bytes]]:
    """``(status, headers, body)`` of every whole response in ``raw``."""
    responses = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        if not sep:
            break
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        responses.append((int(lines[0].split()[1]), headers, rest[:length]))
        raw = rest[length:]
    return responses


def exchange(server, data: bytes, *, half_close: bool = True, timeout: float = 2.0):
    """Send raw bytes; every response read until the server closes."""
    raw = b""
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                raw += chunk
        except ConnectionResetError:
            pass  # a refused request's unread bytes reset the connection
    return parse_responses(raw)


def request(method: str, path: str, body: bytes = b"", headers: str = "",
            version: str = "HTTP/1.1") -> bytes:
    return (
        f"{method} {path} {version}\r\nHost: x\r\n{headers}"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def wait_for_threads(count: int, timeout: float = 5.0) -> int:
    deadline = time.monotonic() + timeout
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


@pytest.fixture
def telemetry():
    return Telemetry()


@pytest.fixture
def server(router, telemetry):
    with EmbeddingServer(LocalBackend(router, telemetry=telemetry)) as server:
        yield server


def rejects(telemetry) -> dict[str, float]:
    counters = telemetry.metrics.snapshot()["counters"]
    return {
        name.removeprefix("serve.rejects."): value
        for name, value in counters.items()
        if name.startswith("serve.rejects.")
    }


class TestFraming:
    def test_pipelined_requests_answer_in_order(self, server):
        data = request("GET", "/health") + request("POST", "/pin", b"{}") + request(
            "GET", "/versions", b"ignored body"
        )
        statuses = [status for status, _, _ in exchange(server, data)]
        assert statuses == [200, 200, 200]

    def test_http10_peer_gets_one_answer_then_close(self, server):
        responses = exchange(server, request("GET", "/health", version="HTTP/1.0") * 2,
                             half_close=False)
        assert [s for s, _, _ in responses] == [200]
        assert responses[0][1]["connection"] == "close"

    def test_http10_keep_alive_is_honoured(self, server):
        data = request("GET", "/health", headers="Connection: keep-alive\r\n",
                       version="HTTP/1.0") * 2
        responses = exchange(server, data)
        assert [s for s, _, _ in responses] == [200, 200]
        assert responses[0][1]["connection"] == "keep-alive"

    def test_connection_close_is_honoured(self, server):
        data = request("GET", "/health", headers="Connection: close\r\n") * 2
        responses = exchange(server, data, half_close=False)
        assert [s for s, _, _ in responses] == [200]
        assert responses[0][1]["connection"] == "close"

    def test_expect_100_continue(self, server, served_store):
        body = json.dumps({"fact_ids": [served_store.test_movies[0].fact_id]}).encode()
        head = request("POST", "/fetch", headers="Expect: 100-continue\r\n")
        head = head.replace(b"Content-Length: 0", f"Content-Length: {len(body)}".encode())
        with socket.create_connection((server.host, server.port), timeout=2) as sock:
            sock.sendall(head)
            assert sock.recv(4096) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            sock.shutdown(socket.SHUT_WR)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        [(status, _, answer)] = parse_responses(raw)
        assert status == 200
        assert json.loads(answer.partition(b"\n")[0])["vectors"]["shape"] == [1, 4]
        assert decode_frame(answer)["fact_ids"] == [served_store.test_movies[0].fact_id]

    def test_large_answer_survives_partial_sends(self):
        vectors = np.arange(400_000, dtype=np.float64).reshape(-1, 16)
        sender, receiver = socket.socketpair()
        # a small send buffer makes each sendmsg take only part of the body
        sender.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

        def send():
            server_module._send(sender, 200, encode_frame({"vectors": vectors}), "close")
            sender.shutdown(socket.SHUT_WR)

        writer = threading.Thread(target=send, daemon=True)
        writer.start()
        received = bytearray()
        with sender, receiver:
            receiver.settimeout(5)
            # stop at EOF, or once far more than the answer has arrived
            while len(received) < 2 * vectors.nbytes:
                chunk = receiver.recv(65536)
                if not chunk:
                    break
                received.extend(chunk)
            writer.join(timeout=5)
        assert not writer.is_alive()
        [(status, _, answer)] = parse_responses(bytes(received))
        assert status == 200
        assert np.asarray(decode_frame(answer)["vectors"]).tobytes() == vectors.tobytes()

    def test_handler_exits_on_client_eof(self, server):
        baseline = threading.active_count()
        client = ServeClient(server.host, server.port)
        client.health()
        assert threading.active_count() == baseline + 1
        client.close()
        assert wait_for_threads(baseline, timeout=1.0) == baseline


class TestEdgeBounds:
    def test_long_start_line_is_414(self, server, telemetry):
        [(status, headers, _)] = exchange(server, request("GET", "/" + "a" * 70000))
        assert status == 414 and headers["connection"] == "close"
        assert rejects(telemetry) == {"start_line_too_long": 1}

    def test_long_header_line_is_431(self, server, telemetry):
        data = request("GET", "/health", headers=f"X-Big: {'b' * 70000}\r\n")
        [(status, _, _)] = exchange(server, data)
        assert status == 431
        assert rejects(telemetry) == {"header_line_too_long": 1}

    def test_header_count_is_bounded(self, server, telemetry):
        def with_headers(n):
            return request("GET", "/health", headers="".join(f"X-{i}: v\r\n" for i in range(n)))

        # the helper adds Host and Content-Length: 98 + 2 = 100 headers pass
        assert [s for s, _, _ in exchange(server, with_headers(98))] == [200]
        [(status, _, _)] = exchange(server, with_headers(99))
        assert status == 431
        assert rejects(telemetry) == {"too_many_headers": 1}

    def test_transfer_encoding_is_refused_and_closes(self, server, telemetry):
        data = (
            b"POST /fetch HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\n{}   \r\n0\r\n\r\n" + request("GET", "/health")
        )
        responses = exchange(server, data)
        assert [s for s, _, _ in responses] == [400]
        assert responses[0][1]["connection"] == "close"
        assert rejects(telemetry) == {"transfer_encoding": 1}

    def test_slow_peer_is_cut_off(self, server, telemetry, monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.3)
        baseline = threading.active_count()
        started = time.monotonic()
        with socket.create_connection((server.host, server.port), timeout=3) as sock:
            sock.sendall(b"GET /hea")
            closed = False
            # a byte every 50 ms never lets a recv time out; the deadline must
            for _ in range(60):
                try:
                    sock.sendall(b"l")
                    if sock.recv(1, socket.MSG_DONTWAIT) == b"":
                        closed = True
                        break
                except BlockingIOError:
                    pass
                except OSError:
                    closed = True
                    break
                time.sleep(0.05)
        assert closed and time.monotonic() - started < 1.5
        assert rejects(telemetry) == {"timeout": 1}
        assert wait_for_threads(baseline) == baseline

    def test_idle_connection_is_closed_and_client_reconnects(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
        baseline = threading.active_count()
        with ServeClient(server.host, server.port) as client:
            assert client.health()["ok"]
            assert wait_for_threads(baseline) == baseline  # the server hung up
            assert client.health()["ok"]  # stale connection: reconnected once

    def test_connections_over_the_cap_get_503(self, router, telemetry, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
        baseline = threading.active_count()
        with EmbeddingServer(LocalBackend(router, telemetry=telemetry)) as server:
            # three idle connections, accepted in order: the third is refused
            socks = [socket.create_connection((server.host, server.port), timeout=2)
                     for _ in range(3)]
            try:
                raw = b""
                while chunk := socks[2].recv(65536):
                    raw += chunk
                [(status, headers, _)] = parse_responses(raw)
                assert status == 503 and headers["retry-after"] == "1"
                assert headers["connection"] == "close"
                for sock in socks[:2]:
                    sock.settimeout(0.2)
                    with pytest.raises(TimeoutError):
                        sock.recv(1)  # admitted: waiting for a request
                # two handlers and the acceptor
                assert threading.active_count() <= baseline + 3
            finally:
                for sock in socks:
                    sock.close()
            assert rejects(telemetry) == {"saturated": 1}
            # closing the admitted connections frees their slots
            wait_for_threads(baseline + 1)
            with ServeClient(server.host, server.port) as client:
                assert client.health()["ok"]
        assert wait_for_threads(baseline) == baseline

    def test_client_does_not_retry_a_partial_answer(self):
        accepted = []
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.3)  # the second accept times out unless retried

        def serve():
            for _ in range(2):
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                accepted.append(conn)
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Le")
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            client = ServeClient("127.0.0.1", listener.getsockname()[1], timeout=2)
            with pytest.raises(ValueError):
                client.health()
            assert len(accepted) == 1
        finally:
            listener.close()
            thread.join(timeout=5)
        assert not thread.is_alive()


class TestParameterBounds:
    @pytest.fixture
    def client(self, server):
        with ServeClient(server.host, server.port) as client:
            yield client

    def status_of(self, client, path, body) -> int:
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", path, body)
        return excinfo.value.status

    def test_fetch_id_cap(self, client, served_store, telemetry):
        fid = served_store.test_movies[0].fact_id
        assert len(client.fetch([fid] * MAX_FETCH_IDS)["vectors"]) == MAX_FETCH_IDS
        assert self.status_of(client, "/fetch", {"fact_ids": [fid] * (MAX_FETCH_IDS + 1)}) == 400
        assert rejects(telemetry) == {"too_many_ids": 1}

    @pytest.mark.parametrize("fact_ids", [5, "1,2", [1.5], [True], [None], ["1"]])
    def test_fact_ids_must_be_a_list_of_integers(self, client, fact_ids):
        assert self.status_of(client, "/fetch", {"fact_ids": fact_ids}) == 400

    @pytest.mark.parametrize("name", ["k", "nprobe"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, 3.0, "5", True, [3]])
    def test_k_and_nprobe_must_be_positive_integers(
        self, client, served_store, telemetry, name, value
    ):
        body = {"query": served_store.test_movies[0].fact_id, name: value}
        assert self.status_of(client, "/knn", body) == 400
        assert rejects(telemetry) == {f"bad_{name}": 1}

    def test_valid_k_and_nprobe_answer(self, client, served_store):
        fid = served_store.test_movies[0].fact_id
        assert len(client.knn(fid, k=2, nprobe=1)["neighbors"]) == 2

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/fetch", {"fact_ids": [1], "version": "1"}),
            ("/fetch", {"fact_ids": [1], "version": 1e400}),
            ("/fetch", {}),
            ("/knn", {"query": 1e400}),
            ("/knn", {"query": [1, "x", 3, 4]}),
            ("/knn", {"query": 1, "relation": ["MOVIES"]}),
            ("/slice", {"relation": 7}),
            ("/release", {}),
        ],
    )
    def test_malformed_fields_are_400(self, client, path, body):
        assert self.status_of(client, path, body) == 400


# ------------------------------------------------------------------ fuzzing

HEAD = (
    b"POST /fetch HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
    b"Content-Length: 15\r\n\r\n"
)
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
FIELDS = st.sampled_from(
    ["fact_ids", "query", "k", "nprobe", "version", "relation", "index", "x"]
)
PATHS = st.sampled_from(["/fetch", "/knn", "/slice", "/pin", "/release", "/health", "/x"])


def _not_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


MALFORMED = st.one_of(
    st.binary(max_size=300),
    st.integers(1, len(HEAD) + 14).map(lambda cut: (HEAD + b'{"fact_ids":[]}')[:cut]),
    st.text(max_size=40).map(lambda line: f"{line}\r\nHost: x\r\n\r\n".encode()),
    st.text(max_size=24)
    .filter(lambda v: not (v.strip().isascii() and v.strip().isdigit()))
    .map(lambda v: request("POST", "/fetch", headers=f"Content-Length: {v}\r\n")
         .replace(b"Content-Length: 0\r\n", b"")),
    JSON_VALUES.filter(lambda v: not isinstance(v, dict))
    .map(lambda v: request("POST", "/fetch", json.dumps(v).encode())),
    st.binary(min_size=1, max_size=40).filter(_not_utf8)
    .map(lambda b: request("POST", "/knn", b)),
    st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=30)
    .filter(lambda p: p not in ("health", "stats", "versions"))
    .map(lambda p: request("GET", "/" + p)),
)
STRUCTURED = st.tuples(PATHS, st.dictionaries(FIELDS, JSON_VALUES, max_size=4)).map(
    lambda pb: request("POST", pb[0], json.dumps(pb[1]).encode())
)


class TestFuzzedPeer:
    """Every fuzzed connection gets a 4xx or a close, never a 500.

    Afterwards a well-formed fetch on a fresh connection still answers and
    every handler thread has ended.
    """

    def fuzz(self, server, served_store, strategy, statuses) -> None:
        baseline = threading.active_count()

        @settings(max_examples=200, deadline=None)
        @given(data=strategy)
        def run(data):
            for status, _, body in exchange(server, data):
                assert status in statuses, (status, body, data)

        run()
        with ServeClient(server.host, server.port) as client:
            fid = served_store.test_movies[0].fact_id
            assert client.fetch([fid])["fact_ids"] == [fid]
        assert wait_for_threads(baseline) == baseline

    def test_malformed_input_gets_4xx_or_close(self, server, served_store):
        self.fuzz(server, served_store, MALFORMED, range(400, 500))

    def test_structured_input_never_500(self, server, served_store):
        self.fuzz(server, served_store, STRUCTURED, range(200, 500))
