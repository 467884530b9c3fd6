"""Tests for the HTTP front end and its client, on an ephemeral port."""

import socket
import time

import numpy as np
import pytest

from repro.serve import EmbeddingServer, ServeClient, ServeError
from repro.serve.server import MAX_BODY_BYTES


@pytest.fixture
def served(backend):
    """A running server (port 0 → OS-picked) and a connected client."""
    with EmbeddingServer(backend) as server:
        with ServeClient(server.host, server.port) as client:
            yield server, client


class TestEndpoints:
    def test_health_and_versions(self, served, served_store):
        _, client = served
        health = client.health()
        assert health["ok"] and health["head_version"] == served_store.version
        versions = client.versions()
        assert versions["head_version"] == served_store.version
        assert served_store.version in versions["versions"]
        assert versions["pinned"] == []

    def test_stats_roundtrip(self, served, backend):
        _, client = served
        stats = client.stats()
        assert stats["num_facts"] == backend.router.store.head.num_facts
        assert stats["dimension"] == 4
        assert "leases_live" in stats

    def test_fetch_is_bit_identical_to_local(self, served, backend, served_store):
        _, client = served
        fact_ids = [f.fact_id for f in served_store.test_movies[:3]]
        local = backend.fetch(fact_ids)
        remote = client.fetch(fact_ids)
        assert remote["fact_ids"] == local["fact_ids"]
        assert remote["version"] == local["version"]
        # JSON's repr-based float encoding round-trips IEEE-754 exactly
        np.testing.assert_array_equal(
            np.asarray(remote["vectors"]), np.asarray(local["vectors"])
        )

    def test_knn_and_slice_match_local(self, served, backend, served_store):
        _, client = served
        fid = served_store.test_movies[0].fact_id
        assert client.knn(fid, k=3) == backend.knn(fid, k=3)
        assert client.knn(fid, k=2, relation="ACTORS") == backend.knn(
            fid, k=2, relation="ACTORS"
        )
        assert client.slice("ACTORS") == backend.slice("ACTORS")

    def test_time_travel_by_version(self, served, served_store):
        _, client = served
        movies = served_store.test_movies
        old = client.fetch([movies[0].fact_id], version=1)
        new = client.fetch([movies[0].fact_id])
        assert old["version"] == 1 and old["staleness"] == served_store.version - 1
        assert new["staleness"] == 0
        # version 2 re-embedded movies[0], so the vectors differ
        assert old["vectors"] != new["vectors"]


class TestErrors:
    def test_unknown_endpoint_is_404(self, served):
        _, client = served
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unknown_fact_and_version_are_404(self, served):
        _, client = served
        with pytest.raises(ServeError) as excinfo:
            client.fetch([987654])
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.fetch([1], version=99)
        assert excinfo.value.status == 404

    def test_malformed_query_is_400(self, served):
        _, client = served
        with pytest.raises(ServeError) as excinfo:
            client.knn("not-a-fact-id")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "length, status",
        [("-1", 400), ("abc", 400), (str(MAX_BODY_BYTES + 1), 413), ("99999999", 413)],
    )
    def test_bad_content_length_is_refused_unread(self, served, length, status):
        server, _ = served
        start = time.monotonic()
        with socket.create_connection((server.host, server.port), timeout=2) as sock:
            sock.sendall(
                f"POST /fetch HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            response = b""
            # the server answers without waiting for a body, then closes
            while chunk := sock.recv(4096):
                response += chunk
        assert time.monotonic() - start < 2.0
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in head
        assert b"error" in body

    @pytest.mark.parametrize(
        "method, call",
        [("fetch", lambda c: c.fetch([1])), ("stats", lambda c: c.stats())],
    )
    def test_internal_errors_hide_the_exception_text(
        self, served, backend, monkeypatch, method, call
    ):
        _, client = served

        def boom(*args, **kwargs):
            raise RuntimeError("secret /etc/path")

        monkeypatch.setattr(backend, method, boom)
        with pytest.raises(ServeError) as excinfo:
            call(client)
        assert excinfo.value.status == 500
        assert "secret" not in str(excinfo.value)
        assert "internal error" in str(excinfo.value)


class TestPinningOverHTTP:
    def test_pin_survives_churn_release_drops_it(self, served, served_store):
        _, client = served
        movies = served_store.test_movies
        pin = client.pin()
        version = pin["version"]
        reference = client.fetch([movies[0].fact_id], version=version)
        for i in range(10):
            served_store.commit({movies[0]: [float(i)] * 4}, batch_id=f"c-{i}")
            served_store.prune(keep_last=1)
        again = client.fetch([movies[0].fact_id], version=version)
        assert again["vectors"] == reference["vectors"]
        assert again["staleness"] == 10
        assert version in client.versions()["pinned"]
        client.release(version)
        with pytest.raises(ServeError) as excinfo:
            client.release(version)  # nothing left to release
        assert excinfo.value.status == 404

    def test_stop_releases_client_held_leases(self, backend, served_store):
        server = EmbeddingServer(backend).start()
        client = ServeClient(server.host, server.port)
        client.pin()
        assert served_store.pinned_versions() != ()
        client.close()
        server.stop()
        assert served_store.pinned_versions() == ()
