"""The answer frame: exact through HTTP, and never wrong when damaged."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from repro.serve import EmbeddingServer, ServeClient
from repro.serve import server as server_module
from repro.serve.wire import ARRAY_DTYPES, decode_frame, encode_frame

#: Values a decimal round trip is most likely to get wrong.
AWKWARD = [-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308 / 3]


def canonical(answer: dict) -> str:
    """The byte-exact rendering ``http_reads`` compares answers with."""
    return json.dumps(answer, sort_keys=True)


def body(payload: dict) -> bytes:
    """The answer body ``EmbeddingServer`` sends for ``payload``."""
    return b"".join(bytes(buffer) for buffer in encode_frame(payload))


def split(frame: bytes) -> tuple[dict, bytes]:
    """A frame's parsed head and the bytes after its newline."""
    head, _, data = frame.partition(b"\n")
    return json.loads(head), data


def join(head: dict, data: bytes) -> bytes:
    return json.dumps(head).encode() + b"\n" + data


def reshaped(frame: bytes, shape) -> bytes:
    head, data = split(frame)
    head["vectors"]["shape"] = shape
    return join(head, data)


def retyped(frame: bytes, dtype: str) -> bytes:
    head, data = split(frame)
    head["vectors"]["dtype"] = dtype
    return join(head, data)


@pytest.fixture
def served(backend):
    with EmbeddingServer(backend) as server:
        with ServeClient(server.host, server.port) as client:
            yield server, client


class TestCodec:
    def test_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(3)
        vectors = np.concatenate([rng.standard_normal((5, 6)), np.resize(AWKWARD, (1, 6))])
        payload = {"fact_ids": [1, -2, 2**62, 7, 8, 9], "vectors": vectors.tolist(), "version": 4}
        frame = body(payload)
        head, data = split(frame)
        assert head["vectors"] == {"dtype": "<f8", "shape": [6, 6]}
        assert head["fact_ids"] == {"dtype": "<i8", "shape": [6]}
        # the bytes follow the head in ARRAY_DTYPES order, little-endian
        assert data == np.asarray(payload["fact_ids"], "<i8").tobytes() + vectors.astype("<f8").tobytes()
        decoded = decode_frame(frame)
        assert canonical(decoded) == canonical(payload)
        assert np.asarray(decoded["vectors"]).tobytes() == vectors.tobytes()

    def test_arrays_and_lists_encode_alike(self):
        ids, vectors = np.arange(3, dtype=np.int64), np.linspace(-1, 1, 12).reshape(3, 4)
        as_arrays = body({"fact_ids": ids, "vectors": vectors, "relation": "R"})
        as_lists = body({"fact_ids": ids.tolist(), "vectors": vectors.tolist(), "relation": "R"})
        assert as_arrays == as_lists

    def test_empty_slice_decodes_to_empty_list(self):
        frame = body({"fact_ids": np.zeros(0, np.int64), "vectors": np.zeros((0, 16))})
        head, data = split(frame)
        assert head["vectors"]["shape"] == [0, 16] and data == b""
        assert decode_frame(frame) == {"fact_ids": [], "vectors": []}

    @pytest.mark.parametrize(
        "payload",
        [
            {"version": 1, "neighbors": [[3, -0.0], [4, 5e-324]], "index": "exact"},
            {"ok": True, "head_version": 2},
            {"error": "not found: 7 é\n"},
            {},
        ],
    )
    def test_answers_without_arrays_stay_plain_json(self, payload):
        frame = body(payload)
        assert frame == json.dumps(payload, separators=(",", ":")).encode("utf-8")
        assert b"\n" not in frame
        assert canonical(decode_frame(frame)) == canonical(payload)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda f: f[:-8],  # truncated by a value
            lambda f: f[:-1],  # truncated by a byte
            lambda f: f + bytes(8),  # trailing bytes
            lambda f: f.replace(b"\n", b"", 1),  # no newline after the head
            lambda f: reshaped(f, [4, 4]),  # more values than sent
            lambda f: reshaped(f, [4, 2]),  # fewer values than sent
            lambda f: reshaped(f, [-3, -4]),
            lambda f: reshaped(f, [12, True]),  # a bool is not a length
            lambda f: reshaped(f, [3.0, 4.0]),
            lambda f: reshaped(f, "3x4"),
            lambda f: retyped(f, "<i8"),  # same byte count, other values
            lambda f: retyped(f, ">f8"),
            lambda f: join({**split(f)[0], "vectors": {"dtype": "<f8"}}, split(f)[1]),
            lambda f: join({**split(f)[0], "vectors": [[0.0] * 4] * 3}, split(f)[1]),
            lambda f: join({"fact_ids": [1, 2, 3]}, split(f)[1]),  # the old list form
            lambda f: b"[1, 2]\n" + split(f)[1],  # the head is not an object
            lambda f: b"\n" + split(f)[1],  # no head
            lambda f: b'{"version": 1}\n' + split(f)[1],  # bytes but no array field
            lambda f: f.replace(b"\n", b"\n\n", 1),  # a stray byte before the arrays
        ],
    )
    def test_damaged_field_raises(self, damage):
        frame = body({"fact_ids": [1, 2, 3], "vectors": np.arange(12.0).reshape(3, 4)})
        with pytest.raises(ValueError):
            decode_frame(damage(frame))

    def test_huge_declared_shape_is_refused_before_allocating(self):
        frame = reshaped(body({"vectors": np.arange(12.0).reshape(3, 4)}), [2**40, 2**20])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="needs"):
                decode_frame(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestExactOverHTTP:
    def test_awkward_floats_survive_fetch_and_slice(self, served, backend, served_store):
        _, client = served
        movie, actor = served_store.test_movies[1], served_store.test_actors[1]
        served_store.commit(
            {movie: AWKWARD[:4], actor: AWKWARD[2:]}, batch_id="awkward"
        )
        ids = [movie.fact_id, actor.fact_id]
        assert canonical(client.fetch(ids)) == canonical(backend.fetch(ids))
        for relation in ("MOVIES", "ACTORS"):
            remote = client.slice(relation)
            assert canonical(remote) == canonical(backend.slice(relation))
        vector = np.asarray(client.fetch([movie.fact_id])["vectors"][0])
        assert vector.tobytes() == np.asarray(AWKWARD[:4]).tobytes()

    def test_empty_relation_slice(self, served, backend):
        _, client = served
        remote = client.slice("NO_SUCH_RELATION")
        assert remote["fact_ids"] == [] and remote["vectors"] == []
        assert canonical(remote) == canonical(backend.slice("NO_SUCH_RELATION"))

    def test_backend_arrays_equal_its_lists(self, backend, served_store):
        ids = [f.fact_id for f in served_store.test_movies]
        for kind, call in (("fetch", lambda **kw: backend.fetch(ids, **kw)),
                           ("slice", lambda **kw: backend.slice("MOVIES", **kw))):
            lists, arrays = call(), call(arrays=True)
            assert arrays["vectors"].dtype == np.float64, kind
            assert arrays["fact_ids"].dtype == np.int64, kind
            assert canonical({**arrays, "fact_ids": arrays["fact_ids"].tolist(),
                              "vectors": arrays["vectors"].tolist()}) == canonical(lists)

    @pytest.mark.parametrize("field", ["fact_ids", "vectors"])
    def test_damaged_answer_raises_not_wrong_data(
        self, served, served_store, monkeypatch, field
    ):
        _, client = served
        position = 1 + list(ARRAY_DTYPES).index(field)

        def truncating(payload):
            buffers = encode_frame(payload)
            if len(buffers) > position:
                buffers[position] = buffers[position][:-8]
            return buffers

        monkeypatch.setattr(server_module, "encode_frame", truncating)
        with pytest.raises(ValueError):
            client.fetch([served_store.test_movies[0].fact_id])
        with pytest.raises(ValueError):
            client.slice("MOVIES")
