"""The binary array codec: exact through HTTP, and never wrong when damaged."""

import base64
import json
import math

import numpy as np
import pytest

from repro.serve import EmbeddingServer, ServeClient
from repro.serve import server as server_module
from repro.serve.wire import ARRAY_DTYPES, decode_array, decode_arrays, encode_arrays

#: Values a decimal round trip is most likely to get wrong.
AWKWARD = [-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308 / 3]


def canonical(answer: dict) -> str:
    """The byte-exact rendering ``http_reads`` compares answers with."""
    return json.dumps(answer, sort_keys=True)


@pytest.fixture
def served(backend):
    with EmbeddingServer(backend) as server:
        with ServeClient(server.host, server.port) as client:
            yield server, client


class TestCodec:
    def test_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(3)
        vectors = np.concatenate([rng.standard_normal((5, 6)), np.resize(AWKWARD, (1, 6))])
        payload = {"fact_ids": [1, -2, 2**62], "vectors": vectors.tolist(), "version": 4}
        wire = json.loads(json.dumps(encode_arrays(dict(payload))))
        assert wire["vectors"]["dtype"] == "<f8" and wire["vectors"]["shape"] == [6, 6]
        assert canonical(decode_arrays(wire)) == canonical(payload)
        decoded = np.asarray(decode_arrays(json.loads(json.dumps(encode_arrays(dict(payload)))))["vectors"])
        assert decoded.tobytes() == vectors.tobytes()

    def test_empty_slice_decodes_to_empty_list(self):
        field = encode_arrays({"vectors": np.zeros((0, 16))})["vectors"]
        assert field["shape"] == [0, 16] and field["b64"] == ""
        assert decode_array(field, "<f8") == []

    @pytest.mark.parametrize(
        "damage",
        [
            lambda f: {**f, "b64": f["b64"][:-4]},  # truncated
            lambda f: {**f, "b64": f["b64"][:-1]},  # not a base64 length
            lambda f: {**f, "b64": "!" + f["b64"][1:]},  # not base64
            lambda f: {**f, "shape": [f["shape"][0] + 1, f["shape"][1]]},
            lambda f: {**f, "shape": [f["shape"][1], f["shape"][0] - 1]},
            lambda f: {**f, "shape": [-3, -4]},
            lambda f: {**f, "shape": "3x4"},
            lambda f: {**f, "dtype": "<i8"},
            lambda f: {**f, "dtype": ">f8"},
            lambda f: {k: v for k, v in f.items() if k != "b64"},
            lambda f: f["b64"],
        ],
    )
    def test_damaged_field_raises(self, damage):
        field = encode_arrays({"vectors": np.arange(12.0).reshape(3, 4)})["vectors"]
        with pytest.raises(ValueError):
            decode_array(damage(field), ARRAY_DTYPES["vectors"])


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

    @pytest.mark.parametrize("field", ["fact_ids", "vectors"])
    def test_damaged_answer_raises_not_wrong_data(
        self, served, served_store, monkeypatch, field
    ):
        _, client = served

        def truncating(payload):
            encoded = encode_arrays(payload)
            data = base64.b64decode(encoded[field]["b64"])
            encoded[field]["b64"] = base64.b64encode(data[:-8]).decode()
            return encoded

        monkeypatch.setattr(server_module, "encode_arrays", truncating)
        with pytest.raises(ValueError):
            client.fetch([served_store.test_movies[0].fact_id])
        with pytest.raises(ValueError):
            client.slice("MOVIES")
