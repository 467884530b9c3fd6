"""Round-trip tests for compiled walk-engine snapshots."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.engine import WalkEngine
from repro.walks import enumerate_walk_schemes


def _all_matrices(engine, relation, max_length=2):
    """Every destination and attribute matrix reachable from one relation."""
    schema = engine.db.schema
    destinations = {}
    attributes = {}
    for scheme in enumerate_walk_schemes(schema, relation, max_length):
        destinations[scheme] = engine.destination_matrix(scheme)
        for attr in schema.non_fk_attributes(scheme.end_relation):
            attributes[(scheme, attr.name)] = engine.attribute_matrix(scheme, attr.name)
    return destinations, attributes


def _assert_csr_identical(a, b):
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data, b.data)


class TestRoundTrip:
    @pytest.mark.parametrize("name,scale", [("movies", 1.0), ("genes", 0.06)])
    def test_distributions_bit_identical_after_reload(self, name, scale, tmp_path):
        dataset = load_dataset(name, scale=scale, seed=0)
        db = dataset.db
        engine = WalkEngine(db)
        destinations, attributes = _all_matrices(engine, dataset.prediction_relation)

        path = tmp_path / "engine.npz"
        engine.save(path)
        restored = WalkEngine.load(db, path)

        for scheme, matrix in destinations.items():
            _assert_csr_identical(matrix, restored.destination_matrix(scheme))
        for (scheme, attr), (matrix, vocab) in attributes.items():
            matrix2, vocab2 = restored.attribute_matrix(scheme, attr)
            _assert_csr_identical(matrix, matrix2)
            assert list(vocab) == list(vocab2)

    def test_row_numbering_and_codes_survive(self, movies_db, tmp_path):
        engine = WalkEngine(movies_db)
        engine.save(tmp_path / "engine.npz")
        restored = WalkEngine.load(movies_db, tmp_path / "engine.npz")
        for name, relation in engine.compiled.relations.items():
            other = restored.compiled.relations[name]
            assert other.fact_ids.dtype == np.int64
            assert np.array_equal(relation.fact_ids, other.fact_ids)
            assert relation.row_of == other.row_of
            for attr, column in relation.columns.items():
                restored_column = other.columns[attr]
                assert restored_column.codes.dtype == np.int64
                assert restored_column.vocab.dtype == object
                assert np.array_equal(column.codes, restored_column.codes)
                assert column.vocab.tolist() == restored_column.vocab.tolist()
        for fk in movies_db.schema.foreign_keys:
            pointers = restored.compiled.fk_target_rows(fk.name)
            assert pointers.dtype == np.int64
            assert np.array_equal(engine.compiled.fk_target_rows(fk.name), pointers)

    def test_post_snapshot_inserts_are_appended_on_load(self, movies_db, tmp_path):
        engine = WalkEngine(movies_db)
        engine.save(tmp_path / "engine.npz")
        new_fact = movies_db.insert(
            "MOVIES",
            {"mid": "m99", "studio": "s01", "title": "Late", "genre": "Drama", "budget": 1},
        )
        restored = WalkEngine.load(movies_db, tmp_path / "engine.npz")
        assert restored.compiled.num_facts == len(movies_db)
        assert restored.compiled.has_fact(new_fact)


class TestValidation:
    def test_value_mismatch_rejected(self, tmp_path):
        dataset = load_dataset("genes", scale=0.05, seed=0)
        WalkEngine(dataset.db).save(tmp_path / "engine.npz")
        masked = dataset.masked_database()  # same ids, one column nulled
        with pytest.raises(ValueError, match="value mismatch"):
            WalkEngine.load(masked, tmp_path / "engine.npz")
        # with verification off the caller takes responsibility
        restored = WalkEngine.load(masked, tmp_path / "engine.npz", verify=False)
        assert restored.compiled.num_facts == len(masked)

    def test_schema_mismatch_rejected(self, movies_db, tmp_path):
        WalkEngine(movies_db).save(tmp_path / "engine.npz")
        other = load_dataset("world", scale=0.1, seed=0).db
        with pytest.raises(ValueError, match="schema"):
            WalkEngine.load(other, tmp_path / "engine.npz")

    def test_missing_column_rejected(self, movies_db, tmp_path):
        import json

        path = tmp_path / "engine.npz"
        WalkEngine(movies_db).save(path)
        data = dict(np.load(path, allow_pickle=True))
        manifest = json.loads(str(data["manifest"]))
        manifest["columns"] = [c for c in manifest["columns"] if c != ["MOVIES", "genre"]]
        data["manifest"] = np.array(json.dumps(manifest))
        tampered = tmp_path / "tampered.npz"
        np.savez(tampered, **data)
        with pytest.raises(ValueError, match="columns"):
            WalkEngine.load(movies_db, tampered)

    def test_missing_fact_rejected(self, movies_db, tmp_path):
        engine = WalkEngine(movies_db)
        engine.save(tmp_path / "engine.npz")
        victim = list(movies_db.facts("COLLABORATIONS"))[0]
        movies_db.delete(victim)
        with pytest.raises(ValueError, match="not in the database"):
            WalkEngine.load(movies_db, tmp_path / "engine.npz")
