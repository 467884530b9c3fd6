"""Unit tests for the compiled-array layer and its incremental maintenance."""

import numpy as np
import pytest
from engine_rows import destination_map

from repro.datasets.movies import movies_database
from repro.engine import CompiledDatabase, ValueColumn, WalkEngine
from repro.engine.sampling import sample_codes, sample_distinct_pairs
from repro.obs import Telemetry
from repro.walks import WalkScheme


@pytest.fixture
def db():
    return movies_database()


class TestValueColumn:
    def test_codes_and_vocab_roundtrip(self):
        column = ValueColumn()
        for value in ["a", "b", None, "a", "c"]:
            column.append(value)
        assert column.codes.dtype == np.int64 and column.vocab.dtype == object
        assert np.array_equal(column.codes, [0, 1, -1, 0, 2])
        assert column.vocab.tolist() == ["a", "b", "c"]
        bulk = ValueColumn(["a", "b", None, "a", "c"])
        assert np.array_equal(bulk.codes, column.codes) and bulk.codes.dtype == np.int64
        assert bulk.vocab.tolist() == ["a", "b", "c"]

    def test_tuple_values_supported(self):
        column = ValueColumn()
        column.append((1, 2))
        column.append((1, 2))
        assert np.array_equal(column.codes, [0, 0])
        assert column.vocab.shape == (1,) and column.vocab[0] == (1, 2)


class TestCompiledDatabase:
    def test_row_numbering_covers_all_facts(self, db):
        compiled = CompiledDatabase(db)
        assert compiled.num_facts == len(db)
        for relation in db.relations:
            compiled_rel = compiled.relations[relation]
            assert compiled_rel.num_rows == db.num_facts(relation)
            for fact in db.facts(relation):
                row = compiled_rel.row_of[fact.fact_id]
                assert compiled_rel.fact_ids[row] == fact.fact_id

    def test_fk_pointers_match_database_index(self, db):
        compiled = CompiledDatabase(db)
        for fk in db.schema.foreign_keys:
            pointers = compiled.fk_target_rows(fk.name)
            target_rel = compiled.relations[fk.target]
            for row, fact_id in enumerate(compiled.relations[fk.source].fact_ids):
                target = db.referenced_fact(db.fact(fact_id), fk)
                if target is None:
                    assert pointers[row] == -1
                else:
                    assert pointers[row] == target_rel.row_of[target.fact_id]

    def test_columns_encode_values_and_nulls(self, db):
        compiled = CompiledDatabase(db)
        movies = compiled.relations["MOVIES"]
        genre = movies.columns["genre"]
        for row, fact_id in enumerate(movies.fact_ids):
            value = db.fact(fact_id)["genre"]
            if value is None:
                assert genre.codes[row] == -1
            else:
                assert genre.vocab[genre.codes[row]] == value

    def test_incremental_add_matches_fresh_compile(self, db):
        compiled = CompiledDatabase(db)
        version = compiled.version
        new_movie = db.insert("MOVIES", {"mid": "m99", "title": "New", "budget": 1})
        new_collab = db.insert(
            "COLLABORATIONS", {"actor1": "a01", "actor2": "a02", "movie": "m99"}
        )
        compiled.add_fact(new_movie)
        compiled.add_fact(new_collab)
        assert compiled.version > version
        fresh = CompiledDatabase(db)
        for relation in db.relations:
            fact_ids = compiled.relations[relation].fact_ids
            assert fact_ids.dtype == np.int64
            assert np.array_equal(fact_ids, fresh.relations[relation].fact_ids)
            for attr, column in compiled.relations[relation].columns.items():
                assert column.codes.dtype == np.int64
                assert np.array_equal(column.codes, fresh.relations[relation].columns[attr].codes)
        for fk in db.schema.foreign_keys:
            pointers = compiled.fk_target_rows(fk.name)
            assert pointers.dtype == np.int64
            assert np.array_equal(pointers, fresh.fk_target_rows(fk.name))

    def test_dangling_reference_repaired_when_target_arrives(self, db):
        compiled = CompiledDatabase(db)
        # collaboration referencing a movie that does not exist yet
        collab = db.insert(
            "COLLABORATIONS", {"actor1": "a02", "actor2": "a01", "movie": "m98"}
        )
        compiled.add_fact(collab)
        fk_movie = next(fk for fk in db.schema.foreign_keys_from("COLLABORATIONS") if fk.target == "MOVIES")
        row = compiled.relations["COLLABORATIONS"].row_of[collab.fact_id]
        assert compiled.fk_target_rows(fk_movie.name)[row] == -1
        movie = db.insert("MOVIES", {"mid": "m98", "title": "Late", "budget": 2})
        compiled.add_fact(movie)
        assert (
            compiled.fk_target_rows(fk_movie.name)[row]
            == compiled.relations["MOVIES"].row_of[movie.fact_id]
        )

    def test_refresh_appends_new_facts(self, db):
        compiled = CompiledDatabase(db)
        db.insert("STUDIOS", {"sid": "s99", "name": "Fresh", "loc": "NZ"})
        assert compiled.refresh() is True
        assert compiled.num_facts == len(db)
        assert compiled.refresh() is False

    def test_refresh_replays_deletion_without_recompile(self, db):
        """A delete is tombstoned by replaying the changelog, never by a
        recompile — the mechanism behind incremental deletion's speedup."""
        telemetry = Telemetry()
        compiled = CompiledDatabase(db, telemetry=telemetry)
        compiles = telemetry.metrics.snapshot()["counters"]["engine.compiles"]
        victim = db.facts("COLLABORATIONS")[0]
        db.delete(victim)
        assert compiled.refresh() is True
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["engine.compiles"] == compiles
        assert counters["engine.refresh.replayed_ops"] == 1
        assert compiled.num_facts == len(db)
        assert not compiled.has_fact(victim)

    def test_engine_remove_facts_rederives_without_recompile(self, db):
        """The service's delete path (``notify_deleted`` ->
        ``remove_facts``) tombstones in place: a warm destination matrix is
        re-derived with the deleted fact's row empty and nothing recompiled."""
        from repro.walks import Direction, WalkStep

        telemetry = Telemetry()
        engine = WalkEngine(db, telemetry=telemetry)
        fk = db.schema.foreign_keys_from("COLLABORATIONS")[0]
        scheme = WalkScheme("COLLABORATIONS", (WalkStep(fk, Direction.FORWARD),))
        victim = db.facts("COLLABORATIONS")[0]
        row = engine.compiled.relations["COLLABORATIONS"].row_of[victim.fact_id]
        warm = engine.destination_matrix(scheme)
        assert warm.indptr[row + 1] > warm.indptr[row]
        compiles = telemetry.metrics.snapshot()["counters"]["engine.compiles"]
        db.delete(victim)
        engine.remove_facts([victim])
        matrix = engine.destination_matrix(scheme)
        assert matrix is not warm  # the deletion invalidated the warm entry
        assert telemetry.metrics.snapshot()["counters"]["engine.compiles"] == compiles
        assert matrix.indptr[row + 1] == matrix.indptr[row]
        live = [
            engine.compiled.relations["COLLABORATIONS"].row_of[f.fact_id]
            for f in db.facts("COLLABORATIONS")
        ]
        assert all(matrix.indptr[r + 1] > matrix.indptr[r] for r in live)


class TestSampling:
    def test_sample_codes_respects_row_distributions(self):
        from scipy import sparse

        matrix = sparse.csr_matrix(
            np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]])
        )
        rng = np.random.default_rng(0)
        rows = np.array([1] * 50 + [0] * 2000)
        codes = sample_codes(matrix, rows, rng)
        assert set(codes[:50]) == {2}
        assert set(codes[50:]) <= {0, 1}
        frequency = np.mean(codes[50:] == 0)
        assert 0.4 < frequency < 0.6

    def test_sample_codes_rejects_empty_rows(self):
        from scipy import sparse

        matrix = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        matrix.eliminate_zeros()
        with pytest.raises(ValueError):
            sample_codes(matrix, np.array([1]), np.random.default_rng(0))

    def test_sample_distinct_pairs_never_clash(self):
        rng = np.random.default_rng(1)
        left, right = sample_distinct_pairs(np.arange(5), 500, rng)
        assert np.all(left != right)
        assert set(left) <= set(range(5)) and set(right) <= set(range(5))


class TestWalkerCacheKeying:
    def test_equal_schemes_share_cache_entry(self, db):
        """Caches key on the scheme's value, not id(scheme): keying on id
        both misses structurally equal schemes and can collide after
        garbage collection."""
        engine = WalkEngine(db)
        first, _vocab = engine.attribute_matrix(WalkScheme("ACTORS"), "name")
        second, _vocab = engine.attribute_matrix(WalkScheme("ACTORS"), "name")
        assert second is first  # distinct but equal scheme objects share one kept matrix

    def test_walk_scheme_hashable(self, db):
        scheme_a = WalkScheme("ACTORS")
        scheme_b = WalkScheme("ACTORS")
        assert scheme_a == scheme_b and hash(scheme_a) == hash(scheme_b)
        assert len({scheme_a, scheme_b}) == 1


class TestEngineSync:
    def test_engine_add_facts_tracks_insertions(self, db):
        engine = WalkEngine(db)
        scheme = WalkScheme("MOVIES")
        assert engine.destination_matrix(scheme).shape[0] == db.num_facts("MOVIES")
        new_movie = db.insert("MOVIES", {"mid": "m97", "title": "Tracked", "budget": 3})
        engine.add_facts([new_movie])
        matrix = engine.destination_matrix(scheme)
        assert matrix.shape[0] == db.num_facts("MOVIES")
        assert destination_map(engine, new_movie, scheme) == {new_movie.fact_id: 1.0}

    def test_engine_refresh_handles_deletion(self, db):
        engine = WalkEngine(db)
        engine.destination_matrix(WalkScheme("ACTORS"))
        db.delete(db.facts("COLLABORATIONS")[0])
        assert engine.refresh() is True
        assert engine.compiled.num_facts == len(db)
