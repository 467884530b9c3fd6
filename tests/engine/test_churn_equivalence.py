"""Engine-level churn: incremental delete/update vs a fresh recompile.

The compiled walk engine must track the full CRUD cycle incrementally —
tombstoned deletions, in-place updates, changelog-driven refresh — and
after any randomized churn sequence agree with a from-scratch recompile
(and the reference BFS) to 1e-12 on every distribution.
"""

import numpy as np
import pytest
from engine_rows import assert_maps_equal, destination_map, reference_destination_map

from repro.datasets import load_dataset
from repro.datasets.movies import movies_database
from repro.engine import CompiledDatabase, WalkEngine
from repro.walks import WalkScheme, enumerate_walk_schemes


@pytest.fixture
def db():
    return movies_database()


def assert_engine_matches_fresh(engine, db, prediction_relation, max_length=2):
    """Every (fact, scheme) distribution equals a fresh engine + reference."""
    fresh = WalkEngine(db)
    for scheme in enumerate_walk_schemes(db.schema, prediction_relation, max_length):
        for fact in db.facts(prediction_relation):
            reference = reference_destination_map(db, fact, scheme)
            context = (str(scheme), fact.fact_id)
            assert_maps_equal(reference, destination_map(engine, fact, scheme), context)
            assert_maps_equal(reference, destination_map(fresh, fact, scheme), context)


class TestRemoveFact:
    def test_tombstone_masks_row_and_pointers(self, db):
        compiled = CompiledDatabase(db)
        victim = db.facts("COLLABORATIONS")[0]
        row = compiled.relations["COLLABORATIONS"].row_of[victim.fact_id]
        db.delete(victim)
        assert compiled.remove_fact(victim) is True
        relation = compiled.relations["COLLABORATIONS"]
        assert relation.alive.dtype == bool and relation.fact_ids.dtype == np.int64
        assert not relation.alive[row]
        assert relation.fact_ids[row] == -1
        assert victim.fact_id not in relation.row_of
        assert compiled.num_facts == len(db)
        for fk in db.schema.foreign_keys_from("COLLABORATIONS"):
            assert compiled.fk_target_rows(fk.name)[row] == -1

    def test_incoming_pointers_repaired(self, db):
        compiled = CompiledDatabase(db)
        movie = next(m for m in db.facts("MOVIES") if db.referencing_facts(m))
        movie_row = compiled.relations["MOVIES"].row_of[movie.fact_id]
        fk = next(
            fk for fk in db.schema.foreign_keys_to("MOVIES") if fk.source == "COLLABORATIONS"
        )
        referencing_rows = np.flatnonzero(compiled.fk_target_rows(fk.name) == movie_row)
        assert referencing_rows.size  # the fixture movie is referenced
        db.delete(movie)
        compiled.remove_fact(movie)
        assert (compiled.fk_target_rows(fk.name)[referencing_rows] == -1).all()

    def test_remove_is_idempotent(self, db):
        compiled = CompiledDatabase(db)
        victim = db.facts("STUDIOS")[0]
        db.delete(victim)
        assert compiled.remove_fact(victim) is True
        version = compiled.version
        assert compiled.remove_fact(victim) is False
        assert compiled.remove_fact(999999) is False
        assert compiled.version == version

    def test_lazy_compaction_reclaims_tombstones(self, db):
        compiled = CompiledDatabase(db)
        compiled.COMPACT_MIN_DEAD = 1  # force the threshold down for the test
        victims = list(db.facts("COLLABORATIONS"))
        for victim in victims:
            db.delete(victim)
            compiled.remove_fact(victim)
        relation = compiled.relations["COLLABORATIONS"]
        assert relation.num_dead == 0  # compaction ran
        assert relation.num_rows == 0
        assert compiled.num_facts == len(db)

    def test_reinsert_after_remove_gets_fresh_row(self, db):
        compiled = CompiledDatabase(db)
        victim = db.facts("MOVIES")[0]
        db.delete(victim)
        compiled.remove_fact(victim)
        db.reinsert(victim)
        row = compiled.add_fact(victim)
        relation = compiled.relations["MOVIES"]
        assert relation.row_of[victim.fact_id] == row
        assert relation.alive[row]


class TestUpdateFact:
    def test_value_update_reencodes_in_place(self, db):
        compiled = CompiledDatabase(db)
        movie = db.facts("MOVIES")[0]
        row = compiled.relations["MOVIES"].row_of[movie.fact_id]
        updated = db.update(movie, {"genre": "noir"})
        assert compiled.update_fact(updated) is True
        genre = compiled.relations["MOVIES"].columns["genre"]
        assert genre.vocab[genre.codes[row]] == "noir"

    def test_update_is_idempotent(self, db):
        compiled = CompiledDatabase(db)
        movie = db.facts("MOVIES")[0]
        updated = db.update(movie, {"genre": "noir"})
        assert compiled.update_fact(updated) is True
        version = compiled.version
        assert compiled.update_fact(updated) is False
        assert compiled.version == version

    def test_fk_repointing_update(self, db):
        """Updating a referencing attribute moves the compiled pointer."""
        compiled = CompiledDatabase(db)
        collab = db.facts("COLLABORATIONS")[0]
        fk = next(
            fk for fk in db.schema.foreign_keys_from("COLLABORATIONS") if fk.target == "MOVIES"
        )
        old_target = db.referenced_fact(collab, fk)
        other_movie = next(
            m for m in db.facts("MOVIES") if m.fact_id != old_target.fact_id
        )
        updated = db.update(collab, {fk.source_attrs[0]: other_movie[fk.target_attrs[0]]})
        compiled.update_fact(updated)
        row = compiled.relations["COLLABORATIONS"].row_of[collab.fact_id]
        assert (
            compiled.fk_target_rows(fk.name)[row]
            == compiled.relations["MOVIES"].row_of[other_movie.fact_id]
        )

    def test_key_update_repairs_backward_pointers(self, db):
        """Changing a referenced key dangles old referrers in the arrays."""
        compiled = CompiledDatabase(db)
        movie = next(m for m in db.facts("MOVIES") if db.referencing_facts(m))
        movie_row = compiled.relations["MOVIES"].row_of[movie.fact_id]
        fk = next(
            fk for fk in db.schema.foreign_keys_to("MOVIES") if fk.source == "COLLABORATIONS"
        )
        referencing_rows = np.flatnonzero(compiled.fk_target_rows(fk.name) == movie_row)
        assert referencing_rows.size
        updated = db.update(movie, {"mid": "m-renamed"})
        compiled.update_fact(updated)
        assert (compiled.fk_target_rows(fk.name)[referencing_rows] == -1).all()


class TestRefresh:
    def test_noop_refresh_short_circuits(self, db):
        compiled = CompiledDatabase(db)
        assert compiled.refresh() is False
        # the short-circuit is version-based: no scan structures are touched
        assert compiled._synced_db_version == db.version

    def test_refresh_replays_mixed_changelog(self, db):
        compiled = CompiledDatabase(db)
        new_movie = db.insert("MOVIES", {"mid": "m77", "title": "Replayed", "budget": 7})
        db.delete(db.facts("COLLABORATIONS")[0])
        db.update(db.facts("MOVIES")[0], {"genre": "replay-genre"})
        assert compiled.refresh() is True
        assert compiled.num_facts == len(db)
        assert compiled.has_fact(new_movie)
        assert compiled.refresh() is False

    def test_refresh_survives_changelog_truncation(self, db):
        compiled = CompiledDatabase(db)
        db._changelog_capacity = 2  # noqa: SLF001 - force truncation
        for i in range(4):
            db.insert("STUDIOS", {"sid": f"s{i}x", "name": f"N{i}", "loc": "X"})
        assert compiled.refresh() is True  # falls back to a recompile
        assert compiled.num_facts == len(db)

    def test_per_fk_cache_survives_unrelated_mutations(self, db):
        """The satellite regression: an insert into one relation must not
        invalidate the cached step matrices of foreign keys it never touched."""
        from repro.walks import Direction, WalkStep

        engine = WalkEngine(db)
        fk_actor = next(
            fk for fk in db.schema.foreign_keys_from("COLLABORATIONS") if fk.target == "ACTORS"
        )
        step = WalkStep(fk_actor, Direction.FORWARD)
        before = engine.step_matrix(step)
        # STUDIOS touches no FK shared with COLLABORATIONS->ACTORS
        studio = db.insert("STUDIOS", {"sid": "s42", "name": "Indie", "loc": "EU"})
        engine.add_facts([studio])
        assert engine.step_matrix(step) is before  # cache hit, same object
        scheme = WalkScheme("COLLABORATIONS", (step,))
        kept_before, _vocab = engine.attribute_matrix(scheme, "name")
        db.insert("STUDIOS", {"sid": "s43", "name": "Indie2", "loc": "EU"})
        engine.refresh()
        # no row of the kept matrix moved: it is returned as is
        assert engine.attribute_matrix(scheme, "name")[0] is kept_before


class TestRandomizedChurnEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mondial_churn_matches_fresh_recompile(self, seed):
        """Randomized insert/delete/update sequences on Mondial: the
        incrementally maintained engine equals a from-scratch recompile and
        the reference BFS to 1e-12 after every round."""
        dataset = load_dataset("mondial", scale=0.08, seed=7)
        db = dataset.db
        engine = WalkEngine(db)
        rng = np.random.default_rng(seed)
        for scheme in enumerate_walk_schemes(db.schema, dataset.prediction_relation, 2):
            engine.destination_matrix(scheme)  # warm all caches

        def mutable_attrs(fact):
            schema = db.schema.relation(fact.relation)
            frozen = set(schema.key)
            return [a for a in schema.attribute_names if a not in frozen]

        for _round in range(3):
            # deletes
            facts = list(db.facts())
            picks = rng.choice(len(facts), size=5, replace=False)
            for i in picks:
                fact = facts[int(i)]
                if fact.fact_id in db._facts_by_id:  # noqa: SLF001
                    db.delete(fact)
            # updates (including FK re-pointing via identifier columns)
            for fact in list(db.facts()):
                attrs = mutable_attrs(fact)
                if attrs and rng.random() < 0.01:
                    attr = attrs[int(rng.integers(len(attrs)))]
                    db.update(fact, {attr: f"churn-{fact.fact_id}-{_round}"})
            # inserts
            db.insert(
                "TARGET",
                {"country": f"ZZ{_round}{seed}", "target": None},
            )
            engine.refresh()
            assert engine.compiled.num_facts == len(db)
        assert_engine_matches_fresh(engine, db, dataset.prediction_relation)
