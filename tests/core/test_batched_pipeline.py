"""The batched extension pipeline: equivalence, memoisation, cache keying.

:meth:`ForwardDynamicExtender.extend_batch` must be indistinguishable from
the per-fact serial path under a shared seed (same RNG draw order, same
equations, same least-squares solutions), its per-sequence memo must be
draw-free on replay, each batch must read one attribute matrix per walk
target and never the single-fact row path, and the memo's equation blocks
must be keyed on the engine's structural counters — an update or delete
rebuilds exactly the blocks of the walk targets whose schemes traverse the
touched relation.
"""

import numpy as np
import pytest

from repro.core import ForwardConfig
from repro.core.forward import ForwardEmbedder
from repro.core.forward_dynamic import ForwardDynamicExtender
from repro.datasets.movies import make_movies
from repro.dynamic.partition import partition_dataset
from repro.engine import WalkEngine
from repro.obs import Telemetry
from repro.utils.rng import ensure_rng

CONFIG = ForwardConfig(
    dimension=8, n_samples=60, batch_size=128, max_walk_length=2, epochs=2,
    learning_rate=0.05, n_new_samples=10,
)

#: Walk targets of the movie schema from MOVIES at length <= 2, counted by
#: hand from Figure 2: 3 own attributes (title/genre/budget), 2 on STUDIOS
#: via the studio FK, 3 back on MOVIES via studio forward+backward, and
#: 2+2+3 through COLLABORATIONS (actor1/actor2 to ACTORS, movie back to
#: MOVIES).  COLLABORATIONS itself has no non-FK attribute.
N_TARGETS = 15

#: Rewriting a non-FK STUDIOS attribute bumps only the STUDIOS relation's
#: struct version (walk structure through STUDIOS is unchanged), so exactly
#: the targets *ending* on STUDIOS — name and loc — lose memo freshness.
N_STUDIO_TARGETS = 2


@pytest.fixture
def streamed():
    """A trained movies model plus an inserted two-fact stream."""
    dataset = make_movies()
    partition = partition_dataset(dataset, ratio_new=0.3, rng=ensure_rng(5))
    model = ForwardEmbedder(
        partition.db, partition.prediction_relation, CONFIG, rng=0
    ).fit()
    new_facts = []
    for batch in reversed(partition.new_batches):
        for fact in batch:
            partition.db.reinsert(fact)
            new_facts.append(fact)
    # a second brand-new movie so prefix-replay tests have >= 2 facts
    new_facts.append(partition.db.insert("MOVIES", {
        "mid": "m99", "studio": "s02", "title": "Sequel", "genre": "Drama",
        "budget": 90,
    }))
    prediction = [
        f for f in new_facts if f.relation == partition.prediction_relation
    ]
    return model, partition.db, new_facts, prediction


def _extender(model, db, new_facts, telemetry=None):
    engine = WalkEngine(db, telemetry=telemetry) if telemetry else WalkEngine(db)
    extender = ForwardDynamicExtender(
        model, db, recompute_old_paths=True, rng=123, engine=engine
    )
    extender.notify_inserted(new_facts)
    return extender


class TestSerialEquivalence:
    def test_batched_matches_per_fact_exactly(self, streamed):
        model, db, new_facts, prediction = streamed
        serial = _extender(model, db, new_facts)
        serial.rng = ensure_rng(99)
        expected = {f.fact_id: serial.embed_fact(f) for f in prediction}

        batched = _extender(model, db, new_facts)
        batched.rng = ensure_rng(99)
        result = batched.extend_batch(prediction)
        assert set(result) == set(expected)
        for fact_id, vector in expected.items():
            np.testing.assert_allclose(result[fact_id], vector, atol=1e-12)

    def test_rng_left_where_serial_leaves_it(self, streamed):
        model, db, new_facts, prediction = streamed
        serial = _extender(model, db, new_facts)
        serial.rng = ensure_rng(99)
        for fact in prediction:
            serial.embed_fact(fact)

        batched = _extender(model, db, new_facts)
        batched.rng = ensure_rng(99)
        batched.extend_batch(prediction)
        assert (
            batched.rng.bit_generator.state == serial.rng.bit_generator.state
        )

    def test_empty_batch_returns_empty(self, streamed):
        model, db, new_facts, _ = streamed
        extender = _extender(model, db, new_facts)
        assert extender.extend_batch([]) == {}


class TestSequenceMemo:
    def test_replay_with_same_seed_is_bit_identical(self, streamed):
        model, db, new_facts, prediction = streamed
        extender = _extender(model, db, new_facts)
        extender.rng = ensure_rng(7)
        first = extender.extend_batch(prediction)
        extender.rng = ensure_rng(7)
        second = extender.extend_batch(prediction)
        for fact_id, vector in first.items():
            assert np.array_equal(second[fact_id], vector)

    def test_replay_reuses_vectors_without_resolving(self, streamed):
        model, db, new_facts, prediction = streamed
        extender = _extender(model, db, new_facts)
        extender.rng = ensure_rng(7)
        first = extender.extend_batch(prediction)
        extender.rng = ensure_rng(7)
        second = extender.extend_batch(prediction)
        # the memo returns the recorded arrays themselves, not recomputations
        for fact_id in first:
            assert second[fact_id] is first[fact_id]

    def test_growing_prefix_replay_matches_fresh_pass(self, streamed):
        model, db, new_facts, prediction = streamed
        assert len(prediction) >= 2
        extender = _extender(model, db, new_facts)
        extender.rng = ensure_rng(7)
        extender.extend_batch(prediction[:1])
        extender.rng = ensure_rng(7)
        grown = extender.extend_batch(prediction)

        fresh = _extender(model, db, new_facts)
        fresh.rng = ensure_rng(7)
        expected = fresh.extend_batch(prediction)
        for fact_id, vector in expected.items():
            assert np.array_equal(grown[fact_id], vector)

    def test_different_seed_invalidates_memo(self, streamed):
        model, db, new_facts, prediction = streamed
        extender = _extender(model, db, new_facts)
        extender.rng = ensure_rng(7)
        first = extender.extend_batch(prediction)
        extender.rng = ensure_rng(8)
        second = extender.extend_batch(prediction)

        fresh = _extender(model, db, new_facts)
        fresh.rng = ensure_rng(8)
        expected = fresh.extend_batch(prediction)
        for fact_id in expected:
            assert np.array_equal(second[fact_id], expected[fact_id])
        del first


class TestSchemeCacheAccounting:
    """Each walk target's batch state comes from one attribute matrix, and
    the sequence memo's equation blocks are keyed on the engine's
    structural counters: a mutation rebuilds exactly the blocks of the walk
    targets whose schemes read the touched relation or foreign key."""

    def _memo_blocks(self, extender):
        return [record["blocks"] for record in extender._sequence_cache["facts"]]

    def _rebuilt_targets(self, before, after):
        """Targets per fact whose memo block is no longer the recorded one."""
        return [
            {t for t, block in blocks.items() if block is not old.get(t)}
            for old, blocks in zip(before, after)
        ]

    def test_churn_batch_slices_attribute_matrices(self, streamed, monkeypatch):
        model, db, new_facts, prediction = streamed
        telemetry = Telemetry()
        extender = _extender(model, db, new_facts, telemetry)
        row_calls = []
        monkeypatch.setattr(
            WalkEngine, "attribute_rows",
            lambda self, *args: row_calls.append(args),
        )
        counters = telemetry.metrics.snapshot
        extender.rng = ensure_rng(3)
        extender.extend_batch(prediction)
        misses = counters()["counters"].get("engine.cache.attr.misses", 0)
        assert 0 < misses <= N_TARGETS

        # one churn batch: a delete, an update and an insert, then re-embed
        victim = next(f for f in db.facts("ACTORS") if f["aid"] == "a03")
        db.delete(victim)
        extender.notify_deleted([victim])
        studio = db.facts("STUDIOS")[0]
        db.update(studio, {"loc": "NY"})
        extender.notify_updated([db.fact(studio.fact_id)])
        arrival = db.insert("MOVIES", {
            "mid": "m98", "studio": "s01", "title": "Prequel",
            "genre": "Drama", "budget": 40,
        })
        extender.notify_inserted([arrival])
        extender.rng = ensure_rng(3)
        extender.extend_batch([*prediction, arrival])
        after = counters()["counters"]["engine.cache.attr.misses"]
        assert after - misses <= N_TARGETS
        assert row_calls == []

    def test_disjoint_fk_update_invalidates_only_studio_targets(self, streamed):
        model, db, new_facts, prediction = streamed
        extender = _extender(model, db, new_facts)
        extender.rng = ensure_rng(3)
        extender.extend_batch(prediction)
        before = self._memo_blocks(extender)

        # rewriting a STUDIOS attribute bumps the structural counters of the
        # studio FK and of STUDIOS itself — and nothing else
        studio = db.facts("STUDIOS")[0]
        db.update(studio, {"loc": "NY"})
        extender.notify_updated([db.fact(studio.fact_id)])
        extender.rng = ensure_rng(3)
        extender.extend_batch(prediction)
        rebuilt = self._rebuilt_targets(before, self._memo_blocks(extender))
        studio_targets = {
            target.index
            for target in model.targets
            if target.scheme.end_relation == "STUDIOS"
        }
        assert len(studio_targets) == N_STUDIO_TARGETS
        for fact_blocks, targets in zip(before, rebuilt):
            assert targets == studio_targets & set(fact_blocks)
        assert any(rebuilt)

    def test_delete_invalidates_like_update(self, streamed):
        model, db, new_facts, prediction = streamed
        # an actor no walk reaches: deleting it changes no candidate count,
        # so every fact keeps its recorded draws
        victim = db.insert("ACTORS", {"aid": "a99", "name": "Extra", "worth": 1})
        extender = _extender(model, db, [*new_facts, victim])
        extender.rng = ensure_rng(3)
        extender.extend_batch(prediction)
        before = self._memo_blocks(extender)

        # deleting an ACTORS fact tombstones its row — the ACTORS struct
        # version is bumped, so only the four ACTORS-ending targets
        # (name/worth through actor1 and actor2) rebuild their blocks
        db.delete(victim)
        extender.notify_deleted([victim])
        extender.rng = ensure_rng(3)
        extender.extend_batch(prediction)
        rebuilt = self._rebuilt_targets(before, self._memo_blocks(extender))
        actor_targets = {
            target.index
            for target in model.targets
            if target.scheme.end_relation == "ACTORS"
        }
        assert len(actor_targets) == 4
        for fact_blocks, targets in zip(before, rebuilt):
            assert targets == actor_targets & set(fact_blocks)
        assert any(rebuilt)

    def test_batched_embeddings_survive_invalidation(self, streamed):
        model, db, new_facts, prediction = streamed
        extender = _extender(model, db, new_facts)
        extender.rng = ensure_rng(3)
        extender.extend_batch(prediction)

        studio = db.facts("STUDIOS")[0]
        db.update(studio, {"loc": "NY"})
        extender.notify_updated([db.fact(studio.fact_id)])
        extender.rng = ensure_rng(3)
        streamed_result = extender.extend_batch(prediction)

        fresh = _extender(model, db, new_facts)
        fresh.rng = ensure_rng(3)
        expected = fresh.extend_batch(prediction)
        for fact_id, vector in expected.items():
            np.testing.assert_allclose(
                streamed_result[fact_id], vector, atol=1e-12
            )

    def test_requires_recomputed_old_paths(self, streamed):
        model, db, _, prediction = streamed
        extender = ForwardDynamicExtender(model, db, recompute_old_paths=False)
        with pytest.raises(ValueError, match="recompute_old_paths"):
            extender.extend_batch(prediction)
