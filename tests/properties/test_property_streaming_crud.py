"""Property-based CRUD streaming through the batched extension pipeline.

The convergence claim behind the ``recompute`` serving policy, attacked
with randomized churn: *any* seeded sequence of mixed insert/delete/update
batches, driven incrementally through :meth:`ForwardDynamicExtender.
extend_batch` (sequence memo, struct-counter invalidation and all), must
land on exactly what a fresh extender computes on the final database — and
on what the serial :meth:`ForwardDynamicExtender.embed_fact` computes — to
1e-12, including sequences whose delete batches straddle the engine's lazy
compaction threshold.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import ForwardConfig
from repro.core.forward import ForwardEmbedder
from repro.core.forward_dynamic import ForwardDynamicExtender
from repro.datasets.movies import make_movies
from repro.dynamic import partition_dataset
from repro.engine import WalkEngine
from repro.utils.rng import ensure_rng

SEED = 17

CONFIG = ForwardConfig(
    dimension=8, n_samples=50, batch_size=128, max_walk_length=2, epochs=2,
    learning_rate=0.05, n_new_samples=8,
)

#: Non-FK attributes an update op may rewrite, per relation.
MUTABLE = {
    "MOVIES": ("title", "genre", "budget"),
    "ACTORS": ("name", "worth"),
    "STUDIOS": ("name", "loc"),
}


def _base():
    """Train once on the base partition; every example replays on a copy."""
    partition = partition_dataset(
        make_movies(), ratio_new=0.4, rng=ensure_rng(2)
    )
    model = ForwardEmbedder(
        partition.db, partition.prediction_relation, CONFIG, rng=0
    ).fit()
    stream = [f for b in reversed(partition.new_batches) for f in b]
    return partition.db, model, stream, partition.prediction_relation


BASE_DB, MODEL, STREAM, PREDICTION_RELATION = _base()


def _fresh_embeddings(db, alive, prediction):
    """One-shot ground truth: a fresh extender on the final database."""
    fresh = ForwardDynamicExtender(
        MODEL, db, recompute_old_paths=True, rng=SEED, engine=WalkEngine(db)
    )
    fresh.notify_inserted(list(alive.values()))
    fresh.rng = ensure_rng(SEED)
    return fresh.extend_batch(prediction)


def _run_churn(data, compact_min_dead=None):
    """Drive one randomized CRUD sequence; return (final, expected)."""
    db = BASE_DB.copy()
    engine = WalkEngine(db)
    if compact_min_dead is not None:
        engine.compiled.COMPACT_MIN_DEAD = compact_min_dead
        engine.compiled.COMPACT_FRACTION = 0.0  # any tombstone compacts
    extender = ForwardDynamicExtender(
        MODEL, db, recompute_old_paths=True, rng=SEED, engine=engine
    )

    pending = list(STREAM)
    alive: dict[int, object] = {}
    final: dict[int, np.ndarray] = {}
    n_batches = data.draw(st.integers(2, 4), label="n_batches")
    for _ in range(n_batches):
        inserted, deleted, updated = [], [], []
        for _ in range(data.draw(st.integers(1, 4), label="batch_size")):
            kind = data.draw(
                st.sampled_from(["insert", "insert", "delete", "update"]),
                label="op",
            )
            if kind == "insert" and pending:
                fact = pending.pop(0)
                db.reinsert(fact)
                alive[fact.fact_id] = fact
                inserted.append(fact)
            elif kind == "delete" and alive:
                fid = data.draw(
                    st.sampled_from(sorted(alive)), label="victim"
                )
                fact = alive.pop(fid)
                db.delete(fact)
                deleted.append(fact)
            elif kind == "update":
                relation = data.draw(
                    st.sampled_from(sorted(MUTABLE)), label="relation"
                )
                facts = [
                    f for f in db.facts(relation)
                    if f.fact_id not in alive or relation != PREDICTION_RELATION
                ] or list(db.facts(relation))
                if not facts:
                    continue
                fact = data.draw(st.sampled_from(facts), label="target")
                attr = data.draw(
                    st.sampled_from(MUTABLE[relation]), label="attr"
                )
                value = fact[attr]
                rewritten = (
                    value + 1 if isinstance(value, (int, float))
                    else f"{value}'"
                )
                new_fact = db.update(fact, {attr: rewritten})
                if fact.fact_id in alive:
                    alive[fact.fact_id] = new_fact
                updated.append(new_fact)
        extender.notify_inserted(inserted)
        extender.notify_deleted(deleted)
        extender.notify_updated(updated)
        prediction = [
            f for f in alive.values()
            if f.relation == PREDICTION_RELATION
        ]
        # recompute policy: re-embed every live streamed prediction fact
        extender.rng = ensure_rng(SEED)
        final = extender.extend_batch(prediction)

    prediction = [
        f for f in alive.values() if f.relation == PREDICTION_RELATION
    ]
    return db, engine, alive, prediction, final


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_random_crud_sequences_converge_to_fresh_recompile(data):
    db, _engine, alive, prediction, final = _run_churn(data)
    expected = _fresh_embeddings(db, alive, prediction)
    assert set(final) == set(expected)
    for fact_id, vector in expected.items():
        np.testing.assert_allclose(final[fact_id], vector, atol=1e-12, rtol=0)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_random_crud_sequences_match_serial_embed_fact(data):
    """The single oracle: after any CRUD history, the incrementally driven
    batch equals the serial per-fact path under the same seed."""
    db, _engine, _alive, prediction, final = _run_churn(data)
    serial = ForwardDynamicExtender(
        MODEL, db, recompute_old_paths=True, rng=SEED, engine=WalkEngine(db)
    )
    expected = {fact.fact_id: serial.embed_fact(fact) for fact in prediction}
    assert set(final) == set(expected)
    for fact_id, vector in expected.items():
        np.testing.assert_allclose(final[fact_id], vector, atol=1e-12, rtol=0)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_convergence_holds_across_lazy_compaction(data):
    """Same property with the compaction threshold forced to 1, so every
    delete batch straddles a mid-stream row compaction."""
    db, engine, alive, prediction, final = _run_churn(data, compact_min_dead=1)
    # with the threshold at 1 and fraction 0, a tombstone never survives a
    # batch: either nothing was deleted or compaction ran mid-stream
    assert all(
        relation.num_dead == 0
        for relation in engine.compiled.relations.values()
    )
    expected = _fresh_embeddings(db, alive, prediction)
    assert set(final) == set(expected)
    for fact_id, vector in expected.items():
        np.testing.assert_allclose(final[fact_id], vector, atol=1e-12, rtol=0)


def test_compaction_straddling_batch_is_deterministic():
    """Deterministic companion: delete most of COLLABORATIONS across two
    batches with the threshold at 1 — compaction provably runs mid-stream
    — and the post-compaction batch still matches a fresh recompile."""
    db = BASE_DB.copy()
    engine = WalkEngine(db)
    engine.compiled.COMPACT_MIN_DEAD = 1
    extender = ForwardDynamicExtender(
        MODEL, db, recompute_old_paths=True, rng=SEED, engine=engine
    )
    alive = {}
    for fact in STREAM:
        db.reinsert(fact)
        alive[fact.fact_id] = fact
    extender.notify_inserted(list(alive.values()))
    prediction = [
        f for f in alive.values() if f.relation == PREDICTION_RELATION
    ]
    extender.rng = ensure_rng(SEED)
    extender.extend_batch(prediction)

    collaborations = list(db.facts("COLLABORATIONS"))
    assert len(collaborations) >= 2
    half = len(collaborations) // 2
    dead_after_wave = []
    for wave in (collaborations[:half], collaborations[half:-1]):
        deleted = []
        for fact in wave:
            db.delete(fact)
            alive.pop(fact.fact_id, None)
            deleted.append(fact)
        extender.notify_deleted(deleted)
        # compaction rebuilds the relation objects — re-fetch, never cache
        dead_after_wave.append(
            engine.compiled.relations["COLLABORATIONS"].num_dead
        )
        prediction = [
            f for f in alive.values() if f.relation == PREDICTION_RELATION
        ]
        extender.rng = ensure_rng(SEED)
        final = extender.extend_batch(prediction)
    # the first wave leaves tombstones (below the compaction fraction), the
    # second crosses it: one extend ran over tombstoned rows, the next over
    # the compacted row-space — the stream straddled a live compaction
    assert dead_after_wave[0] > 0
    assert dead_after_wave[1] == 0

    expected = _fresh_embeddings(db, alive, prediction)
    assert set(final) == set(expected)
    for fact_id, vector in expected.items():
        np.testing.assert_allclose(final[fact_id], vector, atol=1e-12, rtol=0)
