"""The moved-row contract of the row-maintained attribute matrices.

:meth:`WalkEngine.attribute_matrix` keeps each attribute matrix and, after
mutations, re-derives only the rows :meth:`WalkEngine.moved_rows` marks.
Random insert/delete/update histories on the Movies fixture, foreign-key
rewrites and compactions included, must keep three oracles after every
step:

* every maintained matrix — of every walk scheme of length at most 2 from
  MOVIES and every attribute it ends at, identifiers included, so rows
  hold several codes — equals scipy's product chain over the same compiled
  arrays (:class:`scipy_oracle.ProductChain`), bit for bit in ``indptr``,
  ``indices`` and ``data``;
* the moved set reported since the previous step contains every start row
  whose reference-BFS attribute distribution changed (or is new);
* :meth:`ForwardDynamicExtender.extend_batch`, which reuses entries of
  unmoved rows, equals the serial :meth:`ForwardDynamicExtender.embed_fact`
  to 1e-12, in both of the paper's settings: anchors on the current
  database and on the model's training-time matrices.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import scipy_oracle
from repro.core import ForwardConfig
from repro.core.forward import ForwardEmbedder
from repro.core.forward_dynamic import ForwardDynamicExtender
from repro.datasets.movies import make_movies
from repro.db.errors import ConstraintViolation
from repro.dynamic import partition_dataset
from repro.engine import WalkEngine
from repro.utils.rng import ensure_rng
from repro.walks import enumerate_walk_schemes
from repro.walks.random_walks import attribute_distribution

SEED = 11

CONFIG = ForwardConfig(
    dimension=6, n_samples=40, batch_size=64, max_walk_length=2, epochs=1,
    learning_rate=0.05, n_new_samples=3,
)

#: Attributes an update may rewrite, per relation; the foreign-key columns
#: move pointers, the others re-encode values.
MUTABLE = {
    "MOVIES": ("studio", "title", "genre", "budget"),
    "ACTORS": ("name", "worth"),
    "STUDIOS": ("name", "loc"),
    "COLLABORATIONS": ("actor1", "movie"),
}
#: Keys a foreign-key rewrite picks from (a missing key leaves it dangling).
REFERENCED = {
    "studio": ("s01", "s02", "s03", "s99"),
    "actor1": ("a01", "a02", "a03", "a04", "a05"),
    "movie": ("m01", "m02", "m03", "m04", "m05", "m06"),
}


def _base():
    partition = partition_dataset(make_movies(), ratio_new=0.4, rng=ensure_rng(3))
    model = ForwardEmbedder(
        partition.db, partition.prediction_relation, CONFIG, rng=0
    ).fit()
    stream = [fact for batch in reversed(partition.new_batches) for fact in batch]
    return partition.db, model, stream, partition.prediction_relation


BASE_DB, MODEL, STREAM, RELATION = _base()
#: (scheme, attribute) of every walk of length <= 2 from the prediction
#: relation and every attribute of its end relation
QUERIES = [
    (scheme, attribute)
    for scheme in enumerate_walk_schemes(BASE_DB.schema, RELATION, 2)
    for attribute in BASE_DB.schema.relation(scheme.end_relation).attribute_names
]


def _reference(db):
    """Reference-BFS attribute distribution of every start fact, per query,
    as ``{value: probability}`` (None when it does not exist)."""
    out = {}
    for index, (scheme, attribute) in enumerate(QUERIES):
        for fact in db.facts(RELATION):
            dist = attribute_distribution(db, fact, scheme, attribute)
            out[index, fact.fact_id] = (
                None if dist is None else dict(zip(dist.values, dist.probabilities))
            )
    return out


def _changed(before, after) -> bool:
    if before is None or after is None:
        return before is not after
    return before.keys() != after.keys() or any(
        abs(before[value] - after[value]) > 1e-12 for value in before
    )


def _apply(data, db, pending, streamed):
    """One random mutation; returns (inserted, deleted, updated) facts."""
    kind = data.draw(st.sampled_from(("insert", "insert", "delete", "update", "update")))
    if kind == "insert" and pending:
        fact = pending.pop(0)
        db.reinsert(fact)
        if fact.relation == RELATION:
            streamed[fact.fact_id] = fact
        return [fact], [], []
    if kind == "delete":
        victims = [f for f in db if f.relation != RELATION or f.fact_id not in MODEL.fact_row]
        victims += [f for f in db.facts(RELATION) if f.fact_id in MODEL.fact_row]
        fact = data.draw(st.sampled_from(victims), label="victim")
        db.delete(fact)
        streamed.pop(fact.fact_id, None)
        return [], [fact], []
    relation = data.draw(st.sampled_from(sorted(MUTABLE)), label="relation")
    facts = list(db.facts(relation))
    if not facts:
        return [], [], []
    fact = data.draw(st.sampled_from(facts), label="target")
    attribute = data.draw(st.sampled_from(MUTABLE[relation]), label="attribute")
    if attribute in REFERENCED:
        value = data.draw(st.sampled_from(REFERENCED[attribute]), label="key")
    else:
        value = fact[attribute]
        value = value + 1 if isinstance(value, (int, float)) else f"{value}'"
    try:
        updated = db.update(fact, {attribute: value})
    except ConstraintViolation:
        return [], [], []  # the rewrite would duplicate a key
    if updated.fact_id in streamed:
        streamed[updated.fact_id] = updated
    return [], [], [updated]


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_moved_rows_cover_every_change_and_rows_match_a_full_build(data):
    db = BASE_DB.copy()
    engine = WalkEngine(db)
    if data.draw(st.booleans(), label="compact on every delete"):
        engine.compiled.COMPACT_MIN_DEAD = 1
        engine.compiled.COMPACT_FRACTION = 0.0
    # a short journal loses positions: every row then counts as moved
    short_journal = data.draw(st.booleans(), label="short journal")
    if short_journal:
        engine.compiled.JOURNAL_LIMIT = 3
    # one extender per setting (recompute_old_paths), sharing the engine
    extenders = [
        ForwardDynamicExtender(MODEL, db, recompute_old_paths=recompute, rng=SEED, engine=engine)
        for recompute in (True, False)
    ]
    extender = extenders[0]  # notifies the shared engine
    pending, streamed = list(STREAM), {}
    since, reference = None, _reference(db)
    for _ in range(data.draw(st.integers(2, 5), label="steps")):
        for _ in range(data.draw(st.integers(1, 3), label="ops")):
            inserted, deleted, updated = _apply(data, db, pending, streamed)
            extender.notify_inserted(inserted)
            extender.notify_deleted(deleted)
            extender.notify_updated(updated)

        chain = scipy_oracle.ProductChain(engine.compiled)
        current = _reference(db)
        row_of = engine.compiled.relations[RELATION].row_of
        for index, (scheme, attribute) in enumerate(QUERIES):
            matrix, vocab = engine.attribute_matrix(scheme, attribute)
            moved = engine.moved_rows(scheme, attribute, since)
            full, full_vocab = chain.attribute_matrix(scheme, attribute)
            scipy_oracle.assert_same_bits(matrix, full, (scheme, attribute))
            assert list(vocab) == list(full_vocab)
            if since is None or (short_journal and moved is None):
                continue
            assert moved is not None
            for fact in db.facts(RELATION):
                key = (index, fact.fact_id)
                if key not in reference or _changed(reference[key], current[key]):
                    assert moved[row_of[fact.fact_id]], (scheme, attribute, fact)
        since, reference = engine.compiled.position, current

        prediction = list(streamed.values())
        for each in extenders:
            batched = each.extend_batch(prediction)
            serial = ForwardDynamicExtender(
                MODEL, db, recompute_old_paths=each.recompute_old_paths, rng=SEED,
                engine=WalkEngine(db),
            )
            for fact in prediction:
                np.testing.assert_allclose(
                    batched[fact.fact_id], serial.embed_fact(fact), atol=1e-12, rtol=0
                )


def test_compaction_renumbers_like_a_fresh_compile():
    """Compaction keeps rows in order and rebuilds vocabularies by first use,
    so the compacted arrays equal a fresh compilation's."""
    db = BASE_DB.copy()
    engine = WalkEngine(db)
    for fact in STREAM:
        db.reinsert(fact)
    engine.refresh()
    movie = next(f for f in db.facts("MOVIES") if f["budget"] is not None)
    db.update(movie, {"budget": movie["budget"] + 7})
    for victim in list(db.facts("COLLABORATIONS"))[:2]:
        db.delete(victim)
    engine.refresh()
    assert engine.compiled.compact()
    fresh = WalkEngine(db).compiled
    for name, relation in engine.compiled.relations.items():
        assert relation.fact_ids.dtype == np.int64
        assert np.array_equal(relation.fact_ids, fresh.relations[name].fact_ids)
        for attribute, column in relation.columns.items():
            other = fresh.relations[name].columns[attribute]
            assert column.codes.dtype == np.int64 and column.vocab.dtype == object
            assert np.array_equal(column.codes, other.codes)
            assert column.vocab.tolist() == other.vocab.tolist()
    for fk in db.schema.foreign_keys:
        pointers = engine.compiled.fk_target_rows(fk.name)
        assert pointers.dtype == np.int64
        assert np.array_equal(pointers, fresh.fk_target_rows(fk.name))
