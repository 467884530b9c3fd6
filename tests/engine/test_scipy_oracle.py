"""Every matrix the engine builds equals scipy's product chain, bit for bit.

The engine has one way to build a destination or attribute matrix: by
rows (:meth:`WalkEngine._destination_rows`), every row for a full build,
the moved rows for a kept matrix.  This test holds both against the plain
scipy chain of :class:`scipy_oracle.ProductChain`, on every walk scheme of length at most
3 from every relation of Movies and Mondial 0.08, after deletes (left as
tombstones) and updates of value and foreign-key columns:

* full builds: a cold engine over the mutated compiled arrays;
* maintained matrices: an engine that built every matrix before the
  mutations and re-derives the moved rows after them.
"""

import numpy as np
import pytest

import scipy_oracle
from repro.datasets import load_dataset
from repro.datasets.movies import movies_database
from repro.db.errors import ConstraintViolation
from repro.engine import WalkEngine
from repro.obs import Telemetry
from repro.walks import enumerate_walk_schemes

MAX_WALK_LENGTH = 3


def _mutate(db, rng) -> None:
    """Per relation: delete one fact and rewrite two attribute values, each
    to the value another fact of the relation holds (foreign-key columns
    move pointers, value columns re-encode, ⊥ values clear a code)."""
    for relation in db.schema.relations:
        facts = list(db.facts(relation.name))
        if len(facts) < 3:
            continue
        db.delete(facts.pop(rng.integers(len(facts))))
        non_key = [a for a in relation.attribute_names if a not in relation.key]
        for _ in range(2 if non_key else 0):
            fact, donor = (facts[i] for i in rng.choice(len(facts), 2, replace=False))
            attribute = non_key[rng.integers(len(non_key))]
            try:
                db.update(fact, {attribute: donor[attribute]})
            except ConstraintViolation:
                pass  # the rewrite would duplicate a key


def _queries(db):
    """Every scheme of length <= 3 from every relation, with the attributes
    of its end relation."""
    return {
        scheme: db.schema.relation(scheme.end_relation).attribute_names
        for relation in db.schema.relation_names
        for scheme in enumerate_walk_schemes(db.schema, relation, MAX_WALK_LENGTH)
    }


@pytest.mark.parametrize(
    "make_db",
    [movies_database, lambda: load_dataset("mondial", scale=0.08, seed=0).db],
    ids=["movies", "mondial-0.08"],
)
def test_every_matrix_equals_the_scipy_chain(make_db):
    db = make_db()
    queries = _queries(db)
    flat = [(scheme, a) for scheme, attributes in queries.items() for a in attributes]
    telemetry = Telemetry()
    warm = WalkEngine(db, telemetry=telemetry)
    warm.attribute_views(flat, None)  # every matrix kept before the mutations
    kept = telemetry.metrics.counter("engine.attr.rows.kept")
    kept_before, generation = kept.value, warm.compiled.generation_start

    _mutate(db, np.random.default_rng(5))
    warm.refresh()
    compiled = warm.compiled
    assert any(r.num_dead for r in compiled.relations.values())  # tombstones, no compaction
    assert compiled.generation_start == generation
    cold = WalkEngine(db, compiled)
    maintained = warm.attribute_views(flat, None)
    built = cold.attribute_views(flat, None)
    assert kept.value > kept_before  # maintained by rows, not rebuilt

    chain = scipy_oracle.ProductChain(compiled)
    for scheme in queries:
        scipy_oracle.assert_same_bits(
            cold.destination_matrix(scheme), chain.destination_matrix(scheme), scheme
        )
    for (scheme, attribute), *views in zip(flat, maintained, built):
        oracle, vocab = chain.attribute_matrix(scheme, attribute)
        for matrix, engine_vocab, _moved in views:
            scipy_oracle.assert_same_bits(matrix, oracle, (scheme, attribute))
            assert list(engine_vocab) == list(vocab)
