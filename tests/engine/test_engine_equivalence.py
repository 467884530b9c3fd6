"""Engine-vs-reference equivalence on all bundled datasets.

The compiled walk engine must reproduce the reference BFS implementation
(:func:`repro.walks.random_walks.destination_distribution`) *exactly*: the
same support and the same probabilities within 1e-12, on every bundled
dataset, for destination and attribute distributions alike — including
after incremental fact insertion.
"""

import numpy as np
import pytest
from engine_rows import (
    assert_maps_equal,
    attribute_map,
    destination_map,
    reference_attribute_map,
    reference_destination_map,
    row_map,
)

from repro.core import ForwardConfig, ForwardEmbedder
from repro.datasets import load_dataset
from repro.datasets.registry import PAPER_DATASETS
from repro.dynamic import partition_dataset, replay_one_by_one
from repro.engine import WalkEngine
from repro.walks import enumerate_walk_schemes, walk_targets

#: Small generation scales keep the reference BFS affordable in CI.
SCALES = {
    "movies": 1.0,
    "hepatitis": 0.05,
    "genes": 0.05,
    "mutagenesis": 0.05,
    "world": 0.05,
    "mondial": 0.1,
}

ALL_DATASETS = ("movies",) + tuple(PAPER_DATASETS)


def _load(name):
    return load_dataset(name, scale=SCALES[name], seed=7)


@pytest.mark.parametrize("name", ALL_DATASETS)
def test_destination_distributions_match_reference(name):
    dataset = _load(name)
    db = dataset.db
    engine = WalkEngine(db)
    rng = np.random.default_rng(0)
    schemes = enumerate_walk_schemes(db.schema, dataset.prediction_relation, 2)
    facts = list(dataset.prediction_facts())
    for scheme in schemes:
        # the engine computes all facts at once; the reference BFS is probed
        # on a sample of facts per scheme to keep the suite fast
        probe = facts if len(facts) <= 20 else list(rng.choice(facts, size=20, replace=False))
        for fact in probe:
            assert_maps_equal(
                reference_destination_map(db, fact, scheme),
                destination_map(engine, fact, scheme),
                (name, str(scheme), fact.fact_id),
            )


@pytest.mark.parametrize("name", ALL_DATASETS)
def test_attribute_distributions_match_reference(name):
    dataset = _load(name)
    db = dataset.db
    engine = WalkEngine(db)
    rng = np.random.default_rng(1)
    targets = walk_targets(db.schema, dataset.prediction_relation, 2)
    facts = list(dataset.prediction_facts())
    for scheme, attribute in targets:
        probe = facts if len(facts) <= 10 else list(rng.choice(facts, size=10, replace=False))
        for fact in probe:
            assert_maps_equal(
                reference_attribute_map(db, fact, scheme, attribute.name),
                attribute_map(engine, fact, scheme, attribute.name),
                (name, str(scheme), attribute.name, fact.fact_id),
            )


@pytest.mark.parametrize("name", ("movies", "genes", "world"))
def test_equivalence_after_incremental_insertion(name):
    """Facts replayed one-by-one into the engine match a reference on the
    final database, for every scheme and every prediction fact."""
    dataset = _load(name)
    partition = partition_dataset(dataset, ratio_new=0.3, rng=3)
    engine = WalkEngine(partition.db)
    # warm the caches on the partitioned state so stale results would show up
    for scheme in enumerate_walk_schemes(partition.db.schema, dataset.prediction_relation, 2):
        engine.destination_matrix(scheme)
    replay_one_by_one(partition, engine.add_facts)
    db = partition.db
    for scheme in enumerate_walk_schemes(db.schema, dataset.prediction_relation, 2):
        for fact in db.facts(dataset.prediction_relation):
            assert_maps_equal(
                reference_destination_map(db, fact, scheme),
                destination_map(engine, fact, scheme),
                (name, str(scheme), fact.fact_id),
            )


def test_forward_model_distributions_match_reference():
    """ForwardEmbedder.fit keeps training-time attribute matrices whose row
    of every fact (its φ row) equals the reference for every walk target."""
    dataset = _load("genes")
    config = ForwardConfig(
        dimension=8, n_samples=60, batch_size=128, max_walk_length=2, epochs=1,
        n_new_samples=10,
    )
    db = dataset.masked_database()
    model = ForwardEmbedder(db, dataset.prediction_relation, config, rng=0).fit()
    assert len(model.training_matrices) == len(model.targets)
    for target, (matrix, vocab) in zip(model.targets, model.training_matrices):
        for fact in db.facts(dataset.prediction_relation):
            assert_maps_equal(
                reference_attribute_map(db, fact, target.scheme, target.attribute),
                row_map(matrix, vocab, model.fact_row[fact.fact_id]),
                (str(target.scheme), target.attribute, fact.fact_id),
            )
