"""Tests for the dynamic Node2Vec extension (frozen continuation training)."""

import numpy as np
import pytest

from repro.core import (
    Node2VecConfig,
    Node2VecDynamicExtender,
    Node2VecEmbedder,
    embedding_drift,
    is_stable_extension,
)
from repro.datasets import load_dataset
from repro.dynamic import partition_dataset, replay_all_at_once, replay_one_by_one
from repro.graph import Node2VecWalker
from repro.nn import UnigramNegativeSampler, build_training_pairs


CONFIG = Node2VecConfig(
    dimension=12, walks_per_node=4, walk_length=8, window_size=3,
    negatives_per_positive=4, batch_size=2048, epochs=2, dynamic_epochs=2,
    dynamic_walks_per_node=3,
)


@pytest.fixture(scope="module")
def genes():
    return load_dataset("genes", scale=0.05, seed=17)


def test_all_at_once_extension_is_stable(genes):
    partition = partition_dataset(genes, ratio_new=0.2, rng=1)
    model = Node2VecEmbedder(partition.db, CONFIG, rng=0).fit()
    before = model.embedding()
    extender = Node2VecDynamicExtender(model, rng=0)
    replay_all_at_once(partition, lambda batch: extender.extend(batch))
    after = model.embedding()
    assert is_stable_extension(before, after)
    for fid in partition.new_prediction_ids:
        assert fid in after


def test_one_by_one_extension_is_stable(genes):
    partition = partition_dataset(genes, ratio_new=0.15, rng=2)
    model = Node2VecEmbedder(partition.db, CONFIG, rng=1).fit()
    before = model.embedding()
    extender = Node2VecDynamicExtender(model, rng=1)
    replay_one_by_one(partition, lambda batch: extender.extend(batch))
    after = model.embedding()
    assert embedding_drift(before, after).max_drift == 0.0
    for fid in partition.new_prediction_ids:
        assert fid in after


def test_extend_returns_only_new_facts(genes):
    partition = partition_dataset(genes, ratio_new=0.1, rng=3)
    model = Node2VecEmbedder(partition.db, CONFIG, rng=2).fit()
    extender = Node2VecDynamicExtender(model, rng=2)
    restored = []
    replay_all_at_once(partition, lambda batch: restored.extend(batch))
    result = extender.extend(restored)
    assert set(result.fact_ids) == {f.fact_id for f in restored}
    # Extending the same facts again is a no-op.
    assert len(extender.extend(restored)) == 0


def test_new_vectors_are_finite_and_trained(genes):
    partition = partition_dataset(genes, ratio_new=0.2, rng=4)
    model = Node2VecEmbedder(partition.db, CONFIG, rng=3).fit()
    extender = Node2VecDynamicExtender(model, rng=3)
    new_vectors = {}

    def on_batch(batch):
        result = extender.extend(batch)
        for fid in result.fact_ids:
            new_vectors[fid] = result.vector(fid)

    replay_all_at_once(partition, on_batch)
    matrix = np.vstack(list(new_vectors.values()))
    assert np.all(np.isfinite(matrix))
    assert matrix.std() > 0  # not all identical


def test_model_is_unfrozen_after_extension(genes):
    partition = partition_dataset(genes, ratio_new=0.1, rng=5)
    model = Node2VecEmbedder(partition.db, CONFIG, rng=4).fit()
    extender = Node2VecDynamicExtender(model, rng=4)
    replay_all_at_once(partition, lambda batch: extender.extend(batch))
    assert model.skipgram.frozen == set()


def test_continuation_fits_held_out_pairs_of_the_new_nodes(genes):
    """The frozen continuation learns the new nodes' neighbourhoods.

    Scored on pairs from fresh walks (not the training walks) centred at the
    new nodes, the SGNS loss falls from its untrained value, where every
    score is ~0 and the loss is (1 + k) log 2 ≈ 3.47, to ≈ 2.2.  Accuracy on
    new tuples cannot show this at test scale, where it is seed noise.
    """
    partition = partition_dataset(genes, ratio_new=0.2, rng=6)
    model = Node2VecEmbedder(partition.db, CONFIG, rng=6).fit()
    old_node_count = model.graph.num_nodes
    extender = Node2VecDynamicExtender(model, rng=6)
    replay_all_at_once(partition, lambda batch: extender.extend(batch))
    new_nodes = range(old_node_count, model.graph.num_nodes)
    walker = Node2VecWalker(model.graph, walks_per_node=20, walk_length=CONFIG.walk_length, rng=7)
    corpus = walker.generate(start_nodes=new_nodes)
    pairs = build_training_pairs(corpus, CONFIG.window_size, restrict_centers_to=set(new_nodes))
    k = CONFIG.negatives_per_positive
    sampler = UnigramNegativeSampler(np.ones(model.graph.num_nodes), rng=8)
    negatives = sampler.sample((len(pairs), k))
    untrained = (1 + k) * np.log(2.0)
    assert len(pairs) > 10_000
    assert model.skipgram.loss(pairs[:, 0], pairs[:, 1], negatives) < 2.3 < untrained
