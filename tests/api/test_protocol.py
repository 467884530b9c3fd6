"""Protocol conformance and exact equivalence with the legacy core classes.

The acceptance bar of the API refactor: everything reachable through
``make_embedder(...)`` must reproduce the pre-refactor core paths *exactly*
(the same seed gives bit-identical embeddings), and the protocol's dynamic
surface (``partial_fit``) must match the raw extenders.
"""

import numpy as np
import pytest

from repro.api import (
    ForwardEmbedding,
    Node2VecEmbedding,
    NotFittedError,
    make_embedder,
)
from repro.core.forward import ForwardEmbedder
from repro.core.forward_dynamic import ForwardDynamicExtender
from repro.core.node2vec import Node2VecEmbedder
from repro.datasets import load_dataset
from repro.dynamic import partition_dataset

SEED = 13


@pytest.fixture(scope="module")
def genes():
    return load_dataset("genes", scale=0.06, seed=7)


def _max_abs_diff(a, b):
    assert set(a.fact_ids) == set(b.fact_ids)
    return max(
        float(np.max(np.abs(a.vector(fid) - b.vector(fid)))) for fid in a.fact_ids
    )


class TestForwardEquivalence:
    def test_fit_matches_legacy_embedder_exactly(self, genes, fast_forward_config):
        db_legacy = genes.masked_database()
        legacy = ForwardEmbedder(
            db_legacy, genes.prediction_relation, fast_forward_config, rng=SEED
        ).fit()

        embedder = ForwardEmbedding(fast_forward_config)
        embedder.fit(genes.masked_database(), genes.prediction_relation, rng=SEED)

        diff = _max_abs_diff(legacy.embedding(), embedder.transform())
        assert diff <= 1e-12  # in fact bit-identical
        assert diff == 0.0

    def test_two_fits_of_the_same_spec_are_bit_identical(self, genes):
        spec = "forward(dimension=12, n_samples=120, batch_size=256, epochs=3, lr=0.02)"
        runs = []
        for _ in range(2):
            embedder = make_embedder(spec)
            embedder.fit(genes.masked_database(), genes.prediction_relation, rng=SEED)
            runs.append(embedder.transform())
        assert _max_abs_diff(*runs) == 0.0

    def test_partial_fit_matches_legacy_extender_exactly(
        self, genes, fast_forward_config
    ):
        results = []
        for use_api in (False, True):
            partition = partition_dataset(genes, ratio_new=0.2, rng=SEED)
            model = ForwardEmbedder(
                partition.db, genes.prediction_relation, fast_forward_config, rng=SEED
            ).fit()
            new_facts = [f for batch in reversed(partition.new_batches)
                         for f in reversed(batch)]
            for fact in new_facts:
                partition.db.reinsert(fact)
            if use_api:
                embedder = ForwardEmbedding.from_model(model, partition.db)
                embedder.configure_extension(recompute_old_paths=True, rng=SEED)
                embedder.notify_inserted(new_facts)
                results.append(embedder.partial_fit(new_facts))
            else:
                extender = ForwardDynamicExtender(
                    model, partition.db, recompute_old_paths=True, rng=SEED
                )
                extender.notify_inserted(new_facts)
                results.append(extender.extend(new_facts))
        assert len(results[0]) > 0
        assert _max_abs_diff(*results) == 0.0

    def test_transform_restricts_to_requested_facts(self, genes, fast_forward_config):
        embedder = ForwardEmbedding(fast_forward_config)
        db = genes.masked_database()
        embedder.fit(db, genes.prediction_relation, rng=SEED)
        some = db.facts(genes.prediction_relation)[:3]
        restricted = embedder.transform(some)
        assert len(restricted) == 3
        assert set(restricted.fact_ids) == {f.fact_id for f in some}

    def test_fit_requires_a_relation(self, genes, fast_forward_config):
        with pytest.raises(ValueError, match="fit\\(db, relation\\)"):
            ForwardEmbedding(fast_forward_config).fit(genes.masked_database())

    def test_capabilities(self, genes, fast_forward_config):
        embedder = ForwardEmbedding(fast_forward_config)
        assert embedder.supports_partial_fit and embedder.supports_recompute
        embedder.fit(genes.masked_database(), genes.prediction_relation, rng=SEED)
        assert embedder.supports_on_arrival  # fresh fit has training matrices
        assert embedder.tracked_relation == genes.prediction_relation
        assert embedder.dimension == fast_forward_config.dimension
        trained = embedder.embedded_fact_ids
        assert trained and all(embedder.is_trained(fid) for fid in trained)


class TestNode2VecEquivalence:
    def test_fit_matches_legacy_embedder_exactly(self, genes, fast_node2vec_config):
        legacy = Node2VecEmbedder(
            genes.masked_database(), fast_node2vec_config, rng=SEED
        ).fit()
        embedder = Node2VecEmbedding(fast_node2vec_config)
        embedder.fit(genes.masked_database(), rng=SEED)
        assert _max_abs_diff(legacy.embedding(), embedder.transform()) == 0.0

    def test_partial_fit_embeds_new_facts_and_freezes_old(
        self, genes, fast_node2vec_config
    ):
        partition = partition_dataset(genes, ratio_new=0.15, rng=SEED)
        embedder = Node2VecEmbedding(fast_node2vec_config)
        embedder.fit(partition.db, rng=SEED)
        before = embedder.transform()
        embedder.configure_extension(rng=SEED)
        new_facts = [f for batch in reversed(partition.new_batches)
                     for f in reversed(batch)]
        for fact in new_facts:
            partition.db.reinsert(fact)
        extended = embedder.partial_fit(new_facts)
        assert len(extended) == len(new_facts)
        after = embedder.transform()
        for fid in before.fact_ids:  # old embeddings are frozen (stability)
            np.testing.assert_array_equal(before.vector(fid), after.vector(fid))

    def test_retrained_variant_moves_old_embeddings(self, genes, fast_node2vec_config):
        partition = partition_dataset(genes, ratio_new=0.15, rng=SEED)
        embedder = make_embedder("node2vec_retrained")
        embedder.config = fast_node2vec_config
        embedder.fit(partition.db, rng=SEED)
        before = embedder.transform()
        embedder.configure_extension(rng=SEED + 1)
        new_facts = [f for batch in reversed(partition.new_batches)
                     for f in reversed(batch)]
        for fact in new_facts:
            partition.db.reinsert(fact)
        extended = embedder.partial_fit(new_facts)
        assert len(extended) == len(new_facts)
        after = embedder.transform()
        moved = any(
            not np.array_equal(before.vector(fid), after.vector(fid))
            for fid in before.fact_ids
        )
        assert moved  # no stability guarantee: the whole model was refit


class TestProtocolErrors:
    def test_unfitted_transform_raises(self, fast_forward_config):
        with pytest.raises(NotFittedError, match="not fitted"):
            ForwardEmbedding(fast_forward_config).transform()

    def test_unfitted_partial_fit_raises(self, fast_node2vec_config):
        with pytest.raises(NotFittedError):
            Node2VecEmbedding(fast_node2vec_config).partial_fit([])

    def test_node2vec_does_not_support_recompute(self, fast_node2vec_config):
        embedder = Node2VecEmbedding(fast_node2vec_config)
        assert not embedder.supports_recompute
        with pytest.raises(NotImplementedError, match="recompute"):
            embedder.recompute_extension([], seed=0)
