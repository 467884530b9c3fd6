"""Tests for the FoRWaRD dynamic extension (linear-system embedding of new facts)."""

import numpy as np
import pytest

from repro.core import ForwardConfig, ForwardDynamicExtender, ForwardEmbedder, is_stable_extension
from repro.datasets import load_dataset
from repro.dynamic import partition_dataset, replay_all_at_once, replay_one_by_one


CONFIG = ForwardConfig(
    dimension=12, n_samples=150, batch_size=256, max_walk_length=2, epochs=4,
    learning_rate=0.02, n_new_samples=25,
)


@pytest.fixture(scope="module")
def genes():
    return load_dataset("genes", scale=0.06, seed=11)


@pytest.fixture(scope="module")
def partitioned(genes):
    """A 20 % split with the static model trained on the old part."""
    partition = partition_dataset(genes, ratio_new=0.2, rng=3)
    model = ForwardEmbedder(partition.db, genes.prediction_relation, CONFIG, rng=0).fit()
    return partition, model


class TestExtension:
    def test_all_at_once_extension_embeds_every_new_prediction_fact(self, genes, partitioned):
        partition, model = partitioned
        partition = partition_dataset(genes, ratio_new=0.2, rng=3)  # fresh copy of the db state
        model = ForwardEmbedder(partition.db, genes.prediction_relation, CONFIG, rng=0).fit()
        before = model.embedding()
        extender = ForwardDynamicExtender(model, partition.db, recompute_old_paths=True, rng=0)

        new_embeddings = {}

        def on_batch(batch):
            extender.notify_inserted(batch)
            result = extender.extend(batch)
            for fid in result.fact_ids:
                new_embeddings[fid] = result.vector(fid)

        replay_all_at_once(partition, on_batch)
        after = model.embedding()

        for fid in partition.new_prediction_ids:
            assert fid in after
        assert is_stable_extension(before, after)
        assert all(np.all(np.isfinite(v)) for v in new_embeddings.values())

    def test_one_by_one_extension_is_stable_and_complete(self, genes):
        partition = partition_dataset(genes, ratio_new=0.15, rng=5)
        model = ForwardEmbedder(partition.db, genes.prediction_relation, CONFIG, rng=1).fit()
        before = model.embedding()
        extender = ForwardDynamicExtender(model, partition.db, recompute_old_paths=False, rng=1)

        def on_batch(batch):
            extender.notify_inserted(batch)
            extender.extend(batch)

        replay_one_by_one(partition, on_batch)
        after = model.embedding()
        assert is_stable_extension(before, after)
        for fid in partition.new_prediction_ids:
            assert fid in after

    def test_extension_ignores_other_relations_and_known_facts(self, genes):
        partition = partition_dataset(genes, ratio_new=0.15, rng=6)
        model = ForwardEmbedder(partition.db, genes.prediction_relation, CONFIG, rng=2).fit()
        extender = ForwardDynamicExtender(model, partition.db, rng=2)
        # Facts from non-prediction relations are skipped entirely.
        other = [f for f in partition.new_facts if f.relation != genes.prediction_relation]
        result = extender.extend(other)
        assert len(result) == 0
        # Already-embedded facts are skipped.
        known = partition.db.facts(genes.prediction_relation)[:2]
        assert len(extender.extend(known)) == 0

    @pytest.mark.parametrize("recompute", [True, False])
    def test_extend_is_one_batch(self, genes, recompute, monkeypatch):
        """Both settings embed an extend call's facts in one extend_batch
        call, equal to the serial oracle per fact."""
        partition = partition_dataset(genes, ratio_new=0.15, rng=6)
        model = ForwardEmbedder(partition.db, genes.prediction_relation, CONFIG, rng=2).fit()
        extender = ForwardDynamicExtender(
            model, partition.db, recompute_old_paths=recompute, rng=2
        )
        restored = []
        replay_all_at_once(partition, restored.extend)
        calls = []
        batch = ForwardDynamicExtender.extend_batch
        monkeypatch.setattr(
            ForwardDynamicExtender, "extend_batch",
            lambda self, facts: calls.append(len(facts)) or batch(self, facts),
        )
        result = extender.extend(restored)
        expected = partition.new_prediction_ids
        assert calls == [len(expected)]
        assert set(result.fact_ids) == set(expected)
        for fact in restored:
            if fact.fact_id in result:
                np.testing.assert_allclose(
                    result.vector(fact), extender.embed_fact(fact), atol=1e-12, rtol=0
                )

    @pytest.mark.parametrize("recompute", [True, False])
    def test_repeated_fact_is_embedded_once(self, genes, recompute):
        partition = partition_dataset(genes, ratio_new=0.15, rng=6)
        model = ForwardEmbedder(partition.db, genes.prediction_relation, CONFIG, rng=2).fit()
        extender = ForwardDynamicExtender(
            model, partition.db, recompute_old_paths=recompute, rng=2
        )
        restored = []
        replay_all_at_once(partition, restored.extend)
        fact = next(f for f in restored if f.relation == genes.prediction_relation)
        result = extender.extend([fact, fact, fact])
        assert result.fact_ids == (fact.fact_id,)
        assert model.extended_fact_ids == (fact.fact_id,)
        np.testing.assert_allclose(
            result.vector(fact), extender.embed_fact(fact), atol=1e-12, rtol=0
        )
        # a known fact is skipped on the next call, repeated or not
        assert len(extender.extend([fact, fact])) == 0

    @pytest.mark.parametrize("recompute", [True, False])
    def test_uncompiled_fact_is_embedded_by_extend(self, genes, recompute):
        """A fact inserted without notify_inserted: the extender's engine
        catches up on its own."""
        partition = partition_dataset(genes, ratio_new=0.1, rng=8)
        model = ForwardEmbedder(partition.db, genes.prediction_relation, CONFIG, rng=4).fit()
        extender = ForwardDynamicExtender(
            model, partition.db, recompute_old_paths=recompute, rng=4
        )
        extender.engine.refresh()  # compiled before the insertions
        restored = []
        replay_all_at_once(partition, restored.extend)  # no notify_inserted on purpose
        straggler = next(f for f in restored if f.relation == genes.prediction_relation)
        assert not extender.engine.compiled.has_fact(straggler)
        result = extender.extend([straggler])
        assert straggler.fact_id in result
        assert extender.engine.compiled.has_fact(straggler)
        np.testing.assert_allclose(
            result.vector(straggler), extender.embed_fact(straggler), atol=1e-12, rtol=0
        )

    def test_extended_vector_registered_on_model(self, genes):
        partition = partition_dataset(genes, ratio_new=0.1, rng=7)
        model = ForwardEmbedder(partition.db, genes.prediction_relation, CONFIG, rng=3).fit()
        extender = ForwardDynamicExtender(model, partition.db, rng=3)
        replay_all_at_once(partition, lambda batch: extender.extend(batch))
        assert set(model.extended_fact_ids) == set(partition.new_prediction_ids)
        with pytest.raises(ValueError):
            model.add_extended(model.fact_ids[0], np.zeros(CONFIG.dimension))

    def test_embed_fact_dimension(self, genes):
        partition = partition_dataset(genes, ratio_new=0.1, rng=8)
        model = ForwardEmbedder(partition.db, genes.prediction_relation, CONFIG, rng=4).fit()
        extender = ForwardDynamicExtender(model, partition.db, rng=4)
        restored = []
        replay_all_at_once(partition, lambda batch: restored.extend(batch))
        new_fact = next(
            f for f in restored if f.relation == genes.prediction_relation
        )
        vector = extender.embed_fact(new_fact)
        assert vector.shape == (CONFIG.dimension,)
        assert np.all(np.isfinite(vector))


class TestQualityOfExtension:
    def test_new_embeddings_close_to_same_class_old_embeddings(self, genes):
        """A newly embedded gene should be nearer to old genes of its own class.

        A single partition yields only ~9 evaluable new tuples, which makes a
        majority check fragile against any legitimate change of the RNG
        stream; aggregating three independent partition/seed runs keeps the
        assertion about the same property but on ~27 samples.
        """
        labels = genes.labels()
        wins = total = 0
        for partition_rng, model_rng in ((4, 0), (5, 1), (6, 2)):
            partition = partition_dataset(genes, ratio_new=0.2, rng=partition_rng)
            model = ForwardEmbedder(
                partition.db, genes.prediction_relation, CONFIG, rng=model_rng
            ).fit()
            extender = ForwardDynamicExtender(
                model, partition.db, recompute_old_paths=True, rng=model_rng
            )

            def on_batch(batch):
                extender.notify_inserted(batch)
                extender.extend(batch)

            replay_all_at_once(partition, on_batch)
            embedding = model.embedding()

            old_by_class = {}
            for fid in partition.old_prediction_ids:
                old_by_class.setdefault(labels[fid], []).append(embedding.vector(fid))

            for fid in partition.new_prediction_ids:
                label = labels[fid]
                if label not in old_by_class:
                    continue
                vector = embedding.vector(fid)
                same = np.mean([np.linalg.norm(vector - v) for v in old_by_class[label]])
                others = [
                    np.linalg.norm(vector - v)
                    for other_label, vectors in old_by_class.items()
                    if other_label != label
                    for v in vectors
                ]
                total += 1
                wins += same < np.mean(others)
        # The majority of new tuples land nearer their own class than other classes.
        assert total > 0
        assert wins / total > 0.5
