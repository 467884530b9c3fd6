"""Tests for the embedding service: streaming semantics and consistency.

The central property (the paper's claim, restated for the serving layer):
replaying an insert stream through a live :class:`EmbeddingService` under
the ``recompute`` policy converges to *exactly* what a one-shot
:class:`ForwardDynamicExtender` run on the final database computes.
"""

import numpy as np
import pytest

from repro.core.config import ForwardConfig
from repro.core.forward import ForwardEmbedder
from repro.core.forward_dynamic import ForwardDynamicExtender
from repro.dynamic import partition_dataset
from repro.engine import WalkEngine
from repro.service import EmbeddingService, EmbeddingStore, partition_feed
from repro.service.replay import VERIFY_TOLERANCE, run_streaming_replay

SEED = 11


def _train(partition, dataset, config, seed=SEED):
    engine = WalkEngine(partition.db)
    model = ForwardEmbedder(
        partition.db, dataset.prediction_relation, config, rng=seed, engine=engine
    ).fit()
    return engine, model


class TestStreamingEqualsOneShot:
    @pytest.mark.parametrize("group_size", [1, 4])
    def test_recompute_stream_matches_one_shot(
        self, small_genes_dataset, fast_forward_config, group_size
    ):
        dataset = small_genes_dataset
        partition = partition_dataset(dataset, ratio_new=0.25, rng=SEED)
        engine, model = _train(partition, dataset, fast_forward_config)
        feed = partition_feed(partition, group_size=group_size)
        service = EmbeddingService(
            model, partition.db, engine=engine, policy="recompute", seed=SEED
        )
        outcomes = service.sync(feed)
        assert all(o.applied for o in outcomes)
        # one store version per batch, on top of the baseline
        assert service.store.version == 1 + len(feed)

        # One-shot run: reconstruct the final database independently and
        # embed every streamed prediction fact in one go.
        twin = partition_dataset(dataset, ratio_new=0.25, rng=SEED)
        for batch in reversed(twin.new_batches):
            for fact in reversed(batch):
                twin.db.reinsert(fact)
        one_shot = ForwardDynamicExtender(
            model, twin.db, recompute_old_paths=True, rng=SEED, engine=WalkEngine(twin.db)
        )
        head = service.store.head
        checked = 0
        for batch in reversed(twin.new_batches):
            for fact in reversed(batch):
                if fact.relation != dataset.prediction_relation:
                    continue
                expected = one_shot.embed_fact(fact)
                np.testing.assert_allclose(
                    head.vector(fact.fact_id), expected, atol=1e-9, rtol=0
                )
                checked += 1
        assert checked == partition.num_new_prediction_facts

    def test_final_store_is_independent_of_batching(
        self, small_genes_dataset, fast_forward_config
    ):
        dataset = small_genes_dataset
        heads = []
        for group_size in (1, 3):
            partition = partition_dataset(dataset, ratio_new=0.25, rng=SEED)
            engine, model = _train(partition, dataset, fast_forward_config)
            service = EmbeddingService(
                model, partition.db, engine=engine, policy="recompute", seed=SEED
            )
            service.sync(partition_feed(partition, group_size=group_size))
            heads.append(service.store.head)
        a, b = heads
        assert set(a.fact_ids) == set(b.fact_ids)
        for fid in a.fact_ids:
            np.testing.assert_allclose(a.vector(fid), b.vector(fid), atol=1e-9, rtol=0)


#: The smallest model the replay pipeline trains: the Mondial exactness
#: bars below measure the streaming path, not embedding quality.
TINY_CONFIG = ForwardConfig(
    dimension=16, n_samples=400, batch_size=1024, max_walk_length=2, epochs=4,
    learning_rate=0.02, n_new_samples=30,
)

CHURN_TOLERANCE = 1e-12


class TestMondialReplayExactness:
    """Full replays on Mondial: insert-only to 1e-9, full-CRUD churn to 1e-12.

    Each scale runs with its commit window (None = the feed's ~8 batches
    per stream).  The churn leg's delete/update fractions are high enough
    that even these short streams delete and update, so the one-shot check
    covers the invalidation paths.
    """

    @pytest.mark.parametrize("scale, group_size", [(0.15, None), (0.3, 3)])
    def test_streamed_and_churned_replays_match_one_shot(self, scale, group_size):
        common = dict(
            insert_ratio=0.1, scale=scale, seed=0, policy="recompute",
            config=TINY_CONFIG, verify=True,
        )
        inserts = run_streaming_replay("mondial", group_size=group_size, **common)
        assert inserts["verified_against_one_shot"]
        assert inserts["one_shot_max_abs_diff"] <= VERIFY_TOLERANCE
        assert inserts["feed_lag"] == 0 and inserts["version_skew"] == 0
        assert inserts["store_versions_committed"] >= 2

        churn = run_streaming_replay(
            "mondial", group_size=max(2, group_size or 2),
            ops=("insert", "delete", "update"),
            delete_fraction=0.35, update_fraction=0.35, **common,
        )
        assert churn["verified_against_one_shot"]
        assert churn["one_shot_max_abs_diff"] <= CHURN_TOLERANCE
        assert churn["facts_deleted"] > 0 and churn["facts_updated"] > 0
        assert churn["deleted_facts_absent_from_store"]
        assert churn["feed_lag"] == 0 and churn["version_skew"] == 0


class TestServiceSemantics:
    @pytest.fixture()
    def served(self, small_genes_dataset, fast_forward_config):
        dataset = small_genes_dataset
        partition = partition_dataset(dataset, ratio_new=0.2, rng=SEED)
        engine, model = _train(partition, dataset, fast_forward_config)
        feed = partition_feed(partition, group_size=2)
        service = EmbeddingService(
            model, partition.db, engine=engine, policy="recompute", seed=SEED
        )
        return dataset, partition, feed, service

    def test_baseline_version_holds_trained_embeddings(self, served):
        dataset, partition, feed, service = served
        baseline = service.store.snapshot(1)
        assert baseline.num_facts == len(service.model.fact_ids)
        for fid in service.model.fact_ids:
            np.testing.assert_array_equal(baseline.vector(fid), service.model.vector(fid))

    def test_duplicate_batches_are_skipped(self, served):
        dataset, partition, feed, service = served
        first = service.apply(feed[0])
        version = service.store.version
        again = service.apply(feed[0])
        assert first.applied and not again.applied
        assert again.facts_inserted == 0 and again.facts_embedded == 0
        assert service.store.version == version
        assert service.stats().duplicates_skipped == 1
        # facts of the duplicate are still present exactly once
        assert len(partition.db) == len(set(f.fact_id for f in partition.db))

    def test_trained_embeddings_never_drift(self, served):
        dataset, partition, feed, service = served
        before = {fid: service.model.vector(fid) for fid in service.model.fact_ids}
        service.sync(feed)
        head = service.store.head
        for fid, vector in before.items():
            np.testing.assert_array_equal(head.vector(fid), vector)

    def test_stats_and_lag(self, served):
        dataset, partition, feed, service = served
        stats = service.stats(feed)
        assert stats.feed_lag == len(feed)
        assert stats.batches_applied == 0 and stats.version_skew == 0
        service.apply(feed[0])
        stats = service.stats(feed)
        assert stats.feed_lag == len(feed) - 1
        assert stats.batches_applied == 1
        assert stats.facts_inserted == len(feed[0])
        assert stats.facts_per_second > 0
        assert stats.version_skew == 0
        service.sync(feed)
        stats = service.stats(feed)
        assert stats.feed_lag == 0
        assert stats.store_version == 1 + len(feed)

    def test_on_arrival_policy_embeds_each_fact_once(
        self, small_genes_dataset, fast_forward_config
    ):
        dataset = small_genes_dataset
        partition = partition_dataset(dataset, ratio_new=0.2, rng=SEED)
        engine, model = _train(partition, dataset, fast_forward_config)
        feed = partition_feed(partition, group_size=2)
        service = EmbeddingService(
            model, partition.db, engine=engine, policy="on_arrival", seed=SEED,
            retain_versions=None,  # the test below inspects the full history
        )
        service.sync(feed)
        head = service.store.head
        for fid in partition.new_prediction_ids:
            assert fid in head
        # on-arrival embeddings are written once and never recomputed: the
        # vector in the version that introduced a fact equals the head's
        introduced = {}
        for version in service.store.versions():
            snapshot = service.store.snapshot(version)
            for fid in snapshot.fact_ids:
                introduced.setdefault(int(fid), (version, snapshot.vector(fid)))
        for fid in partition.new_prediction_ids:
            _, first_vector = introduced[fid]
            np.testing.assert_array_equal(head.vector(fid), first_vector)

    def test_restart_with_persisted_store_skips_replayed_batches(
        self, served, tmp_path
    ):
        dataset, partition, feed, service = served
        service.sync(feed)
        service.store.save(tmp_path / "store")

        restored = EmbeddingStore.load(tmp_path / "store")
        restarted = EmbeddingService(
            service.model, partition.db, engine=service.engine,
            store=restored, policy="recompute", seed=SEED,
        )
        outcomes = restarted.sync(feed)
        assert outcomes and not any(o.applied for o in outcomes)
        assert restarted.store.version == service.store.version

    def test_mid_stream_restart_preserves_one_shot_equivalence(
        self, small_genes_dataset, fast_forward_config, tmp_path
    ):
        """A restart halfway through the stream must not break convergence:
        the restarted service rebuilds its arrival log from the restored
        store, so later recompute passes still cover pre-restart facts."""
        dataset = small_genes_dataset
        partition = partition_dataset(dataset, ratio_new=0.25, rng=SEED)
        engine, model = _train(partition, dataset, fast_forward_config)
        feed = partition_feed(partition, group_size=2)
        service = EmbeddingService(
            model, partition.db, engine=engine, policy="recompute", seed=SEED
        )
        half = len(feed) // 2
        for batch in list(feed)[:half]:
            service.apply(batch)
        service.store.save(tmp_path / "store")

        restarted = EmbeddingService(
            model, partition.db, engine=engine,
            store=EmbeddingStore.load(tmp_path / "store"),
            policy="recompute", seed=SEED,
        )
        outcomes = restarted.sync(feed)  # first half redelivered, then new
        assert sum(o.applied for o in outcomes) == len(feed) - half

        twin = partition_dataset(dataset, ratio_new=0.25, rng=SEED)
        for batch in reversed(twin.new_batches):
            for fact in reversed(batch):
                twin.db.reinsert(fact)
        one_shot = ForwardDynamicExtender(
            model, twin.db, recompute_old_paths=True, rng=SEED, engine=WalkEngine(twin.db)
        )
        head = restarted.store.head
        for batch in reversed(twin.new_batches):
            for fact in reversed(batch):
                if fact.relation != dataset.prediction_relation:
                    continue
                np.testing.assert_allclose(
                    head.vector(fact.fact_id), one_shot.embed_fact(fact), atol=1e-9, rtol=0
                )

    def test_pre_service_extensions_stay_frozen_across_restart(
        self, small_genes_dataset, fast_forward_config, tmp_path
    ):
        """Facts extended before the service existed are part of the frozen
        baseline: recompute passes must not touch them, before or after a
        restart (they are not streamed arrivals)."""
        dataset = small_genes_dataset
        partition = partition_dataset(dataset, ratio_new=0.25, rng=SEED)
        engine, model = _train(partition, dataset, fast_forward_config)
        pre_fact = partition.db.insert(
            dataset.prediction_relation, {"gene_id": "G_PRE", "localization": None}
        )
        pre_extender = ForwardDynamicExtender(
            model, partition.db, recompute_old_paths=True, rng=SEED, engine=engine
        )
        pre_extender.notify_inserted([pre_fact])
        pre_extender.extend([pre_fact])
        frozen = model.vector(pre_fact)

        feed = partition_feed(partition, group_size=2)
        service = EmbeddingService(
            model, partition.db, engine=engine, policy="recompute", seed=SEED
        )
        half = len(feed) // 2
        for batch in list(feed)[:half]:
            service.apply(batch)
        np.testing.assert_array_equal(service.store.head.vector(pre_fact), frozen)
        service.store.save(tmp_path / "store")

        restarted = EmbeddingService(
            model, partition.db, engine=engine,
            store=EmbeddingStore.load(tmp_path / "store"),
            policy="recompute", seed=SEED,
        )
        assert pre_fact.fact_id not in {f.fact_id for f in restarted._arrived}
        restarted.sync(feed)
        np.testing.assert_array_equal(restarted.store.head.vector(pre_fact), frozen)

    def test_on_arrival_rejects_model_without_distributions(
        self, small_genes_dataset, fast_forward_config, tmp_path
    ):
        from repro.core import load_forward_model, save_forward_model

        dataset = small_genes_dataset
        partition = partition_dataset(dataset, ratio_new=0.2, rng=SEED)
        engine, model = _train(partition, dataset, fast_forward_config)
        save_forward_model(model, tmp_path / "model")
        restored_model = load_forward_model(tmp_path / "model", partition.db)
        with pytest.raises(ValueError, match="recompute"):
            EmbeddingService(restored_model, partition.db, engine=engine, policy="on_arrival")
        # recompute does not need the training-time attribute matrices
        EmbeddingService(restored_model, partition.db, engine=engine, policy="recompute")

    def test_retention_bounds_snapshot_history(self, served):
        dataset, partition, feed, service = served
        bounded = EmbeddingService(
            service.model, partition.db, engine=service.engine,
            store=None, policy="recompute", seed=SEED, retain_versions=2,
        )
        bounded.sync(feed)
        assert len(bounded.store.versions()) <= 2
        # the version counter stays monotonic even though history is pruned
        assert bounded.store.version == 1 + len(feed)
        assert bounded.store.head.version == bounded.store.version
