"""Service-layer churn: typed feed ops, store tombstones, CRUD streaming.

Covers the full-CRUD invariants: deleted tuples are unreachable through
every store query, delete/update batches are idempotent under at-least-once
redelivery, and a churned stream served under ``recompute`` still converges
to a one-shot extender run on the reconstructed final database.
"""

import numpy as np
import pytest

from repro.core.forward import ForwardEmbedder
from repro.dynamic import partition_dataset
from repro.engine import WalkEngine
from repro.obs import latency_summary
from repro.service import (
    ChangeOp,
    EmbeddingService,
    EmbeddingStore,
    churn_feed,
)
from repro.service.replay import _replay_feed_into

SEED = 23


class TestChangeOps:
    def test_typed_batches_and_kind_views(self, movies_db):
        from repro.service import ChangeFeed

        facts = list(movies_db.facts("MOVIES"))
        feed = ChangeFeed("ops")
        batch = feed.append_ops(
            [("insert", facts[0]), ("update", facts[1]), ("delete", facts[2])]
        )
        assert batch.inserts == (facts[0],)
        assert batch.updates == (facts[1],)
        assert batch.deletes == (facts[2],)
        assert len(batch) == 3
        assert feed.num_ops == {"insert": 1, "delete": 1, "update": 1}

    def test_unknown_kind_rejected(self, movies_db):
        fact = movies_db.facts("MOVIES")[0]
        with pytest.raises(ValueError):
            ChangeOp("upsert", fact)

    def test_delete_and_update_batches_get_deterministic_ids(self, movies_db):
        from repro.service import ChangeFeed

        facts = list(movies_db.facts("MOVIES"))
        ids = []
        for _ in range(2):
            feed = ChangeFeed("churny")
            feed.append_deletes(facts[:1])
            feed.append_updates(facts[1:2])
            ids.append([b.batch_id for b in feed])
        assert ids[0] == ids[1]
        assert len(set(ids[0])) == 2


class TestStoreTombstones:
    @pytest.fixture
    def store(self, movies_db):
        store = EmbeddingStore(3)
        facts = list(movies_db.facts("MOVIES")) + list(movies_db.facts("ACTORS"))
        rng = np.random.default_rng(0)
        store.commit({f: rng.normal(size=3) for f in facts}, batch_id="seed")
        return store, facts

    def test_deleted_rows_vanish_from_every_query(self, store):
        store, facts = store
        victim = facts[0]
        before = store.head.num_facts
        snapshot = store.commit(deletes=[victim.fact_id], batch_id="del")
        assert snapshot.num_facts == before - 1
        assert victim.fact_id not in snapshot
        with pytest.raises(KeyError):
            snapshot.vector(victim.fact_id)
        with pytest.raises(KeyError):
            snapshot.fetch([victim.fact_id])
        ids, _vectors = snapshot.relation_slice(victim.relation)
        assert victim.fact_id not in ids
        neighbours = snapshot.nearest(facts[1], k=len(facts))
        assert victim.fact_id not in {fid for fid, _ in neighbours}
        assert victim.fact_id not in snapshot.embedding().fact_ids
        # earlier snapshots are unaffected (immutability)
        assert victim.fact_id in store.snapshot(snapshot.version - 1)

    def test_delete_is_idempotent_and_unknown_ids_ignored(self, store):
        store, facts = store
        store.commit(deletes=[facts[0].fact_id], batch_id="del")
        again = store.commit(deletes=[facts[0].fact_id, 424242], batch_id="del2")
        assert again.num_facts == store.snapshot(again.version - 1).num_facts

    def test_delete_wins_over_update_in_one_commit(self, store):
        store, facts = store
        snapshot = store.commit(
            {facts[0]: np.ones(3)}, batch_id="both", deletes=[facts[0].fact_id]
        )
        assert facts[0].fact_id not in snapshot

    def test_reinsert_after_delete(self, store):
        store, facts = store
        store.commit(deletes=[facts[0].fact_id], batch_id="del")
        snapshot = store.commit({facts[0]: np.full(3, 2.0)}, batch_id="back")
        np.testing.assert_array_equal(snapshot.vector(facts[0].fact_id), np.full(3, 2.0))

    def test_tombstones_compact_once_dominant(self, movies_db):
        store = EmbeddingStore(2)
        store.COMPACT_MIN_DEAD = 1
        facts = list(movies_db.facts("MOVIES"))
        store.commit({f: np.zeros(2) for f in facts}, batch_id="seed")
        for i, fact in enumerate(facts[:-1]):
            store.commit(deletes=[fact.fact_id], batch_id=f"del{i}")
        head = store.head
        assert head.num_facts == 1
        assert head.num_rows < len(facts)  # compaction reclaimed dead rows
        assert facts[-1].fact_id in head

    def test_save_load_drops_tombstones(self, store, tmp_path):
        store, facts = store
        store.commit(deletes=[facts[0].fact_id], batch_id="del")
        store.save(tmp_path / "store")
        restored = EmbeddingStore.load(tmp_path / "store")
        assert facts[0].fact_id not in restored.head
        assert restored.head.num_facts == store.head.num_facts
        assert restored.has_batch("del")


class TestChurnFeedCounts:
    def test_single_cascade_groups_carry_the_remainder(self, small_genes_dataset):
        partition = partition_dataset(small_genes_dataset, ratio_new=0.25, rng=SEED)
        feed = churn_feed(
            partition, group_size=1, delete_fraction=0.15, update_fraction=0.15, rng=SEED
        )
        inserted = deleted = updated = 0
        for batch in feed:
            inserted += len(batch.inserts)
            deleted += len(batch.deletes)
            updated += len(batch.updates)
            assert deleted == round(0.15 * inserted)
            assert updated == round(0.15 * inserted)
        assert deleted > 0

    def test_default_churn_replay_deletes_and_updates(self, tmp_path):
        import json

        from repro.cli.main import main

        out = tmp_path / "churn.json"
        assert main([
            "replay", "--ops", "insert,delete,update", "--dimension", "4",
            "--epochs", "1", "--no-verify", "--output", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["facts_deleted"] > 0 and report["facts_updated"] > 0


class TestChurnService:
    @pytest.fixture(scope="class")
    def served(self, small_genes_dataset):
        from repro.core import ForwardConfig

        config = ForwardConfig(
            dimension=12, n_samples=120, batch_size=256, max_walk_length=2,
            epochs=3, learning_rate=0.02, n_new_samples=30,
        )
        dataset = small_genes_dataset
        partition = partition_dataset(dataset, ratio_new=0.25, rng=SEED)
        engine = WalkEngine(partition.db)
        model = ForwardEmbedder(
            partition.db, dataset.prediction_relation, config, rng=SEED, engine=engine
        ).fit()
        feed = churn_feed(
            partition, group_size=2, delete_fraction=0.2, update_fraction=0.2, rng=SEED
        )
        service = EmbeddingService(
            model, partition.db, engine=engine, policy="recompute", seed=SEED
        )
        outcomes = service.sync(feed)
        return dataset, partition, feed, service, model, outcomes

    def test_churn_feed_mixes_ops(self, served):
        _dataset, _partition, feed, _service, _model, _outcomes = served
        counts = feed.num_ops
        assert counts["insert"] > 0 and counts["delete"] > 0 and counts["update"] > 0

    def test_deleted_facts_absent_from_store_and_db(self, served):
        _dataset, partition, feed, service, _model, _outcomes = served
        deleted = {
            op.fact.fact_id for b in feed for op in b.ops if op.kind == "delete"
        }
        assert deleted
        head = service.store.head
        for fid in deleted:
            assert fid not in head
            assert fid not in partition.db._facts_by_id  # noqa: SLF001
        neighbours = {
            fid
            for anchor in head.row_of
            for fid, _ in head.nearest(anchor, k=5)
        }
        assert not neighbours & deleted

    def test_engine_stayed_incremental_and_synced(self, served):
        _dataset, partition, _feed, service, _model, _outcomes = served
        assert service.engine.compiled.num_facts == len(partition.db)
        assert service.engine.refresh() is False  # fully synced, O(1)

    def test_stats_count_crud_ops(self, served):
        _dataset, _partition, feed, service, _model, outcomes = served
        stats = service.stats(feed)
        assert stats.facts_deleted == sum(o.facts_deleted for o in outcomes) > 0
        assert stats.facts_updated == sum(o.facts_updated for o in outcomes) > 0
        assert stats.feed_lag == 0 and stats.version_skew == 0

    def test_churned_stream_matches_one_shot(self, served):
        from repro.core.forward_dynamic import ForwardDynamicExtender

        dataset, _partition, feed, service, model, _outcomes = served
        twin = partition_dataset(dataset, ratio_new=0.25, rng=SEED)
        arrival = _replay_feed_into(twin.db, feed, dataset.prediction_relation)
        one_shot = ForwardDynamicExtender(
            model, twin.db, recompute_old_paths=True, rng=SEED,
            engine=WalkEngine(twin.db),
        )
        head = service.store.head
        assert arrival  # some streamed prediction facts survived
        for fid in arrival:
            expected = one_shot.embed_fact(twin.db.fact(fid))
            np.testing.assert_allclose(head.vector(fid), expected, atol=1e-9, rtol=0)

    def test_trained_embeddings_never_drift_under_churn(self, served):
        _dataset, _partition, _feed, service, model, _outcomes = served
        head = service.store.head
        for fid in model.fact_ids:
            if fid in head:
                np.testing.assert_array_equal(head.vector(fid), model.vector(fid))

    def test_redelivery_of_churn_batches_is_idempotent(self, served):
        _dataset, partition, feed, service, _model, _outcomes = served
        head_before = service.store.head
        db_size = len(partition.db)
        for batch in feed:  # full at-least-once redelivery
            outcome = service.apply(batch)
            assert not outcome.applied
            assert outcome.facts_inserted == outcome.facts_deleted == 0
            assert outcome.facts_updated == outcome.facts_embedded == 0
        assert service.store.head is head_before
        assert len(partition.db) == db_size


class TestChurnOnArrival:
    def test_on_arrival_churn_tombstones_and_reembeds_updates(
        self, small_genes_dataset, fast_forward_config
    ):
        dataset = small_genes_dataset
        partition = partition_dataset(dataset, ratio_new=0.25, rng=SEED)
        engine = WalkEngine(partition.db)
        model = ForwardEmbedder(
            partition.db, dataset.prediction_relation, fast_forward_config,
            rng=SEED, engine=engine,
        ).fit()
        feed = churn_feed(
            partition, group_size=2, delete_fraction=0.2, update_fraction=0.2, rng=SEED
        )
        service = EmbeddingService(
            model, partition.db, engine=engine, policy="on_arrival", seed=SEED
        )
        outcomes = service.sync(feed)
        assert all(o.applied for o in outcomes)
        stats = service.stats(feed)
        assert stats.facts_deleted > 0
        deleted = {
            op.fact.fact_id for b in feed for op in b.ops if op.kind == "delete"
        }
        head = service.store.head
        assert not deleted & set(head.row_of)
        # updated streamed prediction facts were re-embedded in their batch
        updated_tracked = {
            op.fact.fact_id
            for b in feed
            for op in b.ops
            if op.kind == "update"
            and op.fact.relation == dataset.prediction_relation
            and op.fact.fact_id not in model.fact_row
        }
        for fid in updated_tracked - deleted:
            assert fid in head


class TestChurnExperiment:
    def test_run_churn_experiment_smoke(self, small_genes_dataset):
        from repro.core import ForwardConfig
        from repro.evaluation import run_churn_experiment

        result = run_churn_experiment(
            small_genes_dataset,
            config=ForwardConfig(
                dimension=8, n_samples=60, batch_size=128, max_walk_length=1,
                epochs=1, n_new_samples=10,
            ),
            ratio_new=0.25,
            delete_fraction=0.2,
            update_fraction=0.2,
            n_runs=1,
            rng=SEED,
        )
        run = result.runs[0]
        assert run.facts_deleted > 0
        assert run.max_trained_drift == 0.0
        assert run.num_surviving_prediction_facts > 0
        assert 0.0 <= result.baseline_mean <= 1.0


class TestLatencySummary:
    def test_reports_p99_and_count(self):
        summary = latency_summary([0.1] * 99 + [5.0])
        assert summary["count"] == 100
        assert summary["p99_seconds"] >= summary["p95_seconds"] >= summary["p50_seconds"]
        assert summary["max_seconds"] == 5.0

    def test_nan_and_inf_guarded(self):
        summary = latency_summary([0.1, float("nan"), float("inf"), 0.3])
        assert summary["count"] == 2
        assert np.isfinite(summary["p99_seconds"])
        assert summary["max_seconds"] == 0.3

    def test_empty_sample(self):
        summary = latency_summary([])
        assert summary["count"] == 0
        assert summary["p99_seconds"] == 0.0
