"""Instrumentation tests: engine/store/service telemetry wired end to end.

The engine cache counters are asserted against *hand-counted* hit/miss
sequences on the Figure-2 movies database, so a regression in either the
caches or the counters shows up as an exact integer mismatch.  The service
integration test asserts the ISSUE's acceptance bar: the four apply stages
account for at least 90% of total apply wall time.
"""

import numpy as np
import pytest

from repro.dynamic import partition_dataset
from repro.engine import WalkEngine
from repro.obs import (
    NULL_TELEMETRY,
    Telemetry,
    cache_hit_ratios,
    metrics_payload,
    stage_breakdown,
)
from repro.service import EmbeddingService, EmbeddingStore, partition_feed
from repro.walks.schemes import enumerate_walk_schemes

SEED = 11


def _fast_config():
    """The conftest ``fast_forward_config`` values, class-scope friendly."""
    from repro.core.forward import ForwardConfig

    return ForwardConfig(
        dimension=12,
        n_samples=120,
        batch_size=256,
        max_walk_length=2,
        epochs=3,
        learning_rate=0.02,
        n_new_samples=30,
    )


def _counters(telemetry):
    return telemetry.metrics.snapshot()["counters"]


class TestEngineCounters:
    def test_step_cache_hand_counted(self, movies_db):
        telemetry = Telemetry()
        engine = WalkEngine(movies_db, telemetry=telemetry)
        scheme = next(
            s for s in enumerate_walk_schemes(movies_db.schema, "MOVIES", 1)
            if len(s.steps) == 1
        )
        engine.step_matrix(scheme.steps[0])  # cold: miss
        engine.step_matrix(scheme.steps[0])  # warm: hit
        engine.step_matrix(scheme.steps[0])  # warm: hit
        counters = _counters(telemetry)
        assert counters["engine.cache.step.misses"] == 1
        assert counters["engine.cache.step.hits"] == 2

    def test_mutation_invalidates_and_recounts(self, movies_db):
        telemetry = Telemetry()
        engine = WalkEngine(movies_db, telemetry=telemetry)
        scheme = next(
            s for s in enumerate_walk_schemes(movies_db.schema, "MOVIES", 1)
            if len(s.steps) == 1
        )
        engine.destination_matrix(scheme)  # mass miss + step miss
        engine.destination_matrix(scheme)  # mass hit
        fact = movies_db.facts("MOVIES")[0]
        movies_db.delete(fact)
        engine.remove_facts([fact])
        engine.destination_matrix(scheme)  # signature changed: mass miss again
        counters = _counters(telemetry)
        assert counters["engine.cache.mass.misses"] == 2
        assert counters["engine.cache.mass.hits"] == 1
        assert counters["engine.tombstones"] == 1
        ratios = cache_hit_ratios(telemetry)
        assert ratios["mass"] == {"hits": 1, "misses": 2, "hit_ratio": 1 / 3}

    def test_compile_refresh_and_compaction_counters(self, movies_db):
        telemetry = Telemetry()
        engine = WalkEngine(movies_db, telemetry=telemetry)
        counters = _counters(telemetry)
        assert counters["engine.compiles"] == 1  # the constructor's compile
        movies_db.insert("STUDIOS", {"sid": "s99", "name": "A24", "loc": "NY"})
        fact = movies_db.facts("MOVIES")[0]
        movies_db.delete(fact)
        assert engine.refresh() is True
        counters = _counters(telemetry)
        assert counters["engine.refresh.replayed_ops"] == 2  # insert + delete
        histograms = telemetry.metrics.snapshot()["histograms"]
        assert histograms["engine.refresh.seconds"]["count"] == 1
        assert engine.compiled.compact() is True  # one tombstone to reclaim
        counters = _counters(telemetry)
        assert counters["engine.compactions"] == 1
        assert counters["engine.compiles"] == 2

    def test_detached_engine_counts_nothing(self, movies_db):
        engine = WalkEngine(movies_db)  # no telemetry: the no-op default
        scheme = next(
            s for s in enumerate_walk_schemes(movies_db.schema, "MOVIES", 1)
            if len(s.steps) == 1
        )
        engine.destination_matrix(scheme)
        assert engine.telemetry is NULL_TELEMETRY
        assert _counters(engine.telemetry) == {}


class TestStoreInstruments:
    def test_query_latency_histograms(self, movies_db):
        telemetry = Telemetry()
        store = EmbeddingStore(4, telemetry=telemetry)
        facts = movies_db.facts("MOVIES")[:3]
        store.commit({f: np.full(4, float(i)) for i, f in enumerate(facts)}, "b1")
        head = store.head
        head.fetch([facts[0], facts[1]])
        head.nearest(facts[0], k=2)
        head.relation_slice("MOVIES")
        histograms = telemetry.metrics.snapshot()["histograms"]
        assert histograms["store.fetch.seconds"]["count"] == 1
        assert histograms["store.knn.seconds"]["count"] == 1
        assert histograms["store.slice.seconds"]["count"] == 1
        assert histograms["store.commit.seconds"]["count"] == 1

    def test_commit_gauges_and_cow_bytes(self, movies_db):
        telemetry = Telemetry()
        store = EmbeddingStore(4, telemetry=telemetry)
        facts = movies_db.facts("MOVIES")[:2]
        store.commit({f: np.zeros(4) for f in facts}, "b1")
        store.commit({}, "b2", deletes=[facts[0]])
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["gauges"]["store.version"] == 2
        assert snapshot["gauges"]["store.tombstone_ratio"] == 0.5
        # each commit copies the full vectors array: 2 rows × 4 float64 twice
        assert snapshot["counters"]["store.cow.bytes"] == 2 * (2 * 4 * 8)

    def test_late_attach_reaches_existing_snapshots(self, movies_db):
        store = EmbeddingStore(4)
        fact = movies_db.facts("MOVIES")[0]
        store.commit({fact: np.zeros(4)}, "b1")
        telemetry = Telemetry()
        store.set_telemetry(telemetry)  # after the snapshot was minted
        store.head.fetch([fact])
        histograms = telemetry.metrics.snapshot()["histograms"]
        assert histograms["store.fetch.seconds"]["count"] == 1


class TestServiceIntegration:
    @pytest.fixture(scope="class")
    def served(self, small_genes_dataset):
        """One instrumented replay shared by the assertions below."""
        from repro.core.forward import ForwardEmbedder

        dataset = small_genes_dataset
        partition = partition_dataset(dataset, ratio_new=0.25, rng=SEED)
        telemetry = Telemetry()
        engine = WalkEngine(partition.db)
        model = ForwardEmbedder(
            partition.db, dataset.prediction_relation, _fast_config(),
            rng=SEED, engine=engine,
        ).fit()
        feed = partition_feed(partition, group_size=4)
        service = EmbeddingService(
            model, partition.db, engine=engine, policy="recompute", seed=SEED,
            telemetry=telemetry,
        )
        outcomes = service.sync(feed)
        return service, feed, outcomes, telemetry

    def test_stages_cover_at_least_90_percent_of_apply(self, served):
        service, feed, _outcomes, telemetry = served
        stats = service.stats(feed)
        breakdown = stage_breakdown(telemetry, stats.total_apply_seconds)
        assert breakdown["total_apply_seconds"] == pytest.approx(
            stats.total_apply_seconds
        )
        assert set(breakdown["stages"]) == {
            "service.apply.decode",
            "service.apply.engine_sync",
            "service.apply.embed",
            "service.apply.store_commit",
        }
        assert breakdown["coverage"] >= 0.9
        assert breakdown["coverage"] <= 1.0 + 1e-6

    def test_spans_nest_under_apply(self, served):
        service, feed, _outcomes, telemetry = served
        spans = telemetry.tracer.spans()
        applies = [s for s in spans if s.name == "service.apply"]
        assert len(applies) == len(feed)
        apply_ids = {s.span_id for s in applies}
        stages = [s for s in spans if s.name.startswith("service.apply.")]
        assert stages and all(s.parent_id in apply_ids for s in stages)

    def test_counters_match_service_stats(self, served):
        service, feed, outcomes, telemetry = served
        stats = service.stats(feed)
        counters = _counters(telemetry)
        assert counters["service.batches"] == stats.batches_applied == len(feed)
        assert counters["service.facts.inserted"] == stats.facts_inserted
        assert counters["service.facts.embedded"] == stats.facts_embedded
        histograms = telemetry.metrics.snapshot()["histograms"]
        assert histograms["service.apply.seconds"]["count"] == len(outcomes)

    def test_duplicate_batches_are_counted_not_staged(self, served):
        service, feed, _outcomes, telemetry = served
        before = telemetry.profiler.report()["service.apply.decode"]["calls"]
        service.apply(next(iter(feed)))  # re-delivery: dedup short-circuits
        counters = _counters(telemetry)
        assert counters["service.duplicates"] == service.stats().duplicates_skipped
        assert counters["service.duplicates"] >= 1
        after = telemetry.profiler.report()["service.apply.decode"]["calls"]
        assert after == before  # no stage ran for the duplicate

    def test_feed_lag_none_without_a_feed(self, served):
        service, feed, _outcomes, _telemetry = served
        assert service.stats().feed_lag is None  # unknown, not "caught up"
        assert service.stats(feed).feed_lag == 0  # actually caught up

    def test_metrics_payload_is_json_ready(self, served):
        import json

        service, feed, _outcomes, telemetry = served
        stats = service.stats(feed)
        payload = metrics_payload(telemetry, stats.total_apply_seconds)
        assert payload["stage_coverage"] >= 0.9
        assert payload["cache_hit_ratios"]  # engine activity was recorded
        json.dumps(payload)  # must be serializable as-is

    def test_default_service_is_unobserved(self, small_genes_dataset):
        from repro.core.forward import ForwardEmbedder

        dataset = small_genes_dataset
        partition = partition_dataset(dataset, ratio_new=0.25, rng=SEED)
        engine = WalkEngine(partition.db)
        model = ForwardEmbedder(
            partition.db, dataset.prediction_relation, _fast_config(),
            rng=SEED, engine=engine,
        ).fit()
        service = EmbeddingService(
            model, partition.db, engine=engine, policy="recompute", seed=SEED
        )
        feed = partition_feed(partition, group_size=8)
        service.sync(feed)
        assert service.telemetry is NULL_TELEMETRY
        assert service.telemetry.tracer.spans() == ()
        assert service.telemetry.metrics.snapshot()["counters"] == {}
        assert service.telemetry.profiler.report() == {}
