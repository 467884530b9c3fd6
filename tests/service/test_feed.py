"""Tests for the change feed and the partition replay adapter."""

import pytest

from repro.dynamic import partition_dataset
from repro.service import ChangeFeed, partition_feed


class TestChangeFeed:
    def test_append_read_and_order(self, movies_db):
        facts = list(movies_db.facts("MOVIES"))
        feed = ChangeFeed("test")
        b0 = feed.append(facts[:2])
        b1 = feed.append(facts[2:3])
        assert (b0.sequence, b1.sequence) == (0, 1)
        assert feed.last_sequence == 1
        assert feed.num_facts == 3
        assert [b.batch_id for b in feed] == ["test:000000", "test:000001"]
        # reading is non-destructive and resumable by sequence
        assert [b.sequence for b in feed.read()] == [0, 1]
        assert [b.sequence for b in feed.read(after=0)] == [1]
        assert list(feed.read(after=1)) == []

    def test_duplicate_batch_ids_rejected(self, movies_db):
        facts = list(movies_db.facts("MOVIES"))
        feed = ChangeFeed()
        feed.append(facts[:1], batch_id="x")
        with pytest.raises(ValueError):
            feed.append(facts[1:2], batch_id="x")


class TestPartitionFeed:
    @pytest.fixture(scope="class")
    def dataset(self, small_genes_dataset):
        return small_genes_dataset

    def test_arrival_order_matches_replay(self, dataset):
        partition = partition_dataset(dataset, ratio_new=0.2, rng=3)
        feed = partition_feed(partition)
        assert len(feed) == len(partition.new_batches)
        # arrival order is the inverse of deletion order, and within a
        # cascade batch referenced facts come before referencing ones
        expected = [list(reversed(batch)) for batch in reversed(partition.new_batches)]
        for batch, cascade in zip(feed, expected):
            assert list(batch.facts) == cascade
        # every removed fact is delivered exactly once
        delivered = [f.fact_id for b in feed for f in b]
        assert sorted(delivered) == sorted(f.fact_id for f in partition.new_facts)

    def test_grouping(self, dataset):
        partition = partition_dataset(dataset, ratio_new=0.2, rng=3)
        feed = partition_feed(partition, group_size=3)
        assert len(feed) == (len(partition.new_batches) + 2) // 3
        assert feed.num_facts == len(partition.new_facts)

    def test_batch_ids_are_deterministic(self, dataset):
        ids_a = [b.batch_id for b in partition_feed(partition_dataset(dataset, 0.2, rng=5))]
        ids_b = [b.batch_id for b in partition_feed(partition_dataset(dataset, 0.2, rng=5))]
        assert ids_a == ids_b
        # ids embed the delivered prediction fact: distinct across batches
        assert len(set(ids_a)) == len(ids_a)

    def test_group_size_validated(self, dataset):
        partition = partition_dataset(dataset, ratio_new=0.2, rng=3)
        with pytest.raises(ValueError):
            partition_feed(partition, group_size=0)
