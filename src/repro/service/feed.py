"""The change feed: an ordered stream of typed change batches.

A :class:`ChangeFeed` is an append-only log of :class:`ChangeBatch`
entries, each an ordered sequence of typed :class:`ChangeOp`\\ s —
``insert``, ``delete`` or ``update``.  Consumers read by *sequence
number* and may see the same batch more than once (at-least-once delivery
— a consumer that crashes mid-apply re-reads from its last acknowledged
sequence), so every batch carries a deterministic, idempotent
``batch_id`` that lets the service and the store deduplicate
re-deliveries exactly once.  The ops themselves are idempotent under
re-application too: re-inserting a present fact, re-deleting an absent one
and re-applying an update that already took are all no-ops, so even a
consumer without batch-id dedup converges.

Two adapters build feeds from the repo's experiment machinery:

* :func:`partition_feed` replays the cascade batches of a
  :class:`~repro.dynamic.partition.Partition` as pure insert batches in
  arrival order (the inverse of deletion order, referenced facts before
  referencing ones — the same order :mod:`repro.dynamic.replay` uses),
  optionally grouped the way a real ingest pipeline coalesces arrivals;
* :func:`churn_feed` turns the same partition into a *churn* workload:
  each insert group is followed (deterministically, from a seed) by
  deletions of previously streamed facts and in-place attribute updates of
  surviving ones — the full-CRUD streaming scenario.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.db.database import Fact, Value
from repro.dynamic.partition import Partition
from repro.utils.rng import ensure_rng

#: The op kinds a feed can carry, in the order the service applies them.
OP_KINDS = ("insert", "delete", "update")


@dataclass(frozen=True)
class ChangeOp:
    """One typed change: insert a fact, delete it, or update its values.

    ``fact`` is the inserted fact, the fact to delete (identified by its
    ``fact_id``), or — for updates — a fact with the *post-update* values
    under the original ``fact_id``.
    """

    kind: str
    fact: Fact

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}; expected one of {OP_KINDS}")


@dataclass(frozen=True)
class ChangeBatch:
    """One ordered batch of change ops, with an idempotent identity."""

    sequence: int
    batch_id: str
    ops: tuple[ChangeOp, ...]

    @property
    def facts(self) -> tuple[Fact, ...]:
        """The facts of every op, in order (all of them inserts for a pure
        insert batch)."""
        return tuple(op.fact for op in self.ops)

    def _of_kind(self, kind: str) -> tuple[Fact, ...]:
        return tuple(op.fact for op in self.ops if op.kind == kind)

    @property
    def inserts(self) -> tuple[Fact, ...]:
        return self._of_kind("insert")

    @property
    def deletes(self) -> tuple[Fact, ...]:
        return self._of_kind("delete")

    @property
    def updates(self) -> tuple[Fact, ...]:
        return self._of_kind("update")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts)


def _ops_digest(ops: Sequence[ChangeOp]) -> str:
    """A short deterministic digest of a batch's (kind, fact id) signature."""
    payload = ";".join(f"{op.kind[0]}{op.fact.fact_id}" for op in ops)
    return hashlib.sha1(payload.encode()).hexdigest()[:8]


class ChangeFeed:
    """Append-only, totally ordered log of change batches."""

    def __init__(self, name: str = "feed"):
        self.name = name
        self._batches: list[ChangeBatch] = []
        self._ids: set[str] = set()

    def _publish(self, ops: tuple[ChangeOp, ...], batch_id: str | None) -> ChangeBatch:
        sequence = len(self._batches)
        if batch_id is None:
            batch_id = f"{self.name}:{sequence:06d}"
            if any(op.kind != "insert" for op in ops):
                # mixed batches embed an op digest so a feed regenerated from
                # the same churn schedule re-derives identical ids
                batch_id += f":{_ops_digest(ops)}"
        if batch_id in self._ids:
            raise ValueError(f"batch id {batch_id!r} already in the feed")
        batch = ChangeBatch(sequence, batch_id, ops)
        self._batches.append(batch)
        self._ids.add(batch_id)
        return batch

    def append(self, facts: Iterable[Fact], batch_id: str | None = None) -> ChangeBatch:
        """Append one insert batch; a deterministic id is derived when none
        is given (the historical, insert-only calling convention)."""
        return self._publish(tuple(ChangeOp("insert", f) for f in facts), batch_id)

    def append_deletes(self, facts: Iterable[Fact], batch_id: str | None = None) -> ChangeBatch:
        """Append one batch deleting the given facts (idempotent on replay)."""
        return self._publish(tuple(ChangeOp("delete", f) for f in facts), batch_id)

    def append_updates(self, facts: Iterable[Fact], batch_id: str | None = None) -> ChangeBatch:
        """Append one batch of in-place updates (facts carry the new values)."""
        return self._publish(tuple(ChangeOp("update", f) for f in facts), batch_id)

    def append_ops(
        self,
        ops: Iterable[ChangeOp | tuple[str, Fact]],
        batch_id: str | None = None,
    ) -> ChangeBatch:
        """Append one mixed batch of typed ops, applied in the given order."""
        normalized = tuple(
            op if isinstance(op, ChangeOp) else ChangeOp(*op) for op in ops
        )
        return self._publish(normalized, batch_id)

    def __len__(self) -> int:
        return len(self._batches)

    def __iter__(self) -> Iterator[ChangeBatch]:
        return iter(self._batches)

    def __getitem__(self, sequence: int) -> ChangeBatch:
        return self._batches[sequence]

    @property
    def last_sequence(self) -> int:
        """Sequence number of the newest batch (-1 when the feed is empty)."""
        return len(self._batches) - 1

    @property
    def num_facts(self) -> int:
        return sum(len(batch) for batch in self._batches)

    @property
    def num_ops(self) -> dict[str, int]:
        """Op counts by kind across the whole feed."""
        counts = {kind: 0 for kind in OP_KINDS}
        for batch in self._batches:
            for op in batch.ops:
                counts[op.kind] += 1
        return counts

    def read(self, after: int = -1) -> Iterator[ChangeBatch]:
        """All batches with ``sequence > after``, in order.

        Reading never consumes: a consumer that re-reads from an earlier
        sequence sees the same batches again (at-least-once delivery); the
        batch ids make the duplicates detectable.
        """
        for batch in self._batches[after + 1 :]:
            yield batch


def partition_feed(
    partition: Partition,
    group_size: int = 1,
    name: str | None = None,
) -> ChangeFeed:
    """A partition's removed facts as an insert feed, in arrival order.

    Each cascade batch is emitted referenced-facts-first (the inverse of its
    deletion order); ``group_size`` coalesces that many consecutive cascade
    batches into one :class:`ChangeBatch`.  Batch ids embed the prediction
    fact ids they deliver, so regenerating the feed from an identical
    partition yields identical ids — the idempotence anchor for replays.
    """
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    feed = ChangeFeed(name or f"replay-{partition.prediction_relation}")
    arrival: list[list[Fact]] = [
        list(reversed(batch)) for batch in reversed(partition.new_batches)
    ]
    for start in range(0, len(arrival), group_size):
        group = arrival[start : start + group_size]
        facts = [fact for cascade in group for fact in cascade]
        anchor_ids = "+".join(
            str(cascade[-1].fact_id) for cascade in group if cascade
        )
        feed.append(facts, batch_id=f"{feed.name}:{len(feed):06d}:{anchor_ids}")
    return feed


def _mutable_attributes(fact: Fact, partition: Partition) -> list[str]:
    """Attributes of ``fact`` that churn updates may rewrite.

    Key attributes and foreign-key source attributes are off limits — churn
    exercises *attribute* updates; rewriting identity or references would
    turn an update into a disguised delete+insert.
    """
    schema = fact.schema
    frozen = set(schema.key)
    for fk in partition.db.schema.foreign_keys_from(fact.relation):
        frozen.update(fk.source_attrs)
    return [name for name in schema.attribute_names if name not in frozen]


def churn_feed(
    partition: Partition,
    group_size: int = 1,
    delete_fraction: float = 0.15,
    update_fraction: float = 0.15,
    rng: int | np.random.Generator | None = 0,
    name: str | None = None,
) -> ChangeFeed:
    """A full-CRUD churn workload derived from a partition's insert stream.

    The insert stream is grouped exactly like :func:`partition_feed`; after
    each insert group a deterministic scheduler (seeded by ``rng``) deletes
    facts streamed so far and still live, and rewrites a mutable attribute
    on facts drawn from the surviving stream *and* the base database.  The
    counts carry their fractional remainder across groups: after every
    group the feed has deleted ``round(delete_fraction × inserts so far)``
    facts and updated ``round(update_fraction × inserts so far)`` (fewer
    only while too few candidates exist), so small groups churn too.
    Updates may hit base facts (a tuple that was always there can change
    too — that is what makes it churn, not just ingest), with replacement
    values from the attribute's observed value pool.  Deletions are plain
    (non-cascading) deletes — later arrivals referencing a deleted fact
    dangle, which both the database and the compiled engine tolerate.  Each
    emitted batch carries its inserts first, then updates, then deletes,
    under a batch id embedding the op signature, so regenerating the feed
    from the same partition and seed is id-identical.
    """
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    if not 0.0 <= delete_fraction < 1.0 or not 0.0 <= update_fraction < 1.0:
        raise ValueError("delete_fraction and update_fraction must be in [0, 1)")
    generator = ensure_rng(rng)
    feed = ChangeFeed(name or f"churn-{partition.prediction_relation}")
    arrival: list[list[Fact]] = [
        list(reversed(batch)) for batch in reversed(partition.new_batches)
    ]
    # value pools for updates: every value observed for (relation, attribute)
    # across the base database and the stream
    pools: dict[tuple[str, str], list[Value]] = {}

    def pool(relation: str, attribute: str) -> list[Value]:
        key = (relation, attribute)
        if key not in pools:
            values = {
                f[attribute]
                for f in partition.db.facts(relation)
                if f[attribute] is not None
            }
            for cascade in arrival:
                for f in cascade:
                    if f.relation == relation and f[attribute] is not None:
                        values.add(f[attribute])
            pools[key] = sorted(values, key=repr)
        return pools[key]

    # current values of every updatable fact: the base database's facts with
    # at least one mutable attribute, plus the streamed facts as they arrive
    state: dict[int, Fact] = {
        fact.fact_id: fact
        for fact in partition.db.facts()
        if _mutable_attributes(fact, partition)
    }
    streamed_live: set[int] = set()
    streamed_facts: dict[int, Fact] = {}
    inserted = deleted = updated_total = 0

    def rewrite(fact: Fact) -> Fact | None:
        """A copy of ``fact`` with one mutable attribute changed, or None."""
        attrs = _mutable_attributes(fact, partition)
        if not attrs:
            return None
        attr = attrs[int(generator.integers(len(attrs)))]
        choices = [v for v in pool(fact.relation, attr) if v != fact[attr]]
        if not choices:
            return None
        value = choices[int(generator.integers(len(choices)))]
        values = tuple(
            value if n == attr else v
            for n, v in zip(fact.schema.attribute_names, fact.values)
        )
        return Fact(fact.fact_id, fact.relation, values, fact.schema)

    for start in range(0, len(arrival), group_size):
        group = arrival[start : start + group_size]
        inserts = [fact for cascade in group for fact in cascade]
        for fact in inserts:
            streamed_live.add(fact.fact_id)
            streamed_facts[fact.fact_id] = fact
            if _mutable_attributes(fact, partition):
                state[fact.fact_id] = fact
        ops = [ChangeOp("insert", fact) for fact in inserts]
        inserted += len(inserts)
        # deletions target the streamed facts only (the base stays the
        # trained bedrock); updates may hit stream and base alike
        n_deletes = int(round(delete_fraction * inserted)) - deleted
        n_deletes = min(n_deletes, max(len(streamed_live) - 1, 0))
        doomed: set[int] = set()
        if n_deletes:
            ordered = sorted(streamed_live)
            picks = generator.choice(len(ordered), size=n_deletes, replace=False)
            doomed = {ordered[int(p)] for p in picks}
        deleted += len(doomed)
        n_updates = int(round(update_fraction * inserted)) - updated_total
        updated = 0
        if n_updates:
            candidates = [fid for fid in sorted(state) if fid not in doomed]
            order = generator.permutation(len(candidates))
            for i in order:
                if updated >= n_updates:
                    break
                new_fact = rewrite(state[candidates[int(i)]])
                if new_fact is None:
                    continue
                state[new_fact.fact_id] = new_fact
                ops.append(ChangeOp("update", new_fact))
                updated += 1
        updated_total += updated
        for fid in sorted(doomed):
            streamed_live.discard(fid)
            fact = state.pop(fid, None) or streamed_facts[fid]
            ops.append(ChangeOp("delete", fact))
        feed.append_ops(ops, batch_id=f"{feed.name}:{len(feed):06d}:{_ops_digest(ops)}")
    return feed
