"""The embedding service: feed in, versioned embeddings out.

:class:`EmbeddingService` is the long-lived orchestrator of the serving
layer.  It drives any :class:`~repro.api.protocol.Embedder` that supports
``partial_fit`` — a trained :class:`~repro.core.forward.ForwardModel` is
still accepted directly and wrapped on the spot — together with an
:class:`~repro.service.store.EmbeddingStore`.  Each
:class:`~repro.service.feed.ChangeBatch` applied from the change feed

1. applies the batch's typed ops to the database in order — inserts (facts
   already present from an at-least-once overlap are skipped), plain
   non-cascading deletes, and in-place value updates,
2. notifies the embedder so incremental state (e.g. FoRWaRD's compiled
   engine) is appended to / tombstoned / re-encoded, never recompiled,
3. embeds through ``partial_fit``/``recompute_extension`` under the
   configured policy — re-extending only the affected neighbourhood under
   ``on_arrival`` (the batch's new and updated tracked facts), and the
   surviving streamed set under ``recompute`` — and
4. commits exactly one new store version tagged with the batch id, with
   deleted facts tombstoned out of every store query.

Duplicate batch ids are acknowledged without re-applying, so an
at-least-once feed converges to exactly-once effects.

Two embedding policies mirror the paper's two dynamic settings:

* ``"on_arrival"`` (the one-by-one setting): every new tracked fact is
  embedded once, on the version of the database it arrived into, and never
  touched again.  Cheapest, and stability extends to streamed facts.  Any
  embedder with ``supports_on_arrival`` qualifies.
* ``"recompute"`` (the all-at-once setting): after every commit the service
  re-embeds *all* streamed facts against the current database in one
  batched pass (trained embeddings stay frozen — stability by
  construction).  After the final batch the store is exactly what a
  one-shot :class:`~repro.core.forward_dynamic.ForwardDynamicExtender` run
  on the final database produces: the service seed keys every anchor pick,
  so the replay is reproducible and verifiable to machine precision.  Requires an embedder with ``supports_recompute`` (FoRWaRD).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.api.embedders import ForwardEmbedding
from repro.api.protocol import Embedder
from repro.core.forward import ForwardModel
from repro.db.database import Database, Fact
from repro.engine import WalkEngine
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.service.feed import ChangeBatch, ChangeFeed
from repro.service.store import EmbeddingStore, StoreSnapshot

POLICIES = ("recompute", "on_arrival")


@dataclass(frozen=True)
class ApplyOutcome:
    """What applying one feed batch did."""

    sequence: int
    batch_id: str
    applied: bool
    """False when the batch id had been applied before (duplicate delivery)."""
    facts_inserted: int
    facts_embedded: int
    seconds: float
    store_version: int
    facts_deleted: int = 0
    facts_updated: int = 0


@dataclass(frozen=True)
class ServiceStats:
    """Synchronisation statistics of a running service."""

    store_version: int
    engine_version: int
    batches_applied: int
    duplicates_skipped: int
    facts_inserted: int
    facts_embedded: int
    total_apply_seconds: float
    facts_per_second: float
    feed_lag: int | None
    """Feed batches published but not yet applied (0 when fully caught up).
    ``None`` when no feed was passed to :meth:`EmbeddingService.stats` —
    without one the lag is unknown, not zero."""
    version_skew: int
    """Engine mutations since the last store commit (0 when every insert the
    engine has seen is reflected in the head store version)."""
    apply_seconds: tuple[float, ...] = field(repr=False, default=())
    """Per-batch apply latencies, for percentile reporting."""
    facts_deleted: int = 0
    facts_updated: int = 0
    head_version: int = 0
    """The writer's newest committed store version (== ``store_version``)."""
    served_version: int = 0
    """The newest version a reader has observed — through the attached
    :class:`~repro.serve.router.SnapshotRouter` when one is attached, the
    head otherwise."""

    @property
    def staleness_versions(self) -> int:
        """How many versions readers lag behind the writer head."""
        return max(0, self.head_version - self.served_version)


class EmbeddingService:
    """Applies a change feed to an embedder and versions the results.

    Parameters
    ----------
    model:
        Either a fitted :class:`~repro.api.protocol.Embedder` supporting
        ``partial_fit``, or (the historical calling convention) a trained
        :class:`ForwardModel`, which is wrapped into a
        :class:`~repro.api.embedders.ForwardEmbedding` on the spot.
    db:
        The live database the feed inserts into.
    engine:
        An optional shared :class:`WalkEngine` compiled from ``db`` (the one
        used for training, typically); only meaningful with a
        :class:`ForwardModel` — a fitted embedder brings its own.
    store:
        An optional pre-existing store (service restart); a fresh store is
        created — and seeded with the embedder's current embeddings as
        version 1 — otherwise.
    policy:
        ``"recompute"`` or ``"on_arrival"`` (see the module docstring).
    seed:
        Seed of the extension.  Under ``"recompute"`` it keys every anchor
        pick of each batched pass, which makes the final store independent
        of how arrivals were batched.
    retain_versions:
        How many store versions to keep resolvable (older ones are pruned
        after each commit — each snapshot holds a full copy of the
        embedding matrix, so an unbounded history grows linearly with
        applied batches).  ``None`` keeps every version.
    telemetry:
        An optional :class:`~repro.obs.Telemetry` bundle.  When given, every
        apply is traced (one ``service.apply`` span broken into decode →
        engine sync → embed → store commit stages), counters/gauges/latency
        histograms are recorded, and the bundle is propagated to the walk
        engine and the store.  The default is the shared no-op bundle.
    index, index_params:
        kNN index choice forwarded to the :class:`EmbeddingStore` the
        service creates when ``store`` is None (``"exact"`` default;
        ``"ivf"`` maintains the ANN index described in :mod:`repro.index`).
        Mutually exclusive with passing a pre-built store.
    """

    def __init__(
        self,
        model: ForwardModel | Embedder,
        db: Database,
        *,
        engine: WalkEngine | None = None,
        store: EmbeddingStore | None = None,
        policy: str = "recompute",
        seed: int = 0,
        retain_versions: int | None = 16,
        telemetry: Telemetry | None = None,
        index: str = "exact",
        index_params: Mapping | None = None,
    ):
        if store is not None and (index != "exact" or index_params):
            raise ValueError(
                "pass the index choice either via store= (a pre-built "
                "EmbeddingStore) or via index=/index_params=, not both"
            )
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if isinstance(model, ForwardModel):
            embedder: Embedder = ForwardEmbedding.from_model(model, db, engine=engine)
        elif isinstance(model, Embedder):
            embedder = model
            if not embedder.is_fitted:
                raise ValueError(
                    f"the {embedder.name!r} embedder is not fitted; "
                    "call fit(db, ...) before serving it"
                )
            if embedder.db_ is not db:
                raise ValueError(
                    "the embedder is bound to a different database object; "
                    "serve it over the database it was fitted on"
                )
        else:
            raise TypeError(
                f"expected a ForwardModel or a fitted Embedder, got {type(model).__name__}"
            )
        if not embedder.supports_partial_fit:
            raise ValueError(
                f"method {embedder.name!r} does not support partial_fit; the "
                "service needs incremental extension to apply feed batches"
            )
        if policy == "on_arrival" and not embedder.supports_on_arrival:
            # for FoRWaRD: a model restored from disk has no training-time
            # attribute matrices (see save_forward_model); other methods may
            # refuse for their own consistency reasons
            raise ValueError(
                f"method {embedder.name!r} cannot be served under policy "
                "'on_arrival' in its current state (for FoRWaRD this needs the "
                "model's training-time attribute matrices, which are not "
                "persisted; a model loaded from disk must be served with policy "
                "'recompute')"
            )
        if policy == "recompute" and not embedder.supports_recompute:
            raise ValueError(
                f"method {embedder.name!r} does not support the 'recompute' "
                "policy (deterministic re-extension); use policy 'on_arrival'"
            )
        if retain_versions is not None and retain_versions < 1:
            raise ValueError("retain_versions must be at least 1 (or None)")
        self._embedder = embedder
        self.model = embedder.model_
        self.db = db
        self.policy = policy
        self.retain_versions = retain_versions
        self._seed = seed
        embedder.configure_extension(
            recompute_old_paths=(policy == "recompute"), rng=seed
        )
        self._tracked_relation = embedder.tracked_relation
        self._arrived: list[Fact] = []  # streamed tracked facts, arrival order
        self._arrived_ids: set[int] = set()
        self._last_sequence = -1
        self._batches_applied = 0
        self._duplicates = 0
        self._facts_inserted = 0
        self._facts_embedded = 0
        self._facts_deleted = 0
        self._facts_updated = 0
        self._total_ops = 0
        self._latencies: list[float] = []
        if store is None:
            store = EmbeddingStore(
                embedder.dimension, index=index, index_params=index_params
            )
        self.store = store
        if self.store.version == 0:
            # version 1 is the baseline: the trained (and any already
            # extended) embeddings, before the feed delivers anything
            current = embedder.transform()
            baseline = {
                self.db.fact(fid): current.vector(fid)
                for fid in current.fact_ids
                if fid in self.db._facts_by_id  # noqa: SLF001 - cheap membership
            }
            self.store.commit(baseline, batch_id="__baseline__")
        else:
            # restart with a persisted store: rebuild the arrival log, so
            # the recompute policy's one-shot-equivalence guarantee survives
            # a mid-stream restart — re-delivered batches are skipped as
            # duplicates and would otherwise never repopulate it.  The log
            # is read from the store metadata the previous service instance
            # recorded; pre-service extended embeddings (frozen by contract)
            # are never in it, only genuinely streamed facts are.
            arrived_ids = self.store.metadata.get("arrived_fact_ids")
            if arrived_ids is None:
                # store not produced by a service: fall back to head row
                # order (arrival-ordered), excluding the trained facts
                head = self.store.head
                arrived_ids = [
                    int(fid)
                    for fid, relation in zip(head.fact_ids, head.relations)
                    if self._tracks(relation) and not embedder.is_trained(int(fid))
                ]
            for fid in arrived_ids:
                fid = int(fid)
                if fid not in self.db._facts_by_id:  # noqa: SLF001
                    raise ValueError(
                        f"restored store holds streamed fact {fid}, which is not "
                        "in the database; restore the database (with preserved "
                        "fact ids) before restarting the service"
                    )
                self._arrived.append(self.db.fact(fid))
                self._arrived_ids.add(fid)
        self._engine_version_at_commit = self._embedder.engine_version
        self._router = None  # set by attach_router (the serve tier)
        self.set_telemetry(telemetry)

    def attach_router(self, router) -> None:
        """Register the serve tier's :class:`SnapshotRouter` for stats.

        With a router attached, :meth:`stats` reports ``served_version``
        from the router's reader observations instead of assuming readers
        are at the head, making staleness visible without store
        introspection.
        """
        self._router = router

    def set_telemetry(self, telemetry: Telemetry | None) -> None:
        """Attach (or detach, with None) a telemetry bundle to every layer.

        Binds the service's own counters/gauges/histograms and propagates
        the bundle down to the walk engine (cache hit/miss counters, refresh
        latency) and the store (commit and query latencies).  Instruments
        are shared no-ops when the bundle is disabled, so the apply path is
        observability-free by default.
        """
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        metrics = self._tel.metrics
        self._c_batches = metrics.counter("service.batches")
        self._c_duplicates = metrics.counter("service.duplicates")
        self._c_ops = metrics.counter("service.ops")
        self._c_inserted = metrics.counter("service.facts.inserted")
        self._c_deleted = metrics.counter("service.facts.deleted")
        self._c_updated = metrics.counter("service.facts.updated")
        self._c_embedded = metrics.counter("service.facts.embedded")
        self._h_apply = metrics.histogram("service.apply.seconds")
        self._g_feed_lag = metrics.gauge("service.feed_lag")
        self._g_version_skew = metrics.gauge("service.version_skew")
        self._g_store_version = metrics.gauge("service.store_version")
        self._g_facts_per_second = metrics.gauge("service.facts_per_second")
        self._g_ops_per_second = metrics.gauge("service.ops_per_second")
        engine = self._embedder.engine
        if engine is not None:
            engine.set_telemetry(self._tel)
        self.store.set_telemetry(self._tel)

    @property
    def telemetry(self) -> Telemetry:
        """The attached bundle (the shared no-op one unless opted in)."""
        return self._tel

    def _tracks(self, relation: str) -> bool:
        return self._tracked_relation is None or relation == self._tracked_relation

    @property
    def embedder(self) -> Embedder:
        """The served embedder (the protocol view of ``model``)."""
        return self._embedder

    @property
    def engine(self) -> WalkEngine | None:
        return self._embedder.engine

    @property
    def last_sequence(self) -> int:
        return self._last_sequence

    # --------------------------------------------------------------- apply

    def apply(self, batch: ChangeBatch) -> ApplyOutcome:
        """Apply one feed batch and commit exactly one store version.

        Ops are applied in batch order: inserts go in via
        ``Database.reinsert`` (facts already present are skipped), deletions
        are plain (non-cascading) ``Database.delete`` calls — deleted tuples
        are tombstoned out of the store and the compiled engine — and
        updates rewrite the fact's values in place.  Every op is idempotent,
        so re-delivered batches converge even before the batch-id dedup
        short-circuits them.
        """
        start = time.perf_counter()
        span = self._tel.span(
            "service.apply", batch_id=batch.batch_id, ops=len(batch.ops)
        )
        span.__enter__()
        try:
            if self.store.has_batch(batch.batch_id):
                span.set(duplicate=True)
                self._c_duplicates.inc()
                self._duplicates += 1
                self._last_sequence = max(self._last_sequence, batch.sequence)
                return ApplyOutcome(
                    batch.sequence, batch.batch_id, False, 0, 0,
                    time.perf_counter() - start, self.store.version,
                )
            return self._apply_live(batch, start)
        finally:
            span.__exit__(None, None, None)

    def _apply_live(self, batch: ChangeBatch, start: float) -> ApplyOutcome:
        """The non-duplicate apply path (inside the ``service.apply`` span)."""
        inserted: list[Fact] = []
        deleted: list[Fact] = []
        updated: list[Fact] = []
        with self._tel.stage("service.apply.decode"):
            for op in batch.ops:
                fact = op.fact
                if op.kind == "insert":
                    if fact in self.db:  # at-least-once overlap with an earlier batch
                        continue
                    self.db.reinsert(fact)
                    inserted.append(fact)
                elif op.kind == "delete":
                    if fact.fact_id not in self.db._facts_by_id:  # noqa: SLF001
                        continue  # already deleted (redelivery or racing batch)
                    current = self.db.fact(fact.fact_id)
                    self.db.delete(current)
                    deleted.append(current)
                else:  # update
                    if fact.fact_id not in self.db._facts_by_id:  # noqa: SLF001
                        continue  # updating a deleted fact is a no-op
                    current = self.db.fact(fact.fact_id)
                    if current.values == fact.values:
                        continue  # idempotent re-delivery
                    updated.append(self.db.update(current, fact.as_dict()))
        with self._tel.stage("service.apply.engine_sync"):
            self._embedder.notify_inserted(inserted)
            if deleted:
                self._embedder.notify_deleted(deleted)
            if updated:
                self._embedder.notify_updated(updated)
        for fact in batch.inserts:
            if (
                self._tracks(fact.relation)
                and not self._embedder.is_trained(fact.fact_id)
                and fact.fact_id not in self._arrived_ids
            ):
                self._arrived.append(fact)
                self._arrived_ids.add(fact.fact_id)
        # deletions leave the arrival log; updates refresh its fact objects
        if deleted:
            dead = {f.fact_id for f in deleted}
            if dead & self._arrived_ids:
                self._arrived_ids -= dead
                self._arrived = [f for f in self._arrived if f.fact_id not in dead]
        refreshed = [f for f in updated if f.fact_id in self._arrived_ids]
        if refreshed:
            by_id = {f.fact_id: f for f in refreshed}
            self._arrived = [by_id.get(f.fact_id, f) for f in self._arrived]
        with self._tel.stage("service.apply.embed"):
            updates = self._embed(batch, inserted, refreshed)
        with self._tel.stage("service.apply.store_commit"):
            snapshot = self.store.commit(
                updates, batch_id=batch.batch_id, deletes=[f.fact_id for f in deleted]
            )
            # the arrival log travels with the store so a restarted service
            # (which only sees duplicate re-deliveries) can rebuild it exactly
            self.store.metadata["arrived_fact_ids"] = [f.fact_id for f in self._arrived]
            if self.retain_versions is not None:
                self.store.prune(keep_last=self.retain_versions)
        self._engine_version_at_commit = self._embedder.engine_version
        seconds = time.perf_counter() - start
        self._latencies.append(seconds)
        self._batches_applied += 1
        self._facts_inserted += len(inserted)
        self._facts_embedded += len(updates)
        self._facts_deleted += len(deleted)
        self._facts_updated += len(updated)
        self._total_ops += len(batch.ops)
        self._last_sequence = max(self._last_sequence, batch.sequence)
        self._c_batches.inc()
        self._c_ops.inc(len(batch.ops))
        self._c_inserted.inc(len(inserted))
        self._c_deleted.inc(len(deleted))
        self._c_updated.inc(len(updated))
        self._c_embedded.inc(len(updates))
        self._h_apply.observe(seconds)
        return ApplyOutcome(
            batch.sequence, batch.batch_id, True, len(inserted), len(updates),
            seconds, snapshot.version, len(deleted), len(updated),
        )

    def _embed(
        self,
        batch: ChangeBatch,
        inserted: Sequence[Fact],
        refreshed: Sequence[Fact],
    ) -> dict[Fact, np.ndarray]:
        if self.policy == "on_arrival":
            # the affected neighbourhood under on_arrival is the batch
            # itself: newly arrived tracked facts, plus streamed facts whose
            # own values were updated (their embeddings were discarded by
            # notify_updated, so partial_fit re-derives them); every other
            # embedding stays frozen by policy
            new_facts = [f for f in batch.inserts if f.fact_id in self._arrived_ids]
            new_facts += [f for f in refreshed if self._tracks(f.relation)]
            embedded = self._embedder.partial_fit(new_facts)
            return {
                fact: embedded.vector(fact)
                for fact in new_facts
                if fact in embedded
            }
        # recompute: one batched pass over every *surviving* streamed fact
        # against the current database; the seed keys the anchor picks, so
        # the head store always equals a one-shot extender run on the
        # current database
        return dict(self._embedder.recompute_extension(self._arrived, self._seed))

    def sync(self, feed: ChangeFeed) -> list[ApplyOutcome]:
        """Apply every feed batch newer than the last applied sequence."""
        return [self.apply(batch) for batch in feed.read(self._last_sequence)]

    # --------------------------------------------------------------- stats

    def stats(self, feed: ChangeFeed | None = None) -> ServiceStats:
        total = float(sum(self._latencies))
        facts_per_second = (self._facts_inserted / total) if total > 0 else 0.0
        # without a feed the lag is unknown, not zero: report None so callers
        # can distinguish "caught up" from "nothing to compare against"
        feed_lag = (
            (feed.last_sequence - self._last_sequence) if feed is not None else None
        )
        version_skew = self._embedder.engine_version - self._engine_version_at_commit
        self._g_feed_lag.set(feed_lag)
        self._g_version_skew.set(version_skew)
        self._g_store_version.set(self.store.version)
        self._g_facts_per_second.set(facts_per_second)
        self._g_ops_per_second.set(
            (self._total_ops / total) if total > 0 else 0.0
        )
        head_version = self.store.version
        served_version = (
            self._router.served_version() if self._router is not None else head_version
        )
        return ServiceStats(
            store_version=head_version,
            engine_version=self._embedder.engine_version,
            batches_applied=self._batches_applied,
            duplicates_skipped=self._duplicates,
            facts_inserted=self._facts_inserted,
            facts_embedded=self._facts_embedded,
            total_apply_seconds=total,
            facts_per_second=facts_per_second,
            feed_lag=feed_lag,
            version_skew=version_skew,
            apply_seconds=tuple(self._latencies),
            facts_deleted=self._facts_deleted,
            facts_updated=self._facts_updated,
            head_version=head_version,
            served_version=served_version,
        )

    # ------------------------------------------------------------- queries

    def snapshot(self) -> StoreSnapshot:
        """The current head snapshot (stable under later applies)."""
        return self.store.head

    def embeddings_of(self, facts: Sequence[Fact | int]) -> np.ndarray:
        """Batched fetch from the head snapshot."""
        return self.store.head.fetch(facts)
