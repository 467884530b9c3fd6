"""Streaming scenario driver: replay a dataset's change stream online.

This is the serving-layer counterpart of the offline dynamic experiment
(:mod:`repro.evaluation.dynamic_experiment`): a dataset is partitioned at a
chosen insert ratio, the static model is trained on the old part, and the
removed facts are then replayed *as a change feed* through a live
:class:`~repro.service.service.EmbeddingService`, measuring what a server
operator cares about — apply latency per batch, ingest throughput, store
versions committed — instead of downstream accuracy.

Two workloads share the driver, selected by ``ops``:

* ``("insert",)`` — the historical insert-only stream
  (:func:`~repro.service.feed.partition_feed`);
* ``("insert", "delete", "update")`` (any subset containing ``insert``) —
  the full-CRUD churn stream (:func:`~repro.service.feed.churn_feed`),
  which interleaves deletions of previously streamed facts and in-place
  attribute updates with the arrivals.

Under the default ``recompute`` policy the run is self-verifying: after the
stream drains, a one-shot :class:`~repro.core.forward_dynamic.
ForwardDynamicExtender` run on an independently reconstructed copy of the
final database (the same feed replayed onto a twin) must reproduce the head
store's embeddings of every *surviving* streamed prediction fact to 1e-9 —
and every deleted fact must be absent from the head store.

Run from the unified command line::

    python -m repro replay --dataset mondial --insert-ratio 0.1
    python -m repro replay --dataset mondial --ops insert,delete,update

and a ``BENCH_streaming.json`` with throughput and latency statistics is
written next to the current working directory.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import ForwardConfig
from repro.core.forward import ForwardEmbedder
from repro.core.forward_dynamic import ForwardDynamicExtender
from repro.datasets import load_dataset
from repro.db.database import Database
from repro.dynamic.partition import partition_dataset
from repro.engine import WalkEngine
from repro.obs import Telemetry, latency_summary, observability_report
from repro.service.feed import OP_KINDS, ChangeFeed, churn_feed, partition_feed
from repro.service.service import EmbeddingService

VERIFY_TOLERANCE = 1e-9

#: Hyper-parameters sized so the replay finishes in minutes on a laptop CPU.
DEFAULT_CONFIG = ForwardConfig(
    dimension=32,
    n_samples=1500,
    batch_size=2048,
    max_walk_length=2,
    epochs=15,
    learning_rate=0.01,
    n_new_samples=60,
)


def run_streaming_replay(
    dataset_name: str,
    insert_ratio: float = 0.1,
    scale: float = 0.2,
    seed: int = 0,
    policy: str = "recompute",
    group_size: int | None = None,
    config: ForwardConfig | None = None,
    verify: bool | None = None,
    ops: tuple[str, ...] = ("insert",),
    delete_fraction: float = 0.15,
    update_fraction: float = 0.15,
    telemetry: Telemetry | None = None,
) -> dict:
    """Replay one dataset's change stream through an embedding service.

    Returns a JSON-safe report with throughput/latency statistics and — for
    the ``recompute`` policy, unless ``verify`` is false — the maximum
    absolute difference against a one-shot dynamic-extender run on the same
    final database, plus (for churn streams) the count of deleted facts
    confirmed absent from the head store.

    When an enabled ``telemetry`` bundle is passed it is attached to the
    service (and through it the engine and the store) for the whole replay,
    and the report gains an ``"observability"`` block — the per-stage apply
    breakdown and engine cache hit ratios of
    :func:`repro.obs.observability_report`.
    """
    config = config or DEFAULT_CONFIG
    ops = tuple(ops)
    unknown = [op for op in ops if op not in OP_KINDS]
    if unknown:
        raise ValueError(f"unknown ops {unknown}; expected a subset of {OP_KINDS}")
    if "insert" not in ops:
        raise ValueError("the op mix must include 'insert' (the stream's arrivals)")
    if verify is None:
        verify = policy == "recompute"
    dataset = load_dataset(dataset_name, scale=scale, seed=seed)
    partition = partition_dataset(dataset, ratio_new=insert_ratio, rng=seed)

    start = time.perf_counter()
    engine = WalkEngine(partition.db)
    model = ForwardEmbedder(
        partition.db, dataset.prediction_relation, config, rng=seed, engine=engine
    ).fit()
    static_seconds = time.perf_counter() - start

    if group_size is None:
        # ~8 feed batches regardless of stream length: a batch per "commit
        # window", the way an ingest pipeline coalesces arrivals
        group_size = max(1, len(partition.new_batches) // 8)
    if set(ops) == {"insert"}:
        feed = partition_feed(partition, group_size=group_size)
    else:
        feed = churn_feed(
            partition,
            group_size=group_size,
            delete_fraction=delete_fraction if "delete" in ops else 0.0,
            update_fraction=update_fraction if "update" in ops else 0.0,
            rng=seed,
        )
    service = EmbeddingService(
        model, partition.db, engine=engine, policy=policy, seed=seed,
        telemetry=telemetry,
    )
    outcomes = service.sync(feed)
    stats = service.stats(feed)

    from repro import __version__

    report: dict = {
        "repro_version": __version__,
        "dataset": dataset_name,
        "scale": scale,
        "seed": seed,
        "insert_ratio": insert_ratio,
        "policy": policy,
        "ops": list(ops),
        "feed_batches": len(feed),
        "feed_facts": feed.num_facts,
        "feed_ops": feed.num_ops,
        "prediction_facts_streamed": stats.facts_embedded if policy == "on_arrival" else len(
            [f for f in partition.new_facts if f.relation == dataset.prediction_relation]
        ),
        "facts_inserted": stats.facts_inserted,
        "facts_deleted": stats.facts_deleted,
        "facts_updated": stats.facts_updated,
        "store_versions_committed": stats.store_version,
        "head_version": stats.head_version,
        "served_version": stats.served_version,
        "engine_version": stats.engine_version,
        "feed_lag": stats.feed_lag,
        "version_skew": stats.version_skew,
        "static_train_seconds": static_seconds,
        "total_apply_seconds": stats.total_apply_seconds,
        "facts_per_second": stats.facts_per_second,
        "latency": latency_summary(stats.apply_seconds),
        "apply_seconds": list(stats.apply_seconds),
        "batches": [
            {
                "sequence": o.sequence,
                "batch_id": o.batch_id,
                "facts_inserted": o.facts_inserted,
                "facts_deleted": o.facts_deleted,
                "facts_updated": o.facts_updated,
                "facts_embedded": o.facts_embedded,
                "seconds": o.seconds,
                "store_version": o.store_version,
            }
            for o in outcomes
        ],
    }
    if telemetry is not None and telemetry.enabled:
        report["observability"] = observability_report(
            telemetry, stats.total_apply_seconds
        )

    deleted_ids = {
        op.fact.fact_id for batch in feed for op in batch.ops if op.kind == "delete"
    }
    if deleted_ids:
        leaked = [fid for fid in deleted_ids if fid in service.store.head]
        report["deleted_facts_absent_from_store"] = not leaked
        report["deleted_facts_leaked"] = len(leaked)

    if verify:
        if policy != "recompute":
            raise ValueError("one-shot verification requires the 'recompute' policy")
        max_diff = _one_shot_max_difference(
            dataset, model, service, feed, insert_ratio=insert_ratio, seed=seed
        )
        verified = max_diff <= VERIFY_TOLERANCE and not report.get(
            "deleted_facts_leaked", 0
        )
        report["verified_against_one_shot"] = bool(verified)
        report["one_shot_max_abs_diff"] = max_diff
        report["one_shot_tolerance"] = VERIFY_TOLERANCE
    return report


def _replay_feed_into(db: Database, feed: ChangeFeed, prediction_relation: str) -> list[int]:
    """Apply a feed's ops to ``db`` exactly as the service does.

    Returns the surviving streamed prediction fact ids in arrival order —
    the order the service's ``recompute`` policy embeds them in, which a
    one-shot verification run must reproduce draw-for-draw.
    """
    arrival: list[int] = []
    for batch in feed:
        for op in batch.ops:
            fact = op.fact
            present = fact.fact_id in db._facts_by_id  # noqa: SLF001
            if op.kind == "insert":
                if not present:
                    db.reinsert(fact)
                    if fact.relation == prediction_relation:
                        arrival.append(fact.fact_id)
            elif op.kind == "delete":
                if present:
                    db.delete(fact.fact_id)
                    if fact.fact_id in arrival:
                        arrival.remove(fact.fact_id)
            else:  # update
                if present:
                    current = db.fact(fact.fact_id)
                    if current.values != fact.values:
                        db.update(current, fact.as_dict())
    return arrival


def _one_shot_max_difference(
    dataset,
    model,
    service: EmbeddingService,
    feed: ChangeFeed,
    insert_ratio: float,
    seed: int,
) -> float:
    """Max |streamed − one-shot| over all surviving prediction embeddings.

    The final database is reconstructed independently (same dataset, same
    partition seed, the same feed replayed onto a twin) and every surviving
    streamed prediction fact is embedded by a fresh one-shot extender; the
    service's head store must agree to machine precision.
    """
    twin = partition_dataset(dataset, ratio_new=insert_ratio, rng=seed)
    arrival = _replay_feed_into(twin.db, feed, dataset.prediction_relation)
    extender = ForwardDynamicExtender(
        model, twin.db, recompute_old_paths=True, rng=seed, engine=WalkEngine(twin.db)
    )
    head = service.store.head
    max_diff = 0.0
    for fact_id in arrival:
        one_shot = extender.embed_fact(twin.db.fact(fact_id))
        streamed = head.vector(fact_id)
        max_diff = max(max_diff, float(np.max(np.abs(one_shot - streamed))))
    return max_diff


def render_report(report: dict) -> str:
    """A short human-readable summary of a replay report."""
    latency = report["latency"]
    lines = [
        f"Streaming replay — {report['dataset']} "
        f"(scale {report['scale']}, insert ratio {report['insert_ratio']}, "
        f"policy {report['policy']}, ops {'+'.join(report.get('ops', ['insert']))})",
        f"{'feed batches':<28}{report['feed_batches']:>12}",
        f"{'facts inserted':<28}{report['facts_inserted']:>12}",
        f"{'facts deleted':<28}{report.get('facts_deleted', 0):>12}",
        f"{'facts updated':<28}{report.get('facts_updated', 0):>12}",
        f"{'store versions committed':<28}{report['store_versions_committed']:>12}",
        f"{'static train seconds':<28}{report['static_train_seconds']:>12.3f}",
        f"{'total apply seconds':<28}{report['total_apply_seconds']:>12.3f}",
        f"{'facts / second':<28}{report['facts_per_second']:>12.1f}",
        f"{'apply p50 seconds':<28}{latency['p50_seconds']:>12.4f}",
        f"{'apply p95 seconds':<28}{latency['p95_seconds']:>12.4f}",
        f"{'apply p99 seconds':<28}{latency['p99_seconds']:>12.4f}",
    ]
    if "deleted_facts_absent_from_store" in report:
        status = "OK" if report["deleted_facts_absent_from_store"] else "LEAKED"
        lines.append(f"{'deleted absent from store':<28}{status:>12}")
    if "one_shot_max_abs_diff" in report:
        lines.append(
            f"{'one-shot max |diff|':<28}{report['one_shot_max_abs_diff']:>12.2e}"
            f"  ({'OK' if report['verified_against_one_shot'] else 'MISMATCH'})"
        )
    return "\n".join(lines)

