"""``churn_ingest``: the write path users wait on.

FoRWaRD under the service's default ``recompute`` policy is fed a full-CRUD
``churn_feed`` stream built from a Genes partition.  Each batch is appended
to a live ``ChangeFeed``, applied, and probed with one HTTP ``/knn`` for a
fact the batch inserted; freshness is the time from the append to the
first answer whose version holds the batch, taken per batch as the best
of the rounds.  A round is the whole stream on a fresh set-up (later
batches re-embed more facts, so a time-boxed prefix would tie the work to
the program's speed); the checks run on the last round.

Checks: the head store equals a one-shot serial ``embed_fact`` run on a twin
final database to 1e-9, every deleted fact answers 404 over HTTP, and the
service applied exactly the generated schedule's inserts, deletes and
updates, with deletes and updates both > 0.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from harness import Measurement
from stack import ForwardSizes, start_stack

#: The client span every freshness probe records (``serve.probe_s``).
PROBE_SPAN = "serve.client.knn"
ONE_SHOT_TOLERANCE = 1e-9
#: Nominal seconds of one round (the whole stream), measured once; with
#: ``--seconds`` it fixes the number of rounds.
ROUND_S = 5.5
#: Set-ups per pass; ``setup_s`` is the fastest.
SETUP_REPS = 11


@dataclass(frozen=True)
class Sizes:
    dataset: str = "genes"
    scale: float = 0.5
    insert_ratio: float = 0.3
    group_size: int = 4
    delete_fraction: float = 0.2
    update_fraction: float = 0.2
    knn_k: int = 10
    tail_percentile: float = 65.0
    forward: ForwardSizes = field(default_factory=ForwardSizes)


def replay_onto(db, feed, relation: str) -> list[int]:
    """Apply a feed's ops to ``db`` the way the service does.

    Returns the surviving streamed ``relation`` facts in arrival order, the
    order the recompute policy embeds them in.
    """
    arrival: list[int] = []
    for batch in feed:
        for op in batch.ops:
            fact = op.fact
            present = fact in db
            if op.kind == "insert":
                if not present:
                    db.reinsert(fact)
                    if fact.relation == relation:
                        arrival.append(fact.fact_id)
            elif op.kind == "delete":
                if present:
                    db.delete(fact.fact_id)
                    if fact.fact_id in arrival:
                        arrival.remove(fact.fact_id)
            elif present:
                current = db.fact(fact.fact_id)
                if current.values != fact.values:
                    db.update(current, fact.as_dict())
    return arrival


def max_abs_difference(streamed: dict[int, np.ndarray], one_shot: dict[int, np.ndarray]) -> float:
    """Largest |streamed - one-shot| entry; infinite when the fact sets differ."""
    if set(streamed) != set(one_shot):
        return float("inf")
    worst = 0.0
    for fact_id, vector in one_shot.items():
        worst = max(worst, float(np.max(np.abs(np.asarray(streamed[fact_id]) - vector))))
    return worst


class Workload:
    unit = "feed batch"

    def __init__(self, seed: int, sizes: Sizes):
        from repro.datasets import load_dataset
        from repro.dynamic.partition import partition_dataset
        from repro.service.feed import churn_feed

        self.seed = seed
        self.sizes = sizes
        self.dataset = load_dataset(sizes.dataset, scale=sizes.scale, seed=seed)
        self.relation = self.dataset.prediction_relation
        self.partition = partition_dataset(self.dataset, ratio_new=sizes.insert_ratio, rng=seed)
        self.schedule = churn_feed(
            self.partition,
            group_size=sizes.group_size,
            delete_fraction=sizes.delete_fraction,
            update_fraction=sizes.update_fraction,
            rng=seed,
        )
        rng = np.random.default_rng(seed)
        # one probe fact per batch: an inserted fact of the served relation
        # that the same batch does not delete again
        self.probes: list[int | None] = []
        for batch in self.schedule:
            deleted = {f.fact_id for f in batch.deletes}
            candidates = [
                f.fact_id for f in batch.inserts
                if f.relation == self.relation and f.fact_id not in deleted
            ]
            self.probes.append(candidates[int(rng.integers(len(candidates)))] if candidates else None)

    def fresh_input(self):
        return self.partition.db.copy()

    def setup(self, db, telemetry):
        return start_stack(db, self.relation, self.sizes.forward, self.seed, telemetry)

    def teardown(self, stack) -> None:
        stack.close()

    def measure(self, stack, rounds: int, tracer, census, setups) -> tuple[Measurement, object]:
        from repro.serve import ServeError
        from repro.service.feed import ChangeFeed

        times: list[list[float]] = []
        windows: list[tuple[float, float]] = []
        answer = None
        attempted = failed = ops_applied = stale_answers = 0
        apply_errors: list[str] = []
        for r in range(rounds):
            if r:
                # every round replays the stream onto a fresh set-up
                stack.close()
                census.settle()
                stack = setups.fresh()
            feed = ChangeFeed("churn")
            service, client = stack.service, stack.client
            freshness: list[float] = []
            round_start = time.perf_counter()
            for k, template in enumerate(self.schedule):
                tracer.unit = (len(windows), k)
                appended = time.perf_counter()
                batch = feed.append_ops(template.ops, batch_id=template.batch_id)
                attempted += 1
                probe = self.probes[k]
                try:
                    outcome = service.apply(batch)
                except Exception as exc:  # noqa: BLE001 - counted and reported
                    failed += 1
                    apply_errors.append(f"{template.batch_id}: {exc!r}")
                    freshness.append(math.inf)
                    continue
                ops_applied += len(batch.ops)
                if probe is None:
                    freshness.append(time.perf_counter() - appended)
                    continue
                attempted += 1
                try:
                    while True:
                        answer = client.knn(probe, k=self.sizes.knn_k)
                        if answer["version"] >= outcome.store_version:
                            freshness.append(time.perf_counter() - appended)
                            break
                        stale_answers += 1
                except ServeError:
                    failed += 1
                    freshness.append(math.inf)
                census.sample()
            windows.append((round_start, time.perf_counter()))
            times.append(freshness)
            setups.between_rounds()
        stats = service.stats()
        m = Measurement(
            units=len(self.schedule) * len(windows),
            windows=windows,
            attempted=attempted,
            failed=failed,
            work_per_round=float(sum(len(batch.ops) for batch in self.schedule)),
            rounds=times,
            tail_percentile=self.sizes.tail_percentile,
            response_bytes={"knn": float(len(json.dumps(answer).encode()))} if answer else {},
            info={
                "metric_meaning": {
                    "throughput_per_s": "ingest_ops_per_s: feed ops / summed best batch times",
                    "latency_p50_ms": "freshness_p50: append -> first /knn answer holding the batch",
                    "latency_tail_ms": "freshness_tail at the recorded percentile",
                },
                "rounds": len(windows),
                "schedule": {
                    "batches": len(self.schedule),
                    "ops": self.schedule.num_ops,
                    "batches_without_deletes": sum(1 for b in self.schedule if not b.deletes),
                    "batches_without_updates": sum(1 for b in self.schedule if not b.updates),
                },
                "applied_last_round": {
                    "inserted": stats.facts_inserted,
                    "deleted": stats.facts_deleted,
                    "updated": stats.facts_updated,
                },
                "ops_applied": ops_applied,
                "unprobed_batches": sum(1 for p in self.probes if p is None),
                "stale_answers": stale_answers,
                "apply_errors": apply_errors[:5],
            },
        )
        return m, stack

    def verify(self, stack, m: Measurement) -> dict:
        from repro.core.forward_dynamic import ForwardDynamicExtender
        from repro.engine import WalkEngine
        from repro.serve import ServeError

        ops = self.schedule.num_ops
        applied = m.info["applied_last_round"]
        checks = {
            "deletes_and_updates_nonzero": ops["delete"] > 0 and ops["update"] > 0,
            "applied_matches_schedule": (
                applied["inserted"] == ops["insert"]
                and applied["deleted"] == ops["delete"]
                and applied["updated"] == ops["update"]
            ),
        }
        twin = self.partition.db.copy()
        arrival = replay_onto(twin, self.schedule, self.relation)
        extender = ForwardDynamicExtender(
            stack.model, twin, recompute_old_paths=True, rng=self.seed, engine=WalkEngine(twin)
        )
        one_shot = {fid: extender.embed_fact(twin.fact(fid)) for fid in arrival}
        head = stack.service.store.head
        streamed = {
            f.fact_id: head.vector(f.fact_id)
            for b in self.schedule
            for f in b.inserts
            if f.relation == self.relation and f.fact_id in head
        }
        diff = max_abs_difference(streamed, one_shot)
        m.info["one_shot_max_abs_diff"] = diff
        m.info["one_shot_facts"] = len(one_shot)
        checks["head_equals_one_shot"] = diff <= ONE_SHOT_TOLERANCE
        deleted = sorted({f.fact_id for b in self.schedule for f in b.deletes})
        not_404 = 0
        for fid in deleted:
            try:
                stack.client.fetch([fid])
                not_404 += 1
            except ServeError as exc:
                not_404 += exc.status != 404
        m.info["deleted_checked_404"] = len(deleted)
        checks["deleted_facts_answer_404"] = not_404 == 0
        return checks
