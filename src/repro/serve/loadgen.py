"""Load generator for the serve tier: many zipfian readers, one writer.

``python -m repro bench load`` drives this module.  One run builds a small
serving stack (trained model → :class:`~repro.service.service.EmbeddingService`
→ :class:`~repro.serve.router.SnapshotRouter` →
:class:`~repro.serve.backend.LocalBackend`, optionally fronted by the HTTP
server), then

* starts a **writer thread** applying a full-CRUD churn feed through the
  service — every batch is a real embed-and-commit, exactly the production
  write path;
* simulates ``clients`` **logical clients** (≥ 64 by default) multiplexed
  over a bounded pool of reader threads, each client issuing a
  deterministic, zipfian-skewed mix of fetch / kNN / relation-slice
  queries (a fraction of the kNN ops also carry a ``relation=`` filter,
  and the profile's ``index``/``nprobe`` select the answering index —
  ``"exact"`` by default, ``"ivf"`` for an ANN profile that churns the
  maintainer through every commit).  Every client completes at least one
  full plan, and readers
  keep cycling extra rounds until the writer drains, so reads and commits
  genuinely overlap;
* dedicates the first ``pinned_clients`` clients to **pinned verification**:
  they query an explicitly pinned pre-churn version and their responses are
  compared against serially recorded references — the diff must be exactly
  0.0 (bit identity), proving snapshot isolation under concurrent commits
  and compaction;
* asserts **monotonic version observation** for unpinned clients (a client
  never sees the served version go backwards).

The result is one versioned JSON payload (``schema_version`` 1, ``kind``
``"load_test"``, written to ``benchmarks/results/BENCH_load.json`` by the
benchmark) reporting qps, per-kind p50/p99 latency, staleness
(served-version lag behind the writer head) and the verification outcome.
Floors are recorded in the payload and enforced by :func:`check_load`, the
kind's entry in :data:`repro.cli.artifacts.ARTIFACT_KINDS`, so a stored
artifact re-validates offline (``tools/check_obs_artifacts.py``) and renders
via ``python -m repro stats``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import ForwardConfig
from repro.core.forward import ForwardEmbedder
from repro.datasets import load_dataset
from repro.dynamic.partition import partition_dataset
from repro.engine import WalkEngine
from repro.obs import Telemetry, latency_summary, missing_latency_fields
from repro.serve.backend import LocalBackend
from repro.serve.client import ServeClient
from repro.serve.router import SnapshotRouter
from repro.serve.server import EmbeddingServer
from repro.service.feed import churn_feed
from repro.service.service import EmbeddingService

LOAD_SCHEMA_VERSION = 1
LOAD_KIND = "load_test"

QUERY_KINDS = ("fetch", "knn", "slice")

#: Hyper-parameters of the served model: the load test measures the query
#: tier, so training is as small as the pipeline allows.
LOAD_CONFIG = ForwardConfig(
    dimension=16, n_samples=300, batch_size=1024, max_walk_length=2, epochs=3,
    learning_rate=0.02, n_new_samples=20,
)


@dataclass(frozen=True)
class LoadProfile:
    """One load-test configuration (JSON-safe via ``as_dict``)."""

    dataset: str = "mondial"
    scale: float = 0.2
    insert_ratio: float = 0.3
    seed: int = 0
    #: Simulated logical clients; each runs its own deterministic plan.
    clients: int = 64
    #: OS threads the logical clients are multiplexed over.
    worker_threads: int = 8
    #: Queries per client per plan round.
    queries_per_client: int = 10
    #: Zipf skew exponent over the fact popularity ranking (>= 0; 0 = uniform).
    zipf_exponent: float = 1.1
    #: Mix weights of fetch / knn / slice queries.
    query_mix: tuple[float, float, float] = (0.5, 0.35, 0.15)
    k: int = 5
    fetch_batch: int = 4
    #: ``"inproc"`` (shared backend) or ``"http"`` (loopback server + client).
    transport: str = "inproc"
    #: Leading clients pinned to the pre-churn version for bit-identity checks.
    pinned_clients: int = 4
    #: Asserted queries/second floor (recorded in the payload).
    qps_floor: float = 200.0
    delete_fraction: float = 0.2
    update_fraction: float = 0.2
    group_size: int = 2
    retention_window: int = 8
    #: Index answering the kNN queries: ``"exact"`` (default) or ``"ivf"``.
    #: The store is built with this index, so an ANN profile exercises the
    #: maintainer across every churn commit, not just one frozen view.
    index: str = "exact"
    #: Per-query probe-width override for ANN profiles (None = index default).
    nprobe: int | None = None
    #: Fraction of kNN queries that carry a ``relation=`` filter.
    knn_relation_fraction: float = 0.25

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset, "scale": self.scale,
            "insert_ratio": self.insert_ratio, "seed": self.seed,
            "clients": self.clients, "worker_threads": self.worker_threads,
            "queries_per_client": self.queries_per_client,
            "zipf_exponent": self.zipf_exponent,
            "query_mix": list(self.query_mix), "k": self.k,
            "fetch_batch": self.fetch_batch, "transport": self.transport,
            "pinned_clients": self.pinned_clients, "qps_floor": self.qps_floor,
            "delete_fraction": self.delete_fraction,
            "update_fraction": self.update_fraction,
            "group_size": self.group_size,
            "retention_window": self.retention_window,
            "index": self.index, "nprobe": self.nprobe,
            "knn_relation_fraction": self.knn_relation_fraction,
        }


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised zipfian weights ``1/rank^s`` over ``n`` ranked items."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -float(exponent)
    return weights / weights.sum()


def _client_plan(
    profile: LoadProfile,
    client: int,
    fact_ids: np.ndarray,
    fact_weights: np.ndarray,
    relations: list[str],
    relation_weights: np.ndarray,
) -> list[dict]:
    """The deterministic query plan of one logical client."""
    rng = np.random.default_rng([profile.seed, client])
    mix = np.asarray(profile.query_mix, dtype=np.float64)
    mix = mix / mix.sum()
    plan: list[dict] = []
    for _ in range(profile.queries_per_client):
        kind = QUERY_KINDS[int(rng.choice(len(QUERY_KINDS), p=mix))]
        if kind == "fetch":
            chosen = rng.choice(fact_ids, size=profile.fetch_batch, p=fact_weights)
            plan.append({"kind": "fetch", "fact_ids": [int(f) for f in chosen]})
        elif kind == "knn":
            fid = int(rng.choice(fact_ids, p=fact_weights))
            op = {"kind": "knn", "query": fid, "k": profile.k}
            if rng.random() < profile.knn_relation_fraction:
                op["relation"] = relations[
                    int(rng.choice(len(relations), p=relation_weights))
                ]
            plan.append(op)
        else:
            rel = relations[int(rng.choice(len(relations), p=relation_weights))]
            plan.append({"kind": "slice", "relation": rel})
    return plan


class _Transport:
    """One reader thread's query handle (in-proc backend or HTTP client)."""

    def __init__(
        self,
        backend: LocalBackend,
        server: EmbeddingServer | None,
        index: str | None = None,
        nprobe: int | None = None,
    ):
        # exact is the wire default — only name the index when it isn't
        self._index = None if index in (None, "exact") else index
        self._nprobe = nprobe
        if server is None:
            self._backend = backend
            self._client = None
        else:
            self._backend = None
            self._client = ServeClient("127.0.0.1", server.port, timeout=30.0)

    def query(self, op: dict, version: int | None) -> dict:
        target = self._client if self._client is not None else self._backend
        if op["kind"] == "fetch":
            return target.fetch(op["fact_ids"], version=version)
        if op["kind"] == "knn":
            return target.knn(
                op["query"], k=op["k"], relation=op.get("relation"),
                version=version, index=self._index, nprobe=self._nprobe,
            )
        return target.slice(op["relation"], version=version)

    def close(self) -> None:
        if self._client is not None:
            self._client.close()


@dataclass
class _ReaderResults:
    """One worker thread's private tallies (merged after the join)."""

    latencies: dict = field(default_factory=lambda: {k: [] for k in QUERY_KINDS})
    counts: dict = field(default_factory=lambda: {k: 0 for k in QUERY_KINDS})
    staleness: list = field(default_factory=list)
    pinned_queries: int = 0
    pinned_max_diff: float = 0.0
    monotonic_violations: int = 0
    errors: list = field(default_factory=list)


def _max_abs_diff(reference: dict, response: dict) -> float:
    """Max absolute numeric difference between two query responses."""
    diff = 0.0
    for key in ("vectors",):
        if key in reference:
            ref = np.asarray(reference[key], dtype=np.float64)
            got = np.asarray(response[key], dtype=np.float64)
            if ref.shape != got.shape:
                return float("inf")
            if ref.size:
                diff = max(diff, float(np.max(np.abs(ref - got))))
    if "fact_ids" in reference and list(reference["fact_ids"]) != list(
        response["fact_ids"]
    ):
        return float("inf")
    if "neighbors" in reference:
        ref_n, got_n = reference["neighbors"], response["neighbors"]
        if [fid for fid, _ in ref_n] != [fid for fid, _ in got_n]:
            return float("inf")
        for (_, a), (_, b) in zip(ref_n, got_n):
            diff = max(diff, abs(float(a) - float(b)))
    return diff


def run_load_test(
    profile: LoadProfile | None = None,
    telemetry: Telemetry | None = None,
    config: ForwardConfig | None = None,
) -> dict:
    """Run one concurrent load test and return the versioned payload.

    Floors and verification outcomes are recorded, not enforced here;
    :func:`check_load` turns them into failures so the stored artifact can
    be re-validated offline.
    """
    from repro import __version__

    profile = profile or LoadProfile()
    if profile.transport not in ("inproc", "http"):
        raise ValueError(f"unknown transport {profile.transport!r}")
    if profile.clients < 1 or profile.worker_threads < 1:
        raise ValueError("clients and worker_threads must be positive")
    if profile.index not in ("exact", "ivf"):
        raise ValueError(f"unknown index {profile.index!r}")
    config = config or LOAD_CONFIG

    # ------------------------------------------------------------- stack up
    dataset = load_dataset(profile.dataset, scale=profile.scale, seed=profile.seed)
    partition = partition_dataset(
        dataset, ratio_new=profile.insert_ratio, rng=profile.seed
    )
    started_setup = time.perf_counter()
    engine = WalkEngine(partition.db)
    model = ForwardEmbedder(
        partition.db, dataset.prediction_relation, config,
        rng=profile.seed, engine=engine,
    ).fit()
    service = EmbeddingService(
        model, partition.db, engine=engine, policy="recompute",
        seed=profile.seed, telemetry=telemetry, index=profile.index,
    )
    feed = churn_feed(
        partition,
        group_size=profile.group_size,
        delete_fraction=profile.delete_fraction,
        update_fraction=profile.update_fraction,
        rng=profile.seed,
    )
    router = SnapshotRouter(service.store, retention_window=profile.retention_window)
    service.attach_router(router)
    backend = LocalBackend(router, telemetry=telemetry)
    server = EmbeddingServer(backend).start() if profile.transport == "http" else None
    setup_seconds = time.perf_counter() - started_setup

    # --------------------------------------------- query population + plans
    base = service.store.head  # version 1: the trained baseline
    fact_ids = np.asarray(sorted(base.row_of), dtype=np.int64)
    fact_weights = _zipf_weights(fact_ids.size, profile.zipf_exponent)
    relations = sorted(set(base.relations))
    relation_weights = _zipf_weights(len(relations), profile.zipf_exponent)
    plans = [
        _client_plan(
            profile, client, fact_ids, fact_weights, relations, relation_weights
        )
        for client in range(profile.clients)
    ]
    pinned = min(profile.pinned_clients, profile.clients)

    # pin the pre-churn version and record serial reference answers for the
    # pinned clients — bit identity against these is the isolation proof
    pin_lease = router.lease()
    pinned_version = pin_lease.version
    serial = _Transport(  # uninstrumented reference, same index parameters
        LocalBackend(router), None, index=profile.index, nprobe=profile.nprobe
    )
    references = [
        [serial.query(op, pinned_version) for op in plans[client]]
        for client in range(pinned)
    ]

    # ------------------------------------------------------------ scheduler
    stop = threading.Event()
    mandatory = deque(range(profile.clients))
    schedule_lock = threading.Lock()
    extra_rounds = 0

    def next_client() -> int | None:
        nonlocal extra_rounds
        with schedule_lock:
            if mandatory:
                return mandatory.popleft()
            if stop.is_set():
                return None
            # keep every client (pinned ones included — they re-verify
            # against the same references) cycling until the writer drains
            client = extra_rounds % profile.clients
            extra_rounds += 1
            return client

    # --------------------------------------------------------------- writer
    commit_times: list[float] = []
    writer_error: list[BaseException] = []

    def writer() -> None:
        try:
            for batch in feed.read(service.last_sequence):
                service.apply(batch)
                commit_times.append(time.perf_counter())
                router.collect()
        except BaseException as exc:  # noqa: BLE001 - reported in the payload
            writer_error.append(exc)
        finally:
            stop.set()

    # -------------------------------------------------------------- readers
    results = [_ReaderResults() for _ in range(profile.worker_threads)]

    def reader(worker: int) -> None:
        mine = results[worker]
        transport = _Transport(
            backend, server, index=profile.index, nprobe=profile.nprobe
        )
        last_seen: dict[int, int] = {}  # unpinned client -> last served version
        try:
            while True:
                client = next_client()
                if client is None:
                    return
                version = pinned_version if client < pinned else None
                for index, op in enumerate(plans[client]):
                    begun = time.perf_counter()
                    try:
                        response = transport.query(op, version)
                    except Exception as exc:  # noqa: BLE001
                        mine.errors.append(f"client {client} {op['kind']}: {exc!r}")
                        continue
                    elapsed = time.perf_counter() - begun
                    mine.counts[op["kind"]] += 1
                    mine.latencies[op["kind"]].append(elapsed)
                    mine.staleness.append(int(response["staleness"]))
                    if client < pinned:
                        mine.pinned_queries += 1
                        mine.pinned_max_diff = max(
                            mine.pinned_max_diff,
                            _max_abs_diff(references[client][index], response),
                        )
                    else:
                        seen = last_seen.get(client, 0)
                        if response["version"] < seen:
                            mine.monotonic_violations += 1
                        last_seen[client] = max(seen, int(response["version"]))
        finally:
            transport.close()

    # ----------------------------------------------------------------- run
    load_started = time.perf_counter()
    writer_thread = threading.Thread(target=writer, name="repro-load-writer")
    reader_threads = [
        threading.Thread(target=reader, args=(worker,), name=f"repro-load-reader-{worker}")
        for worker in range(profile.worker_threads)
    ]
    writer_thread.start()
    for thread in reader_threads:
        thread.start()
    for thread in reader_threads:
        thread.join()
    readers_done = time.perf_counter()
    writer_thread.join()
    writer_done = time.perf_counter()
    stats = service.stats(feed)
    pin_lease.release()
    if server is not None:
        server.stop()

    # ------------------------------------------------------------- payload
    duration = readers_done - load_started
    total_queries = sum(sum(r.counts.values()) for r in results)
    overlapped = sum(1 for t in commit_times if load_started <= t <= readers_done)
    staleness_samples = [s for r in results for s in r.staleness]
    pinned_max_diff = max((r.pinned_max_diff for r in results), default=0.0)
    pinned_queries = sum(r.pinned_queries for r in results)
    per_kind = {}
    for kind in QUERY_KINDS:
        samples = [s for r in results for s in r.latencies[kind]]
        per_kind[kind] = {
            "count": sum(r.counts[kind] for r in results),
            "latency": latency_summary(samples),
        }
    payload: dict[str, Any] = {
        "schema_version": LOAD_SCHEMA_VERSION,
        "kind": LOAD_KIND,
        "repro_version": __version__,
        "profile": profile.as_dict(),
        "setup_seconds": setup_seconds,
        "duration_seconds": duration,
        "queries_total": total_queries,
        "qps": (total_queries / duration) if duration > 0 else 0.0,
        "qps_floor": profile.qps_floor,
        "per_kind": per_kind,
        "staleness": {
            "mean": float(np.mean(staleness_samples)) if staleness_samples else 0.0,
            "max": int(max(staleness_samples)) if staleness_samples else 0,
            "samples": len(staleness_samples),
        },
        "pinned_verification": {
            "version": pinned_version,
            "clients": pinned,
            "queries": pinned_queries,
            "max_abs_diff": pinned_max_diff,
            "bit_identical": pinned_max_diff == 0.0 and pinned_queries > 0,
        },
        "monotonic_violations": sum(r.monotonic_violations for r in results),
        "reader_errors": [e for r in results for e in r.errors],
        "writer": {
            "seconds": writer_done - load_started,
            "error": repr(writer_error[0]) if writer_error else None,
            "batches_applied": stats.batches_applied,
            "versions_committed": stats.store_version,
            "commits_during_load": overlapped,
            "facts_inserted": stats.facts_inserted,
            "facts_deleted": stats.facts_deleted,
            "facts_updated": stats.facts_updated,
            "head_version": stats.head_version,
            "served_version": stats.served_version,
        },
        "router": router.stats(),
    }
    return payload


def check_load(payload: dict) -> list[str]:
    """Validate a load-test payload; returns human-readable violations.

    Enforces the schema shape, the ≥64-client requirement, the qps floor,
    per-kind latency coverage (every stable latency field), pinned
    bit-identity (exact 0.0), monotonic version observation, that commits
    genuinely overlapped the reads, and that the writer really deleted and
    updated whenever the profile asks for churn.  An empty list means the
    artifact passes.
    """
    problems: list[str] = []
    if payload.get("kind") != LOAD_KIND:
        problems.append(f"kind is {payload.get('kind')!r}, expected {LOAD_KIND!r}")
    if payload.get("schema_version") != LOAD_SCHEMA_VERSION:
        problems.append(
            f"schema_version is {payload.get('schema_version')!r}, "
            f"expected {LOAD_SCHEMA_VERSION}"
        )
    profile = payload.get("profile") or {}
    if profile.get("clients", 0) < 64:
        problems.append(
            f"only {profile.get('clients', 0)} simulated clients; need >= 64"
        )
    qps = payload.get("qps")
    floor = payload.get("qps_floor", 0.0)
    if not isinstance(qps, (int, float)):
        problems.append(f"qps {qps!r} is not numeric")
    elif qps < floor:
        problems.append(f"qps {qps:.1f} is below the floor of {floor:.1f}")
    per_kind = payload.get("per_kind") or {}
    for kind in QUERY_KINDS:
        entry = per_kind.get(kind) or {}
        if entry.get("count", 0) < 1:
            problems.append(f"no {kind} queries were issued")
            continue
        missing = missing_latency_fields(entry.get("latency"))
        if missing:
            problems.append(f"{kind} latency summary is missing {missing}")
    verification = payload.get("pinned_verification") or {}
    if not verification.get("bit_identical"):
        problems.append(
            "pinned readers were not bit-identical to the serial reference "
            f"(max |diff| = {verification.get('max_abs_diff')!r} over "
            f"{verification.get('queries', 0)} queries)"
        )
    elif verification.get("max_abs_diff") != 0.0:
        problems.append(
            f"pinned max |diff| is {verification.get('max_abs_diff')!r}, expected 0.0"
        )
    if payload.get("monotonic_violations", 1) != 0:
        problems.append(
            f"{payload.get('monotonic_violations')} monotonic-version violations"
        )
    if payload.get("reader_errors"):
        problems.append(f"reader errors: {payload['reader_errors'][:3]}")
    writer = payload.get("writer") or {}
    if writer.get("error"):
        problems.append(f"writer failed: {writer['error']}")
    if writer.get("versions_committed", 0) < 2:
        problems.append("writer committed fewer than 2 store versions")
    if writer.get("commits_during_load", 0) < 1:
        problems.append("no store commit overlapped the read window")
    for op, fraction in (("deleted", "delete_fraction"), ("updated", "update_fraction")):
        if profile.get(fraction, 0.0) > 0 and writer.get(f"facts_{op}", 0) < 1:
            problems.append(
                f"{fraction} is {profile[fraction]} but the writer {op} no facts"
            )
    if "staleness" not in payload:
        problems.append("payload has no staleness block")
    return problems


def render_load(payload: dict) -> str:
    """A human-readable summary of one load-test payload."""
    profile = payload["profile"]
    writer = payload["writer"]
    verification = payload["pinned_verification"]
    lines = [
        f"Serve load test — {profile['dataset']} (scale {profile['scale']}, "
        f"transport {profile['transport']}, index {profile.get('index', 'exact')}, "
        f"{profile['clients']} clients over "
        f"{profile['worker_threads']} threads, zipf s={profile['zipf_exponent']})",
        f"{'queries':<26}{payload['queries_total']:>12}",
        f"{'duration seconds':<26}{payload['duration_seconds']:>12.3f}",
        f"{'qps':<26}{payload['qps']:>12.1f}  (floor {payload['qps_floor']:.0f})",
        f"{'kind':>8}{'count':>8}{'p50 ms':>10}{'p99 ms':>10}{'max ms':>10}",
    ]
    for kind in QUERY_KINDS:
        entry = payload["per_kind"][kind]
        latency = entry["latency"]
        lines.append(
            f"{kind:>8}{entry['count']:>8}"
            f"{latency['p50_seconds'] * 1e3:>10.2f}"
            f"{latency['p99_seconds'] * 1e3:>10.2f}"
            f"{latency['max_seconds'] * 1e3:>10.2f}"
        )
    staleness = payload["staleness"]
    lines += [
        f"{'staleness mean/max':<26}{staleness['mean']:>9.2f} / {staleness['max']}",
        f"{'writer commits (overlap)':<26}{writer['versions_committed']:>12}"
        f"  ({writer['commits_during_load']} during reads)",
        f"{'pinned bit-identity':<26}"
        f"{'OK (0.0)' if verification['bit_identical'] else 'FAILED':>12}"
        f"  (v{verification['version']}, {verification['queries']} queries)",
    ]
    problems = check_load(payload)
    lines.append(
        "floors/bars: OK" if not problems else "VIOLATIONS:\n  " + "\n  ".join(problems)
    )
    return "\n".join(lines)
