"""``python -m repro serve`` — run the embedding service over external data.

::

    python -m repro serve --source data/ --relation TARGET \\
        --method "forward(dimension=32)" --fraction 0.2 --out store/

Ingests a CSV directory or SQLite file, holds out the tail of one relation
as an insert stream (:func:`repro.io.stream.stream_table`), trains the
chosen method on the base, then applies the stream through a live
:class:`~repro.service.service.EmbeddingService` and prints the operator
stats (throughput, apply latency, store versions).  ``--out`` persists the
final versioned store for a later restart.  Any registered method with
``partial_fit`` works under ``--policy on_arrival``; ``recompute`` (the
default) additionally needs deterministic re-extension (FoRWaRD).

With ``--port`` the final store is additionally served over the HTTP/JSON
protocol of :mod:`repro.serve` (``--serve-seconds`` bounds the serving
window; omit it to serve until interrupted)::

    python -m repro serve --source data/ --relation TARGET --port 8765

and ``--attach STORE_DIR --port N`` skips ingest/train entirely: it loads
a store persisted by an earlier ``--out`` run and serves its snapshots as
a read replica — the network face of the store's snapshot isolation.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.cli.common import (
    CLIError,
    add_ingest_options,
    add_observability_options,
    add_standard_options,
    export_observability,
    ingest_source,
    make_runner,
    telemetry_from_args,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the subcommand's options on ``parser``."""
    parser.add_argument("--source", help="CSV directory or SQLite file to ingest (required)")
    parser.add_argument("--relation", help="relation whose tail is streamed (required)")
    parser.add_argument("--method", default="forward",
                        help='method spec (default: forward)')
    parser.add_argument("--fraction", type=float, default=0.2,
                        help="fraction of the relation to stream (default: 0.2)")
    parser.add_argument("--count", type=int, default=None,
                        help="stream exactly this many facts instead of --fraction")
    parser.add_argument("--batch-size", type=int, default=32,
                        help="facts per feed batch (default: 32)")
    parser.add_argument("--policy", choices=("recompute", "on_arrival"),
                        default="recompute")
    parser.add_argument(
        "--index", choices=("exact", "ivf"), default=None,
        help="kNN index the store maintains (default: exact; with --attach, "
        "default is whatever the persisted store used)",
    )
    parser.add_argument("--out", help="directory to persist the final store into")
    parser.add_argument("--port", type=int, default=None,
                        help="serve the final store over HTTP/JSON on this port "
                        "(0 = pick a free one)")
    parser.add_argument("--serve-seconds", type=float, default=None,
                        help="stop serving after this many seconds "
                        "(default: until interrupted)")
    parser.add_argument("--attach", metavar="STORE_DIR", default=None,
                        help="serve a store persisted by --out instead of "
                        "ingesting/training (requires --port)")
    add_ingest_options(parser)
    add_observability_options(parser)
    add_standard_options(parser)


def _check_servable(embedder, spec: str, policy: str) -> None:
    """Refuse an unservable method *before* the (possibly long) training run.

    ``supports_on_arrival`` may be undecidable pre-fit (FoRWaRD inspects its
    training-time attribute matrices); an undecidable answer counts as usable here
    — a freshly fitted model qualifies — and the service re-checks after
    fit anyway.
    """
    from repro.api import NotFittedError

    def on_arrival_possible() -> bool:
        try:
            return embedder.supports_on_arrival
        except NotFittedError:
            return True

    if not embedder.supports_partial_fit:
        raise CLIError(
            f"method spec {spec!r} does not support partial_fit and cannot be served"
        )
    if policy == "recompute" and not embedder.supports_recompute:
        if on_arrival_possible():
            raise CLIError(
                f"method spec {spec!r} does not support the 'recompute' "
                "policy; try --policy on_arrival"
            )
        raise CLIError(f"method spec {spec!r} supports no serving policy")
    if policy == "on_arrival" and not on_arrival_possible():
        if embedder.supports_recompute:
            raise CLIError(
                f"method spec {spec!r} does not support the 'on_arrival' "
                "policy; try --policy recompute"
            )
        raise CLIError(f"method spec {spec!r} supports no serving policy")


def _serve_http(store, args, telemetry) -> None:
    """Serve ``store`` over HTTP until ``--serve-seconds`` elapses (or ^C)."""
    from repro.serve import EmbeddingServer, LocalBackend, SnapshotRouter

    router = SnapshotRouter(store)
    backend = LocalBackend(router, telemetry=telemetry)
    server = EmbeddingServer(backend, port=args.port)
    server.start()
    print(
        f"serving {store.head.num_facts} embeddings "
        f"(version {store.version}, dimension {store.dimension}) at {server.url}"
    )
    print("endpoints: GET /health /stats /versions; "
          "POST /fetch /knn /slice /pin /release")
    try:
        if args.serve_seconds is not None:
            time.sleep(max(0.0, args.serve_seconds))
        else:  # pragma: no cover - interactive serving loop
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.stop()


def _attach(args: argparse.Namespace) -> int:
    """Replica mode: load a persisted store and serve its snapshots."""
    from repro.cli.common import require
    from repro.service import EmbeddingStore

    require(args, "port", "--port")
    directory = Path(args.attach)
    if not (directory / "store.json").exists():
        raise CLIError(
            f"{directory} is not a persisted store (no store.json); "
            "create one with `python -m repro serve ... --out DIR`"
        )
    store = EmbeddingStore.load(directory, index=args.index)
    telemetry = telemetry_from_args(args)
    store.set_telemetry(telemetry)
    print(
        f"attached to store {directory} at version {store.version} "
        f"(index {store.index_kind})"
    )
    _serve_http(store, args, telemetry)
    export_observability(telemetry, args, None)
    return 0


def execute(args: argparse.Namespace) -> int:
    """Run an already parsed serve invocation."""
    from repro.api import MethodSpecError, make_embedder
    from repro.cli.common import require
    from repro.obs import latency_summary
    from repro.io.stream import stream_table
    from repro.service import EmbeddingService

    if args.attach:
        return _attach(args)
    require(args, "source", "--source")
    relation = require(args, "relation", "--relation")
    result = ingest_source(args)
    print(result.summary())
    try:
        stream = stream_table(
            result.database,
            relation,
            fraction=args.fraction,
            count=args.count,
            batch_size=args.batch_size,
        )
    except (KeyError, ValueError) as error:
        raise CLIError(str(error)) from None

    try:
        embedder = make_embedder(args.method)
    except MethodSpecError as error:
        raise CLIError(str(error)) from None
    _check_servable(embedder, args.method, args.policy)
    try:
        embedder.fit(stream.base, relation, rng=args.seed)
    except ValueError as error:
        raise CLIError(f"embedding failed: {error}") from None
    telemetry = telemetry_from_args(args)
    try:
        service = EmbeddingService(
            embedder, stream.base, policy=args.policy, seed=args.seed,
            telemetry=telemetry,
            index=args.index or "exact",
        )
    except ValueError as error:
        raise CLIError(str(error)) from None
    service.sync(stream.feed)
    stats = service.stats(stream.feed)
    latency = latency_summary(stats.apply_seconds)

    print(f"served {len(stream.feed)} feed batches ({stats.facts_inserted} facts) "
          f"with {args.method} under policy {args.policy!r}")
    print(f"{'store versions committed':<28}{stats.store_version:>12}")
    print(f"{'head / served version':<28}"
          f"{f'{stats.head_version} / {stats.served_version}':>12}  "
          f"(staleness {stats.staleness_versions})")
    print(f"{'facts embedded':<28}{stats.facts_embedded:>12}")
    print(f"{'facts / second':<28}{stats.facts_per_second:>12.1f}")
    print(f"{'apply p50 seconds':<28}{latency['p50_seconds']:>12.4f}")
    print(f"{'apply p95 seconds':<28}{latency['p95_seconds']:>12.4f}")
    print(f"{'apply p99 seconds':<28}{latency['p99_seconds']:>12.4f}")
    feed_lag = "unknown" if stats.feed_lag is None else stats.feed_lag
    print(f"{'feed lag':<28}{feed_lag:>12}")

    if args.out:
        directory = service.store.save(Path(args.out))
        print(f"store saved to {directory}")
    if args.port is not None:
        # serve before exporting so the serve-tier histograms are captured
        _serve_http(service.store, args, telemetry)
    export_observability(telemetry, args, stats.total_apply_seconds)
    return 0


run = make_runner(
    "python -m repro serve",
    "Stream an ingested relation through the online embedding service.",
    add_arguments,
    execute,
)
"""Standalone entry: parse, serve the stream, print stats."""
