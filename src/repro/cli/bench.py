"""``python -m repro bench`` — quick version-stamped benchmark runs.

::

    python -m repro bench load --transport http --clients 128
    python -m repro bench knn --out results/

Runs one of the named benchmark suites at a reduced scale and writes its
``BENCH_*.json`` artifact (stamped with ``repro.__version__``) into the
output directory.  ``--list`` shows the suites.  The full paper-scale
harness remains ``python -m pytest benchmarks -q`` (see ``benchmarks/``);
this subcommand covers the quick, CI-sized runs.  Streaming throughput is
timed by ``perfbench/`` (see ``perfbench/README.md``), and a single
streaming run with its one-shot check is ``python -m repro replay``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli.common import (
    CLIError,
    add_observability_options,
    add_standard_options,
    export_observability,
    make_runner,
    telemetry_from_args,
)

SUITES = {
    "load": "Concurrent serve-tier load test: zipfian readers vs one churn "
    "writer (qps, per-kind p50/p99, staleness, pinned bit-identity) "
    "-> BENCH_load.json",
    "knn": "kNN index ladder: IVF speedup-vs-exact and recall@10 on churned "
    "stores across Mondial scales -> BENCH_knn.json",
}


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the subcommand's options on ``parser``."""
    parser.add_argument("suite", nargs="?", choices=tuple(SUITES),
                        help="benchmark suite to run")
    parser.add_argument("--list", action="store_true", help="list the available suites")
    parser.add_argument("--dataset", default="mondial", help="bundled dataset name")
    parser.add_argument("--scale", type=float, default=0.15, help="dataset generation scale")
    parser.add_argument("--insert-ratio", type=float, default=0.1)
    parser.add_argument("--out", default=".", help="output directory for BENCH_*.json")
    load = parser.add_argument_group("load suite")
    load.add_argument("--transport", choices=("inproc", "http"), default="inproc",
                      help="query transport: shared backend or loopback HTTP")
    load.add_argument("--clients", type=int, default=64,
                      help="simulated logical clients (default: 64)")
    load.add_argument("--worker-threads", type=int, default=8,
                      help="reader threads the clients are multiplexed over")
    load.add_argument("--queries-per-client", type=int, default=10,
                      help="queries per client per plan round")
    load.add_argument("--zipf", type=float, default=1.1,
                      help="zipfian skew exponent of the query population")
    load.add_argument("--pinned-clients", type=int, default=4,
                      help="clients pinned to the pre-churn version (bit-identity check)")
    load.add_argument("--qps-floor", type=float, default=200.0,
                      help="asserted queries/second floor, recorded in the payload")
    load.add_argument("--index", choices=("exact", "ivf"), default="exact",
                      help="kNN index answering the load test's knn queries")
    load.add_argument("--nprobe", type=int, default=None,
                      help="ANN probe width override for --index ivf")
    knn = parser.add_argument_group("knn suite")
    knn.add_argument("--full", action="store_true",
                     help="climb the full ladder (up to 4x Mondial) instead "
                     "of the reduced rungs")
    knn.add_argument("--queries", type=int, default=None,
                     help="measured queries per rung (default: 100)")
    add_observability_options(parser)
    add_standard_options(parser)


def execute(args: argparse.Namespace) -> int:
    """Run an already parsed bench invocation."""
    if args.list or not args.suite:
        for name, summary in SUITES.items():
            print(f"{name:<12}{summary}")
        return 0 if args.list else 2
    if args.suite == "load":
        return _run_load(args)
    if args.suite == "knn":
        return _run_knn(args)
    raise CLIError(f"unknown suite {args.suite!r}")  # pragma: no cover - argparse guards


def _run_load(args: argparse.Namespace) -> int:
    from repro.serve import LoadProfile, check_load, render_load, run_load_test

    # the load suite defaults to a mild churn so readers race real commits;
    # insert-ratio keeps its streaming meaning (fraction held out as feed)
    profile = LoadProfile(
        dataset=args.dataset,
        scale=args.scale,
        insert_ratio=max(args.insert_ratio, 0.2),
        seed=args.seed,
        clients=args.clients,
        worker_threads=args.worker_threads,
        queries_per_client=args.queries_per_client,
        zipf_exponent=args.zipf,
        transport=args.transport,
        pinned_clients=args.pinned_clients,
        qps_floor=args.qps_floor,
        index=args.index,
        nprobe=args.nprobe,
    )
    telemetry = telemetry_from_args(args)
    try:
        payload = run_load_test(profile, telemetry=telemetry)
    except KeyError as error:
        raise CLIError(str(error.args[0])) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "BENCH_load.json"
    path.write_text(json.dumps(payload, indent=2))
    export_observability(telemetry, args, payload.get("duration_seconds"))
    print(render_load(payload))
    print(f"\nReport written to {path}")
    return 0 if not check_load(payload) else 1


def _run_knn(args: argparse.Namespace) -> int:
    from repro.index.bench import (
        FULL_RUNGS,
        KNN_QUERIES,
        REDUCED_RUNGS,
        check_knn,
        render_knn,
        run_knn_bench,
    )

    telemetry = telemetry_from_args(args)
    try:
        payload = run_knn_bench(
            FULL_RUNGS if args.full else REDUCED_RUNGS,
            dataset=args.dataset,
            seed=args.seed,
            queries=args.queries if args.queries else KNN_QUERIES,
            telemetry=telemetry,
        )
    except KeyError as error:
        raise CLIError(str(error.args[0])) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "BENCH_knn.json"
    path.write_text(json.dumps(payload, indent=2))
    export_observability(telemetry, args, None)
    print(render_knn(payload))
    print(f"\nReport written to {path}")
    return 0 if not check_knn(payload) else 1


run = make_runner(
    "python -m repro bench",
    "Run a reduced-scale benchmark suite and write its artifact.",
    add_arguments,
    execute,
)
"""Standalone entry: parse and run the chosen suite.  Returns the exit code."""
