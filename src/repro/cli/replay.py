"""``python -m repro replay`` — stream a dataset through the live service.

::

    python -m repro replay --dataset mondial --insert-ratio 0.1
    python -m repro replay --dataset mondial --ops insert,delete,update

The serving-layer counterpart of the offline dynamic experiment: a dataset
is partitioned at the chosen insert ratio, the static model is trained on
the old part, and the removed facts are replayed as a change feed through a
live :class:`~repro.service.service.EmbeddingService` —
:func:`repro.service.replay.run_streaming_replay` does the work.  ``--ops``
selects the workload: pure inserts (default) or a full-CRUD churn stream
that interleaves deletions and in-place updates of previously streamed
facts.  A version-stamped ``BENCH_streaming.json`` with throughput and
latency statistics is written to ``--output``; under the default
``recompute`` policy the run self-verifies against a one-shot extender to
1e-9 (and, for churn, that deleted tuples are absent from the store).
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


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the subcommand's options on ``parser``."""
    from repro.service.replay import DEFAULT_CONFIG

    parser.add_argument("--dataset", default="mondial", help="bundled dataset name")
    parser.add_argument("--insert-ratio", type=float, default=0.1)
    parser.add_argument("--scale", type=float, default=0.2, help="dataset generation scale")
    parser.add_argument("--policy", choices=("recompute", "on_arrival"), default="recompute")
    parser.add_argument(
        "--ops", default="insert",
        help="comma-separated op mix for the stream: insert (default) or a "
        "churn workload like insert,delete,update",
    )
    parser.add_argument(
        "--delete-fraction", type=float, default=0.15,
        help="fraction of streamed facts churn-deleted per batch (with --ops delete)",
    )
    parser.add_argument(
        "--update-fraction", type=float, default=0.15,
        help="fraction of streamed facts churn-updated per batch (with --ops update)",
    )
    parser.add_argument(
        "--group-size", type=int, default=None,
        help="cascade batches coalesced per feed batch (default: ~8 feed batches)",
    )
    parser.add_argument("--epochs", type=int, default=DEFAULT_CONFIG.epochs)
    parser.add_argument("--dimension", type=int, default=DEFAULT_CONFIG.dimension)
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_streaming.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the one-shot equivalence verification",
    )
    add_observability_options(parser)
    add_standard_options(parser)


def execute(args: argparse.Namespace) -> int:
    """Run an already parsed replay invocation."""
    import dataclasses

    from repro.service.replay import DEFAULT_CONFIG, render_report, run_streaming_replay

    config = dataclasses.replace(
        DEFAULT_CONFIG, dimension=args.dimension, epochs=args.epochs
    )
    ops = tuple(part.strip() for part in args.ops.split(",") if part.strip())
    telemetry = telemetry_from_args(args)
    try:
        report = run_streaming_replay(
            args.dataset,
            insert_ratio=args.insert_ratio,
            scale=args.scale,
            seed=args.seed,
            policy=args.policy,
            group_size=args.group_size,
            config=config,
            verify=(not args.no_verify) and args.policy == "recompute",
            ops=ops,
            delete_fraction=args.delete_fraction,
            update_fraction=args.update_fraction,
            telemetry=telemetry,
        )
    except ValueError as error:
        raise CLIError(str(error)) from None
    except KeyError as error:
        raise CLIError(str(error.args[0])) from None
    args.output.write_text(json.dumps(report, indent=2))
    export_observability(telemetry, args, report.get("total_apply_seconds"))
    print(render_report(report))
    print(f"\nReport written to {args.output}")
    if report.get("verified_against_one_shot") is False:
        return 1
    return 0


run = make_runner(
    "python -m repro replay",
    "Replay a dataset's insert stream through the embedding service.",
    add_arguments,
    execute,
)
"""Standalone entry: parse, replay, write the report.  Returns the exit code."""
