"""Top-level parser and dispatch of ``python -m repro``.

Builds one :mod:`argparse` tree with a subparser per subcommand module
(each contributes ``add_arguments``/``execute``), handles ``--version``,
and applies the shared config-file layer (:func:`repro.cli.common.
parse_with_config`) before dispatching.  Subcommand modules stay directly
runnable through their ``run(argv)``, without the dispatcher.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.cli import bench, embed, evaluate, ingest, replay, serve, stats
from repro.cli.common import CLIError, parse_with_config

SUBCOMMANDS = {
    "ingest": (ingest, "ingest CSV/SQLite data: schema inference, embeddings, artifacts"),
    "embed": (embed, "train one embedding from a method spec and save it as .npz"),
    "serve": (serve, "stream an ingested relation through the online service"),
    "replay": (replay, "replay a dataset's insert stream (BENCH_streaming.json)"),
    "evaluate": (evaluate, "run the paper's static/dynamic experiments"),
    "bench": (bench, "run a reduced-scale benchmark suite"),
    "stats": (stats, "summarize --metrics-out/--trace observability artifacts"),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full ``python -m repro`` parser plus its subparsers by name."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Stable tuple embeddings for dynamic databases: ingest data, "
            "train embeddings, serve them online, and reproduce the paper's "
            "experiments — all from one command."
        ),
        epilog="Run 'python -m repro <command> --help' for command options.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    by_name: dict[str, argparse.ArgumentParser] = {}
    for name, (module, summary) in SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=summary, description=summary)
        module.add_arguments(sub)
        sub.set_defaults(_execute=module.execute)
        by_name[name] = sub
    return parser, by_name


def main(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch one invocation; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, by_name = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "_execute", None) is None:
            parser.print_help(sys.stderr)
            return 2
        args = parse_with_config(parser, argv, defaults_target=by_name[args.command])
        return args._execute(args)
    except CLIError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
