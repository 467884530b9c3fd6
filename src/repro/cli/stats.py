"""``python -m repro stats`` — summarize observability artifacts.

::

    python -m repro stats metrics.json
    python -m repro stats metrics.json --trace trace.jsonl

Reads a ``--metrics-out`` file written by ``replay``/``serve``/``bench``
(the payload of :func:`repro.obs.metrics_payload`) and prints the operator
view: the per-stage apply breakdown with coverage, engine cache hit ratios,
latency histogram percentiles, and the raw counters/gauges.  With
``--trace`` it additionally summarizes a span trace — JSONL traces are
aggregated per span name; Chrome traces are recognised and counted.

``BENCH_*.json`` files are accepted in place of a metrics payload and
rendered by their ``kind`` through
:data:`repro.cli.artifacts.ARTIFACT_KINDS`: ``load_test``
(``BENCH_load.json``), ``knn_bench`` (``BENCH_knn.json``), ``replay``
(the report of ``python -m repro replay``) and ``obs_overhead``
(``BENCH_obs_overhead.json``).  A payload without a registered
kind is rendered as metrics.

No recomputation happens here: the artifacts are self-contained, so the
subcommand works on files copied off a CI run or another machine.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli.common import CLIError, add_standard_options, make_runner


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the subcommand's options on ``parser``."""
    parser.add_argument(
        "metrics", nargs="?", type=Path,
        help="a metrics JSON file written with --metrics-out",
    )
    parser.add_argument(
        "--trace", metavar="FILE", type=Path, default=None,
        help="also summarize a trace file written with --trace",
    )
    add_standard_options(parser)


def _load_json(path: Path) -> dict:
    if not path.exists():
        raise CLIError(f"file {path} does not exist")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise CLIError(f"{path} is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise CLIError(f"{path} does not hold a JSON object")
    return payload


def render_metrics(payload: dict) -> str:
    """The human-readable summary of one metrics payload."""
    lines: list[str] = []
    stages = payload.get("stages", {})
    if stages:
        lines.append("apply stages")
        for name, stage in stages.items():
            short = name.rsplit(".", 1)[-1]
            lines.append(
                f"  {short:<14}{stage['inclusive_seconds']:>10.3f}s"
                f"{stage['fraction_of_apply']:>8.1%} of apply"
                f"  ({stage['calls']} calls)"
            )
        coverage = payload.get("stage_coverage", 0.0)
        lines.append(f"  {'coverage':<14}{coverage:>18.1%}")
    ratios = payload.get("cache_hit_ratios", {})
    if ratios:
        lines.append("engine caches")
        for kind, ratio in ratios.items():
            lines.append(
                f"  {kind:<14}{ratio['hit_ratio']:>10.1%} hit "
                f"({ratio['hits']} hits / {ratio['misses']} misses)"
            )
    serve = payload.get("serve", {})
    if serve:
        lines.append("serving endpoints")
        for endpoint, summary in serve.get("endpoints", {}).items():
            lines.append(
                f"  {endpoint:<14}{summary['count']:>8}x"
                f"  p50 {summary['p50_seconds'] * 1e3:.2f}ms"
                f"  p99 {summary['p99_seconds'] * 1e3:.2f}ms"
                f"  max {summary['max_seconds'] * 1e3:.2f}ms"
            )
        staleness = serve.get("staleness_versions")
        shown = "unknown" if staleness is None else staleness
        lines.append(f"  {'staleness (versions)':<22}{shown:>8}")
    histograms = payload.get("histograms", {})
    if histograms:
        lines.append("latency histograms")
        for name, summary in sorted(histograms.items()):
            if not summary.get("count"):
                continue
            lines.append(
                f"  {name:<32}{summary['count']:>8}x"
                f"  p50 {summary['p50_seconds']:.4f}s"
                f"  p95 {summary['p95_seconds']:.4f}s"
                f"  max {summary['max_seconds']:.4f}s"
            )
    counters = payload.get("counters", {})
    if counters:
        lines.append("counters")
        for name, value in sorted(counters.items()):
            if value:
                lines.append(f"  {name:<32}{value:>12}")
    gauges = payload.get("gauges", {})
    if gauges:
        lines.append("gauges")
        for name, value in sorted(gauges.items()):
            shown = "unknown" if value is None else (
                f"{value:.3f}" if isinstance(value, float) else value
            )
            lines.append(f"  {name:<32}{shown:>12}")
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def render_trace(path: Path) -> str:
    """Aggregate a trace file into per-span-name counts and totals."""
    text = path.read_text()
    totals: dict[str, list] = {}  # name -> [count, total_seconds]
    if path.suffix.lower() == ".jsonl":
        from repro.obs import load_jsonl

        for record in load_jsonl(path):
            bucket = totals.setdefault(record.name, [0, 0.0])
            bucket[0] += 1
            bucket[1] += record.duration
    else:
        try:
            events = json.loads(text).get("traceEvents", [])
        except json.JSONDecodeError as error:
            raise CLIError(f"{path} is not valid JSON: {error}") from None
        for event in events:
            bucket = totals.setdefault(event.get("name", "?"), [0, 0.0])
            bucket[0] += 1
            bucket[1] += float(event.get("dur", 0.0)) / 1e6
    lines = [f"trace spans ({sum(c for c, _ in totals.values())} total)"]
    for name, (count, seconds) in sorted(
        totals.items(), key=lambda item: -item[1][1]
    ):
        lines.append(f"  {name:<32}{count:>8}x{seconds:>10.3f}s")
    if len(lines) == 1:
        lines.append("  (no spans recorded)")
    return "\n".join(lines)


def render_payload(payload: dict) -> str:
    """Render a BENCH artifact by its ``kind``; anything else as metrics."""
    from repro.cli.artifacts import ARTIFACT_KINDS, artifact_kind

    kind = artifact_kind(payload)
    if kind is None:
        return render_metrics(payload)
    _, render = ARTIFACT_KINDS[kind]
    return render(payload)


def execute(args: argparse.Namespace) -> int:
    """Run an already parsed stats invocation."""
    if args.metrics is None and args.trace is None:
        raise CLIError("pass a metrics JSON file and/or --trace FILE")
    if args.metrics is not None:
        print(render_payload(_load_json(args.metrics)))
    if args.trace is not None:
        if not args.trace.exists():
            raise CLIError(f"file {args.trace} does not exist")
        if args.metrics is not None:
            print()
        print(render_trace(args.trace))
    return 0


run = make_runner(
    "python -m repro stats",
    "Summarize metrics/trace artifacts written by --metrics-out/--trace.",
    add_arguments,
    execute,
)
"""Standalone entry: parse, read the artifacts, print the summary."""
