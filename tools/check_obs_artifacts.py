#!/usr/bin/env python
"""Schema check for the observability artifacts the CLI exports.

CI runs an instrumented churn replay (``python -m repro replay ... --trace
trace.json --metrics-out metrics.json``) and then validates both files with
this tool, so a refactor that silently changes the artifact layout — renamed
stages, dropped cache counters, a trace that no longer nests — fails the
build instead of producing dashboards that read from keys that no longer
exist.

Checked for ``--metrics-out`` files:

* top-level blocks: ``repro_version``, ``counters``, ``gauges``,
  ``histograms``, ``stages``, ``stage_coverage``, ``cache_hit_ratios``;
* every histogram summary carries the stable BENCH latency fields
  (``count``/``mean_seconds``/``p50``/``p95``/``p99``/``max_seconds``)
  plus the registry extras ``sum_seconds`` and ``sampled``;
* the four ``service.apply.*`` stages are present with non-negative
  inclusive/exclusive seconds and ``stage_coverage`` is within [0, 1+eps];
* each cache-hit entry has consistent ``hits``/``misses``/``hit_ratio``.

Checked for ``--trace`` files (either export flavour):

* Chrome trace-event JSON: a ``traceEvents`` list of complete (``ph: "X"``)
  events with microsecond ``ts``/``dur``;
* JSONL: one span record per line with ids, timing, depth, and attrs —
  and every non-root ``parent_id`` resolving to another span in the file.

``BENCH_*.json`` artifacts are picked by their ``kind`` alone and validated
by that kind's check in :data:`repro.cli.artifacts.ARTIFACT_KINDS`:
``load_test`` (:func:`repro.serve.loadgen.check_load`), ``knn_bench``
(:func:`repro.index.bench.check_knn`), ``replay``
(:func:`repro.service.replay.check_report` — the one-shot tolerance the
run recorded, and no deleted fact left in the store) and ``obs_overhead``
(:func:`repro.obs.overhead.check_overhead` — the 5% telemetry budget).  A JSON file without
a registered kind is checked as a metrics payload.

Run from the repository root (CI does)::

    python tools/check_obs_artifacts.py metrics.json trace.json
    python tools/check_obs_artifacts.py BENCH_obs_smoke.json
    python tools/check_obs_artifacts.py benchmarks/results/BENCH_load.json

Exit code 0 when every named artifact is well-formed; 1 with one line per
violation otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # invoked without PYTHONPATH=src; self-locate
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli.artifacts import ARTIFACT_KINDS, artifact_kind  # noqa: E402
from repro.obs import LATENCY_FIELDS  # noqa: E402

HISTOGRAM_FIELDS = LATENCY_FIELDS | {"sum_seconds", "sampled"}
METRICS_BLOCKS = {
    "repro_version", "counters", "gauges", "histograms",
    "stages", "stage_coverage", "cache_hit_ratios",
}
SERVICE_STAGES = {
    "service.apply.decode",
    "service.apply.engine_sync",
    "service.apply.embed",
    "service.apply.store_commit",
}
TRACE_EVENT_FIELDS = {"name", "ph", "ts", "dur", "pid", "tid"}
SPAN_FIELDS = {
    "span_id", "parent_id", "name", "start", "duration",
    "depth", "thread_id", "attrs",
}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_metrics(path: Path) -> list[str]:
    """All schema violations of one ``--metrics-out`` file (empty = clean)."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"{path}: metrics payload is not a JSON object"]
    missing = METRICS_BLOCKS - payload.keys()
    if missing:
        problems.append(f"{path}: missing top-level blocks {sorted(missing)}")
        return problems
    for name, value in payload["counters"].items():
        if not isinstance(value, int) or value < 0:
            problems.append(f"{path}: counter {name!r} is not a non-negative int")
    for name, summary in payload["histograms"].items():
        if not isinstance(summary, dict) or not HISTOGRAM_FIELDS <= summary.keys():
            problems.append(
                f"{path}: histogram {name!r} lacks the stable summary fields "
                f"{sorted(HISTOGRAM_FIELDS - set(summary or ()))}"
            )
            continue
        if summary["count"] > 0 and not (
            summary["p50_seconds"] <= summary["p95_seconds"]
            <= summary["p99_seconds"] <= summary["max_seconds"]
        ):
            problems.append(f"{path}: histogram {name!r} percentiles are not ordered")
    stages = payload["stages"]
    missing_stages = SERVICE_STAGES - stages.keys()
    if missing_stages:
        problems.append(f"{path}: missing apply stages {sorted(missing_stages)}")
    for name, totals in stages.items():
        for field in ("calls", "inclusive_seconds", "exclusive_seconds"):
            if not _number(totals.get(field)) or totals[field] < 0:
                problems.append(f"{path}: stage {name!r} field {field!r} is invalid")
    coverage = payload["stage_coverage"]
    if not _number(coverage) or not 0.0 <= coverage <= 1.0 + 1e-6:
        problems.append(f"{path}: stage_coverage {coverage!r} is outside [0, 1]")
    for kind, entry in payload["cache_hit_ratios"].items():
        if not isinstance(entry, dict) or {"hits", "misses", "hit_ratio"} - entry.keys():
            problems.append(f"{path}: cache entry {kind!r} lacks hits/misses/hit_ratio")
            continue
        total = entry["hits"] + entry["misses"]
        if total <= 0 or abs(entry["hit_ratio"] - entry["hits"] / total) > 1e-9:
            problems.append(f"{path}: cache entry {kind!r} ratio is inconsistent")
    return problems


def _check_span(path: Path, payload: dict, line: int) -> list[str]:
    problems: list[str] = []
    missing = SPAN_FIELDS - payload.keys()
    if missing:
        return [f"{path}:{line}: span record lacks fields {sorted(missing)}"]
    if not _number(payload["start"]) or not _number(payload["duration"]):
        problems.append(f"{path}:{line}: span timing is not numeric")
    elif payload["start"] < 0 or payload["duration"] < 0:
        problems.append(f"{path}:{line}: span timing is negative")
    if not isinstance(payload["depth"], int) or payload["depth"] < 0:
        problems.append(f"{path}:{line}: span depth is not a non-negative int")
    if not isinstance(payload["attrs"], dict):
        problems.append(f"{path}:{line}: span attrs is not an object")
    return problems


def check_trace(path: Path) -> list[str]:
    """All violations of one trace file, JSONL or Chrome (empty = clean)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        problems: list[str] = []
        span_ids: set[int] = set()
        parents: list[tuple[int, int]] = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            payload = json.loads(line)
            problems.extend(_check_span(path, payload, line_no))
            if "span_id" in payload:
                span_ids.add(payload["span_id"])
            if payload.get("parent_id") is not None:
                parents.append((line_no, payload["parent_id"]))
        for line_no, parent_id in parents:
            if parent_id not in span_ids:
                problems.append(
                    f"{path}:{line_no}: parent span {parent_id} is not in the file"
                )
        return problems
    payload = json.loads(text)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return [f"{path}: Chrome trace lacks a 'traceEvents' list"]
    problems = []
    for i, event in enumerate(payload["traceEvents"]):
        missing = TRACE_EVENT_FIELDS - set(event)
        if missing:
            problems.append(f"{path}: event {i} lacks fields {sorted(missing)}")
            continue
        if event["ph"] != "X":
            problems.append(f"{path}: event {i} is not a complete event (ph=X)")
        if not _number(event["ts"]) or not _number(event["dur"]) or event["dur"] < 0:
            problems.append(f"{path}: event {i} has invalid ts/dur")
    return problems


def check_artifact(path: Path) -> list[str]:
    """Dispatch: traces, BENCH artifacts by ``kind``, else metrics."""
    if not path.is_file():
        return [f"{path}: no such file"]
    if path.suffix == ".jsonl":
        return check_trace(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(payload, dict) and "traceEvents" in payload:
        return check_trace(path)
    kind = artifact_kind(payload)
    if kind is None:
        return check_metrics(path)
    check, _ = ARTIFACT_KINDS[kind]
    return [f"{path}: {problem}" for problem in check(payload)]


def main(argv: list[str] | None = None) -> int:
    paths = [Path(arg) for arg in (argv if argv is not None else sys.argv[1:])]
    if not paths:
        print("usage: check_obs_artifacts.py METRICS_OR_TRACE_FILE [...]")
        return 2
    problems: list[str] = []
    for path in paths:
        problems.extend(check_artifact(path))
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} observability artifact violation(s)")
        return 1
    print(f"observability artifacts: clean ({len(paths)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
