"""Well-known-name summaries: stage breakdowns, cache ratios, payloads.

The tracer/metrics/profiler core is name-agnostic; this module knows the
names the instrumented layers actually use (see ``docs/OBSERVABILITY.md``)
and reshapes a :class:`~repro.obs.Telemetry` into the JSON blocks the
benchmarks, the ``--metrics-out`` file and ``BENCH_*.json`` reports embed:

* :func:`stage_breakdown` — the service's per-batch apply stages
  (decode → engine_sync → embed → store_commit) with inclusive/exclusive
  seconds and each stage's fraction of total apply wall time, plus
  ``coverage`` (how much of the apply time the stages account for — the
  regression guard asserts ≥ 0.9);
* :func:`cache_hit_ratios` — per-kind engine cache hit ratios from the
  ``engine.cache.<kind>.{hits,misses}`` counters;
* :func:`pipeline_breakdown` — the batched extension pipeline inside the
  embed stage (prepare → assemble → solve), with its share of the embed
  stage's inclusive time;
* :func:`serve_endpoint_latencies` — the serve tier's per-endpoint
  (``fetch``/``knn``/``slice``) latency summaries, staleness gauge and
  query count, embedded when a serving layer ran;
* :func:`observability_report` — both of the above;
* :func:`metrics_payload` — the full ``--metrics-out`` file content
  (registry snapshot + the derived blocks), validated by
  ``tools/check_obs_artifacts.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Telemetry

#: The engine cache kinds counted by :class:`~repro.engine.engine.WalkEngine`.
ENGINE_CACHE_KINDS = ("step", "mass", "attr")

#: The per-batch apply stages of :meth:`EmbeddingService.apply`.
SERVICE_STAGES = (
    "service.apply.decode",
    "service.apply.engine_sync",
    "service.apply.embed",
    "service.apply.store_commit",
)

#: The batched extension pipeline stages inside ``service.apply.embed``
#: (see :meth:`ForwardDynamicExtender.extend_batch`).
PIPELINE_STAGES = (
    "service.embed.prepare",
    "service.embed.assemble",
    "service.embed.solve",
)

#: The serve tier's query endpoints (see :class:`repro.serve.LocalBackend`).
SERVE_ENDPOINTS = ("fetch", "knn", "slice")


def stage_breakdown(
    telemetry: "Telemetry", total_apply_seconds: float | None = None
) -> dict:
    """Per-stage apply-time attribution from the profiler's accumulators.

    ``total_apply_seconds`` is the denominator for the fractions (the
    service's summed per-batch apply latencies); when omitted it falls back
    to the exact sum of the ``service.apply.seconds`` histogram.
    """
    report = telemetry.profiler.report()
    if total_apply_seconds is None:
        histograms = telemetry.metrics.snapshot()["histograms"]
        total_apply_seconds = histograms.get("service.apply.seconds", {}).get(
            "sum_seconds", 0.0
        )
    stages: dict[str, dict] = {}
    covered = 0.0
    for name in SERVICE_STAGES:
        totals = report.get(name)
        if totals is None:
            continue
        covered += totals["inclusive_seconds"]
        stages[name] = {
            **totals,
            "fraction_of_apply": (
                totals["inclusive_seconds"] / total_apply_seconds
                if total_apply_seconds > 0
                else 0.0
            ),
        }
    return {
        "stages": stages,
        "total_apply_seconds": float(total_apply_seconds),
        "coverage": (
            covered / total_apply_seconds if total_apply_seconds > 0 else 0.0
        ),
    }


def cache_hit_ratios(telemetry: "Telemetry") -> dict[str, dict]:
    """Hit/miss counts and ratio per engine cache kind (only kinds touched).

    Reads a snapshot rather than get-or-creating counters, so summarizing
    never plants zero-valued instruments into the registry.
    """
    counters = telemetry.metrics.snapshot()["counters"]
    ratios: dict[str, dict] = {}
    for kind in ENGINE_CACHE_KINDS:
        hits = counters.get(f"engine.cache.{kind}.hits", 0)
        misses = counters.get(f"engine.cache.{kind}.misses", 0)
        if hits + misses == 0:
            continue
        ratios[kind] = {
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / (hits + misses),
        }
    return ratios


def pipeline_breakdown(telemetry: "Telemetry") -> dict:
    """The batched embed pipeline: per-stage seconds inside the embed stage.

    ``coverage`` is the pipeline's share of the ``service.apply.embed``
    inclusive time — the regression guard asserts ≥ 0.9 whenever the
    recompute policy ran, i.e. the three stages account for (almost) all of
    the embed stage's wall time.
    """
    report = telemetry.profiler.report()
    stages: dict[str, dict] = {}
    covered = 0.0
    for name in PIPELINE_STAGES:
        totals = report.get(name)
        if totals is None:
            continue
        covered += totals["inclusive_seconds"]
        stages[name] = dict(totals)
    embed = report.get("service.apply.embed", {})
    embed_seconds = embed.get("inclusive_seconds", 0.0)
    return {
        "stages": stages,
        "embed_seconds": float(embed_seconds),
        "coverage": covered / embed_seconds if embed_seconds > 0 else 0.0,
    }


def serve_endpoint_latencies(telemetry: "Telemetry") -> dict:
    """The serve tier's per-endpoint latency summaries and staleness gauge.

    Reads the ``serve.<endpoint>.seconds`` histograms the
    :class:`~repro.serve.backend.LocalBackend` records per query, the
    ``serve.staleness_versions`` gauge (version lag of the last answered
    query behind the writer head) and the ``serve.queries`` counter.
    Returns ``{}`` when no serve-tier query was recorded, so payloads of
    runs without a serving layer stay unchanged.
    """
    snapshot = telemetry.metrics.snapshot()
    histograms = snapshot["histograms"]
    endpoints: dict[str, dict] = {}
    for endpoint in SERVE_ENDPOINTS:
        summary = histograms.get(f"serve.{endpoint}.seconds")
        if summary and summary.get("count"):
            endpoints[endpoint] = summary
    if not endpoints:
        return {}
    return {
        "endpoints": endpoints,
        "staleness_versions": snapshot["gauges"].get("serve.staleness_versions"),
        "queries": snapshot["counters"].get("serve.queries", 0),
    }


def observability_report(
    telemetry: "Telemetry", total_apply_seconds: float | None = None
) -> dict:
    """The ``observability`` block a streaming replay report embeds."""
    breakdown = stage_breakdown(telemetry, total_apply_seconds)
    report = {
        "stages": breakdown["stages"],
        "stage_coverage": breakdown["coverage"],
        "total_apply_seconds": breakdown["total_apply_seconds"],
        "cache_hit_ratios": cache_hit_ratios(telemetry),
    }
    pipeline = pipeline_breakdown(telemetry)
    if pipeline["stages"]:
        report["pipeline"] = pipeline
    return report


def metrics_payload(
    telemetry: "Telemetry", total_apply_seconds: float | None = None
) -> dict:
    """The full ``--metrics-out`` file: registry snapshot + derived blocks."""
    from repro import __version__

    payload = {"repro_version": __version__}
    payload.update(telemetry.metrics.snapshot())
    breakdown = stage_breakdown(telemetry, total_apply_seconds)
    payload["stages"] = breakdown["stages"]
    payload["stage_coverage"] = breakdown["coverage"]
    payload["cache_hit_ratios"] = cache_hit_ratios(telemetry)
    pipeline = pipeline_breakdown(telemetry)
    if pipeline["stages"]:
        payload["pipeline"] = pipeline
    serve = serve_endpoint_latencies(telemetry)
    if serve:
        payload["serve"] = serve
    return payload
