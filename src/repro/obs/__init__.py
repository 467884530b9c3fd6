"""End-to-end observability: tracing, metrics and stage profiling.

Layer: ``obs`` (stdlib + numpy only; imported by ``engine``, ``service``
and the CLI, imports nothing from them).

One :class:`Telemetry` object bundles the three instruments every layer
shares:

* :class:`~repro.obs.tracer.Tracer` — nested spans on monotonic clocks,
  exportable as JSONL or Chrome ``chrome://tracing`` trace-event JSON;
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters / gauges /
  latency histograms with streaming percentile summaries
  (:func:`~repro.obs.metrics.latency_summary` lives here — the single
  percentile implementation of the repository);
* :class:`~repro.obs.profiler.StageProfiler` — accumulated inclusive /
  exclusive wall time per stage.

The default everywhere is :data:`NULL_TELEMETRY` — a disabled bundle whose
spans, instruments and stages are shared no-op singletons — so the
instrumented hot paths cost one no-op method call per event until a caller
opts in by passing ``Telemetry()`` (the CLI does when ``--trace`` /
``--metrics-out`` is given; the benchmarks always do).  Span taxonomy and
metric names are documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_FIELDS,
    MetricsRegistry,
    latency_summary,
    missing_latency_fields,
)
from repro.obs.profiler import StageProfiler
from repro.obs.report import (
    ENGINE_CACHE_KINDS,
    PIPELINE_STAGES,
    SERVE_ENDPOINTS,
    SERVICE_STAGES,
    cache_hit_ratios,
    metrics_payload,
    observability_report,
    pipeline_breakdown,
    serve_endpoint_latencies,
    stage_breakdown,
)
from repro.obs.tracer import SpanRecord, Tracer, load_jsonl

__all__ = [
    "Counter",
    "ENGINE_CACHE_KINDS",
    "Gauge",
    "Histogram",
    "LATENCY_FIELDS",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "PIPELINE_STAGES",
    "SERVE_ENDPOINTS",
    "SERVICE_STAGES",
    "SpanRecord",
    "StageProfiler",
    "Telemetry",
    "Tracer",
    "cache_hit_ratios",
    "latency_summary",
    "load_jsonl",
    "metrics_payload",
    "missing_latency_fields",
    "observability_report",
    "pipeline_breakdown",
    "serve_endpoint_latencies",
    "stage_breakdown",
]


class _NullStageSpan:
    """Shared no-op combined stage of :data:`NULL_TELEMETRY`."""

    __slots__ = ()

    def __enter__(self) -> "_NullStageSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_STAGE_SPAN = _NullStageSpan()


class _StageSpan:
    """One combined activation: tracer span + profiler stage + histogram.

    The service's apply stages use this so one ``with`` statement feeds all
    three instruments consistently (same name, same clock interval).
    """

    __slots__ = ("_span", "_stage", "_histogram", "_start")

    def __init__(self, span, stage, histogram):
        self._span = span
        self._stage = stage
        self._histogram = histogram

    def __enter__(self) -> "_StageSpan":
        self._span.__enter__()
        self._stage.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._histogram.observe(time.perf_counter() - self._start)
        self._stage.__exit__(*exc)
        self._span.__exit__(*exc)
        return False


class Telemetry:
    """The tracer + metrics + profiler bundle instrumented layers share.

    ``Telemetry()`` is fully enabled; ``Telemetry(enabled=False)`` (or the
    shared :data:`NULL_TELEMETRY`) is the zero-cost default.  Individual
    components can be injected for tests.
    """

    def __init__(
        self,
        enabled: bool = True,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: StageProfiler | None = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer(enabled)
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled)
        self.profiler = profiler if profiler is not None else StageProfiler(enabled)

    @property
    def enabled(self) -> bool:
        """True when any component records (the no-op bundle is all-off)."""
        return self.tracer.enabled or self.metrics.enabled or self.profiler.enabled

    def span(self, name: str, **attrs):
        """Shorthand for ``telemetry.tracer.span(name, **attrs)``."""
        return self.tracer.span(name, **attrs)

    def stage(self, name: str):
        """A combined stage: one span, one profiler stage, one histogram.

        The histogram is named ``<name>.seconds``.  Disabled bundles return
        a shared no-op context manager.
        """
        if not self.enabled:
            return _NULL_STAGE_SPAN
        return _StageSpan(
            self.tracer.span(name),
            self.profiler.stage(name),
            self.metrics.histogram(f"{name}.seconds"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Telemetry(enabled={self.enabled})"


NULL_TELEMETRY = Telemetry(enabled=False)
"""The process-wide disabled bundle every instrumented layer defaults to."""
