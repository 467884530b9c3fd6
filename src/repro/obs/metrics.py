"""Named counters, gauges and latency histograms behind one registry.

:class:`MetricsRegistry` is the single metrics surface of the repository:
every instrumented layer (engine, service, store, CLI drivers) get-or-
creates its instruments by name, so two components naming the same metric
share one instrument and a snapshot of the registry is a complete picture
of the process.

Three instrument kinds cover everything the serving/engine layers need:

* :class:`Counter` — monotonically increasing event count (cache hits,
  facts inserted, bytes copied);
* :class:`Gauge` — last-written value, possibly ``None`` for "unknown"
  (feed lag with no feed attached, tombstone ratio);
* :class:`Histogram` — a latency sample with streaming percentile
  summaries.  Count/sum/max are exact over every observation; percentiles
  are computed over a bounded reservoir (uniform reservoir sampling once
  the capacity is exceeded — exact below it) through
  :func:`latency_summary`, the repository's **single** percentile
  implementation.

A registry constructed with ``enabled=False`` (what
:data:`repro.obs.NULL_TELEMETRY` carries) hands out shared no-op
instruments and snapshots to empty dicts, so instrumented code pays one
no-op method call per event when observability is off.
"""

from __future__ import annotations

import random
import threading
from typing import Sequence

import numpy as np


#: The keys every :func:`latency_summary` carries: the stable latency
#: fields each ``BENCH_*.json`` latency block is checked for.
LATENCY_FIELDS = frozenset({
    "count", "mean_seconds", "p50_seconds", "p95_seconds",
    "p99_seconds", "max_seconds",
})


def missing_latency_fields(summary: object) -> list[str]:
    """The stable latency fields ``summary`` lacks (all, if not a dict)."""
    present = summary if isinstance(summary, dict) else ()
    return sorted(LATENCY_FIELDS.difference(present))


def latency_summary(seconds: Sequence[float]) -> dict[str, float]:
    """Summary statistics of a latency sample (count/p50/p95/p99/mean/max).

    The serving layer reports per-batch apply latencies through this helper
    so the streaming/churn benchmarks and the replay CLI emit identical
    fields.  Non-finite samples (NaN/inf — a clock that went backwards, a
    crashed probe) are dropped before aggregation so one bad sample cannot
    poison every percentile; ``count`` reports the samples actually used.
    An empty (or all-invalid) sample yields all zeros.
    """
    values = np.asarray(list(seconds), dtype=np.float64)
    values = values[np.isfinite(values)]
    if values.size == 0:
        return {
            "count": 0,
            "mean_seconds": 0.0,
            "p50_seconds": 0.0,
            "p95_seconds": 0.0,
            "p99_seconds": 0.0,
            "max_seconds": 0.0,
        }
    return {
        "count": int(values.size),
        "mean_seconds": float(values.mean()),
        "p50_seconds": float(np.percentile(values, 50)),
        "p95_seconds": float(np.percentile(values, 95)),
        "p99_seconds": float(np.percentile(values, 99)),
        "max_seconds": float(values.max()),
    }


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A last-write-wins value; ``None`` means "not known / not applicable"."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value: float | int | None = None

    def set(self, value: float | int | None) -> None:
        """Record the current value (``None`` resets to "unknown")."""
        self._value = value

    @property
    def value(self) -> float | int | None:
        return self._value


class Histogram:
    """A latency sample with exact totals and reservoir-backed percentiles.

    ``count``/``sum``/``max`` are exact over every observation.  Percentile
    summaries come from a bounded reservoir (default 8192 samples): below
    capacity the sample is complete and percentiles are exact (equal to
    ``np.percentile`` over everything observed); beyond it, uniform
    reservoir sampling keeps an unbiased subsample.  The reservoir RNG is
    seeded from the metric name, so two runs observing the same stream
    summarize identically.
    """

    __slots__ = ("name", "_capacity", "_samples", "_count", "_sum", "_max", "_rng", "_lock")

    def __init__(self, name: str, capacity: int = 8192):
        if capacity < 1:
            raise ValueError("histogram capacity must be at least 1")
        self.name = name
        self._capacity = int(capacity)
        self._samples: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._rng = random.Random(hash(name) & 0xFFFFFFFF)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (non-finite values are dropped)."""
        value = float(value)
        if not np.isfinite(value):
            return
        with self._lock:
            self._count += 1
            self._sum += value
            if value > self._max or self._count == 1:
                self._max = value
            if len(self._samples) < self._capacity:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < self._capacity:
                    self._samples[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def summary(self) -> dict[str, float]:
        """The :func:`latency_summary` fields with exact totals patched in.

        ``count``/``mean_seconds``/``max_seconds``/``sum_seconds`` are exact
        over the full stream; the percentiles are over the (possibly
        subsampled) reservoir, whose size ``sampled`` reports.
        """
        with self._lock:
            samples = list(self._samples)
            count, total, peak = self._count, self._sum, self._max
        result = latency_summary(samples)
        result["sampled"] = len(samples)
        if count:
            result["count"] = count
            result["mean_seconds"] = total / count
            result["max_seconds"] = peak
        result["sum_seconds"] = total
        return result


class _NullCounter:
    """Shared no-op counter of a disabled registry."""

    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge:
    """Shared no-op gauge of a disabled registry."""

    __slots__ = ()
    name = "null"
    value = None

    def set(self, value) -> None:
        pass


class _NullHistogram:
    """Shared no-op histogram of a disabled registry."""

    __slots__ = ()
    name = "null"
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> dict[str, float]:
        return latency_summary(())


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Get-or-create registry of named instruments, snapshotable as JSON.

    Instrument names are dotted paths (``engine.cache.dest.hits``); asking
    for an existing name returns the existing instrument, asking for it as
    a *different* kind raises.  A disabled registry returns shared no-op
    instruments and snapshots to empty sections.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind, *args):
        if not self.enabled:
            return {Counter: NULL_COUNTER, Gauge: NULL_GAUGE, Histogram: NULL_HISTOGRAM}[kind]
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = kind(name, *args)
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {name!r} is already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str, capacity: int = 8192) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._get(name, Histogram, capacity)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._instruments))

    def snapshot(self) -> dict:
        """A JSON-safe snapshot: ``{"counters": …, "gauges": …, "histograms": …}``."""
        with self._lock:
            instruments = dict(self._instruments)
        counters: dict[str, int] = {}
        gauges: dict[str, float | int | None] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.summary()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}
