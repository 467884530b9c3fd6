"""Metrics tests: instruments, percentile exactness, the shim, no-op path."""

import numpy as np
import pytest

from repro.obs import Histogram, MetricsRegistry, latency_summary
from repro.obs.metrics import NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.snapshot()["counters"] == {"c": 5}

    def test_same_name_is_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_gauge_last_write_wins_and_none_means_unknown(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        assert gauge.value is None
        gauge.set(3.5)
        gauge.set(1)
        assert gauge.value == 1
        gauge.set(None)
        assert registry.snapshot()["gauges"] == {"g": None}

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m")


class TestHistogram:
    def test_percentiles_match_numpy_below_capacity(self):
        histogram = Histogram("h")
        rng = np.random.default_rng(3)
        values = rng.exponential(0.01, size=500)
        for value in values:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 500
        assert summary["sampled"] == 500
        for q, key in ((50, "p50_seconds"), (95, "p95_seconds"), (99, "p99_seconds")):
            assert summary[key] == pytest.approx(float(np.percentile(values, q)))
        assert summary["mean_seconds"] == pytest.approx(values.mean())
        assert summary["max_seconds"] == pytest.approx(values.max())
        assert summary["sum_seconds"] == pytest.approx(values.sum())

    def test_totals_stay_exact_beyond_capacity(self):
        histogram = Histogram("h", capacity=64)
        values = np.linspace(0.001, 0.1, 1000)
        for value in values:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 1000
        assert summary["sampled"] == 64
        assert summary["max_seconds"] == pytest.approx(values.max())
        assert summary["sum_seconds"] == pytest.approx(values.sum())
        assert summary["mean_seconds"] == pytest.approx(values.mean())
        # the reservoir percentile is an estimate, but must stay in range
        assert values.min() <= summary["p50_seconds"] <= values.max()

    def test_reservoir_is_deterministic_per_name(self):
        a, b = Histogram("same", capacity=16), Histogram("same", capacity=16)
        for i in range(200):
            a.observe(i * 0.001)
            b.observe(i * 0.001)
        assert a.summary() == b.summary()

    def test_non_finite_observations_are_dropped(self):
        histogram = Histogram("h")
        histogram.observe(float("nan"))
        histogram.observe(float("inf"))
        histogram.observe(0.5)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["max_seconds"] == 0.5


class TestLatencySummary:
    def test_empty_is_all_zero(self):
        summary = latency_summary(())
        assert summary["count"] == 0
        assert summary["p99_seconds"] == 0.0

    def test_bench_field_names_are_stable(self):
        summary = latency_summary([0.1, 0.2])
        assert set(summary) == {
            "count", "mean_seconds", "p50_seconds", "p95_seconds",
            "p99_seconds", "max_seconds",
        }


class TestDisabledRegistry:
    def test_hands_out_shared_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c") is NULL_COUNTER
        assert registry.gauge("g") is NULL_GAUGE
        assert registry.histogram("h") is NULL_HISTOGRAM

    def test_null_instruments_record_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc(10)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(0.2)
        assert registry.names() == ()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
