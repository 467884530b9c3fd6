"""Thin helpers extracting the timing tables (Tables V and VI) from results.

The timing numbers are measured inside the static and dynamic experiment
drivers; these helpers only reshape them into per-table rows so the
benchmark harness and EXPERIMENTS.md generation stay declarative.
Latency percentiles live in :func:`repro.obs.metrics.latency_summary`.
"""

from __future__ import annotations

from typing import Sequence

from repro.evaluation.dynamic_experiment import DynamicResult
from repro.evaluation.static_experiment import StaticResult

__all__ = [
    "static_timing_rows",
    "dynamic_timing_rows",
]


def static_timing_rows(results: Sequence[StaticResult]) -> list[dict]:
    """Table V rows: wall-clock seconds to compute the static embedding."""
    return [
        {
            "dataset": result.dataset,
            "method": result.method,
            "seconds": result.train_seconds,
        }
        for result in results
        if result.method in ("forward", "node2vec")
    ]


def dynamic_timing_rows(results: Sequence[DynamicResult]) -> list[dict]:
    """Table VI rows: average seconds to embed one newly arrived tuple."""
    return [
        {
            "dataset": result.dataset,
            "method": result.method,
            "mode": result.mode,
            "seconds_per_new_tuple": result.seconds_per_new_tuple_mean,
        }
        for result in results
    ]
