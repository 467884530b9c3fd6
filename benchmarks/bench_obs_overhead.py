"""Instrumentation-overhead guard — enabled telemetry must stay under 5%.

The observability layer promises to be effectively free: when no telemetry
bundle is attached every instrument is a shared no-op singleton, and when
one *is* attached the per-batch cost is a handful of ``perf_counter`` calls
and counter increments.  This benchmark holds the layer to that promise by
replaying the same Mondial insert stream twice — once unobserved, once with
a full :class:`~repro.obs.Telemetry` bundle (tracer + metrics + stage
profiler) — and comparing steady-state throughput.

One discarded warm-up replay absorbs import and allocator cold-start, then
the two variants run in alternating pairs.  Each variant's cost is the sum
of its *per-batch minimum* apply latencies across ``N_REPEATS`` runs: real
overhead slows a batch in every run, scheduler noise slows different
batches in different runs, so the element-wise minimum isolates the former
far more tightly than comparing whole-run throughput (which on a busy CI
box varies by ±10% between identical runs).  The instrumented best-case
apply time may exceed the unobserved one by at most 5%, and the derived
facts/second figures are reported alongside.  Verification against the
one-shot extender is disabled — it costs far more than the replay itself
and is identical in both variants, which would dilute the very overhead
being measured.

The JSON report is written to ``benchmarks/results/BENCH_obs_overhead.json``
as kind ``obs_overhead`` (checked offline by ``tools/check_obs_artifacts.py``
through :func:`repro.obs.overhead.check_overhead`); a rendered summary goes
to ``benchmarks/results/obs_overhead.txt``.

Run under pytest (``python -m pytest benchmarks/bench_obs_overhead.py``)
or directly (``python benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import json

from repro import __version__
from repro.core import ForwardConfig
from repro.obs import Telemetry
from repro.obs.overhead import (
    MAX_OVERHEAD,
    OVERHEAD_KIND,
    OVERHEAD_SCHEMA_VERSION,
    check_overhead,
    render_overhead,
)
from repro.service.replay import run_streaming_replay

try:  # pytest-style result persistence when run by the harness
    from conftest import FULL_SCALE, RESULTS_DIR, write_result
except ImportError:  # direct script execution from the repository root
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import FULL_SCALE, RESULTS_DIR, write_result

SCALE = 0.4 if FULL_SCALE else 0.3
#: Half of the prediction facts streamed one partition batch per feed batch:
#: ~30 feed batches and ~1.5-2 s of apply per replay on a 2-vCPU host, so
#: each variant's best-case sum is over a second of compared work, not a
#: fraction of one that scheduler noise can swing by the whole budget.
INSERT_RATIO = 0.5
GROUP_SIZE = 1
N_REPEATS = 4

#: Tiny hyper-parameters: the guard measures serving-loop overhead, not
#: embedding quality, so training is kept as small as the pipeline allows.
TINY_CONFIG = ForwardConfig(
    dimension=16, n_samples=400, batch_size=1024, max_walk_length=2, epochs=4,
    learning_rate=0.02, n_new_samples=30,
)


def _replay(telemetry: Telemetry | None) -> dict:
    return run_streaming_replay(
        "mondial",
        insert_ratio=INSERT_RATIO,
        scale=SCALE,
        seed=0,
        policy="recompute",
        group_size=GROUP_SIZE,
        config=TINY_CONFIG,
        verify=False,
        telemetry=telemetry,
    )


def _best_case_apply(reports: list[dict]) -> float:
    """Sum of element-wise per-batch minimum latencies across runs."""
    per_batch = zip(*(r["apply_seconds"] for r in reports))
    return sum(min(latencies) for latencies in per_batch)


def _run() -> dict:
    _replay(None)  # warm-up, discarded
    baseline: list[dict] = []
    instrumented: list[dict] = []
    for _ in range(N_REPEATS):  # alternate so drift hits both variants alike
        baseline.append(_replay(None))
        instrumented.append(_replay(Telemetry()))
    base_seconds = _best_case_apply(baseline)
    inst_seconds = _best_case_apply(instrumented)
    overhead = inst_seconds / base_seconds - 1.0
    facts = baseline[0]["facts_inserted"]
    report = {
        "schema_version": OVERHEAD_SCHEMA_VERSION,
        "kind": OVERHEAD_KIND,
        "repro_version": __version__,
        "dataset": "mondial",
        "scale": SCALE,
        "insert_ratio": INSERT_RATIO,
        "group_size": GROUP_SIZE,
        "repeats": N_REPEATS,
        "feed_batches": baseline[0]["feed_batches"],
        "baseline_apply_seconds": base_seconds,
        "instrumented_apply_seconds": inst_seconds,
        "baseline_facts_per_second": facts / base_seconds,
        "instrumented_facts_per_second": facts / inst_seconds,
        "overhead_fraction": overhead,
        "max_overhead_fraction": MAX_OVERHEAD,
        "instrumented_stage_coverage": instrumented[-1]["observability"][
            "stage_coverage"
        ],
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_obs_overhead.json").write_text(json.dumps(report, indent=2))
    write_result("obs_overhead", render_overhead(report))
    return report


def test_telemetry_overhead_within_budget():
    report = _run()
    assert check_overhead(report) == []


if __name__ == "__main__":
    result = _run()
    print((RESULTS_DIR / "obs_overhead.txt").read_text())
    if check_overhead(result):
        raise SystemExit("\n".join(check_overhead(result)))
