"""Runs one workload: set-up, measured phase, checks, metrics and envelope.

A *pass* generates the inputs from the seed, repeats the workload's round a
number of times fixed by ``--seconds`` (see :func:`rounds_for`), sets the
program up a fixed number of times spread over the rounds (see
:class:`SetUps`) and checks the outputs.  An untraced run is one pass;
a traced run is an untraced pass followed by a traced one, and the
difference between their measured rounds is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from tracing import LayerTracer, NullTracer, layer_times, standard_calls

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
#: CPUs this process may use, read before :func:`pin_to_one_cpu` narrows them.
NPROC = len(os.sched_getaffinity(0))

#: The traced phase must attribute at least this share of its wall time to
#: layer spans; a larger unexplained gap fails the run.
MIN_COVERAGE = 0.90
#: Every workload repeats its round at least this often, so each unit of
#: work has several timings to take its best from.
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

SERVE_KINDS = ("fetch", "knn", "slice")
CACHE_KINDS = ("step", "mass", "dest", "attr", "column", "row")

CALLS = standard_calls()
#: The program's own extension stages, read as core-layer metrics.
STAGE_METRIC_OF = {
    "service.embed.prepare": "core.prepare_s",
    "service.embed.assemble": "core.assemble_s",
    "service.embed.solve": "core.solve_s",
}
#: Span name -> per-layer metric charged with that span's self time.
SELF_METRIC_OF = {
    **{c.span: c.metric for c in CALLS if c.metric and not c.setup},
    **STAGE_METRIC_OF,
}
SETUP_METRIC_OF = {c.span: c.metric for c in CALLS if c.setup}
#: The driver's outermost calls: their self time is whatever the layers
#: inside them leave unexplained, so it does not count as covered.
RESIDUAL_SPANS = frozenset({"service.append", "service.apply", "core.node2vec_fit"})
#: Spans whose self time counts as covered: every traced layer call but the
#: residual ones, and the program's own stages inside ``EmbeddingService.apply``
#: and the engine.
COVERED_SPANS = (
    frozenset(c.span for c in CALLS if not c.setup)
    | frozenset(STAGE_METRIC_OF)
    | frozenset({
        "service.apply.decode",
        "service.apply.engine_sync",
        "service.apply.embed",
        "service.apply.store_commit",
        "engine.compact",
    })
) - RESIDUAL_SPANS


def _per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SELF_METRIC_OF.values()}
    units.update({name: "s" for name in SETUP_METRIC_OF.values()})
    units["engine.attribute_rows_calls"] = "count"
    units["serve.probe_s"] = "s"
    for kind in SERVE_KINDS:
        units[f"serve.client_s.{kind}"] = "s"
        units[f"serve.backend_s.{kind}"] = "s"
        units[f"serve.transport_s.{kind}"] = "s"
        units[f"serve.response_bytes.{kind}"] = "bytes"
    for kind in CACHE_KINDS:
        units[f"engine.cache_hits.{kind}"] = "count"
        units[f"engine.cache_misses.{kind}"] = "count"
    for kind in ("context", "newdist"):
        units[f"core.cache_hits.{kind}"] = "count"
        units[f"core.cache_misses.{kind}"] = "count"
    for op in ("insert", "delete", "update"):
        units[f"service.ops.{op}"] = "count"
    units["core.facts_embedded"] = "count"
    units["graph.walk_steps"] = "count"
    units["nn.pairs"] = "count"
    units["obs.coverage"] = "ratio"
    units["obs.tracing_overhead"] = "ratio"
    return units


PER_LAYER = _per_layer_units()

#: Telemetry counters of the program read as per-layer counts.
COUNTER_METRICS = {
    **{f"engine.cache_hits.{k}": f"engine.cache.{k}.hits" for k in CACHE_KINDS},
    **{f"engine.cache_misses.{k}": f"engine.cache.{k}.misses" for k in CACHE_KINDS},
    **{f"core.cache_hits.{k}": f"pipeline.cache.{k}.hits" for k in ("context", "newdist")},
    **{f"core.cache_misses.{k}": f"pipeline.cache.{k}.misses" for k in ("context", "newdist")},
    "service.ops.insert": "service.facts.inserted",
    "service.ops.delete": "service.facts.deleted",
    "service.ops.update": "service.facts.updated",
    "core.facts_embedded": "service.facts.embedded",
}


def rounds_for(seconds: float, round_s: float) -> int:
    """Rounds a run makes: as many nominal rounds as fit in ``seconds``.

    ``round_s`` is a workload's round time as measured once, a constant, so
    the count depends on ``--seconds`` only: every version of the program
    is measured as the best of the same number of rounds.
    """
    return max(MIN_ROUNDS, int(seconds / round_s))


def pin_to_one_cpu() -> dict:
    """Run this process, and the threads it starts later, on one CPU.

    The HTTP workloads hand every request from the client thread to the
    server's handler thread and back.  Across two virtual CPUs each hand-off
    is a cross-CPU wake-up whose cost swings with the host's load; on one
    CPU it is a plain thread switch.  The driver is sequential, so one CPU
    costs no parallelism.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return {"nproc": NPROC, "pinned_cpu": cpu}


@dataclass
class Measurement:
    """What a workload's measured phase produced.

    A workload repeats one round of identical work (same seeded inputs, a
    fresh set-up where the round mutates state) a fixed number of times.
    The host's speed swings by tens of percent over seconds as other tenants
    come and go, so the end-to-end metrics use each unit's fastest time
    across the rounds:
    latency percentiles over those best times, and throughput as one
    round's work over their sum.  The pooled times go to the envelope.
    """

    units: int
    """Units of work done over all rounds (feed batches, requests or fits)."""
    windows: list[tuple[float, float]]
    """``time.perf_counter`` interval of each round."""
    attempted: int
    failed: int
    work_per_round: float
    """Feed ops, requests or graph nodes one round processes."""
    rounds: list[list[float]]
    """Per round, the time of every unit, in the same unit order."""
    tail_percentile: float
    latency_units: list[int] | None = None
    """Units whose times are latency samples (all when None)."""
    counts: dict[str, float] = field(default_factory=dict)
    """Per-layer counts the workload measured itself (totals, not per unit)."""
    response_bytes: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.windows)

    @property
    def best_times(self) -> list[float]:
        """Each unit's fastest time across the rounds."""
        return [min(values) for values in zip(*self.rounds)]

    @property
    def best_latencies(self) -> list[float]:
        best = self.best_times
        if self.latency_units is None:
            return best
        return [best[i] for i in self.latency_units]

    @property
    def throughput_per_s(self) -> float:
        return self.work_per_round / sum(self.best_times)


class ThreadCensus:
    """Threads and server connections the run actually opened.

    The acceptor thread of the HTTP server only waits in ``select``; busy
    threads are the main thread plus one handler thread per accepted
    connection.  Workloads sample at every unit boundary they choose, and
    call :meth:`settle` after closing a server so its handler has ended
    before the next one starts.
    """

    ACCEPTOR = "repro-serve-http"

    def __init__(self) -> None:
        self.main = threading.get_ident()
        self.handlers: set[threading.Thread] = set()
        self.max_handlers = 0
        self.max_total = 1

    def _handlers(self) -> list[threading.Thread]:
        return [
            t for t in threading.enumerate()
            if t.ident != self.main and t.name != self.ACCEPTOR
        ]

    def sample(self) -> None:
        handlers = self._handlers()
        self.handlers.update(handlers)
        self.max_handlers = max(self.max_handlers, len(handlers))
        self.max_total = max(self.max_total, threading.active_count())

    def settle(self, timeout: float = 5.0) -> None:
        for thread in self._handlers():
            thread.join(timeout)

    def report(self) -> dict:
        busy = 1 + self.max_handlers
        return {
            "busy_threads_max": busy,
            "threads_max_including_acceptor": self.max_total,
            "open_connections_max": self.max_handlers,
            "connections_opened": len(self.handlers),
            "nproc": NPROC,
            "within_budget": busy <= NPROC and self.max_handlers <= 1,
        }


def tail_summary(samples: list[float], percentile: float) -> dict:
    """The tail value at ``percentile`` with its sample accounting.

    With ten samples or fewer no percentile can have ten beyond it, and the
    slowest sample is reported instead.
    """
    values = np.asarray(samples, dtype=np.float64)
    if values.size <= 10:
        percentile = 100.0
    value = float(np.percentile(values, percentile))
    return {
        "percentile": percentile,
        "value": value,
        "samples": int(values.size),
        "beyond": int(np.count_nonzero(values > value)),
    }


# ------------------------------------------------------------------ passes


def _load(workload: str):
    if workload == "churn_ingest":
        import churn_ingest as module
    elif workload == "http_reads":
        import http_reads as module
    else:
        import node2vec_fit as module
    return module


class SetUps:
    """Timed set-ups from fresh inputs, spread evenly over a pass.

    ``reps`` set-ups are split over the gap before the first round and the
    gaps after every round, so the fastest is taken from the whole run
    rather than from one moment of the host.  Every gap ends with a garbage
    collection, so each round starts from the same heap.  Telemetry counts
    made while setting up are kept out of the measured counts.
    """

    def __init__(self, work, telemetry, reps: int, rounds: int):
        self.work = work
        self.telemetry = telemetry
        self.reps = reps
        self.rounds = rounds
        self.gap = 0
        self.windows: list[tuple[float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _due(self) -> int:
        """Set-ups owed once the current gap ends."""
        return max(1, round(self.reps * (self.gap + 1) / (self.rounds + 1)))

    def fresh(self):
        """One timed set-up; the caller owns (and tears down) what it returns."""
        before = _counters(self.telemetry)
        fresh = self.work.fresh_input()
        start = time.perf_counter()
        state = self.work.setup(fresh, self.telemetry)
        self.windows.append((start, time.perf_counter()))
        for name, value in _counters(self.telemetry).items():
            self.counts[name] += value - before.get(name, 0)
        return state

    def first(self):
        """The first gap's set-ups; the last one is the state to measure."""
        state = self.fresh()
        while len(self.windows) < self._due():
            self.work.teardown(state)
            state = self.fresh()
        gc.collect()
        return state

    def between_rounds(self) -> None:
        """Called by a workload after each round."""
        self.gap += 1
        while len(self.windows) < self._due():
            self.work.teardown(self.fresh())
        gc.collect()


def _one_pass(module, seed: int, rounds: int, tracer, sizes) -> dict:
    work = module.Workload(seed, sizes)
    telemetry = tracer.telemetry
    setups = SetUps(work, telemetry, module.SETUP_REPS, rounds)
    counters_before = _counters(telemetry)
    state = setups.first()
    census = ThreadCensus()
    try:
        # a workload that needs a fresh set-up per round hands back the last one
        measurement, state = work.measure(state, rounds, tracer, census, setups)
        counters_after = _counters(telemetry)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if isinstance(tracer, LayerTracer):
            tracer.__exit__(None, None, None)  # checks run unwrapped
        checks = work.verify(state, measurement)
        census.sample()
    finally:
        work.teardown(state)
    counters = {
        name: counters_after.get(name, 0) - counters_before.get(name, 0) - setups.counts[name]
        for name in set(counters_after) | set(counters_before)
    }
    return {
        "unit": work.unit,
        "setup_seconds": [end - start for start, end in setups.windows],
        "setup_windows": setups.windows,
        "measurement": measurement,
        "counters": counters,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "threads": census.report(),
    }


def _counters(telemetry) -> dict[str, float]:
    if telemetry is None:
        return {}
    return dict(telemetry.metrics.snapshot()["counters"])


def _end_to_end(result: dict) -> dict[str, float]:
    m: Measurement = result["measurement"]
    best = m.best_latencies
    return {
        "setup_s": min(result["setup_seconds"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "throughput_per_s": m.throughput_per_s,
        "latency_p50_ms": statistics.median(best) * 1000.0,
        "latency_tail_ms": tail_summary(best, m.tail_percentile)["value"] * 1000.0,
    }


def _per_layer(module, traced: dict, tracer: LayerTracer, untraced: dict) -> tuple[dict, dict]:
    m: Measurement = traced["measurement"]
    spans = tracer.spans()
    main = threading.get_ident()
    totals, selfs, chosen = layer_times(spans, main, m.windows, tracer.origin, SELF_METRIC_OF)
    covered = sum(selfs[s.span_id] for s in chosen if s.name in COVERED_SPANS)
    units = max(m.units, 1)
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, seconds in totals.items():
        if name in metrics:
            metrics[name] = seconds / units
    # set-up layers, per set-up
    setup_totals, _, _ = layer_times(
        spans, main, traced["setup_windows"], tracer.origin, SETUP_METRIC_OF
    )
    for name in SETUP_METRIC_OF.values():
        metrics[name] = setup_totals.get(name, 0.0) / len(traced["setup_windows"])
    # serve calls, per call of each kind: inclusive client and backend time,
    # and the client's self time (everything but the backend) as transport
    for kind in SERVE_KINDS:
        client = [s for s in chosen if s.name == f"serve.client.{kind}"]
        backend = [s for s in chosen if s.name == f"serve.backend.{kind}"]
        if client:
            metrics[f"serve.client_s.{kind}"] = sum(s.duration for s in client) / len(client)
            metrics[f"serve.transport_s.{kind}"] = (
                sum(selfs[s.span_id] for s in client) / len(client)
            )
        if backend:
            metrics[f"serve.backend_s.{kind}"] = sum(s.duration for s in backend) / len(backend)
    for kind, size in m.response_bytes.items():
        metrics[f"serve.response_bytes.{kind}"] = size
    probe_span = getattr(module, "PROBE_SPAN", None)
    probes = [s for s in chosen if s.name == probe_span]
    if probes:
        metrics["serve.probe_s"] = sum(s.duration for s in probes) / len(probes)
    metrics["engine.attribute_rows_calls"] = (
        sum(1 for s in chosen if s.name == "engine.attribute_rows") / units
    )
    for name, counter in COUNTER_METRICS.items():
        metrics[name] = traced["counters"].get(counter, 0) / units
    for name, total in m.counts.items():
        metrics[name] = total / units
    coverage = covered / m.wall_s if m.wall_s > 0 else 0.0
    untraced_m: Measurement = untraced["measurement"]
    untraced_per_unit = untraced_m.wall_s / max(untraced_m.units, 1)
    overhead = (m.wall_s / units) / untraced_per_unit - 1.0 if untraced_per_unit > 0 else 0.0
    metrics["obs.coverage"] = coverage
    metrics["obs.tracing_overhead"] = overhead
    report = {
        "spans_in_phase": len(chosen),
        "covered_s": covered,
        "phase_s": m.wall_s,
        "self_s_per_unit": {name: seconds / units for name, seconds in sorted(totals.items())},
        "coverage": coverage,
        "coverage_ok": coverage >= MIN_COVERAGE,
        "tracing_overhead": overhead,
        "untraced_phase_s": untraced_m.wall_s,
        "missing_calls": tracer.missing,
    }
    return metrics, report


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, sizes=None, calls=None
) -> dict:
    """One benchmark run; returns the result line plus its ``envelope``.

    ``calls`` replaces the traced calls (the self-tests hide a layer).
    """
    module = _load(workload)
    sizes = sizes or module.Sizes()
    placement = pin_to_one_cpu()
    rounds = rounds_for(seconds, module.ROUND_S)
    untraced = _one_pass(module, seed, rounds, NullTracer(), sizes)
    checks = dict(untraced["checks"])
    checks["threads_and_connections_within_budget"] = untraced["threads"]["within_budget"]
    passes = [untraced]
    trace_report = None
    if trace:
        tracer = LayerTracer(CALLS if calls is None else calls, keep=getattr(module, "KEEP", ()))
        with tracer:
            traced = _one_pass(module, seed, rounds, tracer, sizes)
        metrics, trace_report = _per_layer(module, traced, tracer, untraced)
        units = PER_LAYER
        checks.update({f"traced.{k}": v for k, v in traced["checks"].items()})
        checks["traced.coverage_at_least_0.9"] = trace_report["coverage_ok"]
        checks["traced.all_calls_installed"] = not tracer.missing
        checks["traced.threads_and_connections_within_budget"] = traced["threads"]["within_budget"]
        _write_spans(workload, seed, tracer)
        passes.append(traced)
        result_pass = traced
    else:
        metrics = _end_to_end(untraced)
        units = END_TO_END
        result_pass = untraced
    correct = all(bool(v) for v in checks.values())
    envelope = _envelope(workload, seed, seconds, trace, sizes, result_pass, checks, trace_report)
    envelope["placement"] = placement
    return {
        "correct": correct,
        "attempted": sum(int(p["measurement"].attempted) for p in passes),
        "failed": sum(int(p["measurement"].failed) for p in passes),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
        "envelope": envelope,
    }


# ---------------------------------------------------------------- envelope


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _host() -> dict:
    import scipy

    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas")
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _envelope(workload, seed, seconds, trace, sizes, result, checks, trace_report):
    m: Measurement = result["measurement"]
    best = m.best_latencies
    units = range(len(m.best_times)) if m.latency_units is None else m.latency_units
    pooled = [values[i] for values in m.rounds for i in units]
    samples = {
        "latency_p50_ms": f"{len(best)} units, best of {len(m.rounds)} rounds each",
        "latency_tail_ms": f"{len(best)} units, best of {len(m.rounds)} rounds each",
        "throughput_per_s": f"{len(m.best_times)} units, best of {len(m.rounds)} rounds each",
        "setup_s": f"fastest of {len(result['setup_seconds'])} set-ups",
    }
    return {
        "schema": "perfbench/1",
        "workload": workload,
        "unit": result["unit"],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "host": _host(),
        "sizes": asdict(sizes),
        "rounds": len(m.rounds),
        "units_done": m.units,
        "phase_s": m.wall_s,
        "setup_seconds": result["setup_seconds"],
        "samples": samples,
        "tail": tail_summary(best, m.tail_percentile),
        "round_walls_s": [end - start for start, end in m.windows],
        "pooled": {
            "p50": statistics.median(pooled),
            "tail": tail_summary(pooled, m.tail_percentile),
            "throughput_per_s": m.work_per_round * len(m.windows) / m.wall_s,
        },
        "attempted": m.attempted,
        "failed": m.failed,
        "threads": result["threads"],
        "checks": checks,
        "workload_info": m.info,
        "trace_report": trace_report,
    }


def write_artifacts(envelope: dict, result: dict) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{envelope['workload']}-seed{envelope['seed']}-trace{envelope['trace']}"
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps({"envelope": envelope, "result": result}, indent=1, sort_keys=True))
    return path


def _write_spans(workload: str, seed: int, tracer: LayerTracer) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.telemetry.tracer.export_jsonl(OUT_DIR / f"{workload}-seed{seed}.spans.jsonl")
