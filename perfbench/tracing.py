"""Layer spans recorded from the benchmark's side of each public call.

:class:`LayerTracer` replaces a list of public functions of the program with
wrappers that open one span per call on the program's own
:class:`repro.obs.Tracer`, so the benchmark's spans and the program's
existing stage spans (``service.embed.prepare`` and friends) land in one
tree.  Every span carries the workload ``unit`` (feed batch, request or fit
number) that the driving loop was on when it opened, which links the
server thread's spans of one request to the client span that waited for
them.  Nothing under ``src/`` is edited: the wrappers are installed on the
classes and modules at run time and removed again on exit.

:func:`layer_times` turns the recorded spans into per-layer self times: a
span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass


class NullTracer:
    """What the untraced pass uses: the loops set ``unit`` and nothing records."""

    unit = 0
    telemetry = None


@dataclass(frozen=True)
class Call:
    """One traced public call: where it lives and the span name it records.

    The span's self time is the per-layer metric ``span + "_s"``: per unit
    of work, or per set-up for a ``setup`` call.  Serve client and backend
    calls (``per_request``) have no metric of their own; they are timed per
    request kind instead.
    """

    owner: object
    attr: str
    span: str
    setup: bool = False
    per_request: bool = False

    @property
    def metric(self) -> str | None:
        return None if self.per_request else self.span + "_s"


def standard_calls() -> list[Call]:
    """Every layer boundary the benchmark times, across all workloads."""
    import repro.core.node2vec as node2vec_module
    from repro.core.forward import ForwardEmbedder
    from repro.core.forward_dynamic import ForwardDynamicExtender
    from repro.core.node2vec import Node2VecEmbedder
    from repro.db.database import Database
    from repro.engine import WalkEngine
    from repro.graph.db_graph import DatabaseGraph
    from repro.graph.node2vec_walks import Node2VecWalker
    from repro.nn.negative_sampling import UnigramNegativeSampler
    from repro.nn.skipgram import SkipGramModel
    from repro.serve.backend import LocalBackend
    from repro.serve.client import ServeClient
    from repro.serve.router import ReaderLease, SnapshotRouter
    from repro.service.feed import ChangeFeed
    from repro.service.service import EmbeddingService
    from repro.service.store import EmbeddingStore, StoreSnapshot

    calls = [
        # set-up
        Call(WalkEngine, "__init__", "engine.compile", setup=True),
        Call(ForwardEmbedder, "fit", "core.fit", setup=True),
        Call(EmbeddingService, "__init__", "service.init", setup=True),
        # write path
        Call(ChangeFeed, "append_ops", "service.append"),
        Call(EmbeddingService, "apply", "service.apply"),
        Call(Database, "reinsert", "db.mutate"),
        Call(Database, "delete", "db.mutate"),
        Call(Database, "update", "db.mutate"),
        Call(WalkEngine, "add_facts", "engine.sync"),
        Call(WalkEngine, "remove_facts", "engine.sync"),
        Call(WalkEngine, "update_facts", "engine.sync"),
        Call(WalkEngine, "refresh", "engine.sync"),
        Call(WalkEngine, "attribute_rows", "engine.attribute_rows"),
        Call(ForwardDynamicExtender, "extend_batch", "core.extend_batch"),
        Call(EmbeddingStore, "commit", "service.commit"),
        Call(EmbeddingStore, "prune", "service.commit"),
        # read path
        Call(SnapshotRouter, "latest", "serve.lease"),
        Call(SnapshotRouter, "lease", "serve.lease"),
        Call(ReaderLease, "release", "serve.lease"),
        Call(StoreSnapshot, "nearest", "index.search"),
        Call(StoreSnapshot, "fetch", "service.fetch"),
        Call(StoreSnapshot, "relation_slice", "service.slice"),
        # node2vec
        Call(Node2VecEmbedder, "fit", "core.node2vec_fit"),
        Call(DatabaseGraph, "__init__", "graph.build"),
        Call(Node2VecWalker, "generate", "graph.walks"),
        Call(node2vec_module, "build_training_pairs", "nn.pairs"),
        Call(SkipGramModel, "train_pairs", "nn.sgns"),
        Call(SkipGramModel, "loss", "nn.loss"),
        Call(UnigramNegativeSampler, "sample", "nn.negatives"),
    ]
    for kind in ("fetch", "knn", "slice"):
        calls.append(Call(ServeClient, kind, f"serve.client.{kind}", per_request=True))
        calls.append(Call(LocalBackend, kind, f"serve.backend.{kind}", per_request=True))
    return calls


class LayerTracer:
    """Installs span-recording wrappers for the duration of a ``with`` block.

    ``results`` keeps, per span name, the return values the caller asked to
    keep (``keep=``), so counts such as walk steps can be read after the
    timed region instead of inside it.
    """

    def __init__(self, calls: list[Call], keep: tuple[str, ...] = ()):
        from repro.obs import Telemetry, Tracer

        before = time.perf_counter()
        tracer = Tracer()
        after = time.perf_counter()
        # span starts are relative to the tracer's creation; bracket it
        self.origin = (before + after) / 2.0
        self.telemetry = Telemetry(tracer=tracer)
        self.unit = 0
        self.results: dict[str, list] = defaultdict(list)
        self._calls = calls
        self._keep = set(keep)
        self._saved: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []

    def _wrap(self, original, name: str):
        span = self.telemetry.tracer.span
        state = self
        if name in self._keep:
            kept = self.results[name]

            def traced(*args, **kwargs):
                with span(name, unit=state.unit):
                    result = original(*args, **kwargs)
                kept.append(result)
                return result
        else:

            def traced(*args, **kwargs):
                with span(name, unit=state.unit):
                    return original(*args, **kwargs)

        return functools.update_wrapper(traced, original)

    def __enter__(self) -> "LayerTracer":
        for call in self._calls:
            original = inspect.getattr_static(call.owner, call.attr, None)
            if not callable(original):
                # a renamed or removed call fails the traced run
                self.missing.append(f"{getattr(call.owner, '__name__', call.owner)}.{call.attr}")
                continue
            own = call.attr in vars(call.owner)
            self._saved.append((call.owner, call.attr, original, own))
            setattr(call.owner, call.attr, self._wrap(original, call.span))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def spans(self) -> list:
        return list(self.telemetry.tracer.spans())


def build_tree(spans: list, main_thread: int) -> dict[int, int | None]:
    """Parent of every span, linking other threads' roots across threads.

    A root span on another thread (the server's handler thread) is parented
    to the innermost main-thread span of the same unit that encloses it in
    time: the client call that was waiting for it.
    """
    parents = {s.span_id: s.parent_id for s in spans}
    main_by_unit: dict[object, list] = defaultdict(list)
    for s in spans:
        if s.thread_id == main_thread:
            main_by_unit[s.attrs.get("unit")].append(s)
    for s in spans:
        if s.thread_id == main_thread or s.parent_id is not None:
            continue
        enclosing = [
            m for m in main_by_unit.get(s.attrs.get("unit"), ())
            if m.start <= s.start and s.start + s.duration <= m.start + m.duration
        ]
        if enclosing:
            parents[s.span_id] = max(enclosing, key=lambda m: m.depth).span_id
    return parents


def self_times(spans: list, parents: dict[int, int | None]) -> dict[int, float]:
    """Span duration minus the duration of its (possibly cross-thread) children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = parents.get(s.span_id)
        if parent is not None:
            covered[parent] += s.duration
    return {s.span_id: max(0.0, s.duration - covered[s.span_id]) for s in spans}


def layer_times(
    spans: list,
    main_thread: int,
    windows: list[tuple[float, float]],
    origin: float,
    metric_of: dict[str, str],
) -> tuple[dict[str, float], dict[int, float], list]:
    """Per-metric self seconds of the spans whose root lies in one of ``windows``.

    A span whose name has no metric is charged to its nearest ancestor that
    has one (the program's own ``service.apply.*`` stages land on
    ``service.apply_s``), or kept under its own name when none has.
    Returns ``(seconds by metric, self seconds by span id, spans in the
    windows)``; the self seconds add up to the root spans' durations.
    """
    parents = build_tree(spans, main_thread)
    by_id = {s.span_id: s for s in spans}

    def root_of(span_id: int) -> int:
        while parents.get(span_id) is not None:
            span_id = parents[span_id]
        return span_id

    def inside(root) -> bool:
        # by its midpoint: ``origin`` is only known to within microseconds,
        # and a window may hug its root span that closely
        middle = origin + root.start + root.duration / 2.0
        return any(start <= middle <= end for start, end in windows)

    chosen = [s for s in spans if inside(by_id[root_of(s.span_id)])]
    selfs = self_times(chosen, parents)
    totals: dict[str, float] = defaultdict(float)
    for s in chosen:
        metric, span_id = None, s.span_id
        while span_id is not None and metric is None:
            metric = metric_of.get(by_id[span_id].name)
            span_id = parents.get(span_id)
        totals[metric or s.name] += selfs[s.span_id]
    return dict(totals), selfs, chosen
