"""Concurrent serving tier: many pinned readers, one writer, one store.

This package turns the versioned :class:`~repro.service.store.EmbeddingStore`
into a query tier with an explicit consistency model:

* :mod:`repro.serve.router` — :class:`SnapshotRouter` hands readers pinned,
  refcounted snapshot leases (:class:`ReaderLease`) with a retention window
  and a GC hook, so pruning/compaction never invalidates a live reader and
  unpinned readers observe versions monotonically.
* :mod:`repro.serve.backend` — :class:`LocalBackend`, the shared query core
  (fetch / kNN / relation slice / pin / release) instrumented with
  per-endpoint latency histograms and a staleness gauge.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — an HTTP
  front end (:class:`EmbeddingServer`) and its matching
  :class:`ServeClient`, response-identical to the in-process backend;
  :mod:`repro.serve.wire` is the HTTP framing and the answer frames
  (JSON head, raw array bytes) both ends share.
* :mod:`repro.serve.loadgen` — the load generator behind
  ``python -m repro bench load``: zipfian-skewed concurrent clients over
  both transports, pinned bit-identity verification while a writer churns,
  and a checked ``BENCH_load.json`` report.

See ``docs/SERVING.md`` ("Concurrent serving & consistency model").
"""

from repro.serve.backend import LocalBackend
from repro.serve.client import ServeClient, ServeError
from repro.serve.loadgen import (
    LOAD_KIND,
    LOAD_SCHEMA_VERSION,
    LoadProfile,
    check_load,
    render_load,
    run_load_test,
)
from repro.serve.router import ReaderLease, SnapshotRouter
from repro.serve.server import EmbeddingServer

__all__ = [
    "LOAD_KIND",
    "LOAD_SCHEMA_VERSION",
    "EmbeddingServer",
    "LoadProfile",
    "LocalBackend",
    "ReaderLease",
    "ServeClient",
    "ServeError",
    "SnapshotRouter",
    "check_load",
    "render_load",
    "run_load_test",
]
