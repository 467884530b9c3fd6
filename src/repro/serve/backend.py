"""The serve tier's query core: fetch/kNN/slice against routed snapshots.

:class:`LocalBackend` is the one implementation of the serving protocol;
the HTTP front end (:mod:`repro.serve.server`) and the in-process load
generator (:mod:`repro.serve.loadgen`) both call it, so a query costs the
same whichever transport carried it.  Every response is a JSON-safe dict
that names the ``version`` that answered, the writer's ``head_version``
and the resulting ``staleness`` (their difference), making the consistency
model observable per query.  ``fetch`` and ``slice`` hand the HTTP edge
their ``fact_ids``/``vectors`` as arrays when it asks (``arrays=True``),
since it sends the arrays' bytes, not lists.

Queries default to the router's latest committed version; passing
``version=`` reads a pinned/retained one instead (time travel).  ``pin``/
``release`` expose the router's leases to transports whose clients cannot
hold Python objects: a pin is keyed by its version number and refcounted
by the store underneath.

Observability: per-endpoint latency histograms ``serve.fetch.seconds``,
``serve.knn.seconds`` and ``serve.slice.seconds``, a ``serve.staleness_versions``
gauge updated on every query, and a ``serve.queries`` counter.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.obs import NULL_TELEMETRY, Telemetry
from repro.serve.router import ReaderLease, SnapshotRouter
from repro.service.store import StoreSnapshot


class LocalBackend:
    """Answers serving queries from snapshots handed out by a router.

    Thread-safe: any number of threads may query concurrently with the
    single writer committing through the underlying store.
    """

    def __init__(self, router: SnapshotRouter, *, telemetry: Telemetry | None = None):
        self.router = router
        self._pins: dict[int, list[ReaderLease]] = {}
        self._pins_lock = threading.Lock()
        self.set_telemetry(telemetry)

    def set_telemetry(self, telemetry: Telemetry | None) -> None:
        """Attach (or detach, with None) a telemetry bundle."""
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        metrics = self._telemetry.metrics
        self._h_fetch = metrics.histogram("serve.fetch.seconds")
        self._h_knn = metrics.histogram("serve.knn.seconds")
        self._h_slice = metrics.histogram("serve.slice.seconds")
        self._g_staleness = metrics.gauge("serve.staleness_versions")
        self._c_queries = metrics.counter("serve.queries")

    @property
    def telemetry(self) -> Telemetry:
        """The attached bundle; the HTTP edge counts its refusals on it."""
        return self._telemetry

    # ----------------------------------------------------------- resolving

    def _resolve(self, version: int | None) -> tuple[StoreSnapshot, int, int]:
        """``(snapshot, head_version, staleness)`` for one query."""
        head_version = self.router.head_version()
        if version is None:
            snapshot = self.router.latest()
        else:
            snapshot = self.router.store.snapshot(int(version))
        staleness = max(0, head_version - snapshot.version)
        self._g_staleness.set(staleness)
        return snapshot, max(head_version, snapshot.version), staleness

    def _meta(self, snapshot: StoreSnapshot, head_version: int, staleness: int) -> dict:
        return {
            "version": snapshot.version,
            "head_version": head_version,
            "staleness": staleness,
        }

    # ------------------------------------------------------------- queries

    def fetch(
        self, fact_ids: list[int], version: int | None = None, *, arrays: bool = False
    ) -> dict:
        """Batched fetch-by-fact-id; KeyError on unknown/deleted facts.

        ``arrays=True`` leaves ``fact_ids`` and ``vectors`` as the
        snapshot's int64/float64 arrays (the HTTP edge sends their bytes).
        """
        started = time.perf_counter()
        snapshot, head, staleness = self._resolve(version)
        ids = [int(fid) for fid in fact_ids]
        vectors = snapshot.fetch(ids)
        response = self._meta(snapshot, head, staleness)
        if arrays:
            response["fact_ids"] = np.asarray(ids, dtype=np.int64)
            response["vectors"] = vectors
        else:
            response["fact_ids"] = ids
            response["vectors"] = vectors.tolist()
        self._c_queries.inc()
        self._h_fetch.observe(time.perf_counter() - started)
        return response

    def knn(
        self,
        query: int | list[float],
        k: int = 5,
        relation: str | None = None,
        version: int | None = None,
        index: str | None = None,
        nprobe: int | None = None,
    ) -> dict:
        """Top-``k`` cosine neighbours of a stored fact id or a raw vector.

        ``index`` picks the answering index per query (``"exact"`` default,
        bit-identical to the pre-index results; ``"ivf"`` when the store
        maintains one) and ``nprobe`` overrides the ANN probe width; an
        index the snapshot cannot answer raises ValueError (HTTP 400).
        """
        started = time.perf_counter()
        snapshot, head, staleness = self._resolve(version)
        if isinstance(query, (list, tuple)):
            query = np.asarray(query, dtype=np.float64)
        elif not isinstance(query, np.ndarray):
            query = int(query)
        neighbors = snapshot.nearest(
            query, k=int(k), relation=relation, index=index,
            nprobe=None if nprobe is None else int(nprobe),
        )
        response = self._meta(snapshot, head, staleness)
        response["index"] = index if index is not None else "exact"
        response["neighbors"] = [[fid, score] for fid, score in neighbors]
        self._c_queries.inc()
        self._h_knn.observe(time.perf_counter() - started)
        return response

    def slice(
        self, relation: str, version: int | None = None, *, arrays: bool = False
    ) -> dict:
        """All live facts of one relation: ids and vectors (arrays as in :meth:`fetch`)."""
        started = time.perf_counter()
        snapshot, head, staleness = self._resolve(version)
        fact_ids, vectors = snapshot.relation_slice(relation)
        response = self._meta(snapshot, head, staleness)
        response["relation"] = relation
        if arrays:
            response["fact_ids"], response["vectors"] = fact_ids, vectors
        else:
            response["fact_ids"], response["vectors"] = fact_ids.tolist(), vectors.tolist()
        self._c_queries.inc()
        self._h_slice.observe(time.perf_counter() - started)
        return response

    # ------------------------------------------------------------- pinning

    def pin(self, version: int | None = None) -> dict:
        """Take a lease on ``version`` (head when None), keyed by version.

        Repeated pins of the same version stack; each must be released
        once.  Returns the pinned version and current head.
        """
        lease = self.router.lease(version)
        with self._pins_lock:
            self._pins.setdefault(lease.version, []).append(lease)
        return {
            "version": lease.version,
            "head_version": self.router.head_version(),
            "staleness": lease.staleness(),
        }

    def release(self, version: int) -> dict:
        """Release one backend-held lease on ``version`` (KeyError if none)."""
        with self._pins_lock:
            stack = self._pins[int(version)]
            lease = stack.pop()
            if not stack:
                del self._pins[int(version)]
        lease.release()
        return {"version": int(version), "released": True}

    def release_all(self) -> int:
        """Drop every backend-held lease (shutdown hook); returns #released."""
        with self._pins_lock:
            leases = [lease for stack in self._pins.values() for lease in stack]
            self._pins.clear()
        for lease in leases:
            lease.release()
        return len(leases)

    # ---------------------------------------------------------------- meta

    def versions(self) -> dict:
        """Resolvable store versions and the writer head."""
        return {
            "versions": sorted(self.router.store.versions()),
            "head_version": self.router.head_version(),
            "pinned": list(self.router.store.pinned_versions()),
        }

    def stats(self) -> dict:
        """Router bookkeeping plus the served head, JSON-safe."""
        payload = self.router.stats()
        payload["queries"] = int(self._c_queries.value)
        payload["num_facts"] = self.router.store.head.num_facts
        payload["dimension"] = self.router.store.dimension
        payload["index_kinds"] = list(self.router.store.head.index_kinds)
        index = self.router.store.index
        if index is not None:
            payload["index"] = index.stats()
        return payload
