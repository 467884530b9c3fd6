"""``http_reads``: the read path, over HTTP, with no writer.

A FoRWaRD store fitted on a Genes partition (the base store, before any
arrival) is served by the in-process ``EmbeddingServer``.  One client on one
keep-alive connection runs a closed loop: zipfian (s=1.1) point reads, half
``/fetch`` of 8 ids and half ``/knn`` with k=10, with one ``/slice`` of the
whole relation after every 50 point reads.  A round is one fixed, seeded
list of requests, replayed after a short untimed warm-up; each point read's
latency is the best of the rounds.

Checks: a seeded sample of HTTP answers equals the in-process
``LocalBackend`` answers bit for bit (JSON floats round-trip exactly).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from harness import Measurement
from stack import ForwardSizes, start_stack

#: Nominal seconds of one round (one request list), measured once; with
#: ``--seconds`` it fixes the number of rounds.
ROUND_S = 1.5
#: Set-ups per pass; ``setup_s`` is the fastest.
SETUP_REPS = 11


@dataclass(frozen=True)
class Sizes:
    dataset: str = "genes"
    scale: float = 1.0
    insert_ratio: float = 0.1
    point_reads_per_round: int = 1000
    slice_every: int = 50
    fetch_ids: int = 8
    knn_k: int = 10
    zipf_s: float = 1.1
    warmup_requests: int = 100
    verify_per_kind: int = 20
    tail_percentile: float = 90.0
    forward: ForwardSizes = field(default_factory=ForwardSizes)


def canonical(answer: dict) -> str:
    """A byte-exact rendering: ``repr`` floats keep every bit, ``-0.0`` included."""
    return json.dumps(answer, sort_keys=True)


def answers_match(http_answer: dict, local_answer: dict) -> bool:
    return canonical(http_answer) == canonical(local_answer)


class Workload:
    unit = "request"

    def __init__(self, seed: int, sizes: Sizes):
        from repro.datasets import load_dataset
        from repro.dynamic.partition import partition_dataset

        self.seed = seed
        self.sizes = sizes
        dataset = load_dataset(sizes.dataset, scale=sizes.scale, seed=seed)
        self.relation = dataset.prediction_relation
        self.partition = partition_dataset(dataset, ratio_new=sizes.insert_ratio, rng=seed)
        self.rng = np.random.default_rng(seed)

    def fresh_input(self):
        return self.partition.db.copy()

    def setup(self, db, telemetry):
        return start_stack(db, self.relation, self.sizes.forward, self.seed, telemetry)

    def teardown(self, stack) -> None:
        stack.close()

    # ---------------------------------------------------------------- load

    def _sampler(self, stack):
        """Store ids in a seeded popularity order and their zipf CDF."""
        ids, _ = stack.service.store.head.relation_slice(self.relation)
        ranked = self.rng.permutation(np.asarray(ids, dtype=np.int64))
        weights = 1.0 / np.arange(1, ranked.size + 1, dtype=np.float64) ** self.sizes.zipf_s
        return ranked, np.cumsum(weights / weights.sum())

    def _requests(self, count: int, ranked, cdf) -> list[tuple]:
        """``count`` point reads in closed-loop order, slices interleaved."""
        sizes = self.sizes

        def draw(shape):
            picks = np.searchsorted(cdf, self.rng.random(shape), side="right")
            return ranked[np.minimum(picks, ranked.size - 1)]

        is_fetch = self.rng.random(count) < 0.5
        fetch_ids = draw((count, sizes.fetch_ids)).tolist()
        knn_ids = draw(count).tolist()
        requests: list[tuple] = []
        for i in range(count):
            if is_fetch[i]:
                requests.append(("fetch", fetch_ids[i]))
            else:
                requests.append(("knn", knn_ids[i]))
            if (i + 1) % sizes.slice_every == 0:
                requests.append(("slice", self.relation))
        return requests

    def _call(self, target, request):
        kind, argument = request
        if kind == "fetch":
            return target.fetch(argument)
        if kind == "knn":
            return target.knn(argument, k=self.sizes.knn_k)
        return target.slice(argument)

    def measure(self, stack, rounds: int, tracer, census, setups) -> tuple[Measurement, object]:
        from repro.serve import ServeError

        client = stack.client
        ranked, cdf = self._sampler(stack)
        for request in self._requests(self.sizes.warmup_requests, ranked, cdf):
            self._call(client, request)
        census.sample()
        # every round replays the same seeded request list
        requests = self._requests(self.sizes.point_reads_per_round, ranked, cdf)
        round_times: list[list[float]] = []
        attempted = failed = 0
        errors: list[str] = []
        windows: list[tuple[float, float]] = []
        for _ in range(rounds):
            times: list[float] = []
            round_start = time.perf_counter()
            for i, request in enumerate(requests):
                tracer.unit = (len(windows), i)
                attempted += 1
                began = time.perf_counter()
                try:
                    self._call(client, request)
                    took = time.perf_counter() - began
                except ServeError as exc:
                    failed += 1
                    errors.append(f"{request[0]}: {exc}")
                    took = math.inf
                times.append(took)
            windows.append((round_start, time.perf_counter()))
            round_times.append(times)
            census.sample()
            setups.between_rounds()
        slices = [i for i, request in enumerate(requests) if request[0] == "slice"]
        best_slices = [min(r[i] for r in round_times) for i in slices]
        return Measurement(
            units=attempted,
            windows=windows,
            attempted=attempted,
            failed=failed,
            work_per_round=float(len(requests)),
            rounds=round_times,
            tail_percentile=self.sizes.tail_percentile,
            latency_units=[i for i, request in enumerate(requests) if request[0] != "slice"],
            info={
                "metric_meaning": {
                    "throughput_per_s": "read_qps: requests (point reads and slices) / summed best request times",
                    "latency_p50_ms": "read_p50: point reads (fetch and knn) only",
                    "latency_tail_ms": "read_tail at the recorded percentile, point reads only",
                },
                "store_rows": int(ranked.size),
                "requests_per_round": len(requests),
                "slice_p50_ms": float(np.median(best_slices)) * 1000.0 if best_slices else None,
                "errors": errors[:5],
            },
        ), stack

    def verify(self, stack, m: Measurement) -> dict:
        ranked, cdf = self._sampler(stack)
        pool = self._requests(self.sizes.verify_per_kind * self.sizes.slice_every, ranked, cdf)
        sample = []
        for kind in ("fetch", "knn", "slice"):
            sample += [r for r in pool if r[0] == kind][: self.sizes.verify_per_kind]
        mismatches = 0
        sizes: dict[str, list[int]] = {}
        for request in sample:
            remote = self._call(stack.client, request)
            local = self._call(stack.backend, request)
            mismatches += not answers_match(remote, local)
            sizes.setdefault(request[0], []).append(len(json.dumps(local).encode("utf-8")))
        m.response_bytes = {kind: float(np.mean(values)) for kind, values in sizes.items()}
        m.info["verified_answers"] = len(sample)
        m.info["mismatched_answers"] = mismatches
        return {"http_equals_local_backend": mismatches == 0 and len(sample) > 0}
