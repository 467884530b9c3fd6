"""The ``kind → (check, render)`` table and both of its consumers.

:data:`repro.cli.artifacts.ARTIFACT_KINDS` is the one place a
``BENCH_*.json`` kind is registered: ``python -m repro stats`` renders
through it and ``tools/check_obs_artifacts.py`` checks through it.  These
tests pin the table, that each consumer picks a payload by its ``kind``
alone, and that every committed artifact of a registered kind passes its
check.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.cli.artifacts import ARTIFACT_KINDS, artifact_kind
from repro.cli.stats import render_metrics, render_payload
from repro.index.bench import KNN_KIND, KNN_SCHEMA_VERSION
from repro.obs.overhead import MAX_OVERHEAD, OVERHEAD_KIND, OVERHEAD_SCHEMA_VERSION
from repro.serve.loadgen import LOAD_KIND, LOAD_SCHEMA_VERSION
from repro.service.replay import REPLAY_KIND, REPLAY_SCHEMA_VERSION

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS = REPO_ROOT / "tools"
RESULTS = REPO_ROOT / "benchmarks" / "results"


def _latency():
    return {
        "count": 8, "mean_seconds": 0.02, "p50_seconds": 0.018,
        "p95_seconds": 0.03, "p99_seconds": 0.032, "max_seconds": 0.04,
    }


def _load_payload():
    return {
        "schema_version": LOAD_SCHEMA_VERSION,
        "kind": LOAD_KIND,
        "profile": {
            "dataset": "mondial", "scale": 0.1, "transport": "inproc",
            "index": "exact", "clients": 64, "worker_threads": 6,
            "zipf_exponent": 1.1, "delete_fraction": 0.2, "update_fraction": 0.2,
        },
        "queries_total": 300,
        "duration_seconds": 0.25,
        "qps": 1200.0,
        "qps_floor": 1000.0,
        "per_kind": {
            kind: {"count": 100, "latency": _latency()}
            for kind in ("fetch", "knn", "slice")
        },
        "staleness": {"mean": 0.5, "max": 2, "samples": 300},
        "pinned_verification": {
            "version": 1, "clients": 4, "queries": 16,
            "max_abs_diff": 0.0, "bit_identical": True,
        },
        "monotonic_violations": 0,
        "reader_errors": [],
        "writer": {
            "error": None, "versions_committed": 5, "commits_during_load": 3,
            "facts_deleted": 1, "facts_updated": 1,
        },
    }


def _knn_payload():
    return {
        "schema_version": KNN_SCHEMA_VERSION,
        "kind": KNN_KIND,
        "dataset": "mondial",
        "dimension": 32,
        "k": 10,
        "rungs": [{
            "scale": 0.5, "num_facts": 900, "num_dead": 18, "queries": 100,
            "exact": {"latency": _latency()},
            "ivf": {"latency": _latency()},
            "speedup": 1.4, "speedup_floor": 1.0,
            "recall": {"k": 10, "mean": 0.999, "min": 0.9, "floor": 0.95},
        }],
    }


def _replay_report():
    return {
        "schema_version": REPLAY_SCHEMA_VERSION,
        "kind": REPLAY_KIND,
        "repro_version": "0.0-test",
        "dataset": "mondial",
        "scale": 0.3,
        "insert_ratio": 0.3,
        "policy": "recompute",
        "ops": ["insert", "delete", "update"],
        "feed_batches": 4,
        "facts_inserted": 12,
        "facts_deleted": 3,
        "facts_updated": 2,
        "store_versions_committed": 5,
        "static_train_seconds": 1.0,
        "total_apply_seconds": 0.5,
        "facts_per_second": 24.0,
        "latency": _latency(),
        "deleted_facts_absent_from_store": True,
        "deleted_facts_leaked": 0,
        "one_shot_max_abs_diff": 2e-16,
        "one_shot_tolerance": 1e-9,
        "verified_against_one_shot": True,
    }


def _overhead_payload():
    return {
        "schema_version": OVERHEAD_SCHEMA_VERSION,
        "kind": OVERHEAD_KIND,
        "repro_version": "0.0-test",
        "dataset": "mondial",
        "scale": 0.15,
        "insert_ratio": 0.2,
        "repeats": 4,
        "feed_batches": 7,
        "baseline_apply_seconds": 0.4,
        "instrumented_apply_seconds": 0.41,
        "baseline_facts_per_second": 17.5,
        "instrumented_facts_per_second": 17.0,
        "overhead_fraction": 0.41 / 0.4 - 1.0,
        "max_overhead_fraction": MAX_OVERHEAD,
        "instrumented_stage_coverage": 0.99,
    }


PAYLOADS = {
    LOAD_KIND: _load_payload,
    KNN_KIND: _knn_payload,
    REPLAY_KIND: _replay_report,
    OVERHEAD_KIND: _overhead_payload,
}

COMMITTED = sorted(
    path for path in RESULTS.glob("BENCH_*.json")
    if artifact_kind(json.loads(path.read_text())) is not None
)


@pytest.fixture(scope="module")
def checker():
    sys.path.insert(0, str(TOOLS))
    try:
        import check_obs_artifacts
    finally:
        sys.path.remove(str(TOOLS))
    return check_obs_artifacts


class TestArtifactTable:
    def test_registers_the_four_bench_kinds(self):
        assert set(ARTIFACT_KINDS) == {"load_test", "knn_bench", "replay", "obs_overhead"}
        assert set(PAYLOADS) == set(ARTIFACT_KINDS)

    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_clean_payload_passes_its_check(self, kind):
        check, _ = ARTIFACT_KINDS[kind]
        assert check(PAYLOADS[kind]()) == []

    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_each_check_rejects_a_foreign_kind(self, kind):
        check, _ = ARTIFACT_KINDS[kind]
        payload = PAYLOADS[kind]()
        payload["kind"] = "throughput_ladder"
        assert any("kind" in problem for problem in check(payload))

    def test_only_registered_string_kinds_resolve(self):
        assert artifact_kind(_replay_report()) == REPLAY_KIND
        assert artifact_kind({"kind": "throughput_ladder"}) is None
        assert artifact_kind({"kind": ["replay"]}) is None
        assert artifact_kind({"facts_per_second": 1.0}) is None
        assert artifact_kind(["replay"]) is None


class TestStatsDispatch:
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_each_kind_renders_through_its_renderer(self, kind):
        _, render = ARTIFACT_KINDS[kind]
        payload = PAYLOADS[kind]()
        assert render_payload(payload) == render(payload)

    def test_metrics_payload_falls_through(self):
        payload = {"counters": {"service.batches": 3}}
        assert render_payload(payload) == render_metrics(payload)

    def test_unknown_kind_falls_through_to_metrics(self):
        payload = {
            "kind": "throughput_ladder", "rungs": [{"scale": 0.3}],
            "counters": {"service.batches": 3},
        }
        assert render_payload(payload) == render_metrics(payload)

    def test_kindless_report_is_not_sniffed_by_shape(self):
        report = _replay_report()
        del report["kind"]
        assert render_payload(report) == render_metrics(report)


class TestArtifactCheckerDispatch:
    def _write(self, tmp_path, payload, name="BENCH_test.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_clean_artifact_of_each_kind_passes(self, checker, tmp_path, kind):
        path = self._write(tmp_path, PAYLOADS[kind]())
        assert checker.check_artifact(path) == []

    def test_violations_name_the_file(self, checker, tmp_path):
        payload = _load_payload()
        payload["qps"] = 1.0
        path = self._write(tmp_path, payload)
        problems = checker.check_artifact(path)
        assert problems and all(p.startswith(f"{path}: ") for p in problems)
        assert any("below the floor" in p for p in problems)

    def test_replay_tolerance_violation_fails(self, checker, tmp_path):
        payload = _replay_report()
        payload["one_shot_max_abs_diff"] = 1e-3
        problems = checker.check_artifact(self._write(tmp_path, payload))
        assert any("exceeds" in p for p in problems)

    def test_replay_null_one_shot_diff_fails(self, checker, tmp_path):
        payload = _replay_report()
        payload["one_shot_max_abs_diff"] = None
        problems = checker.check_artifact(self._write(tmp_path, payload))
        assert any("exceeds" in p for p in problems)

    def test_unverified_replay_passes(self, checker, tmp_path):
        payload = _replay_report()
        for key in ("one_shot_max_abs_diff", "one_shot_tolerance",
                    "verified_against_one_shot"):
            del payload[key]
        assert checker.check_artifact(self._write(tmp_path, payload)) == []

    def test_replay_leaked_delete_fails(self, checker, tmp_path):
        payload = _replay_report()
        payload["deleted_facts_absent_from_store"] = False
        payload["deleted_facts_leaked"] = 2
        problems = checker.check_artifact(self._write(tmp_path, payload))
        assert any("still in the head store" in p for p in problems)

    def test_replay_without_latency_fields_fails(self, checker, tmp_path):
        payload = _replay_report()
        del payload["latency"]["p95_seconds"]
        problems = checker.check_artifact(self._write(tmp_path, payload))
        assert any("latency" in p for p in problems)

    def test_knn_without_latency_fields_fails(self, checker, tmp_path):
        payload = _knn_payload()
        del payload["rungs"][0]["ivf"]["latency"]["max_seconds"]
        problems = checker.check_artifact(self._write(tmp_path, payload))
        assert any("ivf latency summary is missing" in p for p in problems)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"instrumented_apply_seconds": 0.5, "overhead_fraction": 0.25}, "costs 25.0%"),
            ({"overhead_fraction": -0.5}, "does not match"),
            ({"max_overhead_fraction": 0.5}, "max_overhead_fraction"),
            ({"instrumented_stage_coverage": 0.5}, "coverage"),
            ({"baseline_apply_seconds": 0.0}, "positive"),
        ],
    )
    def test_overhead_violations_fail(self, checker, tmp_path, change, message):
        payload = {**_overhead_payload(), **change}
        problems = checker.check_artifact(self._write(tmp_path, payload))
        assert any(message in p for p in problems), problems

    def test_unknown_kind_is_checked_as_metrics(self, checker, tmp_path):
        payload = {"kind": "throughput_ladder", "rungs": []}
        problems = checker.check_artifact(self._write(tmp_path, payload))
        assert any("missing top-level blocks" in p for p in problems)

    def test_committed_artifacts_are_found(self):
        assert {artifact_kind(json.loads(p.read_text())) for p in COMMITTED} >= {
            LOAD_KIND, KNN_KIND, OVERHEAD_KIND,
        }

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda path: path.name)
    def test_committed_artifacts_are_clean(self, checker, path):
        assert checker.check_artifact(path) == []
