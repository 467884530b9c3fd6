"""Tests for the load generator: plans, payload schema, check/render."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.serve import LoadProfile, check_load, render_load, run_load_test
from repro.serve.loadgen import (
    LOAD_KIND,
    LOAD_SCHEMA_VERSION,
    _client_plan,
    _max_abs_diff,
    _zipf_weights,
)


class TestZipfWeights:
    def test_normalised_and_decreasing(self):
        weights = _zipf_weights(50, 1.1)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) < 0)

    def test_zero_exponent_is_uniform(self):
        weights = _zipf_weights(10, 0.0)
        np.testing.assert_allclose(weights, np.full(10, 0.1))


class TestClientPlans:
    @pytest.fixture
    def population(self):
        fact_ids = np.arange(100, 140, dtype=np.int64)
        fact_weights = _zipf_weights(fact_ids.size, 1.1)
        relations = ["A", "B", "C"]
        relation_weights = _zipf_weights(3, 1.1)
        return fact_ids, fact_weights, relations, relation_weights

    def test_deterministic_per_client(self, population):
        profile = LoadProfile(queries_per_client=20)
        first = _client_plan(profile, 7, *population)
        second = _client_plan(profile, 7, *population)
        assert first == second
        other = _client_plan(profile, 8, *population)
        assert first != other

    def test_plans_cover_all_query_kinds(self, population):
        profile = LoadProfile(queries_per_client=40)
        plan = _client_plan(profile, 0, *population)
        assert len(plan) == 40
        assert {op["kind"] for op in plan} == {"fetch", "knn", "slice"}

    def test_knn_ops_cover_the_relation_filter(self, population):
        profile = LoadProfile(queries_per_client=60, knn_relation_fraction=0.5)
        plan = _client_plan(profile, 0, *population)
        knn_ops = [op for op in plan if op["kind"] == "knn"]
        filtered = [op for op in knn_ops if "relation" in op]
        assert filtered and len(filtered) < len(knn_ops)
        assert {op["relation"] for op in filtered} <= {"A", "B", "C"}

    def test_relation_fraction_bounds(self, population):
        never = LoadProfile(queries_per_client=40, knn_relation_fraction=0.0)
        always = LoadProfile(queries_per_client=40, knn_relation_fraction=1.0)
        for op in _client_plan(never, 0, *population):
            assert op["kind"] != "knn" or "relation" not in op
        for op in _client_plan(always, 0, *population):
            assert op["kind"] != "knn" or "relation" in op

    def test_profile_dict_carries_index_fields(self):
        profile = LoadProfile(index="ivf", nprobe=4)
        as_dict = profile.as_dict()
        assert as_dict["index"] == "ivf" and as_dict["nprobe"] == 4
        assert "knn_relation_fraction" in as_dict


class TestMaxAbsDiff:
    def test_identical_responses_diff_zero(self):
        response = {"fact_ids": [1, 2], "vectors": [[0.1, 0.2], [0.3, 0.4]]}
        assert _max_abs_diff(response, copy.deepcopy(response)) == 0.0

    def test_vector_perturbation_is_measured(self):
        a = {"fact_ids": [1], "vectors": [[0.5, 0.5]]}
        b = {"fact_ids": [1], "vectors": [[0.5, 0.5 + 1e-9]]}
        assert _max_abs_diff(a, b) == pytest.approx(1e-9)

    def test_id_or_order_mismatch_is_infinite(self):
        a = {"fact_ids": [1, 2], "vectors": [[0.0], [0.0]]}
        b = {"fact_ids": [2, 1], "vectors": [[0.0], [0.0]]}
        assert _max_abs_diff(a, b) == float("inf")
        a = {"neighbors": [[1, 0.9], [2, 0.8]]}
        b = {"neighbors": [[2, 0.9], [1, 0.8]]}
        assert _max_abs_diff(a, b) == float("inf")


class TestRunLoadTest:
    @pytest.fixture(scope="class")
    def payload(self):
        """One small but fully concurrent in-process run (>= 64 clients)."""
        profile = LoadProfile(
            scale=0.08, clients=64, worker_threads=4, queries_per_client=3,
            pinned_clients=3, qps_floor=100.0,
        )
        return run_load_test(profile)

    def test_payload_passes_its_own_checker(self, payload):
        problems = check_load(payload)
        assert not problems, "\n".join(problems)

    def test_schema_and_verification(self, payload):
        assert payload["kind"] == LOAD_KIND
        assert payload["schema_version"] == LOAD_SCHEMA_VERSION
        assert payload["queries_total"] >= 64 * 3
        pinned = payload["pinned_verification"]
        assert pinned["bit_identical"] and pinned["max_abs_diff"] == 0.0
        assert payload["monotonic_violations"] == 0
        assert payload["writer"]["commits_during_load"] >= 1
        assert payload["staleness"]["samples"] == payload["queries_total"]

    def test_render_mentions_the_outcome(self, payload):
        rendered = render_load(payload)
        assert "floors/bars: OK" in rendered
        assert "pinned bit-identity" in rendered

    def test_rejects_unknown_transport(self):
        with pytest.raises(ValueError):
            run_load_test(LoadProfile(transport="carrier-pigeon"))


class TestCheckLoad:
    @pytest.fixture
    def clean(self):
        """A synthetic payload that satisfies every bar."""
        latency = {
            "count": 10, "mean_seconds": 0.001, "p50_seconds": 0.001,
            "p95_seconds": 0.002, "p99_seconds": 0.002, "max_seconds": 0.003,
        }
        return {
            "schema_version": LOAD_SCHEMA_VERSION,
            "kind": LOAD_KIND,
            "profile": {"clients": 64},
            "qps": 500.0,
            "qps_floor": 200.0,
            "per_kind": {
                kind: {"count": 10, "latency": dict(latency)}
                for kind in ("fetch", "knn", "slice")
            },
            "staleness": {"mean": 0.1, "max": 1, "samples": 30},
            "pinned_verification": {
                "version": 1, "clients": 4, "queries": 12,
                "max_abs_diff": 0.0, "bit_identical": True,
            },
            "monotonic_violations": 0,
            "reader_errors": [],
            "writer": {
                "error": None, "versions_committed": 5,
                "commits_during_load": 3,
            },
        }

    def test_clean_payload_passes(self, clean):
        assert check_load(clean) == []

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda p: p.update(qps=10.0), "below the floor"),
            (lambda p: p["profile"].update(clients=32), ">= 64"),
            (lambda p: p.update(monotonic_violations=2), "monotonic"),
            (lambda p: p["pinned_verification"].update(bit_identical=False),
             "bit-identical"),
            (lambda p: p["writer"].update(commits_during_load=0), "overlapped"),
            (lambda p: p["writer"].update(error="RuntimeError()"), "writer failed"),
            (lambda p: p["per_kind"].pop("knn"), "no knn queries"),
            (lambda p: p.update(kind="other"), "kind"),
            (lambda p: p.update(reader_errors=["boom"]), "reader errors"),
            (lambda p: p.update(qps="fast"), "not numeric"),
            (lambda p: p["per_kind"]["fetch"]["latency"].pop("p95_seconds"),
             "fetch latency summary is missing ['p95_seconds']"),
            (lambda p: p["per_kind"]["slice"].pop("latency"),
             "slice latency summary is missing"),
        ],
    )
    def test_each_bar_is_enforced(self, clean, mutate, needle):
        mutate(clean)
        problems = check_load(clean)
        assert any(needle in problem for problem in problems), problems

    def test_churn_profile_requires_real_deletes_and_updates(self, clean):
        clean["profile"].update(delete_fraction=0.2, update_fraction=0.2)
        clean["writer"].update(facts_deleted=0, facts_updated=0)
        problems = check_load(clean)
        assert any("writer deleted no facts" in p for p in problems), problems
        assert any("writer updated no facts" in p for p in problems), problems
        clean["writer"].update(facts_deleted=1)
        assert [p for p in check_load(clean) if "deleted" in p] == []
        clean["writer"].update(facts_updated=1)
        assert check_load(clean) == []

    def test_insert_only_profile_needs_no_churn(self, clean):
        clean["profile"].update(delete_fraction=0.0, update_fraction=0.0)
        clean["writer"].update(facts_deleted=0, facts_updated=0)
        assert check_load(clean) == []
