"""The throughput-ladder harness: schema checks, rendering, dispatch.

:func:`repro.service.ladder.check_ladder` is the single source of truth for
what a passing ``BENCH_streaming.json`` looks like — the benchmark asserts
through it, ``tools/check_obs_artifacts.py`` re-validates stored artifacts
through it, and ``repro stats`` renders through the same module.  These
tests pin the checker from both sides and the dispatch of every consumer,
including backward compatibility with the old single-run report format.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.service.ladder import (
    ACCEPTANCE_SPEEDUP,
    BASELINE_FACTS_PER_SECOND,
    CHURN_TOLERANCE,
    LADDER_KIND,
    LADDER_SCHEMA_VERSION,
    RUNG_SPECS,
    check_ladder,
    is_ladder_payload,
    ladder_rungs,
    render_ladder,
)

TOOLS = Path(__file__).resolve().parents[2] / "tools"


def _latency():
    return {
        "count": 8, "mean_seconds": 0.02, "p50_seconds": 0.018,
        "p95_seconds": 0.03, "p99_seconds": 0.032, "max_seconds": 0.04,
        "sum_seconds": 0.16, "sampled": 8,
    }


def _rung(scale, floor, facts_per_second):
    return {
        "scale": scale,
        "group_size": 3,
        "floor_facts_per_second": floor,
        "facts_per_second": facts_per_second,
        "facts_per_second_attempts": [facts_per_second * 0.9, facts_per_second],
        "speedup_vs_baseline": facts_per_second / BASELINE_FACTS_PER_SECOND,
        "feed_batches": 4,
        "feed_facts": 12,
        "facts_inserted": 12,
        "store_versions_committed": 5,
        "feed_lag": 0,
        "version_skew": 0,
        "static_train_seconds": 1.0,
        "total_apply_seconds": 0.1,
        "latency": _latency(),
        "verification": {
            "one_shot_max_abs_diff": 3e-16,
            "tolerance": 1e-9,
            "verified": True,
            "churn_max_abs_diff": 5e-16,
            "churn_tolerance": CHURN_TOLERANCE,
            "churn_verified": True,
            "churn_facts_deleted": 3,
            "churn_facts_updated": 2,
        },
    }


def _payload():
    """A minimal passing ladder artifact (two rungs, acceptance at 0.3)."""
    return {
        "schema_version": LADDER_SCHEMA_VERSION,
        "kind": LADDER_KIND,
        "repro_version": "0.0-test",
        "dataset": "mondial",
        "insert_ratio": 0.1,
        "seed": 0,
        "policy": "recompute",
        "profile": "reduced",
        "baseline": {
            "facts_per_second": BASELINE_FACTS_PER_SECOND,
            "scale": 0.15,
            "source": "seed single-run benchmark",
        },
        "acceptance": {
            "scale": 0.3,
            "min_speedup_vs_baseline": ACCEPTANCE_SPEEDUP,
        },
        "rungs": [
            _rung(0.15, 50.0, 150.0),
            _rung(0.3, ACCEPTANCE_SPEEDUP * BASELINE_FACTS_PER_SECOND, 140.0),
        ],
    }


def _single_run():
    """The old single-run report that ``python -m repro bench`` still emits."""
    return {
        "repro_version": "0.0-test",
        "dataset": "mondial",
        "scale": 0.15,
        "insert_ratio": 0.1,
        "policy": "recompute",
        "seed": 0,
        "feed_batches": 4,
        "feed_facts": 12,
        "facts_inserted": 12,
        "facts_deleted": 0,
        "facts_updated": 0,
        "store_versions_committed": 5,
        "feed_lag": 0,
        "version_skew": 0,
        "static_train_seconds": 1.0,
        "total_apply_seconds": 0.5,
        "facts_per_second": 24.0,
        "latency": _latency(),
        "one_shot_max_abs_diff": 2e-16,
        "one_shot_tolerance": 1e-9,
        "verified_against_one_shot": True,
    }


class TestCheckLadder:
    def test_passing_payload_is_clean(self):
        assert check_ladder(_payload()) == []

    def test_detects_payload_kinds(self):
        assert is_ladder_payload(_payload())
        assert not is_ladder_payload(_single_run())

    def test_wrong_kind_and_version_flagged(self):
        payload = _payload()
        payload["kind"] = "bench"
        payload["schema_version"] = 1
        problems = check_ladder(payload)
        assert any("kind" in p for p in problems)
        assert any("schema_version" in p for p in problems)

    def test_empty_ladder_flagged(self):
        payload = _payload()
        payload["rungs"] = []
        assert any("no rungs" in p for p in check_ladder(payload))

    def test_floor_violation_flagged(self):
        payload = _payload()
        payload["rungs"][0]["facts_per_second"] = 49.9
        problems = check_ladder(payload)
        assert any("below the floor" in p for p in problems)

    def test_one_shot_bar_violation_flagged(self):
        payload = _payload()
        payload["rungs"][1]["verification"]["one_shot_max_abs_diff"] = 1e-6
        assert any("one-shot" in p for p in check_ladder(payload))

    def test_missing_one_shot_diff_flagged(self):
        payload = _payload()
        payload["rungs"][1]["verification"]["one_shot_max_abs_diff"] = None
        assert any("one-shot" in p for p in check_ladder(payload))

    def test_churn_bar_violation_flagged(self):
        payload = _payload()
        payload["rungs"][0]["verification"]["churn_max_abs_diff"] = 1e-9
        assert any("churn" in p for p in check_ladder(payload))

    def test_acceptance_speedup_violation_flagged(self):
        payload = _payload()
        rung = payload["rungs"][1]
        rung["facts_per_second"] = rung["floor_facts_per_second"] + 1
        rung["speedup_vs_baseline"] = 9.9  # recorded speedup below the bar
        assert any("acceptance" in p for p in check_ladder(payload))

    def test_single_committed_version_flagged(self):
        payload = _payload()
        payload["rungs"][0]["store_versions_committed"] = 1
        assert any("store versions" in p for p in check_ladder(payload))


class TestRungSpecs:
    def test_reduced_profile_is_a_prefix_of_full(self):
        reduced = ladder_rungs(full=False)
        assert reduced == RUNG_SPECS[: len(reduced)]
        assert ladder_rungs(full=True) == RUNG_SPECS
        assert 2 <= len(reduced) < len(RUNG_SPECS)

    def test_acceptance_rung_floor_is_ten_x_baseline(self):
        rung = next(spec for spec in RUNG_SPECS if spec["scale"] == 0.3)
        assert rung["floor"] == pytest.approx(
            ACCEPTANCE_SPEEDUP * BASELINE_FACTS_PER_SECOND
        )
        assert rung in ladder_rungs(full=False)  # CI runs the acceptance bar

    def test_scales_strictly_increase(self):
        scales = [spec["scale"] for spec in RUNG_SPECS]
        assert scales == sorted(scales)
        assert len(set(scales)) == len(scales)


class TestRenderLadder:
    def test_clean_payload_renders_ok_line(self):
        rendered = render_ladder(_payload())
        assert "floors/bars: OK" in rendered
        assert "0.15" in rendered and "0.3" in rendered
        assert "150.0" in rendered

    def test_violations_are_rendered(self):
        payload = _payload()
        payload["rungs"][0]["facts_per_second"] = 1.0
        payload["rungs"][0]["speedup_vs_baseline"] = 0.1
        rendered = render_ladder(payload)
        assert "VIOLATIONS" in rendered
        assert "below the floor" in rendered


class TestStatsDispatch:
    def test_ladder_payload_renders_as_ladder(self):
        from repro.cli.stats import render_payload

        assert "Throughput ladder" in render_payload(_payload())

    def test_single_run_payload_renders_as_replay_report(self):
        from repro.cli.stats import render_payload
        from repro.service.replay import render_report

        assert render_payload(_single_run()) == render_report(_single_run())

    def test_metrics_payload_falls_through(self):
        from repro.cli.stats import render_metrics, render_payload

        payload = {"counters": {"service.batches": 3}}
        assert render_payload(payload) == render_metrics(payload)


class TestArtifactCheckerDispatch:
    @pytest.fixture(scope="class")
    def checker(self):
        sys.path.insert(0, str(TOOLS))
        try:
            import check_obs_artifacts
        finally:
            sys.path.remove(str(TOOLS))
        return check_obs_artifacts

    def _write(self, tmp_path, payload):
        path = tmp_path / "BENCH_streaming.json"
        path.write_text(json.dumps(payload))
        return path

    def test_clean_ladder_artifact_passes(self, checker, tmp_path):
        assert checker.check_artifact(self._write(tmp_path, _payload())) == []

    def test_ladder_floor_violation_fails(self, checker, tmp_path):
        payload = _payload()
        payload["rungs"][0]["facts_per_second"] = 1.0
        problems = checker.check_artifact(self._write(tmp_path, payload))
        assert any("below the floor" in p for p in problems)

    def test_ladder_without_latency_fields_fails(self, checker, tmp_path):
        payload = _payload()
        del payload["rungs"][0]["latency"]["p95_seconds"]
        problems = checker.check_artifact(self._write(tmp_path, payload))
        assert any("latency" in p for p in problems)

    def test_old_single_run_artifact_still_passes(self, checker, tmp_path):
        assert checker.check_artifact(self._write(tmp_path, _single_run())) == []

    def test_single_run_tolerance_violation_fails(self, checker, tmp_path):
        payload = _single_run()
        payload["one_shot_max_abs_diff"] = 1e-3
        problems = checker.check_artifact(self._write(tmp_path, payload))
        assert any("exceeds" in p for p in problems)

    def test_repo_artifact_is_clean(self, checker):
        stored = TOOLS.parent / "benchmarks" / "results" / "BENCH_streaming.json"
        assert stored.is_file()
        assert checker.check_artifact(stored) == []
