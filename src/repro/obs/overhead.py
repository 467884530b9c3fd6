"""The telemetry-overhead artifact: its kind, check and render.

``benchmarks/bench_obs_overhead.py`` replays one Mondial insert stream
unobserved and with a full :class:`~repro.obs.Telemetry` bundle and writes
``BENCH_obs_overhead.json`` of kind :data:`OVERHEAD_KIND`.
:func:`check_overhead` and :func:`render_overhead` are that kind's pair in
:data:`repro.cli.artifacts.ARTIFACT_KINDS`, so a stored artifact is
re-validated offline by ``tools/check_obs_artifacts.py`` and rendered by
``python -m repro stats``.
"""

from __future__ import annotations

import math

OVERHEAD_SCHEMA_VERSION = 1
OVERHEAD_KIND = "obs_overhead"

#: Enabled telemetry may cost at most 5% of best-case apply time.
MAX_OVERHEAD = 0.05
#: The instrumented run's apply stages must cover this share of apply time.
MIN_STAGE_COVERAGE = 0.9

_POSITIVE = ("baseline_apply_seconds", "instrumented_apply_seconds")


def check_overhead(payload: dict) -> list[str]:
    """Validate an overhead payload; returns human-readable violations.

    Enforces the kind and schema, positive apply times whose ratio is the
    recorded ``overhead_fraction``, the 5% budget (a payload cannot widen
    it) and the stage coverage floor.  An empty list means it passes.
    """
    problems: list[str] = []
    if payload.get("kind") != OVERHEAD_KIND:
        problems.append(f"kind is {payload.get('kind')!r}, expected {OVERHEAD_KIND!r}")
    if payload.get("schema_version") != OVERHEAD_SCHEMA_VERSION:
        problems.append(
            f"schema_version is {payload.get('schema_version')!r}, "
            f"expected {OVERHEAD_SCHEMA_VERSION}"
        )
    for key in _POSITIVE:
        value = payload.get(key)
        if not isinstance(value, (int, float)) or not value > 0:
            problems.append(f"{key} is {value!r}, expected a positive number of seconds")
    if problems:
        return problems
    overhead = payload.get("overhead_fraction")
    measured = payload["instrumented_apply_seconds"] / payload["baseline_apply_seconds"] - 1.0
    if not isinstance(overhead, (int, float)) or not math.isclose(
        overhead, measured, rel_tol=1e-9, abs_tol=1e-12
    ):
        problems.append(
            f"overhead_fraction {overhead!r} does not match the apply times ({measured:.6f})"
        )
    elif overhead > MAX_OVERHEAD:
        problems.append(
            f"enabled telemetry costs {overhead:.1%} of apply time "
            f"(allowed <={MAX_OVERHEAD:.0%})"
        )
    if payload.get("max_overhead_fraction") != MAX_OVERHEAD:
        problems.append(
            f"max_overhead_fraction is {payload.get('max_overhead_fraction')!r}, "
            f"expected {MAX_OVERHEAD}"
        )
    coverage = payload.get("instrumented_stage_coverage")
    if not isinstance(coverage, (int, float)) or not coverage >= MIN_STAGE_COVERAGE:
        problems.append(
            f"instrumented stage coverage {coverage!r} is below {MIN_STAGE_COVERAGE}"
        )
    return problems


def render_overhead(payload: dict) -> str:
    """A human-readable summary of one overhead payload."""
    return "\n".join(
        [
            f"Telemetry overhead — {payload['dataset']} (scale {payload['scale']}, "
            f"per-batch best of {payload['repeats']}, {payload['feed_batches']} batches)",
            f"{'baseline apply seconds':<28}{payload['baseline_apply_seconds']:>12.3f}",
            f"{'instrumented apply seconds':<28}{payload['instrumented_apply_seconds']:>12.3f}",
            f"{'baseline facts/s':<28}{payload['baseline_facts_per_second']:>12.1f}",
            f"{'instrumented facts/s':<28}{payload['instrumented_facts_per_second']:>12.1f}",
            f"{'overhead':<28}{payload['overhead_fraction']:>11.1%}",
            f"{'allowed':<28}{payload['max_overhead_fraction']:>11.1%}",
        ]
    )
