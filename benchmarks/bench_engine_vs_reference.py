"""Compiled walk engine vs reference BFS — destination distributions.

Computes **all** destination distributions ``W(f, s)`` of the Mondial
prediction relation (every prediction fact × every walk scheme up to the
paper's maximum length 3) two ways:

* *reference*: the per-fact breadth-first propagation of
  :func:`repro.walks.random_walks.destination_distribution`;
* *engine*: :meth:`repro.engine.WalkEngine.destination_matrix` over a
  compiled database — the chain of sparse step products run over every row
  of the relation at once, each scheme built on its own (no prefix product
  is shared between schemes).

The engine must be at least 5× faster.  One-time compilation of the
database into flat arrays is reported separately: the experiment drivers
compile once and share the engine across all methods, folds and walk
targets, so compilation is amortised while distribution computation is the
recurring cost.

Run under pytest (``python -m pytest benchmarks/bench_engine_vs_reference.py``)
or directly (``python benchmarks/bench_engine_vs_reference.py``).
"""

from __future__ import annotations

import time

from repro.datasets import load_dataset
from repro.engine import WalkEngine
from repro.walks import destination_distribution, enumerate_walk_schemes

try:  # pytest-style result persistence when run by the harness
    from conftest import write_result
except ImportError:  # direct script execution from the repository root
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import write_result

MAX_WALK_LENGTH = 3
MIN_SPEEDUP = 5.0


def _measure(scale: float) -> dict[str, float]:
    dataset = load_dataset("mondial", scale=scale, seed=0)
    db = dataset.db
    facts = db.facts(dataset.prediction_relation)
    schemes = enumerate_walk_schemes(
        db.schema, dataset.prediction_relation, MAX_WALK_LENGTH
    )

    start = time.perf_counter()
    for scheme in schemes:
        for fact in facts:
            destination_distribution(db, fact, scheme)
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    engine = WalkEngine(db)
    compile_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for scheme in schemes:
        engine.destination_matrix(scheme)
    engine_seconds = time.perf_counter() - start

    return {
        "facts": len(facts),
        "schemes": len(schemes),
        "total_facts": len(db),
        "reference_seconds": reference_seconds,
        "compile_seconds": compile_seconds,
        "engine_seconds": engine_seconds,
        "speedup": reference_seconds / engine_seconds,
    }


def _render(stats: dict[str, float]) -> str:
    lines = [
        f"Mondial destination distributions (walk length <= {MAX_WALK_LENGTH})",
        f"{'prediction facts':<26}{stats['facts']:>10.0f}",
        f"{'walk schemes':<26}{stats['schemes']:>10.0f}",
        f"{'database facts':<26}{stats['total_facts']:>10.0f}",
        "-" * 36,
        f"{'reference BFS':<26}{stats['reference_seconds']:>9.3f}s",
        f"{'engine (batched)':<26}{stats['engine_seconds']:>9.3f}s",
        f"{'engine compile (once)':<26}{stats['compile_seconds']:>9.3f}s",
        f"{'speedup':<26}{stats['speedup']:>9.1f}x",
    ]
    return "\n".join(lines)


def test_engine_beats_reference_on_mondial():
    stats = _measure(scale=1.0)  # Mondial is always run at paper scale
    write_result("engine_vs_reference", _render(stats))
    assert stats["speedup"] >= MIN_SPEEDUP, (
        f"engine speedup {stats['speedup']:.1f}x below the required "
        f"{MIN_SPEEDUP:.0f}x (reference {stats['reference_seconds']:.3f}s, "
        f"engine {stats['engine_seconds']:.3f}s)"
    )


if __name__ == "__main__":
    result = _measure(1.0)
    print(_render(result))
    if result["speedup"] < MIN_SPEEDUP:
        raise SystemExit(f"speedup below {MIN_SPEEDUP:.0f}x")
