"""The one table of ``BENCH_*.json`` artifact kinds.

Every versioned benchmark artifact names its ``kind``.  This table maps
each kind to the pair that validates and renders it: ``check(payload)``
returns the list of violations (empty means the artifact passes) and
``render(payload)`` returns the operator view.  ``python -m repro stats``
renders through it and ``tools/check_obs_artifacts.py`` checks through it,
so a payload is picked by its ``kind`` alone; anything without a
registered kind is a metrics payload.
"""

from __future__ import annotations

from typing import Callable

from repro.index.bench import KNN_KIND, check_knn, render_knn
from repro.obs.overhead import OVERHEAD_KIND, check_overhead, render_overhead
from repro.serve.loadgen import LOAD_KIND, check_load, render_load
from repro.service.replay import REPLAY_KIND, check_report, render_report

#: ``kind`` → ``(check, render)`` for every BENCH artifact kind.
ARTIFACT_KINDS: dict[
    str, tuple[Callable[[dict], list[str]], Callable[[dict], str]]
] = {
    LOAD_KIND: (check_load, render_load),
    KNN_KIND: (check_knn, render_knn),
    REPLAY_KIND: (check_report, render_report),
    OVERHEAD_KIND: (check_overhead, render_overhead),
}


def artifact_kind(payload: object) -> str | None:
    """The payload's registered kind, or None for anything else."""
    kind = payload.get("kind") if isinstance(payload, dict) else None
    return kind if isinstance(kind, str) and kind in ARTIFACT_KINDS else None
