"""Self-tests of the benchmark, at tiny sizes (a few minutes).

    python3 perfbench/selftest.py

For every workload, untraced and traced: the metric names and units match
``BENCHMARK.json`` and the checks pass.  Then each workload runs once with
its output corrupted by a patch, and must report ``correct: false``; a
traced run with a layer hidden must fail the coverage gate, and one with a
call that no longer exists must fail too.  Last, the runner must exit non-zero, printing no result, in a directory
that holds only ``BENCHMARK.json`` and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread environment before numpy is imported

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(run.ROOT / "src"))
sys.path.insert(0, str(HERE))

import churn_ingest  # noqa: E402
import harness  # noqa: E402
import http_reads  # noqa: E402
import node2vec_fit  # noqa: E402
import numpy as np  # noqa: E402
from tracing import Call  # noqa: E402

TINY = {
    "churn_ingest": churn_ingest.Sizes(scale=0.25),
    "http_reads": http_reads.Sizes(
        scale=0.25, point_reads_per_round=200, warmup_requests=10, verify_per_kind=5
    ),
    "node2vec_fit": node2vec_fit.Sizes(scale=0.25, walks_per_node=4),
}
SECONDS = 1.0
SEED = 3


def _expected(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def check_metrics(workload: str) -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = harness.run_workload(workload, SEED, SECONDS, trace, TINY[workload])
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert got == _expected(section), f"{workload} trace={trace}: {got} != {section}"
        assert result["correct"], f"{workload} trace={trace}: {result['envelope']['checks']}"
        assert result["attempted"] >= 1 and result["failed"] == 0, workload
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values()), workload


class patched:
    """Replace ``owner.attr`` with ``make(original)`` inside a ``with`` block."""

    def __init__(self, owner, attr, make):
        self.owner, self.attr, self.make = owner, attr, make

    def __enter__(self):
        self.original = vars(self.owner)[self.attr]
        setattr(self.owner, self.attr, self.make(self.original))

    def __exit__(self, *exc_info):
        setattr(self.owner, self.attr, self.original)


def _nudge_commits(original):
    def commit(self, updates=(), batch_id=None, **kwargs):
        items = dict(updates)
        items = {fact: np.asarray(vector) + 1e-6 for fact, vector in items.items()}
        return original(self, items, batch_id, **kwargs)

    return commit


def _flip_fetch(original):
    def fetch(self, fact_ids, version=None):
        answer = original(self, fact_ids, version)
        answer["vectors"][0][0] = -answer["vectors"][0][0] or 1.0
        return answer

    return fetch


def _poison_vectors(original):
    def vector(self, fact):
        result = original(self, fact)
        result = np.array(result, dtype=np.float64)
        result[0] = np.nan
        return result

    return vector


def check_corruption_fails() -> None:
    from repro.core.node2vec import Node2VecModel
    from repro.serve.client import ServeClient
    from repro.service.store import EmbeddingStore

    cases = [
        ("churn_ingest", EmbeddingStore, "commit", _nudge_commits, "head_equals_one_shot"),
        ("http_reads", ServeClient, "fetch", _flip_fetch, "http_equals_local_backend"),
        ("node2vec_fit", Node2VecModel, "vector", _poison_vectors, "every_fact_has_finite_vector"),
    ]
    for workload, owner, attr, make, check in cases:
        with patched(owner, attr, make):
            result = harness.run_workload(workload, SEED, SECONDS, False, TINY[workload])
        checks = result["envelope"]["checks"]
        assert result["correct"] is False and checks[check] is False, (workload, checks)


def check_gaps_fail() -> None:
    from repro.nn.skipgram import SkipGramModel

    hidden = [call for call in harness.CALLS if call.span != "nn.sgns"]
    gone = harness.CALLS + [Call(SkipGramModel, "renamed_away", "nn.sgns")]
    for calls, check in ((hidden, "traced.coverage_at_least_0.9"),
                         (gone, "traced.all_calls_installed")):
        result = harness.run_workload(
            "node2vec_fit", SEED, SECONDS, True, TINY["node2vec_fit"], calls=calls
        )
        checks = result["envelope"]["checks"]
        assert result["correct"] is False and checks[check] is False, (check, checks)


def check_bare_directory_fails() -> None:
    bare = harness.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        command + ["--workload", "http_reads", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0, completed
    assert '"correct"' not in completed.stdout, completed.stdout


def main() -> int:
    for workload in TINY:
        check_metrics(workload)
        print(f"ok  metrics and checks: {workload}", flush=True)
    check_corruption_fails()
    print("ok  corrupted answers fail their checks", flush=True)
    check_gaps_fail()
    print("ok  a hidden layer or a missing call fails the traced run", flush=True)
    check_bare_directory_fails()
    print("ok  bare directory exits non-zero without a result", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
