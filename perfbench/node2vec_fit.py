"""``node2vec_fit``: the paper's baseline method, and the only user of the
``graph`` and ``nn`` layers.

``Node2VecEmbedder.fit`` runs on a masked Genes database with q != 1, so the
second-order walk path is measured.  Set-up compiles the walk engine the
graph is built from.  Each fit is one round; fits repeat, each from the
same seed; ``fit_s`` is the fastest fit.

Checks: every fact gets a finite vector of the configured dimension, and an
SVM on the prediction relation's vectors beats the majority class in
seeded stratified 5-fold cross-validation.  No digest is compared, so
changes that reorder random draws stay checkable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from harness import Measurement

#: The walk corpus and the training pairs are read after each fit for counts.
KEEP = ("graph.walks", "nn.pairs")
#: Nominal seconds of one fit, measured once; with ``--seconds`` it fixes
#: the number of fits.
ROUND_S = 5.5
#: Engine compiles per pass; ``setup_s`` is the fastest.
SETUP_REPS = 200


@dataclass(frozen=True)
class Sizes:
    dataset: str = "genes"
    scale: float = 0.25
    dimension: int = 32
    walks_per_node: int = 2
    walk_length: int = 10
    window_size: int = 3
    negatives_per_positive: int = 5
    batch_size: int = 4096
    epochs: int = 1
    learning_rate: float = 0.025
    p: float = 1.0
    q: float = 0.5
    folds: int = 5


def vectors_ok(matrix: np.ndarray, rows: int, dimension: int) -> bool:
    """One finite row of the configured dimension per fact."""
    return matrix.shape == (rows, dimension) and bool(np.all(np.isfinite(matrix)))


def cv_accuracy(features: np.ndarray, labels: np.ndarray, folds: int, seed: int):
    """``(mean stratified k-fold SVM accuracy, majority-class accuracy)``."""
    from repro.evaluation.baselines import majority_baseline_accuracy
    from repro.evaluation.downstream import LabelledEmbedding, cross_validated_accuracy

    data = LabelledEmbedding(tuple(range(len(labels))), features, labels)
    mean, _ = cross_validated_accuracy(data, n_splits=folds, rng=seed)
    return mean, majority_baseline_accuracy(list(labels))


class Workload:
    unit = "fit"

    def __init__(self, seed: int, sizes: Sizes):
        from repro.core.config import Node2VecConfig
        from repro.datasets import load_dataset

        self.seed = seed
        self.sizes = sizes
        self.dataset = load_dataset(sizes.dataset, scale=sizes.scale, seed=seed)
        self.db = self.dataset.masked_database()
        self.config = Node2VecConfig(
            dimension=sizes.dimension,
            walks_per_node=sizes.walks_per_node,
            walk_length=sizes.walk_length,
            window_size=sizes.window_size,
            negatives_per_positive=sizes.negatives_per_positive,
            batch_size=sizes.batch_size,
            epochs=sizes.epochs,
            learning_rate=sizes.learning_rate,
            p=sizes.p,
            q=sizes.q,
        )

    def fresh_input(self):
        return self.db

    def setup(self, db, telemetry):
        from repro.engine import WalkEngine

        return WalkEngine(db)

    def teardown(self, engine) -> None:
        pass

    def measure(self, engine, rounds: int, tracer, census, setups) -> tuple[Measurement, object]:
        from repro.core.node2vec import Node2VecEmbedder

        fits: list[float] = []
        attempted = failed = 0
        errors: list[str] = []
        self.model = None
        windows: list[tuple[float, float]] = []
        for _ in range(rounds):
            embedder = Node2VecEmbedder(self.db, self.config, rng=self.seed, engine=engine)
            tracer.unit = attempted
            attempted += 1
            began = time.perf_counter()
            try:
                self.model = embedder.fit()
            except Exception as exc:  # noqa: BLE001 - counted and reported
                failed += 1
                errors.append(repr(exc))
            windows.append((began, time.perf_counter()))
            fits.append(windows[-1][1] - began)
            if failed:
                break
            census.sample()
            setups.between_rounds()
        counts = {}
        results = getattr(tracer, "results", {})
        if results.get("graph.walks"):
            counts["graph.walk_steps"] = sum(
                max(len(walk) - 1, 0) for corpus in results["graph.walks"] for walk in corpus.walks
            )
            counts["nn.pairs"] = sum(len(pairs) for pairs in results["nn.pairs"])
            results.clear()
        return Measurement(
            units=len(fits),
            windows=windows,
            attempted=attempted,
            failed=failed,
            work_per_round=float(self.model.graph.num_nodes if self.model else 0),
            rounds=[[fit] for fit in fits],
            tail_percentile=100.0,
            counts=counts,
            info={
                "metric_meaning": {
                    "throughput_per_s": "graph nodes / fastest fit",
                    "latency_p50_ms": "fit_s: fastest Node2VecEmbedder.fit (one unit per round)",
                    "latency_tail_ms": "the same fastest fit: one unit has no tail",
                },
                "fits": len(fits),
                "graph_nodes": self.model.graph.num_nodes if self.model else None,
                "errors": errors[:5],
            },
        ), engine

    def verify(self, engine, m: Measurement) -> dict:
        if self.model is None:
            return {"fit_completed": False}
        facts = list(self.db)
        matrix = np.stack([self.model.vector(fact) for fact in facts])
        if not vectors_ok(matrix, len(facts), self.sizes.dimension):
            return {"every_fact_has_finite_vector": False, "accuracy_beats_majority": False}
        labels = self.dataset.labels()
        relation = self.dataset.prediction_relation
        labelled = [f for f in self.db.facts(relation) if f.fact_id in labels]
        features = np.stack([self.model.vector(f) for f in labelled])
        target = np.array([labels[f.fact_id] for f in labelled], dtype=object)
        accuracy, majority = cv_accuracy(features, target, self.sizes.folds, self.seed)
        m.info["accuracy"] = accuracy
        m.info["majority_accuracy"] = majority
        return {"every_fact_has_finite_vector": True, "accuracy_beats_majority": accuracy > majority}
