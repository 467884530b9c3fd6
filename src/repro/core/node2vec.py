"""The Node2Vec adaptation — static phase (Section IV of the paper).

The database is turned into the bipartite fact/value graph of
:class:`~repro.graph.db_graph.DatabaseGraph` (with foreign-key value-node
identification), Node2Vec walks are sampled over it, and a skip-gram model
with negative sampling is trained on the resulting (center, context) pairs.
The embedding of a fact is the learned input vector of its fact node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.base import TupleEmbedding
from repro.core.config import Node2VecConfig
from repro.db.database import Database, Fact
from repro.graph.db_graph import DatabaseGraph
from repro.graph.node2vec_walks import Node2VecWalker
from repro.nn.corpus import build_training_pairs
from repro.nn.negative_sampling import UnigramNegativeSampler
from repro.nn.skipgram import SkipGramConfig, SkipGramModel
from repro.utils.rng import ensure_rng, spawn_rngs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import WalkEngine


class Node2VecModel:
    """A trained Node2Vec database embedding.

    Holds the fact/value graph and the skip-gram model so the dynamic
    extender can append new nodes and continue training with old nodes
    frozen.
    """

    def __init__(
        self,
        db: Database,
        config: Node2VecConfig,
        graph: DatabaseGraph,
        skipgram: SkipGramModel,
        loss_history: Sequence[float] = (),
    ):
        self.db = db
        self.config = config
        self.graph = graph
        self.skipgram = skipgram
        self.loss_history = list(loss_history)

    @property
    def dimension(self) -> int:
        return self.config.dimension

    def has_fact(self, fact: Fact | int) -> bool:
        return self.graph.has_fact(fact)

    def vector(self, fact: Fact | int) -> np.ndarray:
        """The embedding of one fact (input vector of its fact node)."""
        return self.skipgram.embedding(self.graph.fact_node(fact))

    def embedding(self, facts: Iterable[Fact] | None = None) -> TupleEmbedding:
        """The tuple embedding over the given facts (default: current database)."""
        chosen = list(facts) if facts is not None else list(self.db)
        result = TupleEmbedding(self.dimension)
        for fact in chosen:
            if self.graph.has_fact(fact):
                result.set(fact, self.vector(fact))
        return result


class Node2VecEmbedder:
    """Static-phase trainer of the Node2Vec adaptation."""

    def __init__(
        self,
        db: Database,
        config: Node2VecConfig | None = None,
        rng: int | np.random.Generator | None = None,
        engine: "WalkEngine | None" = None,
    ):
        self.db = db
        self.config = config or Node2VecConfig()
        self.rng = ensure_rng(rng)
        if engine is not None and engine.db is not db:
            raise ValueError("engine is compiled from a different database")
        self.engine = engine

    def fit(self) -> Node2VecModel:
        """Build the graph, sample walks, train skip-gram; return the model."""
        walk_rng, model_rng, sampler_rng = spawn_rngs(self.rng, 3)
        graph = DatabaseGraph(
            self.db,
            identify_foreign_keys=self.config.identify_foreign_keys,
            engine=self.engine,
        )
        walker = Node2VecWalker(
            graph,
            walks_per_node=self.config.walks_per_node,
            walk_length=self.config.walk_length,
            p=self.config.p,
            q=self.config.q,
            rng=walk_rng,
        )
        corpus = walker.generate()
        pairs = build_training_pairs(corpus, self.config.window_size)
        sampler = UnigramNegativeSampler(corpus.node_counts(), rng=sampler_rng)
        skipgram = SkipGramModel(
            graph.num_nodes,
            SkipGramConfig(
                dimension=self.config.dimension,
                negatives_per_positive=self.config.negatives_per_positive,
                batch_size=self.config.batch_size,
                epochs=self.config.epochs,
                learning_rate=self.config.learning_rate,
            ),
            rng=model_rng,
        )
        history = skipgram.train_pairs(pairs, sampler)
        return Node2VecModel(self.db, self.config, graph, skipgram, history)
