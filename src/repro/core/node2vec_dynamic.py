"""The Node2Vec adaptation — dynamic phase (Section IV-A of the paper).

When new facts arrive, the fact/value graph is extended with their nodes,
random walks are sampled *starting at the new nodes*, and skip-gram training
continues from the existing model with a random initialisation for the new
nodes.  During this continuation the embeddings of all old nodes are frozen,
so the existing tuple embeddings are stable by construction.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.base import TupleEmbedding
from repro.core.node2vec import Node2VecModel
from repro.db.database import Fact
from repro.graph.node2vec_walks import Node2VecWalker
from repro.nn.corpus import WalkCorpus, build_training_pairs
from repro.nn.negative_sampling import UnigramNegativeSampler
from repro.utils.rng import ensure_rng, spawn_rngs


class Node2VecDynamicExtender:
    """Extends a trained :class:`Node2VecModel` to newly inserted facts."""

    def __init__(self, model: Node2VecModel, rng: int | np.random.Generator | None = None):
        self.model = model
        self.rng = ensure_rng(rng)

    def extend(self, new_facts: Iterable[Fact]) -> TupleEmbedding:
        """Embed the new facts (all relations); old embeddings stay untouched.

        Returns a :class:`TupleEmbedding` containing only the new facts.  The
        underlying skip-gram model gains nodes and is trained further with
        all previously existing nodes frozen.
        """
        new_facts = [f for f in new_facts if not self.model.graph.has_fact(f)]
        result = TupleEmbedding(self.model.dimension)
        if not new_facts:
            return result

        graph = self.model.graph
        skipgram = self.model.skipgram
        config = self.model.config

        old_node_count = graph.num_nodes
        new_nodes: list[int] = []
        for fact in new_facts:
            new_nodes.extend(graph.add_fact(fact))
        added = graph.num_nodes - old_node_count
        if added:
            skipgram.add_nodes(added)
        skipgram.freeze(range(old_node_count))

        if new_nodes:
            walk_rng, sampler_rng = spawn_rngs(self.rng, 2)
            walker = Node2VecWalker(
                graph,
                walks_per_node=config.dynamic_walks_per_node,
                walk_length=config.walk_length,
                p=config.p,
                q=config.q,
                rng=walk_rng,
            )
            corpus = walker.generate(start_nodes=new_nodes)
            pairs = build_training_pairs(corpus, config.window_size)
            if len(pairs):
                counts = self._corpus_counts(corpus, graph.num_nodes)
                sampler = UnigramNegativeSampler(counts, rng=sampler_rng)
                skipgram.train_pairs(
                    pairs,
                    sampler,
                    epochs=config.dynamic_epochs,
                    batch_size=config.batch_size,
                )
        skipgram.unfreeze_all()

        for fact in new_facts:
            result.set(fact, self.model.vector(fact))
        return result

    @staticmethod
    def _corpus_counts(corpus: WalkCorpus, num_nodes: int) -> np.ndarray:
        """Node counts padded to the current node-table size."""
        counts = np.zeros(num_nodes, dtype=np.float64)
        raw = corpus.node_counts()
        counts[: raw.shape[0]] = raw
        return counts
