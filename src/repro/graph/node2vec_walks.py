"""Node2Vec biased second-order random walks.

Implements the walk generation of Grover & Leskovec (2016) used by the
paper's Node2Vec adaptation: from the previous node ``t`` and current node
``v``, the next node ``x`` is drawn with unnormalised weight ``1/p`` when
``x == t``, ``1`` when ``x`` is a neighbour of ``t``, and ``1/q`` otherwise.
With ``p == q == 1`` the walk is a plain uniform random walk.

All walks advance together, one step at a time, over CSR arrays of the
graph's adjacency.  A second-order step is drawn by rejection sampling, as
in KnightKing (Yang et al., 2019): propose a uniform neighbour of ``v`` and
accept it with probability ``weight / max(1/p, 1, 1/q)``; walks that reject
propose again.  On a bipartite :class:`DatabaseGraph` the weight 1 cannot
occur, so the envelope there is ``max(1/p, 1/q)`` and a step with equal
``p`` and ``q`` is always accepted at the first proposal.  Neighbour lists
are taken as multisets, exactly as a weighted choice over the list entries
would.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from repro.graph.db_graph import DatabaseGraph
from repro.nn.corpus import PAD, WalkCorpus
from repro.utils.rng import ensure_rng


class _Adjacency:
    """CSR arrays of the neighbour lists of the nodes the walks have reached.

    A node's list is read from the graph when a walk first stands on it, so
    walks from a few new nodes read only the part of a large graph they
    reach.  Lists are stored sorted and appended in load order, which keeps
    the edge keys ``slot * num_nodes + target`` sorted for the lookup.
    """

    def __init__(self, graph: DatabaseGraph):
        self.graph = graph
        self.num_nodes = graph.num_nodes
        self.slot = np.full(self.num_nodes, -1, dtype=np.int64)
        self.degree = np.zeros(0, dtype=np.int64)
        self.offset = np.zeros(0, dtype=np.int64)
        self.targets = np.zeros(0, dtype=np.int64)
        self.edge_keys = np.zeros(0, dtype=np.int64)

    def load(self, nodes: np.ndarray) -> None:
        """Read the neighbour lists of those ``nodes`` not yet loaded."""
        new = np.unique(nodes[self.slot[nodes] < 0])
        if not new.size:
            return
        slots = np.arange(self.degree.size, self.degree.size + new.size)
        self.slot[new] = slots
        neighbors = [self.graph.neighbors(node) for node in new.tolist()]
        degree = np.fromiter(map(len, neighbors), dtype=np.int64, count=new.size)
        targets = np.fromiter(
            itertools.chain.from_iterable(neighbors), dtype=np.int64, count=int(degree.sum())
        )
        keys = np.sort(np.repeat(slots, degree) * self.num_nodes + targets)
        self.offset = np.append(self.offset, self.targets.size + np.cumsum(degree) - degree)
        self.degree = np.append(self.degree, degree)
        self.targets = np.append(self.targets, keys % self.num_nodes)
        self.edge_keys = np.append(self.edge_keys, keys)

    def degree_of(self, nodes: np.ndarray) -> np.ndarray:
        return self.degree[self.slot[nodes]]

    def uniform_neighbor(self, nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One uniformly drawn neighbour-list entry of every node (degree ≥ 1)."""
        slots = self.slot[nodes]
        picks = (rng.random(nodes.size) * self.degree[slots]).astype(np.int64)
        return self.targets[self.offset[slots] + picks]

    def has_edge(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Whether each ``targets[i]`` is a neighbour of the loaded ``sources[i]``."""
        keys = self.slot[sources] * self.num_nodes + targets
        found = np.searchsorted(self.edge_keys, keys)
        found = np.minimum(found, self.edge_keys.size - 1)
        return self.edge_keys[found] == keys


class Node2VecWalker:
    """Generates Node2Vec walks over a :class:`DatabaseGraph`."""

    def __init__(
        self,
        graph: DatabaseGraph,
        walks_per_node: int = 40,
        walk_length: int = 30,
        p: float = 1.0,
        q: float = 1.0,
        rng: int | np.random.Generator | None = None,
    ):
        if walks_per_node <= 0 or walk_length <= 0:
            raise ValueError("walks_per_node and walk_length must be positive")
        if p <= 0 or q <= 0:
            raise ValueError("p and q must be positive")
        self.graph = graph
        self.walks_per_node = int(walks_per_node)
        self.walk_length = int(walk_length)
        self.p = float(p)
        self.q = float(q)
        self.rng = ensure_rng(rng)
        # The rejection envelope: the largest weight a step can meet.  A
        # DatabaseGraph is bipartite (fact nodes only touch value nodes), so
        # no neighbour of v is a neighbour of t and weight 1 never occurs.
        reachable = [1.0 / self.p, 1.0 / self.q]
        if not isinstance(graph, DatabaseGraph):
            reachable.append(1.0)
        self._bound = max(reachable)

    # ----------------------------------------------------------------- walks

    def _second_order_step(
        self, adjacency: _Adjacency, previous: np.ndarray, current: np.ndarray
    ) -> np.ndarray:
        """The next node of every walk at ``current`` that came from ``previous``."""
        chosen = np.empty_like(current)
        pending = np.arange(current.size)
        while pending.size:
            t, v = previous[pending], current[pending]
            x = adjacency.uniform_neighbor(v, self.rng)
            weight = np.where(adjacency.has_edge(t, x), 1.0, 1.0 / self.q)
            weight[x == t] = 1.0 / self.p
            accepted = self.rng.random(pending.size) * self._bound < weight
            chosen[pending[accepted]] = x[accepted]
            pending = pending[~accepted]
        return chosen

    def _walk(self, starts: np.ndarray) -> np.ndarray:
        """Padded walks of up to ``walk_length`` nodes, one from each start."""
        adjacency = _Adjacency(self.graph)
        paths = np.full((starts.size, self.walk_length), PAD, dtype=np.int64)
        paths[:, 0] = starts
        first_order = self.p == 1.0 and self.q == 1.0
        moving = np.arange(starts.size)
        for step in range(1, self.walk_length):
            current = paths[moving, step - 1]
            adjacency.load(current)
            # a walk stops for good at a node without neighbours
            alive = adjacency.degree_of(current) > 0
            moving, current = moving[alive], current[alive]
            if not moving.size:
                break
            if step == 1 or first_order:
                paths[moving, step] = adjacency.uniform_neighbor(current, self.rng)
            else:
                previous = paths[moving, step - 2]
                paths[moving, step] = self._second_order_step(adjacency, previous, current)
        return paths

    def walk_from(self, start: int) -> list[int]:
        """One walk of ``walk_length`` steps starting at ``start``."""
        walk = self._walk(np.array([start], dtype=np.int64))[0]
        return walk[walk != PAD].tolist()

    def generate(self, start_nodes: Iterable[int] | None = None) -> WalkCorpus:
        """``walks_per_node`` walks from every start node (default: all nodes).

        Walks come round by round: one walk from every start, in start
        order, then the next round.
        """
        if start_nodes is None:
            starts = np.arange(self.graph.num_nodes, dtype=np.int64)
        else:
            starts = np.fromiter((int(s) for s in start_nodes), dtype=np.int64)
        paths = self._walk(np.tile(starts, self.walks_per_node))
        return WalkCorpus(paths, self.graph.num_nodes)
