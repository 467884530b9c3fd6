"""Tests for the Node2Vec walk sampler."""

import numpy as np
import pytest
from scipy import stats

from repro.datasets.movies import movies_database
from repro.graph import DatabaseGraph, Node2VecWalker


@pytest.fixture
def graph():
    return DatabaseGraph(movies_database())


def test_walk_length_and_start(graph):
    walker = Node2VecWalker(graph, walks_per_node=1, walk_length=12, rng=0)
    walk = walker.walk_from(0)
    assert walk[0] == 0
    assert len(walk) <= 12
    for a, b in zip(walk, walk[1:]):
        assert b in graph.neighbors(a)


def test_generate_counts(graph):
    walker = Node2VecWalker(graph, walks_per_node=3, walk_length=5, rng=0)
    corpus = walker.generate()
    assert len(corpus) == 3 * graph.num_nodes
    assert corpus.num_nodes == graph.num_nodes


def test_generate_from_subset(graph):
    walker = Node2VecWalker(graph, walks_per_node=2, walk_length=5, rng=0)
    corpus = walker.generate(start_nodes=[0, 1])
    assert len(corpus) == 4
    assert {walk[0] for walk in corpus.walks} == {0, 1}


def test_walks_alternate_between_fact_and_value_nodes(graph):
    """The graph is bipartite, so consecutive walk nodes differ in kind."""
    walker = Node2VecWalker(graph, walks_per_node=1, walk_length=15, rng=1)
    for start in list(range(graph.num_nodes))[:10]:
        walk = walker.walk_from(start)
        for a, b in zip(walk, walk[1:]):
            assert graph.is_fact_node(a) != graph.is_fact_node(b)


def test_low_p_biases_towards_returning(graph):
    """With a tiny p the walk revisits its previous node much more often."""
    returning = Node2VecWalker(graph, walks_per_node=1, walk_length=30, p=0.01, q=1.0, rng=0)
    neutral = Node2VecWalker(graph, walks_per_node=1, walk_length=30, p=1.0, q=1.0, rng=0)

    def return_rate(walker):
        hits = total = 0
        for start in range(min(graph.num_nodes, 20)):
            walk = walker.walk_from(start)
            for i in range(2, len(walk)):
                total += 1
                hits += walk[i] == walk[i - 2]
        return hits / max(total, 1)

    assert return_rate(returning) > return_rate(neutral)


@pytest.mark.parametrize("kwargs", [
    {"walks_per_node": 0},
    {"walk_length": 0},
    {"p": 0.0},
    {"q": -1.0},
])
def test_invalid_parameters_rejected(graph, kwargs):
    with pytest.raises(ValueError):
        Node2VecWalker(graph, **kwargs)


def test_null_heavy_fact_walk_is_confined_to_its_component():
    db = movies_database()
    graph = DatabaseGraph(db)
    # A fact whose only non-null value is its (fresh) key forms a 2-node
    # component; walks from it just bounce between the two nodes.
    fact = db.insert("MOVIES", {"mid": "m97", "studio": None, "title": None, "genre": None, "budget": None})
    created = graph.add_fact(fact)
    assert len(created) == 2  # fact node + the new mid value node
    walker = Node2VecWalker(graph, walks_per_node=1, walk_length=10, rng=0)
    walk = walker.walk_from(graph.fact_node(fact))
    assert set(walk) == set(created)
    assert len(walk) == 10


# ------------------------------------------------- second-order walk oracle


class _StubGraph:
    """A small non-bipartite graph with the two calls the walker reads.

    Triangles make "x is a neighbour of t" true for some proposals, which a
    bipartite :class:`DatabaseGraph` never allows, and the doubled 0-2 edge
    checks that neighbour lists are weighted as multisets.
    """

    edges = [(0, 1), (1, 2), (0, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 3), (1, 4), (5, 6)]

    def __init__(self):
        self.num_nodes = 7
        self._adjacency = [[] for _ in range(self.num_nodes)]
        for a, b in self.edges:
            self._adjacency[a].append(b)
            self._adjacency[b].append(a)

    def neighbors(self, node):
        return self._adjacency[node]


def _transition_probabilities(graph, t, v, p, q, neighbour_weight=1.0):
    """Exact node2vec probabilities of the step after ``t -> v``."""
    previous_neighbors = set(graph.neighbors(t))
    weights = {}
    for x in graph.neighbors(v):
        if x == t:
            w = 1.0 / p
        elif x in previous_neighbors:
            w = neighbour_weight
        else:
            w = 1.0 / q
        weights[x] = weights.get(x, 0.0) + w
    total = sum(weights.values())
    return {x: w / total for x, w in weights.items()}


def _second_order_counts(graph, p, q, walks_per_node, walk_length, seed):
    """Observed next-node counts per (previous, current) pair of the walks."""
    walker = Node2VecWalker(
        graph, walks_per_node=walks_per_node, walk_length=walk_length, p=p, q=q, rng=seed
    )
    paths = walker.generate().paths
    counts: dict[tuple[int, int], dict[int, int]] = {}
    for i in range(2, paths.shape[1]):
        for t, v, x in paths[:, i - 2 : i + 1].tolist():
            if x < 0:
                continue
            row = counts.setdefault((t, v), {})
            row[x] = row.get(x, 0) + 1
    return counts


def _chi_square_p_value(graph, counts, p, q, neighbour_weight=1.0):
    """Pooled chi-square test of the counts against the exact probabilities."""
    statistic = 0.0
    dof = 0
    for (t, v), observed in counts.items():
        expected = _transition_probabilities(graph, t, v, p, q, neighbour_weight)
        assert set(observed) <= set(expected), "a step left the neighbour list"
        n = sum(observed.values())
        if n * min(expected.values()) < 5:
            continue  # too few samples for the chi-square approximation
        statistic += sum((observed.get(x, 0) - n * e) ** 2 / (n * e) for x, e in expected.items())
        dof += len(expected) - 1
    assert dof > 20
    return stats.chi2.sf(statistic, dof)


@pytest.mark.parametrize("p, q", [(0.5, 2.0), (2.0, 0.25), (4.0, 8.0)])
def test_second_order_transitions_match_node2vec_on_movies(graph, p, q):
    counts = _second_order_counts(graph, p, q, walks_per_node=300, walk_length=12, seed=11)
    assert _chi_square_p_value(graph, counts, p, q) > 1e-3
    # the oracle has power: the first-order (uniform) law is rejected
    assert _chi_square_p_value(graph, counts, 1.0, 1.0) < 1e-6


@pytest.mark.parametrize("p, q", [(0.5, 2.0), (2.0, 0.25), (4.0, 8.0)])
def test_second_order_transitions_match_node2vec_on_non_bipartite_graph(p, q):
    stub = _StubGraph()
    counts = _second_order_counts(stub, p, q, walks_per_node=3000, walk_length=12, seed=5)
    assert _chi_square_p_value(stub, counts, p, q) > 1e-3
    # weighting common neighbours of t like any other neighbour is rejected
    assert _chi_square_p_value(stub, counts, p, q, neighbour_weight=1.0 / q) < 1e-6
