"""Tests for walk corpora and skip-gram pair construction."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import WalkCorpus, build_training_pairs


def test_node_counts():
    corpus = WalkCorpus([[0, 1, 1], [2]], num_nodes=4)
    assert corpus.node_counts().tolist() == [1.0, 2.0, 1.0, 0.0]
    assert len(corpus) == 2


def test_pairs_within_window():
    pairs = build_training_pairs([[0, 1, 2, 3]], window_size=1)
    as_set = {tuple(p) for p in pairs.tolist()}
    assert as_set == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}


def test_window_size_two_includes_skips():
    pairs = build_training_pairs([[0, 1, 2]], window_size=2)
    as_set = {tuple(p) for p in pairs.tolist()}
    assert (0, 2) in as_set and (2, 0) in as_set


def test_restrict_centers():
    pairs = build_training_pairs([[0, 1, 2]], window_size=2, restrict_centers_to={1})
    assert set(pairs[:, 0].tolist()) == {1}
    assert {tuple(p) for p in pairs.tolist()} == {(1, 0), (1, 2)}


def test_empty_walks_give_empty_pairs():
    pairs = build_training_pairs([], window_size=3)
    assert pairs.shape == (0, 2)
    assert pairs.dtype == np.int64


def test_single_node_walk_gives_no_pairs():
    assert build_training_pairs([[5]], window_size=2).shape == (0, 2)


def _reference_pairs(walks, window_size, restrict_centers_to=None):
    pairs = []
    for walk in walks:
        for i, center in enumerate(walk):
            if restrict_centers_to is not None and center not in restrict_centers_to:
                continue
            for j in range(max(0, i - window_size), min(len(walk), i + window_size + 1)):
                if j != i:
                    pairs.append((center, walk[j]))
    return pairs


walk_lists = st.lists(st.lists(st.integers(0, 9), min_size=0, max_size=12), max_size=8)


@given(
    walk_lists,
    st.integers(1, 5),
    st.one_of(st.none(), st.sets(st.integers(0, 9), max_size=6)),
)
@settings(max_examples=200, deadline=None)
def test_pairs_and_counts_match_the_nested_loop(walks, window_size, restrict):
    expected = _reference_pairs(walks, window_size, restrict)
    for source in (walks, WalkCorpus(walks, num_nodes=10)):
        pairs = build_training_pairs(source, window_size, restrict_centers_to=restrict)
        assert pairs.dtype == np.int64 and pairs.shape == (len(expected), 2)
        # the same pairs, in the same walk/center/context order
        assert [tuple(p) for p in pairs.tolist()] == expected
    counts = np.zeros(10)
    for walk in walks:
        for node in walk:
            counts[node] += 1
    corpus = WalkCorpus(walks, num_nodes=10)
    assert np.array_equal(corpus.node_counts(), counts)
    assert corpus.walks == [list(walk) for walk in walks]
