"""Oracles of the keyed anchor sampler (:func:`anchor_picks`).

Picks are the bottom-k of a keyed hash of the candidates' fact ids, so they
must (a) be uniform without replacement — checked by chi-square tests over
many facts, in the style of the walker oracles in ``tests/graph`` — and
(b) depend on the candidate *set* alone: inserting or deleting a candidate
that is not picked leaves a fact's picks bit-identical.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.core.forward_dynamic import anchor_key, anchor_picks

N_FACTS = 24_000


def _picked_ids(key, fact_id, target_index, candidate_ids, count):
    positions = anchor_picks(key, [fact_id], target_index, np.asarray(candidate_ids), count)[0]
    return [candidate_ids[int(i)] for i in positions]


def test_picks_are_sorted_distinct_positions():
    candidates = np.arange(100, 140)
    picks = anchor_picks(anchor_key(1), np.arange(500), 3, candidates, 7)
    assert picks.shape == (500, 7)
    assert np.all(np.diff(picks, axis=1) > 0)
    assert picks.min() >= 0 and picks.max() < candidates.size


def test_every_candidate_when_there_are_few():
    picks = anchor_picks(anchor_key(1), np.arange(4), 0, np.array([9, 5, 7]), 3)
    assert picks.tolist() == [[0, 1, 2]] * 4


def test_subsets_are_uniform_without_replacement():
    """Every 3-subset of 8 candidates is drawn with probability 1/56."""
    candidates = np.array([3, 11, 17, 40, 41, 97, 250, 1_000_003])
    picks = anchor_picks(anchor_key(7), np.arange(N_FACTS), 2, candidates, 3)
    index = {subset: i for i, subset in enumerate(combinations(range(8), 3))}
    counts = np.bincount(
        [index[tuple(row)] for row in picks.tolist()], minlength=len(index)
    )
    assert stats.chisquare(counts).pvalue > 1e-3
    # a sampler that always leaves one candidate out fails the same test
    biased = counts.copy()
    biased[[i for subset, i in index.items() if 0 in subset]] = 0
    assert stats.chisquare(biased).pvalue < 1e-6


def test_inclusion_is_uniform_across_targets_and_keys():
    """Each of 50 candidates is picked by count/50 of the facts, under
    every (key, target) pair: the streams do not share a favourite."""
    candidates = np.arange(50) * 7 + 1
    for seed, target_index in ((0, 0), (0, 1), (5, 0)):
        picks = anchor_picks(
            anchor_key(seed), np.arange(N_FACTS // 4), target_index, candidates, 5
        )
        counts = np.bincount(picks.ravel(), minlength=candidates.size)
        assert stats.chisquare(counts).pvalue > 1e-3


def test_picks_of_different_facts_are_independent():
    """Two facts' first picks co-occur as often as independence predicts."""
    candidates = np.arange(6)
    key = anchor_key(3)
    first = anchor_picks(key, np.arange(0, 2 * N_FACTS, 2), 0, candidates, 1)[:, 0]
    second = anchor_picks(key, np.arange(1, 2 * N_FACTS, 2), 0, candidates, 1)[:, 0]
    table = np.zeros((6, 6))
    np.add.at(table, (first, second), 1)
    assert stats.chi2_contingency(table).pvalue > 1e-3


@given(
    seed=st.integers(0, 2**32 - 1),
    fact_id=st.integers(0, 10**9),
    target_index=st.integers(0, 200),
    candidates=st.lists(st.integers(0, 10**9), min_size=2, max_size=60, unique=True),
    count=st.integers(1, 12),
    extra=st.integers(0, 10**9),
    choice=st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_non_picked_candidates_do_not_move_picks(
    seed, fact_id, target_index, candidates, count, extra, choice
):
    key = anchor_key(seed)
    picked = _picked_ids(key, fact_id, target_index, candidates, count)
    # deleting a candidate that is not picked
    others = [c for c in candidates if c not in picked]
    if others:
        victim = others[choice % len(others)]
        remaining = [c for c in candidates if c != victim]
        assert _picked_ids(key, fact_id, target_index, remaining, count) == picked
    # inserting a candidate: either it is picked, or nothing moves
    if extra not in candidates:
        grown = sorted([*candidates, extra])
        after = _picked_ids(key, fact_id, target_index, grown, count)
        if extra not in after:
            assert after == sorted(picked, key=grown.index)
