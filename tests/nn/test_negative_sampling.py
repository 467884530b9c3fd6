"""Tests for the unigram negative sampler."""

import numpy as np
import pytest
from scipy import stats

from repro.nn import UnigramNegativeSampler
from repro.nn.negative_sampling import alias_table


def test_probabilities_follow_smoothed_counts():
    sampler = UnigramNegativeSampler(np.array([1.0, 16.0]), power=0.75, rng=0)
    expected = np.array([1.0, 8.0])
    expected = expected / expected.sum()
    assert np.allclose(sampler.probabilities, expected)


def test_zero_count_nodes_never_sampled():
    sampler = UnigramNegativeSampler(np.array([0.0, 5.0, 0.0, 5.0]), rng=0)
    draws = sampler.sample(2000)
    assert set(np.unique(draws)) <= {1, 3}


def test_all_zero_counts_fall_back_to_uniform():
    sampler = UnigramNegativeSampler(np.zeros(4), rng=0)
    draws = sampler.sample(4000)
    counts = np.bincount(draws, minlength=4)
    assert counts.min() > 500  # roughly uniform


def test_sample_shape():
    sampler = UnigramNegativeSampler(np.ones(10), rng=0)
    assert sampler.sample((3, 5)).shape == (3, 5)
    assert sampler.num_nodes == 10


def test_empirical_frequencies_match_probabilities():
    counts = np.array([1.0, 2.0, 4.0, 8.0])
    sampler = UnigramNegativeSampler(counts, power=1.0, rng=3)
    draws = sampler.sample(20000)
    freq = np.bincount(draws, minlength=4) / 20000
    assert np.allclose(freq, counts / counts.sum(), atol=0.02)


@pytest.mark.parametrize("bad", [np.array([]), np.array([[1.0]]), np.array([-1.0, 2.0])])
def test_invalid_counts_rejected(bad):
    with pytest.raises(ValueError):
        UnigramNegativeSampler(bad)


def _wide_counts():
    """Counts spanning eight orders of magnitude, a third of them zero."""
    rng = np.random.default_rng(4)
    counts = np.round(10.0 ** rng.uniform(0, 8, size=300))
    counts[rng.choice(300, size=100, replace=False)] = 0.0
    return counts


def test_alias_table_reproduces_the_distribution_exactly():
    weights = _wide_counts()
    weights = weights[weights > 0]
    acceptance, alias = alias_table(weights)
    n = weights.size
    implied = acceptance + np.bincount(alias, weights=1.0 - acceptance, minlength=n)
    assert np.allclose(implied / n, weights / weights.sum(), rtol=0.0, atol=1e-12)


def test_zero_count_nodes_are_never_drawn():
    # Counts whose alias construction leaves float leftovers: a zero-count
    # node must stay unreachable, never be rounded up to a sure draw.
    sampler = UnigramNegativeSampler(np.array([0.0, 0.0, 0.1, 0.0, 1e-9, 0.0, 0.3]), rng=2)
    draws = sampler.sample(200_000)
    assert set(np.unique(draws).tolist()) <= {2, 4, 6}


def test_alias_draws_pass_a_chi_square_test():
    sampler = UnigramNegativeSampler(_wide_counts(), rng=9)
    draws = 400_000
    observed = np.bincount(sampler.sample(draws), minlength=sampler.num_nodes)
    positive = sampler.probabilities > 0
    assert observed[~positive].sum() == 0
    expected = draws * sampler.probabilities[positive]
    # pool the rare nodes so every cell expects at least 5 draws
    rare = expected < 5
    cells_observed = np.append(observed[positive][~rare], observed[positive][rare].sum())
    cells_expected = np.append(expected[~rare], expected[rare].sum())
    assert stats.chisquare(cells_observed, cells_expected).pvalue > 1e-3
