"""Negative sampling for skip-gram training."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


def alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table ``(acceptance, alias)`` of positive weights.

    Drawing a uniform column ``i`` and keeping it with probability
    ``acceptance[i]``, else taking ``alias[i]``, samples column ``i`` with
    probability ``weights[i] / weights.sum()``.  Columns left unpaired by
    float error keep acceptance 1.
    """
    n = weights.shape[0]
    scaled = (weights * (n / weights.sum())).tolist()
    acceptance = [1.0] * n
    alias = list(range(n))
    small = [i for i, s in enumerate(scaled) if s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        low = small.pop()
        high = large[-1]
        acceptance[low] = scaled[low]
        alias[low] = high
        scaled[high] -= 1.0 - scaled[low]
        if scaled[high] < 1.0:
            small.append(large.pop())
    return np.asarray(acceptance), np.asarray(alias, dtype=np.int64)


class UnigramNegativeSampler:
    """Draws negative context nodes from the smoothed unigram distribution.

    As in word2vec/Node2Vec, nodes are sampled proportionally to
    ``count(node) ** power`` with ``power = 0.75`` by default, in O(1) per
    draw from an alias table.  The table has a column only for each node of
    positive probability, so a zero-count node is never drawn and a sparse
    count vector costs only its support to set up.
    """

    def __init__(
        self,
        counts: np.ndarray,
        power: float = 0.75,
        rng: int | np.random.Generator | None = None,
    ):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        weights = np.power(np.maximum(counts, 0.0), power)
        total = weights.sum()
        if total <= 0:
            weights = np.ones_like(weights)
            total = weights.sum()
        self.probabilities = weights / total
        self._support = np.flatnonzero(self.probabilities > 0.0)
        self._acceptance, self._alias = alias_table(self.probabilities[self._support])
        self.rng = ensure_rng(rng)

    @property
    def num_nodes(self) -> int:
        return self.probabilities.shape[0]

    def sample(self, size: int | tuple[int, ...]) -> np.ndarray:
        """Sample node indices with the smoothed unigram distribution.

        One uniform draw per sample: its integer part (scaled by the column
        count) picks the column, its fraction the acceptance test.
        """
        columns = self._support.size
        scaled = self.rng.random(size=size) * columns
        column = np.minimum(scaled.astype(np.int64), columns - 1)
        keep = scaled - column < self._acceptance[column]
        return self._support[np.where(keep, column, self._alias[column])]
