"""Turning random walks into skip-gram training pairs.

Walks are held as one padded ``(num_walks, max_length)`` array of node
indices, with :data:`PAD` after the end of each shorter walk, so pair
construction and node counting are array operations over the whole corpus.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Fill value after the last node of a walk in a padded walk array.
PAD = -1


def pad_walks(walks: Iterable[Sequence[int]]) -> np.ndarray:
    """Ragged walks as a padded ``(num_walks, max_length)`` int64 array."""
    walks = [list(walk) for walk in walks]
    lengths = np.fromiter((len(walk) for walk in walks), dtype=np.int64, count=len(walks))
    width = int(lengths.max()) if lengths.size else 0
    paths = np.full((len(walks), width), PAD, dtype=np.int64)
    paths[np.arange(width) < lengths[:, None]] = np.fromiter(
        (node for walk in walks for node in walk), dtype=np.int64, count=int(lengths.sum())
    )
    return paths


class WalkCorpus:
    """A collection of walks (sequences of node indices) plus node statistics.

    ``paths`` is the padded walk array; ``walks`` lists each walk without
    its padding.  Either form is accepted by the constructor.
    """

    def __init__(self, walks: np.ndarray | Iterable[Sequence[int]], num_nodes: int):
        if isinstance(walks, np.ndarray) and walks.ndim == 2:
            self.paths = walks.astype(np.int64, copy=False)
        else:
            self.paths = pad_walks(walks)
        self.num_nodes = int(num_nodes)

    @property
    def walks(self) -> list[list[int]]:
        """Every walk as a list of node indices, without its padding."""
        lengths = np.count_nonzero(self.paths != PAD, axis=1)
        return [row[:n] for row, n in zip(self.paths.tolist(), lengths.tolist())]

    def node_counts(self) -> np.ndarray:
        """Occurrence count of every node across all walks."""
        nodes = self.paths[self.paths != PAD]
        return np.bincount(nodes, minlength=self.num_nodes).astype(np.float64)

    def __len__(self) -> int:
        return self.paths.shape[0]


def build_training_pairs(
    walks: WalkCorpus | Iterable[Sequence[int]],
    window_size: int,
    restrict_centers_to: set[int] | None = None,
) -> np.ndarray:
    """All (center, context) pairs within ``window_size`` of each other.

    ``walks`` is a corpus or a list of walks.  Pairs come walk by walk,
    center by center, contexts in walk order.  When ``restrict_centers_to``
    is given, only pairs whose *center* node is in the set are emitted.
    The dynamic Node2Vec extension uses this to train only on pairs centred
    at newly inserted nodes, which combined with gradient freezing leaves
    old embeddings untouched.
    """
    paths = walks.paths if isinstance(walks, WalkCorpus) else pad_walks(walks)
    if paths.size == 0 or window_size <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    # (walk, position, 2w+1) windows over the walks padded by w on each side;
    # dropping the middle column leaves each center's contexts in walk order.
    framed = np.pad(paths, ((0, 0), (window_size, window_size)), constant_values=PAD)
    windows = sliding_window_view(framed, 2 * window_size + 1, axis=1)
    contexts = np.delete(windows, window_size, axis=2)
    centers = paths[:, :, None]
    if restrict_centers_to is not None:
        allowed = np.fromiter(restrict_centers_to, dtype=np.int64, count=len(restrict_centers_to))
        centers = np.where(np.isin(centers, allowed), centers, PAD)
    valid = (contexts != PAD) & (centers != PAD)
    return np.stack(
        [np.broadcast_to(centers, contexts.shape)[valid], contexts[valid]], axis=1
    ).astype(np.int64, copy=False)
