"""Skip-gram with negative sampling (SGNS) over graph nodes.

The objective for a (center ``u``, context ``v``) pair with negatives
``n_1..n_K`` is::

    L = -log σ(x_u · y_v) - Σ_k log σ(-x_u · y_{n_k})

where ``x`` are input (center) embeddings and ``y`` output (context)
embeddings.  The gradients are the standard word2vec expressions and are
applied with mini-batch SGD/Adam.  A set of *frozen* node indices can be
supplied; those rows are left out of every update, which is exactly how
the dynamic Node2Vec adaptation of Section IV-A keeps existing tuple
embeddings stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.nn.negative_sampling import UnigramNegativeSampler
from repro.optim.optimizers import Adam, Optimizer
from repro.utils.rng import ensure_rng


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clip to keep exp() in range; 30 is far beyond float64 sigmoid saturation.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _mean_loss(pos_score: np.ndarray, neg_score: np.ndarray) -> float:
    loss = -np.log(_sigmoid(pos_score) + 1e-12).sum()
    loss -= np.log(_sigmoid(-neg_score) + 1e-12).sum()
    return float(loss / max(len(pos_score), 1))


@dataclass
class SkipGramConfig:
    """Hyper-parameters of the SGNS model (paper Table II, Node2Vec block)."""

    dimension: int = 100
    negatives_per_positive: int = 20
    batch_size: int = 40_000
    epochs: int = 10
    learning_rate: float = 0.025
    init_scale: float = 0.1


class SkipGramModel:
    """Trainable SGNS embeddings over ``num_nodes`` graph nodes."""

    def __init__(
        self,
        num_nodes: int,
        config: SkipGramConfig | None = None,
        rng: int | np.random.Generator | None = None,
        optimizer: Optimizer | None = None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.config = config or SkipGramConfig()
        self.rng = ensure_rng(rng)
        dim = self.config.dimension
        scale = self.config.init_scale
        self.input_embeddings = self.rng.normal(0.0, scale, size=(num_nodes, dim))
        self.output_embeddings = self.rng.normal(0.0, scale, size=(num_nodes, dim))
        self.optimizer = optimizer or Adam(self.config.learning_rate)
        self._frozen = np.zeros(num_nodes, dtype=bool)

    # ------------------------------------------------------------- topology

    @property
    def num_nodes(self) -> int:
        return self.input_embeddings.shape[0]

    @property
    def frozen(self) -> set[int]:
        """Indices of the nodes whose embeddings training leaves untouched."""
        return set(np.flatnonzero(self._frozen).tolist())

    def add_nodes(self, count: int) -> np.ndarray:
        """Append ``count`` new randomly initialised nodes; returns their indices."""
        if count <= 0:
            return np.zeros(0, dtype=np.int64)
        dim = self.config.dimension
        scale = self.config.init_scale
        new_in = self.rng.normal(0.0, scale, size=(count, dim))
        new_out = self.rng.normal(0.0, scale, size=(count, dim))
        start = self.num_nodes
        self.input_embeddings = np.vstack([self.input_embeddings, new_in])
        self.output_embeddings = np.vstack([self.output_embeddings, new_out])
        self._frozen = np.concatenate([self._frozen, np.zeros(count, dtype=bool)])
        # Optimizer state shapes no longer match; restart it (the paper's
        # continuation trains only the new rows, so losing old momenta is fine).
        self.optimizer.reset()
        return np.arange(start, start + count, dtype=np.int64)

    def freeze(self, nodes: Iterable[int]) -> None:
        """Mark nodes whose embeddings must not change during training."""
        self._frozen[np.fromiter(nodes, dtype=np.int64)] = True

    def unfreeze_all(self) -> None:
        self._frozen[:] = False

    # -------------------------------------------------------------- training

    def _scores(
        self, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Gathered rows ``x, y_pos, y_neg`` and the scores ``x·y_pos, x·y_neg``."""
        x = self.input_embeddings[centers]  # (b, d)
        y_pos = self.output_embeddings[contexts]  # (b, d)
        y_neg = self.output_embeddings[negatives]  # (b, k, d)
        pos_score = np.sum(x * y_pos, axis=1)  # (b,)
        neg_score = np.einsum("bd,bkd->bk", x, y_neg)  # (b, k)
        return x, y_pos, y_neg, pos_score, neg_score

    def loss(self, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray) -> float:
        """Mean SGNS loss of a batch (the oracle of the fused training step)."""
        *_, pos_score, neg_score = self._scores(centers, contexts, negatives)
        return _mean_loss(pos_score, neg_score)

    def _scatter_rows(
        self, nodes: np.ndarray, weights: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-node sums of ``weights[i, j] * values[i]`` over ``nodes[i, j]``.

        Returns the touched, unfrozen nodes in increasing order and one
        summed row for each.  The sums are one sparse product; entries of
        frozen nodes go to a spare last row that is dropped.
        """
        flat = nodes.reshape(-1)
        touched = np.zeros(self.num_nodes, dtype=bool)
        touched[flat] = True
        rows = np.flatnonzero(touched & ~self._frozen)
        slot = np.full(self.num_nodes, rows.size, dtype=np.int64)
        slot[rows] = np.arange(rows.size)
        per_value = nodes.shape[1]
        spread = sparse.csr_matrix(
            (weights.reshape(-1), slot[flat], np.arange(0, flat.size + 1, per_value)),
            shape=(nodes.shape[0], rows.size + 1),
        )
        return rows, (spread.T @ values)[:-1]

    def _forward_backward(
        self, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray], dict[str, np.ndarray]]:
        """One pass over a batch: its mean loss and the accumulated gradients.

        The loss is taken before any update and equals :meth:`loss`.  The
        gradients come as (grads, row-index) dicts with one row per touched
        unfrozen node, so frozen rows are never updated.
        """
        x, y_pos, y_neg, pos_score, neg_score = self._scores(centers, contexts, negatives)
        loss = _mean_loss(pos_score, neg_score)
        batch = max(len(centers), 1)
        # d loss / d score, per positive and per negative
        pos_coef = (_sigmoid(pos_score) - 1.0) / batch
        neg_coef = _sigmoid(neg_score) / batch
        grad_x = pos_coef[:, None] * y_pos + np.einsum("bk,bkd->bd", neg_coef, y_neg)
        input_rows, grad_input = self._scatter_rows(
            centers[:, None], np.ones((len(centers), 1)), grad_x
        )
        output_rows, grad_output = self._scatter_rows(
            np.concatenate([contexts[:, None], negatives], axis=1),
            np.concatenate([pos_coef[:, None], neg_coef], axis=1),
            x,
        )
        grads = {"input": grad_input, "output": grad_output}
        rows = {"input": input_rows, "output": output_rows}
        return loss, grads, rows

    def train_pairs(
        self,
        pairs: np.ndarray,
        sampler: UnigramNegativeSampler,
        epochs: int | None = None,
        batch_size: int | None = None,
        shuffle: bool = True,
    ) -> list[float]:
        """Train on (center, context) pairs; returns the mean loss per epoch."""
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return []
        epochs = epochs if epochs is not None else self.config.epochs
        batch_size = batch_size if batch_size is not None else self.config.batch_size
        negatives_k = self.config.negatives_per_positive
        params = {"input": self.input_embeddings, "output": self.output_embeddings}
        history: list[float] = []
        for _ in range(epochs):
            order = self.rng.permutation(len(pairs)) if shuffle else np.arange(len(pairs))
            epoch_loss = 0.0
            num_batches = 0
            for start in range(0, len(pairs), batch_size):
                batch = pairs[order[start : start + batch_size]]
                centers = batch[:, 0]
                contexts = batch[:, 1]
                negatives = sampler.sample((len(batch), negatives_k))
                loss, grads, rows = self._forward_backward(centers, contexts, negatives)
                epoch_loss += loss
                num_batches += 1
                self.optimizer.update(params, grads, rows)
            history.append(epoch_loss / max(num_batches, 1))
        # Parameter dict holds references; keep attributes in sync in case the
        # optimizer ever re-binds (defensive, SGD/Adam update in place).
        self.input_embeddings = params["input"]
        self.output_embeddings = params["output"]
        return history

    # ------------------------------------------------------------ embeddings

    def embedding(self, node: int) -> np.ndarray:
        """The learned embedding of one node (the input/center vector)."""
        return self.input_embeddings[int(node)].copy()

    def embeddings(self, nodes: Sequence[int] | None = None) -> np.ndarray:
        """Embeddings of the given nodes (all nodes when None)."""
        if nodes is None:
            return self.input_embeddings.copy()
        return self.input_embeddings[np.asarray(nodes, dtype=np.int64)].copy()
