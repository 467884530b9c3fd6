"""Skip-gram with negative sampling (SGNS) over graph nodes.

A minibatch of ``b`` shuffled (center ``u``, context ``v``) pairs is split
into chunks of ``CHUNK_PAIRS`` pairs, and the pairs of one chunk share
``S = max(SHARED_NEGATIVES, k)`` negatives ``n_1..n_S``, drawn i.i.d. from
the unigram sampler.  The objective of a pair is::

    L = -log σ(x_u · y_v) - (k / S) Σ_s log σ(-x_u · y_{n_s})

where ``x`` are input (center) embeddings, ``y`` output (context)
embeddings and ``k`` is ``negatives_per_positive``.  Because the ``S``
draws are i.i.d., the weight ``k / S`` keeps each pair's expected loss and
gradient equal to those of ``k`` i.i.d. negatives of its own, the word2vec
objective; sharing only correlates the pairs of one chunk.  Each chunk's
centers are scored against its negatives by one stacked matrix product, so
the level-1 gather of ``b × k`` negative rows becomes level-3 BLAS (Ji et
al., "Parallelizing Word2Vec in Shared and Distributed Memory",
arXiv:1604.04661; chunked negatives as in PyTorch-BigGraph).  A per-pair
``(b, k)`` negatives array is the case ``C = 1``, ``S = k``, weight 1, so
:meth:`SkipGramModel.loss` on it is the plain per-pair objective.

The embedding tables are float32, as in the word2vec C reference; the
arithmetic follows the tables' dtype, so float64 tables compute in
float64.  The gradients are the standard word2vec expressions, applied
with Adam.  A set of *frozen* node indices can be supplied; those rows are
left out of every update, which is exactly how the dynamic Node2Vec
adaptation of Section IV-A keeps existing tuple embeddings stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.nn.negative_sampling import UnigramNegativeSampler
from repro.optim.optimizers import Adam, Optimizer
from repro.utils.rng import ensure_rng

#: Pairs of a training minibatch that share one set of negatives.
CHUNK_PAIRS = 16
#: Negatives drawn per chunk; a model with more negatives per positive
#: draws that many instead.
SHARED_NEGATIVES = 32


def _sigmoids(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(σ(x), σ(-x))``, computed in place of ``x``.

    ``σ(-x) = exp(-x) σ(x)`` reuses the one ``exp``; the clip keeps it in
    range (30 is far beyond float32 and float64 sigmoid saturation).
    """
    e = np.clip(x, -30.0, 30.0, out=x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    sig = e + 1.0
    np.reciprocal(sig, out=sig)
    e *= sig
    return sig, e


def _log_sum(probabilities: np.ndarray) -> float:
    """``Σ log(p + 1e-12)``, computed in place of ``probabilities``."""
    probabilities += 1e-12
    return np.log(probabilities, out=probabilities).sum()


@dataclass
class SkipGramConfig:
    """Hyper-parameters of the SGNS model (paper Table II, Node2Vec block)."""

    dimension: int = 100
    negatives_per_positive: int = 20
    batch_size: int = 40_000
    epochs: int = 10
    learning_rate: float = 0.025
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.dimension <= 0 or self.epochs <= 0:
            raise ValueError("dimension and epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


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
        self.input_embeddings = self._init_rows(num_nodes, np.float32)
        self.output_embeddings = self._init_rows(num_nodes, np.float32)
        self.optimizer = optimizer or Adam(self.config.learning_rate)
        self._frozen = np.zeros(num_nodes, dtype=bool)

    def _init_rows(self, count: int, dtype: type) -> np.ndarray:
        """``count`` rows of N(0, init_scale²) draws, cast to ``dtype``."""
        draws = self.rng.normal(0.0, self.config.init_scale, size=(count, self.config.dimension))
        return draws.astype(dtype)

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
        new_in = self._init_rows(count, self.input_embeddings.dtype)
        new_out = self._init_rows(count, self.output_embeddings.dtype)
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
        """Gathered rows and scores of a batch whose chunks share negatives.

        ``negatives`` is ``(chunks, S)``: the ``b`` pairs fill the chunks in
        order, ``w = ⌈b / chunks⌉`` to a chunk, and each chunk's centers are
        scored against its ``S`` rows by one stacked product.  The last
        chunk is padded with node 0's row.  Returns ``x`` ``(chunks, w, d)``,
        ``y_pos`` ``(b, d)``, ``y_neg`` ``(chunks, S, d)`` and the scores
        ``x·y_pos`` ``(b,)`` and ``x·y_neg`` ``(chunks · w, S)``, whose rows
        past ``b`` belong to the padding.
        """
        chunks = len(negatives)
        width = -(-len(centers) // chunks)
        padded = np.zeros(chunks * width, dtype=np.int64)
        padded[: len(centers)] = centers
        x = self.input_embeddings[padded].reshape(chunks, width, -1)
        y_pos = self.output_embeddings[contexts]
        y_neg = self.output_embeddings[negatives]
        pos_score = np.einsum("bd,bd->b", x.reshape(chunks * width, -1)[: len(centers)], y_pos)
        neg_score = np.matmul(x, y_neg.transpose(0, 2, 1)).reshape(chunks * width, -1)
        return x, y_pos, y_neg, pos_score, neg_score

    def _negative_weight(self, negatives: np.ndarray) -> float:
        """``k / S``: the weight of each shared negative's term."""
        return self.config.negatives_per_positive / negatives.shape[1]

    def _loss_and_sigmoids(
        self, pos_score: np.ndarray, neg_score: np.ndarray, negatives: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """The batch's mean loss and ``σ`` of every score, in place of the scores."""
        count = len(pos_score)
        pos_sig, _ = _sigmoids(pos_score)
        neg_sig, neg_rest = _sigmoids(neg_score)
        weight = self._negative_weight(negatives)
        loss = -np.log(pos_sig + 1e-12).sum() - weight * _log_sum(neg_rest[:count])
        return float(loss / max(count, 1)), pos_sig, neg_sig

    def loss(self, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray) -> float:
        """Mean SGNS loss of a batch (the oracle of the fused training step).

        ``negatives`` is ``(chunks, S)`` as in :meth:`_scores`; a per-pair
        ``(b, k)`` array gives the plain word2vec loss.
        """
        *_, pos_score, neg_score = self._scores(centers, contexts, negatives)
        return self._loss_and_sigmoids(pos_score, neg_score, negatives)[0]

    def _scatter_rows(self, nodes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-node sums of ``values[i]`` over ``nodes[i]``.

        Returns the touched, unfrozen nodes in increasing order and one
        summed row for each.  The sums are one sparse product; entries of
        frozen nodes go to a spare last row that is dropped.
        """
        touched = np.zeros(self.num_nodes, dtype=bool)
        touched[nodes] = True
        rows = np.flatnonzero(touched & ~self._frozen)
        slot = np.full(self.num_nodes, rows.size, dtype=np.int32)
        slot[rows] = np.arange(rows.size)
        spread = sparse.csc_matrix(
            (
                np.ones(nodes.size, dtype=values.dtype),
                slot[nodes],
                np.arange(nodes.size + 1, dtype=np.int32),
            ),
            shape=(rows.size + 1, nodes.size),
        )
        return rows, (spread @ values)[:-1]

    def _forward_backward(
        self, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray], dict[str, np.ndarray]]:
        """One pass over a batch: its mean loss and the accumulated gradients.

        The loss is taken before any update and equals :meth:`loss`.  The
        gradients come as (grads, row-index) dicts with one row per touched
        unfrozen node, so frozen rows are never updated.
        """
        x, y_pos, y_neg, pos_score, neg_score = self._scores(centers, contexts, negatives)
        loss, pos_coef, neg_coef = self._loss_and_sigmoids(pos_score, neg_score, negatives)
        count = len(centers)
        batch = max(count, 1)
        chunks, width, dim = x.shape
        # d loss / d score, per positive and per (pair, shared negative); the
        # padding of the last chunk gets coefficient 0
        pos_coef -= 1.0
        pos_coef /= batch
        neg_coef *= self._negative_weight(negatives) / batch
        neg_coef[count:] = 0.0
        neg_coef = neg_coef.reshape(chunks, width, -1)
        grad_x = np.matmul(neg_coef, y_neg).reshape(chunks * width, dim)[:count]
        grad_x += np.multiply(y_pos, pos_coef[:, None], out=y_pos)
        # the output rows: each pair's context, then each chunk's negatives
        values = np.empty((count + negatives.size, dim), dtype=x.dtype)
        np.multiply(pos_coef[:, None], x.reshape(chunks * width, dim)[:count], out=values[:count])
        np.matmul(neg_coef.transpose(0, 2, 1), x, out=values[count:].reshape(chunks, -1, dim))
        input_rows, grad_input = self._scatter_rows(centers, grad_x)
        output_rows, grad_output = self._scatter_rows(
            np.concatenate([contexts, negatives.reshape(-1)]), values
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
        """Train on (center, context) pairs; returns the mean loss per epoch.

        Each minibatch draws its negatives as one ``(chunks, S)`` sample,
        ``chunks = ⌈b / CHUNK_PAIRS⌉``.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return []
        epochs = epochs if epochs is not None else self.config.epochs
        batch_size = batch_size if batch_size is not None else self.config.batch_size
        shared = max(SHARED_NEGATIVES, self.config.negatives_per_positive)
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
                negatives = sampler.sample((-(-len(batch) // CHUNK_PAIRS), shared))
                loss, grads, rows = self._forward_backward(centers, contexts, negatives)
                epoch_loss += loss
                num_batches += 1
                self.optimizer.update(params, grads, rows)
            history.append(epoch_loss / max(num_batches, 1))
        # Parameter dict holds references; keep attributes in sync in case the
        # optimizer ever re-binds (defensive, Adam updates in place).
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
